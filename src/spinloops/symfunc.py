"""Exact symmetric-function and symmetric-group character machinery.

Partitions are plain tuples of weakly decreasing positive integers.  The
module provides lexicographic partition enumeration, Schur evaluation by
divided differences (repeated arguments need no special case), power sums,
Murnaghan-Nakayama characters in exact integer arithmetic, hook-length
dimensions, character ratios at a transposition, and the exact
finite-n expectation of loop observables for the theta^{#loops} interchange
measure via its character expansion.

The character expansion uses the fact that composing a Poisson(lambda)
number of uniform random transpositions multiplies E[chi(sigma)]/dim by
exp(lambda (r - 1)) per step, where r is the character ratio at a
transposition; summing over shapes with Schur coefficients turns products
of cycle observables into a ratio of explicit finite sums.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import permutations as _permutations

import numpy as np

from . import pd as _pd

__all__ = [
    "partitions",
    "schur_eval",
    "schur_eval_exact",
    "schur_at_ones",
    "power_sum_eval",
    "CharacterValue",
    "character",
    "dimension",
    "transposition_ratio",
    "interchange_expectation_exact",
    "schur_ratio_limit_check",
    "SchurLimitReport",
]


def partitions(n: int, max_length: int | None = None):
    """Yield partitions of n as weakly decreasing tuples, lexicographically.

    max_length restricts the number of parts; partitions(0) yields ().
    """
    if n < 0:
        raise ValueError("partitions of negative integers do not exist")
    for block in _shape_blocks(n, n if max_length is None else min(max_length, n)):
        yield from (tuple(filter(None, row)) for row in block.tolist())


_BLOCK = 1 << 12  # shapes per vectorised block: bounds memory, stays in cache


def _shape_blocks(n: int, rows: int, block: int = _BLOCK):
    """Yield the partitions of n with at most `rows` parts as (k, rows) int arrays.

    Zero-padded, in the order of `partitions`; parents expand depth first in
    groups of about `block` children (at most block + n + 1).
    """
    def grow(shapes, rest, cap):
        slots = rows - shapes.shape[1]
        if slots <= 0:
            if not rest.any():  # rows = 0 leaves only the empty partition of 0
                yield shapes
            return
        hi = np.minimum(rest, cap)
        counts = hi + 1 + (-rest // slots)  # parts run from hi down to ceil(rest / slots)
        starts = np.cumsum(counts) - counts
        bounds = [0, *(np.flatnonzero(np.diff(starts // block)) + 1), len(counts)]
        for a, b in zip(bounds[:-1], bounds[1:]):
            c = counts[a:b]
            parent = np.repeat(np.arange(a, b), c)
            part = hi[parent] - (np.arange(c.sum()) - np.repeat(np.cumsum(c) - c, c))
            yield from grow(np.column_stack((shapes[parent], part)), rest[parent] - part, part)

    yield from grow(np.zeros((1, 0), dtype=np.int64), np.array([n]), np.array([n]))


# ---------------------------------------------------------------------------
# Schur / power-sum evaluation
# ---------------------------------------------------------------------------

def schur_at_ones(lam, r: int) -> Fraction:
    """s_lambda(1, ..., 1) with r ones: prod_{i<j} (lam_i - i - lam_j + j)/(j - i)."""
    lam = tuple(lam)
    if len(lam) > r:
        return Fraction(0)
    full = lam + (0,) * (r - len(lam))
    val = Fraction(1)
    for i in range(r):
        for j in range(i + 1, r):
            val *= Fraction(full[i] - (i + 1) - full[j] + (j + 1), (j + 1) - (i + 1))
    return val


def schur_eval(lam, xs) -> complex:
    """Schur polynomial s_lambda(x_1, ..., x_r) by divided differences.

    s_lambda = (-1)^{C(r,2)} det[h_{l_j - k}(x_1..x_{k+1})] with l_j =
    lambda_j + r - j (see _schur_exp): the Vandermonde is divided out
    exactly, so equal or close arguments need no merging.  Zero arguments
    are dropped, and s_lambda(x) = c^{|lambda|} s_lambda(x / c) with c the
    largest |x_i| keeps the table in range unless |lambda| log(max |x_i| /
    min |x_i|) exceeds ~700, where it raises ValueError.
    """
    lam = tuple(lam)
    xs = list(xs)
    if any(lam[i] < lam[i + 1] for i in range(len(lam) - 1)) or any(p < 1 for p in lam):
        raise ValueError("lam must be a weakly decreasing tuple of positive parts")
    if len(lam) > len(xs):
        warnings.warn("Schur polynomial vanishes when l(lam) > #variables", stacklevel=2)
        return 0.0
    nonzero = [x for x in xs if x != 0]
    r = len(nonzero)
    if len(lam) > r:
        return 0.0
    l = np.array([[(lam[j] if j < len(lam) else 0) + r - 1 - j for j in range(r)]], dtype=int)
    ts = np.log(np.asarray(nonzero, dtype=complex))
    shift = ts.real.max() if r else 0.0
    with np.errstate(over="ignore", invalid="ignore"):  # checked just below
        val = _schur_exp(ts - shift, int(l.max(initial=0)))(l)[0]
    if not np.isfinite(val):
        raise ValueError("schur_eval overflows: arguments too far apart for this degree")
    val *= math.exp(sum(lam) * shift)
    if all(isinstance(x, (int, float)) for x in xs):
        return float(val.real)
    return complex(val)


def schur_eval_exact(lam, xs) -> Fraction:
    """Exact rational Schur value for distinct exact (int/Fraction) arguments.

    Leibniz expansion of the bialternant; intended for small variable counts
    in exactness tests.
    """
    lam = tuple(lam)
    xs = [Fraction(x) for x in xs]
    r = len(xs)
    if len(set(xs)) != r:
        raise ValueError("schur_eval_exact needs distinct arguments")
    if len(lam) > r:
        return Fraction(0)
    exps = [lam[j] + r - j - 1 if j < len(lam) else r - j - 1 for j in range(r)]
    det = Fraction(0)
    for perm in _permutations(range(r)):
        inversions = sum(
            1 for i in range(r) for j in range(i + 1, r) if perm[i] > perm[j]
        )
        term = Fraction((-1) ** inversions)
        for i in range(r):
            term *= xs[i] ** exps[perm[i]]
        det += term
    vand = Fraction(1)
    for i in range(r):
        for j in range(i + 1, r):
            vand *= xs[i] - xs[j]
    return det / vand


def power_sum_eval(mu, xs) -> complex:
    """p_mu(x) = prod_j sum_i x_i^{mu_j}."""
    val = 1.0 + 0.0j
    for part in mu:
        val *= sum(x**part for x in xs)
    if all(isinstance(x, (int, float)) for x in xs):
        return float(val.real)
    return val


# ---------------------------------------------------------------------------
# Characters
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CharacterValue:
    lam: tuple
    mu: tuple
    value: int


def _beta_numbers(lam: tuple, length: int) -> tuple:
    """First-column hook lengths lam_i + (length - i), a strictly decreasing set."""
    full = lam + (0,) * (length - len(lam))
    return tuple(full[i] + (length - 1 - i) for i in range(length))


@lru_cache(maxsize=None)
def _mn_character(lam: tuple, mu: tuple) -> int:
    """Murnaghan-Nakayama recursion over border strips, exact integers."""
    if not mu:
        return 1 if not lam else 0
    k = mu[0]
    rest = mu[1:]
    length = max(len(lam), 1)
    betas = list(_beta_numbers(lam, length))
    beta_set = set(betas)
    total = 0
    for i, b in enumerate(betas):
        nb = b - k
        if nb < 0 or nb in beta_set:
            continue
        height = sum(1 for c in betas if nb < c < b)
        new = sorted([c for c in betas if c != b] + [nb], reverse=True)
        # convert beta numbers back to a partition
        new_lam = tuple(
            v - (length - 1 - idx) for idx, v in enumerate(new)
        )
        new_lam = tuple(p for p in new_lam if p > 0)
        total += (-1) ** height * _mn_character(new_lam, rest)
    return total


def character(lam, mu) -> CharacterValue:
    """Irreducible character chi_lambda evaluated on cycle type mu (exact)."""
    lam = tuple(lam)
    mu = tuple(sorted(mu, reverse=True))
    if sum(lam) != sum(mu):
        raise ValueError("lam and mu must partition the same integer")
    return CharacterValue(lam, mu, _mn_character(lam, mu))


def dimension(lam) -> int:
    """Dimension of the irreducible representation: hook length formula."""
    lam = tuple(lam)
    n = sum(lam)
    if n == 0:
        return 1
    conj = [0] * lam[0]
    for part in lam:
        for j in range(part):
            conj[j] += 1
    hooks = 1
    for i, part in enumerate(lam):
        for j in range(part):
            hooks *= part - j + conj[j] - i - 1
    return math.factorial(n) // hooks


def transposition_ratio(lam) -> Fraction:
    """Character ratio chi_lambda((1,2)) / dim at a transposition.

    Equals the content sum of the diagram divided by binom(n, 2); the
    identity is cross-checked against the Murnaghan-Nakayama value in tests.
    """
    lam = tuple(lam)
    n = sum(lam)
    if n < 2:
        raise ValueError("the transposition ratio needs n >= 2")
    content = 0
    for i, part in enumerate(lam):
        # sum of (j - i) over cells (i, j), zero-based
        content += part * (part - 1) // 2 - i * part
    return Fraction(content, math.comb(n, 2))


# ---------------------------------------------------------------------------
# Interchange expectation and the Schur ratio limit
# ---------------------------------------------------------------------------

def _schur_exp(ts, top: int):
    """Batched s_lambda(e^{t_1}, .., e^{t_r}) as a function of l = lambda_j + r - j <= top.

    Newton divided differences of the bialternant rows x_a^{l_j} divide out
    the Vandermonde exactly: the k-th one of x^l over x_1..x_{k+1} is the
    complete homogeneous h_{l-k}(x_1..x_{k+1}), so s_lambda = (-1)^{C(r,2)}
    det[h_{l_j-k}]: equal or close fields need no merging.  The h_m table
    adds one variable at a time, h_m(.., x) = sum_i x^i h_{m-i}(..).
    """
    ts = np.asarray(ts)
    r, m = len(ts), np.arange(top + 1)
    table = np.zeros((r, r + top + 1), dtype=complex if ts.dtype.kind == "c" else float)
    col = (m == 0) * 1.0
    for k, t in enumerate(ts):
        table[k, r:] = col = np.exp(m * t) * np.cumsum(np.exp(-m * t) * col)
    offsets = np.arange(r)[:, None] * (r + top) + r  # flat index of h_{l-k} is l + offset_k
    sign = (-1.0) ** (r * (r - 1) // 2)
    return lambda l: sign * np.linalg.det(table.ravel().take(l[:, None, :] + offsets))


def interchange_expectation_exact(n: int, theta: int, beta: float, hvec) -> complex:
    """Exact E[prod_i q_h(l_i / n)] under the theta^{#loops} interchange measure.

    Expands the cycle observable in irreducible characters: for each shape
    lambda with at most theta rows the Poissonized transposition walk gives
    E[chi_lambda] = dim_lambda exp((beta/n) binom(n,2) (r(lambda) - 1)), so

        value = sum_lam s_lam(e^{h/n}) w_lam / sum_lam s_lam(1,...,1) w_lam.

    Shapes are summed as arrays in blocks, with a running log-sum-exp.  With
    l_i = lambda_i + theta - i, log w_lam = sum_{i<j} log(l_i - l_j) -
    sum_i log l_i! + (beta/n)(content - binom(n, 2)) (log n! cancels) and
    s_lam(1,...,1) = prod_{i<j} (l_i - l_j)/(j - i).  Shapes grow like
    n^(theta-1): theta = 3 runs to n ~ 10^4, theta = 4 to n ~ 500.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if theta < 1:
        raise ValueError("theta must be >= 1")
    hv = list(hvec)
    if len(hv) != theta:
        raise ValueError(f"hvec must have length theta = {theta}")
    log_fact = np.array([math.lgamma(k + 1.0) for k in range(n + theta)])
    schur = _schur_exp(np.asarray(hv) / n, n + theta - 1)
    iu, ju = np.triu_indices(theta, 1)
    top, numer, denom = -np.inf, 0.0, 0.0
    for shapes in _shape_blocks(n, theta, _BLOCK):
        l = shapes + np.arange(theta - 1, -1, -1)
        gaps = l[:, iu] - l[:, ju]
        content = (shapes * (shapes - 1) // 2 - np.arange(theta) * shapes).sum(axis=1)
        log_w = np.log(gaps).sum(axis=1) - log_fact[l].sum(axis=1)
        log_w += (beta / n) * (content - math.comb(n, 2))
        peak = log_w.max()
        if peak > top:
            numer, denom, top = numer * np.exp(top - peak), denom * np.exp(top - peak), peak
        w = np.exp(log_w - top)
        numer = numer + w @ schur(l)
        denom = denom + w @ np.prod(gaps / (ju - iu), axis=1)
    value = numer / denom
    return complex(value) if any(isinstance(h, complex) for h in hv) else float(np.real(value))


@dataclass
class SchurLimitReport:
    rows: list[tuple[int, complex, float]]  # (n, ratio, |ratio - target|)
    target: complex


def schur_ratio_limit_check(lambdas, hvec, x=None) -> SchurLimitReport:
    """Track s_lam(e^{h/n}) / s_lam(1,..,1) along a shape sequence.

    For shapes lambda with lambda/n -> x the ratio converges to the
    determinant function R(h; x); the report lists the distance per shape.
    The target x (weakly decreasing, summing to 1) defaults to the rescaled
    last shape.
    """
    lambdas = [tuple(l) for l in lambdas]
    hv = list(hvec)
    theta = len(hv)
    if any(len(lam) > theta for lam in lambdas):
        raise ValueError("shapes may have at most len(hvec) rows")
    if x is None:
        last = lambdas[-1]
        n_last = sum(last)
        x = [last[i] / n_last if i < len(last) else 0.0 for i in range(theta)]
    x = list(x)
    if any(x[i] < x[i + 1] - 1e-12 for i in range(len(x) - 1)):
        raise ValueError("target x must be weakly decreasing")
    if abs(sum(x) - 1.0) > 1e-9:
        raise ValueError("target x must sum to 1")
    target = _pd.r_function(hv, x)
    rows = []
    for lam in lambdas:
        l = np.array([lam + (0,) * (theta - len(lam))]) + np.arange(theta - 1, -1, -1)
        s_h = _schur_exp(np.asarray(hv) / sum(lam), l.max())(l)[0]
        ratio = complex(s_h) / float(schur_at_ones(lam, theta))
        rows.append((sum(lam), ratio, abs(ratio - target)))
    return SchurLimitReport(rows, target)
