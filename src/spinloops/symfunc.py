"""The interchange character sum.

The exact finite-n expectation of loop observables for the theta^{#loops}
interchange measure via its character expansion, with Schur values read
from one table of divided differences of powers, T[l, k] =
h_{l-k}(v_1..v_{k+1}) (repeated arguments need no special case).

The character expansion uses the fact that composing a Poisson(lambda)
number of uniform random transpositions multiplies E[chi(sigma)]/dim by
exp(lambda (r - 1)) per step, where r is the character ratio at a
transposition; summing over shapes with Schur coefficients turns products
of cycle observables into a ratio of explicit finite sums.  The per-shape
Schur values, characters and dimensions it is tested with are in tests/oracles.py.
At beta = 4 and h = (1, 0, ..) it takes 0.25 s at n = 2560 and 3.9 s at
n = 10^4 for theta = 3, and 0.12 s at n = 300 and 0.52 s at n = 500 for
theta = 4 (2-core x86_64).
"""

from __future__ import annotations

import math
from itertools import accumulate

import numpy as np

from . import pd as _pd

__all__ = ["interchange_expectation_exact"]


_BLOCK = 1 << 12  # shapes per vectorised block: bounds memory, stays in cache


def _shape_blocks(n: int, rows: int):
    """Yield the partitions of n with at most `rows` parts as (k, rows) int arrays.

    Zero-padded, in lexicographically decreasing order; parents expand depth
    first in groups of about _BLOCK children (at most _BLOCK + n + 1).
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
        bounds = [0, *(np.flatnonzero(np.diff(starts // _BLOCK)) + 1), len(counts)]
        for a, b in zip(bounds[:-1], bounds[1:]):
            c = counts[a:b]
            parent = np.repeat(np.arange(a, b), c)
            part = hi[parent] - (np.arange(c.sum()) - np.repeat(np.cumsum(c) - c, c))
            yield from grow(np.column_stack((shapes[parent], part)), rest[parent] - part, part)

    yield from grow(np.zeros((1, 0), dtype=np.int64), np.array([n]), np.array([n]))


# ---------------------------------------------------------------------------
# Interchange expectation
# ---------------------------------------------------------------------------

def _divided_powers(nodes, top: int) -> np.ndarray:
    """(top + 1, len(nodes)) table T[l, k] = h_{l-k}(v_1..v_{k+1}), 0 for l < k.

    T[l, k] is the k-th divided difference of x^l over v_1..v_{k+1}, equal
    nodes included (de Boor, Surveys in Approximation Theory 2005), and h_m
    the complete homogeneous polynomial of degree m, built one variable at a
    time by h_m(.., v) = h_m(..) + v h_{m-1}(.., v).
    """
    columns, h = [], [1.0] + [0.0] * top  # h_m of no variables
    for k, v in enumerate(nodes):
        h = list(accumulate(h[: top + 1 - k], lambda prev, hm: hm + v * prev))
        columns.append([0.0] * k + h)
    return np.array(columns).T


def _schur_exp(ts, top: int):
    """Batched s_lambda(e^{t_1}, .., e^{t_r}) as a function of l = lambda_j + r - j <= top.

    Newton divided differences of the bialternant rows x_a^{l_j} divide out
    the Vandermonde exactly: the k-th one of x^l over x_1..x_{k+1} is
    T[l, k] = h_{l-k}(x_1..x_{k+1}) of _divided_powers, so s_lambda =
    (-1)^{C(r,2)} det[T[l_j, k]]: equal or close fields need no merging.
    """
    r = len(ts)
    table = _divided_powers(np.exp(ts).tolist(), top)
    sign = (-1.0) ** (r * (r - 1) // 2)
    return lambda l: sign * np.linalg.det(table[l[:, None, :], np.arange(r)[:, None]])


def interchange_expectation_exact(n: int, theta: int, beta: float, hvec) -> complex | float:
    """Exact E[prod_i q_h(l_i / n)] under the theta^{#loops} interchange measure.

    Expands the cycle observable in irreducible characters: for each shape
    lambda with at most theta rows the Poissonized transposition walk gives
    E[chi_lambda] = dim_lambda exp((beta/n) binom(n,2) (r(lambda) - 1)), so

        value = sum_lam s_lam(e^{h/n}) w_lam / sum_lam s_lam(1,...,1) w_lam.

    Shapes are summed as arrays in blocks, with a running log-sum-exp.  With
    l_i = lambda_i + theta - i, log w_lam = sum_{i<j} log(l_i - l_j) -
    sum_i log l_i! + (beta/n)(content - binom(n, 2)) (log n! cancels) and
    s_lam(1,...,1) = prod_{i<j} (l_i - l_j)/(j - i).  Shapes grow like
    n^(theta-1): theta = 3 runs to n ~ 10^4, theta = 4 to n ~ 500.  Raises
    ArithmeticError where the sum is not finite (Schur values overflow once
    max|h| nears 700).
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if theta < 1:
        raise ValueError("theta must be >= 1")
    if not (math.isfinite(beta) and beta > 0.0):
        raise ValueError("beta must be finite and positive")
    kind, hv = _pd._fields(hvec)
    if len(hv) != theta:
        raise ValueError(f"hvec must have length theta = {theta}")
    log_fact = np.array([math.lgamma(k + 1.0) for k in range(n + theta)])
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow raises below
        schur = _schur_exp(hv / n, n + theta - 1)
        iu, ju = np.triu_indices(theta, 1)
        top, numer, denom = -np.inf, 0.0, 0.0
        for shapes in _shape_blocks(n, theta):
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
    if not np.isfinite(value):
        raise ArithmeticError(f"interchange_expectation_exact is not finite at h = {hv}")
    return kind(value)
