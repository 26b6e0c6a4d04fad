"""Poisson-Dirichlet and Ewens machinery, plus the determinant function R.

PD(theta) enters as the conjectured law of rescaled macroscopic loop
lengths.  This module provides:

  * stick-breaking sampling with Beta(1, theta) sticks (inverse CDF,
    u -> 1 - u^{1/theta}), drawn for all samples at once and streamed one
    column of sticks at a time, so memory is O(samples) and no
    (samples, sticks) matrix is ever formed,
  * the closed-form series for E[prod cosh(h X_i)],
  * the level-average functions q_h(t) and their spin special case,
  * the determinant ratio R(h; x) = det[e^{h_i x_j}] prod (j-i)/((h_i-h_j)(x_i-x_j))
    with confluent (repeated-argument) evaluation via derivative rows/columns,
  * Monte Carlo vs closed-form checks of E[prod q_h(z* X_i)],
  * Ewens cycle-type sampling through the Feller coupling.

Samplers take an explicit numpy Generator; closed-form evaluators are pure.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "EwensPermutation",
    "stick_breaking_columns",
    "pd_cosh_series",
    "q_eval",
    "q_spin",
    "sinhc",
    "r_function",
    "r_spin_product",
    "r_projector",
    "pd_q_expectation_exact",
    "pd_q_expectation_mc",
    "ewens_sample",
]


@dataclass(frozen=True)
class EwensPermutation:
    n: int
    cycle_type: tuple[int, ...]


def stick_breaking_columns(
    theta: float, n: int, rng: np.random.Generator, truncation: float = 1e-12
):
    """Stick-breaking for n independent PD(theta) samples, one column at a time.

    Yields (n,) arrays: column k holds the k-th stick Y_k = B_k prod_{i<k}
    (1 - B_i) of every row, B ~ Beta(1, theta) by inverse CDF, and 0 for a
    row whose remaining mass has already dropped below `truncation`.  Stops
    once no row is left, so each row follows the scalar loop "break while
    the remaining mass is >= truncation"; the row's residual is 1 minus its
    sticks.  Columns are unsorted; reduce them as they arrive (cosh(0) =
    q_h(0) = 1, so dead rows are neutral in products).
    """
    if theta <= 0.0:
        raise ValueError("theta must be positive")
    remaining = np.ones(n)
    for _ in range(100_000):
        alive = remaining >= truncation
        if not alive.any():
            return
        # 1 - U^{1/theta} for U uniform on (0, 1]
        part = np.where(alive, -np.expm1(np.log1p(-rng.random(n)) / theta) * remaining, 0.0)
        remaining -= part
        yield part
    raise ArithmeticError("stick breaking failed to terminate")


def pd_cosh_series(theta: float, h: complex | float) -> complex | float:
    """E_{PD(theta)}[prod_i cosh(h X_i)] as a convergent even power series.

    value = Gamma(theta) / Gamma(theta/2) * sum_k Gamma(theta/2 + k) h^{2k}
            / (k! Gamma(theta + 2k)),
    normalised so the value is 1 at h = 0.  Terms are generated by the ratio
    recurrence and summation stops on a 1e-16 relative term (cap 500 terms).
    Special cases: theta = 2 gives sinh(h)/h, theta = 1 gives I_0(h).
    """
    if theta <= 0.0:
        raise ValueError("theta must be positive")
    h2 = h * h
    term = 1.0 + 0.0 * h2  # k = 0 term after Gamma(theta) normalisation
    total = term
    for k in range(500):
        term = term * h2 * (0.5 * theta + k) / ((k + 1) * (theta + 2 * k) * (theta + 2 * k + 1))
        total += term
        if abs(term) < 1e-16 * max(1.0, abs(total)):
            break
    if isinstance(h, complex):
        return total
    return float(np.real(total))


def q_eval(hvec, t) -> complex:
    """q_h(t) = (1/theta) sum_i e^{h_i t}."""
    hv = list(hvec)
    val = sum(cmath.exp(h * t) for h in hv) / len(hv)
    if all(isinstance(h, (int, float)) for h in hv) and isinstance(t, (int, float)):
        return val.real
    return val


def q_spin(two_s: int, t: float) -> float:
    """q for the equally spaced fields -S, -S+1, ..., S.

    Equals sinh((2S+1) t / 2) / ((2S+1) sinh(t / 2)); evaluated as the
    average of 2S+1 exponentials, which is smooth through t = 0.
    """
    theta = two_s + 1
    return sum(math.exp((k - 0.5 * two_s) * t) for k in range(theta)) / theta


def sinhc(x: complex | float) -> complex | float:
    """sinh(x)/x, equal to 1 at x = 0."""
    if abs(x) < 1e-8:
        return 1.0 + x * x / 6.0
    if isinstance(x, complex):
        return cmath.sinh(x) / x
    return math.sinh(x) / x


# ---------------------------------------------------------------------------
# The determinant function R and its confluent forms
# ---------------------------------------------------------------------------

def _superfactorial(theta: int) -> int:
    out = 1
    for k in range(1, theta):
        out *= math.factorial(k)
    return out


def _cluster(values, tol: float):
    """(representative, multiplicity) clusters of near-coincident values."""
    vals = [complex(v) for v in values]
    k = len(vals)
    parent = list(range(k))

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for i in range(k):
        for j in range(i + 1, k):
            if abs(vals[i] - vals[j]) < tol:
                ri, rj = find(i), find(j)
                if ri != rj:
                    parent[rj] = ri
    groups: dict[int, list[int]] = {}
    for i in range(k):
        groups.setdefault(find(i), []).append(i)
    out = []
    for root in sorted(groups, key=lambda r: min(groups[r])):
        members = groups[root]
        rep = sum(vals[i] for i in members) / len(members)
        out.append((rep, len(members)))
    return out


def _r_confluent(h_clusters, x_clusters) -> complex:
    """R via the generalized (confluent) two-sided Vandermonde limit.

    Rows carry d-th h-derivatives / d!, columns s-th x-derivatives / s! of
    e^{h x}; merged arguments contribute (-1)^{C(m,2)} orientation factors
    and only cross-cluster differences remain in the denominator.
    """
    theta = sum(m for _, m in h_clusters)
    size = sum(m for _, m in x_clusters)
    if size != theta:
        raise ValueError("h and x must have the same length")
    rows = []
    for hv, p in h_clusters:
        for d in range(p):
            rows.append((hv, d))
    cols = []
    for xv, q in x_clusters:
        for s in range(q):
            cols.append((xv, s))
    mat = np.zeros((theta, theta), dtype=complex)
    for i, (hv, d) in enumerate(rows):
        for j, (xv, s) in enumerate(cols):
            core = cmath.exp(hv * xv)
            acc = 0.0 + 0.0j
            for k in range(min(d, s) + 1):
                hpow = 1.0 if s - k == 0 else hv ** (s - k)
                xpow = 1.0 if d - k == 0 else xv ** (d - k)
                acc += hpow * xpow / (
                    math.factorial(k) * math.factorial(d - k) * math.factorial(s - k)
                )
            mat[i, j] = core * acc
    det = np.linalg.det(mat)
    denom = 1.0 + 0.0j
    sign = 1.0
    for a, (hv, p) in enumerate(h_clusters):
        sign *= (-1.0) ** (p * (p - 1) // 2)
        for b in range(a + 1, len(h_clusters)):
            denom *= (hv - h_clusters[b][0]) ** (p * h_clusters[b][1])
    for a, (xv, q) in enumerate(x_clusters):
        sign *= (-1.0) ** (q * (q - 1) // 2)
        for b in range(a + 1, len(x_clusters)):
            denom *= (xv - x_clusters[b][0]) ** (q * x_clusters[b][1])
    return _superfactorial(theta) * sign * det / denom


def r_spin_product(h: complex | float, z: float, two_s: int) -> complex | float:
    """R at equally spaced fields h(-S..S) and x = (x, y, .., y), z = x - y.

    Closed product form [sinh(h z / 2) / (h z / 2)]^{2S}.
    """
    return sinhc(0.5 * h * z) ** two_s


def r_projector(h: complex | float, z: float, y: float, theta: int) -> complex | float:
    """R at fields (h, 0, ..., 0) and x = (y + z, y, ..., y).

    Equals e^{h y} (theta-1)! sum_{i>=0} (h z)^i / (i + theta - 1)!, the
    rank-one-projector generating function; evaluated as an entire series.
    """
    hz = h * z
    term = 1.0 / math.factorial(theta - 1) * (1.0 + 0.0 * hz)
    total = term
    for i in range(1, 500):
        term = term * hz / (i + theta - 1)
        total += term
        if abs(term) < 1e-18 * max(1.0, abs(total)):
            break
    val = math.factorial(theta - 1) * total
    if isinstance(h, complex):
        return cmath.exp(h * y) * val
    return math.exp(h * y) * float(np.real(val))


def r_function(hvec, xvec, merge_tol: float = 1e-6) -> complex:
    """R(h_1..h_theta; x_1..x_theta) = det[e^{h_i x_j}] prod (j-i)/((h_i-h_j)(x_i-x_j)).

    Continuous in all arguments.  Distinct arguments use the determinant and
    product directly; arguments within merge_tol are merged and handled by
    the confluent (derivative-row/column) form.  The two patterns that occur
    in the loop limits, equally spaced h with x = (x, y, .., y) and
    h = (h, 0, .., 0) with x = (x, y, .., y), are routed to their closed
    forms.
    """
    hv = [complex(h) for h in hvec]
    xv = [complex(x) for x in xvec]
    theta = len(hv)
    if len(xv) != theta:
        raise ValueError("hvec and xvec must have the same length")
    if theta == 1:
        return cmath.exp(hv[0] * xv[0])
    h_clusters = _cluster(hv, merge_tol)
    x_clusters = _cluster(xv, merge_tol)

    # closed-form routes for the two-level column pattern x = (x, y, ..., y)
    two_level = None
    if theta >= 2 and len(x_clusters) == 2 and all(abs(c.imag) < 1e-14 for c, _ in x_clusters):
        if theta == 2:
            two_level = (x_clusters[0][0].real, x_clusters[1][0].real)  # (x, y)
        else:
            singletons = [c for c in x_clusters if c[1] == 1]
            bulk = [c for c in x_clusters if c[1] == theta - 1]
            if singletons and bulk:
                two_level = (singletons[0][0].real, bulk[0][0].real)  # (x, y)
    if two_level is not None:
        x1, y = two_level
        z = x1 - y
        # h = (h, 0, ..., 0): rank-one projector form
        if len(h_clusters) == 2:
            h_single = [c for c in h_clusters if c[1] == 1]
            h_zero = [c for c in h_clusters if abs(c[0]) < merge_tol]
            if (
                h_single
                and h_zero
                and h_zero[0][1] == theta - 1
                and abs(h_single[0][0]) >= merge_tol
            ):
                return r_projector(h_single[0][0], z, y, theta)
        if len(h_clusters) == theta:
            # equally spaced fields h_i = c + i*step: e^{mean(h) sum(x)} times
            # the sinh product of the centered spin pattern
            order = sorted(range(theta), key=lambda i: (hv[i].real, hv[i].imag))
            hs = [hv[i] for i in order]
            diffs = [hs[i + 1] - hs[i] for i in range(theta - 1)]
            if all(abs(d - diffs[0]) < 1e-12 for d in diffs) and abs(diffs[0]) > merge_tol:
                step = diffs[0]
                mean_h = sum(hs) / theta
                sum_x = x1 + (theta - 1) * y
                return cmath.exp(mean_h * sum_x) * r_spin_product(step, z, theta - 1)
    if len(h_clusters) == theta and len(x_clusters) == theta:
        mat = np.array([[cmath.exp(h * x) for x in xv] for h in hv], dtype=complex)
        det = np.linalg.det(mat)
        denom = 1.0 + 0.0j
        for i in range(theta):
            for j in range(i + 1, theta):
                denom *= (hv[i] - hv[j]) * (xv[i] - xv[j])
        return _superfactorial(theta) * det / denom
    return _r_confluent(h_clusters, x_clusters)


def pd_q_expectation_exact(theta: int, hvec, z_star: float) -> complex:
    """Closed form for E_{PD(theta)}[prod_i q_h(z* X_i)].

    Equals exp(-(1 - z*) sum_i h_i / theta) R(h; x*) with the two-level
    argument x* = (z* + (1-z*)/theta, (1-z*)/theta, ...).
    """
    hv = list(hvec)
    if len(hv) != theta:
        raise ValueError("hvec must have length theta")
    y = (1.0 - z_star) / theta
    xs = [z_star + y] + [y] * (theta - 1)
    total = sum(hv)
    val = cmath.exp(-(1.0 - z_star) * total / theta) * r_function(hv, xs)
    if all(isinstance(h, (int, float)) for h in hv):
        return float(np.real(val))
    return val


def pd_q_expectation_mc(
    theta: int,
    hvec,
    z_star: float,
    n_samples: int,
    rng: np.random.Generator,
    truncation: float = 1e-12,
) -> tuple[complex | float, float]:
    """Monte Carlo mean and standard error of prod_i q_h(z* X_i) under PD(theta).

    The product runs over stick columns in real arithmetic for real fields
    and in complex arithmetic otherwise; for complex fields the mean is
    complex and the standard error is that of the complex mean,
    sqrt((var Re + var Im) / n).  Only integer theta >= 2 is admitted;
    the closed form this is checked against is specific to integer theta
    and is not extrapolated.
    """
    if not isinstance(theta, (int, np.integer)) or theta < 2:
        raise ValueError("pd_q_expectation_mc requires integer theta >= 2")
    if not 0.0 <= z_star <= 1.0:
        raise ValueError("z_star must lie in [0, 1]")
    hv = np.asarray(hvec)
    if not np.iscomplexobj(hv):
        hv = hv.astype(float)
    if len(hv) != theta:
        raise ValueError("hvec must have length theta")
    if z_star == 0.0:
        return 1.0, 0.0
    vals = np.ones(n_samples, dtype=hv.dtype)
    for col in stick_breaking_columns(theta, n_samples, rng, truncation):
        vals *= np.exp(np.multiply.outer(z_star * col, hv)).sum(axis=1) / theta
    mean = vals.mean()
    se = float(np.sqrt(vals.real.var(ddof=1) + vals.imag.var(ddof=1)) / math.sqrt(n_samples))
    return (complex(mean) if np.iscomplexobj(vals) else float(mean)), se


# ---------------------------------------------------------------------------
# Ewens sampling
# ---------------------------------------------------------------------------

def ewens_sample(n: int, theta: float, rng: np.random.Generator) -> EwensPermutation:
    """Cycle type of an Ewens(theta) permutation of n elements.

    Feller coupling (Arratia, Barbour & Tavare, Logarithmic Combinatorial
    Structures, 2003, ch. 1): with independent xi_i ~ Bernoulli(theta /
    (theta + i - 1)), i = 1..n, the cycle lengths are exactly the spacings
    between successive ones in xi_1 ... xi_n 1 (xi_1 = 1 always).
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if theta <= 0.0:
        raise ValueError("theta must be positive")
    xi = rng.random(n) * (theta + np.arange(n)) < theta
    sizes = np.diff(np.flatnonzero(np.append(xi, True)))
    return EwensPermutation(n, tuple(sorted(sizes.tolist(), reverse=True)))
