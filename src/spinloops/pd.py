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
    on one divided-difference path, equal and close arguments included,
    for rho = max|h_i - mean h| max|x_j - mean x| up to 10 (ValueError
    beyond),
  * Monte Carlo vs closed-form checks of E[prod q_h(z* X_i)],
  * Ewens cycle-type sampling through the Feller coupling.

Samplers take an explicit numpy Generator; closed-form evaluators are pure.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import lru_cache

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
# The determinant function R
# ---------------------------------------------------------------------------

# Largest rho = max|h_i - mean h| max|x_j - mean x| r_function admits; past
# it det D cancels beyond 1e-10 relative.
_RHO_CAP = 10.0


def _exp_divided_differences(nodes, terms: int) -> np.ndarray:
    """(terms, len(nodes)) table of h_{k-i}(v_1..v_{i+1}) at [k, i].

    h_m is the complete homogeneous polynomial, h_m = 0 for m < 0, built
    one variable at a time by h_m(.., v) = h_m(..) + v h_{m-1}(.., v).
    """
    col = [1.0] + [0.0] * (len(nodes) - 1)
    rows = [col]
    for _ in range(1, terms):
        col = [v * c + prev for v, c, prev in zip(nodes, col, [0.0] + col[:-1])]
        rows.append(col)
    return np.array(rows)


@lru_cache(maxsize=32)
def _factorial_ratios(theta: int, terms: int) -> np.ndarray:
    """(terms, theta) table of i!/k!, each correctly rounded, at [k, i]."""
    return np.array([[math.factorial(i) / math.factorial(k) for i in range(theta)] for k in range(terms)])


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


def r_function(hvec, xvec) -> complex:
    """R(h_1..h_theta; x_1..x_theta) = det[e^{h_i x_j}] prod (j-i)/((h_i-h_j)(x_i-x_j)).

    One path for all arguments, equal and close ones included: Newton
    divided differences in h (rows) and x (columns) divide the two
    Vandermonde products out of det[e^{h_i x_j}] exactly (McCurdy, Ng &
    Parlett, Math. Comp. 1984; de Boor, Surveys in Approximation Theory
    2005).  With h and x centred on their means,

        R = e^{theta mean(h) mean(x)} prod_{k<theta} k! det D,
        D_ij = sum_k h_{k-i}(h_1..h_{i+1}) h_{k-j}(x_1..x_{j+1}) / k!,

    h_m the complete homogeneous polynomials.  Row i of D is taken times
    i!, which absorbs prod k! and makes the leading term of each diagonal
    entry exactly 1, and the centred h and x are rescaled to equal spread
    by a power of 2, which leaves det D unchanged.  The sum runs over
    theta + 30 + 4 rho terms, past which its tail is below 1e-16.  Within
    1e-13 relative for rho = max|h_i - mean h| max|x_j - mean x| <= 4 and
    1e-10 up to rho = 10; raises ValueError beyond.
    """
    h, x = np.asarray(hvec), np.asarray(xvec)
    theta = len(h)
    if len(x) != theta:
        raise ValueError("hvec and xvec must have the same length")
    hc, xc = h - h.mean(), x - x.mean()
    a, b = float(np.abs(hc).max()), float(np.abs(xc).max())
    rho = a * b
    if not rho <= _RHO_CAP:
        raise ValueError(f"r_function needs rho <= {_RHO_CAP}, got {rho:.3g}")
    if rho:
        scale = 2.0 ** round(0.5 * math.log2(b / a))
        hc, xc = hc * scale, xc / scale
    else:
        # one side is constant: D (rows times i!) is triangular, unit diagonal
        hc, xc = 0.0 * hc, 0.0 * xc
    terms = theta + 30 + int(4 * rho)
    d_h = _exp_divided_differences(hc.tolist(), terms)
    d_x = _exp_divided_differences(xc.tolist(), terms)
    det = np.linalg.det((_factorial_ratios(theta, terms) * d_h).T @ d_x)
    return complex(cmath.exp(theta * complex(h.mean()) * complex(x.mean())) * det)


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
