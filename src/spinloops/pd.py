"""Poisson-Dirichlet machinery and the determinant function R.

PD(theta) enters as the conjectured law of rescaled macroscopic loop
lengths.  This module provides:

  * stick-breaking sampling with Beta(1, theta) sticks (inverse CDF,
    u -> 1 - u^{1/theta}), drawn for all samples at once and streamed one
    column of sticks at a time, so memory is O(samples) and no
    (samples, sticks) matrix is ever formed,
  * the closed-form series for E[prod cosh(h X_i)],
  * the level-average function q_h(t),
  * the divided-difference table of powers, T[l, k] = h_{l-k}(v_1..v_{k+1}),
    read by r_function here and by symfunc's Schur values,
  * the determinant ratio R(h; x) = det[e^{h_i x_j}] prod (j-i)/((h_i-h_j)(x_i-x_j))
    on one divided-difference path, equal and close arguments included,
    for rho = max|h_i - mean h| max|x_j - mean x| up to 10 (ValueError
    beyond),
  * Monte Carlo vs closed-form checks of E[prod q_h(z* X_i)].

Samplers take an explicit numpy Generator; closed-form evaluators are pure.
_fields is the one field-type rule of every engine here and in spectra,
symfunc and loops: fields are complex exactly when np.iscomplexobj says so.
Spin special cases of q and R and the Ewens sampler live in tests/oracles.py.
"""

from __future__ import annotations

import cmath
import math
from functools import lru_cache
from itertools import accumulate

import numpy as np

__all__ = [
    "stick_breaking_columns",
    "pd_cosh_series",
    "q_eval",
    "sinhc",
    "r_function",
    "pd_q_expectation_exact",
    "pd_q_expectation_mc",
]

_TRUNCATION = 1e-12  # a stick-breaking row stops once its remaining mass is below this
_MATH = {float: math, complex: cmath}  # scalar functions of each field kind


def _fields(*fields):
    """(kind, *fields): kind is complex if np.iscomplexobj holds for any field, else float.

    Vectors come back as float64 or complex128 arrays, scalars as kind; an engine returns kind(result).
    """
    kind = complex if any(map(np.iscomplexobj, fields)) else float
    return kind, *(np.asarray(f, dtype=kind) if np.ndim(f) else kind(f) for f in fields)


def stick_breaking_columns(theta: float, n: int, rng: np.random.Generator):
    """Stick-breaking for n independent PD(theta) samples, one column at a time.

    Yields (n,) arrays: column k holds the k-th stick Y_k = B_k prod_{i<k}
    (1 - B_i) of every row, B ~ Beta(1, theta) by inverse CDF, and 0 for a
    row whose remaining mass has already dropped below _TRUNCATION.  Stops
    once no row is left, so each row follows the scalar loop "break while
    the remaining mass is >= _TRUNCATION"; the row's residual is 1 minus its
    sticks.  Columns are unsorted; reduce them as they arrive (cosh(0) =
    q_h(0) = 1, so dead rows are neutral in products).
    """
    if theta <= 0.0:
        raise ValueError("theta must be positive")
    remaining = np.ones(n)
    for _ in range(100_000):
        alive = remaining >= _TRUNCATION
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

    Raises ArithmeticError where the value cannot be trusted: a sum that is
    not finite, the cap reached before the stopping test holds, or a rounding
    bound 2^-53 sum_k |term_k| above 1e-12 |sum| (terms that cancel, as for
    h far off the real axis).
    """
    if theta <= 0.0:
        raise ValueError("theta must be positive")
    kind, h = _fields(h)
    h2 = h * h
    total = term = kind(1.0)  # k = 0 term after Gamma(theta) normalisation
    mass = 1.0  # sum of |term_k|
    for k in range(500):
        term = term * h2 * (0.5 * theta + k) / ((k + 1) * (theta + 2 * k) * (theta + 2 * k + 1))
        total += term
        mass += abs(term)
        if abs(term) < 1e-16 * max(1.0, abs(total)):
            break
    else:  # an overflowed sum ends here too: inf terms never pass the test
        raise ArithmeticError(f"pd_cosh_series did not converge in 500 terms at h = {h}")
    if not _MATH[kind].isfinite(total):
        raise ArithmeticError(f"pd_cosh_series is not finite at h = {h}")
    if 2.0**-53 * mass > 1e-12 * abs(total):
        raise ArithmeticError(f"pd_cosh_series cancels beyond 1e-12 relative at h = {h}")
    return total


def q_eval(hvec, t: float) -> complex | float:
    """q_h(t) = (1/theta) sum_i e^{h_i t} at a real level t."""
    kind, hv = _fields(hvec)
    t, exp = float(t), _MATH[kind].exp
    return sum(exp(h * t) for h in hv.tolist()) / len(hv)


def sinhc(x: complex | float) -> complex | float:
    """sinh(x)/x, equal to 1 at x = 0."""
    kind, x = _fields(x)
    if abs(x) < 1e-8:
        return 1.0 + x * x / 6.0
    return _MATH[kind].sinh(x) / x


# ---------------------------------------------------------------------------
# The determinant function R
# ---------------------------------------------------------------------------

# Largest rho = max|h_i - mean h| max|x_j - mean x| r_function admits; past
# it det D cancels beyond 1e-10 relative.
_RHO_CAP = 10.0


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


@lru_cache(maxsize=32)
def _factorial_ratios(theta: int, terms: int) -> np.ndarray:
    """(terms, theta) table of i!/k!, each correctly rounded, at [k, i]."""
    return np.array([[math.factorial(i) / math.factorial(k) for i in range(theta)] for k in range(terms)])


def r_function(hvec, xvec) -> complex | float:
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
    kind, h, x = _fields(hvec, xvec)
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
    d_h, d_x = _divided_powers(hc.tolist(), terms - 1), _divided_powers(xc.tolist(), terms - 1)
    det = np.linalg.det((_factorial_ratios(theta, terms) * d_h).T @ d_x)
    return kind(_MATH[kind].exp(theta * kind(h.mean()) * kind(x.mean())) * det)


def pd_q_expectation_exact(theta: int, hvec, z_star: float) -> complex | float:
    """Closed form for E_{PD(theta)}[prod_i q_h(z* X_i)].

    Equals exp(-(1 - z*) sum_i h_i / theta) R(h; x*) with the two-level
    argument x* = (z* + (1-z*)/theta, (1-z*)/theta, ...).
    """
    kind, hv = _fields(hvec)
    if len(hv) != theta:
        raise ValueError("hvec must have length theta")
    y = (1.0 - z_star) / theta
    xs = [z_star + y] + [y] * (theta - 1)
    return _MATH[kind].exp(-(1.0 - z_star) * sum(hv.tolist()) / theta) * r_function(hv, xs)


def pd_q_expectation_mc(
    theta: int,
    hvec,
    z_star: float,
    n_samples: int,
    rng: np.random.Generator,
) -> tuple[complex | float, float]:
    """Monte Carlo mean and standard error of prod_i q_h(z* X_i) under PD(theta).

    The product runs over stick columns in real arithmetic for real fields
    and in complex arithmetic otherwise, and each column touches only the
    rows still breaking (a dead row's factor is exactly 1); the theta terms
    of a factor are added in order.  For complex fields the mean is
    complex and the standard error is that of the complex mean,
    sqrt((var Re + var Im) / n).  Only integer theta >= 2 is admitted;
    the closed form this is checked against is specific to integer theta
    and is not extrapolated.
    """
    if not isinstance(theta, (int, np.integer)) or theta < 2:
        raise ValueError("pd_q_expectation_mc requires integer theta >= 2")
    if not 0.0 <= z_star <= 1.0:
        raise ValueError("z_star must lie in [0, 1]")
    kind, hv = _fields(hvec)
    if len(hv) != theta:
        raise ValueError("hvec must have length theta")
    if z_star == 0.0:
        return kind(1.0), 0.0
    vals = np.ones(n_samples, dtype=kind)
    for col in stick_breaking_columns(theta, n_samples, rng):
        live = np.flatnonzero(col)
        zx = z_star * col[live]
        terms = np.exp(zx * hv[0])
        for h in hv[1:]:
            terms += np.exp(zx * h)
        vals[live] *= terms / theta
    mean = vals.mean()
    se = float(np.sqrt(vals.real.var(ddof=1) + vals.imag.var(ddof=1)) / math.sqrt(n_samples))
    return kind(mean), se
