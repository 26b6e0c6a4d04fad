"""Poisson-Dirichlet machinery and the closed form of the q-product.

PD(theta) enters as the conjectured law of rescaled macroscopic loop
lengths.  This module provides:

  * stick-breaking sampling with Beta(1, theta) sticks (inverse CDF,
    u -> 1 - u^{1/theta}), drawn for all samples at once and streamed one
    column of sticks at a time, so memory is O(samples) and no
    (samples, sticks) matrix is ever formed,
  * the closed-form series for E[prod cosh(h X_i)],
  * the level-average function q_h(t),
  * the closed form of E[prod q_h(z* X_i)], one divided difference of exp,
    which is the determinant function R(h; x*) at the two-level maximiser
    x* up to a factor e^{(1-z*) sum h/theta}, for fields of any size (no
    cap on their spread), and its Monte Carlo counterpart.

Samplers take an explicit numpy Generator; closed-form evaluators are pure.
_fields is the one field-type rule of every engine here and in spectra,
symfunc and loops: fields are complex exactly when np.iscomplexobj says so.
The general determinant function R(h; x), its spin special cases and the
Ewens sampler live in tests/oracles.py.
"""

from __future__ import annotations

import cmath
import math

import numpy as np

__all__ = [
    "stick_breaking_columns",
    "pd_cosh_series",
    "q_eval",
    "sinhc",
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
# The PD closed form: one divided difference of exp
# ---------------------------------------------------------------------------

def _exp_divided_difference(x: np.ndarray):
    """exp[x_1..x_k], the (k-1)-th divided difference of exp over the nodes, equal ones included.

    It is the corner entry of exp(Z), Z bidiagonal with diagonal x and
    superdiagonal 1 (Opitz 1964; McCurdy, Ng & Parlett, Math. Comp. 1984).
    Z is shifted by the midpoint m of the real parts and scaled by 2^-s,
    s = ceil(log2 max(|x - m|, 1)) + 1, so no entry exceeds 1/2; a 30-term
    Taylor series is squared s times, each square taking its exact diagonal
    e^{(x - m) 2^-j} afresh (Al-Mohy & Higham, SIMAX 2009), and multiplied
    by e^m.  For real x each square is the exponential of a matrix with a
    nonnegative off-diagonal, so it is entrywise nonnegative and squaring
    does not cancel.  x is a float64 or complex128 array.
    """
    m = 0.5 * float(x.real.max() + x.real.min())
    d = x - m
    s = math.ceil(math.log2(max(float(np.abs(d).max()), 1.0))) + 1
    a = (np.diag(d) + np.eye(len(x), k=1)) * 2.0**-s
    term = total = np.eye(len(x), dtype=x.dtype)
    for j in range(1, 31):
        term = term @ a / j
        total = total + term
    for j in range(s - 1, -1, -1):
        total = total @ total
        np.fill_diagonal(total, np.exp(d * 2.0**-j))
    return math.exp(m) * total[0, -1]


def pd_q_expectation_exact(theta: int, hvec, z_star: float) -> complex | float:
    """Closed form for E_{PD(theta)}[prod_i q_h(z* X_i)] = (theta-1)! exp[z* h_1, .., z* h_theta].

    Colour each PD(theta) part with one of theta colours at random: the
    colour masses are uniform on the simplex (Kingman 1975), so by
    Hermite-Genocchi the expectation is one divided difference of exp.  It
    equals exp(-(1 - z*) sum_i h_i / theta) R(h; x*), the determinant
    function R at the two-level x* = (z* + y, y, .., y), y = (1 - z*)/theta.
    Raises ArithmeticError where the value overflows.
    """
    kind, hv = _fields(hvec)
    if len(hv) != theta:
        raise ValueError("hvec must have length theta")
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow raises below
        value = math.factorial(theta - 1) * _exp_divided_difference(z_star * hv)
    if not np.isfinite(value):
        raise ArithmeticError(f"pd_q_expectation_exact is not finite at z* h = {z_star * hv}")
    return kind(value)


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
