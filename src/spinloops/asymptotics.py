"""Mean-field variational machinery for quantum spins on the complete graph.

Everything here is scalar calculus feeding the n -> infinity side of the
toolkit: the spin-S entropy function eta, the spontaneous magnetisation
m_star maximising the free-energy profile g_beta, the magnetisation in a
field and the susceptibility, the maximiser of the interchange model's
simplex functional phi_beta with its order parameter z_star, the classical
(S -> infinity) analogue, and log-log exponent fitting.  g_beta, the inverse
x_star of eta', the saddle-point multiplicity, the pressure and phi_beta
itself are oracles in tests/oracles.py, which the tests compare with.

Every maximiser is one root in a dual variable, which fixes the rest, found by
Newton's method from the end that meets Fourier's condition (_newton).  The
Heisenberg and classical maximisers m* in [0, S] (classically [0, 1]) are d(x)
at the positive root of x = 2 beta d(x) + h, d = eta' or the Langevin
function.  The interchange maximiser x_1* in [1/theta, 1], which jumps for
theta >= 3, solves beta z(u) = u in u = log(x_1/x_2) past the peak of
beta z(u) - u, compared against the uniform point.

Conventions:
  * the spin-S functions take S as the doubled integer two_s = 2S >= 1, as
    spectra and loops do,
  * the interchange functions take theta = 2S + 1 >= 2, the number of
    one-site levels, as symfunc and pd do,
  * all functions are pure; no shared mutable state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

__all__ = [
    "MaximizerResult",
    "ExponentFit",
    "beta_critical",
    "eta",
    "eta_prime",
    "eta_second",
    "m_star",
    "magnetization",
    "susceptibility",
    "fit_exponent",
    "interchange_beta_critical",
    "interchange_maximizer",
    "classical_maximizer",
]

def _langevin_coefficients(terms: int) -> tuple[float, ...]:
    """c_k of coth t - 1/t = sum_{k>=1} c_k t^{2k-1}, from L' = 1 - L^2 - 2L/t.

    Matching powers gives (2k + 1) c_k = [k = 1] - sum_{i=1}^{k-1} c_i c_{k-i},
    i.e. c_k = 2^{2k} B_{2k} / (2k)!; the series converges for |t| < pi.
    """
    c: list[float] = []
    for k in range(1, terms + 1):
        c.append(((k == 1) - sum(c[i] * c[k - 2 - i] for i in range(k - 1))) / (2 * k + 1))
    return tuple(c)


# Below |t| = 1, coth t - 1/t, 1/t^2 - 1/sinh^2 t and log(sinh t / t) are
# summed from their series (18 terms reach 1e-17 relative at |t| = 1); from
# |t| = 1 on they are written through c = coth t - 1 (see _coth_excess).
_LANGEVIN_SWITCH = 1.0
_LANGEVIN_C = _langevin_coefficients(18)
_LANGEVIN_PRIME_C = tuple((2 * k + 1) * c for k, c in enumerate(_LANGEVIN_C))
_LOG_SINHC_C = tuple(c / (2 * k) for k, c in enumerate(_LANGEVIN_C, 1))  # the integral of coth t - 1/t
# log(sinh t / t) - t L(t)/2 = sum_{k>=2} c_k (1/(2k) - 1/2) t^{2k}: its t^2 term is 0
_CLASSICAL_VALUE_C = tuple(a - 0.5 * c for a, c in zip(_LOG_SINHC_C, _LANGEVIN_C))[1:]


@dataclass
class MaximizerResult:
    """Location/value/curvature of a scalar free-energy maximum.

    `iterations` counts the steps of the Newton solve that located the
    maximum: 0 when no solve was needed or the solve started at the root.
    """

    location: float
    value: float
    second_derivative: float
    iterations: int
    z_star: float | None = None


@dataclass
class ExponentFit:
    """Least-squares slope of log y against log t."""

    exponent: float
    intercept: float
    r_squared: float


def beta_critical(two_s: int) -> float:
    """Inverse critical temperature (3/2)/(S(S+1)) of the Heisenberg model."""
    if two_s < 1:
        raise ValueError(f"two_s must be a positive integer, got {two_s}")
    s = 0.5 * two_s
    return 1.5 / (s * s + s)


# ---------------------------------------------------------------------------
# log(sinh t / t) family, stable over the whole real line
# ---------------------------------------------------------------------------

def _coth_excess(t: float) -> float:
    """c = coth t - 1 = -2 e^{-2t} / expm1(-2t) for t > 0; no overflow, 0 once e^{-2t} underflows."""
    return -2.0 * math.exp(-2.0 * t) / math.expm1(-2.0 * t)


def _horner(coefficients: tuple[float, ...], x: float) -> float:
    """sum_k coefficients[k] x^k."""
    acc = 0.0
    for c in reversed(coefficients):
        acc = acc * x + c
    return acc


def _log_sinhc(t: float) -> float:
    """log(sinh(t)/t); even, smooth at 0."""
    t = abs(t)
    if t < _LANGEVIN_SWITCH:
        return t * t * _horner(_LOG_SINHC_C, t * t)
    # sinh(t) = e^t (1 - e^{-2t})/2
    return t - math.log(2.0 * t) + math.log1p(-math.exp(-2.0 * t))


def _langevin(t: float) -> float:
    """coth(t) - 1/t; odd, smooth at 0."""
    a = abs(t)
    if a < _LANGEVIN_SWITCH:
        return t * _horner(_LANGEVIN_C, t * t)
    return math.copysign(1.0 + _coth_excess(a) - 1.0 / a, t)


def _langevin_prime(t: float) -> float:
    """d/dt (coth t - 1/t) = 1/t^2 - 1/sinh(t)^2, 1/sinh^2 = c (c + 2); even."""
    a = abs(t)
    if a < _LANGEVIN_SWITCH:
        return _horner(_LANGEVIN_PRIME_C, t * t)
    c = _coth_excess(a)
    return 1.0 / (a * a) - c * (c + 2.0)


def eta(x: float, two_s: int) -> float:
    """log( sinh((2S+1)x/2) / sinh(x/2) ); eta(0) = log(2S+1).

    From a = |x| = 1 on it is S a + log1p(-e^{-theta a}) - log1p(-e^{-a}),
    whose two small terms carry no rounding error of S a.
    """
    th = two_s + 1
    a = abs(x)
    if a < 1.0:
        return math.log(th) + _log_sinhc(0.5 * th * x) - _log_sinhc(0.5 * x)
    return 0.5 * two_s * a + math.log1p(-math.exp(-th * a)) - math.log1p(-math.exp(-a))


def eta_prime(x: float, two_s: int) -> float:
    """d eta/dx; odd, increasing from -S to S.

    From a = |x| = 1 on it is S - c(a/2)/2 + theta c(theta a/2)/2, c = coth - 1
    (_coth_excess), which never exceeds S and keeps S - eta' to full
    relative precision.
    """
    th = two_s + 1
    a = abs(x)
    if a < 1.0:
        return 0.5 * th * _langevin(0.5 * th * x) - 0.5 * _langevin(0.5 * x)
    gap = 0.5 * _coth_excess(0.5 * a) - 0.5 * th * _coth_excess(0.5 * th * a)
    return math.copysign(0.5 * (th - 1) - gap, x)


def eta_second(x: float, two_s: int) -> float:
    """d^2 eta/dx^2; even, maximal at 0 where it equals (theta^2-1)/12.

    Equals 1/(4 sinh^2(x/2)) - theta^2/(4 sinh^2(theta x/2)): the 1/x^2 poles
    of the two Langevin derivatives cancel exactly, so from |x| = 1 on each
    term is taken as e^{-a}/expm1(-a)^2, which cannot overflow; below it the
    difference of the two Langevin derivatives cancels mildly at most.
    Strictly positive until e^{-|x|} underflows (|x| > 745).
    """
    th = two_s + 1
    a = abs(x)
    if a < 1.0:
        return 0.25 * th * th * _langevin_prime(0.5 * th * a) - 0.25 * _langevin_prime(0.5 * a)
    d1, d2 = math.expm1(-a), math.expm1(-th * a)
    return math.exp(-a) / (d1 * d1) - th * th * math.exp(-th * a) / (d2 * d2)


def _newton(f, df, start: float, stop: float) -> tuple[float, int]:
    """Root of f between start and stop by Newton's method from start, and the step count.

    Between the two ends f is monotone, f'' keeps one sign and f f'' >= 0 at
    start, Fourier's condition (Ostrowski, Solution of Equations and Systems
    of Equations, 1960, ch. 7): then every iterate moves toward the root and
    none passes it.  Iteration ends at the first step that is zero or does not
    move toward stop, which rounding makes at the root.  Raises
    ArithmeticError after 100 steps or when a step passes stop.
    """
    x, direction = start, stop - start
    for steps in range(100):
        nxt = x - f(x) / df(x)
        if (nxt - x) * direction <= 0.0:
            return x, steps
        if (nxt - stop) * direction > 0.0:
            raise ArithmeticError(f"Newton's method did not converge: a step from {x} passes {stop}")
        x = nxt
    raise ArithmeticError(f"Newton's method did not converge in 100 steps (at {x})")


def _mean_field(value, d, d_prime, beta: float, h: float, upper: float, beta_c: float) -> MaximizerResult:
    """Maximiser m* in [0, upper] of entropy(x(m)) - m x(m) + beta m^2 + h m, x(m) inverting d = entropy'.

    d is odd, increasing and concave on [0, inf), with slope 1/(2 beta_c) at 0
    and supremum `upper`; h >= 0.  The field x = 2 beta m* + h is 0 if h = 0
    and beta <= beta_c, else the largest root of G(x) = 2 beta d(x) + h - x, by
    Newton's method (G' = 2 beta d' - 1) from the end that meets Fourier's
    condition.  For beta >= 0, G is concave on [0, inf), and G = 2 beta (d -
    upper) <= 0 at the start h + 2 beta upper; for beta < 0, G is convex, with
    G = h > 0 at the start 0 and G = 2 beta d(h) <= 0 at the stop h.  Returns
    m* = d(x), the value value(x, m*) = entropy(x) - m* x + beta m*^2 and the
    curvature 2 beta - 1/d'(x), -inf where d'(x) underflows to 0.
    """
    if h == 0.0 and beta <= beta_c:
        x, iters = 0.0, 0
    else:
        start, stop = (h + 2.0 * beta * upper, 0.0) if beta >= 0.0 else (0.0, h)
        x, iters = _newton(lambda x: 2.0 * beta * d(x) + h - x, lambda x: 2.0 * beta * d_prime(x) - 1.0,
                           start, stop)
    m, slope = d(x), d_prime(x)
    curv = 2.0 * beta - 1.0 / slope if slope > 0.0 else -math.inf
    return MaximizerResult(m, value(x, m), curv, iters)


def _eta_mean_field(beta: float, h: float, two_s: int) -> MaximizerResult:
    value = lambda x, m: eta(x, two_s) - m * x + beta * m * m
    fns = (value, lambda x: eta_prime(x, two_s), lambda x: eta_second(x, two_s))
    return _mean_field(*fns, beta, h, 0.5 * two_s, beta_critical(two_s))


def m_star(beta: float, two_s: int) -> MaximizerResult:
    """Maximiser of g_beta on [0, S]; zero iff beta <= beta_critical.

    m* = eta'(x*) at the root of x = 2 beta eta'(x) (see _mean_field), with
    curvature g_beta''(m*) = 2 beta - 1/eta''(x*).
    """
    return _eta_mean_field(beta, 0.0, two_s)


def magnetization(beta: float, h: float, two_s: int) -> float:
    """argmax of g_beta(m) + h m on [0, S]: m = eta'(x) at the root of x = 2 beta eta'(x) + h.

    The root is unique (see _mean_field); at h = 0 it is m_star.
    """
    if h < 0.0:
        raise ValueError("magnetization is defined for h >= 0")
    return _eta_mean_field(beta, h, two_s).location


def susceptibility(beta: float, two_s: int) -> float:
    """Zero-field susceptibility 1/(2 (beta_c - beta)) for beta < beta_c."""
    bc = beta_critical(two_s)
    if beta >= bc:
        raise ValueError(f"closed-form susceptibility needs beta < beta_c = {bc}")
    return 1.0 / (2.0 * (bc - beta))


def fit_exponent(samples: list[tuple[float, float]]) -> ExponentFit:
    """Log-log least-squares slope through every (t, y) sample, t and y > 0.

    The caller chooses the points: all of them enter the fit, and its sums
    run in the order given.  At least 4 samples are needed.
    """
    if len(samples) < 4:
        raise ValueError("fit_exponent needs at least 4 samples")
    if any(t <= 0.0 or y <= 0.0 for t, y in samples):
        raise ValueError("fit_exponent needs strictly positive data")
    lt = [math.log(t) for t, _ in samples]
    ly = [math.log(y) for _, y in samples]
    k = len(samples)
    mt = sum(lt) / k
    my = sum(ly) / k
    sxx = sum((a - mt) ** 2 for a in lt)
    sxy = sum((a - mt) * (b - my) for a, b in zip(lt, ly))
    slope = sxy / sxx
    intercept = my - slope * mt
    ss_res = sum((b - (intercept + slope * a)) ** 2 for a, b in zip(lt, ly))
    ss_tot = sum((b - my) ** 2 for b in ly)
    r2 = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    return ExponentFit(slope, intercept, r2)


# ---------------------------------------------------------------------------
# Interchange model: simplex functional and its one-parameter family
# ---------------------------------------------------------------------------

def interchange_beta_critical(theta: int) -> float:
    """beta_c = 2(theta-1)/(theta-2) log(theta-1); 2 at theta = 2, its limit and beta_critical there."""
    if theta < 2:
        raise ValueError(f"theta must be an integer >= 2, got {theta}")
    if theta == 2:
        return 2.0
    return 2.0 * (theta - 1) / (theta - 2) * math.log(theta - 1)


def _phi_family(x1: float, x2: float, beta: float, theta: int) -> float:
    """phi_beta at (x1, x2, ..., x2) with x1 + (theta-1) x2 = 1.

    In a = (theta-1) x2 = 1 - x1, exact as x1 -> 1, it is
    -a (beta + log x2 - beta theta x2 / 2) - x1 log1p(-a), where only
    beta + log x2 cancels; 0 at x2 = 0.
    """
    if x2 == 0.0:
        return 0.0
    a = (theta - 1) * x2
    return -a * (beta + math.log(x2) - 0.5 * beta * theta * x2) - x1 * math.log1p(-a)


def interchange_maximizer(beta: float, theta: int) -> MaximizerResult:
    """Maximiser of phi_beta restricted to the one-parameter family.

    The remaining theta-1 entries are equal by the uniqueness of the
    maximiser.  In u = log(x_1/x_2), with q = 1 + (theta-1) e^-u, x_2 = e^-u/q,
    x_1 = 1 - (theta-1) x_2 and z = x_1 - x_2 = -expm1(-u)/q, phi is stationary
    where G(u) = beta z(u) - u = 0.  G(0) = 0 is the uniform point; G peaks at
    u_peak = log w, w the larger root of w^2 - (beta theta - 2(theta-1)) w
    + (theta-1)^2 (real iff beta theta >= 4(theta-1)), and G(beta) <= 0.  So
    phi has an interior maximum with z > 0 iff G(u_peak) > 0, at the root of
    G in [u_peak, beta] by Newton's method from beta, the end that meets
    Fourier's condition: z' = theta e^-u/q^2 peaks at log(theta-1), before
    u_peak, the larger root of beta z' = 1, so G is concave on [u_peak, beta].
    The root is kept if it beats the uniform point by more than 1e-13.
    `location` is x_1* in [1/theta, 1] and `z_star` is z*; the curvature
    d^2 phi/dx_1^2 is -inf once x_2* underflows to 0.
    """
    if theta < 2:
        raise ValueError(f"theta must be an integer >= 2, got {theta}")
    x1 = x2 = 1.0 / theta
    z, iters = 0.0, 0
    val = math.log(theta) - 0.5 * beta * (theta - 1) / theta
    bt = beta * theta
    if bt >= 4.0 * (theta - 1):
        u_peak = math.log(0.5 * (bt - 2.0 * (theta - 1) + math.sqrt(bt * (bt - 4.0 * (theta - 1)))))
        g = lambda u: -beta * math.expm1(-u) / (1.0 + (theta - 1) * math.exp(-u)) - u
        dg = lambda u: bt * math.exp(-u) / (1.0 + (theta - 1) * math.exp(-u)) ** 2 - 1.0
        if g(u_peak) > 0.0:
            u, iters = _newton(g, dg, beta, u_peak)
            q = 1.0 + (theta - 1) * math.exp(-u)
            y2 = math.exp(-u) / q
            y1 = 1.0 - (theta - 1) * y2
            val_u = _phi_family(y1, y2, beta, theta)
            if val_u > val + 1e-13:
                x1, x2, z, val = y1, y2, -math.expm1(-u) / q, val_u
    curv = beta * theta / (theta - 1) - 1.0 / x1 - 1.0 / ((theta - 1) * x2) if x2 > 0.0 else -math.inf
    return MaximizerResult(x1, val, curv, iters, z_star=z)


# ---------------------------------------------------------------------------
# Classical (S -> infinity) limit
# ---------------------------------------------------------------------------

def classical_maximizer(beta: float) -> MaximizerResult:
    """Maximiser of log(sinh(x(mu))/x(mu)) - mu x(mu) + beta mu^2 on [0, 1].

    mu* is positive iff beta > 3/2.  It is L(x*) at the root of x = 2 beta L(x),
    by Newton from the end that meets Fourier's condition (see _mean_field),
    for the Langevin function L(x) = coth x - 1/x, with curvature 2 beta - 1/L'(x*).
    The value is log(sinh x*/x*) - x* L(x*)/2 (beta mu*^2 = x* mu*/2), summed
    below |x*| = 1 from its series, which starts at x^4, so nothing cancels.
    """
    value = lambda x, mu: (x**4 * _horner(_CLASSICAL_VALUE_C, x * x) if abs(x) < _LANGEVIN_SWITCH
                           else _log_sinhc(x) - 0.5 * x * mu)
    return _mean_field(value, _langevin, _langevin_prime, beta, 0.0, 1.0, 1.5)
