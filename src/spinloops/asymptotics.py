"""Mean-field variational machinery for quantum spins on the complete graph.

Everything here is scalar calculus feeding the n -> infinity side of the
toolkit: the spin-S entropy function eta and its inverse-derivative x_star,
the free-energy profile g_beta whose maximiser m_star is the spontaneous
magnetisation, saddle-point asymptotics for eigenvalue multiplicities,
pressure / magnetisation / susceptibility, the simplex functional phi_beta
of the interchange model with its order parameter z_star, the classical
(S -> infinity) analogue, and log-log exponent fitting.

The Heisenberg and classical maximisers are the unique positive root of the
self-consistency equation m = d(2 beta m + h), d = eta' or the Langevin
function, found by Brent's bracketed method; x_star and classical_field
invert d the same way.  Only the interchange family, whose maximiser jumps
for theta >= 3, is maximised by a grid scan and golden-section search.

Conventions:
  * half-integer spins are carried as doubled integers (two_s = 2S),
  * theta = 2S + 1 is the number of one-site levels,
  * all functions are pure; no shared mutable state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from scipy.optimize import brentq

__all__ = [
    "SpinContext",
    "MaximizerResult",
    "ExponentFit",
    "beta_critical",
    "eta",
    "eta_prime",
    "eta_second",
    "x_star",
    "g_beta",
    "m_star",
    "saddle_multiplicity",
    "pressure",
    "magnetization",
    "susceptibility",
    "fit_exponent",
    "phi_beta",
    "interchange_beta_critical",
    "interchange_maximizer",
    "classical_field",
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


# Below |t| = 1, coth t - 1/t and 1/t^2 - 1/sinh^2 t are summed from their
# series (18 terms reach 1e-17 relative at |t| = 1); from |t| = 1 on their two
# terms cancel by a factor of at most 8.  log(sinh t / t) switches there too,
# to log1p of the series sinh t / t - 1 = t^2 sum_k t^{2k} / (2k + 3)!
# (12 terms reach 1e-26 relative at |t| = 1).
_LANGEVIN_SWITCH = 1.0
_LANGEVIN_C = _langevin_coefficients(18)
_LANGEVIN_PRIME_C = tuple((2 * k + 1) * c for k, c in enumerate(_LANGEVIN_C))
_SINHC_C = tuple(1.0 / math.factorial(2 * k + 3) for k in range(12))


@dataclass(frozen=True)
class SpinContext:
    """Spin quantum number S stored as the integer two_s = 2S."""

    two_s: int

    def __post_init__(self):
        if self.two_s < 1:
            raise ValueError(f"two_s must be a positive integer, got {self.two_s}")

    @property
    def theta(self) -> int:
        return self.two_s + 1

    @property
    def spin(self) -> float:
        return 0.5 * self.two_s


@dataclass
class MaximizerResult:
    """Location/value/curvature of a scalar free-energy maximum."""

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
    sample_points: list[tuple[float, float]]


def beta_critical(ctx: SpinContext) -> float:
    """Inverse critical temperature (3/2)/(S(S+1)) of the Heisenberg model."""
    s = ctx.spin
    return 1.5 / (s * s + s)


# ---------------------------------------------------------------------------
# log(sinh t / t) family, stable over the whole real line
# ---------------------------------------------------------------------------

def _log_sinhc(t: float) -> float:
    """log(sinh(t)/t); even, smooth at 0."""
    t = abs(t)
    if t < _LANGEVIN_SWITCH:
        return math.log1p(t * t * _horner(_SINHC_C, t * t))
    if t < 350.0:
        return math.log(math.sinh(t) / t)
    # sinh(t) = e^t (1 - e^{-2t})/2
    return t - math.log(2.0 * t) + math.log1p(-math.exp(-2.0 * t))


def _horner(coefficients: tuple[float, ...], x: float) -> float:
    """sum_k coefficients[k] x^k."""
    acc = 0.0
    for c in reversed(coefficients):
        acc = acc * x + c
    return acc


def _langevin(t: float) -> float:
    """coth(t) - 1/t; odd, smooth at 0."""
    a = abs(t)
    if a < _LANGEVIN_SWITCH:
        return t * _horner(_LANGEVIN_C, t * t)
    if a < 350.0:
        val = math.cosh(a) / math.sinh(a) - 1.0 / a
    else:
        val = 1.0 + 2.0 * math.exp(-2.0 * a) - 1.0 / a
    return math.copysign(val, t)


def _langevin_prime(t: float) -> float:
    """d/dt (coth t - 1/t) = 1/t^2 - 1/sinh(t)^2; even."""
    a = abs(t)
    if a < _LANGEVIN_SWITCH:
        return _horner(_LANGEVIN_PRIME_C, t * t)
    if a < 350.0:
        s = math.sinh(a)
        return 1.0 / (a * a) - 1.0 / (s * s)
    return 1.0 / (a * a) - 4.0 * math.exp(-2.0 * a)


def eta(x: float, ctx: SpinContext) -> float:
    """log( sinh((2S+1)x/2) / sinh(x/2) ); eta(0) = log(2S+1)."""
    th = ctx.theta
    return math.log(th) + _log_sinhc(0.5 * th * x) - _log_sinhc(0.5 * x)


def eta_prime(x: float, ctx: SpinContext) -> float:
    """d eta/dx; odd, increasing from -S to S."""
    th = ctx.theta
    return 0.5 * th * _langevin(0.5 * th * x) - 0.5 * _langevin(0.5 * x)


def eta_second(x: float, ctx: SpinContext) -> float:
    """d^2 eta/dx^2; even, maximal at 0 where it equals (theta^2-1)/12.

    Equals 1/(4 sinh^2(x/2)) - theta^2/(4 sinh^2(theta x/2)): the 1/x^2 poles
    of the two Langevin derivatives cancel exactly, so from |x| = 1 on each
    term is taken as e^{-a}/expm1(-a)^2, which cannot overflow; below it the
    difference of the two Langevin derivatives cancels mildly at most.
    Strictly positive until e^{-|x|} underflows (|x| > 745).
    """
    th = ctx.theta
    a = abs(x)
    if a < 1.0:
        return 0.25 * th * th * _langevin_prime(0.5 * th * a) - 0.25 * _langevin_prime(0.5 * a)
    d1, d2 = math.expm1(-a), math.expm1(-th * a)
    return math.exp(-a) / (d1 * d1) - th * th * math.exp(-th * a) / (d2 * d2)


def _invert_increasing(f, target: float) -> float:
    """x > 0 with f(x) = target, for f increasing from f(0) = 0 and 0 < target < sup f.

    Brent's root to relative precision 1e-15 on [0, hi], hi doubled from 1.
    """
    hi = 1.0
    while f(hi) <= target:
        hi *= 2.0
        if hi > 1e16:  # unreachable for targets below sup f in floating point
            raise ArithmeticError("inverse bracket growth failed")
    return brentq(lambda x: f(x) - target, 0.0, hi, xtol=1e-300, rtol=1e-15)


def x_star(m: float, ctx: SpinContext) -> float:
    """Unique solution x of eta'(x) = m, for |m| < S (eta' is odd and increasing)."""
    s = ctx.spin
    if not abs(m) < s:
        raise ValueError(f"x_star requires |m| < S = {s}, got m = {m}")
    if m == 0.0:
        return 0.0
    return math.copysign(_invert_increasing(lambda x: eta_prime(x, ctx), abs(m)), m)


def g_beta(m: float, beta: float, ctx: SpinContext) -> float:
    """Free-energy profile eta(x*(m)) - m x*(m) + beta m^2 on (-S, S)."""
    x = x_star(m, ctx)
    return eta(x, ctx) - m * x + beta * m * m


def _mean_field_root(d, beta: float, h: float, upper: float, beta_c: float) -> tuple[float, int]:
    """Maximiser m* in [0, upper) of a mean-field profile, and Brent's iteration count.

    At an interior maximum m* solves the self-consistency equation
    m = d(2 beta m + h), where d is odd, increasing and concave on [0, inf)
    with d(0) = 0, slope 1/(2 beta_c) at 0 and supremum `upper`.  Then
    F(m) = d(2 beta m + h) - m is concave with F(0) = d(h) >= 0, so it has
    exactly one positive root when h > 0, or when h = 0 and beta > beta_c;
    otherwise m* = 0.  At h = 0 the trivial root is divided out: F(m)/m tends
    to beta/beta_c - 1 as m -> 0.  If F is still >= 0 at the cap
    upper (1 - 1e-12) the cap is returned.
    """
    if h == 0.0:
        if beta <= beta_c:
            return 0.0, 0
        f = lambda m: d(2.0 * beta * m) / m - 1.0 if m > 0.0 else beta / beta_c - 1.0
    else:
        f = lambda m: d(2.0 * beta * m + h) - m
    cap = upper * (1.0 - 1e-12)
    if f(cap) >= 0.0:
        return cap, 0
    m, info = brentq(f, 0.0, cap, xtol=1e-300, rtol=1e-15, full_output=True)
    return m, info.iterations


def _grid_then_golden(f, lo: float, hi: float):
    """Maximise f on [lo, hi]: 512-point scan, then golden-section refinement.

    Robust to bimodal profiles; returns (argmax, max, golden iterations).
    """
    n_grid = 512
    step = (hi - lo) / n_grid
    best_i, best_v = 0, -math.inf
    for i in range(n_grid + 1):
        v = f(lo + i * step)
        if v > best_v:
            best_i, best_v = i, v
    a = lo + max(0, best_i - 1) * step
    b = lo + min(n_grid, best_i + 1) * step
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = f(c), f(d)
    it = 0
    while b - a > 1e-12 and it < 200:
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = f(d)
        it += 1
    xm = 0.5 * (a + b)
    return xm, f(xm), it


def m_star(beta: float, ctx: SpinContext) -> MaximizerResult:
    """Maximiser of g_beta on [0, S); zero iff beta <= beta_critical.

    Solved as the self-consistency root m = eta'(2 beta m) by Brent's method
    (see _mean_field_root); `iterations` counts Brent iterations.  The
    curvature is g_beta''(m*) = 2 beta - 1/eta''(x*(m*)).
    """
    loc, iters = _mean_field_root(
        lambda x: eta_prime(x, ctx), beta, 0.0, ctx.spin, beta_critical(ctx)
    )
    curv = 2.0 * beta - 1.0 / eta_second(x_star(loc, ctx), ctx)
    return MaximizerResult(loc, g_beta(loc, beta, ctx), curv, iters)


def saddle_multiplicity(n: int, m: float, ctx: SpinContext) -> float:
    """log of the saddle-point approximation to L_{floor(mn)} - L_{floor(mn)+1}.

    The approximation is (1 - e^{-x*(m)}) / sqrt(2 pi eta''(x*(m)) n) times
    e^{n (eta(x*(m)) - m x*(m))}; it degenerates at m = 0 where the prefactor
    vanishes.
    """
    s = ctx.spin
    if not 0.0 < m < s:
        raise ValueError(f"saddle asymptotics require m in (0, S), got m = {m}")
    x = x_star(m, ctx)
    pref = -math.expm1(-x)  # 1 - e^{-x} > 0 for m > 0
    return (
        math.log(pref)
        - 0.5 * math.log(2.0 * math.pi * eta_second(x, ctx) * n)
        + n * (eta(x, ctx) - m * x)
    )


def pressure(beta: float, h: float, ctx: SpinContext) -> float:
    """max over m in [0, S] of g_beta(m) + h m (h >= 0)."""
    if h < 0.0:
        raise ValueError("pressure is defined for h >= 0")
    m = magnetization(beta, h, ctx)
    return g_beta(m, beta, ctx) + h * m


def magnetization(beta: float, h: float, ctx: SpinContext) -> float:
    """argmax of g_beta(m) + h m on [0, S): the root of m = eta'(2 beta m + h).

    The root is unique (see _mean_field_root); at h = 0 it is m_star.
    """
    if h < 0.0:
        raise ValueError("magnetization is defined for h >= 0")
    return _mean_field_root(
        lambda x: eta_prime(x, ctx), beta, h, ctx.spin, beta_critical(ctx)
    )[0]


def susceptibility(beta: float, ctx: SpinContext) -> float:
    """Zero-field susceptibility 1/(2 (beta_c - beta)) for beta < beta_c."""
    bc = beta_critical(ctx)
    if beta >= bc:
        raise ValueError(f"closed-form susceptibility needs beta < beta_c = {bc}")
    return 1.0 / (2.0 * (bc - beta))


def fit_exponent(samples: list[tuple[float, float]], n_points: int = 4) -> ExponentFit:
    """Log-log least-squares slope using the n_points smallest parameters.

    The samples are (t, y) pairs with t decreasing towards 0; only positive
    data is admissible.  The fit is restricted to the smallest t values where
    the power law is cleanest.
    """
    if len(samples) < 4:
        raise ValueError("fit_exponent needs at least 4 samples")
    if any(t <= 0.0 or y <= 0.0 for t, y in samples):
        raise ValueError("fit_exponent needs strictly positive data")
    pts = sorted(samples, key=lambda p: p[0])[:n_points]
    lt = [math.log(t) for t, _ in pts]
    ly = [math.log(y) for _, y in pts]
    k = len(pts)
    mt = sum(lt) / k
    my = sum(ly) / k
    sxx = sum((a - mt) ** 2 for a in lt)
    sxy = sum((a - mt) * (b - my) for a, b in zip(lt, ly))
    slope = sxy / sxx
    intercept = my - slope * mt
    ss_res = sum((b - (intercept + slope * a)) ** 2 for a, b in zip(lt, ly))
    ss_tot = sum((b - my) ** 2 for b in ly)
    r2 = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    return ExponentFit(slope, intercept, r2, pts)


# ---------------------------------------------------------------------------
# Interchange model: simplex functional and its one-parameter family
# ---------------------------------------------------------------------------

def phi_beta(x, beta: float) -> float:
    """(beta/2)(sum x_i^2 - 1) - sum x_i log x_i on the ordered simplex."""
    xs = list(x)
    if abs(sum(xs) - 1.0) > 1e-12:
        raise ValueError("phi_beta arguments must sum to 1 within 1e-12")
    if any(xi < 0.0 for xi in xs):
        raise ValueError("phi_beta arguments must be nonnegative")
    if any(xs[i] < xs[i + 1] - 1e-12 for i in range(len(xs) - 1)):
        raise ValueError("phi_beta arguments must be weakly decreasing")
    quad = 0.5 * beta * (sum(xi * xi for xi in xs) - 1.0)
    ent = sum(xi * math.log(xi) for xi in xs if xi > 0.0)
    return quad - ent


def interchange_beta_critical(ctx: SpinContext) -> float:
    """beta_c(S) = 4S/(2S-1) log(2S) for S >= 1."""
    if ctx.two_s < 2:
        raise ValueError("the interchange critical formula needs S >= 1")
    two_s = ctx.two_s
    return 2.0 * two_s / (two_s - 1) * math.log(two_s)


def _phi_family(t: float, beta: float, theta: int) -> float:
    """phi_beta along (t, (1-t)/(theta-1), ..., (1-t)/(theta-1))."""
    rest = (1.0 - t) / (theta - 1)
    quad = 0.5 * beta * (t * t + (theta - 1) * rest * rest - 1.0)
    ent = t * math.log(t) if t > 0.0 else 0.0
    if rest > 0.0:
        ent += (theta - 1) * rest * math.log(rest)
    return quad - ent


def interchange_maximizer(beta: float, ctx: SpinContext) -> MaximizerResult:
    """Maximiser of phi_beta restricted to the one-parameter family.

    Scalar search over x_1 in [1/theta, 1); the remaining theta-1 entries are
    equal by the uniqueness of the maximiser.  The result carries x_1* in
    `location` and the order parameter z* = x_1* - x_2* in `z_star`.
    """
    th = ctx.theta
    lo = 1.0 / th
    hi = 1.0 - 1e-12
    f = lambda t: _phi_family(t, beta, th)
    loc, val, iters = _grid_then_golden(f, lo, hi)
    f_uniform = f(lo)
    if val <= f_uniform + 1e-13:
        loc, val = lo, f_uniform
    curv = beta * (1.0 + 1.0 / (th - 1)) - 1.0 / loc - 1.0 / (1.0 - loc) if loc < 1.0 else -math.inf
    z = (th * loc - 1.0) / (th - 1.0)
    if z < 1e-12:
        z = 0.0
    return MaximizerResult(loc, val, curv, iters, z_star=z)


# ---------------------------------------------------------------------------
# Classical (S -> infinity) limit
# ---------------------------------------------------------------------------

def classical_field(mu: float) -> float:
    """Solve coth(x) - 1/x = mu for x >= 0, mu in [0, 1)."""
    if not 0.0 <= mu < 1.0:
        raise ValueError("classical field requires mu in [0, 1)")
    if mu == 0.0:
        return 0.0
    return _invert_increasing(_langevin, mu)


def classical_maximizer(beta: float) -> MaximizerResult:
    """Maximiser of log(sinh(x(mu))/x(mu)) - mu x(mu) + beta mu^2 on [0, 1).

    mu* is positive iff beta > 3/2; it is the self-consistency root
    mu = coth(2 beta mu) - 1/(2 beta mu) found by Brent's method (see
    _mean_field_root), with curvature 2 beta - 1/L'(x(mu*)) for the
    Langevin function L(x) = coth x - 1/x.
    """
    loc, iters = _mean_field_root(_langevin, beta, 0.0, 1.0, 1.5)
    x = classical_field(loc)
    val = _log_sinhc(x) - loc * x + beta * loc * loc
    return MaximizerResult(loc, val, 2.0 * beta - 1.0 / _langevin_prime(x), iters)
