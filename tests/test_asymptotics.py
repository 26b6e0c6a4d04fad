"""Tests for the variational / asymptotic machinery."""

import itertools
import math
import random

import pytest

from spinloops import asymptotics as asy

import oracles

HALF = asy.SpinContext(1)
ONE = asy.SpinContext(2)
THREE_HALVES = asy.SpinContext(3)


def grid_scan_max(f, lo, hi, n_coarse=4000):
    """Independent maximiser oracle: dense scan plus local golden refinement."""
    xs = [lo + (hi - lo) * i / n_coarse for i in range(n_coarse + 1)]
    vals = [f(x) for x in xs]
    i = max(range(len(xs)), key=lambda j: vals[j])
    a = xs[max(0, i - 1)]
    b = xs[min(n_coarse, i + 1)]
    phi = (math.sqrt(5) - 1) / 2
    for _ in range(200):
        c = b - phi * (b - a)
        d = a + phi * (b - a)
        if f(c) >= f(d):
            b = d
        else:
            a = c
        if b - a < 1e-14:
            break
    return 0.5 * (a + b)


def test_eta_at_zero():
    for ctx in (HALF, ONE, THREE_HALVES):
        assert asy.eta(0.0, ctx) == pytest.approx(math.log(ctx.theta), abs=1e-15)
        assert asy.eta_prime(0.0, ctx) == 0.0


def test_eta_prime_saturates():
    for ctx in (HALF, ONE, THREE_HALVES):
        assert asy.eta_prime(80.0, ctx) == pytest.approx(ctx.spin, abs=1e-12)
        assert asy.eta_prime(-80.0, ctx) == pytest.approx(-ctx.spin, abs=1e-12)
    # never past S in floating point: m* = eta'(x*) must stay in [0, S]
    xs = [10.0 ** (k / 100) for k in range(301)]  # log grid, 1 .. 1000
    for two_s in (1, 2, 3, 5, 9):
        ctx = asy.SpinContext(two_s)
        assert all(asy.eta_prime(x, ctx) <= ctx.spin for x in xs)


def test_eta_even_and_direct_formula():
    # compare against the raw sinh-ratio definition where it is safe
    for ctx in (HALF, ONE):
        for x in (0.5, 1.0, 3.0, 10.0):
            raw = math.log(math.sinh(ctx.theta * x / 2) / math.sinh(x / 2))
            assert asy.eta(x, ctx) == pytest.approx(raw, rel=1e-13)
            assert asy.eta(-x, ctx) == pytest.approx(raw, rel=1e-13)


def test_eta_derivatives_by_finite_differences():
    # x values keep the stencil clear of the series/direct switch, where the
    # direct sinh-ratio branch carries its inherent ~1e-13 cancellation noise
    eps = 1e-6
    for ctx in (HALF, THREE_HALVES):
        for x in (0.0004, 0.5, 4.0):
            fd1 = (asy.eta(x + eps, ctx) - asy.eta(x - eps, ctx)) / (2 * eps)
            assert asy.eta_prime(x, ctx) == pytest.approx(fd1, abs=2e-9)
            fd2 = (asy.eta_prime(x + eps, ctx) - asy.eta_prime(x - eps, ctx)) / (2 * eps)
            assert asy.eta_second(x, ctx) == pytest.approx(fd2, abs=2e-9)


def test_eta_second_positive_on_log_grid():
    for ctx in (HALF, ONE, THREE_HALVES, asy.SpinContext(5)):
        for k in range(241):
            x = 1e-6 * 7e8 ** (k / 240)  # log grid, 1e-6 .. 700
            assert asy.eta_second(x, ctx) > 0.0, (ctx.two_s, x)


def test_eta_second_against_mpmath():
    # 50-digit values of 1/(4 sinh^2(x/2)) - theta^2/(4 sinh^2(theta x/2)).
    # The difference of the two Langevin derivatives (below x = 1) and of the
    # two expm1 terms (from x = 1 on) cancels mildly at most; the measured
    # error is 1.1e-15 below x = 1 and 7e-16 from x = 1 on.
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(50):
        for two_s in (1, 2, 3, 5):
            ctx, th = asy.SpinContext(two_s), two_s + 1
            for k in range(0, 121, 3):
                x = 1e-6 * 7e8 ** (k / 120)  # log grid, 1e-6 .. 700
                xm = mpmath.mpf(x)
                ref = (0.25 / mpmath.sinh(xm / 2) ** 2
                       - 0.25 * th**2 / mpmath.sinh(th * xm / 2) ** 2)
                rel = abs((asy.eta_second(x, ctx) - ref) / ref)
                assert rel < 2e-15, (two_s, x, float(rel))


def test_eta_against_mpmath():
    # 50-digit log(sinh(theta x/2)/sinh(x/2)) on a log grid 1e-6 .. 700; from
    # x = 1 on eta is S x plus two log1p terms; measured up to 2.4e-16
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(50):
        for two_s in (1, 2, 3, 5):
            ctx, th = asy.SpinContext(two_s), two_s + 1
            for k in range(0, 121, 3):
                x = 1e-6 * 7e8 ** (k / 120)
                xm = mpmath.mpf(x)
                ref = mpmath.log(mpmath.sinh(th * xm / 2) / mpmath.sinh(xm / 2))
                assert abs((asy.eta(x, ctx) - ref) / ref) < 5e-16, (two_s, x)


def test_heisenberg_half_maximum_at_large_beta_against_mpmath():
    # the value column of `maximize --model heisenberg --spin 1/2 --beta-grid
    # 30:50:10`, eta(x*) - m* x* + beta m*^2 with x* = beta tanh(x*/2), within
    # 2 ulp of 50 digits: 7.500000000000094, 10.0 and 12.5
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(50):
        for beta in (30.0, 40.0, 50.0):
            b = mpmath.mpf(beta)
            x = mpmath.findroot(lambda x: x - b * mpmath.tanh(x / 2), b)
            m = mpmath.tanh(x / 2) / 2
            want = mpmath.log(2 * mpmath.cosh(x / 2)) - m * x + b * m * m
            got = asy.m_star(beta, HALF).value
            assert abs(got - want) <= 2 * math.ulp(float(want)), (beta, got, want)


def test_langevin_against_mpmath():
    # 50-digit coth t - 1/t and 1/t^2 - 1/sinh^2 t on a log grid 1e-6 .. 700,
    # across the series switch at t = 1; measured up to 4.8e-16 and 6.8e-16
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(50):
        for k in range(241):
            t = 1e-6 * 7e8 ** (k / 240)
            tm = mpmath.mpf(t)
            lang = mpmath.coth(tm) - 1 / tm
            lang_prime = 1 / tm**2 - 1 / mpmath.sinh(tm) ** 2
            for sign in (1.0, -1.0):
                assert abs(asy._langevin(sign * t) / (sign * lang) - 1) < 1.5e-15, t
                assert abs(asy._langevin_prime(sign * t) / lang_prime - 1) < 1.5e-15, t


def test_log_sinhc_against_mpmath():
    # 50-digit log(sinh t / t) on a log grid 1e-6 .. 700, across the series
    # switch at t = 1 and the large-t branch at 350; measured up to 9.4e-16
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(50):
        for k in range(481):
            t = 1e-6 * 7e8 ** (k / 480)
            tm = mpmath.mpf(t)
            ref = mpmath.log(mpmath.sinh(tm) / tm)
            for sign in (1.0, -1.0):
                assert abs(asy._log_sinhc(sign * t) / ref - 1) < 2e-15, t


def test_x_star_inverts_eta_prime():
    for ctx in (HALF, ONE, THREE_HALVES):
        s = ctx.spin
        for frac in (0.05, 0.3, 0.7, 0.95):
            m = frac * s
            x = asy.x_star(m, ctx)
            assert asy.eta_prime(x, ctx) == pytest.approx(m, abs=1e-12)
        # identity in the other direction
        for x in (0.02, 0.4, 2.0, 8.0):
            assert asy.x_star(asy.eta_prime(x, ctx), ctx) == pytest.approx(x, abs=1e-10)


def test_x_star_odd_and_zero():
    assert asy.x_star(0.0, HALF) == 0.0
    for m in (0.1, 0.33):
        assert asy.x_star(-m, HALF) == pytest.approx(-asy.x_star(m, HALF), abs=1e-14)


def test_x_star_slope_at_zero():
    for ctx in (HALF, ONE, THREE_HALVES):
        s = ctx.spin
        fd = (asy.x_star(1e-6, ctx) - asy.x_star(-1e-6, ctx)) / 2e-6
        assert fd == pytest.approx(3.0 / (s * s + s), abs=1e-6)


def test_x_star_domain_error():
    with pytest.raises(ValueError):
        asy.x_star(0.5, HALF)
    with pytest.raises(ValueError):
        asy.x_star(-1.2, ONE)


def test_g_closed_form_spin_half():
    # g_beta(m) = beta m^2 - (1/2-m)log(1/2-m) - (1/2+m)log(1/2+m)
    for beta in (1.0, 2.2, 3.5):
        for m in (0.0, 0.1, 0.3, 0.45):
            closed = beta * m * m
            for sgn in (-1.0, 1.0):
                t = 0.5 + sgn * m
                closed -= t * math.log(t)
            assert asy.g_beta(m, beta, HALF) == pytest.approx(closed, abs=1e-12)


def test_g_at_zero():
    for ctx in (HALF, ONE):
        assert asy.g_beta(0.0, 1.7, ctx) == pytest.approx(math.log(ctx.theta), abs=1e-14)
        fd = (asy.g_beta(1e-7, 1.7, ctx) - asy.g_beta(0.0, 1.7, ctx)) / 1e-7
        assert abs(fd) < 1e-5


def test_beta_critical():
    assert asy.beta_critical(HALF) == pytest.approx(2.0)
    assert asy.beta_critical(ONE) == pytest.approx(0.75)


def test_m_star_transition():
    assert asy.m_star(1.8, HALF).location == 0.0
    assert asy.m_star(2.0, HALF).location == 0.0
    r = asy.m_star(2.2, HALF)
    assert r.location > 0.0
    assert r.second_derivative <= 0.0
    # independent dense-grid oracle and stationarity residual
    oracle = grid_scan_max(lambda m: asy.g_beta(m, 2.2, HALF), 0.0, 0.5 - 1e-9)
    assert r.location == pytest.approx(oracle, abs=1e-8)
    fd = (asy.g_beta(r.location + 1e-7, 2.2, HALF) - asy.g_beta(r.location - 1e-7, 2.2, HALF)) / 2e-7
    assert abs(fd) < 1e-6
    assert abs(2 * 2.2 * r.location - asy.x_star(r.location, HALF)) < 1e-10


def test_m_star_monotone_in_beta():
    prev = -1.0
    for beta in (1.5, 2.0, 2.1, 2.4, 3.0, 4.0):
        cur = asy.m_star(beta, HALF).location
        assert cur >= prev
        prev = cur


@pytest.mark.parametrize("ctx", [HALF, ONE])
def test_stationarity_at_interior_maxima(ctx):
    bc = asy.beta_critical(ctx)
    for beta in (bc * 1.1, bc * 1.5, bc * 2.5):
        r = asy.m_star(beta, ctx)
        assert r.location > 0.0
        assert abs(2 * beta * r.location - asy.x_star(r.location, ctx)) < 1e-9


def test_maximizers_just_above_beta_c():
    # pitchfork: m* = sqrt(3 delta / 4) for S = 1/2 and mu* = sqrt(5 delta / 3)
    # classically, to relative order delta
    for delta in (1e-6, 1e-8, 1e-10, 1e-12):
        m = asy.m_star(2.0 * (1 + delta), HALF).location
        assert m > 0.0
        assert m == pytest.approx(math.sqrt(3 * delta / 4), rel=1e-3)
        mu = asy.classical_maximizer(1.5 * (1 + delta)).location
        assert mu > 0.0
        assert mu == pytest.approx(math.sqrt(5 * delta / 3), rel=1e-3)


def test_m_star_solves_curie_weiss():
    for beta in (2.2, 3.0, 5.0):
        m = asy.m_star(beta, HALF).location
        assert abs(m - 0.5 * math.tanh(beta * m)) < 1e-14


def test_mean_field_derivatives_non_increasing():
    # eta' and the Langevin function are concave on [0, inf): the premise of
    # the uniqueness of the positive self-consistency root
    xs = [1e-6 * 5e7 ** (k / 186) for k in range(187)]  # log grid, 1e-6 .. 50
    fns = [lambda x, c=asy.SpinContext(t): asy.eta_second(x, c) for t in (1, 2, 3, 5)]
    for fn in fns + [asy._langevin_prime]:
        vals = [fn(x) for x in xs]
        assert all(b <= a + 1e-18 for a, b in zip(vals, vals[1:]))


def _mp_mean_field(mpmath, two_s, beta):
    """40-digit (m*, value, curvature) of g_beta from the root of x = 2 beta eta'(x)."""
    th = two_s + 1
    with mpmath.workdps(40):
        beta = mpmath.mpf(beta)
        d = lambda x: th * mpmath.coth(th * x / 2) / 2 - mpmath.coth(x / 2) / 2
        x = mpmath.findroot(lambda x: 2 * beta * d(x) - x, beta * two_s)
        m = d(x)
        value = mpmath.log(mpmath.sinh(th * x / 2) / mpmath.sinh(x / 2)) - m * x + beta * m * m
        d2 = 1 / (4 * mpmath.sinh(x / 2) ** 2) - th**2 / (4 * mpmath.sinh(th * x / 2) ** 2)
        return m, value, 2 * beta - 1 / d2


def _mp_interchange(mpmath, theta, beta, u0):
    """(x1*, z*, value, curvature) of phi_beta on the family, from the root of beta z(u) = u near u0.

    At 80 digits: x1^2 - 1 and the entropy terms lose about log10(1/(1 - x1))
    of them to cancellation, 26 at beta = 60.
    """
    with mpmath.workdps(80):
        beta = mpmath.mpf(beta)
        z_of = lambda u: mpmath.expm1(u) / (mpmath.exp(u) + theta - 1)
        u = mpmath.findroot(lambda u: beta * z_of(u) - u, u0)
        x1 = mpmath.exp(u) / (mpmath.exp(u) + theta - 1)
        x2 = 1 / (mpmath.exp(u) + theta - 1)
        value = (beta / 2 * (x1**2 + (theta - 1) * x2**2 - 1)
                 - x1 * mpmath.log(x1) - (theta - 1) * x2 * mpmath.log(x2))
        curvature = beta * theta / (theta - 1) - 1 / x1 - 1 / ((theta - 1) * x2)
        return x1, z_of(u), value, curvature


@pytest.mark.parametrize(
    "ctx,beta,location,value",
    [
        (HALF, 10.0, 0.49995456085761625, 2.5000454195276163),
        (HALF, 50.0, 0.5, 12.5),
        (HALF, 200.0, 0.5, 50.0),
        (ONE, 10.0, 0.9999999979388463, 10.000000002061153),
        (ONE, 50.0, 1.0, 50.0),
        (ONE, 200.0, 1.0, 200.0),
    ],
)
def test_m_star_saturated(ctx, beta, location, value):
    # references: 40-digit mpmath roots of x = 2 beta eta'(x), rounded; at
    # beta = 50 and 200, S - m* < 1e-21, so the correctly rounded m* is S
    r = asy.m_star(beta, ctx)
    assert 0.0 <= r.location <= ctx.spin
    assert r.location == pytest.approx(location, rel=1e-15)
    assert r.value == pytest.approx(value, rel=1e-15)
    mpmath = pytest.importorskip("mpmath")
    curvature = _mp_mean_field(mpmath, ctx.two_s, beta)[2]
    assert r.second_derivative == pytest.approx(float(curvature), rel=1e-12)


def test_saddle_exponent_identity():
    # exponent equals n (g_beta(m) - beta m^2) for any beta
    ctx = HALF
    n, m, beta = 50, 0.2, 1.23
    x = asy.x_star(m, ctx)
    lhs = asy.eta(x, ctx) - m * x
    rhs = asy.g_beta(m, beta, ctx) - beta * m * m
    assert lhs == pytest.approx(rhs, abs=1e-13)
    assert 1.0 - math.exp(-x) > 0.0


def test_saddle_against_exact_counts():
    ctx = HALF
    errors = []
    for n in (100, 200, 400):
        t = oracles.multiplicity_table(n, 1)
        two_m = 2 * int(0.2 * n)
        exact = t.count(two_m) - t.count(two_m + 2)
        ratio = math.exp(math.log(exact) - oracles.saddle_multiplicity(n, 0.2, ctx))
        errors.append(abs(ratio - 1.0))
    assert errors[0] > errors[1] > errors[2]
    assert errors[-1] < 0.03


def test_saddle_domain():
    with pytest.raises(ValueError):
        oracles.saddle_multiplicity(100, 0.0, HALF)


def test_pressure_and_magnetization():
    assert oracles.pressure(2.2, 0.0, HALF) == pytest.approx(asy.m_star(2.2, HALF).value)
    # derivative consistency: dp/dh ~ m
    for beta in (1.5, 2.5):
        h = 0.3
        eps = 1e-5
        fd = (oracles.pressure(beta, h + eps, HALF) - oracles.pressure(beta, h - eps, HALF)) / (2 * eps)
        assert fd == pytest.approx(asy.magnetization(beta, h, HALF), abs=1e-4)
    with pytest.raises(ValueError):
        oracles.pressure(2.0, -0.1, HALF)


def test_pressure_at_saturation():
    # m* rounds to S here, where g_beta takes its limit beta S^2
    assert oracles.pressure(50.0, 0.0, HALF) == pytest.approx(12.5, rel=1e-14)
    assert oracles.pressure(3.0, 40.0, HALF) == pytest.approx(20.75, rel=1e-14)
    assert asy.g_beta(-0.5, 3.0, HALF) == 0.75
    with pytest.raises(ValueError):
        asy.x_star(0.5, HALF)


def test_magnetization_stationarity():
    for beta, h in ((1.5, 0.2), (2.0, 0.05), (2.5, 0.4)):
        m = asy.magnetization(beta, h, HALF)
        assert abs(2 * beta * m - asy.x_star(m, HALF) + h) < 1e-9


def test_susceptibility_closed_form_and_fd():
    assert asy.susceptibility(1.5, HALF) == pytest.approx(1.0, abs=1e-12)
    # finite-difference cross-check at two temperatures
    for beta in (1.2, 1.7):
        eps = 1e-6
        fd = asy.magnetization(beta, eps, HALF) / eps
        assert fd == pytest.approx(asy.susceptibility(beta, HALF), rel=1e-3)
    with pytest.raises(ValueError):
        asy.susceptibility(2.0, HALF)


def test_fit_exponent_exact_power_law():
    samples = [(t, t**0.5) for t in (1e-1, 1e-2, 1e-3, 1e-4, 1e-5)]
    fit = asy.fit_exponent(samples)
    assert fit.exponent == pytest.approx(0.5, abs=1e-12)
    assert fit.r_squared == pytest.approx(1.0, abs=1e-12)


def test_fit_exponent_rejects_bad_data():
    with pytest.raises(ValueError):
        asy.fit_exponent([(0.1, 1.0), (0.2, 2.0)])
    with pytest.raises(ValueError):
        asy.fit_exponent([(0.1, 1.0), (0.01, -1.0), (0.001, 1.0), (1e-4, 1.0)])


def test_magnetization_exponent():
    bc = asy.beta_critical(HALF)
    pts = [(d, asy.m_star(bc + d, HALF).location) for d in (1e-1, 1e-2, 1e-3, 1e-4)]
    fit = asy.fit_exponent(pts)
    assert abs(fit.exponent - 0.5) < 0.05


def test_transverse_surrogate_exponent():
    bc = asy.beta_critical(HALF)
    pts = [(h, asy.magnetization(bc, h, HALF) / h) for h in (1e-2, 1e-3, 1e-4, 1e-5, 1e-6)]
    fit = asy.fit_exponent(pts)
    assert abs(fit.exponent - (-2.0 / 3.0)) < 0.05


def test_phi_beta_validation():
    with pytest.raises(ValueError):
        oracles.phi_beta([0.5, 0.4], 1.0)  # does not sum to 1
    with pytest.raises(ValueError):
        oracles.phi_beta([0.2, 0.8], 1.0)  # not weakly decreasing
    val = oracles.phi_beta([0.5, 0.3, 0.2], 2.0)
    expected = 1.0 * (0.25 + 0.09 + 0.04 - 1.0) - (
        0.5 * math.log(0.5) + 0.3 * math.log(0.3) + 0.2 * math.log(0.2)
    )
    assert val == pytest.approx(expected, abs=1e-12)


def test_interchange_critical_value():
    assert asy.interchange_beta_critical(ONE) == pytest.approx(4 * math.log(2.0))
    # the theta -> 2 limit of the formula, and the Heisenberg value at S = 1/2
    assert asy.interchange_beta_critical(HALF) == 2.0 == asy.beta_critical(HALF)


def test_interchange_maximizer_uniform_below_critical():
    bc = asy.interchange_beta_critical(ONE)
    r = asy.interchange_maximizer(bc - 0.2, ONE)
    assert r.location == pytest.approx(1.0 / 3.0, abs=1e-12)
    assert r.z_star == 0.0
    r2 = asy.interchange_maximizer(bc + 0.2, ONE)
    assert r2.z_star > 0.0


def test_interchange_family_beats_simplex_grid():
    # Lagrange-family restriction loses nothing against a full simplex scan
    theta = 3
    resolution = 200
    for beta in (2.0, 3.0, 4.0):
        fam = asy.interchange_maximizer(beta, ONE).value
        best = -math.inf
        for a in range(resolution, -1, -1):
            for b in range(min(a, resolution - a), -1, -1):
                c = resolution - a - b
                if c > b:
                    continue
                x = (a / resolution, b / resolution, c / resolution)
                val = oracles.phi_beta(x, beta)
                best = max(best, val)
        assert best <= fam + 1e-6


def test_interchange_family_beats_simplex_grid_theta4():
    resolution = 120
    beta = 3.2
    fam = asy.interchange_maximizer(beta, THREE_HALVES).value
    best = -math.inf
    for a in range(resolution, -1, -1):
        for b in range(min(a, resolution - a), -1, -1):
            for c in range(min(b, resolution - a - b), -1, -1):
                d = resolution - a - b - c
                if d > c:
                    continue
                x = (a / resolution, b / resolution, c / resolution, d / resolution)
                val = oracles.phi_beta(x, beta)
                if val > best:
                    best = val
    assert best <= fam + 1e-6


def test_interchange_theta2_matches_heisenberg_maximizer():
    # theta = 2 simplex profile is the S = 1/2 free-energy profile shifted by
    # beta/4, so x1* = 1/2 + m* and z* = 2 m*
    for beta in (1.8, 2.2, 3.0):
        fam = asy.interchange_maximizer(beta, HALF)
        m = asy.m_star(beta, HALF).location
        assert fam.location == pytest.approx(0.5 + m, abs=1e-12)
        assert fam.z_star == pytest.approx(2.0 * m, abs=1e-12)


@pytest.mark.parametrize("theta", [3, 4, 5, 6, 8])
def test_interchange_jump_at_beta_c(theta):
    # first-order transition: z* jumps from 0 to (theta-2)/(theta-1) at beta_c,
    # where phi at the two maxima differs by O(beta - beta_c) = O(1e-9)
    ctx = asy.SpinContext(theta - 1)
    bc = asy.interchange_beta_critical(ctx)
    assert asy.interchange_maximizer(bc * (1.0 - 1e-9), ctx).z_star == 0.0
    above = asy.interchange_maximizer(bc * (1.0 + 1e-9), ctx)
    assert above.z_star == pytest.approx((theta - 2) / (theta - 1), abs=1e-6)


@pytest.mark.parametrize("theta", [2, 3, 4, 6])
def test_interchange_maximizer_against_mpmath_root(theta):
    # x1* solves beta (x1 - x2) = log(x1/x2) with x2 = (1 - x1)/(theta - 1);
    # in u = log(x1/x2), x1 - x2 = (e^u - 1)/(e^u + theta - 1) = z.  The
    # factors 15 and 30 put the root past x1 = 1 - 1e-12, where x1* rounds to 1
    mpmath = pytest.importorskip("mpmath")
    ctx = asy.SpinContext(theta - 1)
    bc = asy.interchange_beta_critical(ctx)
    for factor in (1.05, 1.5, 3.0, 6.0, 15.0, 30.0):
        beta = bc * factor
        r = asy.interchange_maximizer(beta, ctx)
        assert r.z_star > 0.0 and r.second_derivative < 0.0
        ref, z, _, _ = _mp_interchange(mpmath, theta, beta, beta * r.z_star)
        assert abs(r.location - ref) < 1e-14, (beta, float(r.location - ref))
        assert abs(r.z_star - z) < 1e-14, (beta, float(r.z_star - z))


def test_interchange_maximizer_saturated():
    # past beta ~ 28 + log(theta) the root lies beyond x1 = 1 - 1e-12; by
    # beta ~ 37 + log(theta), x1* and z* round to 1 and the root is the
    # bracket end u = beta, found without iterations
    mpmath = pytest.importorskip("mpmath")
    for ctx, beta in itertools.product((HALF, ONE, THREE_HALVES), (30.0, 40.0, 60.0)):
        r = asy.interchange_maximizer(beta, ctx)
        x1, z, value, curvature = _mp_interchange(mpmath, ctx.theta, beta, beta)
        assert r.location <= 1.0 and r.z_star <= 1.0
        assert r.location == pytest.approx(float(x1), rel=1e-15)
        assert r.z_star == pytest.approx(float(z), rel=1e-15)
        assert r.value == pytest.approx(float(value), rel=1e-14)
        assert r.second_derivative == pytest.approx(float(curvature), rel=1e-12)
        if beta == 60.0:
            assert (r.location, r.z_star, r.iterations) == (1.0, 1.0, 0)


def test_maximizers_against_mpmath_up_to_deep_order():
    # from 1.01 beta_c up to beta = 200 (interchange: 60), where the curvature
    # of g_beta is about -e^{2 beta S}
    mpmath = pytest.importorskip("mpmath")
    for two_s in (1, 2, 3):
        ctx = asy.SpinContext(two_s)
        lo = 1.01 * asy.beta_critical(ctx)
        for k in range(13):
            beta = lo * (200.0 / lo) ** (k / 12)
            r = asy.m_star(beta, ctx)
            m, value, curvature = _mp_mean_field(mpmath, two_s, beta)
            assert r.location == pytest.approx(float(m), rel=1e-14), beta
            assert r.value == pytest.approx(float(value), rel=1e-14), beta
            assert r.second_derivative == pytest.approx(float(curvature), rel=1e-12), beta
    for theta in (2, 3, 4, 6):
        ctx = asy.SpinContext(theta - 1)
        lo = 1.01 * asy.interchange_beta_critical(ctx)
        for k in range(13):
            beta = lo * (60.0 / lo) ** (k / 12)
            r = asy.interchange_maximizer(beta, ctx)
            x1, z, value, curvature = _mp_interchange(mpmath, theta, beta, beta * r.z_star)
            assert r.location == pytest.approx(float(x1), rel=1e-14), beta
            assert r.z_star == pytest.approx(float(z), rel=1e-14), beta
            assert r.value == pytest.approx(float(value), rel=1e-14), beta
            assert r.second_derivative == pytest.approx(float(curvature), rel=1e-12), beta


def test_each_maximizer_solves_once(monkeypatch):
    # the root fixes everything else: no re-inversion of eta' or the Langevin function
    calls = []
    brent = asy._brent

    def counting(f, lo, hi):
        calls.append((lo, hi))
        return brent(f, lo, hi)

    monkeypatch.setattr(asy, "_brent", counting)
    for run in (
        lambda: asy.m_star(3.0, HALF),
        lambda: asy.m_star(200.0, THREE_HALVES),
        lambda: asy.magnetization(1.0, 0.5, ONE),
        lambda: asy.magnetization(-2.0, 0.5, ONE),
        lambda: asy.classical_maximizer(4.0),
        lambda: asy.interchange_maximizer(3.0, ONE),
        lambda: asy.interchange_maximizer(60.0, THREE_HALVES),
    ):
        calls.clear()
        run()
        assert len(calls) == 1


def test_classical_transition():
    assert asy.classical_maximizer(1.4).location == 0.0
    r = asy.classical_maximizer(1.6)
    assert r.location > 0.0
    assert asy._langevin(2 * 1.6 * r.location) == pytest.approx(r.location, abs=1e-12)
    # independent grid oracle, inverting L with scipy's brentq
    from scipy.optimize import brentq

    def f(mu):
        x = brentq(lambda t: asy._langevin(t) - mu, 0.0, 1e3, xtol=1e-14) if mu > 0 else 0.0
        return math.log(math.sinh(x) / x) - mu * x + 1.6 * mu * mu if x > 0 else 1.6 * mu * mu
    oracle = grid_scan_max(f, 0.0, 0.97)
    assert r.location == pytest.approx(oracle, abs=1e-7)


def test_brent_matches_scipy_brentq_bit_for_bit(monkeypatch):
    # every root the module solves, on the grids the CLI and the benchmark
    # walk and at beta >> beta_c, against the routine the port follows
    from scipy.optimize import brentq

    calls = []
    brent = asy._brent

    def recording(f, lo, hi):
        calls.append((f, lo, hi, brent(f, lo, hi)))
        return calls[-1][3]

    monkeypatch.setattr(asy, "_brent", recording)
    rng = random.Random(29)
    deep = (30.0, 50.0, 100.0, 200.0)
    for two_s in (1, 2, 3, 5):
        ctx = asy.SpinContext(two_s)
        bc = asy.beta_critical(ctx)
        seeded = [bc * rng.uniform(1.0, 20.0) for _ in range(4)]
        for beta in [bc * (1.0 + 10.0**-k) for k in range(1, 13)] + seeded + list(deep):
            asy.m_star(beta, ctx)
            for h in (0.0, 1e-9, 1e-4, 0.3, 2.0, 10.0):
                asy.magnetization(beta, h, ctx)
        for _ in range(20):
            asy.x_star(rng.uniform(-1.0, 1.0) * ctx.spin, ctx)
    seeded = [rng.uniform(1.5, 30.0) for _ in range(8)]
    for beta in [1.5 * (1.0 + 10.0**-k) for k in range(1, 13)] + seeded + list(deep):
        asy.classical_maximizer(beta)
    for _ in range(20):  # close to saturation, where the bracket doubles furthest
        asy.x_star((1.0 - 10.0 ** -rng.uniform(1.0, 12.0)) * HALF.spin, HALF)
    for two_s in (2, 3):  # the benchmark's maximize grid 2:4:0.1
        for k in range(21):
            asy.interchange_maximizer(2.0 + 0.1 * k, asy.SpinContext(two_s))
    for two_s in range(1, 6):
        ctx = asy.SpinContext(two_s)
        bc = asy.interchange_beta_critical(ctx)
        for beta in [bc * rng.uniform(1.0, 10.0) for _ in range(8)] + [30.0, 40.0, 60.0]:
            asy.interchange_maximizer(beta, ctx)
    assert len(calls) >= 760  # 76 of them interchange roots
    at_end = 0
    for f, lo, hi, (root, iterations) in calls:
        ref, info = brentq(f, lo, hi, xtol=1e-300, rtol=1e-15, full_output=True)
        assert root == ref
        if f(lo) == 0.0 or f(hi) == 0.0:  # brentq leaves its count undefined here
            at_end += 1
            assert iterations == 0
        else:
            assert iterations == info.iterations
    assert at_end > 0  # m* = S and x1* = 1 at the deepest points


def test_brent_failures():
    with pytest.raises(ValueError, match="differ in sign"):
        asy._brent(lambda x: x + 1.0, 0.0, 1.0)
    # a step at 0: each iteration only halves the bracket towards xtol = 1e-300
    with pytest.raises(ArithmeticError, match="did not converge"):
        asy._brent(lambda x: 1.0 if x > 0.0 else -1.0, 0.0, 1.0)
