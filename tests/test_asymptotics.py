"""Tests for the variational / asymptotic machinery."""

import math

import pytest

from spinloops import asymptotics as asy
from spinloops import spectra as sp

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


@pytest.mark.parametrize(
    "ctx,beta,location,value",
    [
        (HALF, 10.0, 0.49995456085761636, 2.5000454195276163),
        (HALF, 50.0, 0.49999999999949996, 12.499999999989658),
        (HALF, 200.0, 0.49999999999949996, 49.99999999991465),
        (ONE, 10.0, 0.9999999979388463, 10.000000002061153),
        (ONE, 50.0, 0.9999999999989999, 49.99999999992862),
        (ONE, 200.0, 0.9999999999989999, 199.99999999962859),
    ],
)
def test_m_star_saturated(ctx, beta, location, value):
    # reference values from a 512-point grid scan with golden-section and
    # bisection refinement; at beta = 50 and 200 the root lies beyond the cap
    # S (1 - 1e-12), which is returned
    r = asy.m_star(beta, ctx)
    assert 0.0 <= r.location < ctx.spin
    assert r.location == pytest.approx(location, abs=1e-12)
    assert r.value == pytest.approx(value, abs=1e-12)


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
        t = sp.multiplicity_table(n, 1)
        two_m = 2 * int(0.2 * n)
        exact = t.count(two_m) - t.count(two_m + 2)
        ratio = math.exp(math.log(exact) - asy.saddle_multiplicity(n, 0.2, ctx))
        errors.append(abs(ratio - 1.0))
    assert errors[0] > errors[1] > errors[2]
    assert errors[-1] < 0.03


def test_saddle_domain():
    with pytest.raises(ValueError):
        asy.saddle_multiplicity(100, 0.0, HALF)


def test_pressure_and_magnetization():
    assert asy.pressure(2.2, 0.0, HALF) == pytest.approx(asy.m_star(2.2, HALF).value)
    # derivative consistency: dp/dh ~ m
    for beta in (1.5, 2.5):
        h = 0.3
        eps = 1e-5
        fd = (asy.pressure(beta, h + eps, HALF) - asy.pressure(beta, h - eps, HALF)) / (2 * eps)
        assert fd == pytest.approx(asy.magnetization(beta, h, HALF), abs=1e-4)
    with pytest.raises(ValueError):
        asy.pressure(2.0, -0.1, HALF)


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
        asy.phi_beta([0.5, 0.4], 1.0)  # does not sum to 1
    with pytest.raises(ValueError):
        asy.phi_beta([0.2, 0.8], 1.0)  # not weakly decreasing
    val = asy.phi_beta([0.5, 0.3, 0.2], 2.0)
    expected = 1.0 * (0.25 + 0.09 + 0.04 - 1.0) - (
        0.5 * math.log(0.5) + 0.3 * math.log(0.3) + 0.2 * math.log(0.2)
    )
    assert val == pytest.approx(expected, abs=1e-12)


def test_interchange_critical_value():
    assert asy.interchange_beta_critical(ONE) == pytest.approx(4 * math.log(2.0))
    with pytest.raises(ValueError):
        asy.interchange_beta_critical(HALF)


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
                val = asy.phi_beta(x, beta)
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
                val = asy.phi_beta(x, beta)
                if val > best:
                    best = val
    assert best <= fam + 1e-6


def test_interchange_theta2_matches_heisenberg_maximizer():
    # theta = 2 simplex profile is the S = 1/2 free-energy profile shifted by
    # beta/4, so x1* = 1/2 + m* and z* = 2 m*
    for beta in (1.8, 2.2, 3.0):
        fam = asy.interchange_maximizer(beta, HALF)
        m = asy.m_star(beta, HALF).location
        assert fam.location == pytest.approx(0.5 + m, abs=1e-7)
        assert fam.z_star == pytest.approx(2.0 * m, abs=1e-6)


def test_classical_field_root():
    for mu in (0.1, 0.5, 0.9):
        x = asy.classical_field(mu)
        assert (1.0 / math.tanh(x)) - 1.0 / x == pytest.approx(mu, abs=1e-12)


def test_classical_transition():
    assert asy.classical_maximizer(1.4).location == 0.0
    r = asy.classical_maximizer(1.6)
    assert r.location > 0.0
    assert abs(2 * 1.6 * r.location - asy.classical_field(r.location)) < 1e-10
    # independent grid oracle
    def f(mu):
        x = asy.classical_field(mu)
        return math.log(math.sinh(x) / x) - mu * x + 1.6 * mu * mu if x > 0 else 1.6 * mu * mu
    oracle = grid_scan_max(f, 0.0, 0.97)
    assert r.location == pytest.approx(oracle, abs=1e-7)
