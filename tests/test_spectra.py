"""Tests for the exact finite-n quantum engines."""

import itertools
import math

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import i0

from spinloops import spectra as sp
from spinloops.asymptotics import beta_critical, m_star
from spinloops.pd import sinhc

import oracles


def brute_force_counts(n, two_s):
    """Independent multiplicity oracle: enumerate all (2S+1)^n states."""
    levels = range(-two_s, two_s + 1, 2)  # doubled one-site eigenvalues
    counts = {}
    for combo in itertools.product(levels, repeat=n):
        key = sum(combo)
        counts[key] = counts.get(key, 0) + 1
    return counts


def test_single_spin_table():
    t = oracles.multiplicity_table(1, 1)
    assert t.counts == {-1: 1, 1: 1}


def test_table_matches_enumeration_spin_half():
    t = oracles.multiplicity_table(4, 1)
    assert [t.count(2 * m) for m in range(-2, 3)] == [1, 4, 6, 4, 1]
    assert t.counts == brute_force_counts(4, 1)


def test_table_matches_enumeration_spin_one():
    t = oracles.multiplicity_table(2, 2)
    assert [t.count(2 * m) for m in range(-2, 3)] == [1, 2, 3, 2, 1]
    assert t.counts == brute_force_counts(2, 2)


def test_table_matches_binomials():
    # spin 1/2 counts are binomial coefficients
    for n in (3, 7, 12, 25):
        t = oracles.multiplicity_table(n, 1)
        for k in range(n + 1):
            assert t.count(2 * k - n) == math.comb(n, k)


@pytest.mark.parametrize("two_s", [1, 2, 3])
@pytest.mark.parametrize("n", list(range(1, 21)))
def test_table_identities(n, two_s):
    t = oracles.multiplicity_table(n, two_s)
    width = n * two_s
    total = sum(t.counts.values())
    assert total == (two_s + 1) ** n
    for two_m, c in t.counts.items():
        assert c == t.count(-two_m)
    # unimodal in |M| and the extreme weight is 1
    prev = None
    for two_m in range(width % 2, width + 1, 2):
        c = t.count(two_m)
        if prev is not None:
            assert c <= prev
        prev = c
    assert t.count(width) == 1


def test_cap_error():
    with pytest.raises(oracles.CapExceededError):
        oracles.multiplicity_table(10_001, 1)


def test_log_row_matches_exact():
    # the large rows span hundreds of orders of magnitude below their peak
    for n, two_s in [(30, 1), (12, 2), (9, 3), (2000, 1), (1000, 2), (300, 3), (200, 4), (50, 5)]:
        t = oracles.multiplicity_table(n, two_s)
        log_c, _ = sp._half_row(n, two_s)  # log L_{M,n} at k = M + S n up to the centre
        width = n * two_s
        exact = [math.log(t.count(2 * k - width)) for k in range(width // 2 + 1)]
        assert np.all(np.isfinite(log_c))
        assert log_c == pytest.approx(exact, rel=1e-12)


@pytest.mark.parametrize("n,two_s", [(10_000, 1), (10_000, 2), (1000, 2), (300, 3), (200, 4)])
def test_log_degeneracies_match_big_integer(n, two_s):
    # every sector, including the few-state ones far below the peak; the
    # big-integer table is O(n^2), so at n = 10^4 spin 1/2 takes L_J = C(n, k)
    # with k = n/2 + J, and spin 1 Miller's recurrence in exact integers (4.0e-11 off)
    width = n * two_s
    if two_s == 1:
        lo = (n + 1) // 2
        binom = [math.comb(n, lo)]
        for k in range(lo, n + 1):
            binom.append(binom[-1] * (n - k) // (k + 1))
        degs = {2 * (lo + i) - n: binom[i] - binom[i + 1] for i in range(n - lo + 1)}
    elif n == 10_000:
        c = oracles.exact_half_row(n, two_s)
        degs = {width - 2 * k: c[k] - (c[k - 1] if k else 0) for k in range(len(c))}
    else:
        degs = oracles.irrep_spectrum(oracles.multiplicity_table(n, two_s)).degeneracies
    two_js, logd = sp._log_degeneracies(n, two_s)
    assert list(two_js) == sorted(degs)
    rel = max(abs(math.expm1(ld - math.log(degs[j2]))) for j2, ld in zip(two_js.tolist(), logd))
    assert rel < 5e-11


@pytest.mark.parametrize("two_s", [1, 2, 3, 4])
def test_exact_miller_route_matches_prefix_table(two_s):
    for n in range(1, 31):
        t = oracles.multiplicity_table(n, two_s)
        width = n * two_s
        assert oracles.exact_half_row(n, two_s) == [t.count(2 * k - width) for k in range(width // 2 + 1)]
        degs = oracles.irrep_spectrum(t).degeneracies
        two_js, logd = oracles.exact_log_degeneracies(n, two_s)
        assert two_js.tolist() == list(range(width % 2, width + 1, 2))
        assert two_js[logd > -math.inf].tolist() == sorted(degs)
        assert logd[logd > -math.inf].tolist() == [math.log(degs[j2]) for j2 in sorted(degs)]


def test_exact_miller_route_matches_binomials():
    for n in (1, 2, 7, 300, 1001):
        assert oracles.exact_half_row(n, 1) == [math.comb(n, k) for k in range(n // 2 + 1)]


def test_irrep_spectrum_small():
    t = oracles.multiplicity_table(4, 1)
    ir = oracles.irrep_spectrum(t)
    assert ir.degeneracies == {4: 1, 2: 3, 0: 2}


def test_irrep_single_site():
    for two_s in (1, 2, 3):
        ir = oracles.irrep_spectrum(oracles.multiplicity_table(1, two_s))
        assert ir.degeneracies == {two_s: 1}


@pytest.mark.parametrize("two_s", [1, 2, 3])
@pytest.mark.parametrize("n", list(range(1, 21)))
def test_dimension_sum(n, two_s):
    ir = oracles.irrep_spectrum(oracles.multiplicity_table(n, two_s))
    assert all(d >= 0 for d in ir.degeneracies.values())
    total = sum((two_j + 1) * d for two_j, d in ir.degeneracies.items())
    assert total == (two_s + 1) ** n


def test_h_zero_is_one():
    assert sp.heisenberg_expectation_exact(5, 1, 2.0, 1.0, 0.0) == 1.0
    assert sp.heisenberg_expectation_exact(5, 2, 2.0, 0.3, 0.0) == 1.0
    assert oracles.dense_gibbs_oracle(3, 1, 2.0, 0.5, 0.0) == 1.0


def test_dense_single_site_closed_form():
    # free spin 1/2: <e^{h S1}> = cosh(h/2)
    for h in (0.5, 1.0, 2.0):
        v = oracles.dense_gibbs_oracle(1, 1, beta=1.3, delta=1.0, h=h)
        assert v == pytest.approx(math.cosh(h / 2), rel=1e-12)


def test_engines_agree_n2_xy():
    a = sp.heisenberg_expectation_exact(2, 1, 1.0, 0.0, 1.0)
    b = oracles.dense_gibbs_oracle(2, 1, 1.0, 0.0, 1.0)
    assert a == pytest.approx(b, rel=1e-12)


def test_engines_agree_n4_isotropic():
    a = sp.heisenberg_expectation_exact(4, 1, 2.0, 1.0, 1.0)
    b = oracles.dense_gibbs_oracle(4, 1, 2.0, 1.0, 1.0)
    assert a == pytest.approx(b, rel=1e-10)


def test_sign_symmetry_in_h():
    for delta in (1.0, 0.0):
        plus = sp.heisenberg_expectation_exact(5, 1, 2.0, delta, 1.5)
        minus = sp.heisenberg_expectation_exact(5, 1, 2.0, delta, -1.5)
        assert plus == pytest.approx(minus, rel=1e-12)


def test_complex_field():
    # complex t = h/n in both sector sums, and odd 2|M| when n * 2S is odd
    for delta, two_s, n in itertools.product((1.0, 0.0, -0.5), (1, 2, 3, 4), range(1, 6)):
        if (two_s + 1) ** n > 256:
            continue
        v = sp.heisenberg_expectation_exact(n, two_s, 1.0, delta, 1.0 + 0.5j)
        w = oracles.dense_gibbs_oracle(n, two_s, 1.0, delta, 1.0 + 0.5j)
        assert abs(v - w) < 1e-12 * abs(w), (delta, two_s, n)


@pytest.mark.parametrize("delta", [1.0, 0.0])
def test_overflowing_sums_raise_arithmetic_error(delta):
    # S h = 2500: the value itself (Delta = 1) and the Jacobi sums (Delta = 0)
    # overflow, and the engine raises with no RuntimeWarning first
    with pytest.raises(ArithmeticError):
        sp.heisenberg_expectation_exact(10, 1, 3.0, delta, 5000.0)


def _mp_delta_one(mpmath, n, two_s, beta, h):
    """The Delta = 1 sum in 40-digit mpmath over the engine's own log degeneracies."""
    two_js, logd = sp._log_degeneracies(n, two_s)
    with mpmath.workdps(40):
        a = mpmath.mpf(h) / (2 * n)
        num = den = mpmath.mpf(0)
        for two_j, log_d in zip(two_js.tolist(), logd.tolist()):
            j = mpmath.mpf(two_j) / 2
            w = mpmath.exp(log_d + beta * j * (j + 1) / n)
            num += w * mpmath.sinh((2 * j + 1) * a) / mpmath.sinh(a)
            den += w * (2 * j + 1)
        return num / den


def test_delta_one_sum_is_finite_where_its_value_is():
    # n = 1000, beta = 3.  h = 1500 at S = 1/2: the value is 3.45e302, while the
    # character sinh((2J+1)h/2n) of the top sectors, whose weight is negligible,
    # overflows.  h = 1520 at S = 1/2 and h = 714 at S = 1: the values are 5.99e306
    # and 3.33e306, while the scale e^c, c the largest log weight with e^{2Ja} in
    # it, overflows.  Against 40-digit mpmath over the same log degeneracies;
    # measured 6.8e-15, 9.2e-15 and 6.7e-15, the rounding of exponents with e^{2Ja}
    # in them, which reach 700
    mpmath = pytest.importorskip("mpmath")
    n, beta = 1000, 3.0
    for two_s, h in ((1, 1500.0), (1, 1520.0), (2, 714.0)):
        want = _mp_delta_one(mpmath, n, two_s, beta, h)
        for field in (h, -h):
            got = sp.heisenberg_expectation_exact(n, two_s, beta, 1.0, field)
            assert abs(got / want - 1) < 1e-13, (two_s, field, got)


def test_delta_one_log_weights_are_formed_relative_to_the_heaviest_sector():
    # log d_J + (beta/n) J(J+1) reaches several hundred here; rounded at that
    # size before the maximum is subtracted it put the value 1.5e-14 off
    # 40-digit mpmath, formed as differences from the heaviest sector 6.8e-15
    mpmath = pytest.importorskip("mpmath")
    want = _mp_delta_one(mpmath, 1000, 1, 3.0, 1500.0)
    got = sp.heisenberg_expectation_exact(1000, 1, 3.0, 1.0, 1500.0)
    assert abs(got / want - 1) < 1e-14


@pytest.mark.parametrize("n,two_s,beta", [(60, 1, 2.5), (2000, 1, 10.0), (1000, 2, 3.0)])
def test_log_path_matches_big_integer_past_beta_c(monkeypatch, n, two_s, beta):
    # above beta_c the weight sits in sectors far below the multiplicity peak;
    # measured 4.3e-16 at n = 60 and 0 at the other two
    got = sp.heisenberg_expectation_exact(n, two_s, beta, 1.0, 1.0)
    monkeypatch.setattr(sp, "_log_degeneracies", oracles.exact_log_degeneracies)
    want = sp.heisenberg_expectation_exact(n, two_s, beta, 1.0, 1.0)
    assert got == pytest.approx(want, rel=1e-12)


@pytest.mark.parametrize("delta,beta", [(1.0, 4.0), (0.0, 5.0)])
def test_convergence_past_beta_c_to_n_10000(delta, beta):
    m = m_star(beta, 1).location
    limit = float(np.real(sinhc(m))) if delta == 1.0 else float(i0(m))  # h = 1
    gaps = [
        abs(sp.heisenberg_expectation_exact(n, 1, beta, delta, 1.0) - limit)
        for n in (1250, 2500, 5000, 10_000)
    ]
    for a, b in zip(gaps, gaps[1:]):
        assert 1.8 <= a / b <= 2.2, gaps


def test_xy_convergence_past_beta_c_to_n_10e6():
    # Delta = 0, beta = 3 = 1.5 beta_c, S = 1/2: the windowed sector sum takes about
    # 0.3 s at n = 10^6.  The gap ratios measure 2 - 1.1e-7, 2 - 5e-8 and 2 - 2.5e-8,
    # so the tighter bound catches an error of 1e-12 in a value (one that weighted
    # the numerator and the denominator with separately rounded weights was 4e-11 off)
    limit = float(i0(m_star(3.0, 1).location))  # h = 1
    gaps = [
        abs(sp.heisenberg_expectation_exact(n, 1, 3.0, 0.0, 1.0) - limit)
        for n in (125_000, 250_000, 500_000, 1_000_000)
    ]
    for a, b in zip(gaps, gaps[1:]):
        assert 1.8 <= a / b <= 2.2, gaps
        assert abs(a / b - 2.0) < 1e-5, gaps


def _window_amplitude(two_s, x, h=1.0):
    """lim sqrt(n) (<e^{(h/n) Sigma1}> - 1) at beta = beta_c (1 + x/sqrt(n)), Delta = 1.

    Near m = 0 the free-energy profile of the 3-vector order parameter is
    (beta - beta_c) r^2 - c_S r^4, with c_S = -kappa_4 / (24 kappa_2^4) from
    the cumulants kappa_2 = eta''(0), kappa_4 = eta''''(0) of the uniform law
    on {-S, ..., S}.  With r = rho n^{-1/4} under the measure
    rho^2 e^{beta_c x rho^2 - c_S rho^4} drho, the gap
    sinh(h r)/(h r) - 1 ~ h^2 r^2 / 6 averages to (h^2/6) <rho^2> / sqrt(n);
    at x = 0, <rho^2> = Gamma(5/4)/Gamma(3/4) c_S^{-1/2}.
    """
    levels = [0.5 * (2 * i - two_s) for i in range(two_s + 1)]
    m2 = sum(v**2 for v in levels) / len(levels)
    m4 = sum(v**4 for v in levels) / len(levels)
    c_s = -(m4 - 3 * m2 * m2) / (24 * m2**4)
    if x == 0.0:
        return h * h / 6 * math.gamma(1.25) / math.gamma(0.75) / math.sqrt(c_s)
    beta_c = beta_critical(two_s)

    def moment(power):
        return quad(lambda r: r**power * math.exp(beta_c * x * r * r - c_s * r**4), 0, math.inf)[0]

    return h * h / 6 * moment(4) / moment(2)


_HALF_NS = (15_625, 62_500, 250_000, 1_000_000)


@pytest.mark.parametrize(
    "two_s,x,ns",
    [
        (1, 0.0, _HALF_NS),
        (2, 0.0, (2500, 10_000, 40_000, 160_000)),
        (3, 0.0, (2500, 10_000, 40_000)),
        (1, -1.0, _HALF_NS),
        (1, 1.0, _HALF_NS),
        (2, -1.0, (2500, 10_000, 40_000)),
        (2, 1.0, (2500, 10_000, 40_000)),
    ],
)
def test_critical_window_gap_amplitude(two_s, x, ns):
    # Measured x_n = sqrt(n) * gap: x_n / A - 1 = a / sqrt(n), a nearly
    # constant in n: a = -0.183, -0.073, +0.068 at x = 0 for S = 1/2, 1, 3/2;
    # +0.30 and +0.32 at x = -1, -1.37 and -1.19 at x = +1 (S = 1/2, 1).  So
    # the gap ratio per quadrupling is 2 (1 + a/(2 sqrt(n))), and the
    # Richardson value 2 x_{4n} - x_n is within b/n of A, |b| <= 1.1.
    amp = _window_amplitude(two_s, x)
    beta_c = beta_critical(two_s)
    gaps = [
        sp.heisenberg_expectation_exact(n, two_s, beta_c * (1 + x / math.sqrt(n)), 1.0, 1.0)
        - 1.0
        for n in ns
    ]
    xs = [g * math.sqrt(n) for g, n in zip(gaps, ns)]
    tol = 0.25 + 1.5 * abs(x)
    for n, v in zip(ns, xs):
        assert abs(v / amp - 1.0) < tol / math.sqrt(n), (n, v, amp)
    ratios = [a / b for a, b in zip(gaps, gaps[1:])]
    for n, ratio in zip(ns, ratios):
        assert abs(ratio - 2.0) < tol / math.sqrt(n), (n, ratios)
    assert all(abs(a - 2.0) > abs(b - 2.0) for a, b in zip(ratios, ratios[1:])), ratios
    for n, v, v4 in zip(ns, xs, xs[1:]):
        assert abs((2.0 * v4 - v) / amp - 1.0) < (tol + 0.15) / n, (n, v, v4, amp)


def test_window_amplitude_closed_form_at_beta_c():
    # the integral ratio tends to the Gamma-function closed form as x -> 0
    assert _window_amplitude(1, 0.0) == pytest.approx(0.106762, abs=1e-6)
    for two_s in (1, 2, 3):
        assert _window_amplitude(two_s, 1e-9) == pytest.approx(_window_amplitude(two_s, 0.0), rel=1e-8)


def test_anisotropic_sum_against_40_digit_reference():
    # mpmath at 40 digits: big-integer degeneracies, and each sector's
    # sum_M e^{-beta M^2/n} cosh(t/2)^{2|M|} P^{(0,2|M|)}_{J-|M|}(cosh t)
    # with t = 1/250 from mpmath.jacobi
    v = sp.heisenberg_expectation_exact(250, 1, 5.0, 0.0, 1.0)
    assert v == pytest.approx(1.062062583405921176, rel=1e-13)


def test_monotone_convergence_to_limit():
    m = m_star(2.2, 1).location
    limit = sinhc(m)  # h = 1
    gaps = []
    for n in (64, 128, 256, 512, 1024):
        v = sp.heisenberg_expectation_exact(n, 1, 2.2, 1.0, 1.0)
        gaps.append(abs(v - limit))
    assert all(a > b for a, b in zip(gaps, gaps[1:]))


def test_falk_bruch_chain_and_ward():
    r = oracles.falk_bruch_check(3, 1, 1.0, 0.5, 0.0)
    assert r.chi_perp >= r.m_over_bh >= r.lower_bound
    # Ward identity: M/(beta h) equals the Duhamel inner product exactly
    assert r.magnetization / (1.0 * 0.5) == pytest.approx(r.m_over_bh, rel=1e-10)


def test_falk_bruch_small_field_limit():
    values = []
    for h in (1e-2, 1e-4, 1e-6):
        r = oracles.falk_bruch_check(3, 1, 0.5, h, 0.0)
        values.append(abs(r.chi_perp - r.m_over_bh))
    assert values[0] > values[1] > values[2]
    assert values[2] < 1e-8


def test_falk_bruch_regression_fixture():
    # frozen after the first verified run of this configuration
    import json
    import pathlib

    record = json.loads(
        (pathlib.Path(__file__).parent / "fixtures" / "falk_bruch_regression.json").read_text()
    )
    p = record["params"]
    r = oracles.falk_bruch_check(p["n"], p["two_s"], p["beta"], p["h"], p["u"])
    tol = record["tolerance"]
    assert r.chi_perp == pytest.approx(record["value"]["chi_perp"], rel=tol)
    assert r.m_over_bh == pytest.approx(record["value"]["m_over_bh"], rel=tol)
    assert r.lower_bound == pytest.approx(record["value"]["lower_bound"], rel=tol)


def test_falk_bruch_rejects_zero_field():
    with pytest.raises(ValueError):
        oracles.falk_bruch_check(3, 1, 1.0, 0.0, 0.0)


def test_dense_cap():
    with pytest.raises(oracles.CapExceededError):
        oracles.dense_gibbs_oracle(9, 2, 1.0, 1.0, 1.0)  # 3^9 > 6561


_BLOCK_WIDTHS = [0, 1, 2, 3, 4, 5, 127, 128, 129, 1023, 1024, 1025, 4001,
                 pytest.param(10**4, marks=pytest.mark.slow)]


def _windows(width):
    """The full window and a seeded one whose |M| range stops below its lower edge;
    below width 10^4 (which would take 30 s) also one from J = 1/2 or 1, a seeded
    one whose |M| range reaches past its lower edge, and narrow ones."""
    m = width // 2 + 1
    wins = [(0, m - 1, m - 1), (m // 3, m - 1, m // 4)]
    if width < 10**4:
        wins += [(min(1, m - 1), m - 1, m // 4), (m - 1 - m // 8, m - 1, m - 1),
                 (m // 2, min(m - 1, m // 2 + 3), 2), (m - 1, m - 1, 0)]
    return sorted({(lo, hi, min(i_hi, hi)) for lo, hi, i_hi in wins})


@pytest.mark.parametrize("width", _BLOCK_WIDTHS)
def test_blocked_sector_sums_match_per_step_recurrence(width):
    # the running-sum step, seeded at the window's lower edge, against the unseeded
    # difference recurrence from J = 0 (the name is from the row blocks the step
    # replaced); |<J M|e^{t Sigma1}|J M>| is at most its value at |Re t|, so the
    # sums at |Re t| bound the terms.  Large t overflows both routes at the same
    # sectors.  Measured worst 3.2e-14 of that bound at real t, 3.8e-14 at complex
    # and 5.2e-16 at imaginary t; at the worst sectors (J near 1000 at t = 0.7, near
    # 355 at t = 2 - i) both routes are 2-5e-14 off 40-digit mpmath
    for window in _windows(width):
        for gamma in (0.0, 5.0 / max(width, 1), 0.3):
            for t in (1e-9, 1.0 / max(width, 1), 0.7, 0.3 + 0.2j, -0.01j, 2 - 1j):
                with np.errstate(over="ignore", invalid="ignore"):
                    got = sp._anisotropic_sector_sums(width, gamma, t, window)
                    want = oracles.windowed_sector_sums_per_step(width, gamma, t, window)
                    a = abs(np.real(t))
                    bound = want if t == a else oracles.windowed_sector_sums_per_step(width, gamma, a, window)
                assert got.dtype == want.dtype
                finite = np.isfinite(want)
                assert np.array_equal(np.isfinite(got), finite), (width, window, gamma, t)
                err = abs(got[finite] - want[finite])
                assert np.all(err <= 5e-14 * bound[finite]), (width, window, gamma, t)


@pytest.mark.parametrize("n, two_s, delta, h", [(500, 1, 0.0, 1.0), (128, 2, 0.0, 1.0),
                                                (300, 3, 0.5, 1.0 + 0.5j), (1000, 1, -0.5, 1.0)])
def test_xy_value_unchanged_by_blocked_recurrence(monkeypatch, n, two_s, delta, h):
    # the unseeded recurrence from J = 0 in place of the seeded running sum
    got = sp.heisenberg_expectation_exact(n, two_s, 3.0, delta, h)
    monkeypatch.setattr(sp, "_anisotropic_sector_sums", oracles.windowed_sector_sums_per_step)
    want = sp.heisenberg_expectation_exact(n, two_s, 3.0, delta, h)
    assert abs(got - want) <= 1e-14 * abs(want)


@pytest.mark.parametrize("n, two_s, beta, delta, h", [(500, 1, 5.0, 0.0, 1420.0),
                                                      (5000, 1, 2.0, 0.0, 1450.0)])
def test_xy_sums_overflow_no_sooner_than_their_values(monkeypatch, n, two_s, beta, delta, h):
    # fields just below the largest whose sector sums fit a double (1420.78 at the
    # first case): D_k is carried over max(j_hi, 1), and the P update never forms
    # D c / q, so neither overflows before P_k does
    got = sp.heisenberg_expectation_exact(n, two_s, beta, delta, h)
    monkeypatch.setattr(sp, "_anisotropic_sector_sums", oracles.windowed_sector_sums_per_step)
    want = sp.heisenberg_expectation_exact(n, two_s, beta, delta, h)
    assert math.isfinite(got) and abs(got - want) <= 1e-13 * abs(want), (got, want)


def _spy(monkeypatch, name):
    """Record (args, result) of every call to spectra.<name>."""
    calls, inner = [], getattr(sp, name)

    def spy(*args):
        calls.append((args, inner(*args)))
        return calls[-1][1]

    monkeypatch.setattr(sp, name, spy)
    return calls


def _mp_sector(width, gamma, t, j, i_hi):
    """sum_{i <= min(j, i_hi)} e^{-gamma M^2} cosh(t/2)^b P^{(0,b)}_{j-i}(cosh t) by mpmath.jacobi."""
    import mpmath as mp

    t, gamma = mp.mpmathify(t), mp.mpf(gamma)
    x, ch = mp.cosh(t), mp.cosh(t / 2)
    total = 0
    for i in range(min(j, i_hi) + 1):
        b = width % 2 + 2 * i
        total += (2 if b else 1) * mp.exp(-gamma * b * b / 4) * ch**b * mp.jacobi(j - i, 0, b, x)
    return complex(total)


_SECTOR_GRID = [(10_000, beta, delta, h) for beta in (1.0, 2.0, 3.0) for delta in (-1.0, 0.0, 0.5)
                for h in (1.0, 1.0 + 0.5j)]
_SECTOR_GRID += [pytest.param(40_000, beta, delta, 1.0 + 0.5j, marks=pytest.mark.slow)
                 for beta, delta in ((1.0, 0.5), (2.0, -1.0), (3.0, 0.0))]


@pytest.mark.parametrize("n, beta, delta, h", _SECTOR_GRID)
def test_windowed_sectors_against_40_digit_mpmath(monkeypatch, n, beta, delta, h):
    # S = 1/2, beta_c = 2: the window starts at J = 0 below and at beta_c and is
    # seeded at its lower edge above it; measured worst 8e-16 over this grid and
    # the window's middle sectors
    calls = _spy(monkeypatch, "_anisotropic_sector_sums")
    sp.heisenberg_expectation_exact(n, 1, beta, delta, h)
    ((width, gamma, t, (j_lo, j_hi, i_hi)), sums), = calls
    assert (j_lo > 0) == (beta > 2.0)
    import mpmath as mp

    with mp.workdps(40):
        for j in (max(j_lo, 1), j_hi):
            want = _mp_sector(width, gamma, t, j, i_hi)
            assert abs(sums[j - j_lo] - want) < 1e-14 * abs(want), (j, sums[j - j_lo], want)


@pytest.mark.parametrize("n", [500, 4000])
@pytest.mark.parametrize("delta", [-1.0, 0.0, 0.5])
@pytest.mark.parametrize("h", [1.0, 3.0 - 2.0j, 4.0j])
def test_window_bound_covers_dropped_mass(monkeypatch, n, delta, h):
    # a loose target makes the window drop real mass; |<J M|e^{t Sigma1}|J M>| is at
    # most <J M|e^{Re t Sigma1}|J M>, so the mass dropped at Re t, from the full-range
    # oracle, is at least the mass dropped at t
    monkeypatch.setattr(sp, "_TARGET", 1e-7)
    windows = _spy(monkeypatch, "_sector_window")
    sp.heisenberg_expectation_exact(n, 1, 3.0, delta, h)
    ((log_w, log_z, two_js, mass, a), (window, bound)), = windows
    j_lo, j_hi, i_hi = window
    assert 0.0 < bound <= 2e-7 and i_hi < n // 2
    width, gamma, t = n, (1.0 - delta) * 3.0 / n, h / n
    weights = np.exp(log_w)
    for t_cells in (t, t.real):
        full = oracles.anisotropic_sector_sums_per_step(width, gamma, t_cells)[1]
        kept = sp._anisotropic_sector_sums(width, gamma, t_cells, window)
        total = np.dot(weights, full)
        dropped = abs(total - np.dot(weights[j_lo : j_hi + 1], kept))
        assert dropped <= bound + 1e-14 * abs(total), (t_cells, dropped, bound)  # = at t = 0
    assert dropped > 1e-3 * bound  # at Re t the bound is not vacuous


def test_window_widens_to_full_where_its_bound_fails(monkeypatch):
    # near the zero of the generating function at h = 5.6i the kept sum is too small
    # against the dropped-mass bound, so the sum runs again over every cell
    calls = _spy(monkeypatch, "_anisotropic_sector_sums")
    got = sp.heisenberg_expectation_exact(200, 1, 3.0, 0.0, 5.6j)
    assert [c[0][3] for c in calls] == [(0, 100, 50), (0, 100, 100)]
    assert abs(got) < 0.01
    monkeypatch.setattr(sp, "_sector_window", lambda *args: ((0, 100, 100), 0.0))
    assert got == sp.heisenberg_expectation_exact(200, 1, 3.0, 0.0, 5.6j)


@pytest.mark.parametrize("u", [1e-10, 3e-5, 0.02, 2e-5 + 1e-5j, -1e-4j])
def test_jacobi_seed_against_mpmath(u):
    # one column at a time: a column past the 200-term cap (x = k (k+b) |u| / 2
    # beyond about 5000) refuses the whole seed, and so does, for u off the real
    # axis, one whose terms cancel
    import mpmath as mp

    for k, b in [(0, 0), (0, 7), (1, 0), (1, 9), (2, 0), (7, 5), (150, 64), (3000, 1), (40_000, 900)]:
        seed = sp._jacobi_seed(np.array([float(k)]), np.array([float(b)]), u)
        if k * (k + b) * abs(u) / 2 > 5e3 or (seed is None and isinstance(u, complex) and k > 150):
            assert seed is None, (k, b)
            continue
        with mp.workdps(40):
            x = 1 + mp.mpmathify(u)
            want = mp.jacobi(k, 0, b, x)
            # D_k = k (k+b) (P_k - P_{k-1}) / (2k + b), 0 at k = 0
            diff = k * (k + b) * (want - mp.jacobi(k - 1, 0, b, x)) / (2 * k + b) if k else 0
            want, diff = complex(want), complex(diff)
        assert abs(seed[0][0] - want) <= 1e-15 * abs(want), (k, b)
        assert abs(seed[1][0] - diff) <= 1e-15 * abs(diff), (k, b)


def test_jacobi_seed_refuses_an_overflow_or_cancelling_sum():
    assert sp._jacobi_seed(np.array([1e5]), np.array([0.0]), 1e-4) is None  # x = 5e5
    # u on the imaginary axis: the terms alternate in sign and P_k is far below their sum
    assert sp._jacobi_seed(np.array([2000.0]), np.array([0.0]), -4e-6 + 0j) is None


@pytest.mark.parametrize("t", [1.0 / 40_000, 3e-9, 0.7, 2.5e-5 * (1 + 0.5j), 1e-6j, 0.3 + 0.2j])
def test_log_cosh_half_against_mpmath(t):
    import mpmath as mp

    with mp.workdps(40):
        want = complex(mp.log(mp.cosh(mp.mpmathify(t) / 2)))
    assert abs(sp._log_cosh_half(t) - want) < 4e-16 * abs(want)
