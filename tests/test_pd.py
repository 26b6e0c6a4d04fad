"""Tests for Poisson-Dirichlet sampling, series, the q-product closed form and the R function."""

import cmath
import itertools
import math

import numpy as np
import pytest
from scipy.special import i0

from spinloops import pd

import oracles


def test_stick_breaking_invariants():
    rng = np.random.default_rng(0)
    for theta in (1.0, 2.0, 3.0, 5.0):
        n = 2500
        residual = np.ones(n)
        total = np.zeros(n)
        for col in pd.stick_breaking_columns(theta, n, rng):
            alive = residual >= 1e-12
            # live rows break a positive stick; rows already below the
            # truncation get exact zeros
            assert np.all(col[alive] > 0)
            assert np.all(col[~alive] == 0.0)
            residual -= col
            total += col
        np.testing.assert_allclose(total + residual, 1.0, rtol=0, atol=1e-12)
        assert np.all(residual < 1e-12)


def test_first_stick_mean():
    # Y_1 = B_1 ~ Beta(1, theta) has mean 1/(1 + theta)
    rng = np.random.default_rng(1)
    n = 100_000
    for theta in (1.0, 3.0):
        ys = next(pd.stick_breaking_columns(theta, n, rng))
        target = 1.0 / (1.0 + theta)
        se = ys.std(ddof=1) / math.sqrt(n)
        assert abs(ys.mean() - target) < 3 * se


@pytest.mark.parametrize("theta", [0.5, 1.0, 3.0, 5.0])
def test_stick_square_sum_mean(theta):
    # E[sum X_i^2] = 1/(theta + 1) under PD(theta)
    rng = np.random.default_rng(8)
    n = 20_000
    sq = np.zeros(n)
    for col in pd.stick_breaking_columns(theta, n, rng):
        sq += col * col
    se = sq.std(ddof=1) / math.sqrt(n)
    assert abs(sq.mean() - 1.0 / (theta + 1.0)) < 3 * se


def test_cosh_series_special_cases():
    for h in (0.5, 1.0, 2.0, 5.0, 8.0, 10.0):
        assert pd.pd_cosh_series(2, h) == pytest.approx(math.sinh(h) / h, rel=1e-12)
        assert pd.pd_cosh_series(1, h) == pytest.approx(float(i0(h)), rel=1e-12)
    assert pd.pd_cosh_series(3, 0.0) == 1.0
    assert pd.pd_cosh_series(7, 0.0) == 1.0


def test_cosh_series_complex_fields_and_refusals():
    # accurate where the terms do not cancel far beyond the sum
    for h in (5j, 10 + 10j):
        assert pd.pd_cosh_series(2, h) == pytest.approx(cmath.sinh(h) / h, rel=1e-13)
    # sin(40)/40 = +0.0186 is the sum of terms up to 1e16: the series gave -0.0128
    with pytest.raises(ArithmeticError, match="cancels"):
        pd.pd_cosh_series(2, 40j)
    # I_0(700) = 1.5e302, but term * h^2 overflows before the division
    with pytest.raises(ArithmeticError):
        pd.pd_cosh_series(1, 700.0)


def test_cosh_series_quadratic_coefficient():
    # E[sum X_i^2] = 1/(theta + 1) fixes the h^2 coefficient
    for theta in (1.5, 3.0, 4.0):
        h = 1e-5
        coeff = (pd.pd_cosh_series(theta, h) - 1.0) / (h * h)
        assert coeff == pytest.approx(0.5 / (theta + 1.0), rel=1e-5)


def test_cosh_series_against_sampler():
    rng = np.random.default_rng(2)
    h, theta = 1.0, 1.0
    n = 100_000
    vals = np.ones(n)
    for col in pd.stick_breaking_columns(theta, n, rng):
        vals *= np.cosh(h * col)
    se = vals.std(ddof=1) / math.sqrt(n)
    assert abs(vals.mean() - pd.pd_cosh_series(theta, h)) < 3 * se


def test_q_eval_and_q_spin():
    assert oracles.q_spin(1, 0.0) == 1.0
    assert oracles.q_spin(3, 0.0) == 1.0
    assert pd.q_eval([0.0, 0.0, 0.0], 0.7) == 1.0
    for t in (0.2, 1.0, 3.0):
        assert oracles.q_spin(1, t) == pytest.approx(math.cosh(t / 2), rel=1e-13)
        # q_spin equals q_eval at equally spaced fields
        for two_s in (1, 2, 3):
            hv = [-0.5 * two_s + k for k in range(two_s + 1)]
            assert oracles.q_spin(two_s, t) == pytest.approx(
                float(np.real(pd.q_eval(hv, t))), rel=1e-13
            )
        # sinh-ratio form
        theta = 4
        assert oracles.q_spin(3, t) == pytest.approx(
            math.sinh(theta * t / 2) / (theta * math.sinh(t / 2)), rel=1e-12
        )


def _r_two_level(hv, z):
    """R(h; x*) at x* = (z + y, y, .., y), y = (1 - z)/theta, by the route of `exact`."""
    return math.exp((1.0 - z) * sum(hv) / len(hv)) * pd.pd_q_expectation_exact(len(hv), hv, z)


def test_r_function_all_equal_fields():
    # q-product degenerates to an exponential when all h_i coincide
    val = oracles.r_function([2.0, 2.0, 2.0], [0.5, 0.3, 0.2])
    assert val == pytest.approx(math.exp(2.0), rel=1e-10)
    assert _r_two_level([2.0, 2.0, 2.0], 0.4) == pytest.approx(math.exp(2.0), rel=1e-10)
    # theta = 2: x = (0.9, 0.1) is two-level with z = 0.8
    val = _r_two_level([0.0, 0.0], 0.8)
    assert val == pytest.approx(1.0, rel=1e-12)


@pytest.mark.parametrize("two_s", [1, 2, 3])
def test_r_function_spin_pattern(two_s):
    theta = two_s + 1
    h, z = 1.3, 0.45
    y = (1.0 - z) / theta
    xs = [z + y] + [y] * (theta - 1)
    hv = [h * (-0.5 * two_s + k) for k in range(theta)]
    val = _r_two_level(hv, z)
    assert val == pytest.approx(oracles.r_function(hv, xs), rel=1e-13)
    target = oracles.r_spin_product(h, z, two_s)
    assert val == pytest.approx(target, rel=1e-10)


@pytest.mark.parametrize("theta", [2, 3, 4])
def test_r_function_projector_pattern(theta):
    h, z = 0.9, 0.6
    y = (1.0 - z) / theta
    xs = [z + y] + [y] * (theta - 1)
    hv = [h] + [0.0] * (theta - 1)
    val = _r_two_level(hv, z)
    assert val == pytest.approx(oracles.r_function(hv, xs), rel=1e-13)
    target = oracles.r_projector(h, z, y, theta)
    assert val == pytest.approx(target, rel=1e-10)
    # closed series form for theta = 2: e^{hy}(e^{hz} - 1)/(hz)
    if theta == 2:
        direct = math.exp(h * y) * (math.exp(h * z) - 1.0) / (h * z)
        assert val == pytest.approx(direct, rel=1e-12)


def test_r_function_scaling_and_shift_identities():
    hv = [1.1, 0.4, -0.3]
    xs = [0.6, 0.25, 0.15]
    alpha = 0.7
    lhs = oracles.r_function(hv, [alpha * x for x in xs])
    rhs = oracles.r_function([alpha * h for h in hv], xs)
    assert lhs == pytest.approx(rhs, rel=1e-10)
    # R(h; x, y, .., y) = e^{y sum h} R(h; x - y, 0, .., 0)
    y = 0.2
    lhs = _r_two_level(hv, 0.4)
    rhs = math.exp(y * sum(hv)) * oracles.r_function(hv, [0.4, 0.0, 0.0])
    assert lhs == pytest.approx(rhs, rel=1e-10)


def test_r_function_continuity_at_confluence():
    # nudging coincident arguments by 1e-7 must not move the value
    hv = [1.0, 0.5, -0.2]
    base = _r_two_level(hv, 0.4)
    nudged = oracles.r_function(hv, [0.6, 0.2 + 1e-7, 0.2 - 1e-7])
    assert abs(nudged - base) / abs(base) < 1e-5
    hv2 = [1.0, 1.0 + 1e-7, -0.2]
    base2 = oracles.r_function([1.0, 1.0, -0.2], [0.6, 0.3, 0.1])
    nudged2 = oracles.r_function(hv2, [0.6, 0.3, 0.1])
    assert abs(nudged2 - base2) / abs(base2) < 1e-5


def _r_mpmath(mpmath, hvec, xvec):
    """R from a 200-digit Leibniz determinant, arguments i nudged by i * 1e-40.

    The nudge separates equal arguments; it moves R by about 1e-40.
    """
    with mpmath.workdps(200):
        nudge = mpmath.mpf("1e-40")
        hs = [mpmath.mpmathify(h) + i * nudge for i, h in enumerate(hvec)]
        xs = [mpmath.mpmathify(x) + i * nudge for i, x in enumerate(xvec)]
        theta = len(hs)
        det = 0
        for perm in itertools.permutations(range(theta)):
            inversions = sum(perm[i] > perm[j] for i in range(theta) for j in range(i + 1, theta))
            det += (-1) ** inversions * mpmath.exp(mpmath.fsum(h * xs[p] for h, p in zip(hs, perm)))
        for i in range(theta):
            for j in range(i + 1, theta):
                det *= (j - i) / ((hs[i] - hs[j]) * (xs[i] - xs[j]))
        return complex(det)


def _rho(hvec, xvec):
    hv, xv = np.asarray(hvec), np.asarray(xvec)
    return np.abs(hv - hv.mean()).max() * np.abs(xv - xv.mean()).max()


def test_r_function_matches_mpmath_determinant():
    # one divided-difference path for distinct, close and equal arguments:
    # within 1e-13 for rho <= 4 and 1e-10 up to the cap, real and complex
    mpmath = pytest.importorskip("mpmath")
    cases = [
        # well separated
        ([1.2, 0.3, -0.8], [0.5, 0.3, 0.2]),
        # equal arguments in h and in x at once
        ([1.0, 0.3, 0.3], [0.6, 0.2, 0.2]),
        # two fields 2.4e-5 apart, where a direct determinant cancels
        ([-0.047815559256558095, 0.05531081725498171, 0.03265037857358175,
          0.03267396792987174, -0.007067182585666751],
         [0.35105954763639835, 0.27925265402675226, 0.14462507279163658,
          0.13503788222604046, 0.09002484331917239]),
    ]
    rng = np.random.default_rng(20)
    for _ in range(200):
        theta = int(rng.integers(2, 6))
        xv = rng.dirichlet(np.ones(theta))
        hv = rng.uniform(-1.0, 1.0, theta)
        if rng.random() < 0.3:
            hv = hv + 1j * rng.uniform(-1.0, 1.0, theta)
        if theta > 2 and rng.random() < 0.3:
            hv[1], xv[2] = hv[0], xv[1]
        hv = (hv - hv.mean()) * rng.uniform(0.0, oracles._RHO_CAP) / _rho(hv, xv) + rng.uniform(-2.0, 2.0)
        cases.append((hv.tolist(), xv.tolist()))
    for hv, xv in cases:
        ref = _r_mpmath(mpmath, hv, xv)
        err = abs(oracles.r_function(hv, xv) - ref) / abs(ref)
        assert err < (1e-13 if _rho(hv, xv) <= 4.0 else 1e-10), (hv, xv, err)
    # the PD closed form at theta = 5: two-level x, five distinct close fields
    v = pd.pd_q_expectation_exact(5, [0.05, 0.02, 0.0, -0.03, -0.04], 0.4)
    assert abs(v - 1.0000144043595183) < 1e-13
    # rho = c/4 for h = (c, -c), x = (3/4, 1/4)
    oracles.r_function([39.9999, -39.9999], [0.75, 0.25])
    with pytest.raises(ValueError):
        oracles.r_function([40.0001, -40.0001], [0.75, 0.25])


def test_r_function_doubly_confluent_general_path():
    # simultaneous repeats in h and x; the divided differences treat equal
    # and nearby arguments alike, so a probe at separation 1e-4 agrees to
    # first order in the separation
    hv = [1.0, 0.3, 0.3]
    val = _r_two_level(hv, 0.4)  # x* = (0.6, 0.2, 0.2)
    e = 1e-4
    probe = oracles.r_function([1.0, 0.3 + e, 0.3 - e], [0.6, 0.2 + e, 0.2 - e])
    assert abs(probe - val) < 1e-6 * abs(val)


def test_r_function_complex_fields():
    # all fields equal to a complex constant: still e^{c sum x}
    c = 0.4 + 0.9j
    val = oracles.r_function([c, c, c], [0.5, 0.3, 0.2])
    assert val == pytest.approx(np.exp(c), rel=1e-10)
    assert pd.pd_q_expectation_exact(3, [c, c, c], 0.4) == pytest.approx(np.exp(0.4 * c), rel=1e-13)
    # scaling identity with complex fields
    hv = [0.3 + 0.2j, -0.1, 0.7 - 0.5j]
    xs = [0.6, 0.3, 0.1]
    lhs = oracles.r_function(hv, [0.5 * x for x in xs])
    rhs = oracles.r_function([0.5 * h for h in hv], xs)
    assert abs(lhs - rhs) < 1e-10 * abs(rhs)


def test_pd_q_expectation_exact_unit_cases():
    # z* = 0 collapses the product to 1
    assert pd.pd_q_expectation_exact(3, [1.0, 0.0, 0.0], 0.0) == pytest.approx(1.0, rel=1e-12)
    # theta = 2, h = (1/2, -1/2), z* = 1: sinh(1/2)/(1/2)
    v = pd.pd_q_expectation_exact(2, [0.5, -0.5], 1.0)
    assert v == pytest.approx(math.sinh(0.5) / 0.5, rel=1e-12)


def _exp_dd_mpmath(mpmath, nodes):
    """exp[x_1..x_k]: the corner entry of a 60-digit mpmath.expm of the bidiagonal matrix."""
    with mpmath.workdps(60):
        k = len(nodes)
        z = mpmath.matrix(k, k)
        for i, x in enumerate(nodes):
            z[i, i] = mpmath.mpmathify(x)
            if i + 1 < k:
                z[i, i + 1] = 1
        return complex(mpmath.expm(z)[0, k - 1])


def test_exp_divided_difference_matches_mpmath_expm():
    # real nodes up to |x| = 300, imaginary ones up to 60i, equal nodes and
    # nodes 1e-9 apart, theta = 2..8: within 1e-13 relative
    mpmath = pytest.importorskip("mpmath")
    rng = np.random.default_rng(21)
    cases = []
    for theta in range(2, 9):
        zeros = [0.0] * (theta - 1)
        cases += [
            rng.uniform(-50.0, 50.0, theta),
            rng.uniform(-300.0, 300.0, theta),
            [300.0] + zeros,
            [-300.0] + zeros,
            [300.0] * (theta - 1) + [-300.0],
            [40j] + zeros,
            [60j] + zeros,
            1j * rng.uniform(-60.0, 60.0, theta),
            rng.uniform(-50.0, 50.0, theta) + 1j * rng.uniform(-60.0, 60.0, theta),
            [2.5] * theta,
            [-300.0] * theta,
            rng.uniform(-5.0, 5.0) + 1e-9 * np.arange(theta),
            [12.0 * (theta - 1) / theta] + [-12.0 / theta] * (theta - 1),
        ]
    for nodes in cases:
        x = np.asarray(nodes, dtype=complex if np.iscomplexobj(nodes) else float)
        ref = _exp_dd_mpmath(mpmath, x.tolist())
        err = abs(pd._exp_divided_difference(x) - ref) / abs(ref)
        assert err < 1e-13, (nodes, err)


def test_pd_q_expectation_exact_is_r_at_the_two_level_maximiser():
    # e^{(1-z) sum h/theta} E_PD[prod q_h(z X_i)] = R(h; x*): against 60-digit
    # mpmath to 1e-13 up to rho = 10, and against the oracle R to its own
    # accuracy (1e-13 for rho <= 4, 1e-10 up to rho = 10)
    mpmath = pytest.importorskip("mpmath")
    rng = np.random.default_rng(22)
    for _ in range(120):
        theta, z = int(rng.integers(2, 9)), float(rng.uniform(0.0, 1.0))
        y = (1.0 - z) / theta
        xs = [z + y] + [y] * (theta - 1)
        hv = rng.uniform(-1.0, 1.0, theta)
        if rng.random() < 0.3:
            hv = hv + 1j * rng.uniform(-1.0, 1.0, theta)
        hv = ((hv - hv.mean()) * rng.uniform(0.0, 10.0) / _rho(hv, xs) + rng.uniform(-2.0, 2.0)).tolist()
        got = complex(np.exp((1.0 - z) * sum(hv) / theta)) * pd.pd_q_expectation_exact(theta, hv, z)
        with mpmath.workdps(60):
            shift = mpmath.exp((1 - mpmath.mpf(z)) / theta * mpmath.fsum(map(mpmath.mpmathify, hv)))
            ref = complex(shift * math.factorial(theta - 1) * _exp_dd_mpmath(mpmath, [z * h for h in hv]))
        assert abs(got - ref) < 1e-13 * abs(ref), (theta, z, hv)
        oracle = oracles.r_function(hv, xs)
        assert abs(got - oracle) < (1e-13 if _rho(hv, xs) <= 4.0 else 1e-10) * abs(oracle), (theta, z, hv)


def test_pd_q_expectation_exact_has_no_field_cap():
    # h = (40, 0, 0) at z = 0.6 has rho = 10.7, past the oracle R's cap; the
    # closed form still matches (e^{40z} - 1 - 40z) / (40z)^2 times 2!
    a = 40.0 * 0.6
    want = 2.0 * (math.expm1(a) - a) / (a * a)
    assert pd.pd_q_expectation_exact(3, [40.0, 0.0, 0.0], 0.6) == pytest.approx(want, rel=1e-14)
    with pytest.raises(ArithmeticError):
        pd.pd_q_expectation_exact(3, [1500.0, -1500.0, 0.0], 1.0)


def test_colour_masses_of_pd_are_uniform_on_the_simplex():
    # the identity behind pd_q_expectation_exact: colouring PD(theta) parts
    # with theta colours at random gives Dirichlet(1, .., 1) colour masses,
    # so the first colour's mass is Beta(1, theta - 1)
    stats = pytest.importorskip("scipy.stats")
    rng = np.random.default_rng(23)
    for theta in (2, 3, 5):
        mass = np.zeros(20_000)
        for col in pd.stick_breaking_columns(theta, len(mass), rng):
            mass += np.where(rng.integers(theta, size=len(mass)) == 0, col, 0.0)
        ks = stats.kstest(mass, stats.beta(1.0, theta - 1.0).cdf)
        assert ks.pvalue > 1e-3, (theta, ks.statistic, ks.pvalue)


def test_signed_pd_sum_is_a_shifted_beta():
    # fair signs on PD(theta) parts: two colours, so (1 + sum_i s_i X_i)/2 is
    # Beta(theta/2, theta/2)
    stats = pytest.importorskip("scipy.stats")
    rng = np.random.default_rng(24)
    for theta in (0.5, 1.0, 2.0, 3.0, 7.0):
        signed = np.zeros(20_000)
        for col in pd.stick_breaking_columns(theta, len(signed), rng):
            signed += np.where(rng.integers(2, size=len(signed)) == 0, col, -col)
        ks = stats.kstest(signed, stats.beta(0.5 * theta, 0.5 * theta, loc=-1.0, scale=2.0).cdf)
        assert ks.pvalue > 1e-3, (theta, ks.statistic, ks.pvalue)


def test_pd_q_expectation_mc():
    rng = np.random.default_rng(3)
    assert pd.pd_q_expectation_mc(3, [1.0, 0.0, 0.0], 0.0, 10, rng) == (1.0, 0.0)
    mean, se = pd.pd_q_expectation_mc(3, [1.0, 0.0, 0.0], 0.5, 50_000, rng)
    closed = pd.pd_q_expectation_exact(3, [1.0, 0.0, 0.0], 0.5)
    assert abs(mean - closed) < 3 * se
    with pytest.raises(ValueError):
        pd.pd_q_expectation_mc(2.5, [1.0, 0.0], 0.5, 10, rng)
    with pytest.raises(ValueError):
        pd.pd_q_expectation_mc(1, [1.0], 0.5, 10, rng)


def test_pd_q_expectation_mc_pd1_projector():
    # E_PD(theta)[prod q_h(X_i)] = R(h; 1, 0, ..., 0) (z* = 1 endpoint)
    rng = np.random.default_rng(4)
    hv = [0.8, -0.1, -0.4]
    mean, se = pd.pd_q_expectation_mc(3, hv, 1.0, 50_000, rng)
    closed = _r_two_level(hv, 1.0)
    assert abs(mean - closed) < 3 * se


def test_pd_q_expectation_mc_complex_fields():
    # complex fields run the product in complex arithmetic and return the
    # complex mean, with the standard error of the complex mean
    rng = np.random.default_rng(9)
    hv = [0.6 + 0.8j, -0.3, 0.2 - 0.4j]
    mean, se = pd.pd_q_expectation_mc(3, hv, 0.7, 50_000, rng)
    closed = pd.pd_q_expectation_exact(3, hv, 0.7)
    assert isinstance(mean, complex) and abs(closed.imag) > 0.1
    assert abs(mean - closed) < 3 * se


def test_pd_q_expectation_mc_matches_outer_kernel():
    # live rows and theta vector exps against the (samples, theta) matrix
    # kernel: bit for bit where numpy sums a matrix row in order (real fields,
    # and complex ones up to theta = 3); from 4 complex entries on it adds
    # them pairwise, which moves only the last bits
    for theta in range(2, 7):
        fields = [list(np.linspace(1.0, -0.5, theta)), [0.6 + 0.8j, -0.3, 0.2 - 0.4j, 0.1j, 0.5, -1j][:theta]]
        for hv, z_star in itertools.product(fields, (0.1, 0.5, 1.0)):
            got = pd.pd_q_expectation_mc(theta, hv, z_star, 4000, np.random.default_rng(theta))
            want = oracles.pd_q_expectation_mc_outer(theta, hv, z_star, 4000, np.random.default_rng(theta))
            if isinstance(hv[0], complex) and theta > 3:
                assert got == pytest.approx(want, rel=1e-14)
            else:
                assert got == want


def test_ewens_small_cases():
    rng = np.random.default_rng(5)
    assert oracles.ewens_sample(1, 2.0, rng).cycle_type == (1,)
    n_trials = 40_000
    hits = sum(
        1 for _ in range(n_trials) if oracles.ewens_sample(2, 2.0, rng).cycle_type == (1, 1)
    )
    p = hits / n_trials
    target = 2.0 / 3.0
    se = math.sqrt(target * (1 - target) / n_trials)
    assert abs(p - target) < 4 * se


def test_ewens_cycle_type_sums():
    rng = np.random.default_rng(6)
    for theta in (0.7, 2.0):
        for _ in range(50):
            s = oracles.ewens_sample(37, theta, rng)
            assert sum(s.cycle_type) == 37
            assert all(a >= b for a, b in zip(s.cycle_type, s.cycle_type[1:]))


@pytest.mark.parametrize("theta", [0.7, 2.0])
def test_ewens_mean_cycle_count(theta):
    # E[#cycles] = sum_{i=1}^{n} theta / (theta + i - 1)
    rng = np.random.default_rng(10)
    n, n_trials = 2000, 4000
    counts = np.array([len(oracles.ewens_sample(n, theta, rng).cycle_type) for _ in range(n_trials)])
    target = sum(theta / (theta + i - 1) for i in range(1, n + 1))
    se = counts.std(ddof=1) / math.sqrt(n_trials)
    assert abs(counts.mean() - target) < 3 * se


def test_ewens_matches_exact_law_n3():
    # P(cycle type) = theta^{#cycles} * prod (cycles) / rising factorial
    rng = np.random.default_rng(7)
    theta = 1.5
    n_trials = 60_000
    counts = {}
    for _ in range(n_trials):
        ct = oracles.ewens_sample(3, theta, rng).cycle_type
        counts[ct] = counts.get(ct, 0) + 1
    rising = theta * (theta + 1) * (theta + 2)
    exact = {
        (1, 1, 1): theta**3 / rising,
        (2, 1): 3 * theta**2 / rising,
        (3,): 2 * theta / rising,
    }
    for ct, p in exact.items():
        emp = counts.get(ct, 0) / n_trials
        se = math.sqrt(p * (1 - p) / n_trials)
        assert abs(emp - p) < 4 * se, (ct, emp, p)
