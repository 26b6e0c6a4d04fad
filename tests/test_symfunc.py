"""Tests for partitions, Schur/power-sum evaluation, characters, interchange."""

import math
from fractions import Fraction

import numpy as np
import pytest

from spinloops import pd
from spinloops import spectra as sp
from spinloops import symfunc as sf

import oracles


def test_partition_enumeration():
    assert list(oracles.partitions(1)) == [(1,)]
    assert len(list(oracles.partitions(4))) == 5
    assert list(oracles.partitions(6, 2)) == [(6,), (5, 1), (4, 2), (3, 3)]
    assert list(oracles.partitions(0)) == [()]
    for lam in oracles.partitions(8, 3):
        assert sum(lam) == 8 and len(lam) <= 3
        assert all(a >= b for a, b in zip(lam, lam[1:]))
    # partitions of n into at most 3 parts number round((n + 3)^2 / 12)
    for n in range(201):
        assert sum(1 for _ in oracles.partitions(n, 3)) == round((n + 3) ** 2 / 12)


def test_schur_basic_values():
    xs = [0.3, 0.7, 1.1]
    assert oracles.schur_eval((1,), xs) == pytest.approx(sum(xs), rel=1e-12)
    assert oracles.schur_eval((2,), [2.0, 3.0]) == pytest.approx(4 + 6 + 9, rel=1e-12)
    assert oracles.schur_eval((1, 1), [2.0, 3.0]) == pytest.approx(6.0, rel=1e-12)


def test_schur_at_ones_formula():
    # all-equal arguments are the fully confluent case of the bialternant
    for lam, r in [((2, 1), 3), ((3, 1, 1), 3), ((4, 2), 4), ((5,), 2)]:
        direct = oracles.schur_eval(lam, [1.0] * r)
        assert direct == pytest.approx(float(oracles.schur_at_ones(lam, r)), rel=1e-10)


def test_schur_monomial_expansion_oracle():
    # s_(2)(x1, x2) = x1^2 + x1 x2 + x2^2 checked at random points
    rng = np.random.default_rng(0)
    for _ in range(10):
        x1, x2 = rng.random(2) + 0.5
        target = x1 * x1 + x1 * x2 + x2 * x2
        assert oracles.schur_eval((2,), [x1, x2]) == pytest.approx(target, rel=1e-11)


def test_schur_confluent_continuity():
    lam = (3, 1)
    base = oracles.schur_eval(lam, [1.4, 0.9, 0.9])
    nudged = oracles.schur_eval(lam, [1.4, 0.9 + 1e-7, 0.9 - 1e-7])
    assert abs(nudged - base) / abs(base) < 1e-6
    # just outside the merge window the generic route must agree too
    sep = oracles.schur_eval(lam, [1.4, 0.9 + 2e-5, 0.9 - 2e-5])
    assert abs(sep - base) / abs(base) < 1e-4


def test_schur_scaled_arguments_and_overflow():
    # the table is built for x / max|x|, and its recurrence h_m(.., v) =
    # h_m(..) + v h_{m-1}(.., v) only adds terms of modulus <= 1, so a wide
    # spread of |x| neither overflows nor loses the small arguments
    want = sum(0.3**k * 0.5 ** (800 - k) for k in range(801))
    assert oracles.schur_eval((800,), [0.3, 0.5]) == pytest.approx(want, rel=1e-12)
    assert oracles.schur_eval((2,), [0.0, 3.0]) == pytest.approx(9.0, rel=1e-12)
    assert oracles.schur_eval((1, 1), [0.0, 3.0]) == 0.0
    want = sum(1e-3**k for k in range(201))
    assert oracles.schur_eval((200,), [1e-3, 1.0]) == pytest.approx(want, rel=1e-14)


def test_schur_vanishes_beyond_length():
    with pytest.warns(UserWarning):
        assert oracles.schur_eval((1, 1, 1), [1.0, 2.0]) == 0.0


def test_schur_exact_matches_float():
    lam = (3, 2)
    xs = [2, 3, 5]
    exact = oracles.schur_eval_exact(lam, xs)
    assert float(exact) == pytest.approx(oracles.schur_eval(lam, [float(x) for x in xs]), rel=1e-12)


def test_divided_powers_are_divided_differences_of_powers():
    nodes, top = [0.5, -1.25, 2.0, 0.75], 12

    def newton(l, k):  # k-th divided difference of x^l over nodes[0..k], distinct nodes
        v = [Fraction(x) for x in nodes[: k + 1]]
        col = [x**l for x in v]
        for j in range(1, k + 1):
            col = [(col[i + 1] - col[i]) / (v[i + j] - v[i]) for i in range(len(col) - 1)]
        return col[0]

    table = sf._divided_powers(nodes, top)
    assert table.shape == (top + 1, len(nodes))
    for l in range(top + 1):
        for k in range(len(nodes)):
            if l < k:
                assert table[l, k] == 0.0
            else:
                assert table[l, k] == pytest.approx(float(newton(l, k)), rel=1e-14, abs=0.0)
    # k + 1 equal nodes v: the k-th derivative of x^l over k!
    for v in (0.5, -1.25, 2.0):
        equal = sf._divided_powers([v] * 4, top)
        for l in range(top + 1):
            for k in range(min(l + 1, 4)):
                assert equal[l, k] == pytest.approx(math.comb(l, k) * v ** (l - k), rel=1e-14, abs=0.0)


def test_power_sums():
    assert oracles.power_sum_eval((1,), [0.5, 1.5]) == pytest.approx(2.0)
    assert oracles.power_sum_eval((2, 1), [1.0, 2.0]) == pytest.approx((1 + 4) * (1 + 2))
    assert oracles.power_sum_eval((3, 2, 2), [1.0] * 5) == pytest.approx(5.0**3)


def test_character_trivial_and_sign():
    for n in (3, 5, 6):
        for mu in oracles.partitions(n):
            assert oracles.character((n,), mu).value == 1
            sign = (-1) ** (n - len(mu))
            assert oracles.character((1,) * n, mu).value == sign


def test_character_dimension_from_hooks():
    for n in (4, 5, 6):
        for lam in oracles.partitions(n):
            assert oracles.character(lam, (1,) * n).value == oracles.dimension(lam)


def test_character_size_mismatch():
    with pytest.raises(ValueError):
        oracles.character((2, 1), (2, 2))


def test_power_schur_identity_exact():
    # p_mu(x) = sum over lam of chi_lam(mu) s_lam(x), exact rationals
    xs = [Fraction(1), Fraction(2), Fraction(3)]
    r = 3
    for mu in oracles.partitions(5):
        lhs = Fraction(1)
        for part in mu:
            lhs *= sum(x**part for x in xs)
        rhs = Fraction(0)
        for lam in oracles.partitions(5, r):
            rhs += oracles.character(lam, mu).value * oracles.schur_eval_exact(lam, xs)
        assert lhs == rhs


@pytest.mark.parametrize("r", [2, 3, 4])
@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_power_schur_identity_random_rationals(n, r):
    rng = np.random.default_rng(n * 10 + r)
    xs = [Fraction(int(rng.integers(1, 12)), int(rng.integers(1, 7))) for _ in range(r)]
    while len(set(xs)) != r:  # schur_eval_exact needs distinct points
        xs = [Fraction(int(rng.integers(1, 12)), int(rng.integers(1, 7))) for _ in range(r)]
    for mu in oracles.partitions(n):
        lhs = Fraction(1)
        for part in mu:
            lhs *= sum(x**part for x in xs)
        rhs = sum(
            (oracles.character(lam, mu).value * oracles.schur_eval_exact(lam, xs)
             for lam in oracles.partitions(n, r)),
            Fraction(0),
        )
        assert lhs == rhs


def test_dimension_values():
    assert oracles.dimension((2, 1)) == 2
    assert oracles.dimension((3, 2)) == 5
    for n in range(1, 8):
        assert sum(oracles.dimension(l) ** 2 for l in oracles.partitions(n)) == math.factorial(n)


def test_transposition_ratio():
    assert oracles.transposition_ratio((6,)) == 1
    assert oracles.transposition_ratio((1,) * 6) == -1
    for n in range(2, 9):
        mu = (2,) + (1,) * (n - 2)
        for lam in oracles.partitions(n):
            expected = Fraction(oracles.character(lam, mu).value, oracles.dimension(lam))
            assert oracles.transposition_ratio(lam) == expected


def test_interchange_unit_field():
    assert sf.interchange_expectation_exact(5, 3, 2.0, [0.0, 0.0, 0.0]) == pytest.approx(
        1.0, rel=1e-12
    )


@pytest.mark.parametrize("theta", [2, 3, 4])
def test_interchange_vanishing_field_is_exactly_one(theta):
    # |value - 1| <= e^{max|h_i|} - 1 rounds to 1 once max|h_i| < 2^-54, which the
    # numerator and denominator, forming s_lambda(1) by two routes, alone miss
    edge = math.nextafter(2.0**-54, 0.0)
    for h in (0.0, 1e-200, -1e-200, 1e-200j, edge, -edge, edge * 1j):
        for n in (5, 12, 30):
            for beta in (0.5, 4.0):
                assert sf.interchange_expectation_exact(n, theta, beta, [h] + [0.0] * (theta - 1)) == 1.0


@pytest.mark.parametrize("hv", [[8000.0, 0.0, 0.0], [8000.0 + 1.0j, 0.0, 0.0]])
def test_interchange_overflow_raises_arithmetic_error(hv):
    # e^{h/n} overflows, and the determinants of its Schur table are not finite;
    # the engine raises with no RuntimeWarning first
    with pytest.raises(ArithmeticError):
        sf.interchange_expectation_exact(10, 3, 3.0, hv)


@pytest.mark.parametrize(
    "n,theta,hv,message",
    [
        (0, 3, [1.0, 0.0, 0.0], "n must be >= 1"),
        (4, 0, [], "theta must be >= 1"),
        (4, 3, [1.0, 0.0], "hvec must have length theta = 3"),
        (4, 2, [1.0, 0.0, 0.0], "hvec must have length theta = 2"),
    ],
)
def test_interchange_rejects_bad_arguments(n, theta, hv, message):
    with pytest.raises(ValueError, match=message):
        sf.interchange_expectation_exact(n, theta, 1.0, hv)


def test_interchange_free_limit():
    # beta -> 0: all cycles are fixed points, so the value is q_h(1/n)^n
    n = 6
    hv = [1.0, 0.0, 0.0]
    v = sf.interchange_expectation_exact(n, 3, 1e-12, hv)
    q = float(np.real(pd.q_eval(hv, 1.0 / n)))
    assert v == pytest.approx(q**n, rel=1e-9)


@pytest.mark.parametrize("beta", [1.0, 2.0, 4.0])
def test_interchange_heisenberg_equivalence(beta):
    # theta = 2 interchange is the spin-1/2 isotropic model
    a = sf.interchange_expectation_exact(4, 2, beta, [0.5, -0.5])
    b = sp.heisenberg_expectation_exact(4, 1, beta, 1.0, 1.0)
    assert a == pytest.approx(b, rel=1e-9)


def test_interchange_trend_to_limit():
    from spinloops import asymptotics as asy

    r = asy.interchange_maximizer(4.0, 3)
    y = (1.0 - r.z_star) / 3.0
    limit = math.exp(y) * pd.pd_q_expectation_exact(3, [1.0, 0.0, 0.0], r.z_star)
    gaps = []
    for n in (10, 20, 30):
        v = sf.interchange_expectation_exact(n, 3, 4.0, [1.0, 0.0, 0.0])
        gaps.append(abs(v - limit))
    assert gaps[0] > gaps[1] > gaps[2]


def test_schur_ratio_limit_check():
    hv = [0.7, 0.1, -0.5]
    # shapes converging to (1, 0, 0)
    report = oracles.schur_ratio_limit_check([(10,), (20,), (40,)], hv, x=[1.0, 0.0, 0.0])
    dists = [row[2] for row in report.rows]
    assert dists[0] > dists[-1]
    assert dists[-1] < 0.05
    # h = 0: the ratio is identically 1
    report0 = oracles.schur_ratio_limit_check([(6, 3, 3), (12, 6, 6)], [0.0, 0.0, 0.0])
    for _, ratio, dist in report0.rows:
        assert ratio == pytest.approx(1.0, rel=1e-12)
        assert dist < 1e-12
    # uniform target through the confluent route
    rep_u = oracles.schur_ratio_limit_check(
        [(8, 8, 8), (16, 16, 16)], hv, x=[1 / 3, 1 / 3, 1 / 3]
    )
    assert rep_u.rows[-1][2] < rep_u.rows[0][2] + 1e-12


def test_schur_ratio_limit_check_validation():
    with pytest.raises(ValueError):
        oracles.schur_ratio_limit_check([(4,)], [1.0, 0.0], x=[0.2, 0.8])
    with pytest.raises(ValueError):
        oracles.schur_ratio_limit_check([(4,)], [1.0, 0.0], x=[0.7, 0.7])


def test_shape_blocks_split_without_changing_order(monkeypatch):
    whole = np.vstack(list(sf._shape_blocks(30, 4)))
    monkeypatch.setattr(sf, "_BLOCK", 7)
    small = list(sf._shape_blocks(30, 4))
    assert len(small) > 10
    assert np.array_equal(np.vstack(small), whole)
    assert [tuple(filter(None, row)) for row in whole.tolist()] == list(oracles.partitions(30, 4))
    for n in range(41):
        for r in range(6):
            rows = [tuple(filter(None, row)) for block in sf._shape_blocks(n, r) for row in block.tolist()]
            assert rows == list(oracles.partitions(n, r)), (n, r)
    # more rows than parts: zero-padded columns
    assert np.vstack(list(sf._shape_blocks(3, 5))).tolist() == [
        [3, 0, 0, 0, 0], [2, 1, 0, 0, 0], [1, 1, 1, 0, 0],
    ]


def _interchange_oracle(n, theta, beta, hv):
    """The character sum one shape at a time, from the exact per-shape functions."""
    xs = [np.exp(complex(h) / n) for h in hv]
    log_w, s_h, s_1 = [], [], []
    for lam in oracles.partitions(n, theta):
        r = oracles.transposition_ratio(lam) if n >= 2 else Fraction(1)
        log_w.append(math.log(oracles.dimension(lam)) + beta / n * math.comb(n, 2) * (float(r) - 1))
        s_h.append(oracles.schur_eval(lam, xs))
        s_1.append(float(oracles.schur_at_ones(lam, theta)))
    w = np.exp(np.array(log_w) - max(log_w))
    return np.dot(w, s_h) / np.dot(w, s_1)


_FIELDS = {
    "repeated": {2: (0.8, 0.8), 3: (1.0, 0.0, 0.0), 4: (1.0, 0.0, 0.0, 0.0)},
    "spaced": {2: (1.0, 0.0), 3: (1.0, 0.0, -1.0), 4: (1.0, 0.0, -1.0, -2.0)},
    "distinct": {2: (0.7, 0.1), 3: (0.7, 0.1, -0.5), 4: (0.7, 0.1, -0.5, -1.2)},
    "complex": {
        2: (0.5 + 0.3j, -0.2j),
        3: (0.5 + 0.3j, -0.2j, 0.1),
        4: (0.5 + 0.3j, -0.2j, 0.1, -0.8 + 0.1j),
    },
}


@pytest.mark.parametrize("beta", [0.5, 4.0, 12.0])
@pytest.mark.parametrize("kind", sorted(_FIELDS))
@pytest.mark.parametrize("theta", [2, 3, 4])
def test_interchange_matches_per_shape_oracle(theta, kind, beta, monkeypatch):
    hv = list(_FIELDS[kind][theta])
    # the oracle's float bialternant is 1.8e-12 off a 50-digit sum for the
    # complex theta = 4 fields at n = 24 (checked to 1e-14 below)
    tol = 1e-11 if (theta, kind) == (4, "complex") else 1e-12
    for n in (1, 2, 5, 12, 24):
        want = _interchange_oracle(n, theta, beta, hv)
        got = sf.interchange_expectation_exact(n, theta, beta, hv)
        assert isinstance(got, complex) == (kind == "complex")
        assert abs(got - want) <= tol * abs(want), (n, got, want)
    # small blocks: the running log-sum-exp rescales as later blocks peak higher
    monkeypatch.setattr(sf, "_BLOCK", 5)
    got = sf.interchange_expectation_exact(24, theta, beta, hv)
    assert abs(got - want) <= tol * abs(want)


def _schur_mp(mpmath, lam, hv):
    """(s_lam(e^{h/n}), s_lam(1, .., 1)) from a bialternant at the working precision."""
    n, theta = sum(lam), len(hv)
    xs = [mpmath.exp(mpmath.mpmathify(h) / n) for h in hv]
    ls = [(lam[j] if j < len(lam) else 0) + theta - 1 - j for j in range(theta)]
    pairs = [(i, j) for i in range(theta) for j in range(i + 1, theta)]
    det = mpmath.det(mpmath.matrix([[x**l for l in ls] for x in xs]))
    s_h = det / mpmath.fprod(xs[i] - xs[j] for i, j in pairs)
    return s_h, mpmath.fprod(mpmath.mpf(ls[i] - ls[j]) / (j - i) for i, j in pairs)


@pytest.mark.parametrize(
    "lam, hv",
    [
        ((7000, 2000, 1000), (1.0, 0.009, 0.0)),
        ((7000, 2000, 1000), (1.0, 0.011, 0.0)),
        ((1400, 400, 200), (1.0, 0.0015, 0.0)),
    ],
)
def test_schur_ratio_close_fields_match_high_precision(lam, hv):
    # fields 1e-3 apart are 1e-7 apart in e^{h/n}; they must not be merged
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(50):
        s_h, s_1 = _schur_mp(mpmath, lam, hv)
        want = float(s_h / s_1)
    (_, ratio, _), = oracles.schur_ratio_limit_check([lam], hv).rows
    assert abs(ratio - want) <= 1e-12 * abs(want)


def test_schur_eval_close_arguments_match_high_precision():
    # arguments 9e-7 apart in e^{h/n} were once merged, 4.9e-7 off
    mpmath = pytest.importorskip("mpmath")
    lam, xs = (7000, 2000, 1000), [math.exp(h / 10_000) for h in (1.0, 0.009, 0.0)]
    ls = [lam[j] + 2 - j for j in range(3)]
    with mpmath.workdps(50):
        xm = [mpmath.mpf(x) for x in xs]  # the float arguments, exactly
        det = mpmath.det(mpmath.matrix([[x**l for l in ls] for x in xm]))
        want = float(det / ((xm[0] - xm[1]) * (xm[0] - xm[2]) * (xm[1] - xm[2])))
    assert abs(oracles.schur_eval(lam, xs) - want) <= 1e-12 * abs(want)


@pytest.mark.parametrize("beta", [0.5, 12.0])
def test_interchange_complex_fields_match_high_precision(beta):
    # the per-shape oracle above is only good to ~2e-12 here
    mpmath = pytest.importorskip("mpmath")
    n, hv = 24, _FIELDS["complex"][4]
    with mpmath.workdps(50):
        numer = denom = 0
        for lam in oracles.partitions(n, len(hv)):
            content = int(oracles.transposition_ratio(lam) * math.comb(n, 2))
            w = oracles.dimension(lam) * mpmath.exp(mpmath.mpf(beta) / n * (content - math.comb(n, 2)))
            s_h, s_1 = _schur_mp(mpmath, lam, hv)
            numer += w * s_h
            denom += w * s_1
        want = complex(numer / denom)
    got = sf.interchange_expectation_exact(n, len(hv), beta, hv)
    assert abs(got - want) <= 1e-14 * abs(want)


def _interchange_gaps(theta, ns, beta=4.0):
    from spinloops import asymptotics as asy

    hv = [1.0] + [0.0] * (theta - 1)
    z = asy.interchange_maximizer(beta, theta).z_star
    y = (1.0 - z) / theta
    limit = math.exp(y) * pd.pd_q_expectation_exact(theta, hv, z)  # R(h; x*), sum h = 1
    return [sf.interchange_expectation_exact(n, theta, beta, hv) - limit for n in ns]


@pytest.mark.parametrize("theta, ns", [(3, (320, 640, 1280, 2560)), (4, (60, 120, 240))])
def test_interchange_gap_halves_with_n(theta, ns):
    gaps = _interchange_gaps(theta, ns)
    for a, b in zip(gaps, gaps[1:]):
        assert 1.8 <= a / b <= 2.2, gaps


@pytest.mark.slow
def test_interchange_gap_halves_to_n_10000():
    a, b = _interchange_gaps(3, (5000, 10000))
    assert 1.8 <= a / b <= 2.2, (a, b)


def test_log_factorials_against_mpmath():
    # interchange_expectation_exact tabulates log k! with math.lgamma up to n + theta
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        for k in range(10**4 + 1):
            ref = mpmath.loggamma(k + 1)
            assert abs(math.lgamma(k + 1.0) - float(ref)) <= 1e-15 * max(1.0, float(ref))
