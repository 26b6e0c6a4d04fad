"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
report.  Tolerances are pinned here and nowhere else.
"""

import functools
import itertools
import math
import time
from decimal import Decimal, getcontext
from fractions import Fraction

import numpy as np
import pytest
from scipy.special import i0
from scipy.stats import ks_2samp

from spinloops import asymptotics as asy
from spinloops import loops as lp
from spinloops import pd
from spinloops import spectra as sp
from spinloops import symfunc as sf

import oracles

# two_s = 2S
HALF = 1
ONE = 2


def _report(number, description):
    """Context manager printing one PASS/FAIL line per criterion."""

    class _Reporter:
        def __enter__(self):
            self.t0 = time.time()
            return self

        @property
        def elapsed(self):
            return time.time() - self.t0

        def __exit__(self, exc_type, exc, tb):
            status = "PASS" if exc_type is None else "FAIL"
            print(f"[criterion {number:02d}] {status} ({time.time() - self.t0:5.1f}s) {description}")
            return False

    return _Reporter()


def test_criterion_01_multiplicity_identities():
    with _report(1, "multiplicity and dimension-count identities, n <= 20") as rep:
        for two_s in (1, 2, 3):
            for n in range(1, 21):
                table = oracles.multiplicity_table(n, two_s)
                assert sum(table.counts.values()) == (two_s + 1) ** n
                ir = oracles.irrep_spectrum(table)
                total = sum((j2 + 1) * d for j2, d in ir.degeneracies.items())
                assert total == (two_s + 1) ** n
        assert rep.elapsed < 1.0


def test_criterion_02_oracle_equivalence():
    with _report(2, "sector engine vs dense oracle, <= 1e-9 relative") as rep:
        for n, two_s in itertools.product(range(2, 7), (1, 2)):
            for delta in (1.0, 0.0, -1.0):
                for beta in (0.5, 2.0, 4.0):
                    for h in (0.0, 1.0, 2.0):
                        a = sp.heisenberg_expectation_exact(n, two_s, beta, delta, h)
                        b = oracles.dense_gibbs_oracle(n, two_s, beta, delta, h)
                        assert abs(a - b) <= 1e-9 * max(1.0, abs(b)), (n, two_s, beta, delta, h)
        assert rep.elapsed < 30.0


def test_criterion_03_isotropic_limit_convergence():
    with _report(3, "isotropic model converges to sinh(h m*)/(h m*)") as rep:
        beta, h = 2.2, 1.0
        r = asy.m_star(beta, HALF)
        assert abs(2 * beta * r.location - oracles.x_star(r.location, HALF)) < 1e-9
        limit = float(np.real(pd.sinhc(h * r.location)))
        gaps = []
        for n in (128, 256, 512, 1024, 2048):
            v = sp.heisenberg_expectation_exact(n, 1, beta, 1.0, h)
            gaps.append(abs(v - limit))
        assert all(a > b for a, b in zip(gaps, gaps[1:]))
        assert gaps[-1] < 0.02
        assert rep.elapsed < 120.0


def test_criterion_04_transverse_limit_convergence():
    with _report(4, "planar (Delta=0) model converges to I0(h m*)") as rep:
        beta, h = 3.0, 1.0
        m = asy.m_star(beta, HALF).location
        limit = float(i0(h * m))
        gaps = []
        for n in (64, 128, 256, 512):
            v = sp.heisenberg_expectation_exact(n, 1, beta, 0.0, h)
            gaps.append(abs(v - limit))
        assert all(a > b for a, b in zip(gaps, gaps[1:]))
        assert gaps[-1] < 0.05
        assert rep.elapsed < 300.0


def test_criterion_05_saddle_point_asymptotics():
    with _report(5, "saddle-point multiplicity asymptotics, m = 0.2") as rep:
        m = 0.2
        errors = []
        for n in (100, 200, 400):
            table = oracles.multiplicity_table(n, 1)
            two_m = 2 * int(m * n)
            exact = table.count(two_m) - table.count(two_m + 2)
            ratio = math.exp(math.log(exact) - oracles.saddle_multiplicity(n, m, HALF))
            errors.append(abs(ratio - 1.0))
        assert errors[0] > errors[1] > errors[2]
        assert errors[-1] < 0.03
        assert rep.elapsed < 10.0


def test_criterion_06_critical_exponents():
    with _report(6, "critical exponents 1/2, -1, 1/3, -2/3 for S in {1/2, 1}") as rep:
        for two_s in (HALF, ONE):
            bc = asy.beta_critical(two_s)
            deltas = (1e-1, 1e-2, 1e-3, 1e-4)
            fit = asy.fit_exponent([(d, asy.m_star(bc + d, two_s).location) for d in deltas])
            assert abs(fit.exponent - 0.5) < 0.05
            fit = asy.fit_exponent([(d, asy.susceptibility(bc - d, two_s)) for d in deltas])
            assert abs(fit.exponent + 1.0) < 0.05
            # finite-difference cross-check of the closed-form susceptibility
            for d in (1e-1, 1e-2):
                eps = 1e-7
                fd = asy.magnetization(bc - d, eps, two_s) / eps
                assert fd == pytest.approx(asy.susceptibility(bc - d, two_s), rel=1e-3)
            hs = (1e-2, 1e-3, 1e-4, 1e-5, 1e-6)
            mags = [(h, asy.magnetization(bc, h, two_s)) for h in hs]
            fit = asy.fit_exponent(mags)
            assert abs(fit.exponent - 1.0 / 3.0) < 0.05
            fit = asy.fit_exponent([(h, m / h) for h, m in mags])
            assert abs(fit.exponent + 2.0 / 3.0) < 0.07
        assert rep.elapsed < 30.0


def test_criterion_07_pd_identities():
    with _report(7, "Poisson-Dirichlet series and sampler identities") as rep:
        for h in (0.5, 1.0, 2.0, 5.0):
            t2 = math.sinh(h) / h
            assert abs(pd.pd_cosh_series(2, h) - t2) <= 1e-10 * max(1.0, abs(t2))
            t1 = float(i0(h))
            assert abs(pd.pd_cosh_series(1, h) - t1) <= 1e-10 * max(1.0, abs(t1))
        rng = np.random.default_rng(2024)
        for theta, h in ((1.0, 1.0), (2.0, 1.0), (3.0, 2.0)):
            n_mc = 100_000
            vals = np.ones(n_mc)
            for col in pd.stick_breaking_columns(theta, n_mc, rng):
                vals *= np.cosh(h * col)
            se = vals.std(ddof=1) / math.sqrt(n_mc)
            assert abs(vals.mean() - pd.pd_cosh_series(theta, h)) < 3 * se
        field_grids = {
            2: ([1.0, -0.5], [0.7, 0.2]),
            3: ([1.0, 0.0, -0.5], [0.8, 0.3, -0.1]),
        }
        for theta in (2, 3):
            for z_star in (0.3, 0.7):
                for hv in field_grids[theta]:
                    mean, se = pd.pd_q_expectation_mc(theta, hv, z_star, 50_000, rng)
                    closed = float(np.real(pd.pd_q_expectation_exact(theta, hv, z_star)))
                    assert abs(mean - closed) < 3 * se, (theta, z_star, hv)
        assert rep.elapsed < 120.0


# --- criterion 8 helpers: high-precision generic determinant oracle --------

def _decimal_r_generic(hv, xv):
    """R via raw determinant/products in 50-digit decimal arithmetic."""
    getcontext().prec = 50
    theta = len(hv)
    hv = [Decimal(str(v)) for v in hv]
    xv = [Decimal(str(v)) for v in xv]
    det = Decimal(0)
    for perm in itertools.permutations(range(theta)):
        inversions = sum(
            1 for i in range(theta) for j in range(i + 1, theta) if perm[i] > perm[j]
        )
        term = Decimal(-1) ** inversions
        for i in range(theta):
            term *= (hv[i] * xv[perm[i]]).exp()
        det += term
    for i in range(theta):
        for j in range(i + 1, theta):
            det *= Decimal(j - i) / ((hv[i] - hv[j]) * (xv[i] - xv[j]))
    return det


def _richardson_to_zero(values, ratio=2):
    """Neville extrapolation to step 0 for G(eps), G(eps/r), G(eps/r^2), ..."""
    tab = [list(values)]
    k = len(values)
    for j in range(1, k):
        row = []
        for i in range(k - j):
            num = tab[j - 1][i + 1] * (Decimal(ratio) ** j) - tab[j - 1][i]
            row.append(num / (Decimal(ratio) ** j - 1))
        tab.append(row)
    return tab[-1][0]


def test_criterion_08_r_function_special_cases():
    with _report(8, "R-function closed forms vs extrapolated generic determinant") as rep:
        h, z = 1.1, 0.55
        eps0 = 1e-4
        for two_s in (2, 3):
            theta = two_s + 1
            y = (1.0 - z) / theta
            # equally spaced fields, two-level x
            target = oracles.r_spin_product(h, z, two_s)
            hv = [h * (-0.5 * two_s + k) for k in range(theta)]
            vals = []
            for lvl in range(4):
                e = eps0 / 2**lvl
                xv = [z + y] + [y + (j + 1) * e for j in range(theta - 1)]
                vals.append(_decimal_r_generic(hv, xv))
            extrap = float(_richardson_to_zero(vals))
            assert abs(extrap - target) <= 1e-10 * max(1.0, abs(target))
            routed = math.exp(y * sum(hv)) * pd.pd_q_expectation_exact(theta, hv, z)
            assert abs(routed - target) <= 1e-10 * max(1.0, abs(target))
            # rank-one projector fields (h, 0, ..., 0)
            target_p = oracles.r_projector(h, z, y, theta)
            vals = []
            for lvl in range(4):
                e = eps0 / 2**lvl
                hv_p = [h] + [(j + 1) * e for j in range(theta - 1)]
                xv = [z + y] + [y + (j + 1) * e for j in range(theta - 1)]
                vals.append(_decimal_r_generic(hv_p, xv))
            extrap = float(_richardson_to_zero(vals))
            assert abs(extrap - target_p) <= 1e-10 * max(1.0, abs(target_p))
            routed = math.exp(y * h) * pd.pd_q_expectation_exact(theta, [h] + [0.0] * (theta - 1), z)
            assert abs(routed - target_p) <= 1e-10 * max(1.0, abs(target_p))
        assert rep.elapsed < 5.0


def test_criterion_09_character_machinery():
    with _report(9, "character expansion identities, exact arithmetic") as rep:
        points = {1: (2,), 2: (2, 3), 3: (1, 2, 3), 4: (1, 2, 3, 5)}
        for n in range(1, 7):
            for r in (1, 2, 3, 4):
                xs = [Fraction(x) for x in points[r]]
                for mu in oracles.partitions(n):
                    lhs = Fraction(1)
                    for part in mu:
                        lhs *= sum(x**part for x in xs)
                    rhs = sum(
                        (oracles.character(lam, mu).value * oracles.schur_eval_exact(lam, xs)
                         for lam in oracles.partitions(n, r)),
                        Fraction(0),
                    )
                    assert lhs == rhs, (n, r, mu)
        for n in range(1, 8):
            assert sum(oracles.dimension(l) ** 2 for l in oracles.partitions(n)) == math.factorial(n)
        for n in range(2, 9):
            mu = (2,) + (1,) * (n - 2)
            for lam in oracles.partitions(n):
                assert oracles.transposition_ratio(lam) == Fraction(
                    oracles.character(lam, mu).value, oracles.dimension(lam)
                )
        assert rep.elapsed < 30.0


def test_criterion_10_interchange_cross_engine():
    with _report(10, "interchange: character sum vs spin-1/2 model and loop MCMC") as rep:
        for beta in (1.0, 2.0, 4.0):
            a = sf.interchange_expectation_exact(4, 2, beta, [0.5, -0.5])
            b = sp.heisenberg_expectation_exact(4, 1, beta, 1.0, 1.0)
            assert abs(a - b) <= 1e-9 * max(1.0, abs(b))
        seeds = {(4, 2): 101, (4, 3): 103, (6, 2): 107, (6, 3): 109}
        hv_of = {2: [0.5, -0.5], 3: [1.0, 0.0, 0.0]}
        beta = 1.5
        for (n, theta), seed in seeds.items():
            hv = hv_of[theta]
            exact = sf.interchange_expectation_exact(n, theta, beta, hv)
            rng = np.random.default_rng(seed)
            _, stats = lp.mcmc_run(
                n, 1, beta, 1.0, float(theta), 200_000, rng,
                burn_in=200_000 // 5, factor=lambda m: pd.q_eval(hv, m / n),
            )
            mean, se = lp.batch_means_se(stats.observable_trace)
            assert abs(mean - exact) < 3 * se, (n, theta, mean, se, exact)
        assert rep.elapsed < 600.0


def test_criterion_11_loop_mcmc_vs_quantum_oracle():
    with _report(11, "loop MCMC generating function vs exact quantum value") as rep:
        n, beta, h = 4, 2.0, 1.0
        for u, seed in ((1.0, 211), (0.5, 223)):
            delta = 2.0 * u - 1.0
            exact = sp.heisenberg_expectation_exact(n, 1, beta, delta, h)
            rng = np.random.default_rng(seed)
            _, stats = lp.mcmc_run(
                n, 1, beta, u, 2.0, 200_000, rng,
                burn_in=200_000 // 5, factor=lambda m: math.cosh(h / 2 * m / n),
            )
            mean, se = lp.batch_means_se(stats.observable_trace)
            assert abs(mean - exact) < 3 * se, (u, mean, se, exact)
        assert rep.elapsed < 600.0


def test_criterion_12_ewens_converges_to_pd():
    with _report(12, "Ewens largest cycle vs stick-breaking largest part (KS)") as rep:
        rng = np.random.default_rng(1234)
        n, theta, n_samples = 2000, 2.0, 10_000
        ewens = np.array(
            [oracles.ewens_sample(n, theta, rng).cycle_type[0] / n for _ in range(n_samples)]
        )
        sticks = functools.reduce(np.maximum, pd.stick_breaking_columns(theta, n_samples, rng))
        ks = ks_2samp(ewens, sticks)
        assert ks.pvalue > 0.01, (ks.statistic, ks.pvalue)
        assert rep.elapsed < 120.0


def test_criterion_13_simplex_grid_vs_family():
    with _report(13, "simplex functional: no off-family maximum (1/200 grid)") as rep:
        resolution = 200
        for beta in (2.0, 3.0, 4.0):
            family = asy.interchange_maximizer(beta, 3).value
            best = -math.inf
            for a in range(resolution, -1, -1):
                for b in range(min(a, resolution - a), -1, -1):
                    c = resolution - a - b
                    if c > b:
                        continue
                    val = oracles.phi_beta((a / resolution, b / resolution, c / resolution), beta)
                    if val > best:
                        best = val
            assert best <= family + 1e-6, (beta, best, family)
        assert rep.elapsed < 60.0


def test_criterion_14_falk_bruch_chain():
    with _report(14, "magnetization/Duhamel/susceptibility inequality chain") as rep:
        for n in (3, 4, 5):
            for beta in (0.5, 1.0, 2.0):
                for h in (0.1, 0.5, 1.0):
                    for u in (0.0, 0.5):
                        r = oracles.falk_bruch_check(n, 1, beta, h, u)
                        assert r.chi_perp > r.m_over_bh > r.lower_bound, (n, beta, h, u, r)
        assert rep.elapsed < 60.0
