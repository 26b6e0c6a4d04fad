"""Tests for loop-soup sampling, tracing, and the Metropolis chain."""

import math

import numpy as np
import pytest

from spinloops import loops as lp
from spinloops import pd
from spinloops import spectra as sp


def test_pseudo_edge_set():
    edges = lp.pseudo_edges(3, 2)
    assert len(edges) == 3 * 4  # C(3,2) * (2S)^2
    for v, w in edges:
        assert v < w and v // 2 != w // 2
    assert len(lp.pseudo_edges(4, 1)) == 6


def test_free_sampler_counts_and_kinds():
    rng = np.random.default_rng(0)
    cfg = lp.sample_free_links(4, 2, 3.0, 1.0, rng)
    assert all(kind == lp.CROSS for links in cfg.links for _, kind in links)
    assert cfg.n_threads == 8
    assert len(cfg.site_perms) == 4
    # mean total links over many draws: #edges * beta/n
    n, beta = 3, 2.0
    lam = 3 * beta / n
    totals = np.array(
        [lp.sample_free_links(n, 1, beta, 0.7, rng).n_links for _ in range(10_000)]
    )
    se = totals.std(ddof=1) / math.sqrt(len(totals))
    assert abs(totals.mean() - lam) < 3 * se


def test_trace_no_links():
    for n, two_s in [(4, 1), (3, 3)]:
        spec = lp.trace_loops(lp.empty_configuration(n, two_s, 2.0, 1.0))
        assert spec == lp.LoopSpectrum((1,) * (n * two_s), n * two_s)


def test_trace_single_link_two_sites():
    for kind in (lp.CROSS, lp.BAR):
        cfg = lp.empty_configuration(2, 1, 2.0, 1.0)
        cfg.links[0].append((0.3, kind))
        assert lp.trace_loops(cfg) == lp.LoopSpectrum((2,), 1)


def test_trace_two_links_same_edge():
    # two crosses compose to the identity: two loops, each wrapping once
    cfg = lp.empty_configuration(2, 1, 2.0, 1.0)
    cfg.links[0] = [(0.3, lp.CROSS), (0.7, lp.CROSS)]
    assert lp.trace_loops(cfg) == lp.LoopSpectrum((1, 1), 2)
    # a cross and a bar chain into a single double-wrap loop
    cfg.links[0] = [(0.3, lp.CROSS), (0.7, lp.BAR)]
    assert lp.trace_loops(cfg) == lp.LoopSpectrum((2,), 1)
    # two bars close a zero-length loop between them and join the outer parts
    cfg.links[0] = [(0.3, lp.BAR), (0.7, lp.BAR)]
    assert lp.trace_loops(cfg) == lp.LoopSpectrum((2,), 2)


def test_trace_complete_graph_realization():
    # single cross on one K_4 edge: one loop of length 2 and two trivial loops
    cfg = lp.empty_configuration(4, 1, 2.0, 1.0)
    cfg.links[0].append((0.1, lp.CROSS))
    assert lp.trace_loops(cfg) == lp.LoopSpectrum((2, 1, 1), 3)


def test_trace_zero_length_loop():
    # two bars above the wrap line enclose a loop that never touches level 0
    cfg = lp.empty_configuration(2, 2, 4.0, 0.0)
    # threads 0,1 belong to site 0, threads 2,3 to site 1; edge (0, 2)
    edges = lp.pseudo_edges(2, 2)
    e = edges.index((0, 2))
    cfg.links[e] = [(0.3, lp.BAR), (0.6, lp.BAR)]
    spec = lp.trace_loops(cfg)
    assert sum(spec.lengths) == 4
    assert spec.n_loops_total == len(spec.lengths) + 1  # one zero-length loop


def test_trace_sigma_rewiring():
    cfg = lp.empty_configuration(2, 2, 2.0, 1.0)
    cfg.site_perms[0] = (1, 0)
    assert lp.trace_loops(cfg) == lp.LoopSpectrum((2, 1, 1), 3)
    cfg3 = lp.empty_configuration(2, 3, 2.0, 1.0)
    cfg3.site_perms[1] = (1, 2, 0)  # 3-cycle
    spec = lp.trace_loops(cfg3)
    assert spec == lp.LoopSpectrum((3, 1, 1, 1), 4)


@pytest.mark.parametrize("n,two_s", [(3, 1), (4, 1), (3, 2), (2, 3)])
def test_length_conservation_and_determinism(n, two_s):
    rng = np.random.default_rng(42)
    for _ in range(300):
        cfg = lp.sample_free_links(n, two_s, 3.0, 0.5, rng)
        spec = lp.trace_loops(cfg)
        assert sum(spec.lengths) == two_s * n
        assert lp.trace_loops(cfg) == spec


def test_trace_rejects_bad_times():
    cfg = lp.empty_configuration(2, 1, 2.0, 1.0)
    cfg.links[0] = [(5.0, lp.CROSS)]  # outside [0, beta/n)
    with pytest.raises(ValueError):
        lp.trace_loops(cfg)
    cfg.links[0] = [(0.5, lp.CROSS), (0.5, lp.BAR)]
    with pytest.raises(ValueError):
        lp.trace_loops(cfg)


def test_insert_delete_reversibility():
    rng = np.random.default_rng(11)
    cfg = lp.sample_free_links(4, 1, 2.0, 1.0, rng)
    before = lp.trace_loops(cfg)
    cfg.links[2].append((0.21, lp.CROSS))
    cfg.links[2].sort()
    lp.trace_loops(cfg)
    cfg.links[2].remove((0.21, lp.CROSS))
    assert lp.trace_loops(cfg) == before


def test_observables():
    spec = lp.LoopSpectrum((4, 2), 3)
    n, two_s = 3, 2
    h = 1.3
    direct = math.cosh(h * 4 / 6) * math.cosh(h * 2 / 6)
    assert lp.observable_cosh(spec, h, n, two_s) == pytest.approx(direct, rel=1e-13)
    assert lp.observable_cosh(spec, 0.0, n, two_s) == 1.0
    # a single full-length loop gives cosh(h)
    full = lp.LoopSpectrum((6,), 1)
    assert lp.observable_cosh(full, h, n, two_s) == pytest.approx(math.cosh(h), rel=1e-13)
    # the spin convention of `cli simulate`: field h S divides by 2n
    for spin2 in (1, 2, 3):
        assert lp.observable_cosh(spec, h * spin2 / 2, n, spin2) == pytest.approx(
            math.cosh(h * 4 / 6) * math.cosh(h * 2 / 6), rel=1e-13
        )
    qv = lp.observable_q(spec, [1.0, 0.0, 0.0], n)
    target = pd.q_eval([1.0, 0.0, 0.0], 4 / 3) * pd.q_eval([1.0, 0.0, 0.0], 2 / 3)
    assert qv == pytest.approx(float(np.real(target)), rel=1e-13)


def test_mcmc_rejects_small_theta():
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError):
        lp.mcmc_run(3, 1, 1.0, 1.0, 0.5, 100, rng)


def test_mcmc_rejects_bad_burn_in_and_thin():
    rng = np.random.default_rng(0)
    for kwargs in ({"thin": 0}, {"thin": -1}, {"burn_in": 100}, {"burn_in": 150}, {"burn_in": -1}):
        with pytest.raises(ValueError):
            lp.mcmc_run(3, 1, 1.0, 1.0, 2.0, 100, rng, **kwargs)


def _reference_chain(n, two_s, beta, u, theta, n_sweeps, rng, burn_in=None, thin=1,
                     max_links=None, observable=None):
    """The chain by full retrace: every proposal re-traces the whole configuration.

    Same proposals, random stream and acceptance rule as mcmc_run; a rejected
    deletion leaves the proposed link last in the list.
    """
    if burn_in is None:
        burn_in = n_sweeps // 5
    lo, hi = lp.empty_configuration(n, two_s, beta, u).interval
    span = hi - lo
    edges = lp.pseudo_edges(n, two_s)
    lam = len(edges) * span
    perms = [tuple(range(two_s))] * n
    flat = []
    trace = lambda: lp._trace_flat(n, two_s, perms, flat)
    cur = trace()
    perm_prob = 0.1 if two_s > 1 else 0.0
    stats, samples = lp.McmcStats(), []

    def accept(new, log_factor):
        log_ratio = (new.n_loops_total - cur.n_loops_total) * math.log(theta) + log_factor
        return log_ratio >= 0.0 or rng.random() < math.exp(log_ratio)

    for sweep in range(n_sweeps):
        r = rng.random()
        if r < perm_prob:
            stats.proposed_perm_moves += 1
            site = int(rng.integers(n))
            old = perms[site]
            perms[site] = tuple(int(x) for x in rng.permutation(two_s))
            new = trace()
            if accept(new, 0.0):
                cur = new
                stats.accepted_perm_moves += 1
            else:
                perms[site] = old
        elif r < perm_prob + 0.5 * (1.0 - perm_prob):
            stats.proposed_inserts += 1
            k = len(flat)
            if max_links is None or k < max_links:
                e = int(rng.integers(len(edges)))
                t = lo + span * rng.random()
                kind = lp.CROSS if rng.random() < u else lp.BAR
                flat.append((*edges[e], t, kind))
                new = trace()
                if accept(new, math.log(lam / (k + 1))):
                    cur = new
                    stats.accepted_inserts += 1
                else:
                    flat.pop()
        else:
            stats.proposed_deletes += 1
            k = len(flat)
            if k > 0:
                j = int(rng.integers(k))
                flat[j], flat[-1] = flat[-1], flat[j]
                link = flat.pop()
                new = trace()
                if accept(new, math.log(k / lam)):
                    cur = new
                    stats.accepted_deletes += 1
                else:
                    flat.append(link)
        stats.sweeps += 1
        if sweep >= burn_in and (sweep - burn_in) % thin == 0:
            samples.append(cur)
            stats.links_trace.append(len(flat))
            if observable is not None:
                stats.observable_trace.append(float(observable(cur)))
    return samples, stats


@pytest.mark.parametrize(
    "n, two_s, u, theta, kwargs",
    [
        (100, 1, 1.0, 2.0, {}),
        (20, 1, 0.5, 2.0, {}),
        (10, 2, 1.0, 2.0, {}),
        (20, 1, 1.0, 3.0, {}),
        (6, 3, 0.7, 2.0, {}),
        (8, 1, 0.3, 2.0, {}),
        (6, 2, 0.6, 2.0, {"max_links": 5}),
        (8, 1, 1.0, 2.0, {"max_links": 3}),
        (10, 2, 0.8, 2.0, {"burn_in": 0, "thin": 3}),
        (20, 1, 1.0, 2.0, {"burn_in": 1999, "thin": 7}),
    ],
)
def test_mcmc_matches_full_retrace_chain(n, two_s, u, theta, kwargs):
    # the incremental loop bookkeeping must reproduce the retraced chain exactly
    beta, sweeps = 3.0, 3001
    observable = lambda s: lp.observable_cosh(s, 1.5, n, two_s)
    for seed in (3, 4):
        got, stats = lp.mcmc_run(n, two_s, beta, u, theta, sweeps, np.random.default_rng(seed),
                                 observable=observable, **kwargs)
        want, want_stats = _reference_chain(n, two_s, beta, u, theta, sweeps,
                                            np.random.default_rng(seed), observable=observable,
                                            **kwargs)
        assert got == want
        assert stats == want_stats
        assert stats.accepted_inserts > 0 and stats.accepted_deletes > 0
        assert lp.trace_loops(stats.final_config) == got[-1]  # the last sweep is kept
        assert stats.final_config.n_links == stats.links_trace[-1]


def test_mcmc_observable_once_per_distinct_spectrum():
    seen = []
    observable = lambda s: seen.append(s) or float(len(seen))
    samples, stats = lp.mcmc_run(8, 1, 2.0, 1.0, 2.0, 2000, np.random.default_rng(8),
                                 observable=observable)
    assert all(a != b for a, b in zip(seen, seen[1:]))
    assert len(seen) == 1 + sum(a != b for a, b in zip(samples, samples[1:]))
    assert len(set(stats.observable_trace)) == len(seen) < len(samples)


def test_mcmc_poisson_equilibrium():
    # theta = 1 is plain birth-death: mean link count = total Poisson mass
    rng = np.random.default_rng(13)
    n, beta = 3, 2.0
    lam = 3 * beta / n
    _, stats = lp.mcmc_run(n, 1, beta, 1.0, 1.0, 60_000, rng)
    mean, se = lp.batch_means_se(stats.links_trace)
    assert abs(mean - lam) < 3 * se
    assert stats.accepted_inserts <= stats.proposed_inserts
    assert stats.accepted_deletes <= stats.proposed_deletes
    assert stats.accepted_perm_moves <= stats.proposed_perm_moves
    assert stats.sweeps == 60_000


def test_mcmc_capped_toy_chain_matches_exact_stationarity():
    # n=2, S=1/2, u=1: the loop count depends only on link parity, so the
    # capped chain has an explicitly solvable stationary law
    theta, beta, cap = 2.0, 0.8, 2
    lam = beta / 2
    loops_of = {0: 2, 1: 1, 2: 2}
    P = np.zeros((3, 3))
    for k in range(3):
        if k < cap:
            d = loops_of[k + 1] - loops_of[k]
            P[k, k + 1] = 0.5 * min(1.0, theta**d * lam / (k + 1))
        if k > 0:
            d = loops_of[k - 1] - loops_of[k]
            P[k, k - 1] = 0.5 * min(1.0, theta**d * k / lam)
        P[k, k] = 1.0 - P[k].sum()
    w, v = np.linalg.eig(P.T)
    pi = np.real(v[:, np.argmin(abs(w - 1.0))])
    pi /= pi.sum()
    target = np.array([theta ** loops_of[k] * lam**k / math.factorial(k) for k in range(3)])
    assert np.allclose(pi, target / target.sum(), atol=1e-12)
    rng = np.random.default_rng(41)
    _, stats = lp.mcmc_run(2, 1, beta, 1.0, theta, 1_000_000, rng, burn_in=10_000, max_links=cap)
    ks = np.array(stats.links_trace)
    emp = np.array([(ks == k).mean() for k in range(3)])
    assert 0.5 * np.abs(emp - pi).sum() < 1e-3


def test_mcmc_cross_engine_heisenberg_small():
    rng = np.random.default_rng(23)
    n, beta, h = 4, 2.0, 1.0
    exact = sp.heisenberg_expectation_exact(n, 1, beta, 1.0, h).value
    _, stats = lp.mcmc_run(
        n, 1, beta, 1.0, 2.0, 120_000, rng,
        observable=lambda s: lp.observable_cosh(s, h / 2, n, 1),
    )
    mean, se = lp.batch_means_se(stats.observable_trace)
    assert abs(mean - exact) < 3 * se


def test_batch_means_se():
    rng = np.random.default_rng(3)
    x = rng.normal(size=6400)
    mean, se = lp.batch_means_se(x)
    assert mean == pytest.approx(x.mean())
    assert se == pytest.approx(x.std(ddof=1) / 80, rel=0.5)
    with pytest.raises(ValueError):
        lp.batch_means_se([])


def test_pd_comparison_disordered_phase():
    # far below beta_c: no macroscopic loops, observables near 1, z* = 0
    rng = np.random.default_rng(17)
    n = 12
    samples, _ = lp.mcmc_run(n, 1, 0.4, 1.0, 2.0, 15_000, rng)
    report = lp.pd_comparison(samples, n, 1, 1.0, 2.0, 0.0, [0.25, 0.5], rng)
    assert report.skipped_macroscopic
    assert report.ks_statistic is None
    assert "z*" in report.notice
    for row in report.rows:
        assert row["limit"] == 1.0
        assert abs(row["mc_mean"] - 1.0) < 0.03  # O(1/n) finite-size offset


def test_pd_comparison_report_structure():
    rng = np.random.default_rng(19)
    samples, _ = lp.mcmc_run(6, 1, 3.0, 1.0, 2.0, 20_000, rng)
    report = lp.pd_comparison(samples, 6, 1, 1.0, 2.0, 0.8, [1.0], rng, n_reference=2000)
    assert not report.skipped_macroscopic
    assert report.ks_statistic is not None and 0.0 <= report.ks_statistic <= 1.0
    assert set(report.rows[0]) == {"h", "mc_mean", "mc_se", "limit", "abs_gap", "within_3se"}


@pytest.mark.slow
def test_pd_comparison_ordered_phase_matches_limits():
    # calibrated cross-check of the conjectured limit laws at n = 128
    from spinloops import asymptotics as asy

    ctx = asy.SpinContext(1)
    z = asy.m_star(3.0, ctx).location / 0.5
    n = 128
    rng = np.random.default_rng(57)
    samples, _ = lp.mcmc_run(n, 1, 3.0, 1.0, 2.0, 60_000, rng, thin=5)
    report = lp.pd_comparison(samples, n, 1, 1.0, 2.0, z, [2.0], rng, n_reference=4000)
    assert report.rows[0]["abs_gap"] < 0.05
    rng2 = np.random.default_rng(59)
    samples2, _ = lp.mcmc_run(n, 1, 3.0, 0.5, 2.0, 60_000, rng2, thin=5)
    report2 = lp.pd_comparison(samples2, n, 1, 0.5, 1.0, z, [2.0], rng2, n_reference=4000)
    assert report2.rows[0]["abs_gap"] < 0.05
