"""Tests for loop-soup sampling, tracing, and the Metropolis chain."""

import itertools
import math
from collections import Counter

import numpy as np
import pytest

from spinloops import loops as lp
from spinloops import pd
from spinloops import spectra as sp

import oracles


def test_pseudo_edge_set():
    edges = oracles.pseudo_edges(3, 2)
    assert len(edges) == 3 * 4  # C(3,2) * (2S)^2
    for v, w in edges:
        assert v < w and v // 2 != w // 2
    assert len(oracles.pseudo_edges(4, 1)) == 6


def test_free_sampler_counts_and_kinds():
    rng = np.random.default_rng(0)
    cfg = oracles.sample_free_links(4, 2, 3.0, 1.0, rng)
    assert all(kind == lp.CROSS for _, _, _, kind in cfg.links)
    assert cfg.n_threads == 8
    assert len(cfg.site_perms) == 4
    # mean total links over many draws: #edges * beta/n
    n, beta = 3, 2.0
    lam = 3 * beta / n
    totals = np.array(
        [oracles.sample_free_links(n, 1, beta, 0.7, rng).n_links for _ in range(10_000)]
    )
    se = totals.std(ddof=1) / math.sqrt(len(totals))
    assert abs(totals.mean() - lam) < 3 * se


def test_trace_no_links():
    for n, two_s in [(4, 1), (3, 3)]:
        spec = oracles.trace_loops(oracles.empty_configuration(n, two_s, 2.0, 1.0))
        assert spec == lp.LoopSpectrum((1,) * (n * two_s), n * two_s)


def test_trace_single_link_two_sites():
    for kind in (lp.CROSS, lp.BAR):
        cfg = oracles.empty_configuration(2, 1, 2.0, 1.0)
        cfg.links.append((0, 1, 0.3, kind))
        assert oracles.trace_loops(cfg) == lp.LoopSpectrum((2,), 1)


def test_trace_two_links_same_edge():
    # two crosses compose to the identity: two loops, each wrapping once
    cfg = oracles.empty_configuration(2, 1, 2.0, 1.0)
    cfg.links = [(0, 1, 0.3, lp.CROSS), (0, 1, 0.7, lp.CROSS)]
    assert oracles.trace_loops(cfg) == lp.LoopSpectrum((1, 1), 2)
    # a cross and a bar chain into a single double-wrap loop
    cfg.links = [(0, 1, 0.3, lp.CROSS), (0, 1, 0.7, lp.BAR)]
    assert oracles.trace_loops(cfg) == lp.LoopSpectrum((2,), 1)
    # two bars close a zero-length loop between them and join the outer parts
    cfg.links = [(0, 1, 0.3, lp.BAR), (0, 1, 0.7, lp.BAR)]
    assert oracles.trace_loops(cfg) == lp.LoopSpectrum((2,), 2)


def test_trace_complete_graph_realization():
    # single cross on one K_4 edge: one loop of length 2 and two trivial loops
    cfg = oracles.empty_configuration(4, 1, 2.0, 1.0)
    cfg.links.append((0, 1, 0.1, lp.CROSS))
    assert oracles.trace_loops(cfg) == lp.LoopSpectrum((2, 1, 1), 3)


def test_trace_zero_length_loop():
    # two bars above the wrap line enclose a loop that never touches level 0
    cfg = oracles.empty_configuration(2, 2, 4.0, 0.0)
    # threads 0,1 belong to site 0, threads 2,3 to site 1; edge (0, 2)
    assert (0, 2) in oracles.pseudo_edges(2, 2)
    cfg.links = [(0, 2, 0.3, lp.BAR), (0, 2, 0.6, lp.BAR)]
    spec = oracles.trace_loops(cfg)
    assert sum(spec.lengths) == 4
    assert spec.n_loops_total == len(spec.lengths) + 1  # one zero-length loop


def test_trace_sigma_rewiring():
    cfg = oracles.empty_configuration(2, 2, 2.0, 1.0)
    cfg.site_perms[0] = (1, 0)
    assert oracles.trace_loops(cfg) == lp.LoopSpectrum((2, 1, 1), 3)
    cfg3 = oracles.empty_configuration(2, 3, 2.0, 1.0)
    cfg3.site_perms[1] = (1, 2, 0)  # 3-cycle
    spec = oracles.trace_loops(cfg3)
    assert spec == lp.LoopSpectrum((3, 1, 1, 1), 4)


@pytest.mark.parametrize("n,two_s", [(3, 1), (4, 1), (3, 2), (2, 3)])
def test_length_conservation_and_determinism(n, two_s):
    rng = np.random.default_rng(42)
    for _ in range(300):
        cfg = oracles.sample_free_links(n, two_s, 3.0, 0.5, rng)
        spec = oracles.trace_loops(cfg)
        assert sum(spec.lengths) == two_s * n
        assert oracles.trace_loops(cfg) == spec


def test_trace_rejects_bad_times():
    cfg = oracles.empty_configuration(2, 1, 2.0, 1.0)
    assert oracles.trace_loops(cfg) == lp.LoopSpectrum((1, 1), 2)
    bad = [
        [(0, 1, 5.0, lp.CROSS)],  # outside [0, beta/n)
        [(0, 1, 0.5, lp.CROSS), (0, 1, 0.5, lp.BAR)],  # one edge, one time
        [(1, 0, 0.5, lp.CROSS)],  # v > w
        [(0, 0, 0.5, lp.CROSS)],
        [(0, 2, 0.5, lp.CROSS)],  # no thread 2
        [(-1, 1, 0.5, lp.CROSS)],
    ]
    cfg3 = oracles.empty_configuration(3, 2, 6.0, 1.0)  # sites 0, 1, 2 hold threads 0-1, 2-3, 4-5
    bad3 = [
        [(0, 1, 0.5, lp.CROSS)],  # both threads on site 0
        [(0, 2, 0.5, lp.CROSS), (0, 4, 0.5, lp.BAR)],  # two edges meet thread 0 at one time
        [(0, 4, 0.5, lp.CROSS), (3, 4, 0.5, lp.CROSS)],  # and thread 4
        [(0, 2, 0.5, lp.CROSS), (2, 4, 0.5, lp.BAR)],  # thread 2 as upper and lower end
    ]
    for config, cases in ((cfg, bad), (cfg3, bad3)):
        for links in cases:
            config.links = links
            with pytest.raises(ValueError):
                oracles.trace_loops(config)
    cfg3.links = [(0, 2, 0.5, lp.CROSS), (1, 4, 0.5, lp.BAR)]  # one time on different threads is fine
    assert sum(oracles.trace_loops(cfg3).lengths) == 6


def test_insert_delete_reversibility():
    rng = np.random.default_rng(11)
    cfg = oracles.sample_free_links(4, 1, 2.0, 1.0, rng)
    before = oracles.trace_loops(cfg)
    cfg.links.append((*oracles.pseudo_edges(4, 1)[2], 0.21, lp.CROSS))
    oracles.trace_loops(cfg)
    cfg.links.pop()
    assert oracles.trace_loops(cfg) == before


def _one(m):
    """The factor of an observable the test does not read."""
    return 1.0


def _cosh_factor(h, n, two_s):
    """The factor cosh(h l / 2Sn) of a loop of length l, as `cli simulate` forms it for the field h S."""
    return lambda m: math.cosh(h * m / (two_s * n))


def test_observables():
    # the chain's products against products of the factors written out;
    # `cli simulate` passes the field h S, so a loop of length l weighs cosh(h l / 2n)
    n, h = 4, 1.3
    for two_s in (1, 2, 3):
        samples, stats = lp.mcmc_run(n, two_s, 2.0, 0.5, 2.0, 3000, np.random.default_rng(two_s),
                                     burn_in=600, factor=_cosh_factor(h * two_s / 2, n, two_s))
        assert len({s.lengths for s in samples}) > 3
        for s, value in zip(samples, stats.observable_trace, strict=True):
            assert value == pytest.approx(math.prod(math.cosh(h * l / (2 * n)) for l in s.lengths), rel=1e-13)
        # a single loop through every marked point gives cosh(h S)
        full = [value for s, value in zip(samples, stats.observable_trace) if len(s.lengths) == 1]
        assert full and all(v == pytest.approx(math.cosh(h * two_s / 2), rel=1e-13) for v in full)
        _, stats = lp.mcmc_run(n, two_s, 2.0, 0.5, 2.0, 3000, np.random.default_rng(two_s),
                               burn_in=600, factor=_cosh_factor(0.0, n, two_s))
        assert set(stats.observable_trace) == {1.0}
    hv = [1.0, 0.0, 0.0]
    samples, stats = lp.mcmc_run(n, 1, 2.0, 1.0, 3.0, 3000, np.random.default_rng(4),
                                 burn_in=600, factor=lambda m: pd.q_eval(hv, m / n))
    for s, value in zip(samples, stats.observable_trace, strict=True):
        target = math.prod(pd.q_eval(hv, l / n) for l in s.lengths)
        assert value == pytest.approx(float(np.real(target)), rel=1e-13)


@pytest.mark.parametrize("two_s", [1, 2, 3])
def test_observable_cosh_equals_per_loop_product_bit_for_bit(two_s):
    # every kept value is the per-loop product multiplied out afresh
    n, h = 37, 1.7 * two_s / 2
    samples, stats = lp.mcmc_run(n, two_s, 3.0, 0.5, 2.0, 6000, np.random.default_rng(two_s),
                                 burn_in=1200, factor=_cosh_factor(h, n, two_s))
    assert len(set(samples)) > 100
    for s, value in zip(samples, stats.observable_trace, strict=True):
        assert type(value) is float
        assert value == oracles.observable_cosh_per_loop(s, h, n, two_s)


@pytest.mark.parametrize("hvec", [[1.0, 0.0, 0.0], [0.7, -0.2, 0.1, 2.5], [0.5, -1.0, 0.0, 2.0],
                                  [-0.3, 2.0]])
def test_observable_q_equals_per_loop_product_bit_for_bit(hvec):
    rng = np.random.default_rng(len(hvec))
    n = 29
    samples, stats = lp.mcmc_run(n, 1, 3.0, 1.0, float(len(hvec)), 6000, rng,
                                 burn_in=1200, factor=lambda m: pd.q_eval(hvec, m / n))
    assert len(set(samples)) > 100
    for s, got in zip(samples, stats.observable_trace, strict=True):
        want = oracles.observable_q_per_loop(s, hvec, n)
        assert type(got) is type(want) is float
        assert got == want and math.copysign(1.0, got) == math.copysign(1.0, want)


def test_mcmc_rejects_small_theta():
    rng = np.random.default_rng(0)
    for theta in (0.5, math.nan, math.inf):  # nan ran as theta = 1 before
        with pytest.raises(ValueError):
            lp.mcmc_run(3, 1, 1.0, 1.0, theta, 100, rng, 20, _one)


@pytest.mark.parametrize("beta", [math.nan, math.inf, -1.0, 0.0])
def test_mcmc_rejects_bad_beta(beta):
    with pytest.raises(ValueError, match="beta must be finite and positive"):
        lp.mcmc_run(3, 1, beta, 1.0, 2.0, 100, np.random.default_rng(0), 20, _one)


def test_mcmc_rejects_bad_burn_in_and_thin():
    rng = np.random.default_rng(0)
    for kwargs in ({"thin": 0}, {"thin": -1}, {"burn_in": 100}, {"burn_in": 150}, {"burn_in": -1}):
        with pytest.raises(ValueError):
            lp.mcmc_run(3, 1, 1.0, 1.0, 2.0, 100, rng, **{"burn_in": 20, "factor": _one, **kwargs})


def test_mcmc_rejects_too_few_sites_and_bad_u():
    rng = np.random.default_rng(0)
    for n in (0, 1):
        with pytest.raises(ValueError, match="need n >= 2 sites"):
            lp.mcmc_run(n, 1, 1.0, 1.0, 2.0, 100, rng, 20, _one)
    for u in (-0.1, 1.5, math.nan):
        with pytest.raises(ValueError, match=r"u must lie in \[0, 1\]"):
            lp.mcmc_run(3, 1, 1.0, u, 2.0, 100, rng, 20, _one)


def _reference_chain(n, two_s, beta, u, theta, n_sweeps, rng, burn_in, factor, thin=1):
    """The chain by full retrace: every proposal re-traces the whole configuration.

    Same proposals, random source (lp._uniforms, lp._permutation) and
    acceptance rule as mcmc_run; a rejected deletion leaves the proposed link
    last in the list.  Every kept sample's observable is the product of its
    factors multiplied out afresh.  Returns the samples and the stats.
    """
    lo, hi = oracles.empty_configuration(n, two_s, beta, u).interval
    span = hi - lo
    edges = oracles.pseudo_edges(n, two_s)
    lam = len(edges) * span
    perms = [tuple(range(two_s))] * n
    flat = []
    trace = lambda: oracles._trace_flat(n, two_s, perms, flat)
    cur = trace()
    perm_prob = 0.1 if two_s > 1 else 0.0
    stats, samples = lp.McmcStats(), []
    draw = lp._uniforms(rng).__next__

    def accept(new, log_factor):
        log_ratio = (new.n_loops_total - cur.n_loops_total) * math.log(theta) + log_factor
        return log_ratio >= 0.0 or draw() < math.exp(log_ratio)

    for sweep in range(n_sweeps):
        r = draw()
        if r < perm_prob:
            stats.proposed_perm_moves += 1
            site = int(draw() * n)
            old = perms[site]
            perms[site] = lp._permutation(draw, two_s)
            new = trace()
            if accept(new, 0.0):
                cur = new
                stats.accepted_perm_moves += 1
            else:
                perms[site] = old
        elif r < perm_prob + 0.5 * (1.0 - perm_prob):
            stats.proposed_inserts += 1
            k = len(flat)
            e = int(draw() * len(edges))
            t = lo + span * draw()
            kind = lp.CROSS if draw() < u else lp.BAR
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
                j = int(draw() * k)
                flat[j], flat[-1] = flat[-1], flat[j]
                link = flat.pop()
                new = trace()
                if accept(new, math.log(k / lam)):
                    cur = new
                    stats.accepted_deletes += 1
                else:
                    flat.append(link)
        if sweep >= burn_in and (sweep - burn_in) % thin == 0:
            samples.append(cur)
            stats.links_trace.append(len(flat))
            stats.observable_trace.append(float(math.prod(map(factor, cur.lengths), start=factor(0))))
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
        (6, 2, 0.6, 2.0, {}),
        (8, 1, 1.0, 2.0, {}),
        (10, 2, 0.8, 2.0, {"burn_in": 0, "thin": 3}),
        (20, 1, 1.0, 2.0, {"burn_in": 1999, "thin": 7}),
        (4, 4, 0.6, 2.0, {}),
        (12, 1, 0.0, 2.0, {}),
        (6, 2, 0.0, 3.0, {}),
        (20, 1, 0.5, 3.0, {}),
        (200, 1, 0.8, 2.0, {}),
    ],
)
def test_mcmc_matches_full_retrace_chain(n, two_s, u, theta, kwargs):
    # the incremental loop bookkeeping must reproduce the retraced chain exactly
    beta, sweeps = 3.0, 3001
    kwargs = {"burn_in": sweeps // 5, "factor": _cosh_factor(1.5, n, two_s), **kwargs}
    for seed in (3, 4):
        got, stats = lp.mcmc_run(n, two_s, beta, u, theta, sweeps, np.random.default_rng(seed), **kwargs)
        want, want_stats = _reference_chain(n, two_s, beta, u, theta, sweeps, np.random.default_rng(seed),
                                            **kwargs)
        assert got == want
        assert stats == want_stats
        assert stats.accepted_inserts > 0 and stats.accepted_deletes > 0


@pytest.mark.parametrize("n, two_s, u, theta", [(8, 1, 0.5, 2.0), (5, 2, 0.0, 3.0), (4, 3, 0.6, 2.0)])
def test_mcmc_loop_records_match_a_fresh_walk(n, two_s, u, theta, monkeypatch):
    # every live segment's loop record and sense, as the chain leaves them,
    # against a walk of the final configuration's loops
    events = []

    class Event(lp._Event):
        __slots__ = ()

        def __init__(self, *args):
            super().__init__(*args)
            events.append(self)

    monkeypatch.setattr(lp, "_Event", Event)
    for seed in (5, 6):
        events.clear()
        _, stats = lp.mcmc_run(n, two_s, 3.0, u, theta, 4000, np.random.default_rng(seed), 4000 // 5, _one)
        # bottom sentinels and the ends of links still in place
        live = [x for x in events if x.time == -math.inf or
                (x.time < math.inf and x.partner is not None and x.partner.partner is x)]
        assert len(live) == n * two_s + 2 * stats.links_trace[-1]  # the last sweep is kept
        records, seen = set(), set()
        for start in live:
            if start in seen:
                continue
            walk, x, up = [], start, True
            while not walk or x is not start:
                walk.append((x, up))
                f = x.up.partner if up else x.partner
                up = up != f.kind
                x = f if up else f.down
            seen.update(x for x, _ in walk)
            loop = start.loop
            assert loop not in records and all(x.loop is loop for x, _ in walk)
            assert (loop.marks, loop.segs) == (sum(x.marked for x, _ in walk), len(walk))
            assert len({x.sense == up for x, up in walk}) == 1
            records.add(loop)
        assert seen == set(live)


def _event_lists(config):
    """The chain's thread event lists (sentinels, link ends, wrap) for a configuration.

    Every loop through a wrap segment carries a record; the others, which
    no sigma move touches, are left unlabelled.
    """
    bottoms = [lp._Event(-math.inf, lp.CROSS, 1) for _ in range(config.n_threads)]
    tops = [lp._Event(math.inf, lp.CROSS) for _ in range(config.n_threads)]
    for bottom, top in zip(bottoms, tops):
        bottom.up, top.down = top, bottom
    for v, w, t, kind in config.links:
        x, y = lp._Event(t, kind), lp._Event(t, kind)
        x.partner, y.partner = y, x
        lp._attach(x, lp._below(bottoms[v], t))
        lp._attach(y, lp._below(bottoms[w], t))
    for site, sigma in enumerate(config.site_perms):
        lp._wire(tops, bottoms, site, sigma)
    for top in tops:
        top.down.loop = None
    for site, sigma in enumerate(config.site_perms):
        lp._rewire(tops, bottoms, site, sigma)
    return bottoms, tops


@pytest.mark.parametrize("two_s", [2, 3, 4])
def test_wrap_loops_match_retrace(two_s):
    # a sigma_i move: the records at site i's wrap segments before rewiring and
    # the loops walked after it are exactly the loops two full retraces tell apart
    rng = np.random.default_rng(70 + two_s)
    for n in (2, 3, 5):
        for _ in range(10):
            config = oracles.sample_free_links(n, two_s, 3.0, 0.5, rng)
            bottoms, tops = _event_lists(config)
            before = oracles.trace_loops(config)
            for site in range(n):
                sigma_old = config.site_perms[site]
                for sigma in itertools.permutations(range(two_s)):
                    old, new = lp._rewire(tops, bottoms, site, sigma)
                    back_old, back = lp._rewire(tops, bottoms, site, sigma_old)
                    assert set(new) == back_old
                    out, into = [x.marks for x in old], [x.marks for x in new]
                    assert sorted(out) == sorted(x.marks for x in back)
                    assert sum(x.segs for x in old) == sum(x.segs for x in new)
                    config.site_perms[site] = sigma
                    after = oracles.trace_loops(config)
                    config.site_perms[site] = sigma_old
                    assert len(into) - len(out) == after.n_loops_total - before.n_loops_total
                    out_c = Counter(x for x in out if x)
                    into_c = Counter(x for x in into if x)
                    old_c, new_c = Counter(before.lengths), Counter(after.lengths)
                    assert old_c - new_c == out_c - into_c
                    assert new_c - old_c == into_c - out_c
                    assert out_c <= old_c and into_c <= new_c
                    assert old_c - out_c == new_c - into_c  # the loops left alone
            assert oracles.trace_loops(config) == before


@pytest.mark.parametrize("two_s", [2, 3])
@pytest.mark.parametrize("theta", [1.0, 2.0, 3.0])
def test_sigma_moves_sample_ewens_cycles(two_s, theta):
    # at beta = 1e-12 an insertion is accepted with probability ~1e-12, so
    # there are no links: the loops are the cycles of the sigma_i, and each
    # site's cycle type is Ewens(theta) on S_{2S}.  tau_int is ~115 sweeps at
    # 2S = 3, theta = 2, far below the 25,000-sweep batches of the SE
    n = 3
    samples, stats = lp.mcmc_run(n, two_s, 1e-12, 1.0, theta, 1_000_000,
                                 np.random.default_rng(80 + 10 * two_s + int(theta)), 1_000_000 // 5, _one)
    assert stats.accepted_inserts == 0 and stats.accepted_perm_moves > 0
    mean, se = lp.batch_means_se([s.n_loops_total for s in samples])
    target = n * sum(theta / (theta + i) for i in range(two_s))
    assert abs(mean - target) < 3 * se


class _CountingGenerator:
    """A numpy Generator that counts every method call made on it."""

    def __init__(self, rng):
        self.rng, self.calls = rng, 0

    def __getattr__(self, name):
        method = getattr(self.rng, name)

        def counted(*args, **kwargs):
            self.calls += 1
            return method(*args, **kwargs)

        return counted


def test_mcmc_draws_from_generator_in_blocks():
    # a scalar draw per proposal would make ~sweeps calls; blocks make a few
    sweeps = 20_000
    rng = _CountingGenerator(np.random.default_rng(9))
    _, stats = lp.mcmc_run(6, 2, 2.0, 0.5, 2.0, sweeps, rng, sweeps // 5, _one)
    assert stats.accepted_perm_moves > 0 and stats.accepted_deletes > 0
    # at most 5 uniforms a proposal: move type, edge, time, kind, Metropolis test
    assert 1 <= rng.calls <= 5 * sweeps // lp._BLOCK + 1


def test_mcmc_observable_once_per_distinct_spectrum():
    # factor is called once for the unit and once per loop length kept in the
    # run, equal retained spectra are one object, and every sample carries
    # the product of its factors
    n, h = 8, 1.3
    cosh = _cosh_factor(h, n, 1)
    for thin in (1, 3):
        calls = []
        factor = lambda m: calls.append(m) or cosh(m)
        samples, stats = lp.mcmc_run(n, 1, 2.0, 1.0, 2.0, 2000, np.random.default_rng(8),
                                     burn_in=2000 // 5, factor=factor, thin=thin)
        distinct = set(samples)
        assert len(calls) == len(set(calls))
        assert set(calls) == {0}.union(*(s.lengths for s in distinct))
        assert len({id(s) for s in samples}) == len(distinct) < len(samples)
        # the chain leaves a spectrum and comes back to it
        assert sum(a != b for a, b in zip(samples, samples[1:])) > 10 * len(distinct)
        assert stats.observable_trace == [oracles.observable_cosh_per_loop(s, h, n, 1) for s in samples]


def test_mcmc_poisson_equilibrium():
    # theta = 1 is plain birth-death: mean link count = total Poisson mass
    rng = np.random.default_rng(13)
    n, beta = 3, 2.0
    lam = 3 * beta / n
    _, stats = lp.mcmc_run(n, 1, beta, 1.0, 1.0, 60_000, rng, 60_000 // 5, _one)
    mean, se = lp.batch_means_se(stats.links_trace)
    assert abs(mean - lam) < 3 * se
    assert stats.accepted_inserts <= stats.proposed_inserts
    assert stats.accepted_deletes <= stats.proposed_deletes
    assert stats.accepted_perm_moves <= stats.proposed_perm_moves


def test_mcmc_toy_chain_matches_exact_stationarity():
    # n=2, S=1/2, u=1: one pseudo-edge of Poisson mass lam = beta/2, and the
    # loop count is 2 for an even link count k and 1 for an odd one, so the
    # stationary law is pi(k) = theta^{L(k)} lam^k/k! / (theta^2 cosh lam + theta sinh lam)
    theta, beta = 2.0, 0.8
    lam = beta / 2
    pi = np.array([theta ** (2 - k % 2) * lam**k / math.factorial(k) for k in range(4)])
    pi /= theta**2 * math.cosh(lam) + theta * math.sinh(lam)
    pi = np.append(pi, 1.0 - pi.sum())  # k >= 4
    rng = np.random.default_rng(41)
    _, stats = lp.mcmc_run(2, 1, beta, 1.0, theta, 1_000_000, rng, 10_000, _one)
    ks = np.minimum(stats.links_trace, 4)
    emp = np.bincount(ks, minlength=5) / len(ks)
    assert 0.5 * np.abs(emp - pi).sum() < 1e-3


def test_mcmc_cross_engine_heisenberg_small():
    rng = np.random.default_rng(23)
    n, beta, h = 4, 2.0, 1.0
    exact = sp.heisenberg_expectation_exact(n, 1, beta, 1.0, h)
    _, stats = lp.mcmc_run(
        n, 1, beta, 1.0, 2.0, 120_000, rng, 120_000 // 5, _cosh_factor(h / 2, n, 1),
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
    samples, _ = lp.mcmc_run(n, 1, 0.4, 1.0, 2.0, 15_000, rng, 15_000 // 5, _one)
    report = oracles.pd_comparison(samples, n, 1, 1.0, 2.0, 0.0, [0.25, 0.5], rng)
    assert report.skipped_macroscopic
    assert report.ks_statistic is None
    assert "z*" in report.notice
    for row in report.rows:
        assert row["limit"] == 1.0
        assert abs(row["mc_mean"] - 1.0) < 0.03  # O(1/n) finite-size offset


def test_pd_comparison_report_structure():
    rng = np.random.default_rng(19)
    samples, _ = lp.mcmc_run(6, 1, 3.0, 1.0, 2.0, 20_000, rng, 20_000 // 5, _one)
    report = oracles.pd_comparison(samples, 6, 1, 1.0, 2.0, 0.8, [1.0], rng, n_reference=2000)
    assert not report.skipped_macroscopic
    assert report.ks_statistic is not None and 0.0 <= report.ks_statistic <= 1.0
    assert set(report.rows[0]) == {"h", "mc_mean", "mc_se", "limit", "abs_gap", "within_3se"}


def test_pd_comparison_ks_statistic_matches_ks_2samp(monkeypatch):
    from scipy.stats import ks_2samp

    # loop lengths are integers, and the reference is put on the same grid,
    # so both samples carry many ties, within and across them
    rng = np.random.default_rng(31)
    n, two_s, z_star = 20, 1, 0.5
    scale = two_s * n * z_star
    worst = 0.0
    for _ in range(200):
        lengths = rng.integers(0, 11, size=rng.integers(2, 60))
        spectra = [lp.LoopSpectrum((int(l),) if l else (), 1) for l in lengths]
        reference = rng.integers(0, 11, size=rng.integers(2, 60)) / scale
        monkeypatch.setattr(pd, "stick_breaking_columns", lambda *args: iter([reference]))
        report = oracles.pd_comparison(spectra, n, two_s, 1.0, 2.0, z_star, [], rng)
        expected = ks_2samp(lengths / scale, reference).statistic
        worst = max(worst, abs(report.ks_statistic - expected))
    assert worst <= 2e-16


def test_bessel_i0_against_mpmath():
    # np.i0 carries the u < 1 limit I_0(h z*) in pd_comparison and the CLI
    mpmath = pytest.importorskip("mpmath")
    xs = np.concatenate([np.linspace(0.0, 50.0, 2001), np.logspace(-6, math.log10(700.0), 400)])
    with mpmath.workdps(40):
        worst = max(abs(float(np.i0(x)) / float(mpmath.besseli(0, x)) - 1.0) for x in xs)
    assert worst <= 1e-15


@pytest.mark.slow
def test_pd_comparison_ordered_phase_matches_limits():
    # calibrated cross-check of the conjectured limit laws at n = 128
    from spinloops import asymptotics as asy

    z = asy.m_star(3.0, 1).location / 0.5
    n = 128
    rng = np.random.default_rng(57)
    samples, _ = lp.mcmc_run(n, 1, 3.0, 1.0, 2.0, 60_000, rng, 60_000 // 5, _one, thin=5)
    report = oracles.pd_comparison(samples, n, 1, 1.0, 2.0, z, [2.0], rng, n_reference=4000)
    assert report.rows[0]["abs_gap"] < 0.05
    rng2 = np.random.default_rng(59)
    samples2, _ = lp.mcmc_run(n, 1, 3.0, 0.5, 2.0, 60_000, rng2, 60_000 // 5, _one, thin=5)
    report2 = oracles.pd_comparison(samples2, n, 1, 0.5, 1.0, z, [2.0], rng2, n_reference=4000)
    assert report2.rows[0]["abs_gap"] < 0.05


@pytest.mark.parametrize("two_s", [2, 3])
def test_sigma_noop_moves_skip_the_walk(monkeypatch, two_s):
    # a sigma_i redraw equal to the wiring in place is accepted without a walk
    calls = []
    rewire = lp._rewire

    def spy(tops, bottoms, site, sigma):
        base = site * len(sigma)
        calls.append(all(tops[base + a].partner is bottoms[base + b] for a, b in enumerate(sigma)))
        return rewire(tops, bottoms, site, sigma)

    monkeypatch.setattr(lp, "_rewire", spy)
    _, stats = lp.mcmc_run(6, two_s, 2.0, 0.5, 2.0, 5000, np.random.default_rng(1), 5000 // 5, _one)
    assert stats.proposed_perm_moves > 100 and calls
    assert not any(calls)
