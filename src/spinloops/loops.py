"""Random loop soups on the complete graph: direct sampling, tracing, MCMC.

Geometry.  Each of the n sites hosts two_s pseudo-sites ("threads"); links
live on inter-site pseudo-edges {(i,a),(j,b)} with i < j.  A link is a
(time, kind) mark with kind cross or double bar.  Spin 1/2 uses the time
interval [0, beta/n) with a periodic wrap at 0; higher spins use
[-beta/2n, beta/2n) with a uniform permutation sigma_i rewiring the 2S
threads of site i at the wrap.

Tracing.  A configuration cuts every thread into vertical segments.  Each
link pairs the four segment ends meeting it (a cross preserves the vertical
direction across the edge, a bar reverses it) and the wrap pairs thread
tops to sigma-shifted thread bottoms.  Loops are the cycles of segments
under this pairing; the length of a loop is the number of marked time-0
points it visits (the wrap line for spin 1/2, the mid-interval level
otherwise), so lengths always sum to 2S n.  Loops of length zero exist and
are counted in the loop total but not stored.

MCMC.  Metropolis birth/death of single links plus permutation resampling
targets theta^{#loops} times the Poisson link measure: with Lambda the total
Poisson mass and k the current link count, an insertion at a uniform
pseudo-edge, uniform time, kind cross with probability u, is accepted with
min(1, theta^{dL} Lambda/(k+1)); a deletion of a uniform link with
min(1, theta^{dL} k/Lambda); a sigma_i resample with min(1, theta^{dL}).
The kind proposal probabilities (u, 1-u) cancel against the marked Poisson
intensities.  The chain keeps its loops incrementally (the continuous-time
loop bookkeeping of Beard & Wiese, PRL 1996): threads hold time-ordered
linked event lists, and a link birth or death changes the loop count by -1,
0 or +1, decided by one walk along the loop through one of its endpoints.
Points on different loops merge (-1); on one loop, a cross met going the
same way or a bar met going the opposite way splits it (+1), anything else
reroutes it (0).  A deletion is the same test with the link taken out.  The
walk also counts the marked segments, so the loop lengths follow; the second
loop is walked only when a move that changes the count is accepted.  A
sigma_i resample retraces the whole configuration.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass, field
from functools import lru_cache, reduce

import numpy as np
from scipy.special import i0 as _bessel_i0
from scipy.stats import ks_2samp

from . import pd as _pd

__all__ = [
    "CROSS",
    "BAR",
    "LoopConfiguration",
    "LoopSpectrum",
    "McmcStats",
    "PdComparisonReport",
    "pseudo_edges",
    "empty_configuration",
    "sample_free_links",
    "trace_loops",
    "mcmc_run",
    "observable_cosh",
    "observable_q",
    "batch_means_se",
    "pd_comparison",
]

CROSS = 0
BAR = 1


@lru_cache(maxsize=64)
def pseudo_edges(n: int, two_s: int) -> tuple[tuple[int, int], ...]:
    """Inter-site pseudo-edges as thread index pairs, site-major order.

    Thread (i, a) has index i * two_s + a; there are C(n,2) (2S)^2 edges
    (same-site thread pairs carry no links).
    """
    edges = []
    for i in range(n):
        for j in range(i + 1, n):
            for a in range(two_s):
                for b in range(two_s):
                    edges.append((i * two_s + a, j * two_s + b))
    return tuple(edges)


@dataclass
class LoopConfiguration:
    """Poisson link marks plus per-site wrap permutations.

    links[e] is the time-sorted list of (time, kind) on pseudo_edges(n,
    two_s)[e]; times are strictly increasing within an edge.  site_perms[i]
    maps thread slot a to sigma_i(a); it is the identity for two_s = 1.
    """

    n: int
    two_s: int
    beta: float
    u: float
    links: list[list[tuple[float, int]]]
    site_perms: list[tuple[int, ...]]

    @property
    def n_threads(self) -> int:
        return self.n * self.two_s

    @property
    def interval(self) -> tuple[float, float]:
        span = self.beta / self.n
        if self.two_s == 1:
            return (0.0, span)
        return (-0.5 * span, 0.5 * span)

    @property
    def n_links(self) -> int:
        return sum(len(l) for l in self.links)


@dataclass(frozen=True)
class LoopSpectrum:
    """Positive loop lengths in decreasing order; total includes zero-length loops."""

    lengths: tuple[int, ...]
    n_loops_total: int


@dataclass
class McmcStats:
    sweeps: int = 0
    proposed_inserts: int = 0
    proposed_deletes: int = 0
    proposed_perm_moves: int = 0
    accepted_inserts: int = 0
    accepted_deletes: int = 0
    accepted_perm_moves: int = 0
    observable_trace: list[float] = field(default_factory=list)
    links_trace: list[int] = field(default_factory=list)
    final_config: LoopConfiguration | None = field(default=None, compare=False, repr=False)


def empty_configuration(n: int, two_s: int, beta: float, u: float) -> LoopConfiguration:
    if n < 2:
        raise ValueError("need n >= 2 sites")
    if not 0.0 <= u <= 1.0:
        raise ValueError("u must lie in [0, 1]")
    n_edges = len(pseudo_edges(n, two_s))
    return LoopConfiguration(
        n, two_s, beta, u, [[] for _ in range(n_edges)], [tuple(range(two_s))] * n
    )


def sample_free_links(
    n: int, two_s: int, beta: float, u: float, rng: np.random.Generator
) -> LoopConfiguration:
    """Free (unweighted) configuration: independent Poisson links per edge.

    Each pseudo-edge carries a Poisson(beta/n) number of links with uniform
    times (crosses with probability u), and each site gets an independent
    uniform permutation of its two_s threads.
    """
    config = empty_configuration(n, two_s, beta, u)
    lo, hi = config.interval
    span = hi - lo
    for links in config.links:
        count = int(rng.poisson(span))
        if count:
            times = np.sort(lo + span * rng.random(count))
            kinds = rng.random(count) < u
            links.extend(
                (float(t), CROSS if k else BAR) for t, k in zip(times, kinds)
            )
    if two_s > 1:
        config.site_perms = [tuple(int(x) for x in rng.permutation(two_s)) for _ in range(n)]
    return config


def trace_loops(config: LoopConfiguration) -> LoopSpectrum:
    """Deterministic loop decomposition of a configuration.

    Cuts threads into segments at link times, pairs segment ends across
    links and through the wrap, walks the cycles and counts marked time-0
    points per cycle.  Raises ValueError on out-of-interval or non-increasing
    link times.
    """
    edges = pseudo_edges(config.n, config.two_s)
    if len(config.links) != len(edges):
        raise ValueError("links list does not match the pseudo-edge count")
    lo, hi = config.interval
    flat = []
    for e_idx, link_list in enumerate(config.links):
        if not link_list:
            continue
        v, w = edges[e_idx]
        prev_t = None
        for t, kind in link_list:
            if not lo <= t < hi:
                raise ValueError(f"link time {t} outside interval [{lo}, {hi})")
            if prev_t is not None and t <= prev_t:
                raise ValueError("link times must be strictly increasing per edge")
            prev_t = t
            flat.append((v, w, t, kind))
    return _trace_flat(config.n, config.two_s, config.site_perms, flat)


def _trace_flat(n: int, two_s: int, site_perms, flat) -> LoopSpectrum:
    """Loop decomposition from a flat link list of (v, w, t, kind, ...) with v < w."""
    n_threads = n * two_s
    events: list[list] = [[] for _ in range(n_threads)]
    for uid, entry in enumerate(flat):
        v, w, t, kind = entry[0], entry[1], entry[2], entry[3]
        events[v].append((t, uid, w, kind))
        events[w].append((t, uid, v, kind))

    seg_base = [0] * n_threads
    acc = 0
    pos_low = [0] * len(flat)   # event rank on the link's lower thread
    pos_high = [0] * len(flat)  # event rank on the link's upper thread
    for v in range(n_threads):
        ev = events[v]
        ev.sort()
        seg_base[v] = acc
        acc += len(ev) + 1
        for r, (_, uid, w, _) in enumerate(ev):
            if v < w:
                pos_low[uid] = r
            else:
                pos_high[uid] = r
    n_segs = acc

    # ends: 2*seg = bottom, 2*seg + 1 = top
    pair = [-1] * (2 * n_segs)
    for i in range(n):
        sigma = site_perms[i]
        if len(sigma) != two_s:
            raise ValueError("site permutation has the wrong size")
        for a in range(two_s):
            v = i * two_s + a
            w = i * two_s + sigma[a]
            top_end = 2 * (seg_base[v] + len(events[v])) + 1
            bot_end = 2 * seg_base[w]
            pair[top_end] = bot_end
            pair[bot_end] = top_end

    for uid, entry in enumerate(flat):
        v, w, kind = entry[0], entry[1], entry[3]
        rv = pos_low[uid]
        rw = pos_high[uid]
        v_below_top = 2 * (seg_base[v] + rv) + 1
        v_above_bot = 2 * (seg_base[v] + rv + 1)
        w_below_top = 2 * (seg_base[w] + rw) + 1
        w_above_bot = 2 * (seg_base[w] + rw + 1)
        if kind == CROSS:
            pair[v_below_top] = w_above_bot
            pair[w_above_bot] = v_below_top
            pair[w_below_top] = v_above_bot
            pair[v_above_bot] = w_below_top
        else:
            pair[v_below_top] = w_below_top
            pair[w_below_top] = v_below_top
            pair[v_above_bot] = w_above_bot
            pair[w_above_bot] = v_above_bot

    marked = [False] * n_segs
    if two_s == 1:
        for v in range(n_threads):
            marked[seg_base[v]] = True
    else:
        for v in range(n_threads):
            r = 0
            for t, _, _, _ in events[v]:
                if t < 0.0:
                    r += 1
            marked[seg_base[v] + r] = True

    visited = [False] * n_segs
    lengths: list[int] = []
    n_loops = 0
    for s0 in range(n_segs):
        if visited[s0]:
            continue
        n_loops += 1
        count = 0
        end = 2 * s0
        while True:
            seg = end >> 1
            visited[seg] = True
            if marked[seg]:
                count += 1
            end = pair[end ^ 1]
            if end == 2 * s0:
                break
        if count:
            lengths.append(count)
    lengths.sort(reverse=True)
    return LoopSpectrum(tuple(lengths), n_loops)


# ---------------------------------------------------------------------------
# Metropolis sampler for the theta^{#loops} weighted measure
# ---------------------------------------------------------------------------

class _Event:
    """A link end on a thread, or one of the thread's two sentinels.

    The events of a thread form a doubly linked list in time order (down,
    up) between a bottom and a top sentinel; a link end points to its
    partner on the other thread.  The wrap is stored as a cross: the top
    sentinel of thread (i, a) partners the bottom sentinel of (i, sigma_i(a)).
    A segment is named by the event at its lower end, and `marked` is 1 when
    that segment holds its thread's time-0 point (just below time 0).
    """

    __slots__ = ("time", "kind", "thread", "marked", "partner", "up", "down")

    def __init__(self, time: float, kind: int, thread: int, marked: int = 0):
        self.time, self.kind, self.thread, self.marked = time, kind, thread, marked


def _below(bottom: _Event, t: float) -> _Event | None:
    """The event just below time t on bottom's thread; None if t is taken."""
    x = bottom
    while x.up.time < t:
        x = x.up
    return None if x.up.time == t else x


def _attach(e: _Event, a: _Event) -> None:
    """Link e in just above a, taking over a's mark if e lies below time 0."""
    b = a.up
    e.down, e.up, a.up, b.down = a, b, e, e
    e.marked = 0
    if a.marked and e.time < 0.0:
        a.marked, e.marked = 0, 1


def _detach(e: _Event) -> None:
    a, b = e.down, e.up
    a.up, b.down = b, a
    if e.marked:
        a.marked = 1


def _wire(tops: list, bottoms: list, site: int, sigma: tuple) -> None:
    base = site * len(sigma)
    for a, b in enumerate(sigma):
        tops[base + a].partner = bottoms[base + b]
        bottoms[base + b].partner = tops[base + a]


def _walk(x: _Event, up: bool, stop_a: _Event, stop_b: _Event):
    """Follow a loop from inside segment x until it enters stop_a or stop_b.

    Returns the segment entered, the direction on entry (True = up) and the
    marks of the segments passed in between.  A cross keeps the direction
    across its link, a bar (kind 1) reverses it.
    """
    marks = 0
    while True:
        if up:
            f = x.up.partner
            if f.kind:
                x, up = f.down, False
            else:
                x = f
        else:
            f = x.partner
            if f.kind:
                x, up = f, True
            else:
                x = f.down
        if x is stop_a or x is stop_b:
            return x, up, marks
        marks += x.marked


def _probe(a: _Event, b: _Event, t: float, kind: int):
    """Effect of a link of `kind` at time t joining segments a and b.

    Walks up from the point at t in a.  Returns (d_loops, la, up):
    d_loops = -1 if the walk returns to a first (two loops, which the link
    merges; la is the length of a's loop); otherwise it meets b's point,
    going up or down, and the link splits the loop (+1) for a cross met
    going up or a bar met going down, else reroutes it (0); la is then the
    length from a's point to b's point.
    """
    x, up, marks = _walk(a, True, a, b)
    if x is a:
        return -1, marks + a.marked, up
    above_a = a.marked if t < 0.0 else 0
    above_b = b.marked if t < 0.0 else 0
    la = above_a + marks + (b.marked - above_b if up else above_b)
    return (1 if up == (kind == CROSS) else 0), la, up


def _other_length(a: _Event, b: _Event, t: float, d_loops: int, up: bool) -> int:
    """Length of the second loop of a _probe: b's loop, or b's point back to a's."""
    if d_loops < 0:
        return _walk(b, True, b, b)[2] + b.marked
    above_a = a.marked if t < 0.0 else 0
    above_b = b.marked if t < 0.0 else 0
    rest_b = above_b if up else b.marked - above_b
    return rest_b + _walk(b, up, a, a)[2] + a.marked - above_a


def _regroup(lengths: list[int], join: bool, la: int, lb: int) -> None:
    """Swap loops la, lb for one loop la + lb (join) or back, in a sorted list."""
    old, new = ((la, lb), (la + lb,)) if join else ((la + lb,), (la, lb))
    for x in old:
        if x:
            del lengths[bisect.bisect_left(lengths, x)]
    for x in new:
        if x:
            bisect.insort(lengths, x)


def mcmc_run(
    n: int,
    two_s: int,
    beta: float,
    u: float,
    theta: float,
    n_sweeps: int,
    rng: np.random.Generator,
    burn_in: int | None = None,
    thin: int = 1,
    max_links: int | None = None,
    observable=None,
) -> tuple[list[LoopSpectrum], McmcStats]:
    """Metropolis chain with stationary law theta^{#loops} x Poisson links.

    One sweep is one elementary proposal (insert / delete / sigma resample),
    starting from the empty configuration.  Returns the retained post-burn-in
    spectra (every `thin`-th sweep) and move statistics, with the final
    configuration in stats.final_config; burn_in defaults to 20% of
    n_sweeps.  `observable` is evaluated once per distinct retained spectrum.
    max_links caps the link count (proposals beyond it are rejected), which
    truncates the target measure and is used by the finite-state-space
    validation tests.
    """
    if theta < 1.0:
        raise ValueError("theta must be >= 1 (smaller weights are not needed here)")
    if n_sweeps < 1:
        raise ValueError("n_sweeps must be positive")
    if burn_in is None:
        burn_in = n_sweeps // 5
    if not 0 <= burn_in < n_sweeps:
        raise ValueError("burn_in must lie in [0, n_sweeps)")
    if thin < 1:
        raise ValueError("thin must be >= 1")
    config = empty_configuration(n, two_s, beta, u)
    lo, hi = config.interval
    span = hi - lo
    edges = pseudo_edges(n, two_s)
    n_edges = len(edges)
    lam = n_edges * span
    perms = config.site_perms
    n_threads = n * two_s
    bottoms = [_Event(-math.inf, CROSS, v, 1) for v in range(n_threads)]
    tops = [_Event(math.inf, CROSS, v) for v in range(n_threads)]
    for bottom, top in zip(bottoms, tops):
        bottom.up, top.down = top, bottom
    for site in range(n):
        _wire(tops, bottoms, site, perms[site])
    flat: list[_Event] = []  # the lower-thread end of every link, for uniform deletion
    spectrum = _trace_flat(n, two_s, perms, flat)
    n_loops = spectrum.n_loops_total
    lengths = sorted(spectrum.lengths)  # ascending; rebuilt into `spectrum` on demand
    perm_prob = 0.1 if two_s > 1 else 0.0
    stats = McmcStats()
    samples: list[LoopSpectrum] = []
    observed, value = None, 0.0
    log_theta = math.log(theta) if theta > 1.0 else 0.0

    def accept(d_loops: int, log_factor: float) -> bool:
        log_ratio = d_loops * log_theta + log_factor
        if log_ratio >= 0.0:
            return True
        return rng.random() < math.exp(log_ratio)

    for sweep in range(n_sweeps):
        r = rng.random()
        if r < perm_prob:
            stats.proposed_perm_moves += 1
            site = int(rng.integers(n))
            old = perms[site]
            perms[site] = tuple(int(x) for x in rng.permutation(two_s))
            links = [(x.thread, x.partner.thread, x.time, x.kind) for x in flat]
            new_spectrum = _trace_flat(n, two_s, perms, links)
            if accept(new_spectrum.n_loops_total - n_loops, 0.0):
                spectrum, n_loops = new_spectrum, new_spectrum.n_loops_total
                lengths = sorted(spectrum.lengths)
                _wire(tops, bottoms, site, perms[site])
                stats.accepted_perm_moves += 1
            else:
                perms[site] = old
        elif r < perm_prob + 0.5 * (1.0 - perm_prob):
            stats.proposed_inserts += 1
            k = len(flat)
            if max_links is None or k < max_links:
                e = int(rng.integers(n_edges))
                t = lo + span * rng.random()
                kind = CROSS if rng.random() < u else BAR
                v, w = edges[e]
                a, b = _below(bottoms[v], t), _below(bottoms[w], t)
                # a time already taken on either thread has probability zero; reject
                if a is not None and b is not None:
                    d_loops, la, up = _probe(a, b, t, kind)
                    if accept(d_loops, math.log(lam / (k + 1))):
                        if d_loops:
                            lb = _other_length(a, b, t, d_loops, up)
                            _regroup(lengths, d_loops < 0, la, lb)
                            n_loops += d_loops
                            spectrum = None
                        x, y = _Event(t, kind, v), _Event(t, kind, w)
                        x.partner, y.partner = y, x
                        _attach(x, a)
                        _attach(y, b)
                        flat.append(x)
                        stats.accepted_inserts += 1
        else:
            stats.proposed_deletes += 1
            k = len(flat)
            if k > 0:
                j = int(rng.integers(k))
                # the candidate moves to the end, where a rejected one stays
                flat[j], flat[-1] = flat[-1], flat[j]
                x = flat[-1]
                y = x.partner
                _detach(x)
                _detach(y)
                a, b = x.down, y.down
                d_loops, la, up = _probe(a, b, x.time, x.kind)
                if accept(-d_loops, math.log(k / lam)):
                    if d_loops:
                        lb = _other_length(a, b, x.time, d_loops, up)
                        _regroup(lengths, d_loops > 0, la, lb)
                        n_loops -= d_loops
                        spectrum = None
                    flat.pop()
                    stats.accepted_deletes += 1
                else:
                    _attach(x, a)
                    _attach(y, b)
        stats.sweeps += 1
        if sweep >= burn_in and (sweep - burn_in) % thin == 0:
            if spectrum is None:
                spectrum = LoopSpectrum(tuple(reversed(lengths)), n_loops)
            samples.append(spectrum)
            stats.links_trace.append(len(flat))
            if observable is not None:
                if spectrum != observed:
                    observed, value = spectrum, float(observable(spectrum))
                stats.observable_trace.append(value)
    index = {vw: e for e, vw in enumerate(edges)}
    for x in flat:
        config.links[index[x.thread, x.partner.thread]].append((x.time, x.kind))
    for links in config.links:
        links.sort()
    stats.final_config = config
    return samples, stats


# ---------------------------------------------------------------------------
# Observables and comparisons
# ---------------------------------------------------------------------------

def observable_cosh(spectrum: LoopSpectrum, h: float, n: int, two_s: int) -> float:
    """prod_i cosh(h l_i / (2 S n)), the rescaled loop generating function."""
    denom = two_s * n
    out = 1.0
    for length in spectrum.lengths:
        out *= math.cosh(h * length / denom)
    return out


def observable_q(spectrum: LoopSpectrum, hvec, n: int, table: dict | None = None) -> complex:
    """prod_i q_h(l_i / n) for the interchange loop model.

    `table` maps a loop length l to q_h(l / n); pass one dict per (hvec, n)
    to evaluate each length once over a run instead of once per loop.
    """
    table = {} if table is None else table
    out = 1.0 + 0.0j
    for length in spectrum.lengths:
        q = table.get(length)
        if q is None:
            q = table[length] = _pd.q_eval(hvec, length / n)
        out *= q
    if all(isinstance(h, (int, float)) for h in hvec):
        return out.real
    return out


def batch_means_se(values, n_batches: int = 32) -> tuple[float, float]:
    """Mean and batch-means standard error for a correlated series."""
    arr = np.asarray(values, dtype=float)
    if arr.size == 0:
        raise ValueError("empty series")
    mean = float(arr.mean())
    if arr.size < 2 * n_batches:
        se = float(arr.std(ddof=1) / math.sqrt(arr.size)) if arr.size > 1 else math.inf
        return mean, se
    usable = (arr.size // n_batches) * n_batches
    batches = arr[:usable].reshape(n_batches, -1).mean(axis=1)
    se = float(batches.std(ddof=1) / math.sqrt(n_batches))
    return mean, se


@dataclass
class PdComparisonReport:
    rows: list[dict]
    ks_statistic: float | None
    ks_pvalue: float | None
    skipped_macroscopic: bool
    notice: str


def pd_comparison(
    spectra: list[LoopSpectrum],
    n: int,
    two_s: int,
    u: float,
    theta: float,
    z_star: float,
    h_values,
    rng: np.random.Generator,
    n_reference: int = 10_000,
) -> PdComparisonReport:
    """Compare equilibrated loop samples to the conjectured limit laws.

    For each h the Monte Carlo mean of prod cosh(h l_i / 2Sn) is set against
    sinh(h z*)/(h z*) for u = 1 and I_0(h z*) for u < 1.  The empirical law
    of l_1/(2 S n z*) is compared to the PD(theta) largest part by a
    two-sample Kolmogorov-Smirnov statistic.  With z* = 0 the macroscopic
    comparison is skipped with a notice.
    """
    rows = []
    for h in h_values:
        vals = [observable_cosh(s, h, n, two_s) for s in spectra]
        mean, se = batch_means_se(vals)
        if u == 1.0:
            limit = float(np.real(_pd.sinhc(h * z_star)))
        else:
            limit = float(_bessel_i0(h * z_star))
        gap = abs(mean - limit)
        rows.append(
            {
                "h": h,
                "mc_mean": mean,
                "mc_se": se,
                "limit": limit,
                "abs_gap": gap,
                "within_3se": gap <= 3.0 * se,
            }
        )
    if z_star <= 0.0:
        return PdComparisonReport(
            rows, None, None, True, "z* = 0: no macroscopic loops to compare"
        )
    scale = two_s * n * z_star
    largest = np.array([(s.lengths[0] if s.lengths else 0) / scale for s in spectra])
    reference = reduce(np.maximum, _pd.stick_breaking_columns(theta, n_reference, rng))
    ks = ks_2samp(largest, reference)
    return PdComparisonReport(rows, float(ks.statistic), float(ks.pvalue), False, "")
