"""Random loop soups on the complete graph: the Metropolis chain and its observables.

Geometry.  Each of the n sites hosts two_s pseudo-sites ("threads"); links
live on inter-site pseudo-edges {(i,a),(j,b)} with i < j.  A link is a
(time, kind) mark with kind cross or double bar.  Spin 1/2 uses the time
interval [0, beta/n) with a periodic wrap at 0; higher spins use
[-beta/2n, beta/2n) with a uniform permutation sigma_i rewiring the 2S
threads of site i at the wrap.

Loops.  A configuration cuts every thread into vertical segments.  Each
link pairs the four segment ends meeting it (a cross preserves the vertical
direction across the edge, a bar reverses it) and the wrap pairs thread
tops to sigma-shifted thread bottoms.  Loops are the cycles of segments
under this pairing; the length of a loop is the number of marked time-0
points it visits (the wrap line for spin 1/2, the mid-interval level
otherwise), so lengths always sum to 2S n.  Loops of length zero exist and
are counted in the loop total but not stored.  The tests check the chain
against tests/oracles.py, which traces free configurations by this pairing.

Model.  Links join threads of different sites only, so for theta = 2 the
chain samples the pairwise Hamiltonian -(2/n) sum_{i<j} (S_i1 S_j1 + S_i2 S_j2
+ Delta S_i3 S_j3), Delta = 2u - 1.  For spin S >= 1 and u < 1 that is not
the total-spin form of spinloops.spectra (the exact command), which differs
from it by the one-site term sum_i (S_i3)^2: at 2S = 2, u = 0.5, n = 3,
beta = 2, h = 1 the pairwise model gives 1.318045 and the total-spin form
1.329034.

MCMC.  Metropolis birth/death of single links plus permutation resampling
targets theta^{#loops} times the Poisson link measure: with Lambda the total
Poisson mass and k the current link count, an insertion at a uniform
pseudo-edge, uniform time, kind cross with probability u, is accepted with
min(1, theta^{dL} Lambda/(k+1)); a deletion of a uniform link with
min(1, theta^{dL} k/Lambda); a sigma_i resample with min(1, theta^{dL}).
The kind proposal probabilities (u, 1-u) cancel against the marked Poisson
intensities.  The chain keeps its loops incrementally (Beard & Wiese, PRL
1996): threads hold time-ordered linked event lists, and every segment holds
its loop's record (length, segment count) and a sense, whether the loop's
canonical traversal crosses it going up.  A link birth or death reads dL off
these in O(1): points on different loops merge (-1); on one loop, a cross
between equal senses or a bar between opposite ones splits it (+1), else
reroutes it (0); a link goes by a split when the senses just below and above
one of its ends agree.  A rejected move walks nothing.  An accepted merge
relabels the loop with fewer segments; a split or reroute walks the two arcs
at the link in turn until one closes and relabels or reverses only that one
(Even & Shiloach, J. ACM 1981).  A sigma_i resample reads the old loops off
site i's 2S wrap segments and walks the new ones once.  Every draw comes from
_uniforms(rng), which takes rng.random in blocks; an integer below m is
int(u m), within m 2^-53 of uniform.  A drawn edge index e counts the
C(n,2) (2S)^2 pseudo-edges in site-major order (site pairs i < j, then
thread slots a, b) and is decoded from per-site offsets; the chain never
lists the edges.

Samples.  Every loop observable is a product with one factor per loop
(cosh(h l / 2Sn) for the spin models, q_h(l / n) for the interchange model),
and mcmc_run takes that factor.  A chain keeps returning to spectra it has
seen, so mcmc_run interns the retained spectra of a run: equal ones are one
object, and the product is formed once per distinct spectrum, from a per-run
table that computes each loop length's factor once.
"""

from __future__ import annotations

import bisect
import functools
import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

__all__ = [
    "CROSS",
    "BAR",
    "LoopSpectrum",
    "McmcStats",
    "mcmc_run",
    "batch_means_se",
]

CROSS = 0
BAR = 1
_BLOCK = 4096  # uniforms the chain draws from its generator per call
_BATCHES = 32  # batches of batch_means_se


class LoopSpectrum(NamedTuple):
    """Positive loop lengths in decreasing order; total includes zero-length loops."""

    lengths: tuple[int, ...]
    n_loops_total: int


@dataclass
class McmcStats:
    proposed_inserts: int = 0
    proposed_deletes: int = 0
    proposed_perm_moves: int = 0
    accepted_inserts: int = 0
    accepted_deletes: int = 0
    accepted_perm_moves: int = 0
    observable_trace: list[float] = field(default_factory=list)
    links_trace: list[int] = field(default_factory=list)


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
    that segment holds its thread's time-0 point (just below time 0); `loop`
    and `sense` are its loop's record and sense (see the module docstring).
    """

    __slots__ = ("time", "kind", "marked", "partner", "up", "down", "loop", "sense")

    def __init__(self, time: float, kind: int, marked: int = 0):
        self.time, self.kind, self.marked = time, kind, marked


class _Loop:
    """A loop's record: its length (marked segments) and its segment count."""

    __slots__ = ("marks", "segs")

    def __init__(self, marks: int, segs: int):
        self.marks, self.segs = marks, segs


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


def _race(s: _Event, s_up: bool, r: _Event, r_up: bool) -> list[_Event]:
    """Walk from segments s and r in turn, leaving each upward if s_up (r_up), until one enters a stop.

    Stops are segments whose loop the caller set to None.  Returns the walk
    that got there first, start and stop included.  A step crosses the end
    it reaches: a cross keeps the direction, a bar (kind 1) reverses it.
    """
    arc_s, arc_r = [s], [r]
    push_s, push_r = arc_s.append, arc_r.append
    x, y = s, r
    while True:
        f = x.up.partner if s_up else x.partner
        s_up = s_up != f.kind
        x = f if s_up else f.down
        push_s(x)
        if x.loop is None:
            return arc_s
        f = y.up.partner if r_up else y.partner
        r_up = r_up != f.kind
        y = f if r_up else f.down
        push_r(y)
        if y.loop is None:
            return arc_r


def _merge(s: _Event, r: _Event, flip: bool, lengths: list[int]) -> _Loop:
    """Join the loops of s and r under one record; the caller adds the change in segments.

    The loop with fewer segments is walked (the steps of _race) and
    relabelled, its senses reversed if flip.
    """
    if s.loop.segs > r.loop.segs:
        s, r = r, s
    small, big = s.loop, r.loop
    x, up = s, True
    while True:
        f = x.up.partner if up else x.partner
        up = up != f.kind
        x = f if up else f.down
        x.loop = big
        if flip:
            x.sense = not x.sense
        if x is s:
            break
    _regroup(lengths, (small.marks, big.marks), (small.marks + big.marks,))
    big.marks += small.marks
    big.segs += small.segs
    return big


def _resolve(x: _Event, y: _Event, r: _Event, split: bool, gone: int, lengths: list[int]) -> None:
    """Relabel for a link x-y on one loop, just added or about to go.

    The loop's two arcs between the link's four segments, one leaving x
    upward and one leaving r (x.down or y.down) downward, are raced.  If the
    move splits the loop, each arc is a loop after it, senses as they are,
    and the shorter gets a new record, less the `gone` segments the move
    deletes.  Otherwise the link joins the arcs the other way round, and the
    shorter is reversed.
    """
    a, b, loop = x.down, y.down, r.loop
    a.loop = b.loop = x.loop = y.loop = None  # the stops
    arc = _race(x, True, r, False)
    a.loop = b.loop = x.loop = y.loop = loop
    if not split:
        for z in arc:
            z.sense = not z.sense
        return
    new, marks = _Loop(0, len(arc) - gone), 0
    for z in arc:
        z.loop = new
        marks += z.marked
    new.marks = marks
    _regroup(lengths, (loop.marks,), (loop.marks - new.marks, new.marks))
    loop.marks -= new.marks
    loop.segs -= new.segs


def _regroup(lengths: list[int], old, new) -> None:
    """Swap loops of lengths `old` for loops of lengths `new` in a sorted list."""
    for x in old:
        if x:
            del lengths[bisect.bisect_left(lengths, x)]
    for x in new:
        if x:
            bisect.insort(lengths, x)


def _uniforms(rng: np.random.Generator):
    """Uniforms on [0, 1) from rng, _BLOCK at a time.

    u is a multiple of 2^-53, so int(u * m) < m is within m * 2^-53 of uniform in total variation.
    """
    while True:
        yield from rng.random(_BLOCK).tolist()


def _permutation(draw, m: int) -> tuple[int, ...]:
    """A uniform permutation of range(m) by Fisher-Yates on the uniforms of draw()."""
    p = list(range(m))
    for a in range(m - 1, 0, -1):
        b = int(draw() * (a + 1))
        p[a], p[b] = p[b], p[a]
    return tuple(p)


def _rewire(tops: list, bottoms: list, site: int, sigma: tuple) -> tuple[set, list]:
    """Wire site's wrap to sigma; the records of the loops through it before and after.

    Each new loop is walked once (the steps of _race) from its first wrap
    segment, and takes the walk's directions as its senses.
    """
    wraps = [tops[site * len(sigma) + a].down for a in range(len(sigma))]
    old = {x.loop for x in wraps}
    _wire(tops, bottoms, site, sigma)
    new = []
    for s in wraps:
        if s.loop in old:
            loop = _Loop(0, 0)
            new.append(loop)
            x, up = s, True
            while True:
                x.loop, x.sense = loop, up
                loop.marks += x.marked
                loop.segs += 1
                f = x.up.partner if up else x.partner
                up = up != f.kind
                x = f if up else f.down
                if x is s:
                    break
    return old, new


def mcmc_run(
    n: int,
    two_s: int,
    beta: float,
    u: float,
    theta: float,
    n_sweeps: int,
    rng: np.random.Generator,
    burn_in: int,
    factor,
    thin: int = 1,
) -> tuple[list[LoopSpectrum], McmcStats]:
    """Metropolis chain with stationary law theta^{#loops} x Poisson links.

    One sweep is one elementary proposal (insert / delete / sigma resample),
    starting from the empty configuration.  Returns the spectra retained
    after the first burn_in sweeps (every `thin`-th sweep) and McmcStats:
    move counts, retained link counts and observable values (not n_sweeps,
    which the caller holds).  The observable of a spectrum is the float
    product of factor(l) over its loop lengths l, in their order, from the
    unit factor(0).  factor is called at most once per length in a run.
    Retained spectra are interned within the run: equal ones are the same
    object, and the product is formed once per distinct retained spectrum,
    its value reused for every later visit.
    All randomness comes from rng.random in blocks (see _uniforms).
    """
    if not (math.isfinite(beta) and beta > 0.0):
        raise ValueError("beta must be finite and positive")
    if not 1.0 <= theta < math.inf:
        raise ValueError("theta must be finite and >= 1 (smaller weights are not needed here)")
    if n_sweeps < 1:
        raise ValueError("n_sweeps must be positive")
    if not 0 <= burn_in < n_sweeps:
        raise ValueError("burn_in must lie in [0, n_sweeps)")
    if thin < 1:
        raise ValueError("thin must be >= 1")
    if n < 2:
        raise ValueError("need n >= 2 sites")
    if not 0.0 <= u <= 1.0:
        raise ValueError("u must lie in [0, 1]")
    span = beta / n  # link times lie in [lo, lo + span), time 0 marked (module docstring)
    lo = 0.0 if two_s == 1 else -0.5 * span
    block = two_s * two_s  # edges between two sites
    # site-major index of site i's first edge (to sites j > i)
    offsets = [block * (i * (2 * n - i - 1) // 2) for i in range(n)]
    n_edges = block * (n * (n - 1) // 2)
    lam = n_edges * span
    perms = [tuple(range(two_s))] * n
    n_threads = n * two_s
    bottoms = [_Event(-math.inf, CROSS, 1) for _ in range(n_threads)]
    tops = [_Event(math.inf, CROSS) for _ in range(n_threads)]
    for bottom, top in zip(bottoms, tops):
        # the empty configuration: every thread closes on itself through one marked point
        bottom.up, top.down, bottom.loop, bottom.sense = top, bottom, _Loop(1, 1), True
    for site in range(n):
        _wire(tops, bottoms, site, perms[site])
    flat: list[_Event] = []  # the lower-thread end of every link, for uniform deletion
    lengths = [1] * n_threads  # ascending; rebuilt into `spectrum` on demand
    n_loops = n_threads
    spectrum = None  # the current spectrum once built, until the loops change
    interned: dict[LoopSpectrum, tuple[LoopSpectrum, float]] = {}  # spectrum -> (kept object, value)
    table = functools.cache(factor)  # loop length -> factor, each computed once
    perm_prob = 0.1 if two_s > 1 else 0.0
    insert_below = perm_prob + 0.5 * (1.0 - perm_prob)
    stats = McmcStats()
    samples: list[LoopSpectrum] = []
    keep, keep_links, keep_value = samples.append, stats.links_trace.append, stats.observable_trace.append
    log_theta = math.log(theta) if theta > 1.0 else 0.0
    draw = _uniforms(rng).__next__
    exp, log, bisect_right = math.exp, math.log, bisect.bisect_right
    n_ins = n_del = n_perm = acc_ins = acc_del = acc_perm = 0
    next_keep = burn_in
    for sweep in range(n_sweeps):
        r = draw()
        if r < perm_prob:
            n_perm += 1
            site = int(draw() * n)
            sigma = _permutation(draw, two_s)
            if sigma == perms[site]:  # a no-op: theta^0 = 1 accepts it without a draw
                acc_perm += 1
            else:
                old, new = _rewire(tops, bottoms, site, sigma)
                log_ratio = (len(new) - len(old)) * log_theta
                if log_ratio >= 0.0 or draw() < exp(log_ratio):
                    _regroup(lengths, [loop.marks for loop in old], [loop.marks for loop in new])
                    n_loops += len(new) - len(old)
                    perms[site], spectrum = sigma, None
                    acc_perm += 1
                else:
                    _rewire(tops, bottoms, site, perms[site])
        elif r < insert_below:
            n_ins += 1
            e = int(draw() * n_edges)
            t = lo + span * draw()
            kind = CROSS if draw() < u else BAR
            i = bisect_right(offsets, e) - 1  # e joins site i to site i + 1 + j
            j, ab = divmod(e - offsets[i], block)
            v, w = i * two_s + ab // two_s, (i + 1 + j) * two_s + ab % two_s
            a, b = _below(bottoms[v], t), _below(bottoms[w], t)
            # a time already taken on either thread has probability zero; reject
            if a is not None and b is not None:
                one, split = a.loop is b.loop, (a.sense == b.sense) == (kind == CROSS)
                d_loops = int(split) if one else -1
                log_ratio = d_loops * log_theta + log(lam / (len(flat) + 1))
                if log_ratio >= 0.0 or draw() < exp(log_ratio):
                    loop = a.loop if one else _merge(a, b, not split, lengths)
                    x, y = _Event(t, kind), _Event(t, kind)
                    x.partner, y.partner = y, x
                    _attach(x, a)
                    _attach(y, b)
                    x.loop, x.sense, y.loop, y.sense = loop, a.sense, loop, b.sense
                    loop.segs += 2
                    if one:
                        _resolve(x, y, a, d_loops, 0, lengths)
                    if d_loops:
                        n_loops += d_loops
                        spectrum = None
                    flat.append(x)
                    acc_ins += 1
        else:
            n_del += 1
            k = len(flat)
            if k > 0:
                j = int(draw() * k)
                # the candidate moves to the end, where a rejected one stays
                flat[j], flat[-1] = flat[-1], flat[j]
                x = flat[-1]
                y = x.partner
                a, b = x.down, y.down
                one = a.loop is x.loop
                d_loops = int(a.sense == x.sense) if one else -1
                log_ratio = d_loops * log_theta + log(k / lam)
                if log_ratio >= 0.0 or draw() < exp(log_ratio):
                    loop = a.loop if one else _merge(a, x, a.sense != x.sense, lengths)
                    if one:  # x's arc holds a when the removal splits the loop; each arc holds x or y
                        _resolve(x, y, b if d_loops else a, d_loops, 1, lengths)
                    loop.segs -= 2
                    _detach(x)
                    _detach(y)
                    x.partner = None  # no cycle left: both ends are freed without the cyclic collector
                    if d_loops:
                        n_loops += d_loops
                        spectrum = None
                    flat.pop()
                    acc_del += 1
        if sweep == next_keep:
            next_keep += thin
            if spectrum is None:
                spectrum = tuple.__new__(LoopSpectrum, (tuple(reversed(lengths)), n_loops))
                seen = interned.get(spectrum)
                if seen is None:
                    value = float(math.prod(map(table, spectrum.lengths), start=table(0)))
                    interned[spectrum] = spectrum, value
                else:
                    spectrum, value = seen
            keep(spectrum)
            keep_links(len(flat))
            keep_value(value)
    stats.proposed_inserts, stats.proposed_deletes, stats.proposed_perm_moves = n_ins, n_del, n_perm
    stats.accepted_inserts, stats.accepted_deletes, stats.accepted_perm_moves = acc_ins, acc_del, acc_perm
    return samples, stats


def batch_means_se(values) -> tuple[float, float]:
    """Mean and batch-means standard error (_BATCHES batches) of a correlated series."""
    arr = np.asarray(values, dtype=float)
    if arr.size == 0:
        raise ValueError("empty series")
    mean = float(arr.mean())
    if arr.size < 2 * _BATCHES:
        se = float(arr.std(ddof=1) / math.sqrt(arr.size)) if arr.size > 1 else math.inf
        return mean, se
    usable = (arr.size // _BATCHES) * _BATCHES
    batches = arr[:usable].reshape(_BATCHES, -1).mean(axis=1)
    se = float(batches.std(ddof=1) / math.sqrt(_BATCHES))
    return mean, se
