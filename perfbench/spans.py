"""Span tracing of the spinloops modules, installed from outside the package.

``Tracer.install`` replaces module attributes with wrappers.  The CLI and
the calls inside each module look those attributes up at call time, so
nested calls are recorded too (``_log_degeneracies`` inside
``heisenberg_expectation_exact``, ``x_star`` inside ``m_star``).

Spans are kept in memory as rows ``[name_id, parent, invocation, start,
end]`` and written out once, by ``dump``, after the traced pass.
"""

from __future__ import annotations

import functools
import gzip
import inspect
import time
from collections import Counter, defaultdict

# Functions called millions of times in a pass (the scalar entropy helpers
# inside the maximiser scans).  Wrapping them would cost more than the work
# they do, so they stay unwrapped and their time counts towards the caller.
SKIP = {
    "asymptotics": {"eta", "eta_prime", "eta_second", "g_beta", "phi_beta"},
}
# Hot functions whose calls are counted without a span.
COUNT_ONLY = {
    "asymptotics": {"x_star", "classical_field"},
    "pd": {"q_eval"},
}
# Private functions that mark a layer boundary worth a span of its own.
EXTRA_SPANS = {
    "spectra": {"_log_degeneracies"},
}
# Modules without __all__ whose listed functions get spans.
ENTRY_POINTS = {
    "cli": {"main"},
}


class Tracer:
    """Records spans and counts for one traced pass."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.rows: list[list] = []
        self.stack: list[int] = []
        self.invocation = -1
        self.counts: Counter = Counter()
        # qualified name -> [(span index, summary returned by its hook)]
        self.results: dict[str, list[tuple[int, object]]] = defaultdict(list)
        self._undo: list[tuple[object, str, object]] = []

    # -- wrappers ---------------------------------------------------------

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def span(self, name: str, fn, on_call=None):
        """Wrap fn in a span; on_call(args, kwargs, result) may return a summary."""
        nid = self._name_id(name)
        rows, stack, clock = self.rows, self.stack, self.clock

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(rows)
            row = [nid, stack[-1] if stack else -1, self.invocation, clock(), 0.0]
            rows.append(row)
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                row[4] = clock()
                stack.pop()
            if on_call is not None:
                self.results[name].append((idx, on_call(args, kwargs, result)))
            return result

        return wrapper

    def counter(self, name: str, fn):
        counts = self.counts
        key = name + ".calls"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    def yield_counter(self, name: str, genfn):
        counts = self.counts
        calls, items = name + ".calls", name + ".items"

        @functools.wraps(genfn)
        def wrapper(*args, **kwargs):
            counts[calls] += 1
            for item in genfn(*args, **kwargs):
                counts[items] += 1
                yield item

        return wrapper

    # -- installation -----------------------------------------------------

    def _patch(self, module, attr: str, new) -> None:
        self._undo.append((module, attr, getattr(module, attr)))
        setattr(module, attr, new)

    def install(self, modules: dict[str, object], hooks: dict[str, object] | None = None):
        """Wrap the public functions of each module (short name -> module).

        hooks maps a qualified name such as "loops.mcmc_run" to an
        on_call(args, kwargs, result) summary function.
        """
        hooks = hooks or {}
        for short, module in modules.items():
            names = set(getattr(module, "__all__", ())) | ENTRY_POINTS.get(short, set())
            names |= EXTRA_SPANS.get(short, set())
            for attr in sorted(names - SKIP.get(short, set())):
                obj = getattr(module, attr)
                if isinstance(obj, type) or not callable(obj):
                    continue
                qual = f"{short}.{attr}"
                if attr in COUNT_ONLY.get(short, ()):
                    self._patch(module, attr, self.counter(qual, obj))
                elif inspect.isgeneratorfunction(obj):
                    # a span opened at creation would close before the caller
                    # consumes anything, so generators count their yields
                    self._patch(module, attr, self.yield_counter(qual, obj))
                else:
                    self._patch(module, attr, self.span(qual, obj, hooks.get(qual)))

    def uninstall(self) -> None:
        while self._undo:
            module, attr, old = self._undo.pop()
            setattr(module, attr, old)

    # -- analysis ---------------------------------------------------------

    def durations(self) -> list[float]:
        return [row[4] - row[3] for row in self.rows]

    def self_times(self) -> list[float]:
        """Each span's duration minus the time its child spans cover.

        In a single thread a span's children run one after another inside
        it, so the part they cover is the sum of their durations.
        """
        durs = self.durations()
        out = list(durs)
        for row, dur in zip(self.rows, durs):
            if row[1] >= 0:
                out[row[1]] -= dur
        return out

    def busy(self, names) -> float:
        """Time covered by spans of any of `names`, nested ones counted once."""
        ids = {self._ids[n] for n in names if n in self._ids}
        covered = [False] * len(self.rows)  # inside an outer span of the group
        total = 0.0
        for idx, row in enumerate(self.rows):
            parent = row[1]
            inside = parent >= 0 and (covered[parent] or self.rows[parent][0] in ids)
            covered[idx] = inside
            if row[0] in ids and not inside:
                total += row[4] - row[3]
        return total

    def self_time(self, name: str, self_times: list[float] | None = None) -> float:
        nid = self._ids.get(name)
        selfs = self.self_times() if self_times is None else self_times
        return sum(s for row, s in zip(self.rows, selfs) if row[0] == nid)

    def calls(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            return self.counts.get(name + ".calls", 0)
        return sum(1 for row in self.rows if row[0] == nid)

    def dump(self, path) -> None:
        """Write every span as CSV (gzip): invocation, index, parent, name, start, end."""
        with gzip.open(path, "wt") as fh:
            fh.write("invocation,index,parent,name,start_s,end_s\n")
            for idx, (nid, parent, inv, start, end) in enumerate(self.rows):
                fh.write(f"{inv},{idx},{parent},{self.names[nid]},{start!r},{end!r}\n")
