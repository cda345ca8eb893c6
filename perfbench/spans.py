"""In-memory span recorder that wraps twistchain's public functions.

A span is (name, start, end, parent). Spans live in flat lists while the
traced pass runs and are written out only when it ends. Counts that need
the call's arguments or result (bytes produced, matrix dimension, route
taken, exceptions raised) are recorded by probes at the same boundary.

This module imports neither numpy nor twistchain: the tracer patches
whatever module objects it is handed.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import time
from collections import Counter, defaultdict


def self_times(starts, ends, parents):
    """Self time of each span: its duration minus the part of it that its
    child spans cover (overlapping children are counted once)."""
    children = defaultdict(list)
    for i, p in enumerate(parents):
        if p >= 0:
            children[p].append(i)
    out = []
    for i, (s, e) in enumerate(zip(starts, ends)):
        covered = 0.0
        reach = s
        for c in sorted(children.get(i, ()), key=starts.__getitem__):
            lo, hi = max(starts[c], reach), min(ends[c], e)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(e - s - covered)
    return out


class Tracer:
    """Records nested spans around wrapped callables and named blocks."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.names: list[str] = []
        self.name_ids: dict[str, int] = {}
        self.name_of: list[int] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.counts: Counter = Counter()
        self.maxima: dict[str, float] = {}
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def _open(self, name: str) -> int:
        nid = self.name_ids.get(name)
        if nid is None:
            nid = self.name_ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.starts)
        self.name_of.append(nid)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.ends.append(0.0)
        self._stack.append(idx)
        self.starts.append(self.clock())
        return idx

    def _close(self, idx: int) -> None:
        self.ends[idx] = self.clock()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        """A span around a block of benchmark code."""
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx)

    def record_max(self, key: str, value: float) -> None:
        if value > self.maxima.get(key, float("-inf")):
            self.maxima[key] = value

    def wrap(self, name: str, fn, probe=None):
        """Return fn wrapped in a span; probe(tracer, result, exc) runs
        after the span closes, outside the measured interval."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self._open(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                self._close(idx)
                if probe is not None:
                    probe(self, None, exc)
                raise
            self._close(idx)
            if probe is not None:
                probe(self, result, None)
            return result

        return traced

    def install(self, package_modules, layers, probes=None):
        """Wrap every public function defined in one of `layers` (module
        objects) in every namespace of `package_modules` that binds the
        same function object, so callers that imported a function by name
        are traced as well. Returns the span names of the wrapped functions."""
        probes = probes or {}
        wrappers = {}
        for mod in layers:
            short = mod.__name__.rsplit(".", 1)[-1]
            for attr, obj in vars(mod).items():
                if (attr.startswith("_") or not inspect.isfunction(obj)
                        or obj.__module__ != mod.__name__):
                    continue
                name = f"{short}.{attr}"
                wrappers[id(obj)] = (obj, self.wrap(name, obj, probes.get(name)), name)
        for mod in package_modules:
            for attr, obj in list(vars(mod).items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._patches.append((mod, attr, obj))
                    setattr(mod, attr, hit[1])
        return sorted(name for _, _, name in wrappers.values())

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._patches):
            setattr(mod, attr, original)
        self._patches.clear()

    def totals(self) -> dict[str, dict[str, float]]:
        """Per span name: call count and summed self time."""
        selfs = self_times(self.starts, self.ends, self.parents)
        out: dict[str, dict[str, float]] = {}
        for nid, st in zip(self.name_of, selfs):
            agg = out.setdefault(self.names[nid], {"calls": 0, "self_s": 0.0})
            agg["calls"] += 1
            agg["self_s"] += st
        return out

    def dump(self) -> dict:
        """Column-oriented copy of every span, for writing out after a run."""
        t0 = self.starts[0] if self.starts else 0.0
        return {
            "names": self.names,
            "name": self.name_of,
            "start_s": [round(s - t0, 9) for s in self.starts],
            "end_s": [round(e - t0, 9) for e in self.ends],
            "parent": self.parents,
            "counts": dict(self.counts),
            "maxima": self.maxima,
        }
