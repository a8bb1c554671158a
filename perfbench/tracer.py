"""Spans around the public functions of each hypergroup module.

The tracer wraps every public function of ``data``, ``graph``, ``model``,
``numeric``, ``training`` and ``evaluation``, plus the methods listed in
``METHODS``, at every module that imported them.  Each call records one
span: name, start, end, parent span, the benchmark unit (a train call,
an eval call or a recommend request) it ran in, and whether the call
raised.  Python garbage
collections become spans too, through ``gc.callbacks``.  Spans stay in
memory in flat arrays and are written out when the run ends.

Names the package no longer defines are reported as absent; the run goes
on without them.
"""

from __future__ import annotations

import functools
import gc
import inspect
import json
import sys
import time
from array import array
from contextlib import contextmanager

MODULES = ("data", "graph", "model", "numeric", "training", "evaluation")
METHODS = {
    "model.ForwardPass": ("ipm_vectors", "member_vectors", "group_init_vectors", "hrl_vectors", "group_vectors"),
    "numeric.Tape": ("backward", "touched_parameters"),
    "training.AdamOptimizer": ("step",),
    "training.SgdOptimizer": ("step",),
}
GC_SPAN = "python.gc"


def _rows_of(args, kwargs, result):
    idx = args[1] if len(args) > 1 else kwargs.get("idx", ())
    return int(getattr(idx, "size", None) or len(idx))


def _elements_of(args, kwargs, result):
    return int(sum(t.values.size for t in result))


def _pairs_of(args, kwargs, result):
    return int(result.values.shape[0]) if result.values.ndim else 1


# per-call work counts attached to a span's ``count`` field
COUNTERS = {
    "numeric.gather_rows": _rows_of,
    "numeric.Tape.touched_parameters": _elements_of,
    "model.mlp_forward": _pairs_of,
}


class Tracer:
    """In-memory span recorder with install/uninstall of the wrappers."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.units: list[tuple[str, int]] = []
        self.unit = -1
        self.pause = 0
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.unit_of = array("i")
        self.count = array("q")
        self.failed = array("b")
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self._gc_start = 0.0
        self.gc_events: list[tuple[float, float, int, int, int]] = []
        self.wrapped: list[str] = []
        self.absent: list[str] = []

    # -- recording ----------------------------------------------------------

    def _intern(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _open(self, name_id: int, start: float) -> int:
        idx = len(self.start)
        self.name.append(name_id)
        self.start.append(start)
        self.end.append(start)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.unit_of.append(self.unit)
        self.count.append(0)
        self.failed.append(0)
        return idx

    def begin_unit(self, phase: str, index: int) -> None:
        self.unit = len(self.units)
        self.units.append((phase, index))

    def end_unit(self) -> None:
        self.unit = -1

    @contextmanager
    def paused(self):
        """Run benchmark-side work (checks) without recording spans."""
        self.pause += 1
        try:
            yield
        finally:
            self.pause -= 1

    def _wrap(self, span: str, fn):
        tracer = self
        name_id = self._intern(span)
        counter = COUNTERS.get(span)
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer.pause:
                return fn(*args, **kwargs)
            idx = tracer._open(name_id, clock())
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
                if counter is not None:
                    tracer.count[idx] = counter(args, kwargs, result)
                return result
            except BaseException:
                tracer.failed[idx] = 1
                raise
            finally:
                stack.pop()
                tracer.end[idx] = clock()

        return wrapper

    def _on_gc(self, phase: str, info: dict) -> None:
        # kept apart from the span arrays: a collection can start while a
        # wrapper is half-way through appending a span
        if self.pause:
            return
        now = time.perf_counter()
        if phase == "start":
            self._gc_start = now
        else:
            parent = self._stack[-1] if self._stack else -1
            self.gc_events.append((self._gc_start, now, int(info.get("generation", 0)), parent, self.unit))

    # -- install ------------------------------------------------------------

    def install(self, package) -> None:
        """Wrap the targets at every ``hypergroup`` module that binds them."""
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == package.__name__ or n.startswith(package.__name__ + "."))]
        for short in MODULES:
            mod = getattr(package, short, None)
            if mod is None:
                self.absent.append(short)
                continue
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or not inspect.isfunction(obj) or obj.__module__ != mod.__name__:
                    continue
                wrapper = self._wrap(f"{short}.{attr}", obj)
                self.wrapped.append(f"{short}.{attr}")
                for site in modules:
                    for name, value in list(vars(site).items()):
                        if value is obj:
                            self._patches.append((site, name, value))
                            setattr(site, name, wrapper)
        for owner, methods in METHODS.items():
            short, cls_name = owner.split(".")
            cls = getattr(getattr(package, short, None), cls_name, None)
            for meth in methods:
                fn = vars(cls).get(meth) if cls is not None else None
                if not inspect.isfunction(fn):
                    self.absent.append(f"{owner}.{meth}")
                    continue
                self._patches.append((cls, meth, fn))
                setattr(cls, meth, self._wrap(f"{owner}.{meth}", fn))
                self.wrapped.append(f"{owner}.{meth}")
        gc.callbacks.append(self._on_gc)

    def uninstall(self) -> None:
        if self._on_gc in gc.callbacks:
            gc.callbacks.remove(self._on_gc)
        for owner, name, original in reversed(self._patches):
            setattr(owner, name, original)
        self._patches.clear()

    def has(self, span: str) -> bool:
        return span in self.wrapped or span == GC_SPAN

    # -- analysis -----------------------------------------------------------

    def per_unit(self) -> dict[int, dict[str, list[float]]]:
        """``{unit: {span: [calls, seconds, self_seconds, count, full_gcs]}}``.

        Self time is a span's duration minus the time of its direct
        children, so a layer's self time excludes the layers it calls and
        any garbage collection that ran inside it.
        """
        n = len(self.start)
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        for start, end, _gen, p, _unit in self.gc_events:
            if p >= 0:
                child[p] += end - start
        out: dict[int, dict[str, list[float]]] = {}

        def add(unit, name, dur, self_dur, count, full):
            cell = out.setdefault(unit, {}).setdefault(name, [0, 0.0, 0.0, 0, 0])
            cell[0] += 1
            cell[1] += dur
            cell[2] += self_dur
            cell[3] += count
            cell[4] += full

        for i in range(n):
            dur = self.end[i] - self.start[i]
            add(self.unit_of[i], self.names[self.name[i]], dur, dur - child[i], self.count[i], 0)
        for start, end, gen, _p, unit in self.gc_events:
            add(unit, GC_SPAN, end - start, end - start, 0, int(gen == 2))
        return out

    def failures(self) -> dict[str, int]:
        """Calls that raised, per layer.  An exception counts once at every
        wrapped call it passes through."""
        out = dict.fromkeys(MODULES, 0)
        for i, flag in enumerate(self.failed):
            if flag:
                layer = self.names[self.name[i]].partition(".")[0]
                out[layer] = out.get(layer, 0) + 1
        return out

    def write(self, path) -> None:
        """Dump every span as columns of one JSON object."""
        blob = {
            "names": self.names,
            "units": self.units,
            "absent": self.absent,
            "name": self.name.tolist(),
            "start": self.start.tolist(),
            "end": self.end.tolist(),
            "parent": self.parent.tolist(),
            "unit": self.unit_of.tolist(),
            "count": self.count.tolist(),
            "failed": self.failed.tolist(),
            "gc": self.gc_events,
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(blob, fh)
