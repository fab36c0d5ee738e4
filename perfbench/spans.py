"""In-memory spans around the public functions of charshock's layer modules.

The benchmark wraps, from outside the package, every public function and
public method defined in the modules listed in ``LAYERS``. A wrapped call
records one span (name, start, end, parent). Spans are kept in flat arrays
while the workload runs and turned into per-layer figures afterwards.

The same patching carries the ``keep`` list: functions whose return values
the benchmark needs (the ``SweepResult`` of ``run_sweep``, the histories the
Burgers cells solve) keep them even when no span is recorded.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
from array import array
from collections import defaultdict
from contextlib import contextmanager

import numpy as np

LAYERS = ("radial", "eos", "shortpulse", "foliation", "burgers", "geometry",
          "harness", "cli")


def _targets():
    """Every public function and method defined in a layer module.

    Yields (span name, original, setters): each setter puts a replacement
    into one namespace that refers to the original, so a function imported
    by name into another module (``from .radial import d1``) is wrapped
    there as well.
    """
    mods = {name: importlib.import_module(f"charshock.{name}") for name in LAYERS}
    namespaces = [vars(importlib.import_module("charshock"))]
    namespaces += [vars(m) for m in mods.values()]
    for layer, mod in mods.items():
        for name, obj in list(vars(mod).items()):
            if name.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                continue
            if inspect.isfunction(obj):
                yield f"{layer}.{name}", obj, [
                    functools.partial(ns.__setitem__, key)
                    for ns in namespaces for key, val in list(ns.items())
                    if val is obj]
            elif inspect.isclass(obj):
                for meth, fn in list(vars(obj).items()):
                    if meth.startswith("_"):
                        continue
                    if inspect.isfunction(fn):
                        yield f"{layer}.{name}.{meth}", fn, [
                            functools.partial(setattr, obj, meth)]
                    elif isinstance(fn, classmethod):
                        yield f"{layer}.{name}.{meth}", fn.__func__, [
                            lambda w, obj=obj, meth=meth:
                                setattr(obj, meth, classmethod(w))]


class Recorder:
    """Spans of one traced pass, plus the return values named in ``keep``."""

    def __init__(self, trace: bool, keep=()):
        self.trace = trace
        self.keep = frozenset(keep)
        self.kept = defaultdict(list)
        self.names: list[str] = []
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack: list[int] = []

    def _wrap(self, span_name, fn):
        kept = self.kept[span_name] if span_name in self.keep else None
        if not self.trace:
            @functools.wraps(fn)
            def keeping(*args, **kwargs):
                out = fn(*args, **kwargs)
                kept.append(out)
                return out
            return keeping

        name_id = len(self.names)
        self.names.append(span_name)
        names, parents, starts, ends = self.name, self.parent, self.start, self.end
        stack, clock = self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(names)
            names.append(name_id)
            parents.append(stack[-1] if stack else -1)
            starts.append(0.0)
            ends.append(0.0)
            stack.append(idx)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                starts[idx] = t0
                ends[idx] = t1
            if kept is not None:
                kept.append(out)
            return out
        return traced

    @contextmanager
    def installed(self):
        """Patch the layer modules for the duration of the block."""
        undo = []
        try:
            for span_name, fn, setters in _targets():
                if not self.trace and span_name not in self.keep:
                    continue
                wrapper = self._wrap(span_name, fn)
                for put in setters:
                    put(wrapper)
                    undo.append((put, fn))
            yield self
        finally:
            for put, fn in reversed(undo):
                put(fn)

    def table(self) -> "SpanTable":
        name = np.frombuffer(self.name, dtype=np.intc).astype(int)
        parent = np.frombuffer(self.parent, dtype=np.intc).astype(int)
        dur = np.frombuffer(self.end) - np.frombuffer(self.start)
        child = np.zeros_like(dur)
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        return SpanTable(self.names, name, parent, dur, dur - child)


class SpanTable:
    """Recorded spans as arrays; a span's self time excludes its children."""

    def __init__(self, names, name, parent, dur, self_s):
        self.names = names
        self.name, self.parent, self.dur, self.self_s = name, parent, dur, self_s

    def ids(self, *span_names):
        return [i for i, n in enumerate(self.names) if n in span_names]

    def where(self, *span_names):
        return np.isin(self.name, self.ids(*span_names))

    def layer(self, layer):
        return np.isin(self.name, [i for i, n in enumerate(self.names)
                                   if n.split(".", 1)[0] == layer])

    def total(self, *span_names):
        return float(self.dur[self.where(*span_names)].sum())

    def count(self, *span_names):
        return int(np.count_nonzero(self.where(*span_names)))

    def inside(self, *span_names):
        """Mask of spans that are, or run inside, a span of the given names."""
        root = set(self.ids(*span_names))
        out = np.zeros(len(self.name), dtype=bool)
        for i, (n, p) in enumerate(zip(self.name.tolist(), self.parent.tolist())):
            out[i] = n in root or (p >= 0 and out[p])
        return out

    def outermost(self, mask):
        """Spans in ``mask`` whose parent is not in ``mask``."""
        parent_in = np.zeros_like(mask)
        has_parent = self.parent >= 0
        parent_in[has_parent] = mask[self.parent[has_parent]]
        return mask & ~parent_in
