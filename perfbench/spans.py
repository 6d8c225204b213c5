"""Layer spans recorded from outside the package.

The tracer replaces every public function of the ``dpdispatch`` modules with
a shim, on every module name that refers to it (``from x import f`` copies,
the package re-exports and module-level dispatch tables such as
``dispatch.SOLVERS``). A shim records one span per call: qualified name,
start, end, parent span and run id, kept in memory until the benchmark
writes them out. Functions called millions of times per run are counted
instead of timed; their time stays in the caller's self time.
"""

from __future__ import annotations

import importlib
import pkgutil
import types
from collections import Counter
from contextlib import contextmanager
from time import perf_counter

# (name, start, end, parent index or None, run id)
Span = list

COUNT_ONLY = frozenset({"thermal.predict_temp"})


def layer_modules(package) -> dict[str, types.ModuleType]:
    """Every submodule of the package, keyed by its short name."""
    return {
        info.name: importlib.import_module(f"{package.__name__}.{info.name}")
        for info in pkgutil.iter_modules(package.__path__)
    }


class Tracer:
    def __init__(self, package):
        self.package = package
        self.modules = layer_modules(package)
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self.run_id: str | None = None
        self._stack: list[int] = []

    def _span_shim(self, name, fn):
        spans, stack = self.spans, self._stack

        def shim(*args, **kwargs):
            rec = [name, perf_counter(), 0.0, stack[-1] if stack else None, self.run_id]
            stack.append(len(spans))
            spans.append(rec)
            try:
                return fn(*args, **kwargs)
            finally:
                rec[2] = perf_counter()
                stack.pop()

        shim.__wrapped__ = fn
        return shim

    def _count_shim(self, name, fn):
        counts = self.counts

        def shim(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        shim.__wrapped__ = fn
        return shim

    def _public_functions(self) -> dict:
        """Original function object -> shim, for each layer's public functions."""
        shims = {}
        for short, mod in self.modules.items():
            for attr, obj in vars(mod).items():
                if (
                    isinstance(obj, types.FunctionType)
                    and not attr.startswith("_")
                    and obj.__module__ == mod.__name__
                ):
                    name = f"{short}.{attr}"
                    make = self._count_shim if name in COUNT_ONLY else self._span_shim
                    shims[obj] = make(name, obj)
        return shims

    @contextmanager
    def installed(self):
        """Install the shims for the duration of the block, then restore."""
        shims = self._public_functions()
        undo = []
        for ns in [vars(self.package)] + [vars(m) for m in self.modules.values()]:
            for attr, obj in list(ns.items()):
                if isinstance(obj, types.FunctionType) and obj in shims:
                    undo.append((ns, attr, obj))
                    ns[attr] = shims[obj]
                elif isinstance(obj, dict):
                    for key, val in list(obj.items()):
                        if isinstance(val, types.FunctionType) and val in shims:
                            undo.append((obj, key, val))
                            obj[key] = shims[val]
        try:
            yield self
        finally:
            for table, key, original in reversed(undo):
                table[key] = original


def self_times(spans: list[Span]) -> list[float]:
    """Span duration minus the time its direct children cover."""
    out = [s[2] - s[1] for s in spans]
    for s in spans:
        if s[3] is not None:
            out[s[3]] -= s[2] - s[1]
    return out


def layer_summary(spans: list[Span], run_id: str) -> dict[str, dict[str, float]]:
    """Per function name: call count, inclusive seconds and self seconds."""
    selfs = self_times(spans)
    out: dict[str, dict[str, float]] = {}
    for s, self_s in zip(spans, selfs):
        if s[4] != run_id:
            continue
        row = out.setdefault(s[0], {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        row["calls"] += 1
        row["total_s"] += s[2] - s[1]
        row["self_s"] += self_s
    return out
