"""Out-of-program tracing of finslerkit, one span per call of a public function.

``Tracer.install`` wraps every public function of each layer module and
rebinds the wrapper at every name the original is reachable through (the
defining module, modules that imported it, the package namespace), so a call
is recorded whichever name it goes through.  ``uninstall`` puts the
originals back.  Spans are kept in memory as (item, span, parent, name,
start, end) and written out at the end; self time is a span's duration minus
the durations of its child spans.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import sys
import time
from collections import Counter, defaultdict
from pathlib import Path

PACKAGE = "finslerkit"
LAYERS = ("expr", "metric", "numerics", "tensors", "connection", "hypersurface",
          "classifier", "geodesic", "config", "cli")

# The CLI's command functions stay inside cli.main's self time: parsing
# arguments, formatting reports and writing rows.
ONLY = {"cli": ("main",)}

# Hot leaf calls are counted (with the name of the enclosing span), not timed.
COUNTED = {"metric.finsler_norm"}

# Methods traced under one layer name: (module, class, methods, counted only).
METHODS = {
    "metric.coeff_eval": ("metric", "SpaceSpec", ("a_at", "b_at", "da_at", "db_at"), False),
    "hypersurface.level_eval": ("hypersurface", "LevelSurface",
                                ("value", "gradient", "hessian"), True),
}

# Outcomes read from return values: span name -> (counter, function of result).
RESULTS = {
    "geodesic.minimize": ("geodesic.iterations", lambda r: r.iterations),
    "metric.sample_flags": ("metric.sample_flags.accepted", len),
    "classifier.surface_points": ("classifier.surface_points.points", len),
}

MARK = "__perfbench_original__"


def _modules() -> dict:
    return {n: m for n, m in sys.modules.items()
            if m is not None and (n == PACKAGE or n.startswith(PACKAGE + "."))}


def installed() -> list[str]:
    """Names through which a wrapper is reachable right now (empty when untraced)."""
    found = []
    for name, mod in _modules().items():
        for attr, obj in vars(mod).items():
            if hasattr(obj, MARK):
                found.append(f"{name}.{attr}")
            elif inspect.isclass(obj) and obj.__module__ == name:
                found += [f"{name}.{attr}.{m}" for m, f in vars(obj).items() if hasattr(f, MARK)]
    return sorted(found)


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.spans: list[tuple] = []
        self.counts: Counter = Counter()      # (name, enclosing span name) -> calls
        self.values: Counter = Counter()
        self.item = 0
        self._stack: list[tuple[int, int]] = []   # (span id, name index)
        self._ids = itertools.count(1)
        self._patches: list[tuple[object, str, object]] = []

    # -- wrappers

    def _name_index(self, name: str) -> int:
        self.names.append(name)
        return len(self.names) - 1

    def _span(self, name: str, fn):
        idx = self._name_index(name)
        stack, spans, ids, clock = self._stack, self.spans, self._ids, time.perf_counter
        result = RESULTS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1][0] if stack else 0
            sid = next(ids)
            stack.append((sid, idx))
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                spans.append((self.item, sid, parent, idx, t0, t1))
            if result is not None:
                self.values[result[0]] += result[1](out)
            return out

        setattr(wrapper, MARK, fn)
        return wrapper

    def _counter(self, name: str, fn):
        stack, counts, names = self._stack, self.counts, self.names

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name, names[stack[-1][1]] if stack else None] += 1
            return fn(*args, **kwargs)

        setattr(wrapper, MARK, fn)
        return wrapper

    def _patch(self, owner, attr: str, wrapper) -> None:
        self._patches.append((owner, attr, getattr(owner, attr) if inspect.ismodule(owner)
                              else vars(owner)[attr]))
        setattr(owner, attr, wrapper)

    # -- install / uninstall

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = _modules()
        wrappers: dict[int, tuple[object, object]] = {}
        for layer in LAYERS:
            mod = modules[f"{PACKAGE}.{layer}"]
            for attr, obj in vars(mod).items():
                if (not inspect.isfunction(obj) or obj.__module__ != mod.__name__
                        or attr.startswith("_") or attr not in ONLY.get(layer, (attr,))):
                    continue
                name = f"{layer}.{attr}"
                make = self._counter if name in COUNTED else self._span
                wrappers[id(obj)] = (obj, make(name, obj))
        for mod in modules.values():
            for attr, obj in list(vars(mod).items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._patch(mod, attr, hit[1])
        for name, (layer, cls_name, methods, counted) in METHODS.items():
            cls = getattr(modules[f"{PACKAGE}.{layer}"], cls_name)
            make = self._counter if counted else self._span
            for meth in methods:
                self._patch(cls, meth, make(name, vars(cls)[meth]))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- results

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, total seconds and self seconds."""
        child = defaultdict(float)
        for _item, _sid, parent, _idx, t0, t1 in self.spans:
            child[parent] += t1 - t0
        out: dict[str, dict[str, float]] = {}
        for _item, sid, _parent, idx, t0, t1 in self.spans:
            row = out.setdefault(self.names[idx], {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["total_s"] += t1 - t0
            row["self_s"] += t1 - t0 - child[sid]
        return out

    def calls(self, name: str, parent: str | None = None) -> int:
        """Counted calls of ``name``, optionally only those made inside ``parent``."""
        return sum(n for (nm, par), n in self.counts.items()
                   if nm == name and (parent is None or par == parent))

    def write(self, path: Path) -> None:
        origin = min((s[4] for s in self.spans), default=0.0)
        with path.open("w") as fh:
            fh.write("item,span,parent,name,start_s,end_s\n")
            for item, sid, parent, idx, t0, t1 in self.spans:
                fh.write(f"{item},{sid},{parent},{self.names[idx]},"
                         f"{t0 - origin:.9f},{t1 - origin:.9f}\n")
