"""Span tracer that wraps the program's public functions from outside.

The child process of a traced run installs a ``Tracer``: every public
function of the traced modules is replaced, in every module namespace that
binds it, by a wrapper that records one span (name, start, end, parent,
batch id, raised). Modules import each other's functions with
``from ... import``, so a function is patched under its name in the module
that calls it, and all its bindings share one span name of the form
``<defining module>.<function>``. The session's per-batch calls share the
name ``adapt.step``; their entry advances the batch id. A span carries the
batch id current at its entry, so set-up spans share id -1. Spans stay in
memory and are written once, at exit. An observer that cannot read a
result is recorded, and the run reports it as an error.

``layer_metrics`` runs in the parent and turns the spans of one child into
per-layer numbers: calls, self time (duration minus the time covered by
child spans) and raised calls per span name.
"""

from __future__ import annotations

import functools
import inspect
import json
import time
from pathlib import Path

import numpy as np

MODULES = ("gallery", "refine", "losses", "vectors", "adapt", "synth", "cli")
SETUP_BATCH = -1


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._index: dict[str, int] = {}
        self.spans: list = []
        self.stack: list[int] = []
        self.batch = SETUP_BATCH
        self.counters: dict[str, float] = {}
        self.observer_errors: list[str] = []

    def count(self, key: str, value: float) -> None:
        self.counters[key] = self.counters.get(key, 0.0) + value

    def wrap(self, name: str, fn, observe=None, step: bool = False):
        """Wrap ``fn`` in a span; ``observe(tracer, args, result)`` runs after it."""
        if name not in self._index:
            self._index[name] = len(self.names)
            self.names.append(name)
        idx = self._index[name]
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if step:
                self.batch += 1
            batch = self.batch
            me = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(me)
            raised = 1
            start = clock()
            try:
                out = fn(*args, **kwargs)
                raised = 0
            finally:
                end = clock()
                stack.pop()
                spans[me] = (idx, start, end, parent, batch, raised)
            if observe is not None:
                try:
                    observe(self, args, out)
                except Exception as exc:  # the program's result must still reach its caller
                    self.observer_errors.append(f"{name}: {exc!r}")
            return out

        return wrapper

    def dump(self, path: Path) -> None:
        arr = np.array(self.spans, dtype=np.float64).reshape(-1, 6)
        np.savez(
            path,
            name=arr[:, 0].astype(np.int32),
            start=arr[:, 1],
            end=arr[:, 2],
            parent=arr[:, 3].astype(np.int64),
            batch=arr[:, 4].astype(np.int64),
            raised=arr[:, 5].astype(np.int8),
            names=np.array(self.names),
            counters=np.array(json.dumps(self.counters)),
            observer_errors=np.array(json.dumps(self.observer_errors)),
        )


def public_functions(module) -> dict:
    """Functions defined (not imported) in ``module`` whose names are public."""
    return {
        name: fn
        for name, fn in vars(module).items()
        if inspect.isfunction(fn)
        and fn.__module__ == module.__name__
        and not name.startswith("_")
    }


def install(tracer: Tracer, modules: dict, observers: dict) -> int:
    """Patch every binding of every public function; returns the binding count.

    ``modules`` maps short names to imported module objects. An observer
    whose function is gone raises AttributeError, like a missing hook.
    """
    for name in observers:
        short, fname = name.split(".")
        if fname not in public_functions(modules[short]):
            raise AttributeError(f"observed function {name} is missing")
    patched = 0
    for short, mod in modules.items():
        for fname, fn in public_functions(mod).items():
            name = f"{short}.{fname}"
            wrapper = tracer.wrap(name, fn, observe=observers.get(name))
            for other in modules.values():
                for attr, val in list(vars(other).items()):
                    if val is fn:
                        setattr(other, attr, wrapper)
                        patched += 1
    return patched


def layer_metrics(path: Path) -> dict:
    """Per span name: calls, self and total time in ms, raised calls, for one child.

    Spans nest strictly (one thread), so a span's self time is its duration
    minus the durations of its direct children.
    """
    with np.load(path) as data:
        name = data["name"]
        dur = data["end"] - data["start"]
        parent = data["parent"]
        raised = data["raised"]
        names = [str(n) for n in data["names"]]
        counters = json.loads(str(data["counters"]))
        observer_errors = json.loads(str(data["observer_errors"]))
    covered = np.zeros_like(dur)
    has_parent = parent >= 0
    np.add.at(covered, parent[has_parent], dur[has_parent])
    self_ms = (dur - covered) * 1e3
    out = {}
    for i, n in enumerate(names):
        sel = name == i
        out[n] = {
            "calls": int(sel.sum()),
            "self_ms": float(self_ms[sel].sum()),
            "total_ms": float(dur[sel].sum() * 1e3),
            "errors": int(raised[sel].sum()),
        }
    return {"layers": out, "counters": counters, "spans": int(name.size),
            "observer_errors": observer_errors}
