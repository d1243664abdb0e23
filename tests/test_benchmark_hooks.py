"""The benchmark's per-layer metrics name functions that must exist.

A traced benchmark run wraps every public function of the traced modules and
reads each per-layer metric by span name, taking 0 for a name it never saw.
A deleted or renamed function would therefore read 0 instead of failing.
"""

import importlib
import inspect
import json
from pathlib import Path

from queryshift.adapt import AdaptationSession

BENCHMARK = Path(__file__).resolve().parents[1] / "BENCHMARK.json"
# The modules whose public functions a traced run wraps.
TRACED_MODULES = ("gallery", "refine", "losses", "vectors", "adapt", "synth", "cli")


def test_per_layer_names_have_hooks():
    names = [m["name"] for m in json.loads(BENCHMARK.read_text(encoding="utf-8"))["per_layer"]]
    checked = 0
    for name in names:
        parts = name.split(".")
        if len(parts) != 3 or parts[0] not in TRACED_MODULES:
            continue
        module, function, _ = parts
        checked += 1
        if (module, function) == ("adapt", "step"):
            # The session's per-batch entries share the span name adapt.step.
            for entry in ("adapt_batch", "run_baseline"):
                assert inspect.isfunction(getattr(AdaptationSession, entry, None)), entry
            continue
        mod = importlib.import_module(f"queryshift.{module}")
        fn = getattr(mod, function, None)
        assert not function.startswith("_"), name
        assert inspect.isfunction(fn) and fn.__module__ == mod.__name__, name
    assert checked, "no per-layer name names a traced function"
