"""The benchmark's per-layer metrics name functions that must exist.

A traced benchmark run wraps every public function of the traced modules and
reads each per-layer metric by span name, taking 0 for a name it never saw.
A deleted or renamed function would therefore read 0 instead of failing.
"""

import importlib
import inspect
import json
import os
import subprocess
import sys
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


# Runs in a fresh interpreter: the tracer and the session hooks patch module
# and class attributes for the rest of the process.
HOOKED_SESSION = """
import importlib, json, sys
sys.path.insert(0, sys.argv[1])
import child, tracer, workloads
from queryshift.adapt import AdaptationSession, SessionConfig
from queryshift.synth import SyntheticSpec, generate_benchmark

gallery, stream, _ = generate_benchmark(
    SyntheticSpec(classes=4, dim=8, gallery_size=32, stream_length=24, sigma_query=0.2, seed=1)
)
modules = {m: importlib.import_module(f"queryshift.{m}") for m in tracer.MODULES}
spans = tracer.Tracer()
tracer.install(spans, modules, child.OBSERVERS)
capture = child.Capture(gallery.size)
capture.block = lambda gallery_size: None
capture.hook_session(AdaptationSession)
session = AdaptationSession(gallery, SessionConfig(k=4, batch=8))
session.adapt_batch(stream[:8])
session.run_baseline(stream[8:16], "tent")
session.run_baseline(stream[16:], "none")
# prepare() reads each query's class off GroundTruth.relevant when it builds
# its inputs fresh; cached inputs skip that read.
_, _, truth = generate_benchmark(SyntheticSpec(
    classes=workloads.CLASSES, dim=8, gallery_size=256, stream_length=200, seed=2))
classes = workloads._query_classes(truth)
print(json.dumps({
    "query_classes": classes.tolist(),
    "first_relevant_classes": (truth.indices[truth.indptr[:-1]] % workloads.CLASSES).tolist(),
    "observer_errors": spans.observer_errors,
    "counters": sorted(spans.counters),
    "batches": len(capture.batch_times),
    "gamma": len(capture.gamma),
    "beta": len(capture.beta),
}))
"""

# Every counter the OBSERVERS of benchmarks/child.py set.
COUNTERS = [
    "build_centroids.iters",
    "cand.neg_scanned",
    "cand.neg_unique",
    "cand.queries",
    "cand.slots",
    "loss.active",
    "loss.queries",
]


def test_benchmark_hooks_read_a_session():
    """The benchmark's observers and session hooks still read what a session
    returns, and its input preparation still reads each query's class off a
    ground truth.

    A field they read that the program deleted would otherwise show only in a
    traced benchmark run, as an observer error or a hook error.
    """
    root = Path(__file__).resolve().parents[1]
    src = str(Path(inspect.getfile(AdaptationSession)).parents[1])
    paths = filter(None, [src, os.environ.get("PYTHONPATH")])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(paths)}
    proc = subprocess.run(
        [sys.executable, "-c", HOOKED_SESSION, str(root / "benchmarks")],
        capture_output=True, text=True, env=env, cwd=root, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout.splitlines()[-1])
    assert out["observer_errors"] == []
    assert out["counters"] == COUNTERS
    assert out["batches"] == out["gamma"] == out["beta"] == 3
    assert len(out["query_classes"]) == 200
    assert out["query_classes"] == out["first_relevant_classes"]
