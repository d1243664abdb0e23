"""queryshift benchmark: one workload, one seed, one closed-loop client.

Usage (from the repository root):

    python3 benchmarks/run.py --workload stream-rest --seed 1 --seconds 25 --trace 0

The run generates the workload's input files from the seed (outside any
timed interval), then starts fresh ``queryshift adapt`` processes one after
another, each waiting for the last, until ``--seconds`` have passed and
enough batches have been timed. BLAS threads are pinned to one. Every time
is scaled to a reference speed by calibration blocks run next to it in the
same process (calib.py, README.md). After the processes end, every batch's
top-10 is checked against an independent oracle, every report's recall
against a recount, and all reports against each other.

``--trace 0`` reports the end-to-end metrics. ``--trace 1`` alternates
untraced, span-traced and tracemalloc processes and reports per-layer
metrics instead. The last line of standard output is one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``; lines before
it name every metric with its unit and record the environment.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import calib
from child import HOOK_ERROR

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

# Every run must end well inside the 180 s a run is allowed: no process
# starts after DEADLINE_S, and none runs past KILL_S (both from start-up).
DEADLINE_S = 150.0
KILL_S = 165.0
STARTED = time.monotonic()
BLAS_THREADS = 1


def _fail(msg: str) -> int:
    print(f"benchmark error: {msg}", file=sys.stderr)
    return 2


def _import_program():
    """Import queryshift from this checkout's sources, never from elsewhere."""
    if not (SRC / "queryshift" / "__init__.py").is_file():
        raise RuntimeError(f"program sources not found under {SRC}")
    sys.path.insert(0, str(SRC))
    import queryshift

    if Path(queryshift.__file__).resolve().parent != (SRC / "queryshift").resolve():
        raise RuntimeError(f"queryshift imported from {queryshift.__file__}, not {SRC}")
    return queryshift


def _environment(children: int, repeats: int, gallery_size: int) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_version = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas_version = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_version,
        "nproc": os.cpu_count(),
        "blas_threads": BLAS_THREADS,
        "processes": children,
        "repeats": repeats,
        "calibration_block_nominal_s": calib.nominal_s(gallery_size),
        "load": "closed loop, 1 client, 1 process at a time",
    }


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    return env


def _plan(trace: bool):
    """Process kinds in start order; a traced run alternates plain and traced."""
    if not trace:
        while True:
            yield "plain"
    yield from ("plain", "trace", "memory")
    while True:
        yield "plain"
        yield "trace"


def _run_children(wl, inputs, run_dir: Path, seconds: int, trace: bool, min_batches: int):
    started = time.monotonic()
    env = _child_env()
    done = []
    durations: dict[str, list] = {}
    # Untraced runs need their fixed repeats and batch samples; traced runs
    # one process of each kind. Later processes still run until ``seconds``.
    min_plain = 1 if trace else max(wl.repeats, math.ceil(min_batches / wl.batches))
    for i, kind in enumerate(_plan(trace)):
        plain = sum(1 for c in done if c["kind"] == "plain")
        kinds = {c["kind"] for c in done}
        enough = plain >= min_plain and (not trace or {"trace", "memory"} <= kinds)
        elapsed = time.monotonic() - started
        guess = statistics.median(durations.get(kind, [0.0]))
        if enough and elapsed + guess > seconds:
            break
        if time.monotonic() - STARTED + guess > DEADLINE_S:
            if not enough:
                raise RuntimeError("not enough processes finished before the deadline")
            break
        report = run_dir / f"report-{i}.json"
        capture = run_dir / f"capture-{i}.npz"
        for p in (report, capture, capture.with_suffix(".spans.npz")):
            p.unlink(missing_ok=True)
        cmd = [sys.executable, str(HERE / "child.py"), "--mode", kind,
               "--config", str(inputs.config), "--report", str(report),
               "--capture", str(capture), "--gallery-size", str(wl.gallery_size)]
        t0 = time.monotonic()
        try:
            proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True, text=True,
                                  timeout=max(KILL_S - (time.monotonic() - STARTED), 1.0))
            rc, err = proc.returncode, proc.stderr
        except subprocess.TimeoutExpired as exc:
            rc, err = -1, f"timed out: {exc}"
        durations.setdefault(kind, []).append(time.monotonic() - t0)
        if rc == HOOK_ERROR:
            raise RuntimeError(f"hooks failed in {kind} process: {err.strip()}")
        if rc != 0:
            print(f"# {kind} process {i} exited {rc}: {err.strip()[-400:]}", file=sys.stderr)
        done.append({"kind": kind, "rc": rc, "report": report, "capture": capture})
    for kind, secs in durations.items():
        print(f"# {kind} processes: " + " ".join(f"{s:.2f}s" for s in secs), file=sys.stderr)
    return done


def _load(path: Path, loader):
    try:
        return loader(path)
    except (OSError, ValueError):
        return None


def _read_capture(path: Path) -> dict:
    with np.load(path) as data:
        return {k: data[k] for k in data.files}


def _check(wl, inputs, children):
    """Attempted and failed batch counts; keeps each finished child's capture.

    A process that died still had the batches it returned checked; the rest
    of its batches count as failed. A finished process whose report differs
    from the run's first, or whose online, initial or final recall differs
    from a recount, fails all its batches.
    """
    from check import Oracle, comparable, failed_batches, recall_matches, stream_recall_matches

    oracle = Oracle(inputs.gallery, inputs.queries, wl.batch)
    attempted = failed = 0
    reference = None
    for child in children:
        attempted += wl.batches
        cap = _load(child["capture"], _read_capture)
        report = _load(child["report"], lambda p: json.loads(p.read_text(encoding="utf-8")))
        child["cap"] = None
        if cap is None:
            failed += wl.batches
            continue
        bad = failed_batches(oracle, cap["top"], cap["batch_rows"], cap["gamma"],
                             cap["beta"], wl.batches)
        if child["rc"] != 0 or int(cap["rc"]) != 0 or report is None:
            failed += bad
            continue
        if reference is None:
            reference = comparable(report)
        report_ok = (comparable(report) == reference
                     and recall_matches(report, cap["top"], inputs.query_class)
                     and stream_recall_matches(oracle, report, cap["gamma"][-1],
                                               cap["beta"][-1], inputs.query_class))
        if not report_ok:
            bad = wl.batches
        failed += bad
        child["cap"] = cap
        child["report_data"] = report
    return attempted, failed


class Timeline:
    """Times of one process, scaled to the reference speed (calib.py).

    The calibration blocks cut the process's clock into stretches. A stretch
    between two blocks runs at the mean of their two speeds; the stretches
    before the first block and after the last run at that block's speed.
    The blocks' own time lies in no stretch, so no time counts it.
    """

    def __init__(self, cap, gallery_size: int):
        self.cap = cap
        blocks = cap["blocks"]
        speed = calib.speed(blocks[:, 2] - blocks[:, 1], gallery_size)
        self.lo = np.concatenate(([-np.inf], blocks[:, 2]))
        self.hi = np.concatenate((blocks[:, 0], [np.inf]))
        self.speed = np.concatenate(([speed[0]], (speed[:-1] + speed[1:]) / 2, [speed[-1]]))

    def time(self, a: str | float, b: str | float, scaled: bool = True) -> float:
        """Seconds from instant ``a`` to ``b`` (names of captured instants or values)."""
        a = float(self.cap[a]) if isinstance(a, str) else a
        b = float(self.cap[b]) if isinstance(b, str) else b
        overlap = np.clip(np.minimum(self.hi, b) - np.maximum(self.lo, a), 0.0, None)
        return float(overlap @ self.speed) if scaled else float(overlap.sum())

    def batches(self, scaled: bool = True) -> np.ndarray:
        return np.array([self.time(a, b, scaled) for a, b in self.cap["batch_times"]])

    def speed_factor(self) -> float:
        """The process's speed factor, time-weighted over its run."""
        return self.time("started", "done") / self.time("started", "done", scaled=False)


def _end_to_end(wl, children) -> tuple[dict, dict]:
    """End-to-end metrics over the run's finished untraced processes.

    Every time is scaled to the reference speed by the calibration blocks
    run next to it (calib.py, README.md). Every process repeats the same
    deterministic work. ``total_s``, ``stream_qps`` and the batch latencies
    take exactly the first ``wl.repeats`` processes, so the number of
    samples does not depend on the program's speed: ``total_s`` and
    ``stream_qps`` from the median of the processes' times, ``batch_ms_p50``
    and ``batch_ms_p90`` from their pooled batch latencies. ``setup_s`` and
    ``peak_rss_mb`` are medians over all processes. Also returns the same
    figures unscaled, and the speed factors, for the record.
    """
    caps = [c["cap"] for c in children if c["kind"] == "plain" and c["cap"] is not None]
    if not caps:
        raise RuntimeError("no untraced process finished")
    lines = [Timeline(c, wl.gallery_size) for c in caps]
    first = lines[: wl.repeats]
    recall = next(c["report_data"] for c in children if c.get("report_data"))["recall"]["1"]

    def figures(scaled: bool) -> dict:
        setup = [t.time("main_start", "setup_end", scaled) for t in lines]
        total = [t.time("started", "done", scaled) for t in first]
        stream = [t.time("setup_end", "done", scaled) for t in first]
        lat_ms = np.concatenate([t.batches(scaled) for t in first]) * 1e3
        return {
            "setup_s": (statistics.median(setup), "s"),
            "total_s": (statistics.median(total), "s"),
            "stream_qps": (wl.stream_length / statistics.median(stream), "queries/s"),
            "batch_ms_p50": (float(np.median(lat_ms)), "ms"),
            "batch_ms_p90": (float(np.percentile(lat_ms, 90)), "ms"),
        }

    metrics = figures(scaled=True)
    metrics["peak_rss_mb"] = (statistics.median(float(c["maxrss_kb"]) / 1024 for c in caps), "MB")
    metrics["recall_1"] = (float(recall), "fraction")
    factors = [t.speed_factor() for t in lines]
    record = {name: value for name, (value, _) in figures(scaled=False).items()}
    record["speed_factor"] = [round(f, 4) for f in factors]
    record["batch_samples"] = int(sum(len(t.cap["batch_times"]) for t in first))
    return metrics, record


def _per_layer(wl, children) -> dict:
    from tracer import layer_metrics
    from workloads import TOP

    traced = [c for c in children if c["kind"] == "trace" and c["cap"] is not None]
    plain = [c["cap"] for c in children if c["kind"] == "plain" and c["cap"] is not None]
    memory = [c["cap"] for c in children if c["kind"] == "memory" and c["cap"] is not None]
    if not traced or not plain or not memory:
        raise RuntimeError("a traced run needs a plain, a traced and a memory process")
    per_child = [layer_metrics(c["capture"].with_suffix(".spans.npz")) for c in traced]
    errors = sorted({e for t in per_child for e in t["observer_errors"]})
    if errors:
        raise RuntimeError(f"per-layer observers failed: {errors[:3]}")

    def med(fn):
        return statistics.median(fn(t) for t in per_child)

    def stat(name, key):
        return med(lambda t: t["layers"].get(name, {}).get(key, 0))

    def ratio(num, den):
        return med(lambda t: t["counters"].get(num, 0.0) / max(t["counters"].get(den, 0.0), 1.0))

    out = {}
    for name in ("gallery.knn_table", "refine.source_likeness", "losses.forward_state",
                 "vectors.softmax_temp", "adapt.forward_adapter", "adapt.step",
                 "synth.metric_consistency"):
        out[f"{name}.calls"] = (stat(name, "calls"), "count")
    for name in ("gallery.build_centroids", "gallery.knn_table", "refine.build_candidate_sets",
                 "refine.update_queue", "refine.estimate_constraints", "losses.forward_state",
                 "losses.total_loss_and_grad", "losses.param_grad", "adapt.kl_general",
                 "adapt.decouple", "adapt.sgd_step", "synth.metric_consistency",
                 "synth.recall_at_k", "cli.read_embeddings", "cli.read_ground_truth"):
        out[f"{name}.ms"] = (stat(name, "self_ms"), "ms")
    # forward_adapter's work is the losses.affine_normalize call it makes.
    out["adapt.forward_adapter.ms"] = (stat("adapt.forward_adapter", "total_ms"), "ms")
    out["adapt.step.self_ms"] = (stat("adapt.step", "self_ms"), "ms")
    out["cli.cmd_adapt.self_ms"] = (stat("cli.cmd_adapt", "self_ms"), "ms")
    out["gallery.build_centroids.iters"] = (
        med(lambda t: t["counters"].get("build_centroids.iters", 0)), "count")
    out["refine.cand_size_mean"] = (ratio("cand.slots", "cand.queries"), "count")
    out["refine.neg_unique_frac"] = (ratio("cand.neg_unique", "cand.neg_scanned"), "fraction")
    out["losses.active_frac"] = (ratio("loss.active", "loss.queries"), "fraction")
    cols = statistics.median(float(np.median(c["rank_cols"])) for c in plain)
    out["adapt.rank_used_frac"] = (TOP / cols, "fraction")
    out["mem.tracemalloc_peak_mb"] = (
        statistics.median(float(c["tracemalloc_peak"]) / 2**20 for c in memory), "MB")
    out["trace.errors"] = (med(lambda t: sum(v["errors"] for v in t["layers"].values())), "count")
    out["trace.spans"] = (med(lambda t: t["spans"]), "count")
    untraced = statistics.median(
        Timeline(c, wl.gallery_size).time("started", "done") for c in plain)
    traced_total = statistics.median(
        Timeline(c["cap"], wl.gallery_size).time("started", "done") for c in traced)
    out["trace.overhead_frac"] = (traced_total / untraced - 1.0, "fraction")
    return out


def main(argv=None) -> int:
    from workloads import MIN_BATCHES, WORKLOADS, prepare, tiny

    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true", help="small inputs, for the self-test")
    args = ap.parse_args(argv)
    # On SIGTERM, unwind: subprocess.run then kills and waits for the child.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    try:
        _import_program()
    except (RuntimeError, ImportError) as exc:
        return _fail(str(exc))

    wl = WORKLOADS[args.workload]
    min_batches = MIN_BATCHES
    label = f"{wl.name}-s{args.seed}"
    if args.tiny:
        wl, min_batches, label = tiny(wl), 1, label + "-tiny"
    inputs = prepare(wl, args.seed, WORK / label)
    run_dir = WORK / "runs" / f"{label}-t{args.trace}-p{os.getpid()}"
    run_dir.mkdir(parents=True, exist_ok=True)
    attempted = failed = 0
    try:
        children = _run_children(wl, inputs, run_dir, args.seconds, bool(args.trace), min_batches)
        attempted, failed = _check(wl, inputs, children)
        raw = None
        if args.trace:
            metrics = _per_layer(wl, children)
        else:
            metrics, raw = _end_to_end(wl, children)
            metrics["ok_frac"] = (1.0 - failed / attempted, "fraction")
    except RuntimeError as exc:
        return _fail(f"{exc} ({failed} of {attempted} batches failed)")
    finally:
        for p in sorted(run_dir.glob("*")):
            p.unlink()
        run_dir.rmdir()

    env = _environment(len(children), 0 if args.trace else wl.repeats, wl.gallery_size)
    print(f"# workload {wl.name} seed {args.seed} trace {args.trace}: {json.dumps(dataclasses.asdict(wl))}")
    print(f"# environment {json.dumps(env)}")
    if raw is not None:
        print(f"# unscaled {json.dumps(raw)}")
    for name, (value, unit) in metrics.items():
        print(f"{name:34s} {value:14.6g} {unit}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
