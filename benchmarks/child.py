"""One fresh process running ``queryshift adapt`` once, with benchmark hooks.

Usage: python3 child.py --mode plain|trace|memory --config C --report R
       --capture P --gallery-size G

The process runs the CLI entry point ``queryshift.cli.main`` on a ``paths``
config and records instants on the ``perf_counter`` clock: the first
statement of this file (before numpy and queryshift are imported), the
start of ``cli.main``, the end of session construction, the start and end
of each batch call, and the written report. Hooks sit only around
``AdaptationSession.__init__`` and the per-batch session calls
``adapt_batch`` and ``run_baseline``; after a batch call returns they keep
its top-10 ids and the post-step adapter parameters for the checker.

Outside those intervals the process runs calibration blocks (calib.py):
before ``cli.main``, after session construction, before and after each
batch call, after the report, and in ``plain`` mode every
``SAMPLE_PERIOD_S`` from a timer. run.py turns the instants into times
scaled by the speed the blocks measured. ``trace`` mode also wraps every
public function of the program in spans (see tracer.py); ``memory`` mode
runs under tracemalloc. Everything captured is written once, after the
timed interval, to the ``--capture`` file.

Exit code 70 means the hooks could not be placed or never fired: the
benchmark is broken, which must not be read as a fast program.
"""

from __future__ import annotations

import time

# A CLI user also waits for the interpreter's imports.
T_START = time.perf_counter()

import argparse
import importlib
import resource
import signal
import sys
import tracemalloc
from pathlib import Path

import numpy as np

import calib
from tracer import MODULES, Tracer, install
from workloads import TOP

HOOK_ERROR = 70
SESSION_CALLS = ("adapt_batch", "run_baseline")
# Untraced processes also run a calibration block this often (seconds).
SAMPLE_PERIOD_S = 0.1


def _observe_centroids(tracer, args, out):
    tracer.count("build_centroids.iters", len(out.energy_trace) - 1)


def _observe_candidates(tracer, args, out):
    b, k = args[0].shape[0], args[3]
    gallery_negs = sum(sum(1 for g in c.negative_ids if g >= 0) for c in out)
    tracer.count("cand.queries", b)
    tracer.count("cand.slots", sum(len(c) for c in out))
    tracer.count("cand.neg_unique", gallery_negs)
    tracer.count("cand.neg_scanned", b * (b - 1) * k)


def _observe_loss(tracer, args, out):
    tracer.count("loss.active", out[0].active_count)
    tracer.count("loss.queries", args[0].batch_size)


OBSERVERS = {
    "gallery.build_centroids": _observe_centroids,
    "refine.build_candidate_sets": _observe_candidates,
    "losses.total_loss_and_grad": _observe_loss,
}


class Capture:
    """Batch times, top-10 ids, post-step parameters and calibration blocks.

    Calibration blocks (calib.py) run outside every timed interval: before
    ``cli.main``, right after session construction, before each batch call
    and after the report is written. The benchmark scales each stretch of
    time between two blocks by the speed they measured.
    """

    def __init__(self, gallery_size: int):
        self.gallery_size = gallery_size
        self.setup_end = None
        self.batch_times = []
        self.blocks = []
        self.top = []
        self.gamma = []
        self.beta = []
        self.rank_cols = []
        self._busy = False
        # A traced run wraps this in a span, so no layer counts its time.
        self.block = calib.block

    def calibrate(self, *_signal) -> None:
        """Run a block; keep (start, start of the timed block, end).

        The first call runs an untimed block first, which builds the block's
        arrays and warms its code; no timed interval counts either. It is
        also the handler of the sampling timer, which skips a tick that
        lands inside a block.
        """
        if self._busy:
            return
        self._busy = True
        t0 = time.perf_counter()
        if not self.blocks:
            self.block(self.gallery_size)
        t1 = time.perf_counter()
        self.block(self.gallery_size)
        self.blocks.append((t0, t1, time.perf_counter()))
        self._busy = False

    def sample(self, period: float) -> None:
        """Also run a block every ``period`` seconds, whatever the program does.

        Long stretches without a batch call (set-up, the whole-stream
        rankings) get blocks too. Python runs the handler between bytecodes,
        so a tick during a long numpy call waits for its return.
        """
        signal.signal(signal.SIGALRM, self.calibrate)
        signal.setitimer(signal.ITIMER_REAL, period, period)

    @staticmethod
    def stop_sampling() -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)

    def hook_session(self, cls) -> None:
        for name in ("__init__",) + SESSION_CALLS:
            if not callable(getattr(cls, name, None)):
                raise AttributeError(f"hook target AdaptationSession.{name} is missing")
        init = cls.__init__

        def timed_init(session, *args, **kwargs):
            init(session, *args, **kwargs)
            self.setup_end = time.perf_counter()
            self.calibrate()

        cls.__init__ = timed_init
        for name in SESSION_CALLS:
            setattr(cls, name, self._timed_call(getattr(cls, name)))

    def _timed_call(self, fn):
        clock = time.perf_counter

        def timed(session, raw, *args, **kwargs):
            self.calibrate()
            t0 = clock()
            result = fn(session, raw, *args, **kwargs)
            t1 = clock()
            self.calibrate()
            self.batch_times.append((t0, t1))
            self.top.append(np.array(result.rankings[:, :TOP], dtype=np.int64))
            self.rank_cols.append(result.rankings.shape[1])
            self.gamma.append(np.array(session.params.gamma))
            self.beta.append(np.array(session.params.beta))
            return result

        return timed


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--mode", choices=("plain", "trace", "memory"), required=True)
    ap.add_argument("--config", required=True)
    ap.add_argument("--report", required=True)
    ap.add_argument("--capture", required=True)
    ap.add_argument("--gallery-size", type=int, required=True, help="sizes the calibration block")
    args = ap.parse_args()

    modules = {m: importlib.import_module(f"queryshift.{m}") for m in MODULES}
    cli, adapt = modules["cli"], modules["adapt"]
    tracer = None
    capture = Capture(args.gallery_size)
    try:
        if args.mode == "trace":
            tracer = Tracer()
            install(tracer, modules, OBSERVERS)
            session = adapt.AdaptationSession
            session.__init__ = tracer.wrap("adapt.session_init", session.__init__)
            for name in SESSION_CALLS:
                setattr(session, name, tracer.wrap("adapt.step", getattr(session, name), step=True))
            capture.block = tracer.wrap("bench.calibrate", calib.block)
        capture.hook_session(adapt.AdaptationSession)
    except AttributeError as exc:
        print(f"benchmark hook error: {exc}", file=sys.stderr)
        return HOOK_ERROR

    if args.mode == "memory":
        tracemalloc.start()
    rc = 1
    capture.calibrate()
    if args.mode == "plain":
        capture.sample(SAMPLE_PERIOD_S)
    t0 = time.perf_counter()
    try:
        rc = cli.main(["--config", args.config, "adapt", "--out", args.report])
    finally:
        t1 = time.perf_counter()
        capture.stop_sampling()
        capture.calibrate()
        # Batches returned before a crash are still written for the checker.
        save(args, capture, tracer, rc, t0, t1)
    if rc == 0 and (capture.setup_end is None or not capture.batch_times):
        print("benchmark hook error: session hooks never fired", file=sys.stderr)
        return HOOK_ERROR
    return rc


def save(args, capture: Capture, tracer, rc: int, t0: float, t1: float) -> None:
    tracemalloc_peak = tracemalloc.get_traced_memory()[1] if args.mode == "memory" else 0
    tracemalloc.stop()
    d = capture.gamma[0].size if capture.gamma else 0
    np.savez(
        args.capture,
        rc=rc,
        # Instants on the perf_counter clock; run.py turns them into times.
        started=T_START,
        main_start=t0,
        setup_end=capture.setup_end or t0,
        done=t1,
        batch_times=np.array(capture.batch_times).reshape(-1, 2),
        blocks=np.array(capture.blocks).reshape(-1, 3),
        top=np.concatenate(capture.top) if capture.top else np.zeros((0, TOP), np.int64),
        batch_rows=np.array([t.shape[0] for t in capture.top], dtype=np.int64),
        rank_cols=np.array(capture.rank_cols, dtype=np.int64),
        gamma=np.array(capture.gamma).reshape(-1, d),
        beta=np.array(capture.beta).reshape(-1, d),
        maxrss_kb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        tracemalloc_peak=tracemalloc_peak,
    )
    if tracer is not None:
        tracer.dump(Path(args.capture).with_suffix(".spans.npz"))


if __name__ == "__main__":
    sys.exit(main())
