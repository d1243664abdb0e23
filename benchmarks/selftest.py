"""Self-test of the benchmark itself (not of queryshift).

Usage (from the repository root): python3 benchmarks/selftest.py

1. A tiny-size run of every workload, untraced and traced, prints every
   metric named in BENCHMARK.json, finite and with its unit, and passes
   its own output check.
2. The checker rejects a planted wrong ranking: an exact tie handed to the
   higher gallery id, and a top-10 shifted by one place.
3. The checker rejects a report whose recall disagrees with the rankings,
   its online recall against the captured top-10 and its whole-stream
   ``initial`` and ``final`` recall against the oracle, and tells reports
   apart by everything except ``wall_clock_seconds``.
4. A missing hook target is an error, never a silent zero.
5. Scaled times: each stretch between calibration blocks runs at the mean
   of their speeds, the ends at the nearest block's, and no time counts a
   block's own time.

Exits 0 when every check holds and 1 otherwise.
"""

from __future__ import annotations

import json
import math
import subprocess
import sys
from pathlib import Path

import numpy as np

from check import (
    Oracle,
    comparable,
    failed_batches,
    recall_matches,
    recount_recall,
    stream_recall_matches,
)
from calib import nominal_s
from child import Capture
from run import Timeline
from workloads import WORKLOADS, write_emb1

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SCRATCH = ROOT / ".bench_work" / "selftest"

failures: list[str] = []


def expect(cond: bool, what: str) -> None:
    print(f"{'ok  ' if cond else 'FAIL'} {what}")
    if not cond:
        failures.append(what)


def tiny_runs() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        wanted = {m["name"]: m["unit"] for m in spec[key]}
        for name in WORKLOADS:
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", "7",
                   "--seconds", "1", "--trace", str(trace), "--tiny"]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=170)
            what = f"tiny {name} trace {trace}"
            if proc.returncode != 0:
                expect(False, f"{what}: exit {proc.returncode}: {proc.stderr[-300:]}")
                continue
            res = json.loads(proc.stdout.strip().splitlines()[-1])
            expect(sorted(res) == ["attempted", "correct", "failed", "metrics"], f"{what}: keys")
            expect(res["correct"] and res["failed"] == 0 and res["attempted"] >= 1,
                   f"{what}: output check passes")
            got = res["metrics"]
            expect(set(got) == set(wanted), f"{what}: metric names match BENCHMARK.json")
            expect(all(math.isfinite(got[n]["value"]) and got[n]["unit"] == u
                       for n, u in wanted.items() if n in got), f"{what}: finite values, units")
            printed = {line.split()[0]: line.split()[-1]
                       for line in proc.stdout.splitlines()[:-1] if not line.startswith("#")}
            expect(printed == wanted, f"{what}: prints every metric with its unit")


def planted_rankings() -> None:
    """A gallery with one exact tie near the query, checked with identity params."""
    SCRATCH.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(0)
    g = rng.standard_normal((40, 8))
    g /= np.linalg.norm(g, axis=1, keepdims=True)
    q = g[5] + 0.01 * rng.standard_normal((4, 8))
    g[17] = g[5]  # ids 5 and 17 tie exactly for every query
    write_emb1(SCRATCH / "g.emb1", g)
    write_emb1(SCRATCH / "q.emb1", q)
    oracle = Oracle(SCRATCH / "g.emb1", SCRATCH / "q.emb1", batch=4)
    gamma, beta = np.ones((1, 8)), np.zeros((1, 8))
    good = oracle.top(0, gamma[0], beta[0]).copy()
    rows = np.array([4])
    expect(list(good[0, :2]) == [5, 17], "oracle puts the lower id first on a tie")
    expect(failed_batches(oracle, good, rows, gamma, beta, 1) == 0, "correct top-10 accepted")
    swapped = good.copy()
    swapped[:, [0, 1]] = swapped[:, [1, 0]]
    expect(failed_batches(oracle, swapped, rows, gamma, beta, 1) == 1, "tie to higher id rejected")
    shifted = np.roll(good, 1, axis=1)
    expect(failed_batches(oracle, shifted, rows, gamma, beta, 1) == 1, "shifted top-10 rejected")
    expect(failed_batches(oracle, good[:0], rows[:0], gamma, beta, 1) == 1,
           "batch never returned counts as failed")

    # Whole-stream rankings: the report's initial (identity) and final
    # (last post-step parameters) recall must match the oracle's recount.
    query_class = np.full(4, 5)
    # The final parameters pull every query onto item 30, of another class.
    final_gamma, final_beta = np.ones(8), 10.0 * g[30]
    report = {
        "initial": {"recall": recount_recall(good, query_class)},
        "final": {"recall": recount_recall(oracle.stream_top(final_gamma, final_beta),
                                            query_class)},
    }
    expect(stream_recall_matches(oracle, report, final_gamma, final_beta, query_class),
           "whole-stream recall matching the oracle accepted")
    shifted_initial = dict(report, initial={"recall": recount_recall(shifted, query_class)})
    expect(shifted_initial["initial"] != report["initial"]
           and not stream_recall_matches(oracle, shifted_initial, final_gamma, final_beta,
                                         query_class),
           "initial recall from a shifted whole-stream ranking rejected")
    stale_final = dict(report, final=report["initial"])
    expect(report["final"] != report["initial"]
           and not stream_recall_matches(oracle, stale_final, final_gamma, final_beta,
                                         query_class),
           "final recall ranked under stale parameters rejected")
    missing = {"initial": report["initial"]}
    expect(not stream_recall_matches(oracle, missing, final_gamma, final_beta, query_class),
           "report without final recall rejected")


def report_checks() -> None:
    top = np.array([[0, 1, 2], [3, 64, 5]] * 2)
    query_class = np.array([1, 0, 2, 5])
    report = {"recall": recount_recall(top, query_class), "wall_clock_seconds": 1.0}
    expect(recall_matches(report, top, query_class), "matching recall accepted")
    wrong = dict(report, recall=dict(report["recall"], **{"1": report["recall"]["1"] + 0.25}))
    expect(not recall_matches(wrong, top, query_class), "disagreeing recall rejected")
    later = dict(report, wall_clock_seconds=2.0)
    expect(comparable(later) == comparable(report), "wall clock ignored between reports")
    expect(comparable(wrong) != comparable(report), "other report differences detected")


def missing_hook() -> None:
    class NoBaseline:
        def __init__(self):
            pass

        def adapt_batch(self, raw):
            return raw

    try:
        Capture(gallery_size=256).hook_session(NoBaseline)
        raised = False
    except AttributeError:
        raised = True
    expect(raised, "missing hook target raises")


def timeline_scaling() -> None:
    size = 512
    nom = nominal_s(size)
    # Block A runs at half the reference speed after an untimed warm-up
    # block; block B runs at the reference speed.
    a_start, a_timed, a_end = 0.9, 1.0, 1.0 + 2 * nom
    b_start, b_end = 2.0, 2.0 + nom
    cap = {
        "blocks": np.array([[a_start, a_timed, a_end], [b_start, b_start, b_end]]),
        "started": 0.5, "main_start": 0.6, "setup_end": 1.5, "done": 3.0,
        "batch_times": np.array([[1.2, 1.5], [2.5, 2.6]]),
    }
    t = Timeline(cap, size)
    middle = b_start - a_end
    want_total = (a_start - 0.5) * 0.5 + middle * 0.75 + (3.0 - b_end) * 1.0
    expect(math.isclose(t.time("started", "done"), want_total), "stretches scaled by their blocks")
    expect(math.isclose(t.time("started", "done", scaled=False), 2.5 - (a_end - a_start) - nom),
           "blocks' own time left out")
    expect(np.allclose(t.batches(), [0.3 * 0.75, 0.1 * 1.0]), "each batch scaled by its stretch")
    expect(math.isclose(t.time("main_start", "setup_end"), 0.3 * 0.5 + (1.5 - a_end) * 0.75),
           "a time across a block skips it")


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    planted_rankings()
    report_checks()
    missing_hook()
    timeline_scaling()
    tiny_runs()
    print(f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
