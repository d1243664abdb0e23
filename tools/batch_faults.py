"""Minor page faults inside ``queryshift adapt``'s batch calls, over heap layouts.

Usage: python3 tools/batch_faults.py --config C [--layouts N] [--src DIR]

Which pages a batch call touches for the first time depends on what the
process allocated before it, so a fault count read in one process says
little. For each layout k in 0..N-1 this starts a fresh interpreter that
allocates k x 4 KB before it imports ``queryshift``, counts ``ru_minflt``
around each ``AdaptationSession.adapt_batch``/``run_baseline`` call, and
runs ``cli.main(["--config", C, "adapt"])`` with the report discarded. BLAS
is pinned to one thread, as in the benchmark. It prints each layout's total
and per-batch median, then the median and range of the totals over the
layouts. ``--src`` names the ``src`` directory to import ``queryshift`` from
(default: this checkout's), so two checkouts can be compared on one config.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
PAGE = 4096
THREAD_PINS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def child(config: str, src: str, layout: int) -> None:
    """One layout's run; prints the JSON list of each batch call's minor faults."""
    pad = bytearray(layout * PAGE)  # noqa: F841 - held so the heap keeps its offset
    import resource

    sys.path.insert(0, src)
    from queryshift import adapt, cli

    faults = []

    def counted(fn):
        def call(*args, **kwargs):
            before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
            result = fn(*args, **kwargs)
            faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
            return result
        return call

    session = adapt.AdaptationSession
    for name in ("adapt_batch", "run_baseline"):
        setattr(session, name, counted(getattr(session, name)))
    rc = cli.main(["--config", config, "adapt", "--out", os.devnull])
    if rc != 0:
        sys.exit(rc)
    print(json.dumps(faults))


def layout_faults(config: str, src: str, layout: int) -> list:
    env = dict(os.environ, **{name: "1" for name in THREAD_PINS})
    out = subprocess.run(
        [sys.executable, __file__, "--config", config, "--src", src, "--child", str(layout)],
        env=env, check=True, capture_output=True, text=True,
    ).stdout
    return json.loads(out.splitlines()[-1])


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--config", required=True, help="an adapt run config (JSON)")
    ap.add_argument("--layouts", type=int, default=12, help="fresh processes, 1 or more")
    ap.add_argument("--src", default=str(SRC), help="directory that holds queryshift")
    ap.add_argument("--child", type=int, help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.child is not None:
        child(args.config, args.src, args.child)
        return 0
    if args.layouts < 1:
        ap.error("--layouts must be 1 or more")
    totals = []
    print("layout total_faults batch_median batches")
    for k in range(args.layouts):
        faults = layout_faults(args.config, args.src, k)
        totals.append(sum(faults))
        print(f"{k} {totals[-1]} {statistics.median(faults):.1f} {len(faults)}")
    print(f"over {len(totals)} layouts: total median {statistics.median(totals):.1f}, "
          f"range {min(totals)}-{max(totals)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
