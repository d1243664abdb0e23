"""Golden ``cmd_adapt``, ``cmd_probe`` and ``cmd_metrics`` reports: refactors
must reproduce them.

``adapt_reports.json`` holds one report per case (method x shift x decouple),
recorded from the engine as it stood before the session pipeline was merged.
``probe_metrics_reports.json`` holds one probe and one metrics report per
shift, plus a gallery smaller than the deepest recall cut-off, recorded from
the engine as it stood before ranking switched from a full sort to top-k
selection. Every report is stored minus ``wall_clock_seconds``. A fixture is
never regenerated to make a change pass; a change that alters behaviour on
purpose says so and why.

One such change, edited into the fixture by hand: ``series.angle_deg[0]`` of
the six ``rest`` cases is null. On the first step the parameters are the
source ones, so the general direction is exactly zero and has no angle; the
recorded 52.05, 76.21 and 60.43 degrees were angles to roundoff in the KL
gradient. Every other field stayed within the comparison rules.

Comparison rules: keys, strings, ints, bools and nulls match exactly, and so
does every recall value (they are hit counts over a fixed stream). Other
floats match to a relative tolerance of 1e-9, or within 1e-12 of each other
for values at zero.
"""

import inspect
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from queryshift import cli
from queryshift.cli import _config_echo, cmd_adapt, cmd_metrics, cmd_probe, parse_config

FIXTURE = Path(__file__).parent / "golden" / "adapt_reports.json"
PROBE_FIXTURE = Path(__file__).parent / "golden" / "probe_metrics_reports.json"

RTOL = 1e-9
ATOL = 1e-12

SHIFTS = {
    "mean_shift": [{"kind": "mean_shift", "delta": 0.8, "domain": 0}],
    "collapse": [{"kind": "uniformity_collapse", "rho": 0.7}],
    "diverse": [
        {"kind": "mean_shift", "delta": 0.8, "domain": 0},
        {"kind": "mean_shift", "delta": 0.8, "domain": 1},
        {"kind": "gaussian_noise", "sigma": 0.3},
    ],
}
METHODS = ("rest", "tent", "pl", "none")
CASES = [
    f"{method}-{shift}-{'dec' if dec else 'nodec'}"
    for method in METHODS
    for shift in SHIFTS
    for dec in (True, False)
]


def case_config(case: str) -> dict:
    method, shift, dec = case.split("-")
    return {
        "method": method,
        "tau": 0.02,
        "k": 5,
        "batch": 32,
        "lr": 0.05,
        "decouple": dec == "dec",
        "seed": 3,
        "synth": {
            "classes": 16,
            "dim": 8,
            "gallery_size": 96,
            "stream_length": 150,
            "sigma_query": 0.2,
            "sigma_gallery": 0.1,
            "seed": 7,
            "corruptions": SHIFTS[shift],
        },
    }


# Probe lambdas: the identity of each probe plus points on both sides.
LAMBDA_SCALE = (1.0, 0.5, 2.0)
LAMBDA_OFFSET = (0.0, 0.5, 1.0, -0.5)
# A 4-class, 8-item gallery: shallower than the deepest recall cut-off (10).
TINY_SYNTH = {
    "classes": 4,
    "dim": 6,
    "gallery_size": 8,
    "stream_length": 40,
    "sigma_query": 0.3,
    "sigma_gallery": 0.2,
    "seed": 5,
    "corruptions": SHIFTS["mean_shift"],
}
PROBE_CASES = [
    f"{command}-{shift}" for command in ("probe", "metrics") for shift in (*SHIFTS, "tiny")
]


def probe_case_config(case: str) -> dict:
    _, shift = case.split("-")
    if shift == "tiny":
        return {"method": "none", "k": 3, "seed": 3, "synth": dict(TINY_SYNTH)}
    return case_config(f"none-{shift}-nodec")


def _plain(report: dict) -> dict:
    report.pop("wall_clock_seconds")
    return json.loads(json.dumps(report))


def golden_report(case: str) -> dict:
    """The report the fixture stores for ``case``, as plain JSON data."""
    return _plain(cmd_adapt(parse_config(case_config(case))))


def golden_probe_report(case: str) -> dict:
    """The probe or metrics report ``probe_metrics_reports.json`` stores for ``case``."""
    cfg = parse_config(probe_case_config(case))
    if case.startswith("probe"):
        return _plain(cmd_probe(cfg, LAMBDA_SCALE, LAMBDA_OFFSET))
    return _plain(cmd_metrics(cfg))


def assert_matches(got, want, path="report"):
    if isinstance(want, dict):
        assert isinstance(got, dict), path
        assert sorted(got) == sorted(want), path
        for key in want:
            assert_matches(got[key], want[key], f"{path}.{key}")
    elif isinstance(want, list):
        assert isinstance(got, list) and len(got) == len(want), path
        for i, (g, w) in enumerate(zip(got, want)):
            assert_matches(g, w, f"{path}[{i}]")
    elif isinstance(want, float) and "recall" not in path:
        assert isinstance(got, float), path
        assert math.isclose(got, want, rel_tol=RTOL, abs_tol=ATOL), f"{path}: {got!r} != {want!r}"
    else:
        assert type(got) is type(want) and got == want, f"{path}: {got!r} != {want!r}"


@pytest.fixture(scope="module")
def golden():
    return json.loads(FIXTURE.read_text(encoding="utf-8"))


def test_fixture_covers_every_case(golden):
    assert sorted(golden) == sorted(CASES)


@pytest.mark.parametrize("case", CASES)
def test_report_matches_golden(golden, case):
    assert_matches(golden_report(case), golden[case])


@pytest.fixture(scope="module")
def golden_probe():
    return json.loads(PROBE_FIXTURE.read_text(encoding="utf-8"))


def test_probe_fixture_covers_every_case(golden_probe):
    assert sorted(golden_probe) == sorted(PROBE_CASES)


@pytest.mark.parametrize("case", PROBE_CASES)
def test_probe_report_matches_golden(golden_probe, case):
    assert_matches(golden_probe_report(case), golden_probe[case])


@pytest.mark.parametrize(
    "case", ["rest-diverse-dec", "tent-mean_shift-nodec", "none-collapse-nodec", "probe-diverse"]
)
def test_report_independent_of_report_block(monkeypatch, case):
    """Reports built in report blocks of 1, 7, the batch size (32) and more
    than the stream (150 queries) match the one-block report: every series
    row bit for bit, recalls exactly, other floats under the golden rules."""
    report = golden_probe_report if case.startswith("probe") else golden_report
    want = report(case)
    for block in (1, 7, 32, 151):
        monkeypatch.setattr(cli, "_ROW_BLOCK", block)
        got = report(case)
        assert got.get("series") == want.get("series"), block
        assert_matches(got, want, f"block {block}")


def test_config_echo_parses_back(golden, golden_probe):
    """Each golden report's ``config`` parses to a config that echoes it
    unchanged, with each value's JSON type."""
    for report in [*golden.values(), *golden_probe.values()]:
        echo = _config_echo(parse_config(report["config"]))
        assert json.dumps(echo, sort_keys=True) == json.dumps(report["config"], sort_keys=True)


# The stream-rest benchmark's shape at 512 queries: OpenBLAS's 2-thread GEMM
# rounds some pool scores differently, and 34 of the report's 167 leaves differ
# from the 1-thread run (by at most 2.6e-12 relative). A 16-class, 128-item
# gallery gives equal floats at both counts, so it would test nothing.
BLAS_CONFIG = {
    "method": "rest",
    "batch": 64,
    "seed": 11,
    "decouple": True,
    "synth": {
        "classes": 64,
        "dim": 32,
        "gallery_size": 512,
        "stream_length": 512,
        "sigma_query": 0.3,
        "sigma_gallery": 0.1,
        "seed": 11,
        "corruptions": [
            {"kind": "mean_shift", "delta": 1.0, "domain": 0},
            {"kind": "uniformity_collapse", "rho": 0.6},
            {"kind": "gaussian_noise", "sigma": 0.2},
        ],
    },
}


def test_report_independent_of_blas_threads(tmp_path):
    """An ``adapt`` report at 1 and at 2 BLAS threads matches under the golden
    rules: equal keys, ints and recalls, floats within RTOL / ATOL.

    The thread count is read only when numpy loads, so each run is its own
    process.
    """
    config = tmp_path / "config.json"
    config.write_text(json.dumps(BLAS_CONFIG), encoding="utf-8")
    src = str(Path(inspect.getfile(cmd_adapt)).parents[1])
    pythonpath = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    reports = []
    for threads in ("1", "2"):
        env = {**os.environ, "PYTHONPATH": pythonpath, "OPENBLAS_NUM_THREADS": threads,
               "OMP_NUM_THREADS": threads, "MKL_NUM_THREADS": threads}
        proc = subprocess.run(
            [sys.executable, "-m", "queryshift.cli", "--config", str(config), "adapt"],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        reports.append(_plain(json.loads(proc.stdout)))
    assert_matches(reports[1], reports[0])
