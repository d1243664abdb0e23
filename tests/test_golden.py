"""Golden ``cmd_adapt`` reports: refactors must reproduce them.

The fixture holds one report per case (method x shift x decouple), minus
``wall_clock_seconds``, recorded once from the engine as it stood before the
session pipeline was merged. It is never regenerated to make a change pass;
a change that alters behaviour on purpose says so and why.

Comparison rules: keys, strings, ints, bools and nulls match exactly, and so
does every recall value (they are hit counts over a fixed stream). Other
floats match to a relative tolerance of 1e-9, or within 1e-12 of each other
for values at zero (the KL divergence on the first step).
"""

import json
import math
from pathlib import Path

import pytest

from queryshift.cli import cmd_adapt, parse_config

FIXTURE = Path(__file__).parent / "golden" / "adapt_reports.json"

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


def golden_report(case: str) -> dict:
    """The report the fixture stores for ``case``, as plain JSON data."""
    report = cmd_adapt(parse_config(case_config(case)))
    report.pop("wall_clock_seconds")
    return json.loads(json.dumps(report))


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
