"""The paper's two claims, at a learning rate where the adapter moves.

At the default ``lr`` 1e-3 the adapter barely leaves identity, so ``rest``
and ``none`` score within noise and the acceptance criteria cannot tell them
apart. At ``lr`` 1.0 on the reference shape (64 classes, dim 32, 512 items,
here 1,024 queries with ``sigma_query`` 0.3) both claims show, per seed, on
seeds 0-4 (Recall@1 medians in brackets):

- a query-shift-robust objective beats entropy minimization under a mean
  shift: ``rest`` (0.667) > ``none`` (0.597) > ``tent`` (0.392);
- gradient decoupling limits forgetting under a diverse shift: ``rest`` with
  decoupling (0.531) > ``rest`` without it (0.481) > ``tent`` (0.085).

Under the diverse shift no method beats ``none`` (0.626), so no gain over it
is asserted there. Only orderings that held on all five seeds are asserted.
Budget: the 30 runs take about 3 s on a 2-vCPU machine; keep them under 5 s.
"""

import pytest

from queryshift.cli import cmd_adapt, parse_config

SEEDS = (0, 1, 2, 3, 4)
MEAN_SHIFT = [{"kind": "mean_shift", "delta": 1.0, "domain": 0}]
DIVERSE = [
    {"kind": "mean_shift", "delta": 1.0, "domain": 0},
    {"kind": "uniformity_collapse", "rho": 0.6},
    {"kind": "gaussian_noise", "sigma": 0.2},
]


def recall_1(method, seed, corruptions, decouple_on=False):
    """Online Recall@1 of ``method`` at ``lr`` 1.0 on the claims shape."""
    cfg = {
        "method": method,
        "tau": 0.02,
        "k": 10,
        "batch": 64,
        "lr": 1.0,
        "decouple": decouple_on,
        "seed": seed,
        "synth": {
            "classes": 64,
            "dim": 32,
            "gallery_size": 512,
            "stream_length": 1024,
            "sigma_query": 0.3,
            "sigma_gallery": 0.1,
            "seed": seed,
            "corruptions": corruptions,
        },
    }
    return cmd_adapt(parse_config(cfg))["recall"]["1"]


@pytest.mark.parametrize("seed", SEEDS)
def test_robust_objective_beats_entropy_minimization_under_mean_shift(seed):
    rest = recall_1("rest", seed, MEAN_SHIFT)
    none = recall_1("none", seed, MEAN_SHIFT)
    tent = recall_1("tent", seed, MEAN_SHIFT)
    assert rest > none > tent, (rest, none, tent)


@pytest.mark.parametrize("seed", SEEDS)
def test_decoupling_limits_forgetting_under_diverse_shift(seed):
    decoupled = recall_1("rest", seed, DIVERSE, decouple_on=True)
    coupled = recall_1("rest", seed, DIVERSE)
    tent = recall_1("tent", seed, DIVERSE)
    assert decoupled > coupled > tent, (decoupled, coupled, tent)
