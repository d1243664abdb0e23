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

An ablation keeps the uniformity term's value in the report but drops its
gradient: under the mean shift ``rest`` then falls (0.638), so the term that
preserves the common space helps.

Under the diverse shift no method beats ``none`` (0.626), so no gain over it
is asserted there. Only orderings that held on all five seeds are asserted.
Budget: the 35 runs take about 3 s on a 2-vCPU machine; keep them under 5 s.
"""

import functools

import pytest

from queryshift import losses
from queryshift.cli import cmd_adapt, parse_config

SEEDS = (0, 1, 2, 3, 4)
MEAN_SHIFT = [{"kind": "mean_shift", "delta": 1.0, "domain": 0}]
DIVERSE = [
    {"kind": "mean_shift", "delta": 1.0, "domain": 0},
    {"kind": "uniformity_collapse", "rho": 0.6},
    {"kind": "gaussian_noise", "sigma": 0.2},
]
SHIFTS = {"mean": MEAN_SHIFT, "diverse": DIVERSE}


@functools.cache
def recall_1(method, seed, shift, decouple_on=False):
    """Online Recall@1 of ``method`` at ``lr`` 1.0 on the claims shape under
    ``SHIFTS[shift]``; each run is taken once and shared between tests."""
    return _recall_1(method, seed, SHIFTS[shift], decouple_on)


def _recall_1(method, seed, corruptions, decouple_on=False):
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
    rest = recall_1("rest", seed, "mean")
    none = recall_1("none", seed, "mean")
    tent = recall_1("tent", seed, "mean")
    assert rest > none > tent, (rest, none, tent)


@pytest.mark.parametrize("seed", SEEDS)
def test_decoupling_limits_forgetting_under_diverse_shift(seed):
    decoupled = recall_1("rest", seed, "diverse", decouple_on=True)
    coupled = recall_1("rest", seed, "diverse")
    tent = recall_1("tent", seed, "diverse")
    assert decoupled > coupled > tent, (decoupled, coupled, tent)


@pytest.mark.parametrize("seed", SEEDS)
def test_uniformity_term_helps_under_mean_shift(seed, monkeypatch):
    full = recall_1("rest", seed, "mean")

    def without_uniformity_gradient(state, w, n_act, slots, delta_s):
        # losses._robust_terms with the uniformity term's dz left out of the sum.
        terms = [
            losses._gap_grad(state.z, state.positives.mean(axis=0), delta_s),
            losses._rem_grad(state, w, n_act),
            losses._rhm_grad(state, w, n_act, slots),
        ]
        values = [losses._uniformity_grad(state.z)[0]] + [val for val, _ in terms]
        return values, sum(dz for _, dz in terms)

    monkeypatch.setattr(losses, "_robust_terms", without_uniformity_gradient)
    ablated = _recall_1("rest", seed, MEAN_SHIFT)
    assert full > ablated, (full, ablated)
