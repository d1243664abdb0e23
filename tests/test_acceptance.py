"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
lines. The mechanism-recovery criteria drive the full engine through the CLI
layer on seeded synthetic streams at the reference scale (64 classes, dim 32,
512-item gallery, 512-query stream, tau 0.02, k 10, batch 64).
"""

import json
import math
import statistics

import numpy as np

from pools import pool_of
from queryshift.adapt import AdapterParams, decouple, sgd_step
from queryshift.cli import cmd_adapt, cmd_probe, parse_config
from queryshift.gallery import Gallery, build_centroids, knn_table
from queryshift.losses import (
    forward_state,
    gradient_check,
    total_loss_and_grad,
)
from queryshift.refine import (
    CandidateSet,
    build_candidate_sets,
)
from queryshift.vectors import l2_normalize_rows, softmax_temp

REFERENCE_SYNTH = {
    "classes": 64,
    "dim": 32,
    "gallery_size": 512,
    "stream_length": 512,
    "sigma_query": 0.1,
    "sigma_gallery": 0.1,
}

SEEDS = (0, 1, 2, 3, 4)


def _report(n, text):
    print(f"\nACCEPTANCE {n}: PASS - {text}")


def reference_config(method, seed, corruptions, decouple_on=False):
    synth = dict(REFERENCE_SYNTH, seed=seed, corruptions=corruptions)
    return parse_config(
        {
            "method": method,
            "tau": 0.02,
            "k": 10,
            "batch": 64,
            "lr": 0.001,
            "decouple": decouple_on,
            "seed": seed,
            "synth": synth,
        }
    )


def test_criterion_1_gradient_correctness():
    report = gradient_check(seed=0, dims=(16,), instances=20, b=8, k=4)
    for term, err in report["targets"].items():
        assert err < 1e-4, f"{term}: relative error {err}"
    _report(1, f"analytic vs finite differences, max rel err {report['max_relative_error']:.2e}")


def test_criterion_2_refined_gradient_never_conflicts():
    rng = np.random.default_rng(2024)
    worst_dot = np.inf
    for _ in range(10_000):
        dim = int(rng.choice([2, 64, 128]))
        g_d = rng.standard_normal(dim) * float(rng.uniform(0.1, 5.0))
        g_r = rng.standard_normal(dim) * float(rng.uniform(0.1, 5.0))
        kl = float(rng.uniform(0.0, 4.0))
        g_hat, w_d = decouple(g_d, g_r, kl)
        dot = float(g_hat @ g_r)
        worst_dot = min(worst_dot, dot)
        assert dot >= -1e-9
        assert math.isclose(w_d, math.exp(-kl), rel_tol=1e-12)
        if float(g_d @ g_r) >= 0:
            assert np.abs(g_hat - w_d * g_d).max() <= 1e-9
        else:
            assert abs(dot) <= 1e-6 * np.linalg.norm(g_d) * np.linalg.norm(g_r)
            g_perp = g_d - (float(g_d @ g_r) / float(g_r @ g_r)) * g_r
            assert np.abs(g_hat - w_d * g_perp).max() <= 1e-9
    _report(2, f"10^4 decouple calls, worst g_hat.g_r = {worst_dot:.2e} >= -1e-9")


def test_criterion_3_entropy_gradient_prefers_easy_negatives():
    rng = np.random.default_rng(31)
    lo = 1e-9
    hi = 1.0 / math.e
    a = rng.uniform(lo, hi, size=10_000)
    b = rng.uniform(lo, hi, size=10_000)
    p_m = np.minimum(a, b)
    p_n = np.maximum(a, b)
    keep = p_m < p_n
    grad_mag = lambda p: np.abs(-(np.log(p) + 1.0))
    assert np.all(grad_mag(p_m[keep]) > grad_mag(p_n[keep]))
    _report(3, f"{int(keep.sum())} sampled pairs, easy-negative gradient always larger")


def test_criterion_4_gap_shift_recovery():
    corruption = [{"kind": "mean_shift", "delta": 0.5, "domain": 0}]
    improvements = []
    for seed in SEEDS:
        rep = cmd_adapt(reference_config("rest", seed, corruption))
        delta_s = rep["final"]["delta_s"]
        before = abs(rep["initial"]["gap"] - delta_s)
        after = abs(rep["final"]["gap"] - delta_s)
        improvements.append(before - after)
    med = statistics.median(improvements)
    assert med > 0.0, f"median |gap - delta_s| improvement {med}"
    _report(4, f"median |gap - delta_s| shrank by {med:.2e} over {len(SEEDS)} seeds")


def test_criterion_5_uniformity_collapse_recovery():
    corruption = [{"kind": "uniformity_collapse", "rho": 0.8}]
    unif_gains, recall_diffs = [], []
    for seed in SEEDS:
        rest = cmd_adapt(reference_config("rest", seed, corruption))
        none = cmd_adapt(reference_config("none", seed, corruption))
        unif_gains.append(rest["final"]["uniformity"] - none["final"]["uniformity"])
        recall_diffs.append(rest["recall"]["1"] - none["recall"]["1"])
    med_u = statistics.median(unif_gains)
    med_r = statistics.median(recall_diffs)
    assert med_u > 0.0, f"median uniformity gain {med_u}"
    assert med_r >= 0.0, f"median recall@1 difference {med_r}"
    _report(5, f"median uniformity gain {med_u:.2e}, median recall@1 diff {med_r:+.4f}")


def test_criterion_6_no_self_harm_in_distribution():
    diffs = []
    for seed in SEEDS:
        rest = cmd_adapt(reference_config("rest", seed, []))
        none = cmd_adapt(reference_config("none", seed, []))
        diffs.append(abs(rest["recall"]["1"] - none["recall"]["1"]))
    med = statistics.median(diffs)
    assert med <= 0.01 + 1e-12, f"median recall@1 drift {med}"
    _report(6, f"median |recall@1 drift| {med:.4f} <= 1 point on the clean stream")


def test_criterion_7_fully_filtered_batch_is_inert():
    # Identical queries, matching gap target, and an entropy threshold below
    # every batch entropy: the step must be an exact no-op with no faults.
    dim = 8
    rng = np.random.default_rng(7)
    gallery = Gallery(l2_normalize_rows(rng.standard_normal((32, dim))))
    cents = build_centroids(gallery, 4, seed=0)
    raw = np.tile(rng.standard_normal(dim), (6, 1))
    params = AdapterParams.identity(dim)
    from queryshift.losses import affine_normalize

    _, z = affine_normalize(params.gamma, params.beta, raw)
    cands = build_candidate_sets(z, gallery, cents, 4)
    state = forward_state(params.gamma, params.beta, raw, cands, 0.02)
    assert np.all(state.entropies > 1e-300)
    e_b = float(state.entropies.min()) * 0.5
    delta_t = float(np.linalg.norm(state.z.mean(axis=0) - state.positives.mean(axis=0)))
    breakdown, grad = total_loss_and_grad(state, delta_t, e_b)
    assert breakdown.l_rem == 0.0
    assert breakdown.l_rhm == 0.0
    assert breakdown.active_count == 0
    assert np.all(np.isfinite(grad))
    np.testing.assert_allclose(grad, 0.0, atol=1e-12)
    stepped = sgd_step(params, grad, 1e-3)
    assert np.array_equal(stepped.flat(), params.flat())
    _report(7, "all-filtered batch gives zero loss, zero gradient, unchanged parameters")


def test_criterion_8_refinement_masks_full_prediction():
    rng = np.random.default_rng(8)
    worst = 0.0
    for trial in range(20):
        n = int(rng.integers(8, 65))
        d = int(rng.integers(3, 10))
        gallery = Gallery(l2_normalize_rows(rng.standard_normal((n, d))))
        q = rng.standard_normal(d)
        q /= np.linalg.norm(q)
        tau = float(rng.uniform(0.05, 1.0))
        full = softmax_temp(gallery.items @ q, tau)
        m = int(rng.integers(2, n + 1))
        ids = rng.choice(n, size=m, replace=False)
        order = np.argsort(-(gallery.items[ids] @ q), kind="stable")
        ids = [int(ids[j]) for j in order]
        cs = CandidateSet(0, ids[0], tuple(ids[1:]), gallery.items[ids])
        state = forward_state(
            np.ones(d), np.zeros(d), q[None], pool_of([cs.candidate_embeddings]), tau
        )
        probs = state.probs[0]
        masked = full[ids] / full[ids].sum()
        worst = max(worst, float(np.abs(probs - masked).max()))
    assert worst < 1e-9
    _report(8, f"refined prediction equals masked+renormalized full softmax, worst dev {worst:.1e}")


def test_criterion_9_oracle_equivalence():
    rng = np.random.default_rng(9)
    for _ in range(100):
        n = int(rng.integers(10, 200))
        d = int(rng.integers(2, 12))
        k = int(rng.integers(1, min(n, 15) + 1))
        gallery = Gallery(l2_normalize_rows(rng.standard_normal((n, d))))
        q = rng.standard_normal(d)
        q /= np.linalg.norm(q)
        sims = [(float(np.dot(row, q)), i) for i, row in enumerate(gallery.items)]
        sims.sort(key=lambda t: (-t[0], t[1]))
        oracle = [i for _, i in sims[:k]]
        assert list(knn_table(gallery, q[None], k)[0]) == oracle
    for seed in range(10):
        gallery = Gallery(l2_normalize_rows(np.random.default_rng(seed).standard_normal((120, 6))))
        cents = build_centroids(gallery, 8, seed=seed)
        trace = cents.energy_trace
        assert all(trace[i + 1] <= trace[i] + 1e-9 for i in range(len(trace) - 1))
    _report(9, "knn matches 100 linear scans; k-means energy non-increasing per iteration")


def test_criterion_10_probe_study():
    corruption = [{"kind": "uniformity_collapse", "rho": 0.8}]
    cfg = reference_config("none", 0, corruption)
    none_report = cmd_adapt(cfg)
    probe = cmd_probe(cfg, [1.0, 1.5, 2.0], [0.0])

    recalls = [row["recall"]["1"] for row in probe["probe"]["scale"]]
    assert recalls[0] <= recalls[1] <= recalls[2], f"scale curve {recalls}"

    # lambda_scale=1.0 and lambda_offset=0.0 reproduce no-adapt bit-exactly.
    for row in (probe["probe"]["scale"][0], probe["probe"]["offset"][0]):
        assert row["recall"] == none_report["recall"]
        assert row["uniformity"] == none_report["initial"]["uniformity"]
        assert row["gap"] == none_report["initial"]["gap"]
        assert row["consistency"] == none_report["initial"]["consistency"]

    # A harsher collapse (noisier classes, rho=0.9) makes the same curve
    # strictly recover, not just stay flat.
    harsh = parse_config(
        {
            "method": "none",
            "tau": 0.02,
            "k": 10,
            "batch": 64,
            "synth": {
                "classes": 96,
                "dim": 12,
                "gallery_size": 384,
                "stream_length": 256,
                "sigma_query": 0.35,
                "sigma_gallery": 0.1,
                "seed": 7,
                "corruptions": [{"kind": "uniformity_collapse", "rho": 0.9}],
            },
        }
    )
    harsh_probe = cmd_probe(harsh, [1.0, 1.5, 2.0], [0.0])
    harsh_recalls = [row["recall"]["1"] for row in harsh_probe["probe"]["scale"]]
    assert harsh_recalls[0] <= harsh_recalls[1] <= harsh_recalls[2]
    assert harsh_recalls[2] > harsh_recalls[0]
    _report(
        10,
        f"scale probe non-decreasing {recalls} (reference) and {harsh_recalls} (harsh); "
        "identity lambdas bit-exact",
    )


def test_criterion_11_report_determinism():
    corruption = [{"kind": "mean_shift", "delta": 0.5, "domain": 0}]
    cfg_a = reference_config("rest", 3, corruption, decouple_on=True)
    cfg_b = reference_config("rest", 3, corruption, decouple_on=True)
    rep_a = cmd_adapt(cfg_a)
    rep_b = cmd_adapt(cfg_b)
    rep_a.pop("wall_clock_seconds")
    rep_b.pop("wall_clock_seconds")
    assert json.dumps(rep_a, sort_keys=True) == json.dumps(rep_b, sort_keys=True)
    _report(11, "paired runs produce identical reports modulo wall clock")
