import dataclasses
import math

import numpy as np
import pytest

from pools import pool_of
from queryshift.adapt import AdaptationSession, SessionConfig
from queryshift.errors import DimMismatchError, EmptyBatchError, InvalidSpecError
from queryshift.gallery import CentroidSet, Gallery, build_centroids
from queryshift.losses import (
    _gap_grad,
    _gradcheck_instance,
    _kl_grad,
    _rem_grad,
    _rhm_grad,
    _uniformity_grad,
    finite_diff_grad,
    forward_state,
    gradient_check,
    hard_negative_slots,
    param_grad,
    rem_weights,
    total_loss_and_grad,
)
from queryshift.refine import ConstraintEstimates, build_candidate_sets
from queryshift.vectors import (
    EPS_PROB, clamped_log, l2_normalize_rows, shannon_entropy, softmax_temp
)


def make_instance(seed=0, b=6, d=8, n=40, k=3, tau=0.5):
    rng = np.random.default_rng(seed)
    gallery = Gallery(l2_normalize_rows(rng.standard_normal((n, d))))
    cents = build_centroids(gallery, k, seed)
    raw = rng.standard_normal((b, d))
    gamma = 1.0 + 0.1 * rng.standard_normal(d)
    beta = 0.1 * rng.standard_normal(d)
    from queryshift.losses import affine_normalize

    _, z = affine_normalize(gamma, beta, raw)
    cands = build_candidate_sets(z, gallery, cents, k)
    state = forward_state(gamma, beta, raw, cands, tau)
    return state, raw, cands, gallery


def hand_state(cosines, tau):
    """Identity-adapter state of one query per list of candidate cosines.

    Every query is e_0 in 2-D and its candidate j is the unit vector at
    cosine ``cosines[i][j]`` to it, so the scores are those cosines exactly.
    Lists may differ in length.
    """
    cands = [np.stack([c, np.sqrt(1.0 - c**2)], axis=1) for c in map(np.asarray, cosines)]
    raw = np.tile([1.0, 0.0], (len(cands), 1))
    return forward_state(np.ones(2), np.zeros(2), raw, pool_of(cands), tau)


def em_grad(state):
    """Tent's entropy loss: the REM term with every query kept."""
    return _rem_grad(state, np.ones(state.batch_size), state.batch_size)


def pl_grad(state, labels):
    """Pseudo-label cross-entropy: the KL term from one-hot ``labels``."""
    one_hot = np.zeros_like(state.probs)
    one_hot[np.arange(state.batch_size), labels] = 1.0
    return _kl_grad(state, one_hot)


def weighted(state, e_b):
    """Filter weights and active count as the session takes them."""
    w = rem_weights(state.entropies, e_b)
    return w, int(np.count_nonzero(w))


# A two-candidate list at tau 0.5 whose prediction is [0.9, 0.1].
NINE_TO_ONE = [1.0, 1.0 - 0.5 * math.log(9.0)]


class TestLossUniformity:
    def test_collapsed_batch_is_one(self):
        z = np.tile(np.array([1.0, 0.0]), (4, 1))
        assert _uniformity_grad(z)[0] == pytest.approx(1.0)

    def test_antipodal_pair(self):
        z = np.array([[1.0, 0.0], [-1.0, 0.0]])
        assert _uniformity_grad(z)[0] == pytest.approx(math.exp(-1.0), abs=1e-12)

    def test_decreases_after_spreading(self):
        from queryshift.synth import scale_queries

        rng = np.random.default_rng(2)
        z = l2_normalize_rows(rng.standard_normal((8, 6)) + 3.0)
        spread = scale_queries(z, 1.5)
        assert _uniformity_grad(spread)[0] < _uniformity_grad(z)[0]

    def test_empty_raises(self):
        with pytest.raises(EmptyBatchError):
            _uniformity_grad(np.empty((0, 3)))

    def test_bounded_in_unit_interval(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            z = l2_normalize_rows(rng.standard_normal((5, 4)))
            assert 0.0 < _uniformity_grad(z)[0] <= 1.0


def positives_state(z_q, z_pos):
    """State of queries ``z_q`` whose one-slot candidate lists are ``z_pos``."""
    d = z_q.shape[1]
    return forward_state(np.ones(d), np.zeros(d), z_q, pool_of(z_pos[:, None]), 0.5)


class TestLossGap:
    def test_rectified_gap_is_zero(self):
        z = np.array([[1.0, 0.0], [0.0, 1.0]])
        state = positives_state(z, z)
        assert _gap_grad(state.z, state.positives.mean(axis=0), 0.0)[0] == pytest.approx(0.0)

    def test_arithmetic(self):
        # Query and positive means are 0.5 apart, with delta_s = 0.2.
        z_q = np.array([[1.0, 0.0], [-1.0, 0.0]])
        z_pos = np.array([[0.5, math.sqrt(0.75)], [0.5, -math.sqrt(0.75)]])
        state = positives_state(z_q, z_pos)
        val, _ = _gap_grad(state.z, state.positives.mean(axis=0), 0.2)
        assert val == pytest.approx((0.5 - 0.2) ** 2)

    def test_descent_drives_gap_to_target(self):
        # Gradient-descent trace on the gap term alone: |gap - target| must
        # shrink monotonically for small steps.
        state, raw, cands, _ = make_instance(seed=4)
        delta_s = 0.05
        gamma, beta = state.gamma.copy(), state.beta.copy()
        gaps = []
        for _ in range(25):
            st = forward_state(gamma, beta, raw, cands, state.tau)
            pos_mean = st.positives.mean(axis=0)
            val, dz = _gap_grad(st.z, pos_mean, delta_s)
            gaps.append(abs(math.sqrt(val)))
            g = param_grad(st, dz)
            gamma -= 0.05 * g[: st.dim]
            beta -= 0.05 * g[st.dim :]
        assert all(gaps[i + 1] <= gaps[i] + 1e-12 for i in range(len(gaps) - 1))
        assert gaps[-1] < gaps[0]


class TestLossRem:
    def test_single_term_arithmetic(self):
        state = hand_state([NINE_TO_ONE], 0.5)
        np.testing.assert_allclose(state.probs[0], [0.9, 0.1], rtol=1e-12)
        entropy = -(0.9 * math.log(0.9) + 0.1 * math.log(0.1))
        assert state.entropies[0] == pytest.approx(entropy, rel=1e-12)
        w, n_act = weighted(state, 4.0 * entropy)
        loss, _ = _rem_grad(state, w, n_act)
        assert w[0] == pytest.approx(0.75)
        assert loss == pytest.approx(0.75 * entropy)

    def test_fully_filtered_batch_is_zero(self):
        # Three equal candidates: entropy ln 3 > 0.8 in every row.
        state = hand_state([[0.3, 0.3, 0.3]] * 3, 0.5)
        w, n_act = weighted(state, 0.8)
        loss, dz = _rem_grad(state, w, n_act)
        assert loss == 0.0
        assert np.all(w == 0.0)
        assert np.all(dz == 0.0)

    def test_partial_filtering(self):
        state = hand_state([NINE_TO_ONE, [0.3, 0.3, 0.3]], 0.5)
        e_b = 1.0
        w, n_act = weighted(state, e_b)
        loss, _ = _rem_grad(state, w, n_act)
        entropy = state.entropies[0]
        assert n_act == 1 and w[1] == 0.0
        assert loss == pytest.approx((1.0 - entropy / e_b) * entropy / 1)

    def test_non_positive_threshold(self):
        with pytest.raises(InvalidSpecError):
            rem_weights(hand_state([[1.0]], 0.5).entropies, 0.0)

    def test_bounds_and_permutation_invariance(self):
        rng = np.random.default_rng(6)
        cosines = rng.uniform(-1.0, 1.0, size=(8, 5))
        state = hand_state(cosines, 0.3)
        e_b = 1.1 * float(np.median(state.entropies))
        w, n_act = weighted(state, e_b)
        loss, _ = _rem_grad(state, w, n_act)
        assert 0.0 <= loss <= state.entropies.max()
        assert np.all((w >= 0.0) & (w < 1.0))
        rev = hand_state(cosines[::-1], 0.3)
        loss_rev, _ = _rem_grad(rev, *weighted(rev, e_b))
        assert loss == pytest.approx(loss_rev, abs=1e-12)


def rhm_value(cosines, tau, e_b=None):
    """Hard-mining loss of a hand-made batch; weight 1 per row when ``e_b`` is None."""
    state = hand_state(cosines, tau)
    if e_b is None:
        w, n_act = np.ones(state.batch_size), state.batch_size
    else:
        w, n_act = weighted(state, e_b)
    return _rhm_grad(state, w, n_act, hard_negative_slots(state))[0]


class TestLossRhm:
    # A consistency c is the cosine 2c - 1.
    def test_equal_consistencies_zero(self):
        assert rhm_value([[0.2, 0.2]], 0.5, e_b=0.8) == pytest.approx(0.0)

    def test_hand_value(self):
        # c_pos 0.8, c_hardneg 0.4: H = ln(0.4) - ln(0.8) = ln(1/2).
        state = hand_state([[0.6, -0.2]], 0.01)
        w, n_act = weighted(state, 0.8)
        # The tail probability is ~exp(-80): the weight rounds to exactly 1.
        assert w[0] == 1.0
        val, _ = _rhm_grad(state, w, n_act, hard_negative_slots(state))
        assert val == pytest.approx(math.log(0.5), abs=1e-12)

    def test_swapped_pair_flips_sign(self):
        assert rhm_value([[-0.2, 0.6]], 0.01) == pytest.approx(-math.log(0.5), abs=1e-12)

    def test_permutation_invariant(self):
        rng = np.random.default_rng(7)
        cosines = rng.uniform(-0.8, 1.0, size=(6, 4))
        e_b = 1.1 * float(np.median(hand_state(cosines, 0.5).entropies))
        a = rhm_value(cosines, 0.5, e_b)
        b = rhm_value(cosines[::-1], 0.5, e_b)
        assert a == pytest.approx(b, abs=1e-12)


class TestConsistencyPair:
    # With weight 1 the hard-mining value is ln c_neg - ln c_pos.
    def test_exact_positive(self):
        # A negative at cosine 0.6 has c_neg = 0.8, so the value is ln 0.8 only if c_pos = 1.
        assert rhm_value([[1.0, 0.6]], 0.5) == pytest.approx(math.log(0.8), abs=1e-12)

    def test_orthogonal_negative_is_half(self):
        state = hand_state([[1.0, 0.0]], 0.5)
        assert hard_negative_slots(state).tolist() == [1]
        assert rhm_value([[1.0, 0.0]], 0.5) == pytest.approx(math.log(0.5), abs=1e-12)

    def test_argmax_slot(self):
        state = hand_state([[1.0, 0.2, 0.9, 0.4]], 0.5)
        assert hard_negative_slots(state).tolist() == [2]

    def test_identical_gallery_rows_tie_to_lower_id(self):
        # Items 2 and 7 are one vector, query 0's best negative: the tie goes
        # to the lower id. Query 1 sits on them, so both are in the pool.
        rng = np.random.default_rng(40)
        items = np.abs(rng.standard_normal((10, 4))) * [-1.0, 1.0, 1.0, 1.0] - [2.0, 0, 0, 0]
        items[0] = [1.0, 0.0, 0.0, 0.0]
        items[2] = items[7] = [1.0, 0.5, 0.0, 0.0]
        gallery = Gallery(l2_normalize_rows(items))
        cents = CentroidSet(np.array([[-1.0, 0.0, 0.0, 0.0]]), 0.0, (0.0,))
        raw = gallery.items[[0, 2]]
        cands = build_candidate_sets(raw, gallery, cents, 3)
        assert {2, 7} <= set(cands[0].negative_ids)
        state = forward_state(np.ones(4), np.zeros(4), raw, cands, 0.5)
        assert state.scores[0, cands.ids == 2] == state.scores[0, cands.ids == 7]
        assert cands.ids[hard_negative_slots(state)[0]] == 2

    def test_too_few_candidates(self):
        with pytest.raises(EmptyBatchError):
            hard_negative_slots(hand_state([[1.0]], 0.5))


class TestLossEm:
    def test_one_hot_zero(self):
        # A margin of 2 at tau 0.002 underflows the negatives to exactly 0.
        state = hand_state([[1.0, -1.0, -1.0]], 0.002)
        assert state.probs[0].tolist() == [1.0, 0.0, 0.0]
        assert em_grad(state)[0] == 0.0

    def test_uniform(self):
        state = hand_state([[0.1] * 4], 0.5)
        assert em_grad(state)[0] == pytest.approx(math.log(4), abs=1e-12)

    def test_entropy_derivative_favors_easy_negatives(self):
        # d/dp of the entropy summand is -(ln p + 1); compare magnitudes.
        d = lambda p: abs(-(math.log(p) + 1.0))
        assert d(0.1) == pytest.approx(1.3026, abs=1e-4)
        assert d(0.3) == pytest.approx(0.2040, abs=1e-4)
        assert d(0.1) > d(0.3)

    def test_easy_negative_gradient_dominates_bulk(self):
        rng = np.random.default_rng(8)
        limit = 1.0 / math.e
        p_m = rng.uniform(1e-6, limit, size=10_000)
        p_n = rng.uniform(p_m, limit)
        keep = p_m < p_n
        g = lambda p: np.abs(-(np.log(p) + 1.0))
        assert np.all(g(p_m[keep]) > g(p_n[keep]))


class TestFiniteDiffGrad:
    def test_quadratic(self):
        theta = np.array([1.0, -2.0, 0.5])
        grad = finite_diff_grad(lambda t: float(t @ t), theta)
        np.testing.assert_allclose(grad, 2 * theta, atol=1e-6)

    def test_linear(self):
        c = np.array([3.0, -1.0, 0.25])
        grad = finite_diff_grad(lambda t: float(c @ t), np.zeros(3))
        np.testing.assert_allclose(grad, c, atol=1e-8)


class TestTotalLossAndGrad:
    def test_zero_learning_signal(self):
        # Identical queries, all weights filtered, gap already matching: the
        # uniformity term sits at its maximum and everything else vanishes.
        d = 6
        raw = np.tile(np.linspace(0.2, 1.0, d), (4, 1))
        gallery = Gallery(l2_normalize_rows(np.random.default_rng(9).standard_normal((20, d))))
        cents = build_centroids(gallery, 3, seed=0)
        from queryshift.losses import affine_normalize

        gamma, beta = np.ones(d), np.zeros(d)
        _, z = affine_normalize(gamma, beta, raw)
        cands = build_candidate_sets(z, gallery, cents, 3)
        state = forward_state(gamma, beta, raw, cands, 0.5)
        delta_t = float(np.linalg.norm(state.z.mean(axis=0) - state.positives.mean(axis=0)))
        constraints = ConstraintEstimates(gap_source=delta_t, entropy_threshold=1e-9)
        breakdown, grad = total_loss_and_grad(state, constraints)
        assert breakdown.l_u == pytest.approx(1.0)
        assert breakdown.l_g == pytest.approx(0.0, abs=1e-18)
        assert breakdown.l_rem == 0.0
        assert breakdown.l_rhm == 0.0
        assert breakdown.active_count == 0
        np.testing.assert_allclose(grad, 0.0, atol=1e-12)

    def test_breakdown_sums(self):
        state, _, _, _ = make_instance(seed=10)
        e_b = 1.2 * float(np.median(state.entropies))
        constraints = ConstraintEstimates(gap_source=0.1, entropy_threshold=e_b)
        breakdown, _ = total_loss_and_grad(state, constraints)
        assert breakdown.l_total == pytest.approx(
            breakdown.l_u + breakdown.l_g + breakdown.l_rem + breakdown.l_rhm, abs=1e-9
        )
        assert 0.0 < breakdown.l_u <= 1.0
        assert breakdown.l_g >= 0.0

    def test_matches_finite_differences(self):
        state, raw, cands, _ = make_instance(seed=11, b=8, d=16, k=4)
        e_b = 1.2 * float(np.median(state.entropies))
        constraints = ConstraintEstimates(gap_source=0.1, entropy_threshold=e_b)
        _, grad = total_loss_and_grad(state, constraints)

        w = rem_weights(state.entropies, e_b)
        n_act = int(np.count_nonzero(w))
        slots = hard_negative_slots(state)
        pos_mean = state.positives.mean(axis=0)
        d = state.dim

        def frozen_total(theta):
            st = forward_state(theta[:d], theta[d:], raw, cands, state.tau)
            return (
                _uniformity_grad(st.z)[0]
                + _gap_grad(st.z, pos_mean, 0.1)[0]
                + _rem_grad(st, w, n_act)[0]
                + _rhm_grad(st, w, n_act, slots)[0]
            )

        theta0 = np.concatenate([state.gamma, state.beta])
        numeric = finite_diff_grad(frozen_total, theta0)
        scale = max(np.abs(grad).max(), np.abs(numeric).max(), 1e-8)
        assert np.abs(grad - numeric).max() / scale < 1e-4

    def test_uniformity_gradient_points_to_spread(self):
        # Stepping against the uniformity gradient must increase the spread.
        d = 5
        rng = np.random.default_rng(12)
        raw = rng.standard_normal((2, d)) * 0.5 + np.array([1.0] + [0.0] * (d - 1))
        gamma, beta = np.ones(d), np.zeros(d)
        from queryshift.losses import affine_normalize
        from queryshift.synth import metric_uniformity

        _, z = affine_normalize(gamma, beta, raw)
        state = forward_state(gamma, beta, raw, pool_of([z[:1], z[1:]]), 0.5)
        val, dz = _uniformity_grad(state.z)
        g = param_grad(state, dz)
        before = metric_uniformity(state.z)
        gamma2 = gamma - 0.05 * g[:d]
        beta2 = beta - 0.05 * g[d:]
        _, z2 = affine_normalize(gamma2, beta2, raw)
        assert metric_uniformity(z2) > before

    def test_all_filtered_no_numerical_faults(self):
        state, _, _, _ = make_instance(seed=13)
        constraints = ConstraintEstimates(gap_source=0.3, entropy_threshold=1e-12)
        breakdown, grad = total_loss_and_grad(state, constraints)
        assert breakdown.l_rem == 0.0 and breakdown.l_rhm == 0.0
        assert np.all(np.isfinite(grad))


class TestGradientCheckHarness:
    def test_default_passes(self):
        report = gradient_check(seed=1, dims=(8,), instances=3)
        assert report["passed"]

    def test_perturbed_fails(self, monkeypatch):
        monkeypatch.setattr(
            "queryshift.losses.param_grad", lambda state, dz: param_grad(state, dz) + 1e-2
        )
        report = gradient_check(seed=1, dims=(8,), instances=1)
        assert not report["passed"]

    def test_minimal_dimension(self):
        report = gradient_check(seed=2, dims=(1,), instances=3)
        assert report["passed"]

    def test_per_loss_agreement_sweep(self):
        report = gradient_check(seed=3, dims=(8,), instances=20, b=6, k=3)
        for term, err in report["targets"].items():
            assert err < 1e-4, f"{term} off by {err}"

    def test_report_names_every_target(self):
        report = gradient_check(seed=0, dims=(4,), instances=1)
        assert list(report["targets"]) == ["uniformity", "gap", "rem", "rhm", "em", "kl", "total"]


def ragged_instance(sizes=(2, 6, 11, 3, 4), d=6, seed=30, tau=0.5):
    """Forward state over a block-diagonal pool of candidate lists of different lengths."""
    rng = np.random.default_rng(seed)
    raw = rng.standard_normal((len(sizes), d))
    cands = pool_of([l2_normalize_rows(rng.standard_normal((m, d))) for m in sizes])
    gamma = 1.0 + 0.1 * rng.standard_normal(d)
    beta = 0.1 * rng.standard_normal(d)
    return forward_state(gamma, beta, raw, cands, tau), raw, cands


def per_query_reference(state, src_probs, w, n_act, slots, labels):
    """Loss values and dz of rem, rhm, em, kl and pl, computed query by query
    over each query's own candidate columns, its positive first."""
    b, tau = state.batch_size, state.tau
    out = {t: [0.0, np.zeros_like(state.z)] for t in ("rem", "rhm", "em", "kl", "pl")}
    for i in range(b):
        cols = [state.pos[i]] + [c for c in np.flatnonzero(state.mask[i]) if c != state.pos[i]]
        embs, p, s = state.pool[cols], state.probs[i, cols], state.scores[i, cols]
        lnp = np.log(np.maximum(p, EPS_PROB))
        live = (p > EPS_PROB).astype(np.float64)
        g = -(lnp + live)
        dz_entropy = (p * (g - np.dot(p, g)) / tau) @ embs
        entropy = -(p * lnp).sum()
        out["rem"][0] += w[i] * entropy / n_act
        out["rem"][1][i] = (w[i] / n_act) * dz_entropy
        out["em"][0] += entropy / b
        out["em"][1][i] = dz_entropy / b
        raw_c = (1.0 + np.clip(s, -1.0, 1.0)) / 2.0
        c = np.clip(raw_c, EPS_PROB, 1.0)
        j = cols.index(slots[i])
        act_j, act_0 = (float(EPS_PROB < raw_c[t] < 1.0) for t in (j, 0))
        out["rhm"][0] += w[i] * (np.log(c[j]) - np.log(c[0])) / n_act
        out["rhm"][1][i] = (w[i] / n_act) * (
            act_j / (2.0 * c[j]) * embs[j] - act_0 / (2.0 * c[0]) * embs[0]
        )
        q = src_probs[i, cols]
        out["kl"][0] += np.sum(q * (np.log(np.maximum(q, EPS_PROB)) - lnp)) / b
        out["kl"][1][i] = ((p * np.dot(q, live) - q * live) / (b * tau)) @ embs
        y = cols.index(labels[i])
        ds = live[y] * p
        ds[y] -= live[y]
        out["pl"][0] -= np.log(max(p[y], EPS_PROB)) / b
        out["pl"][1][i] = (ds / (b * tau)) @ embs
    return out


def assert_matches_per_query_loop(state, raw, cands):
    """Every batched term against ``per_query_reference``.

    Batched sums run in another order: float64 values agree to 1e-12 relative.
    """
    src = forward_state(np.ones(state.dim), np.zeros(state.dim), raw, cands, state.tau)
    w = rem_weights(state.entropies, 1.2 * float(np.median(state.entropies)))
    n_act = int(np.count_nonzero(w))
    slots = hard_negative_slots(state)
    labels = np.argmax(src.probs, axis=1)
    ref = per_query_reference(state, src.probs, w, n_act, slots, labels)
    got = {
        "rem": _rem_grad(state, w, n_act),
        "rhm": _rhm_grad(state, w, n_act, slots),
        "em": em_grad(state),
        "kl": _kl_grad(state, src.probs),
        "pl": pl_grad(state, labels),
    }
    for term, (val, dz) in got.items():
        want_val, want_dz = ref[term]
        assert val == pytest.approx(want_val, rel=1e-12, abs=1e-300), term
        scale = np.abs(want_dz).max()
        np.testing.assert_allclose(dz, want_dz, rtol=1e-12, atol=1e-12 * scale, err_msg=term)


class TestPaddedBatch:
    """One forward pass over a pool; columns outside a query's candidates are inert."""

    @pytest.mark.parametrize("tau", [0.5, 0.02])
    def test_losses_match_per_query_loop(self, tau):
        assert_matches_per_query_loop(*ragged_instance(tau=tau))

    @pytest.mark.parametrize("tau", [0.5, 0.02])
    def test_losses_match_per_query_loop_on_shared_pool(self, tau):
        # A real batch: most pool columns are candidates of several queries.
        state, raw, cands, _ = make_instance(seed=31, b=8, d=6, n=40, k=4, tau=tau)
        assert (cands.mask.sum(axis=0) > 1).any()
        assert_matches_per_query_loop(state, raw, cands)

    def test_padded_slots_have_zero_probability(self):
        state, _, cands = ragged_instance()
        sizes = np.array([len(c) for c in cands])
        assert state.probs.shape == (5, sizes.sum())
        assert np.array_equal(state.mask.sum(axis=1), sizes)
        assert np.all(state.probs[~state.mask] == 0.0)
        assert np.all(state.scores[~state.mask] == -np.inf)
        np.testing.assert_allclose(state.probs.sum(axis=1), 1.0, rtol=1e-12)

    def test_rows_match_their_unpadded_forward_pass(self):
        # One pass reduces each row over all pool columns; against the row's
        # own pass that moves only the last bits.
        state, raw, cands = ragged_instance()
        for i, c in enumerate(cands):
            alone = forward_state(
                state.gamma, state.beta, raw[i : i + 1], pool_of([c.candidate_embeddings]), state.tau
            )
            row = state.mask[i]
            np.testing.assert_allclose(state.scores[i, row], alone.scores[0], rtol=1e-12)
            np.testing.assert_allclose(state.probs[i, row], alone.probs[0], rtol=1e-12)
            assert state.entropies[i] == pytest.approx(alone.entropies[0], rel=1e-13)

    def test_padded_slot_never_hard_negative(self):
        # Zero scores on non-candidate columns would beat every valid negative
        # here (consistency 0.5 against at most 0.3); the mask must exclude them.
        state = hand_state([[0.9, -0.6, -0.4], [0.8, -0.9, -0.9, -0.9, -0.5]], 0.5)
        state = dataclasses.replace(state, scores=np.where(state.mask, state.scores, 0.0))
        assert hard_negative_slots(state).tolist() == [2, 7]
        state, _, _ = ragged_instance(tau=0.02)
        slots = hard_negative_slots(state)
        assert np.all(state.mask[np.arange(5), slots])
        assert np.all(slots != state.pos)

    def test_hard_negative_ties_go_to_lowest_slot(self):
        state = hand_state([[0.5, 0.2, 0.7, 0.7, 0.7]], 0.5)
        assert hard_negative_slots(state).tolist() == [2]

    def test_too_few_candidates_in_one_row(self):
        state, _, _ = ragged_instance(sizes=(3, 1, 4))
        with pytest.raises(EmptyBatchError):
            hard_negative_slots(state)

    def test_losses_finite_on_ragged_batch(self):
        for tau in (0.5, 0.02):
            state, raw, cands = ragged_instance(tau=tau)
            src = forward_state(np.ones(state.dim), np.zeros(state.dim), raw, cands, tau)
            assert np.all(np.isfinite(state.entropies))
            e_b = float(np.max(state.entropies)) * 1.5
            constraints = ConstraintEstimates(gap_source=0.1, entropy_threshold=e_b)
            breakdown, grad = total_loss_and_grad(state, constraints)
            assert np.isfinite(breakdown.l_total)
            assert np.all(np.isfinite(grad))
            for val, dz in (
                _kl_grad(state, src.probs),
                em_grad(state),
                pl_grad(state, np.argmax(src.probs, axis=1)),
            ):
                assert np.isfinite(val) and np.all(np.isfinite(dz))

    def test_kl_rejects_mass_on_padded_slots(self):
        state, _, _ = ragged_instance()
        src = state.probs.copy()
        assert not state.mask[0, -1]
        src[0, -1] = 0.1
        with pytest.raises(DimMismatchError):
            _kl_grad(state, src)

    def test_gradient_gate_on_ragged_batch(self):
        state, raw, cands = ragged_instance()
        src = forward_state(np.ones(state.dim), np.zeros(state.dim), raw, cands, state.tau)
        e_b = 1.2 * float(np.median(state.entropies))
        w = rem_weights(state.entropies, e_b)
        n_act = int(np.count_nonzero(w))
        assert 0 < n_act < state.batch_size
        slots = hard_negative_slots(state)
        labels = np.argmax(src.probs, axis=1)
        terms = {
            "rem": lambda st: _rem_grad(st, w, n_act),
            "rhm": lambda st: _rhm_grad(st, w, n_act, slots),
            "em": em_grad,
            "kl": lambda st: _kl_grad(st, src.probs),
            "pl": lambda st: pl_grad(st, labels),
        }
        d = state.dim
        theta0 = np.concatenate([state.gamma, state.beta])
        for name, term in terms.items():
            analytic = param_grad(state, term(state)[1])

            def value(theta, term=term):
                return term(forward_state(theta[:d], theta[d:], raw, cands, state.tau))[0]

            numeric = finite_diff_grad(value, theta0)
            scale = max(np.abs(analytic).max(), np.abs(numeric).max(), 1e-8)
            assert np.abs(analytic - numeric).max() / scale < 1e-4, name

    def test_gradient_check_instances_are_ragged(self):
        # The instances of the gradient gate (criterion 1) mix candidate counts.
        for inst in range(3):
            state = _gradcheck_instance(inst, 16, 8, 4)[0]
            assert len(set(state.mask.sum(axis=1).tolist())) > 1


class TestForwardStateCache:
    """The logs, live mask and entropies a pass keeps are the ones its losses would build."""

    TAUS = [0.5, 0.02, 6e-309]

    @staticmethod
    def states(tau):
        yield ragged_instance(tau=tau)
        state, raw, cands, _ = make_instance(seed=32, b=8, d=6, n=40, k=4, tau=tau)
        yield state, raw, cands

    @pytest.mark.parametrize("tau", TAUS)
    def test_cached_fields_equal_their_primitives(self, tau):
        for state, _, _ in self.states(tau):
            assert not state.mask.all()
            assert np.array_equal(state.log_probs, clamped_log(state.probs))
            assert np.array_equal(state.live, state.probs > EPS_PROB)
            assert np.array_equal(state.entropies, shannon_entropy(state.probs))

    @pytest.mark.parametrize("tau", TAUS)
    def test_source_pass_equals_source_forward_state(self, tau):
        for state, raw, cands in self.states(tau):
            gallery = Gallery(l2_normalize_rows(np.eye(state.dim)))
            session = AdaptationSession(gallery, SessionConfig(tau=tau, k=1))
            assert not np.array_equal(state.gamma, session.source_params.gamma)
            src = forward_state(np.ones(state.dim), np.zeros(state.dim), raw, cands, tau)
            assert session._source_probs(state).tobytes() == src.probs.tobytes()
            # At the source point the source pass is the current one, bit for
            # bit, so the KL of the first batch is exactly zero.
            assert session._source_probs(src).tobytes() == src.probs.tobytes()

    @pytest.mark.parametrize("tau", TAUS)
    def test_softmax_leaves_its_input_unmodified(self, tau):
        for state, _, _ in self.states(tau):
            scores = state.scores.copy()
            probs = softmax_temp(scores, tau)
            assert scores.tobytes() == state.scores.tobytes()
            assert probs.tobytes() == state.probs.tobytes()
