import dataclasses
import math
import warnings
from collections import Counter

import numpy as np
import pytest

from pools import pool_of
from queryshift.adapt import (
    AdaptationSession,
    AdapterParams,
    SessionConfig,
    decouple,
    forward_adapter,
    kl_general,
    sgd_step,
)
from queryshift.errors import (
    DimMismatchError,
    DivergenceError,
    InvalidKError,
    InvalidSpecError,
    ZeroVectorError,
)
from queryshift import adapt, gallery, losses, refine, vectors
from queryshift.gallery import Gallery, build_centroids
from queryshift.losses import finite_diff_grad, forward_state, param_grad
from queryshift.synth import SyntheticSpec, generate_benchmark
from queryshift.vectors import l2_normalize_rows


def small_benchmark(seed=0, classes=8, dim=12, gallery=64, stream=48, sq=0.1, sg=0.1):
    spec = SyntheticSpec(
        classes=classes,
        dim=dim,
        gallery_size=gallery,
        stream_length=stream,
        sigma_query=sq,
        sigma_gallery=sg,
        seed=seed,
    )
    return generate_benchmark(spec)


class TestForwardAdapter:
    def test_identity_equals_plain_normalization(self):
        rng = np.random.default_rng(0)
        raw = rng.standard_normal((5, 7))
        z = forward_adapter(AdapterParams.identity(7), raw)
        assert np.array_equal(z, l2_normalize_rows(raw))

    def test_uniform_scale_absorbed(self):
        rng = np.random.default_rng(1)
        raw = rng.standard_normal((4, 6))
        base = forward_adapter(AdapterParams.identity(6), raw)
        doubled = forward_adapter(AdapterParams(gamma=np.full(6, 2.0), beta=np.zeros(6)), raw)
        assert np.array_equal(base, doubled)

    def test_degenerate_row_raises(self):
        raw = np.array([[0.5, -0.5]])
        params = AdapterParams(gamma=np.ones(2), beta=-raw[0])
        with pytest.raises(ZeroVectorError):
            forward_adapter(params, raw)

    def test_overflowing_row_norm_raises(self):
        # Finite parameters whose rows overflow the norm would otherwise be
        # divided by inf and come out as zero embeddings.
        raw = np.ones((2, 3))
        params = AdapterParams(gamma=np.full(3, 1e300), beta=np.zeros(3))
        with pytest.raises(DivergenceError):
            forward_adapter(params, raw)


class TestKlGeneral:
    def _state_pair(self, seed=2):
        rng = np.random.default_rng(seed)
        d, b = 6, 4
        raw = rng.standard_normal((b, d))
        cands = pool_of([l2_normalize_rows(rng.standard_normal((5, d))) for _ in range(b)])
        gamma = 1.0 + 0.1 * rng.standard_normal(d)
        beta = 0.1 * rng.standard_normal(d)
        cur = forward_state(gamma, beta, raw, cands, 0.5)
        src = forward_state(np.ones(d), np.zeros(d), raw, cands, 0.5)
        return cur, src, raw, cands

    def test_identical_predictions_zero(self):
        cur, _, _, _ = self._state_pair()
        kl, grad = kl_general(cur, [p.copy() for p in cur.probs])
        assert kl == 0.0
        assert not grad.any()

    def test_hand_value(self):
        # Single two-way prediction: KL((.5,.5) || (.9,.1)) in nats.
        expected = 0.5 * math.log(0.5 / 0.9) + 0.5 * math.log(0.5 / 0.1)
        # Scores +-c at tau 0.5 put odds exp(4c) = 9 on the first candidate.
        c = math.log(9.0) / 4.0
        s = math.sqrt(1.0 - c * c)
        cand = np.array([[c, s, 0.0, 0.0], [-c, s, 0.0, 0.0]])
        st = forward_state(np.ones(4), np.zeros(4), np.eye(4)[:1], pool_of([cand]), 0.5)
        np.testing.assert_allclose(st.probs[0], [0.9, 0.1], rtol=1e-14, atol=0)
        kl, _ = kl_general(st, [np.array([0.5, 0.5])])
        assert kl == pytest.approx(expected, abs=1e-12)
        assert expected == pytest.approx(0.5108, abs=1e-4)

    def test_gradient_matches_finite_differences(self):
        cur, src, raw, cands = self._state_pair(seed=4)
        _, grad = kl_general(cur, src.probs)
        d = cur.dim

        def value(theta):
            st = forward_state(theta[:d], theta[d:], raw, cands, cur.tau)
            total = 0.0
            for i in range(st.batch_size):
                q = src.probs[i, st.mask[i]]
                p = st.probs[i, st.mask[i]]
                total += float(np.sum(q * (np.log(q) - np.log(p))))
            return total / st.batch_size

        numeric = finite_diff_grad(value, np.concatenate([cur.gamma, cur.beta]))
        scale = max(np.abs(grad).max(), np.abs(numeric).max(), 1e-8)
        assert np.abs(grad - numeric).max() / scale < 1e-4

    def test_support_mismatch(self):
        cur, _, _, _ = self._state_pair()
        bad = [p[:-1] for p in cur.probs]
        with pytest.raises(DimMismatchError):
            kl_general(cur, bad)


class TestDecouple:
    def test_agreeing_gradient_passes_through(self):
        g_hat, w_d = decouple(np.array([3.0, 4.0]), np.array([1.0, 0.0]), kl=0.0)
        np.testing.assert_allclose(g_hat, [3.0, 4.0])
        assert w_d == 1.0

    def test_conflicting_component_removed(self):
        g_hat, w_d = decouple(np.array([-3.0, 4.0]), np.array([1.0, 0.0]), kl=0.0)
        np.testing.assert_allclose(g_hat, [0.0, 4.0], atol=1e-12)
        assert w_d == 1.0

    def test_fully_conflicting_suppressed(self):
        g_r = np.array([0.5, -0.25, 1.0])
        g_hat, _ = decouple(-g_r, g_r, kl=0.0)
        np.testing.assert_allclose(g_hat, 0.0, atol=1e-12)

    def test_zero_general_direction_guard(self):
        g_d = np.array([1.0, 2.0])
        g_hat, w_d = decouple(g_d, np.zeros(2), kl=0.3)
        assert w_d == pytest.approx(math.exp(-0.3))
        np.testing.assert_allclose(g_hat, math.exp(-0.3) * g_d)

    def test_damping_weight(self):
        g_hat, w_d = decouple(np.ones(3), np.ones(3), kl=2.0)
        assert w_d == pytest.approx(math.exp(-2.0))
        np.testing.assert_allclose(g_hat, math.exp(-2.0) * np.ones(3))

    def test_never_conflicts_bulk(self):
        rng = np.random.default_rng(5)
        for _ in range(10_000):
            dim = int(rng.choice([2, 64, 128]))
            g_d = rng.standard_normal(dim)
            g_r = rng.standard_normal(dim)
            kl = float(rng.uniform(0, 3))
            g_hat, w_d = decouple(g_d, g_r, kl)
            assert float(g_hat @ g_r) >= -1e-9
            assert 0.0 < w_d <= 1.0
            dot = float(g_d @ g_r)
            if dot >= 0:
                # An agreeing gradient passes through exactly, only damped.
                assert np.array_equal(g_hat, w_d * g_d)
            else:
                tol = 1e-6 * np.linalg.norm(g_d) * np.linalg.norm(g_r)
                assert abs(float(g_hat @ g_r)) <= tol
                g_perp = g_d - (dot / float(g_r @ g_r)) * g_r
                np.testing.assert_allclose(g_hat, w_d * g_perp, atol=1e-9)

    def test_length_mismatch(self):
        with pytest.raises(DimMismatchError):
            decouple(np.ones(3), np.ones(4), 0.0)


class TestSgdStep:
    def test_zero_gradient_no_change(self):
        p = AdapterParams.identity(3)
        q = sgd_step(p, np.zeros(6), 0.1)
        assert np.array_equal(p.flat(), q.flat())

    def test_zero_lr_no_change(self):
        p = AdapterParams.identity(3)
        q = sgd_step(p, np.ones(6), 0.0)
        assert np.array_equal(p.flat(), q.flat())

    def test_arithmetic(self):
        p = AdapterParams.identity(2)
        g = np.array([1.0, 1.0, 0.0, 0.0])
        q = sgd_step(p, g, 0.1)
        np.testing.assert_allclose(q.gamma, [0.9, 0.9])
        np.testing.assert_allclose(q.beta, [0.0, 0.0])

    def test_length_mismatch(self):
        with pytest.raises(DimMismatchError):
            sgd_step(AdapterParams.identity(3), np.ones(4), 0.1)

    def test_non_finite_parameters_raise(self):
        p = AdapterParams.identity(3)
        with pytest.raises(DivergenceError):
            sgd_step(p, np.full(6, 1e300), 1e300)
        with pytest.raises(DivergenceError):
            sgd_step(p, np.array([0.0, 0.0, np.nan, 0.0, 0.0, 0.0]), 0.1)

    def test_divergence_raises_without_overflow_warnings(self):
        # The finiteness checks raise, so numpy's overflow warnings would be
        # noise: the lr 1e300 probe must raise DivergenceError and nothing else.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DivergenceError):
                sgd_step(AdapterParams.identity(3), np.full(6, 1e300), 1e300)
            with pytest.raises(DivergenceError):
                forward_adapter(
                    AdapterParams(gamma=np.full(3, 1e300), beta=np.zeros(3)), np.ones((2, 3))
                )
            gallery_, stream, _ = small_benchmark(seed=1, stream=32)
            session = AdaptationSession(gallery_, SessionConfig(k=5, batch=16, lr=1e300))
            with pytest.raises(DivergenceError):
                for i in range(0, 32, 16):
                    session.adapt_batch(stream[i : i + 16])


class TestSessionConfig:
    def test_validation(self):
        with pytest.raises(InvalidSpecError):
            SessionConfig(tau=0.0)
        with pytest.raises(InvalidSpecError):
            SessionConfig(k=0)
        with pytest.raises(InvalidSpecError):
            SessionConfig(batch=0)
        with pytest.raises(InvalidSpecError):
            SessionConfig(lr=0.0)

    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
    def test_non_finite_tau_and_lr_rejected(self, value):
        with pytest.raises(InvalidSpecError, match="finite"):
            SessionConfig(tau=value)
        with pytest.raises(InvalidSpecError, match="finite"):
            SessionConfig(lr=value)

    def test_gallery_too_small_for_k(self):
        gallery, _, _ = small_benchmark(gallery=8, classes=8)
        with pytest.raises(InvalidKError):
            AdaptationSession(gallery, SessionConfig(k=8, batch=4))


# Primitives of the batch path that a per-query loop would call once per row.
PER_ROW_PRIMITIVES = {
    vectors: ("softmax_temp", "clamped_log"),
    losses: ("forward_state", "affine_normalize", "hard_negative_slots", "param_grad"),
    refine: ("build_candidate_sets", "source_likeness", "update_queue", "estimate_constraints"),
    gallery: ("knn_table",),
}


def counted_calls(patch, primitives):
    """Count calls of each primitive (``{home module: names}``) in every module that binds it."""
    counts = Counter()
    for home, names in primitives.items():
        for name in names:
            fn = getattr(home, name)

            def counted(*args, _fn=fn, _name=name, **kwargs):
                counts[_name] += 1
                return _fn(*args, **kwargs)

            for module in (vectors, losses, refine, gallery, adapt):
                if getattr(module, name, None) is fn:
                    patch.setattr(module, name, counted)
    return counts


def primitive_calls(monkeypatch, b, k=4):
    """Calls of each primitive during the first ``adapt_batch`` of b queries."""
    gal, stream, _ = small_benchmark(seed=14, stream=128)
    session = AdaptationSession(gal, SessionConfig(k=k, batch=b, decouple=True))
    with monkeypatch.context() as patch:
        counts = counted_calls(patch, PER_ROW_PRIMITIVES)
        session.adapt_batch(stream[:b])
    return counts


class TestBatchedSessionPath:
    def test_primitive_calls_do_not_grow_with_batch(self, monkeypatch):
        k = 4
        small = primitive_calls(monkeypatch, 8, k)
        large = primitive_calls(monkeypatch, 64, k)
        # The softmax runs once per prediction pass, the current one and the
        # source one, never once per query.
        assert small["softmax_temp"] == small["forward_state"] + 1 == 2
        assert small == large
        assert set(small) == {n for names in PER_ROW_PRIMITIVES.values() for n in names}

    @pytest.mark.parametrize("method", ["rest", "pl"])
    def test_every_batch_makes_two_softmax_passes(self, monkeypatch, method):
        # One softmax for the current predictions and one for the source
        # ones, on the first batch too, where the two are equal.
        gal, stream, _ = small_benchmark(seed=14, stream=32)
        session = AdaptationSession(gal, SessionConfig(k=4, batch=16, decouple=True))
        counts = counted_calls(monkeypatch, {vectors: ("softmax_temp",)})

        def run(raw):
            return session.adapt_batch(raw) if method == "rest" else session.run_baseline(raw, "pl")

        run(stream[:16])
        assert counts["softmax_temp"] == 2
        run(stream[16:])
        assert counts["softmax_temp"] == 4

    def test_post_source_rest_batch_logs_and_predicts_twice(self, monkeypatch):
        # One log for the current pass and one for the source predictions of
        # the KL; one softmax for each of the two prediction passes.
        gal, stream, _ = small_benchmark(seed=14, stream=32)
        session = AdaptationSession(gal, SessionConfig(k=4, batch=16, decouple=True))
        session.adapt_batch(stream[:16])
        assert session.params.flat().tolist() != session.source_params.flat().tolist()
        counts = counted_calls(monkeypatch, {vectors: ("softmax_temp", "clamped_log")})
        session.adapt_batch(stream[16:])
        assert counts == {"softmax_temp": 2, "clamped_log": 2}


class TestAdaptBatch:
    def make_session(self, seed=0, decouple_on=True, lr=1e-3, tau=0.02, k=5, batch=16):
        gallery, stream, truth = small_benchmark(seed=seed)
        cfg = SessionConfig(tau=tau, k=k, batch=batch, lr=lr, decouple=decouple_on, seed=seed)
        return AdaptationSession(gallery, cfg), stream, truth

    def test_first_batch_source_coincidence(self):
        session, stream, _ = self.make_session()
        res = session.adapt_batch(stream[:16])
        d = res.diagnostics
        assert d.d_kl == 0.0
        assert d.w_d == 1.0
        assert d.angle_deg is None
        assert d.step == 0
        assert d.objective == pytest.approx(d.l_u + d.l_g + d.l_rem + d.l_rhm, abs=1e-9)

    def test_initial_ranking_equals_source_oracle(self):
        session, stream, _ = self.make_session()
        z = l2_normalize_rows(stream[:16])
        oracle = np.argsort(-(z @ session.gallery.items.T), axis=1, kind="stable")
        res = session.run_baseline(stream[:16], "none")
        depth = res.rankings.shape[1]
        assert depth == min(10, session.gallery.size)
        assert np.array_equal(res.rankings, oracle[:, :depth])

    def test_no_self_harm_on_clean_stream(self):
        # Ten batches of in-distribution queries: the adapted recall must
        # stay within one absolute point of the frozen source model.
        from queryshift.synth import recall_at_k

        gallery, stream, truth = small_benchmark(seed=3, stream=160)
        cfg = SessionConfig(tau=0.02, k=5, batch=16, lr=1e-3, decouple=True, seed=3)
        session = AdaptationSession(gallery, cfg)
        noadapt = AdaptationSession(gallery, cfg)
        hits_rest = hits_none = 0
        for i in range(0, 160, 16):
            bt = truth[i : i + 16]
            r1 = session.adapt_batch(stream[i : i + 16])
            r2 = noadapt.run_baseline(stream[i : i + 16], "none")
            hits_rest += round(recall_at_k(r1.rankings, bt, 1) * len(bt))
            hits_none += round(recall_at_k(r2.rankings, bt, 1) * len(bt))
        assert abs(hits_rest - hits_none) / 160 <= 0.01 + 1e-12

    def test_atomicity_on_failure(self):
        session, stream, _ = self.make_session()
        session.adapt_batch(stream[:16])
        before = session.params.flat().copy()
        before_queue = session.queue
        bad = stream[16:32].copy()
        bad[0] = np.nan
        with pytest.raises(Exception):
            session.adapt_batch(bad)
        assert np.array_equal(session.params.flat(), before)
        assert session.queue is before_queue

    @pytest.mark.parametrize("lr", [1e300, math.inf])
    def test_diverging_batch_leaves_state_unchanged(self, lr):
        # lr 1e300 leaves finite parameters whose adapted rows overflow the
        # norm; lr inf makes the parameters themselves non-finite.
        session, stream, _ = self.make_session()
        session.adapt_batch(stream[:16])
        session.adapt_batch(stream[16:32])
        before = session.params.flat().copy()
        before_queue = session.queue
        config = dataclasses.replace(session.config)
        # SessionConfig rejects a non-finite lr; set it past that check to
        # reach the guard in sgd_step.
        object.__setattr__(config, "lr", lr)
        session.config = config
        with pytest.raises(DivergenceError):
            session.adapt_batch(stream[32:48])
        assert np.array_equal(session.params.flat(), before)
        assert session.queue is before_queue
        assert session.step == 2

    def test_deterministic_trajectory(self):
        trajs = []
        for _ in range(2):
            session, stream, _ = self.make_session(seed=5)
            for i in range(0, 48, 16):
                session.adapt_batch(stream[i : i + 16])
            trajs.append(session.params.flat().copy())
        assert np.array_equal(trajs[0], trajs[1])

    def test_decoupling_follows_task_gradient_when_aligned(self):
        # At the source point the KL is zero, so the decoupled and plain
        # sessions take the same first step when the directions agree.
        s_on, stream, _ = self.make_session(seed=7, decouple_on=True)
        s_off, _, _ = self.make_session(seed=7, decouple_on=False)
        r_on = s_on.adapt_batch(stream[:16])
        s_off.adapt_batch(stream[:16])
        assert r_on.diagnostics.d_kl == pytest.approx(0.0, abs=1e-12)
        np.testing.assert_allclose(s_on.params.flat(), s_off.params.flat(), atol=1e-12)


class TestRunBaseline:
    def test_none_never_updates(self):
        gallery, stream, _ = small_benchmark(seed=8)
        session = AdaptationSession(gallery, SessionConfig(k=4, batch=12))
        before = session.params.flat().copy()
        for i in range(0, 36, 12):
            session.run_baseline(stream[i : i + 12], "none")
        assert np.array_equal(session.params.flat(), before)

    def test_tent_on_confident_batch_barely_moves(self):
        # Orthogonal gallery rows give every query a unit margin over all
        # negatives; at tau=0.02 the predictions are numerically one-hot.
        gallery = Gallery(np.eye(16))
        session = AdaptationSession(gallery, SessionConfig(tau=0.02, k=4, batch=8))
        confident = gallery.items[:8].copy()
        session.run_baseline(confident, "tent")
        drift = np.abs(session.params.flat() - AdapterParams.identity(gallery.dim).flat()).max()
        assert drift < 1e-9

    def test_tent_vs_none_trajectories_diverge(self):
        from queryshift.synth import CorruptionSpec, corrupt_stream

        gallery, stream, _ = small_benchmark(seed=10, stream=48)
        corrupted = corrupt_stream(
            stream, [CorruptionSpec(kind="uniformity_collapse", rho=0.8)], 10
        )
        tent = AdaptationSession(gallery, SessionConfig(tau=0.05, k=4, batch=16, lr=1e-2))
        none = AdaptationSession(gallery, SessionConfig(tau=0.05, k=4, batch=16, lr=1e-2))
        diverged = False
        for i in range(0, 48, 16):
            a = tent.run_baseline(corrupted[i : i + 16], "tent")
            b = none.run_baseline(corrupted[i : i + 16], "none")
            if not np.array_equal(a.rankings, b.rankings):
                diverged = True
        assert diverged or not np.array_equal(
            tent.params.flat(), none.params.flat()
        )

    def test_pl_step_runs_and_reports_loss(self):
        gallery, stream, _ = small_benchmark(seed=11)
        session = AdaptationSession(gallery, SessionConfig(tau=0.05, k=4, batch=16))
        res = session.run_baseline(stream[:16], "pl")
        d = res.diagnostics
        assert d.l_u is None and d.l_g is None and d.l_rem is None and d.l_rhm is None
        assert res.diagnostics.objective is not None
        assert np.isfinite(res.diagnostics.objective)

    def test_unknown_baseline(self):
        gallery, stream, _ = small_benchmark(seed=12)
        session = AdaptationSession(gallery, SessionConfig(k=4, batch=16))
        with pytest.raises(InvalidSpecError):
            session.run_baseline(stream[:16], "shot")


def refuse_build_centroids(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("build_centroids must not run")

    monkeypatch.setattr(adapt, "build_centroids", refuse)


class TestLazyCentroids:
    def test_none_session_never_builds_centroids(self, monkeypatch):
        refuse_build_centroids(monkeypatch)
        gallery, stream, _ = small_benchmark(seed=8)
        session = AdaptationSession(gallery, SessionConfig(k=4, batch=12))
        for i in range(0, 48, 12):
            session.run_baseline(stream[i : i + 12], "none")
        assert session.step == 4

    def test_given_centroids_are_used_as_given(self, monkeypatch):
        gallery, stream, _ = small_benchmark(seed=9)
        given = build_centroids(gallery, 3, seed=99)
        refuse_build_centroids(monkeypatch)
        session = AdaptationSession(gallery, SessionConfig(k=4, batch=16))
        session.centroids = given
        session.adapt_batch(stream[:16])
        session.run_baseline(stream[16:32], "tent")
        assert session.centroids is given

    def test_lazy_centroids_equal_build_centroids(self):
        gallery, stream, _ = small_benchmark(seed=10)
        cfg = SessionConfig(k=4, batch=16, seed=6)
        session = AdaptationSession(gallery, cfg)
        assert "centroids" not in vars(session)
        session.adapt_batch(stream[:16])
        built = vars(session)["centroids"]
        session.adapt_batch(stream[16:32])
        assert session.centroids is built
        expected = build_centroids(gallery, cfg.k, cfg.seed)
        assert np.array_equal(built.centroids, expected.centroids)
        assert built.energy_trace == expected.energy_trace


class TestParamGradientMapping:
    def test_param_grad_through_normalization(self):
        # Verifies the normalization Jacobian in isolation: loss = z @ w.
        rng = np.random.default_rng(13)
        d, b = 5, 3
        raw = rng.standard_normal((b, d))
        w = rng.standard_normal(d)
        gamma = 1.0 + 0.2 * rng.standard_normal(d)
        beta = 0.1 * rng.standard_normal(d)
        cands = pool_of([l2_normalize_rows(rng.standard_normal((2, d))) for _ in range(b)])
        state = forward_state(gamma, beta, raw, cands, 1.0)
        dz = np.tile(w, (b, 1))
        grad = param_grad(state, dz)

        def value(theta):
            st = forward_state(theta[:d], theta[d:], raw, cands, 1.0)
            return float(np.sum(st.z @ w))

        numeric = finite_diff_grad(value, np.concatenate([gamma, beta]))
        np.testing.assert_allclose(grad, numeric, atol=1e-6)
