import math

import numpy as np
import pytest

from pools import pool_of
from queryshift.errors import DimMismatchError, EmptyBatchError
from queryshift.gallery import CentroidSet, Gallery, build_centroids, knn_table
from queryshift.losses import forward_state
from queryshift.refine import (
    _CENTROID_COLLISION_TOL,
    CandidateSet,
    SourceLikeQueue,
    build_candidate_sets,
    estimate_constraints,
    source_likeness,
    update_queue,
)
from queryshift.vectors import l2_normalize_rows, softmax_temp


def random_gallery(n, d, seed):
    rng = np.random.default_rng(seed)
    return Gallery(l2_normalize_rows(rng.standard_normal((n, d))))


def random_queries(b, d, seed):
    rng = np.random.default_rng(seed)
    return l2_normalize_rows(rng.standard_normal((b, d)))


def oracle_candidate_ids(batch, gallery, k, i):
    """Independent set-union recomputation of the candidate gallery ids."""
    sims = batch @ gallery.items.T

    def top(j, kk):
        order = sorted(range(gallery.size), key=lambda g: (-sims[j, g], g))
        return order[:kk]

    pos = top(i, 1)[0]
    negs = []
    for j in range(batch.shape[0]):
        if j == i:
            continue
        for g in top(j, k):
            if g != pos and g not in negs:
                negs.append(g)
    return pos, negs


def reference_candidate_sets(batch_z, gallery, centroids, k):
    """Query-by-query dedupe loop: (positive id, negative refs, embeddings) per query."""
    table = knn_table(gallery, batch_z, k)
    out = []
    for i in range(batch_z.shape[0]):
        pos = int(table[i, 0])
        seen = {pos}
        negs = []
        for j in range(batch_z.shape[0]):
            if j == i:
                continue
            for g in table[j]:
                if int(g) not in seen:
                    seen.add(int(g))
                    negs.append(int(g))
        rows = [gallery.items[pos]] + [gallery.items[g] for g in negs]
        for c in range(centroids.k):
            emb = centroids.centroids[c]
            if np.linalg.norm(emb - gallery.items[pos]) > _CENTROID_COLLISION_TOL:
                negs.append(-(c + 1))
                rows.append(emb)
        out.append((pos, negs, np.vstack(rows)))
    return out


def pool_order(negs):
    """Negative refs in pool order: gallery ids ascending, then centroids in order."""
    return tuple(sorted(r for r in negs if r >= 0)) + tuple(r for r in negs if r < 0)


def assert_matches_reference(batch, gallery, cents, k):
    cands = build_candidate_sets(batch, gallery, cents, k)
    ref = reference_candidate_sets(batch, gallery, cents, k)
    assert len(cands) == len(ref)
    for i, (cs, (pos, negs, embs)) in enumerate(zip(cands, ref)):
        assert cs.query_index == i
        assert cs.positive_id == pos
        assert set(cs.negative_ids) == set(negs)
        assert cs.negative_ids == pool_order(negs)
        assert len(cs) == embs.shape[0]
        order = [0] + [1 + negs.index(r) for r in cs.negative_ids]
        assert np.array_equal(cs.candidate_embeddings, embs[order])
    # The pool: unique ids, gallery ids ascending then every centroid, each
    # row holding its positive.
    n_gallery = cands.ids.size - cents.k
    assert np.unique(cands.ids).size == cands.ids.size
    assert np.all(np.diff(cands.ids[:n_gallery]) > 0) and cands.ids[0] >= 0
    assert cands.ids[n_gallery:].tolist() == [-(j + 1) for j in range(cents.k)]
    assert np.array_equal(cands.embs[:n_gallery], gallery.items[cands.ids[:n_gallery]])
    assert np.array_equal(cands.embs[n_gallery:], cents.centroids)
    assert cands.mask[np.arange(len(cands)), cands.pos].all()
    assert cands.ids[cands.pos].tolist() == [pos for pos, _, _ in ref]
    return cands


class TestCandidatesMatchReferenceLoop:
    def test_random_batches(self):
        rng = np.random.default_rng(20)
        for trial in range(60):
            n = int(rng.integers(4, 80))
            d = int(rng.integers(2, 7))
            g = random_gallery(n, d, 100 + trial)
            cents = build_centroids(g, int(rng.integers(1, min(n, 6) + 1)), seed=trial)
            batch = random_queries(int(rng.integers(1, 17)), d, 200 + trial)
            assert_matches_reference(batch, g, cents, int(rng.integers(1, n + 1)))

    def test_single_query_has_only_cluster_negatives(self):
        g = random_gallery(30, 5, 21)
        cents = build_centroids(g, 4, seed=0)
        cands = assert_matches_reference(random_queries(1, 5, 22), g, cents, 6)
        assert cands.mask.sum() == 5
        assert cands[0].negative_ids == (-1, -2, -3, -4)

    def test_duplicate_queries_and_widely_shared_ids(self):
        # Tight clusters of identical and near-identical queries: most ids
        # appear in many rows, and duplicate rows share every id.
        g = random_gallery(40, 4, 23)
        cents = build_centroids(g, 3, seed=1)
        base = random_queries(3, 4, 24)
        batch = l2_normalize_rows(np.repeat(base, 5, axis=0) + 1e-3 * random_queries(15, 4, 25))
        batch[5] = batch[0]
        batch[6] = batch[0]
        cands = assert_matches_reference(batch, g, cents, 8)
        assert cands[5].negative_ids == cands[6].negative_ids

    def test_centroid_colliding_with_the_positive(self):
        g = random_gallery(24, 4, 26)
        batch = g.items[[3, 7, 11]]
        # Centroid 0 is item 3 exactly, centroid 1 is within tolerance of item
        # 7, centroid 2 collides with nothing.
        near = g.items[7] + 0.25 * _CENTROID_COLLISION_TOL
        other = l2_normalize_rows(np.ones((1, 4)))[0]
        cents = CentroidSet(np.vstack([g.items[3], near, other]), 0.0, (0.0,))
        cands = assert_matches_reference(batch, g, cents, 4)
        assert cands[0].negative_ids[-2:] == (-2, -3)
        assert cands[1].negative_ids[-2:] == (-1, -3)
        assert cands[2].negative_ids[-3:] == (-1, -2, -3)

    def test_k_is_gallery_size_minus_one(self):
        g = random_gallery(12, 3, 27)
        cents = build_centroids(g, 2, seed=2)
        cands = assert_matches_reference(random_queries(5, 3, 28), g, cents, 11)
        # Every other gallery id is a sample negative of every query.
        for cs in cands:
            assert sorted(r for r in cs.negative_ids if r >= 0) == sorted(
                set(range(12)) - {cs.positive_id}
            )


class TestBuildCandidateSet:
    def test_single_query_has_no_sample_negatives(self):
        g = random_gallery(16, 4, 0)
        cents = build_centroids(g, 2, seed=0)
        q = random_queries(1, 4, 1)
        cs = build_candidate_sets(q, g, cents, 2)[0]
        # Positive plus the two centroids only.
        assert len(cs) == 3
        assert all(ref < 0 for ref in cs.negative_ids)

    def test_shared_one_nn_is_deduped(self):
        g = Gallery(np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0]]))
        cents = build_centroids(g, 1, seed=0)
        batch = l2_normalize_rows(np.array([[1.0, 0.05], [1.0, -0.05]]))
        cs = build_candidate_sets(batch, g, cents, 1)[0]
        # Both queries share 1-NN id 0; it appears once, as the positive.
        gallery_refs = [r for r in cs.negative_ids if r >= 0]
        assert cs.positive_id == 0
        assert 0 not in gallery_refs

    def test_matches_set_union_oracle(self):
        g = random_gallery(256, 8, 2)
        cents = build_centroids(g, 10, seed=3)
        batch = random_queries(4, 8, 4)
        for i, cs in enumerate(build_candidate_sets(batch, g, cents, 10)):
            pos, negs = oracle_candidate_ids(batch, g, 10, i)
            assert cs.positive_id == pos
            assert [r for r in cs.negative_ids if r >= 0] == sorted(negs)
            assert len(cs) <= 1 + 3 * 10 + 10

    def test_no_duplicate_references(self):
        g = random_gallery(64, 6, 5)
        cents = build_centroids(g, 5, seed=6)
        batch = random_queries(6, 6, 7)
        for cs in build_candidate_sets(batch, g, cents, 4):
            refs = [cs.positive_id] + [r for r in cs.negative_ids if r >= 0]
            assert len(refs) == len(set(refs))

    def test_batch_shape_errors(self):
        g = random_gallery(16, 4, 0)
        cents = build_centroids(g, 2, seed=0)
        with pytest.raises(EmptyBatchError):
            build_candidate_sets(np.empty((0, 4)), g, cents, 2)
        with pytest.raises(DimMismatchError):
            build_candidate_sets(random_queries(1, 4, 1)[0], g, cents, 2)


def refined(q, cs, tau):
    """Identity-adapter forward pass of one query over one candidate set."""
    d = q.shape[0]
    return forward_state(np.ones(d), np.zeros(d), q[None], pool_of([cs.candidate_embeddings]), tau)


class TestRefinedPrediction:
    def test_identical_candidates_uniform(self):
        g = random_gallery(8, 4, 10)
        row = g.items[0]
        cs_embs = np.tile(row, (5, 1))
        cs = CandidateSet(0, 0, (1, 2, 3, 4), cs_embs)
        pred = refined(row, cs, 0.5)
        np.testing.assert_allclose(pred.probs[0], np.full(5, 0.2), atol=1e-12)
        assert pred.entropies[0] == pytest.approx(math.log(5), abs=1e-9)

    def test_exact_positive_low_temperature(self):
        q = np.zeros(4)
        q[0] = 1.0
        negs = np.eye(4)[1:]
        cs = CandidateSet(0, 0, (1, 2, 3), np.vstack([q, negs]))
        pred = refined(q, cs, 0.02)
        # Margin of 1.0 at tau=0.02: the tail is ~3*exp(-50).
        assert pred.probs[0, 0] == pytest.approx(1.0, abs=1e-12)
        assert pred.entropies[0] < 1e-18

    def test_unit_temperature_closed_form(self):
        q = np.array([1.0, 0.0])
        cands = np.array([[1.0, 0.0], [0.0, 1.0]])
        cs = CandidateSet(0, 0, (1,), cands)
        pred = refined(q, cs, 1.0)
        expected = math.exp(1.0) / (math.exp(1.0) + 1.0)
        assert pred.probs[0, 0] == pytest.approx(expected, rel=1e-12)

    def test_full_gallery_equals_plain_prediction(self):
        # Refinement over the entire gallery is exactly the unrefined softmax.
        g = random_gallery(32, 6, 11)
        q = random_queries(1, 6, 12)[0]
        order = np.argsort(-(g.items @ q), kind="stable")
        cs = CandidateSet(0, int(order[0]), tuple(int(x) for x in order[1:]), g.items[order])
        pred = refined(q, cs, 0.1)
        full = softmax_temp(g.items @ q, 0.1)
        np.testing.assert_allclose(pred.probs[0], full[order], atol=1e-12)

    def test_subset_is_masked_renormalized(self):
        g = random_gallery(48, 5, 13)
        q = random_queries(1, 5, 14)[0]
        full = softmax_temp(g.items @ q, 0.2)
        ids = [3, 0, 17, 40, 9]
        cs = CandidateSet(0, 3, tuple(ids[1:]), g.items[ids])
        pred = refined(q, cs, 0.2)
        masked = full[ids] / full[ids].sum()
        np.testing.assert_allclose(pred.probs[0], masked, atol=1e-9)


class TestSourceLikeness:
    def test_coincident_everything_is_zero(self):
        v = np.array([0.6, 0.8])
        assert source_likeness(v, v, v, v) == 0.0

    def test_single_pair_hand_value(self):
        q = np.array([1.0, 0.0])
        pos = np.array([0.0, 1.0])
        # Means equal the pair itself, so s = 2*sqrt(2).
        assert source_likeness(q, pos, q, pos) == pytest.approx(2 * math.sqrt(2), abs=1e-12)

    def test_tight_far_pair_scores_lower(self):
        # Hand-evaluated comparison of two 2-D pairs against shared centers.
        q_center = np.array([1.0, 0.0])
        g_center = np.array([1.0, 0.0])
        tight_far_q = np.array([-1.0, 0.0])
        tight_far_pos = np.array([-1.0, 0.0])
        loose_near_q = np.array([1.0, 0.0])
        loose_near_pos = np.array([0.0, 1.0])
        s_tight = source_likeness(tight_far_q, tight_far_pos, q_center, g_center)
        s_loose = source_likeness(loose_near_q, loose_near_pos, q_center, g_center)
        assert s_tight == pytest.approx(-4.0)
        assert s_loose == pytest.approx(2 * math.sqrt(2) - math.sqrt(2))
        assert s_tight < s_loose

    def test_dim_mismatch(self):
        with pytest.raises(DimMismatchError):
            source_likeness(np.ones(2), np.ones(3), np.ones(2), np.ones(2))


def pairs(n, d=2, seed=0):
    """``n`` unit query rows, each its own positive."""
    q = l2_normalize_rows(np.random.default_rng(seed).standard_normal((n, d)))
    return q, q.copy()


def push(queue, scores, entropies=None, d=2, seed=0):
    """Enqueue one pair per score; entropies default to zero."""
    scores = np.asarray(scores, dtype=np.float64)
    q, pos = pairs(scores.size, d, seed)
    h = np.zeros(scores.size) if entropies is None else np.asarray(entropies, dtype=np.float64)
    return update_queue(queue, q, pos, scores, h)


def empty(capacity, d=2):
    return SourceLikeQueue.empty(capacity, d)


class TestQueue:
    def test_initial_fill_sorted(self):
        q = push(empty(4), [3.0, 1.0, 2.0])
        assert q.scores.tolist() == [1.0, 2.0, 3.0]

    def test_rejects_larger_scores_when_full(self):
        q = push(empty(2), [1.0, 2.0])
        after = push(q, [9.0, 5.0], seed=1)
        for field in ("query_embs", "positive_embs", "scores", "entropies"):
            assert np.array_equal(getattr(after, field), getattr(q, field))

    def test_keeps_provably_cleaner_pairs(self):
        # Clean pairs: query equals its positive (pair distance 0). Corrupt
        # pairs: query pushed away from the positive. Direct evaluation of the
        # scoring rule puts every clean pair below every corrupt one.
        rng = np.random.default_rng(3)
        d = 8
        clean, corrupt = [], []
        qc = rng.standard_normal(d)
        qc /= np.linalg.norm(qc)
        for _ in range(6):
            pos = rng.standard_normal(d)
            pos /= np.linalg.norm(pos)
            clean.append((pos.copy(), pos.copy()))
            off = rng.standard_normal(d)
            qbad = pos + 1.5 * off / np.linalg.norm(off)
            qbad /= np.linalg.norm(qbad)
            corrupt.append((qbad, pos.copy()))
        qs = np.array([p[0] for p in clean + corrupt])
        ps = np.array([p[1] for p in clean + corrupt])
        scores = source_likeness(qs, ps, qs.mean(axis=0), ps.mean(axis=0))
        for i in range(12):
            assert scores[i] == source_likeness(qs[i], ps[i], qs.mean(axis=0), ps.mean(axis=0))
        assert max(scores[:6]) < min(scores[6:])
        queue = update_queue(SourceLikeQueue.empty(6, d), qs, ps, scores, np.zeros(12))
        kept = {row.tobytes() for row in queue.query_embs}
        assert kept == {row.tobytes() for row in qs[:6]}

    def test_max_score_never_increases_once_full(self):
        rng = np.random.default_rng(4)
        queue = push(empty(8), rng.normal(size=8))
        prev_max = queue.scores[-1]
        for step in range(10):
            queue = push(queue, rng.normal(size=8), seed=step + 1)
            new_max = queue.scores[-1]
            assert new_max <= prev_max + 1e-12
            prev_max = new_max

    def test_tie_break_earlier_insertion_wins(self):
        q = push(empty(1), [1.0, 1.0], entropies=[0.1, 0.9])
        assert q.entropies[0] == 0.1

    def test_tie_break_held_pair_beats_later_batch(self):
        # Equal scores across batches: the held pair stays, with its frozen
        # entropy, and the rows travel with their scores.
        q = push(empty(2), [1.0, 2.0], entropies=[0.1, 0.2])
        held = q.query_embs[0].copy()
        q = push(q, [2.0, 1.0, 0.5], entropies=[0.7, 0.8, 0.9], seed=1)
        assert q.scores.tolist() == [0.5, 1.0]
        assert q.entropies.tolist() == [0.9, 0.1]
        assert np.array_equal(q.query_embs[1], held)

    def test_input_arrays_never_mutated(self):
        q = push(empty(3), [2.0, 1.0])
        snapshot = [getattr(q, f).copy() for f in ("query_embs", "scores", "entropies")]
        push(q, [0.5, 0.1], seed=1)
        for before, f in zip(snapshot, ("query_embs", "scores", "entropies")):
            assert np.array_equal(getattr(q, f), before)


class TestEstimateConstraints:
    def test_identical_pairs_zero_gap(self):
        q = push(empty(3), [1.0, 2.0])
        delta_s, _ = estimate_constraints(q)
        assert delta_s == pytest.approx(0.0, abs=1e-12)

    def test_single_orthogonal_pair(self):
        q = update_queue(
            empty(2), np.array([[1.0, 0.0]]), np.array([[0.0, 1.0]]), [0.5], [0.2]
        )
        delta_s, e_b = estimate_constraints(q)
        assert delta_s == pytest.approx(math.sqrt(2), abs=1e-12)
        assert e_b == 0.2

    def test_threshold_is_max(self):
        q = push(empty(3), [1.0, 2.0, 3.0], entropies=[0.1, 0.5, 0.3])
        assert estimate_constraints(q)[1] == 0.5

    def test_permutation_invariant(self):
        rng = np.random.default_rng(5)
        scores = rng.normal(size=6)
        qs, ps = pairs(6, seed=6)
        ps = l2_normalize_rows(ps + 0.3)
        h = np.abs(scores)
        a = estimate_constraints(update_queue(empty(6), qs, ps, scores, h))
        b = estimate_constraints(update_queue(empty(6), qs[::-1], ps[::-1], scores[::-1], h[::-1]))
        assert a[0] == pytest.approx(b[0], abs=1e-12)
        assert a[1] == b[1]

    def test_empty_queue_raises(self):
        with pytest.raises(EmptyBatchError):
            estimate_constraints(empty(4))
