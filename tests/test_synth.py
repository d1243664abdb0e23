import math

import numpy as np
import pytest

from csr import csr_rows
from queryshift import gallery as gallery_mod
from queryshift import synth as synth_mod
from queryshift.adapt import AdapterParams, forward_adapter
from queryshift.errors import DimMismatchError, EmptyBatchError, InvalidSpecError
from queryshift.synth import (
    CorruptionSpec,
    GroundTruth,
    SyntheticSpec,
    _apply,
    corrupt_stream,
    NO_HIT,
    first_hits,
    generate_benchmark,
    metric_consistency,
    metric_gap,
    metric_uniformity,
    offset_queries,
    recall_at_k,
    recall_of_hits,
    relevant_sums,
    scale_queries,
    shift_direction,
)
from queryshift.vectors import l2_normalize_rows


def rank(z, gallery):
    return np.argsort(-(z @ gallery.items.T), axis=1, kind="stable")


def consistency_by_pairs(z_q, z_g, truth):
    """Reference metric_consistency: one dot product per relevant pair."""
    total = 0.0
    count = 0
    for qi, rel in enumerate(csr_rows(truth)):
        for gi in rel:
            total += float(np.dot(z_q[qi], z_g[gi]))
            count += 1
    return total / count


def sums_of(z_g, truth):
    """Each query's relevant-row sum of ``z_g``, one row per query."""
    sets, slot = relevant_sums(z_g, truth)
    return sets[slot]


def consistency(z_q, z_g, truth):
    """metric_consistency of all of ``z_q`` against the relevant sums of ``z_g``."""
    return metric_consistency(z_q, sums_of(z_g, truth), truth.indices.size)


def uniformity(z):
    """metric_uniformity of all of ``z``."""
    return metric_uniformity(z, z.mean(axis=0), len(z))


def gap(z, g_center):
    """metric_gap of the center of ``z``."""
    return metric_gap(z.mean(axis=0), g_center)


def count_hits_by_sets(rankings, relevant, k):
    """Frozen copy of the set-based count_hits this module once had."""
    return sum(
        1
        for qi, rel in enumerate(relevant)
        if any(g in rel for g in np.asarray(rankings)[qi, :k].tolist())
    )


def random_relevant(rng, n_queries, n_items):
    return tuple(
        frozenset(rng.choice(n_items, int(rng.integers(1, n_items + 1)), replace=False).tolist())
        for _ in range(n_queries)
    )


def source_recall(gallery, stream, truth, k=1):
    z = forward_adapter(AdapterParams.identity(gallery.dim), stream)
    return recall_at_k(rank(z, gallery), truth, k)


class TestGenerateBenchmark:
    def test_noiseless_recall_is_one(self):
        spec = SyntheticSpec(classes=4, dim=8, gallery_size=16, stream_length=20, seed=0)
        gallery, stream, truth = generate_benchmark(spec)
        assert source_recall(gallery, stream, truth) == 1.0

    def test_deterministic(self):
        spec = SyntheticSpec(
            classes=6, dim=8, gallery_size=24, stream_length=12,
            sigma_query=0.2, sigma_gallery=0.1, seed=42,
        )
        g1, s1, t1 = generate_benchmark(spec)
        g2, s2, t2 = generate_benchmark(spec)
        assert np.array_equal(g1.items, g2.items)
        assert np.array_equal(s1, s2)
        assert csr_rows(t1) == csr_rows(t2)

    def test_reference_scale_zero_shot_recall(self):
        # Pinned from a one-time run of the source-model oracle at this spec.
        spec = SyntheticSpec(
            classes=64, dim=32, gallery_size=512, stream_length=512,
            sigma_query=0.1, sigma_gallery=0.1, seed=0,
        )
        gallery, stream, truth = generate_benchmark(spec)
        r1 = source_recall(gallery, stream, truth)
        assert r1 == 1.0
        assert r1 >= 0.95

    def test_every_query_has_relevant_items(self):
        spec = SyntheticSpec(classes=5, dim=8, gallery_size=17, stream_length=9, seed=3)
        _, _, truth = generate_benchmark(spec)
        assert len(truth) == 9 and all(len(r) >= 1 for r in csr_rows(truth))

    def test_invalid_specs(self):
        with pytest.raises(InvalidSpecError):
            SyntheticSpec(classes=1, dim=8, gallery_size=8, stream_length=4)
        with pytest.raises(InvalidSpecError):
            SyntheticSpec(classes=4, dim=8, gallery_size=3, stream_length=4)
        with pytest.raises(InvalidSpecError):
            SyntheticSpec(classes=4, dim=8, gallery_size=8, stream_length=4, sigma_query=-1.0)


class TestGroundTruth:
    def test_relevant_round_trips(self):
        rng = np.random.default_rng(20)
        for _ in range(20):
            relevant = random_relevant(rng, int(rng.integers(1, 12)), int(rng.integers(1, 30)))
            truth = GroundTruth.from_sets(relevant)
            want = [sorted(r) for r in relevant]
            assert csr_rows(truth) == want
            assert len(truth) == len(relevant)
            back = GroundTruth(indptr=truth.indptr, indices=truth.indices)
            assert csr_rows(back) == want

    def test_arrays_are_read_only_sorted_int64(self):
        truth = GroundTruth.from_sets([{5, 1, 3}, [2, 2, 0]])
        assert truth.indptr.tolist() == [0, 3, 5]
        assert truth.indices.tolist() == [1, 3, 5, 0, 2]
        for arr in (truth.indptr, truth.indices):
            assert arr.dtype == np.int64
            assert not arr.flags.writeable
        assert truth.row_ids().tolist() == [0, 0, 0, 1, 1]

    def test_construction_copies_its_inputs(self):
        indptr, indices = np.array([0, 1, 2]), np.array([4, 2])
        truth = GroundTruth(indptr=indptr, indices=indices)
        indices[0] = 9
        assert indices.flags.writeable
        assert truth.indices.tolist() == [4, 2]

    @pytest.mark.parametrize(
        "indptr, indices",
        [
            ([0, 2], [3, 1]),  # unsorted row
            ([0, 2], [1, 1]),  # duplicate id
            ([0, 1], [-1]),  # negative id
            ([0, 1, 1], [0]),  # empty row
            ([1, 2], [0, 1]),  # indptr not from 0
            ([0, 3], [0, 1]),  # indptr past the ids
            ([], []),  # no indptr at all
            ([[0, 1]], [0]),  # not 1-D
        ],
    )
    def test_malformed_arrays_rejected(self, indptr, indices):
        with pytest.raises(InvalidSpecError):
            GroundTruth(indptr=indptr, indices=indices)

    def test_rows_may_restart_lower(self):
        truth = GroundTruth(indptr=[0, 2, 3], indices=[4, 7, 1])
        assert csr_rows(truth) == [[4, 7], [1]]

    def test_slices_are_row_ranges(self):
        rng = np.random.default_rng(21)
        relevant = random_relevant(rng, 13, 20)
        truth = GroundTruth.from_sets(relevant)
        for a, b in [(0, 13), (0, 5), (5, 13), (4, 9), (12, 13), (10, 40), (6, 6)]:
            part = truth[a:b]
            assert csr_rows(part) == [sorted(r) for r in relevant[a:b]]
            assert part.indptr[0] == 0
        with pytest.raises(ValueError):
            truth[::2]

    def test_slices_stay_read_only_and_equal_rebuilt_truth(self):
        rng = np.random.default_rng(23)
        relevant = random_relevant(rng, 9, 15)
        truth = GroundTruth.from_sets(relevant)
        for a, b in [(0, 9), (2, 7), (8, 9), (4, 4), (9, 9), (3, 1)]:
            part = truth[a:b]
            rebuilt = GroundTruth.from_sets(relevant[a:b])
            for got, want in [(part.indptr, rebuilt.indptr), (part.indices, rebuilt.indices)]:
                assert got.dtype == np.int64 and not got.flags.writeable
                assert got.tolist() == want.tolist()
            # indptr is a copy; indices are a view of the parent's.
            assert not np.shares_memory(part.indptr, truth.indptr)
            assert part.indices.size == 0 or np.shares_memory(part.indices, truth.indices)

    def test_generated_rows_are_whole_classes(self):
        spec = SyntheticSpec(classes=5, dim=8, gallery_size=23, stream_length=40, seed=4)
        _, _, truth = generate_benchmark(spec)
        for rel in csr_rows(truth):
            cls = rel[0] % 5
            assert rel == list(range(cls, 23, 5))

    @pytest.mark.parametrize("k", [1, 5, 10])
    def test_count_hits_matches_set_oracle(self, k):
        rng = np.random.default_rng(22 + k)
        for _ in range(50):
            n, n_items = int(rng.integers(1, 20)), int(rng.integers(1, 40))
            relevant = random_relevant(rng, n, n_items)
            truth = GroundTruth.from_sets(relevant)
            # More ranking rows than queries, ids past the truth's largest
            # and a few negative ids.
            extra = int(rng.integers(0, 4))
            rankings = rng.integers(-2, n_items + 5, (n + extra, int(rng.integers(1, 12))))
            hits = first_hits(rankings, truth)
            assert int(np.count_nonzero(hits < k)) == count_hits_by_sets(rankings, relevant, k)

    def test_first_hit_recall_matches_set_oracle(self):
        rng = np.random.default_rng(22)
        for _ in range(50):
            n, n_items = int(rng.integers(1, 20)), int(rng.integers(1, 40))
            relevant = random_relevant(rng, n, n_items)
            truth = GroundTruth.from_sets(relevant)
            # More ranking rows than queries, ids past the truth's largest
            # and a few negative ids.
            extra, depth = int(rng.integers(0, 4)), int(rng.integers(1, 12))
            rankings = rng.integers(-2, n_items + 5, (n + extra, depth))
            hits = first_hits(rankings, truth)
            # A query with no hit misses at every k, also past the ranking depth.
            for k in range(1, depth + 3):
                want = count_hits_by_sets(rankings, relevant, k)
                assert recall_of_hits(hits, k) == want / n
                assert recall_at_k(rankings, truth, k) == want / n

    def test_first_hits_are_ranks_of_first_relevant_ids(self):
        truth = GroundTruth.from_sets(({3}, {1, 2}, {0}, {5}))
        rankings = np.array([[3, 0, 1], [4, 2, 1], [-1, 7, 0], [4, 4, 4], [5, 5, 5]])
        hits = first_hits(rankings, truth)
        assert hits.tolist() == [0, 1, 2, NO_HIT]
        assert first_hits(np.empty((4, 0), dtype=np.int64), truth).tolist() == [NO_HIT] * 4


class TestApplyCorruption:
    def setup_method(self):
        spec = SyntheticSpec(
            classes=16, dim=16, gallery_size=128, stream_length=96,
            sigma_query=0.1, sigma_gallery=0.1, seed=5,
        )
        self.gallery, self.stream, self.truth = generate_benchmark(spec)

    def test_identity_parameters_change_nothing(self):
        spec = CorruptionSpec(kind="gaussian_noise", sigma=0.0)
        np.testing.assert_allclose(corrupt_stream(self.stream, [spec], 0), self.stream)
        spec = CorruptionSpec(kind="mean_shift", delta=0.0)
        np.testing.assert_allclose(corrupt_stream(self.stream, [spec], 0), self.stream)
        spec = CorruptionSpec(kind="uniformity_collapse", rho=0.0)
        np.testing.assert_allclose(corrupt_stream(self.stream, [spec], 0), self.stream)

    def test_mean_shift_widens_gap(self):
        ident = AdapterParams.identity(self.gallery.dim)
        gap_before = gap(forward_adapter(ident, self.stream), self.gallery.center)
        shifted = corrupt_stream(
            self.stream, [CorruptionSpec(kind="mean_shift", delta=0.5, domain=0)], 0
        )
        gap_after = gap(forward_adapter(ident, shifted), self.gallery.center)
        assert gap_after > gap_before

    def test_collapse_reduces_uniformity(self):
        ident = AdapterParams.identity(self.gallery.dim)
        u_before = uniformity(forward_adapter(ident, self.stream))
        collapsed = corrupt_stream(
            self.stream, [CorruptionSpec(kind="uniformity_collapse", rho=0.8)], 0
        )
        u_after = uniformity(forward_adapter(ident, collapsed))
        assert u_after < u_before

    def test_compose_applies_in_order(self):
        inner = (
            CorruptionSpec(kind="mean_shift", delta=0.3, domain=1),
            CorruptionSpec(kind="uniformity_collapse", rho=0.5),
        )
        spec = CorruptionSpec(kind="compose", parts=inner)
        manual = corrupt_stream(self.stream, [inner[0]], 7)
        manual = manual + 0.5 * (manual.mean(axis=0)[None, :] - manual)
        np.testing.assert_allclose(corrupt_stream(self.stream, [spec], 7), manual, atol=1e-12)

    def test_compose_requires_parts(self):
        with pytest.raises(InvalidSpecError):
            CorruptionSpec(kind="compose")

    def test_shift_direction_stable_per_domain(self):
        a = shift_direction(16, 3)
        b = shift_direction(16, 3)
        c = shift_direction(16, 4)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)
        assert np.linalg.norm(a) == pytest.approx(1.0, abs=1e-12)

    def test_diverse_stream_deterministic_and_mixed(self):
        specs = [
            CorruptionSpec(kind="mean_shift", delta=0.6, domain=0),
            CorruptionSpec(kind="mean_shift", delta=0.6, domain=1),
            CorruptionSpec(kind="gaussian_noise", sigma=0.3),
        ]
        a = corrupt_stream(self.stream, specs, 11)
        b = corrupt_stream(self.stream, specs, 11)
        assert np.array_equal(a, b)
        # The per-query domain draw actually mixes several domains.
        rng = np.random.default_rng(11)
        choice = rng.integers(0, len(specs), self.stream.shape[0])
        assert len(set(choice.tolist())) > 1
        # Rows assigned to the noiseless mean-shift domains match a direct
        # single-domain application of that corruption.
        direct0 = corrupt_stream(self.stream, [specs[0]], 11)
        for i, d in enumerate(choice):
            if int(d) == 0:
                np.testing.assert_allclose(a[i], direct0[i], atol=1e-12)
        # Every row is its domain's whole-stream variant, bit for bit.
        for d, spec in enumerate(specs):
            variant = _apply(self.stream, spec, np.random.default_rng([11, d]))
            assert np.array_equal(a[choice == d], variant[choice == d])

    def test_empty_corruption_list_is_identity(self):
        out = corrupt_stream(self.stream, [], 0)
        assert np.array_equal(out, self.stream)


class TestProbes:
    def setup_method(self):
        rng = np.random.default_rng(8)
        self.z = l2_normalize_rows(rng.standard_normal((12, 6)) + 0.5)

    def test_scale_identity_is_exact(self):
        out = scale_queries(self.z, 1.0)
        assert np.array_equal(out, self.z)

    def test_scale_zero_collapses_to_center(self):
        with pytest.raises(InvalidSpecError):
            scale_queries(self.z, 0.0)
        tiny = scale_queries(self.z, 1e-9)
        center = self.z.mean(axis=0)
        expected = center / np.linalg.norm(center)
        np.testing.assert_allclose(tiny, np.tile(expected, (12, 1)), atol=1e-6)

    def test_scale_up_increases_uniformity(self):
        assert uniformity(scale_queries(self.z, 2.0)) > uniformity(self.z)

    def test_offset_identity_is_exact(self):
        gallery_mean = np.zeros(6)
        out = offset_queries(self.z, gallery_mean, 0.0)
        assert np.array_equal(out, self.z)

    def test_offset_zero_gap_is_exact_identity(self):
        gallery_mean = self.z.mean(axis=0)
        out = offset_queries(self.z, gallery_mean, 1.0)
        assert np.array_equal(out, self.z)

    def test_offset_closes_gap(self):
        gallery_mean = np.full(6, 0.1)
        before = np.linalg.norm(self.z.mean(axis=0) - gallery_mean)
        moved = offset_queries(self.z, gallery_mean, 1.0)
        after = np.linalg.norm(moved.mean(axis=0) - gallery_mean)
        assert after < before

    def test_scale_probe_recovers_collapsed_recall_monotonically(self):
        spec = SyntheticSpec(
            classes=96, dim=12, gallery_size=384, stream_length=256,
            sigma_query=0.35, sigma_gallery=0.1, seed=7,
        )
        gallery, stream, truth = generate_benchmark(spec)
        corrupted = corrupt_stream(
            stream, [CorruptionSpec(kind="uniformity_collapse", rho=0.9)], 7
        )
        z = forward_adapter(AdapterParams.identity(gallery.dim), corrupted)
        recalls = [
            recall_at_k(rank(scale_queries(z, lam), gallery), truth, 1)
            for lam in (1.0, 1.5, 2.0)
        ]
        assert recalls[0] <= recalls[1] <= recalls[2]
        assert recalls[2] > recalls[0]

    def test_offset_probe_at_recovered_gap_beats_no_offset(self):
        spec = SyntheticSpec(
            classes=96, dim=12, gallery_size=384, stream_length=256,
            sigma_query=0.35, sigma_gallery=0.1, seed=7,
        )
        gallery, stream, truth = generate_benchmark(spec)
        ident = AdapterParams.identity(gallery.dim)
        corrupted = corrupt_stream(
            stream, [CorruptionSpec(kind="mean_shift", delta=1.5, domain=2)], 7
        )
        z_clean = forward_adapter(ident, stream)
        z = forward_adapter(ident, corrupted)
        gap_clean = gap(z_clean, gallery.center)
        gap_corrupt = gap(z, gallery.center)
        lam_star = 1.0 - gap_clean / gap_corrupt
        gmean = gallery.items.mean(axis=0)
        r_zero = recall_at_k(rank(z, gallery), truth, 1)
        r_star = recall_at_k(rank(offset_queries(z, gmean, lam_star), gallery), truth, 1)
        assert r_star >= r_zero


class TestMetrics:
    def test_uniformity_singleton_zero(self):
        assert uniformity(np.array([[1.0, 0.0]])) == 0.0

    def test_uniformity_antipodal_pair(self):
        z = np.array([[1.0, 0.0], [-1.0, 0.0]])
        assert uniformity(z) == pytest.approx(1.0)

    def test_uniformity_permutation_invariant(self):
        rng = np.random.default_rng(9)
        z = l2_normalize_rows(rng.standard_normal((10, 5)))
        perm = rng.permutation(10)
        assert uniformity(z) == pytest.approx(uniformity(z[perm]), abs=1e-12)
        # The parts of row blocks add up to the whole.
        center = z.mean(axis=0)
        parts = metric_uniformity(z[:4], center, 10) + metric_uniformity(z[4:], center, 10)
        assert parts == pytest.approx(uniformity(z), rel=1e-14)

    def test_uniformity_empty_raises(self):
        with pytest.raises(EmptyBatchError):
            metric_uniformity(np.empty((0, 4)), np.zeros(4), 1)

    def test_gap_identical_zero(self):
        z = l2_normalize_rows(np.random.default_rng(10).standard_normal((6, 4)))
        assert gap(z, z.mean(axis=0)) == pytest.approx(0.0, abs=1e-12)

    def test_gap_singletons(self):
        a = np.array([[1.0, 0.0]])
        b = np.array([[0.0, 1.0]])
        assert gap(a, b.mean(axis=0)) == pytest.approx(math.sqrt(2), abs=1e-12)

    def test_gap_symmetric(self):
        rng = np.random.default_rng(11)
        a = l2_normalize_rows(rng.standard_normal((5, 4)))
        b = l2_normalize_rows(rng.standard_normal((7, 4)))
        gap_ab = gap(a, b.mean(axis=0))
        assert gap_ab == pytest.approx(gap(b, a.mean(axis=0)), abs=1e-12)

    def test_gap_to_gallery_center_is_bit_identical(self):
        rng = np.random.default_rng(14)
        g = gallery_mod.Gallery(l2_normalize_rows(rng.standard_normal((50, 6))))
        z = l2_normalize_rows(rng.standard_normal((9, 6)))
        # The old metric_gap took the gallery rows and averaged them per call.
        old = float(np.linalg.norm(z.mean(axis=0) - g.items.mean(axis=0)))
        assert gap(z, g.center) == old
        with pytest.raises(DimMismatchError):
            metric_gap(np.ones(3), np.ones(4))
        with pytest.raises(DimMismatchError):
            metric_gap(np.ones((3, 3)), np.ones((3, 3)))

    def test_gap_dim_mismatch(self):
        with pytest.raises(DimMismatchError):
            metric_gap(np.ones(3), np.ones((2, 4)))

    def test_consistency_perfect(self):
        z = np.eye(3)
        truth = GroundTruth.from_sets((frozenset({0}), frozenset({1}), frozenset({2})))
        assert consistency(z, z, truth) == pytest.approx(1.0)

    def test_consistency_orthogonal(self):
        z_q = np.eye(2)
        z_g = np.array([[0.0, 1.0], [1.0, 0.0]])
        truth = GroundTruth.from_sets((frozenset({0}), frozenset({1})))
        assert consistency(z_q, z_g, truth) == pytest.approx(0.0)

    def test_consistency_mixed_half(self):
        z_q = np.eye(2)
        z_g = np.array([[1.0, 0.0], [1.0, 0.0]])
        truth = GroundTruth.from_sets((frozenset({0}), frozenset({1})))
        assert consistency(z_q, z_g, truth) == pytest.approx(0.5)

    def test_consistency_matches_pair_loop_across_blocks(self, monkeypatch):
        rng = np.random.default_rng(13)
        z_q = l2_normalize_rows(rng.standard_normal((23, 5)))
        z_g = l2_normalize_rows(rng.standard_normal((17, 5)))
        truth = GroundTruth.from_sets(
            frozenset(rng.choice(17, int(rng.integers(1, 18)), replace=False).tolist())
            for _ in range(23)
        )
        want = consistency_by_pairs(z_q, z_g, truth)
        # One block; then 6, 10 and 1 relevant pairs (dim 5) per block.
        for block in (1 << 20, 4 * 17, 6 * 17 + 3, 1):
            monkeypatch.setattr(synth_mod, "_SUM_BLOCK", block)
            assert consistency(z_q, z_g, truth) == pytest.approx(want, rel=1e-12)

    def test_relevant_sums_independent_of_blocks_and_slices(self, monkeypatch):
        rng = np.random.default_rng(14)
        z_q = l2_normalize_rows(rng.standard_normal((31, 4)))
        z_g = l2_normalize_rows(rng.standard_normal((40, 4)))
        truth = GroundTruth.from_sets(
            rng.choice(40, int(rng.integers(1, 41)), replace=False).tolist() for _ in range(31)
        )
        want = np.array([z_g[rel].sum(axis=0) for rel in csr_rows(truth)])
        cuts = (0, 1, 7, 8, 20, 31)
        # One block; then 1, 3 and 10 pairs (dim 4) per block, so that most
        # queries are wider than a block and are gathered alone. Within one
        # block size, a query's sum does not depend on the queries it is
        # built with.
        for block in (1 << 20, 4, 12, 40, 1):
            monkeypatch.setattr(synth_mod, "_SUM_BLOCK", block)
            whole = sums_of(z_g, truth)
            np.testing.assert_allclose(whole, want, rtol=0, atol=1e-12)
            pieces = [sums_of(z_g, truth[a:b]) for a, b in zip(cuts[:-1], cuts[1:])]
            assert np.array_equal(np.concatenate(pieces), whole)
            for a, b in zip(cuts[:-1], cuts[1:]):
                part = truth[a:b]
                assert consistency(z_q[a:b], z_g, part) == pytest.approx(
                    consistency_by_pairs(z_q[a:b], z_g, part), rel=1e-12)
        assert sums_of(z_g, truth[5:5]).shape == (0, 4)

    def test_consistency_reads_given_sums(self):
        rng = np.random.default_rng(15)
        z_q = l2_normalize_rows(rng.standard_normal((5, 3)))
        z_g = l2_normalize_rows(rng.standard_normal((7, 3)))
        truth = GroundTruth.from_sets(({0, 1}, {2}, {3, 4, 5}, {6}, {0, 6}))
        sums, pairs = sums_of(z_g, truth), truth.indices.size
        assert metric_consistency(z_q, sums, pairs) == pytest.approx(
            consistency_by_pairs(z_q, z_g, truth), rel=1e-12)
        assert metric_consistency(z_q, 2 * sums, pairs) == pytest.approx(
            2 * metric_consistency(z_q, sums, pairs), rel=1e-14)
        # The parts of row blocks add up to the whole.
        parts = [metric_consistency(z_q[a:b], sums[a:b], pairs) for a, b in ((0, 2), (2, 5))]
        assert sum(parts) == pytest.approx(metric_consistency(z_q, sums, pairs), rel=1e-14)

    def test_relevant_sums_share_equal_sets(self, monkeypatch):
        # Each query's sum equals the sum of its own one-query slice, bit for
        # bit, whether its set repeats, shares its length with other ids or is
        # a prefix of another set, and when every query has a set of its own.
        rng = np.random.default_rng(16)
        z_g = l2_normalize_rows(rng.standard_normal((30, 5)))
        truths = []
        for _ in range(20):
            sets = [rng.choice(30, int(rng.integers(1, 31)), replace=False) for _ in range(4)]
            # Same length, other ids; the lower half of each set.
            sets += [(s + 1) % 30 for s in sets] + [np.sort(s)[: (s.size + 1) // 2] for s in sets]
            truths.append(GroundTruth.from_sets(
                sets[i].tolist() for i in rng.integers(0, len(sets), int(rng.integers(1, 40)))
            ))
        # All distinct: 30 one-id sets, then 29 two-id runs, in shuffled order.
        distinct = [[i] for i in range(30)] + [[i, i + 1] for i in range(29)]
        truths.append(GroundTruth.from_sets(distinct[i] for i in rng.permutation(len(distinct))))
        for truth in truths:
            want = np.concatenate([sums_of(z_g, truth[q : q + 1]) for q in range(len(truth))])
            for block in (1 << 20, 7):
                monkeypatch.setattr(synth_mod, "_SUM_BLOCK", block)
                assert np.array_equal(sums_of(z_g, truth), want)

    def test_consistency_rejects_sums_of_another_shape(self):
        rng = np.random.default_rng(17)
        z_g = l2_normalize_rows(rng.standard_normal((9, 32)))
        truth = GroundTruth.from_sets([q % 9] for q in range(16))
        z_q = l2_normalize_rows(rng.standard_normal((16, 32)))
        sums, pairs = sums_of(z_g, truth), truth.indices.size
        # The same number of values in another shape used to be read flat.
        with pytest.raises(DimMismatchError):
            metric_consistency(z_q, sums.reshape(8, 64), pairs)
        with pytest.raises(DimMismatchError):
            metric_consistency(z_q, sums[:8], pairs)
        with pytest.raises(DimMismatchError):
            metric_consistency(z_q[:, :16], sums, pairs)
        assert metric_consistency(z_q, sums, pairs) == pytest.approx(
            consistency_by_pairs(z_q, z_g, truth), rel=1e-12)

    def test_consistency_empty_pairs(self):
        with pytest.raises(InvalidSpecError):
            GroundTruth.from_sets((frozenset(),))

    def test_recall_trivial_cases(self):
        truth = GroundTruth.from_sets((frozenset({3}), frozenset({1})))
        top_hit = np.array([[3, 0], [1, 2]])
        assert recall_at_k(top_hit, truth, 1) == 1.0
        miss = np.array([[0, 2], [0, 2]])
        assert recall_at_k(miss, truth, 2) == 0.0

    def test_recall_hand_count(self):
        truth = GroundTruth.from_sets(
            (frozenset({0}), frozenset({1}), frozenset({2}), frozenset({3}))
        )
        rankings = np.array([[0], [1], [2], [9]])
        assert recall_at_k(rankings, truth, 1) == 0.75

    def test_recall_missing_query(self):
        truth = GroundTruth.from_sets((frozenset({0}), frozenset({1})))
        with pytest.raises(DimMismatchError):
            recall_at_k(np.array([[0]]), truth, 1)

    def test_metrics_invariant_under_consistent_permutation(self):
        rng = np.random.default_rng(12)
        z_q = l2_normalize_rows(rng.standard_normal((6, 4)))
        z_g = l2_normalize_rows(rng.standard_normal((9, 4)))
        truth = GroundTruth.from_sets(
            frozenset({int(rng.integers(0, 9))}) for _ in range(6)
        )
        perm = rng.permutation(6)
        rows = csr_rows(truth)
        truth_p = GroundTruth.from_sets(rows[i] for i in perm)
        a = consistency(z_q, z_g, truth)
        b = consistency(z_q[perm], z_g, truth_p)
        assert a == pytest.approx(b, abs=1e-12)
