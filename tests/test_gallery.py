import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from queryshift import gallery as gallery_mod
from queryshift.errors import DimMismatchError, InvalidKError
from queryshift.gallery import Gallery, build_centroids, knn_table
from queryshift.vectors import EPS_NORM, l2_normalize_rows


def random_gallery(n, d, seed):
    rng = np.random.default_rng(seed)
    return Gallery(l2_normalize_rows(rng.standard_normal((n, d))))


# Unit vectors in dim 4 whose pairwise dot products are exact in float64:
# the signed axes and every (+-0.5, +-0.5, +-0.5, +-0.5). Scores take only
# the values -1, -0.5, 0, 0.5 and 1, whatever the summation order.
EXACT_POOL = np.vstack(
    [np.eye(4), -np.eye(4), 0.5 * np.array(list(itertools.product([-1.0, 1.0], repeat=4)))]
)


def tied_instance(rng, n_items, n_queries):
    """Gallery rows and queries drawn with repeats from EXACT_POOL."""
    items = EXACT_POOL[rng.integers(0, len(EXACT_POOL), n_items)]
    queries = EXACT_POOL[rng.integers(0, len(EXACT_POOL), n_queries)]
    return Gallery(items), queries


def brute_force_two_cluster_energy(items):
    """Best two-partition energy with unit-norm centroids, by enumeration."""
    n = len(items)
    best = np.inf
    for mask in itertools.product([0, 1], repeat=n):
        mask = np.array(mask, dtype=bool)
        if mask.all() or not mask.any():
            continue
        energy = 0.0
        for part in (items[mask], items[~mask]):
            mean = part.mean(axis=0)
            norm = np.linalg.norm(mean)
            c = part[0] if norm < 1e-12 else mean / norm
            energy += float(((part - c) ** 2).sum())
        best = min(best, energy)
    return best


class TestGallery:
    def test_rejects_unnormalized(self):
        with pytest.raises(ValueError):
            Gallery(np.array([[1.0, 1.0]]))

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            Gallery(np.array([[np.nan, 1.0]]))

    def test_center_is_the_row_mean_computed_once(self):
        g = random_gallery(40, 5, 3)
        assert np.array_equal(g.center, g.items.mean(axis=0))
        assert g.center is g.center
        assert not g.center.flags.writeable

    def test_first_copy(self):
        g = Gallery(EXACT_POOL[[3, 5, 3, 9, 5, 3]])
        assert g.first_copy.tolist() == [0, 1, 0, 3, 1, 0]
        assert not g.first_copy.flags.writeable
        assert random_gallery(40, 4, 0).first_copy is None

    def test_items_are_frozen(self):
        g = random_gallery(4, 3, 0)
        with pytest.raises(ValueError):
            g.items[0, 0] = 5.0


def two_pass_lloyd(gallery, k, seed):
    """Frozen copy of the Lloyd loop that made two distance passes per iteration.

    Returns (centroids, energy_trace); build_centroids must match it bit for bit.
    """

    def min_sq_dist(items, centroids):
        sq = (
            np.sum(items**2, axis=1)[:, None]
            - 2.0 * items @ centroids.T
            + np.sum(centroids**2, axis=1)[None, :]
        )
        assign = np.argmin(sq, axis=1)
        return sq[np.arange(items.shape[0]), assign], assign

    items = gallery.items
    centroids = gallery_mod._kmeanspp_seed(items, k, np.random.default_rng(seed))
    min_d2, _ = min_sq_dist(items, centroids)
    trace = [float(min_d2.sum())]
    for _ in range(gallery_mod._KMEANS_MAX_ITER):
        min_d2, assign = min_sq_dist(items, centroids)
        new_centroids = centroids.copy()
        counts = np.bincount(assign, minlength=k)
        for c in range(k):
            if counts[c] == 0:
                continue
            mean = items[assign == c].mean(axis=0)
            norm = np.linalg.norm(mean)
            if norm > EPS_NORM:
                new_centroids[c] = mean / norm
        empty = np.flatnonzero(counts == 0)
        if empty.size:
            farthest = np.argsort(-min_d2, kind="stable")
            for slot, c in enumerate(empty):
                new_centroids[c] = items[farthest[slot]]
        centroids = new_centroids
        min_d2, _ = min_sq_dist(items, centroids)
        new_energy = float(min_d2.sum())
        improved = trace[-1] - new_energy
        trace.append(new_energy)
        if improved < gallery_mod._KMEANS_TOL:
            break
    return centroids, tuple(trace)


class TestBuildCentroids:
    def test_two_obvious_clusters(self):
        items = np.array([[1.0, 0.0]] * 5 + [[0.0, 1.0]] * 5)
        g = Gallery(items)
        cents = build_centroids(g, 2, seed=0)
        got = sorted(tuple(np.round(c, 9)) for c in cents.centroids)
        assert got == [(0.0, 1.0), (1.0, 0.0)]
        # Brute force over all 2-partitions confirms this is the optimum.
        assert cents.energy == pytest.approx(brute_force_two_cluster_energy(items), abs=1e-9)

    def test_k_equals_n(self):
        g = random_gallery(12, 6, 3)
        cents = build_centroids(g, 12, seed=1)
        assert cents.energy == pytest.approx(0.0, abs=1e-12)
        # Every centroid coincides with some gallery row.
        for c in cents.centroids:
            dists = np.linalg.norm(g.items - c, axis=1)
            assert dists.min() < 1e-9

    def test_k_one_is_normalized_mean(self):
        g = random_gallery(9, 5, 4)
        cents = build_centroids(g, 1, seed=0)
        mean = g.items.mean(axis=0)
        np.testing.assert_allclose(cents.centroids[0], mean / np.linalg.norm(mean), atol=1e-12)

    def test_deterministic(self):
        g = random_gallery(40, 8, 5)
        a = build_centroids(g, 6, seed=9)
        b = build_centroids(g, 6, seed=9)
        assert np.array_equal(a.centroids, b.centroids)
        assert a.energy == b.energy
        assert a.energy_trace == b.energy_trace

    def test_energy_trace_non_increasing(self):
        for seed in range(5):
            g = random_gallery(60, 4, seed)
            cents = build_centroids(g, 7, seed=seed)
            trace = cents.energy_trace
            assert all(trace[i + 1] <= trace[i] + 1e-9 for i in range(len(trace) - 1))

    def test_centroids_unit_norm(self):
        g = random_gallery(30, 6, 8)
        cents = build_centroids(g, 5, seed=2)
        np.testing.assert_allclose(np.linalg.norm(cents.centroids, axis=1), 1.0, atol=1e-9)

    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 11])
    @pytest.mark.parametrize(
        "n, d, k",
        [(60, 4, 7), (300, 8, 10), (25, 5, 1), (12, 6, 12), (400, 32, 10)],
    )
    def test_bit_identical_to_two_pass_loop(self, n, d, k, seed):
        g = random_gallery(n, d, seed + 100)
        cents = build_centroids(g, k, seed)
        centroids, trace = two_pass_lloyd(g, k, seed)
        assert np.array_equal(cents.centroids, centroids)
        assert cents.energy_trace == trace
        assert cents.energy == trace[-1]

    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 11])
    def test_bit_identical_with_empty_cluster_reseed(self, seed):
        # Five distinct rows, each repeated: k-means++ runs out of mass after
        # five picks and draws repeats, so some clusters start out empty.
        rng = np.random.default_rng(seed)
        g = Gallery(np.repeat(l2_normalize_rows(rng.standard_normal((5, 4))), 4, axis=0))
        k = 8
        seeded = gallery_mod._kmeanspp_seed(g.items, k, np.random.default_rng(seed))
        assert len(np.unique(seeded, axis=0)) < k
        cents = build_centroids(g, k, seed)
        centroids, trace = two_pass_lloyd(g, k, seed)
        assert np.array_equal(cents.centroids, centroids)
        assert cents.energy_trace == trace

    def test_invalid_k(self):
        g = random_gallery(5, 3, 0)
        for k in (0, 6):
            with pytest.raises(InvalidKError):
                build_centroids(g, k, seed=0)


def linear_scan_oracle(items, q, k):
    """Independent re-scan: sort by similarity desc, then id asc, in pure Python."""
    sims = [(float(np.dot(row, q)), i) for i, row in enumerate(items)]
    sims.sort(key=lambda t: (-t[0], t[1]))
    return [i for _, i in sims[:k]]


class TestKnn:
    def test_exact_match_first(self):
        g = Gallery(np.array([[1.0, 0.0], [0.0, 1.0]]))
        ids = knn_table(g, np.array([[1.0, 0.0]]), 1)[0]
        assert list(ids) == [0]

    def test_tie_breaks_to_lower_id(self):
        g = Gallery(np.array([[0.0, 1.0], [0.0, -1.0]]))
        ids = knn_table(g, np.array([[1.0, 0.0]]), 2)[0]
        assert list(ids) == [0, 1]

    def test_matches_linear_scan(self):
        g = random_gallery(256, 8, 11)
        rng = np.random.default_rng(12)
        for _ in range(20):
            q = rng.standard_normal(8)
            q /= np.linalg.norm(q)
            ids = knn_table(g, q[None], 10)[0]
            assert list(ids) == linear_scan_oracle(g.items, q, 10)
            sims = g.items[ids] @ q
            assert all(sims[i] >= sims[i + 1] - 1e-12 for i in range(len(sims) - 1))

    def test_full_k_is_permutation(self):
        g = random_gallery(50, 4, 13)
        q = g.items[7]
        ids = knn_table(g, q[None], g.size)[0]
        assert sorted(ids) == list(range(g.size))

    def test_errors(self):
        g = random_gallery(5, 3, 0)
        with pytest.raises(InvalidKError):
            knn_table(g, g.items[:1], 6)
        with pytest.raises(DimMismatchError):
            knn_table(g, np.ones((1, 4)), 2)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_query(self, bad):
        g = random_gallery(40, 4, 0)
        queries = np.vstack([g.items[:2], [[bad, 0.0, 0.0, 0.0]]])
        with pytest.raises(ValueError, match="non-finite"):
            knn_table(g, queries, 5)

    def test_table_matches_single(self):
        g = random_gallery(64, 6, 14)
        rng = np.random.default_rng(15)
        queries = l2_normalize_rows(rng.standard_normal((8, 6)))
        table = knn_table(g, queries, 5)
        for i in range(8):
            assert list(table[i]) == list(knn_table(g, queries[i][None], 5)[0])

    def test_ties_across_the_cut_match_sort_oracle(self):
        # Five score levels over up to 40 items put ties at the k-th place
        # in most rows; duplicate gallery rows tie exactly.
        rng = np.random.default_rng(16)
        for _ in range(200):
            n = int(rng.integers(1, 41))
            g, queries = tied_instance(rng, n, int(rng.integers(1, 9)))
            for k in {1, n, int(rng.integers(1, n + 1))}:
                want = [linear_scan_oracle(g.items, q, k) for q in queries]
                assert knn_table(g, queries, k).tolist() == want

    def test_repeated_rows_match_pair_oracle(self):
        # Identical rows tie exactly and go to the lower id, though one
        # float64 product of a query block and the gallery can score them
        # an ulp apart by column.
        for seed in range(60):
            rng = np.random.default_rng(seed)
            g = repeated_row_gallery(rng, int(rng.integers(8, 700)), int(rng.integers(8, 33)))
            queries = rng.standard_normal((int(rng.integers(1, 65)), g.dim))
            k = int(rng.integers(1, min(50, g.size) + 1))
            pair = (queries[:, None, :] * g.items[None]).sum(axis=2)
            assert np.array_equal(knn_table(g, queries, k), lexsort_oracle(pair, k)), seed

    @pytest.mark.parametrize("block", [1 << 20, 5 * 37, 4 * 37 + 3, 2 * 37, 3])
    def test_buffered_blocks_match_per_block_scoring(self, monkeypatch, block):
        # The earlier knn_table: one fresh score matrix per row block.
        def per_block(g, queries, k):
            out = np.empty((queries.shape[0], k), dtype=np.int64)
            for rows in gallery_mod._row_blocks(queries.shape[0], g.size):
                out[rows] = gallery_mod._topk(queries[rows] @ g.items.T, k)
            return out

        monkeypatch.setattr(gallery_mod, "SCORE_BLOCK", block)
        rng = np.random.default_rng(18)
        tied, tied_queries = tied_instance(rng, 37, 23)
        plain = random_gallery(37, 6, 19)
        plain_queries = l2_normalize_rows(rng.standard_normal((23, 6)))
        for g, queries in ((tied, tied_queries), (plain, plain_queries)):
            for k in (1, 5, 37):
                want = per_block(g, queries, k)
                assert np.array_equal(knn_table(g, queries, k), want)
                # Fewer queries than one block's rows.
                assert np.array_equal(knn_table(g, queries[:2], k), per_block(g, queries[:2], k))

    def test_row_blocks_match_single_block(self, monkeypatch):
        rng = np.random.default_rng(17)
        g, queries = tied_instance(rng, 24, 11)
        whole = {k: knn_table(g, queries, k) for k in (1, 5, 24)}
        # 3, 2 and 1 query rows per block: 4, 6 and 11 blocks, last one short.
        for block in (3 * 24, 2 * 24 + 5, 7):
            monkeypatch.setattr(gallery_mod, "SCORE_BLOCK", block)
            assert len(list(gallery_mod._row_blocks(11, 24))) >= 3
            for k, want in whole.items():
                assert np.array_equal(knn_table(g, queries, k), want)


class TestRowBlock:
    """Row blocks below ``SCORE_BLOCK`` change neither a ranking nor the flat memory."""

    def test_block_shape_cannot_change_a_ranking(self, monkeypatch):
        rng = np.random.default_rng(21)
        # Duplicate rows exercise the tie rule through first_copy.
        g = repeated_row_gallery(rng, 512, 32)
        assert g.first_copy is not None
        queries = rng.standard_normal((1000, 32))
        want = {k: knn_table(g, queries, k) for k in (1, 10)}
        for row_block, score_block in itertools.product((1, 7, 256), (1 << 19, 3 * 512 + 5)):
            monkeypatch.setattr(gallery_mod, "_ROW_BLOCK", row_block)
            monkeypatch.setattr(gallery_mod, "SCORE_BLOCK", score_block)
            for k, ids in want.items():
                assert np.array_equal(knn_table(g, queries, k), ids), (row_block, score_block, k)

    def test_whole_stream_ranking_memory(self):
        # 4,096 queries at 512 items: 1,024-row blocks of float64 scores
        # peaked at 5.2 MB, 256-row blocks at 1.6 MB.
        g = random_gallery(512, 32, 22)
        queries = l2_normalize_rows(np.random.default_rng(23).standard_normal((4096, 32)))
        assert g.first_copy is None
        tracemalloc.start()
        try:
            knn_table(g, queries, 10)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2 * 2**20


class TestKnnScreened(TestKnn):
    """The same checks through the float32 screen and the float64 re-score."""

    @pytest.fixture(autouse=True)
    def screen_every_gallery(self, monkeypatch):
        monkeypatch.setattr(gallery_mod, "_SCREEN_MIN_ITEMS", 1)

    def test_tied_instance_at_the_cut(self):
        TestTopkFloor.test_tied_instance_at_the_cut(self)


def repeated_row_gallery(rng, n, d):
    """A gallery of n rows drawn with repeats from 64-511 distinct unit rows."""
    base = l2_normalize_rows(rng.standard_normal((int(rng.integers(64, 512)), d)))
    return Gallery(base[rng.integers(0, len(base), n)])


def rotated_axis_instance(rng, n, d, near):
    """Items whose cosine with one query is their first coordinate, rotated.

    ``near`` (a list of first coordinates) fills random ids; the other rows
    take first coordinates in [-1, 0.5]. Returns the gallery and the query.
    """
    first = rng.uniform(-1.0, 0.5, n)
    first[rng.choice(n, len(near), replace=False)] = near
    rest = l2_normalize_rows(rng.standard_normal((n, d - 1))) * np.sqrt(1 - first**2)[:, None]
    rotation, _ = np.linalg.qr(rng.standard_normal((d, d)))
    items = np.hstack([first[:, None], rest]) @ rotation
    return Gallery(l2_normalize_rows(items)), rotation[0]


class TestScreen:
    """The float32 screen of galleries with at least _SCREEN_MIN_ITEMS items."""

    def test_threshold_decides_the_path(self):
        small = random_gallery(gallery_mod._SCREEN_MIN_ITEMS - 1, 4, 30)
        large = random_gallery(gallery_mod._SCREEN_MIN_ITEMS, 4, 30)
        for g in (small, large):
            knn_table(g, g.items[:3], 5)
        assert "items_t32" not in vars(small)
        t32 = vars(large)["items_t32"]
        assert t32.dtype == np.float32 and t32.flags.c_contiguous and not t32.flags.writeable
        assert np.array_equal(t32, large.items.T.astype(np.float32))

    @pytest.mark.parametrize("n", [4096, 4097, 5000])
    def test_items_t32_is_the_float32_transpose(self, n):
        # Whole column blocks only, one row past them, and a partial last block.
        g = random_gallery(n, 7, n)
        t32 = g.items_t32
        assert t32.dtype == np.float32 and t32.flags.c_contiguous and not t32.flags.writeable
        assert np.array_equal(t32, g.items.T.astype(np.float32))
        assert g.items_t32 is t32

    def test_repeated_rows_keep_the_tie_rule_and_batch_independence(self):
        # Identical rows must score identically wherever they sit in the
        # gallery and whatever else is in the batch. A float64 product of a
        # 64-row block and the whole gallery does not guarantee either.
        for seed in range(20):
            rng = np.random.default_rng(seed)
            g = repeated_row_gallery(rng, int(rng.integers(4096, 8192)), 32)
            _, group = np.unique(g.items, axis=0, return_inverse=True)
            group = group.ravel()
            queries = rng.standard_normal((64, 32))
            table = knn_table(g, queries, 50)
            for q, row in zip(queries, table):
                for pos, j in enumerate(row):
                    twins = np.flatnonzero(group[:j] == group[j])
                    assert set(twins) <= set(row[:pos].tolist()), (seed, j)
                assert np.array_equal(knn_table(g, q[None], 50)[0], row), seed

    @pytest.mark.parametrize("spacing", [1e-9, 1e-7])
    def test_near_ties_within_the_float32_bound(self, spacing):
        # Forty first coordinates closer than float32 can tell apart around
        # 0.8, but far apart in float64; the k-th score falls among them.
        rng = np.random.default_rng(31)
        near = 0.8 + spacing * rng.permutation(40)
        g, q = rotated_axis_instance(rng, 4100, 16, near)
        queries = np.vstack([q, 3.0 * q, 1e-3 * q + 1e-12])
        for k in (1, 10, 40):
            assert knn_table(g, queries, k).tolist() == [
                linear_scan_oracle(g.items, row, k) for row in queries
            ]

    def test_extreme_and_zero_query_rows(self):
        g = random_gallery(4096, 8, 32)
        rng = np.random.default_rng(33)
        unit = l2_normalize_rows(rng.standard_normal((3, 8)))
        queries = np.vstack([1e300 * unit, 1e-300 * unit, np.zeros((1, 8))])
        table = knn_table(g, queries, 10)
        assert table.tolist() == [linear_scan_oracle(g.items, row, 10) for row in queries]
        assert table[-1].tolist() == list(range(10))
        assert np.array_equal(table[:3], table[3:6])

    def test_full_ranking(self):
        g = random_gallery(4096, 8, 34)
        queries = l2_normalize_rows(np.random.default_rng(35).standard_normal((3, 8)))
        assert knn_table(g, queries, g.size).tolist() == [
            linear_scan_oracle(g.items, q, g.size) for q in queries
        ]


def lexsort_oracle(scores, k):
    """Each row's ids ordered by (-score, id), cut at k."""
    ids = np.arange(scores.shape[1])
    return np.array([np.lexsort((ids, -row))[:k] for row in scores], dtype=np.int64)


class TestTopkFloor:
    """Exact top-k where the group-maximum floor groups scores.

    For k = 1, 10 and 50 the group width is 16, 12 and 2 at n = 512 and
    16, 16 and 10 at n = 2000; k = n takes every score as a candidate.
    """

    @pytest.mark.parametrize("n", [512, 2000, 2003])
    @pytest.mark.parametrize("k", [1, 10, 50, "n"])
    @pytest.mark.parametrize("decimals", [None, 1])
    def test_random_rows(self, n, k, decimals):
        k = n if k == "n" else k
        scores = np.random.default_rng(n + k).standard_normal((8, n))
        if decimals is not None:
            scores = np.round(scores, decimals)
        assert np.array_equal(gallery_mod._topk(scores, k), lexsort_oracle(scores, k))

    def test_tied_instance_at_the_cut(self):
        rng = np.random.default_rng(20)
        g, queries = tied_instance(rng, 600, 12)
        full = [linear_scan_oracle(g.items, q, g.size) for q in queries]
        for k in (1, 10, 50, 600):
            assert knn_table(g, queries, k).tolist() == [row[:k] for row in full]

    @pytest.mark.parametrize(
        "layout",
        [
            "duplicates",  # 250 distinct rows, each repeated at random places
            "class_periodic",  # item i in class i mod 64
            "class_sorted",  # the same classes, each contiguous
        ],
    )
    def test_repeated_gallery_rows(self, layout):
        rng = np.random.default_rng(21)
        n = 2000
        if layout == "duplicates":
            base, source = random_gallery(250, 8, 22), rng.integers(0, 250, n)
        else:
            base, source = random_gallery(64, 8, 23), np.arange(n) % 64
            if layout == "class_sorted":
                source = np.sort(source)
        queries = l2_normalize_rows(rng.standard_normal((16, 8)))
        # Gather the scores, so that a repeated row ties exactly.
        scores = (queries @ base.items.T)[:, source]
        for k in (1, 10, 50, n):
            assert np.array_equal(gallery_mod._topk(scores, k), lexsort_oracle(scores, k))

    @pytest.mark.parametrize("n", [512, 2000, 2003])
    def test_rising_rows(self, n):
        # The top scores take the highest ids: one tail of the row, and past
        # the grouped columns when g does not divide n.
        scores = np.sort(np.random.default_rng(24).standard_normal((4, n)), axis=1)
        for k in (1, 10, 50):
            assert gallery_mod._topk(scores, k).tolist() == [list(range(n - 1, n - k - 1, -1))] * 4

    @pytest.mark.parametrize("k", [1, 10, 16])
    def test_top_scores_in_one_group(self, k):
        # Group 7 holds g >= k scores above all others, so one group maximum
        # sits over the whole top-k.
        n = 2000
        m = n // min(gallery_mod._TOPK_GROUP, n // (4 * k))
        scores = np.random.default_rng(25).random((4, n))
        scores[:, 7::m] += 2.0
        assert np.array_equal(gallery_mod._topk(scores, k), lexsort_oracle(scores, k))
        assert set(gallery_mod._topk(scores, k).ravel()) <= set(range(7, n, m))

    @pytest.mark.parametrize("n", [512, 2000])
    def test_all_equal_rows(self, n):
        for k in (1, 10, 50, n):
            assert gallery_mod._topk(np.full((3, n), 0.25), k).tolist() == [list(range(k))] * 3

    @given(st.data())
    @settings(max_examples=300, deadline=None)
    def test_quantized_scores_match_sort_oracle(self, data):
        b = data.draw(st.integers(1, 8))
        n = data.draw(st.integers(1, 300))
        k = data.draw(st.integers(1, n))
        levels = data.draw(st.integers(1, 6))
        scores = data.draw(arrays(np.int8, (b, n), elements=st.integers(-levels, levels)))
        scores = scores.astype(np.float64)
        assert np.array_equal(gallery_mod._topk(scores, k), lexsort_oracle(scores, k))
