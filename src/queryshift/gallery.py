"""Immutable gallery store with exact k-NN search and spherical k-means centroids.

The gallery is fixed for the lifetime of an adaptation session; only query
embeddings move. Both structures are safe to share across threads once built.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .errors import DimMismatchError, InvalidKError
from .vectors import EPS_NORM

# Tolerance on the unit-norm invariant of stored rows.
NORM_TOL = 1e-6

# Max Lloyd iterations and the energy-improvement stopping threshold.
_KMEANS_MAX_ITER = 100
_KMEANS_TOL = 1e-6

# Most scores one query x gallery pass holds at once (4 MB in float64; a
# screened block holds float32 scores, 2 MB), so memory stays flat in the
# number of queries. Top-k selection allocates one bool per score on top of
# that, plus the few scores at or above each row's floor. A re-score gathers
# at most this many values per chunk.
SCORE_BLOCK = 1 << 19

# Most query rows per knn_table block; it binds before SCORE_BLOCK below 2,048
# items. At 512 items a block is 1 MB of float64 scores, within a 2 MB L2:
# 4,096 queries peaked at 1.6 MB in tracemalloc, against 5.2 MB in 1,024-row
# blocks, in the same time (12-15 ms, one core).
_ROW_BLOCK = 256

# Widest group of scores in _topk; group maxima floor a row's k-th score.
_TOPK_GROUP = 16

# Galleries of at least this many items are screened in float32 before the
# float64 re-score (see knn_table). Smaller ones are scored in float64 alone:
# at 512 items a screened call measured 1.3-2.1x slower (16-64 queries).
_SCREEN_MIN_ITEMS = 4096

# Gallery rows per column block of items_t32. Filling the 20k x 32 copy in
# blocks took 1.5 ms against 5.8 ms for one strided transpose (Xeon, one core).
_T32_BLOCK = 1024


def _frozen_copy(a: np.ndarray) -> np.ndarray:
    out = np.array(a, dtype=np.float64)
    out.flags.writeable = False
    return out


@dataclass(frozen=True)
class Gallery:
    """Fixed candidate matrix of unit-norm rows; ids are the row positions 0..n-1."""

    items: np.ndarray

    def __post_init__(self):
        items = np.asarray(self.items, dtype=np.float64)
        if items.ndim != 2 or items.shape[0] < 1:
            raise ValueError("gallery must be a non-empty 2-D array")
        if not np.all(np.isfinite(items)):
            raise ValueError("gallery contains non-finite entries")
        norms = np.linalg.norm(items, axis=1)
        if np.any(np.abs(norms - 1.0) > NORM_TOL):
            raise ValueError("gallery rows must be unit-norm")
        object.__setattr__(self, "items", _frozen_copy(items))

    @property
    def size(self) -> int:
        return self.items.shape[0]

    @property
    def dim(self) -> int:
        return self.items.shape[1]

    @functools.cached_property
    def center(self) -> np.ndarray:
        """Mean of the rows, computed once."""
        return _frozen_copy(self.items.mean(axis=0))

    @functools.cached_property
    def first_copy(self) -> np.ndarray | None:
        """Each row's lowest id holding the same values, or None when all rows differ."""
        _, first, inverse = np.unique(self.items, axis=0, return_index=True, return_inverse=True)
        if first.size == self.size:
            return None
        # numpy versions differ in the inverse's shape.
        out = first[inverse.reshape(-1)]
        out.flags.writeable = False
        return out

    @functools.cached_property
    def items_t32(self) -> np.ndarray:
        """Read-only C-contiguous float32 ``(dim, size)`` copy of the rows, built once."""
        out = np.empty((self.dim, self.size), dtype=np.float32)
        # Column blocks keep the strided reads of the transpose in cache.
        for a in range(0, self.size, _T32_BLOCK):
            out[:, a : a + _T32_BLOCK] = self.items[a : a + _T32_BLOCK].T
        out.flags.writeable = False
        return out


@dataclass(frozen=True)
class CentroidSet:
    """k-means centroids of the gallery, projected onto the unit sphere.

    ``energy`` is the final sum over gallery rows of the squared distance to
    the nearest centroid; ``energy_trace`` records it per Lloyd iteration.
    """

    centroids: np.ndarray
    energy: float
    energy_trace: tuple

    def __post_init__(self):
        object.__setattr__(self, "centroids", _frozen_copy(self.centroids))

    @property
    def k(self) -> int:
        return self.centroids.shape[0]


def knn_table(gallery: Gallery, queries: np.ndarray, k: int) -> np.ndarray:
    """Batched exact top-k ids, one row per query, by cosine similarity.

    Each row lists the ``k`` most similar gallery ids in decreasing
    similarity; equal similarities go to the lower gallery id, including at
    the k-th place. ``k = gallery.size`` gives the full ranking. Queries are
    scored in row blocks of at most ``_ROW_BLOCK`` rows and ``SCORE_BLOCK``
    similarities; a query that is not finite raises ValueError.

    Below ``_SCREEN_MIN_ITEMS`` items every score comes from one float64
    BLAS product of the query block and the gallery. Its rounding can depend
    on an item's column and on the query's batch mates, so a row that repeats
    an earlier one takes the score of its first copy (``Gallery.first_copy``)
    and identical rows tie exactly. From that size on, each query row is
    scaled to unit length and scored in float32 against
    ``gallery.items_t32``; such a score is within ``(dim + 2) * 2**-24`` of
    the exact cosine to first order, and each row's top-k floor drops by
    twice the bound ``2 * (dim + 2) * 2**-24`` (``_screen_slack``). Only the
    ids at or above the lowered floor are re-scored, one float64 dot product
    of the given query row and the gallery row per pair, and sorted by
    (-score, id). So the float32 pass only drops ids that cannot reach the
    top k; kept scores and their order are float64, and a screened query's
    ranking depends neither on its batch mates nor on its gallery column.
    """
    queries = np.asarray(queries, dtype=np.float64)
    if queries.ndim != 2 or queries.shape[1] != gallery.dim:
        raise DimMismatchError("query batch does not match gallery dim")
    if not np.all(np.isfinite(queries)):
        raise ValueError("query batch contains non-finite entries")
    if not 1 <= k <= gallery.size:
        raise InvalidKError(f"k={k} outside [1, {gallery.size}]")
    n = queries.shape[0]
    out = np.empty((n, k), dtype=np.int64)
    screen = gallery.size >= _SCREEN_MIN_ITEMS
    if screen:
        units, slack = _unit_rows32(queries), _screen_slack(gallery.dim)
    step = min(_ROW_BLOCK, max(1, SCORE_BLOCK // gallery.size))
    # One score buffer per call: a fresh block per step would fault its pages
    # in anew.
    buf = np.empty((min(n, step), gallery.size), dtype=np.float32 if screen else np.float64)
    for start in range(0, n, step):
        rows = slice(start, min(start + step, n))
        b = rows.stop - rows.start
        if screen:
            scores = np.matmul(units[rows], gallery.items_t32, out=buf[:b])
            row, col = _floor_candidates(scores, k, slack)
            exact = _pair_scores(queries[rows], gallery.items, row, col)
            out[rows] = _sort_candidates(row, col, exact, b, k)
        else:
            scores = np.matmul(queries[rows], gallery.items.T, out=buf[:b])
            if gallery.first_copy is not None:
                scores = scores[:, gallery.first_copy]
            out[rows] = _topk(scores, k)
    return out


def _row_blocks(n_rows: int, n_cols: int):
    """Row slices of an n_rows x n_cols matrix, each within SCORE_BLOCK values."""
    step = max(1, SCORE_BLOCK // n_cols)
    for start in range(0, n_rows, step):
        yield slice(start, min(start + step, n_rows))


def _unit_rows32(queries: np.ndarray) -> np.ndarray:
    """Each row scaled to unit length, in float32; a zero row stays zero.

    Rows are divided by their largest absolute entry first, so rows near
    1e+-300 neither overflow nor underflow on the way.
    """
    peak = np.abs(queries).max(axis=1, keepdims=True)
    rows = queries / np.where(peak > 0, peak, 1.0)
    # A nonzero row now holds an entry of magnitude 1, so its norm is >= 1.
    rows /= np.maximum(np.linalg.norm(rows, axis=1, keepdims=True), 1.0)
    return rows.astype(np.float32)


def _screen_slack(dim: int) -> float:
    """How far a row's float32 floor drops so that it keeps the float64 top k.

    A unit query and a gallery row, each rounded to float32 (unit roundoff
    2^-24) and summed over ``dim`` products, score within
    ``(dim + 2) * 2**-24`` of the exact cosine to first order. Per score
    this takes twice that, ``2 * (dim + 2) * 2**-24``, which covers the
    higher-order terms, the rows' ``NORM_TOL`` and the float64 rounding of
    the query's scaling and of the re-score while ``(dim + 2) * 2**-24``
    stays below 1/4 (any dim under four million). Each of the k ids at or
    above the float32 floor then scores at least the floor less one bound,
    and so does every id of the float64 top k, whose float32 score is thus
    at least the floor less twice the bound.
    """
    return 2 * (2 * (dim + 2) * 2.0**-24)


def _pair_scores(queries: np.ndarray, items: np.ndarray, row: np.ndarray, col: np.ndarray):
    """Float64 dot product of ``queries[row[j]]`` and ``items[col[j]]`` for each j.

    Each pair is summed on its own, so its score does not depend on the
    other pairs; the two gathered operands of a chunk hold at most
    ``SCORE_BLOCK`` values.
    """
    out = np.empty(row.size)
    for pairs in _row_blocks(row.size, 2 * items.shape[1]):
        prod = queries.take(row[pairs], axis=0)
        prod *= items.take(col[pairs], axis=0)
        out[pairs] = prod.sum(axis=1)
    return out


def _topk(scores: np.ndarray, k: int) -> np.ndarray:
    """Ids of the ``k`` highest scores of each row, ordered by (-score, id).

    Scores must be finite. ``knn_table`` runs this on float64 scores below
    ``_SCREEN_MIN_ITEMS`` items. From that size on it takes the candidates
    of float32 scores with the floor lowered by twice the bound
    ``2 * (dim + 2) * 2**-24`` (``_screen_slack``), and sorts their float64
    re-scores instead.
    """
    row, col = _floor_candidates(scores, k)
    return _sort_candidates(row, col, scores[row, col], scores.shape[0], k)


def _floor_candidates(scores: np.ndarray, k: int, slack: float = 0.0):
    """(row, col) of each score at or above its row's floor less ``slack``.

    Each row splits into ``m >= k`` groups of ``g`` scores. The k groups
    with the highest maxima each hold a score at or above the k-th highest
    maximum, so every top-k score reaches that floor. Pairs come out row by
    row, each row's in ascending column order.
    """
    b, n = scores.shape
    g = max(1, min(_TOPK_GROUP, n // (4 * k)))
    m = n // g
    group_max = scores[:, : m * g].reshape(b, g, m).max(axis=1)
    floor = np.partition(group_max, m - k, axis=1)[:, m - k].astype(np.float64) - slack
    # Every score at or above a floor is at or above the floor rounded to
    # the scores' dtype: no value of that dtype lies strictly between them.
    cut = floor.astype(scores.dtype)
    return np.divmod(np.flatnonzero(scores >= cut[:, None]), n)


def _sort_candidates(row, col, values, b: int, k: int) -> np.ndarray:
    """The first ``k`` of each row's candidate ids ordered by (-value, id).

    ``row`` and ``col`` come from ``_floor_candidates``; ``values`` holds
    each pair's score.
    """
    counts = np.bincount(row, minlength=b)
    starts = np.cumsum(counts) - counts
    keys = np.full((b, counts.max()), np.inf)
    keys[row, np.arange(row.size) - starts[row]] = -values
    # A stable sort gives equal scores to the lower id, at the k-th place too.
    order = np.argsort(keys, axis=1, kind="stable")[:, :k]
    return col[starts[:, None] + order]


def _min_sq_dist(
    items: np.ndarray, sq_items: np.ndarray, centroids: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Per-row squared distance to the nearest centroid and its index.

    ``sq_items`` holds the rows' squared norms, computed once by the caller.
    """
    # All rows are unit norm but centroids may transiently not be;
    # use the exact expansion instead of 2 - 2*sim.
    sq = sq_items[:, None] - 2.0 * items @ centroids.T + np.sum(centroids**2, axis=1)[None, :]
    assign = np.argmin(sq, axis=1)
    return sq[np.arange(items.shape[0]), assign], assign


def _kmeanspp_seed(items: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    """k-means++ seeding; falls back to uniform picks once all mass is covered."""
    n = items.shape[0]
    chosen = [int(rng.integers(0, n))]
    d2 = np.sum((items - items[chosen[0]]) ** 2, axis=1)
    while len(chosen) < k:
        total = float(d2.sum())
        if total <= EPS_NORM:
            remaining = sorted(set(range(n)) - set(chosen))
            idx = int(rng.choice(remaining))
        else:
            idx = int(rng.choice(n, p=d2 / total))
        chosen.append(idx)
        d2 = np.minimum(d2, np.sum((items - items[idx]) ** 2, axis=1))
    return items[chosen].copy()


def build_centroids(gallery: Gallery, k: int, seed: int) -> CentroidSet:
    """Lloyd's algorithm with k-means++ seeding, deterministic given ``seed``.

    Centroids are re-projected onto the unit sphere after every update so
    their cosine scores stay commensurate with gallery rows; on the sphere
    the normalized cluster mean is the constrained optimum, so the energy
    is non-increasing per iteration (checked). An empty cluster is re-seeded
    with the point farthest from its assigned centroid. Each iteration makes
    one distance pass: the pass that scores the updated centroids is also
    the next iteration's assignment.
    """
    if not 1 <= k <= gallery.size:
        raise InvalidKError(f"k={k} outside [1, {gallery.size}]")
    items = gallery.items
    sq_items = np.sum(items**2, axis=1)
    rng = np.random.default_rng(seed)
    centroids = _kmeanspp_seed(items, k, rng)

    min_d2, assign = _min_sq_dist(items, sq_items, centroids)
    trace = [float(min_d2.sum())]

    for _ in range(_KMEANS_MAX_ITER):
        new_centroids = centroids.copy()
        counts = np.bincount(assign, minlength=k)
        for c in range(k):
            if counts[c] == 0:
                continue
            mean = items[assign == c].mean(axis=0)
            norm = np.linalg.norm(mean)
            if norm > EPS_NORM:
                new_centroids[c] = mean / norm
            # A zero mean (antipodal cluster) keeps the previous centroid.
        empty = np.flatnonzero(counts == 0)
        if empty.size:
            farthest = np.argsort(-min_d2, kind="stable")
            for slot, c in enumerate(empty):
                new_centroids[c] = items[farthest[slot]]
        centroids = new_centroids

        min_d2, assign = _min_sq_dist(items, sq_items, centroids)
        new_energy = float(min_d2.sum())
        if new_energy > trace[-1] + 1e-9:
            raise AssertionError(
                f"k-means energy increased: {trace[-1]} -> {new_energy}"
            )
        improved = trace[-1] - new_energy
        trace.append(new_energy)
        if improved < _KMEANS_TOL:
            break

    return CentroidSet(centroids=centroids, energy=trace[-1], energy_trace=tuple(trace))
