"""Immutable gallery store with exact k-NN search and spherical k-means centroids.

The gallery is fixed for the lifetime of an adaptation session; only query
embeddings move. Both structures are safe to share across threads once built.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimMismatchError, InvalidKError
from .vectors import EPS_NORM

# Tolerance on the unit-norm invariant of stored rows.
NORM_TOL = 1e-6

# Max Lloyd iterations and the energy-improvement stopping threshold.
_KMEANS_MAX_ITER = 100
_KMEANS_TOL = 1e-6


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


@dataclass(frozen=True)
class NeighborList:
    """Top-k gallery ids for one query, similarities non-increasing."""

    ids: np.ndarray
    similarities: np.ndarray


def knn(gallery: Gallery, query: np.ndarray, k: int) -> NeighborList:
    """Exact top-k gallery rows by cosine similarity: one row of knn_table()."""
    query = np.asarray(query, dtype=np.float64)
    if query.shape != (gallery.dim,):
        raise DimMismatchError(
            f"query shape {query.shape} does not match gallery dim {gallery.dim}"
        )
    ids = knn_table(gallery, query[None, :], k)[0]
    return NeighborList(ids=ids, similarities=gallery.items[ids] @ query)


def knn_table(gallery: Gallery, queries: np.ndarray, k: int) -> np.ndarray:
    """Batched top-k ids, one row per query, by cosine similarity.

    Ties are broken toward the lower gallery id. ``k = gallery.size`` gives
    the full ranking.
    """
    queries = np.asarray(queries, dtype=np.float64)
    if queries.ndim != 2 or queries.shape[1] != gallery.dim:
        raise DimMismatchError("query batch does not match gallery dim")
    if not 1 <= k <= gallery.size:
        raise InvalidKError(f"k={k} outside [1, {gallery.size}]")
    sims = queries @ gallery.items.T
    # Stable argsort on -sims keeps lower ids first among equal similarities.
    return np.argsort(-sims, axis=1, kind="stable")[:, :k].astype(np.int64, copy=False)


def _min_sq_dist(items: np.ndarray, centroids: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-row squared distance to the nearest centroid and its index."""
    # All rows are unit norm but centroids may transiently not be;
    # use the exact expansion instead of 2 - 2*sim.
    sq = (
        np.sum(items**2, axis=1)[:, None]
        - 2.0 * items @ centroids.T
        + np.sum(centroids**2, axis=1)[None, :]
    )
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
    with the point farthest from its assigned centroid.
    """
    if not 1 <= k <= gallery.size:
        raise InvalidKError(f"k={k} outside [1, {gallery.size}]")
    items = gallery.items
    rng = np.random.default_rng(seed)
    centroids = _kmeanspp_seed(items, k, rng)

    min_d2, _ = _min_sq_dist(items, centroids)
    energy = float(min_d2.sum())
    trace = [energy]

    for _ in range(_KMEANS_MAX_ITER):
        min_d2, assign = _min_sq_dist(items, centroids)
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

        min_d2, _ = _min_sq_dist(items, centroids)
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
