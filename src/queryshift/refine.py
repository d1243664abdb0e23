"""Per-query candidate refinement, source-like pair queue, and constraint estimates.

A query's prediction is taken over a pruned candidate list instead of the whole
gallery: its own 1-NN as the positive, the other batch members' top-k neighbors
as sample negatives, and the gallery centroids as cluster negatives. A batch's
lists are held as one shared candidate pool with a per-query mask. Pairs that
look source-domain-like feed a queue from which the gap and entropy-threshold
constraints are estimated.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .errors import DimMismatchError, EmptyBatchError, InvalidKError
from .gallery import CentroidSet, Gallery, knn_table

# Centroids numerically equal to the positive are dropped from the negatives.
_CENTROID_COLLISION_TOL = 1e-9


@dataclass(frozen=True)
class CandidateSet:
    """Pruned candidate list for one query.

    Slot 0 of ``candidate_embeddings`` is always the positive (the query's
    1-NN in the gallery). ``negative_ids`` mirrors slots 1..m-1: gallery ids
    are >= 0 and centroid j is encoded as -(j + 1).
    """

    query_index: int
    positive_id: int
    negative_ids: tuple
    candidate_embeddings: np.ndarray

    def __len__(self) -> int:
        return self.candidate_embeddings.shape[0]


@dataclass(frozen=True)
class CandidateBatch(Sequence):
    """Candidate lists of a batch as one shared pool of U candidates.

    ``ids`` (U,) are the gallery ids the batch's k-NN table holds, ascending,
    then centroid j as -(j + 1); ``embs`` (U, d) are their embeddings.
    ``mask`` (b, U) is True on query i's candidates and ``pos`` (b,) is the
    column of its positive. Item ``i`` is query i's ``CandidateSet``, its
    negatives in pool order.
    """

    ids: np.ndarray
    embs: np.ndarray
    pos: np.ndarray
    mask: np.ndarray

    def __len__(self) -> int:
        return self.mask.shape[0]

    def __getitem__(self, i: int) -> CandidateSet:
        i = range(len(self))[i]
        cols = np.flatnonzero(self.mask[i])
        cols = np.concatenate([[self.pos[i]], cols[cols != self.pos[i]]])
        ids = self.ids[cols].tolist()
        return CandidateSet(i, ids[0], tuple(ids[1:]), self.embs[cols])


@dataclass(frozen=True)
class SourceLikeQueue:
    """At most ``capacity`` query/positive pairs, rows sorted ascending by score.

    Ties on equal scores resolve toward the earlier-inserted pair; entropy
    values are frozen at enqueue time and never recomputed.
    """

    capacity: int
    query_embs: np.ndarray
    positive_embs: np.ndarray
    scores: np.ndarray
    entropies: np.ndarray

    @classmethod
    def empty(cls, capacity: int, dim: int) -> "SourceLikeQueue":
        return cls(capacity, np.empty((0, dim)), np.empty((0, dim)), np.empty(0), np.empty(0))

    def __len__(self) -> int:
        return self.scores.size


def build_candidate_sets(
    batch_z: np.ndarray, gallery: Gallery, centroids: CentroidSet, k: int
) -> CandidateBatch:
    """Candidate pool of a batch of unit-norm embeddings.

    Query i's negatives are every gallery id another row of the batch's k-NN
    table holds, and every centroid, except its positive.
    """
    batch_z = np.asarray(batch_z, dtype=np.float64)
    if batch_z.ndim != 2:
        raise DimMismatchError("query batch must be a 2-D array")
    if batch_z.shape[0] < 1:
        raise EmptyBatchError("query batch must hold at least one row")
    if k < 1:
        raise InvalidKError(f"k must be >= 1, got {k}")
    table = knn_table(gallery, batch_z, k)
    gids, inv = np.unique(table, return_inverse=True)
    # numpy 1.x returns the inverse flat.
    inv = inv.reshape(table.shape)
    rows = np.arange(table.shape[0])
    holds = np.zeros((rows.size, gids.size), dtype=bool)
    holds[rows[:, None], inv] = True
    # Another row holds an id when its row count exceeds row i's own hold.
    sampled = holds.sum(axis=0) > holds
    pos = inv[:, 0]
    sampled[rows, pos] = True

    cents = centroids.centroids
    collide = (
        np.linalg.norm(cents[None, :, :] - gallery.items[gids[pos]][:, None, :], axis=2)
        <= _CENTROID_COLLISION_TOL
    )
    return CandidateBatch(
        ids=np.concatenate([gids, -1 - np.arange(centroids.k)]),
        embs=np.vstack([gallery.items[gids], cents]),
        pos=pos,
        mask=np.hstack([sampled, ~collide]),
    )


def source_likeness(
    q: np.ndarray, pos: np.ndarray, q_center: np.ndarray, g_center: np.ndarray
) -> np.ndarray:
    """Scores of query/positive pairs (rows of ``q`` and ``pos``); smaller is more source-like.

    Twice the pair distance minus the distances of each member to its batch
    center: tight pairs far from the centers score lowest.
    """
    q, pos, q_center, g_center = (
        np.asarray(a, dtype=np.float64) for a in (q, pos, q_center, g_center)
    )
    if not (q.shape == pos.shape and q.shape[-1:] == q_center.shape == g_center.shape):
        raise DimMismatchError("pairs and centers must share one dimension")
    return 2.0 * np.linalg.norm(q - pos, axis=-1) - (
        np.linalg.norm(q - q_center, axis=-1) + np.linalg.norm(pos - g_center, axis=-1)
    )


def update_queue(
    queue: SourceLikeQueue,
    query_embs: np.ndarray,
    positive_embs: np.ndarray,
    scores: np.ndarray,
    entropies: np.ndarray,
) -> SourceLikeQueue:
    """Merge a batch of pairs and keep the ``capacity`` smallest-score ones.

    Membership is the global best-by-score over everything seen so far, not
    FIFO. Held rows precede the new ones and equal scores among them are in
    insertion order, so a stable sort on score is the sort on (score,
    insertion order). Returns a new queue; the input is never mutated.
    """
    keep = np.argsort(np.concatenate([queue.scores, scores]), kind="stable")[: queue.capacity]

    def merged(held, new):
        return np.concatenate([held, np.asarray(new, dtype=np.float64)])[keep]

    return SourceLikeQueue(
        capacity=queue.capacity,
        query_embs=merged(queue.query_embs, query_embs),
        positive_embs=merged(queue.positive_embs, positive_embs),
        scores=merged(queue.scores, scores),
        entropies=merged(queue.entropies, entropies),
    )


def estimate_constraints(queue: SourceLikeQueue) -> tuple[float, float]:
    """``(delta_s, e_b)``: the gap between the queue-side means and the max stored entropy."""
    if len(queue) == 0:
        raise EmptyBatchError("cannot estimate constraints from an empty queue")
    gap = queue.query_embs.mean(axis=0) - queue.positive_embs.mean(axis=0)
    return float(np.linalg.norm(gap)), float(queue.entropies.max())
