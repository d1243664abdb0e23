"""Output checker, run after the timed intervals.

The oracle is independent of the program: it reads the generated EMB1 files
itself, applies the captured post-step adapter parameters with its own
normalization, and ranks the whole gallery with a lexsort on (-score, id),
which is the tie rule (equal scores go to the lower gallery id) spelled out.
It checks the per-batch rankings and, through the report's ``initial`` and
``final`` recall, the program's two whole-stream rankings.
"""

from __future__ import annotations

import numpy as np

from workloads import RECALL_KS, TOP, gallery_class, read_emb1


class Oracle:
    def __init__(self, gallery_path, queries_path, batch: int):
        g = read_emb1(gallery_path)
        self.gallery = g / np.sqrt(np.einsum("ij,ij->i", g, g))[:, None]
        self.queries = read_emb1(queries_path)
        self.batch = batch
        self._memo: dict = {}

    def top(self, batch_index: int, gamma: np.ndarray, beta: np.ndarray) -> np.ndarray:
        """Top-10 gallery ids of one batch ranked under (gamma, beta)."""
        key = (batch_index, gamma.tobytes(), beta.tobytes())
        if key not in self._memo:
            start = batch_index * self.batch
            raw = self.queries[start : start + self.batch]
            pre = raw * gamma[None, :] + beta[None, :]
            z = pre / np.sqrt(np.einsum("ij,ij->i", pre, pre))[:, None]
            scores = z @ self.gallery.T
            ids = np.broadcast_to(np.arange(scores.shape[1]), scores.shape)
            self._memo[key] = np.lexsort((ids, -scores), axis=1)[:, :TOP]
        return self._memo[key]

    def stream_top(self, gamma: np.ndarray, beta: np.ndarray) -> np.ndarray:
        """Top-10 of every query of the stream ranked under one (gamma, beta)."""
        batches = -(-self.queries.shape[0] // self.batch)
        return np.concatenate([self.top(i, gamma, beta) for i in range(batches)])


def failed_batches(oracle: Oracle, top, batch_rows, gamma, beta, expected: int) -> int:
    """Batches whose top-10 differs from the oracle, plus batches never returned."""
    failed = max(expected - len(batch_rows), 0)
    offset = 0
    for i, rows in enumerate(batch_rows[:expected]):
        got = top[offset : offset + rows]
        offset += rows
        want = oracle.top(i, gamma[i], beta[i])
        if got.shape != want.shape or not np.array_equal(got, want):
            failed += 1
    return failed


def recount_recall(top: np.ndarray, query_class: np.ndarray) -> dict:
    """Recall@k recounted from captured top-10 ids and the query classes."""
    hit = gallery_class(top) == query_class[:, None]
    return {str(k): int(hit[:, :k].any(axis=1).sum()) / len(query_class) for k in RECALL_KS}


def recall_matches(report: dict, top: np.ndarray, query_class: np.ndarray) -> bool:
    if top.shape[0] != len(query_class):
        return False
    return report.get("recall") == recount_recall(top, query_class)


def stream_recall_matches(oracle: Oracle, report: dict, gamma, beta, query_class) -> bool:
    """The report's whole-stream recall, before and after adaptation, recounted.

    ``initial`` ranks the raw stream under identity parameters and ``final``
    under the parameters left after the last batch (``gamma``, ``beta``).
    """
    d = oracle.queries.shape[1]
    want = {
        "initial": recount_recall(oracle.stream_top(np.ones(d), np.zeros(d)), query_class),
        "final": recount_recall(oracle.stream_top(gamma, beta), query_class),
    }
    return all(report.get(part, {}).get("recall") == rec for part, rec in want.items())


def comparable(report: dict) -> dict:
    """A report without the fields that may differ between identical runs."""
    return {k: v for k, v in report.items() if k != "wall_clock_seconds"}
