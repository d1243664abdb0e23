"""Ground-truth rows read through the CSR slices tests compare against."""

import itertools

import numpy as np

from queryshift.synth import GroundTruth


def csr_rows(truth):
    """Each query's relevant ids, ascending, read through one-row CSR slices."""
    return [truth[q : q + 1].indices.tolist() for q in range(len(truth))]


def from_sets(relevant):
    """Ground truth from one iterable of gallery ids per query."""
    rows = [sorted(set(r)) for r in relevant]
    indptr = np.cumsum([0] + [len(r) for r in rows])
    return GroundTruth(indptr=indptr, indices=list(itertools.chain.from_iterable(rows)))
