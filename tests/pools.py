"""Candidate pools built from explicit per-query candidate lists."""

import numpy as np

from queryshift.refine import CandidateBatch


def pool_of(lists):
    """Block-diagonal ``CandidateBatch`` of per-query (m_i, d) candidate arrays.

    Query i's candidates are the rows of ``lists[i]``, its positive first, in
    columns that no other query shares; pool ids are the column numbers.
    """
    sizes = np.array([len(c) for c in lists])
    ends = np.cumsum(sizes)
    cols = np.arange(ends[-1])
    return CandidateBatch(
        ids=cols,
        embs=np.vstack(lists),
        pos=ends - sizes,
        mask=(cols >= (ends - sizes)[:, None]) & (cols < ends[:, None]),
    )
