"""Ground-truth rows read through the CSR slices tests compare against."""


def csr_rows(truth):
    """Each query's relevant ids, ascending, read through one-row CSR slices."""
    return [truth[q : q + 1].indices.tolist() for q in range(len(truth))]
