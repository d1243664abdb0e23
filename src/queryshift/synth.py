"""Synthetic retrieval benchmarks, embedding-space corruptions, probes, metrics.

Benchmarks are class-prototype mixtures on the unit sphere. Corruptions act on
RAW (pre-adapter) query vectors so a well-placed affine adapter can invert a
mean shift and recover a collapsed spread. A stream whose queries each draw
their own domain is no such case: there a least-squares oracle head fit with
the labels scores below identity, so no global affine head can gain. All
randomness flows through numpy's PCG64 generator seeded explicitly, so every
artifact is bit-reproducible.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from .errors import DimMismatchError, EmptyBatchError, InvalidSpecError
from .gallery import Gallery
from .vectors import l2_normalize_rows

# Each corruption kind and the CorruptionSpec fields it reads.
CORRUPTION_FIELDS = {
    "gaussian_noise": ("sigma",),
    "mean_shift": ("delta", "domain"),
    "uniformity_collapse": ("rho",),
    "compose": ("parts",),
}

# Fixed tag mixed into the per-domain shift-direction seed.
_DIRECTION_TAG = 0x5D1F7

# Most values one relevant_sums gather takes (512 KB of float64), so a block
# stays in a core's L2 cache. With gallery.SCORE_BLOCK's 4 MB blocks, sums over
# a 120,002-pair truth took 44 ms against 13 ms (Xeon, 2 MiB L2 per core).
_SUM_BLOCK = 1 << 16

# The first_hits rank of a query none of whose ranked ids is relevant; a miss at every k.
NO_HIT = np.iinfo(np.int64).max


@dataclass(frozen=True)
class SyntheticSpec:
    """Parameters of a class-prototype benchmark and its stream's ``CorruptionSpec``s."""

    classes: int
    dim: int
    gallery_size: int
    stream_length: int
    sigma_query: float = 0.0
    sigma_gallery: float = 0.0
    seed: int = 0
    corruptions: tuple = ()

    def __post_init__(self):
        if self.classes < 2:
            raise InvalidSpecError("need at least 2 classes")
        if self.dim < 2:
            raise InvalidSpecError("need dim >= 2")
        if self.gallery_size < self.classes:
            raise InvalidSpecError("gallery must hold at least one item per class")
        if self.stream_length < 1:
            raise InvalidSpecError("stream must hold at least one query")
        if self.sigma_query < 0 or self.sigma_gallery < 0:
            raise InvalidSpecError("noise levels must be non-negative")
        if self.seed < 0:
            raise InvalidSpecError(f"seed must be non-negative, got {self.seed}")


@dataclass(frozen=True)
class CorruptionSpec:
    """One corruption of the raw query stream; ``CORRUPTION_FIELDS`` names
    the kinds and the fields each reads."""

    kind: str
    sigma: float = 0.0
    delta: float = 0.0
    rho: float = 0.0
    domain: int = 0
    parts: tuple = field(default=())

    def __post_init__(self):
        if self.kind not in CORRUPTION_FIELDS:
            raise InvalidSpecError(f"unknown corruption kind {self.kind!r}")
        if self.sigma < 0:
            raise InvalidSpecError("sigma must be non-negative")
        if not 0.0 <= self.rho < 1.0:
            raise InvalidSpecError("rho must lie in [0, 1)")
        if self.domain < 0:
            raise InvalidSpecError(f"domain must be non-negative, got {self.domain}")
        if self.kind == "compose" and len(self.parts) == 0:
            raise InvalidSpecError("compose needs a non-empty part list")


def _frozen_ids(a) -> np.ndarray:
    out = np.array(a, dtype=np.int64)
    if out.ndim != 1:
        raise InvalidSpecError("ground-truth arrays must be 1-D")
    out.flags.writeable = False
    return out


@dataclass(frozen=True)
class GroundTruth:
    """Relevant gallery ids per query index, stored as CSR arrays.

    Query ``qi`` is relevant to ``indices[indptr[qi]:indptr[qi + 1]]``, a
    non-empty run of sorted, unique gallery ids. Both arrays are read-only
    int64. ``truth[a:b]`` is the ground truth of queries a..b-1.
    """

    indptr: np.ndarray
    indices: np.ndarray

    def __post_init__(self):
        indptr, indices = _frozen_ids(self.indptr), _frozen_ids(self.indices)
        if indptr.size == 0 or indptr[0] != 0 or indptr[-1] != indices.size:
            raise InvalidSpecError("indptr must run from 0 to the number of ids")
        if np.any(np.diff(indptr) < 1):
            raise InvalidSpecError("every query needs at least one relevant id")
        # Ids must rise within each row; a row start may fall back.
        rising = np.diff(indices) > 0
        rising[indptr[1:-1] - 1] = True
        if not rising.all() or indices.min(initial=0) < 0:
            raise InvalidSpecError("each query's ids must be non-negative, sorted and unique")
        object.__setattr__(self, "indptr", indptr)
        object.__setattr__(self, "indices", indices)

    def __len__(self) -> int:
        return self.indptr.size - 1

    def __getitem__(self, rows: slice) -> "GroundTruth":
        start, stop, step = rows.indices(len(self))
        if step != 1:
            raise ValueError("ground truth slices must be contiguous")
        stop = max(start, stop)
        lo, hi = self.indptr[start], self.indptr[stop]
        # Rows of valid truth are valid: skip the checks of __post_init__.
        part = object.__new__(GroundTruth)
        object.__setattr__(part, "indptr", _frozen_ids(self.indptr[start : stop + 1] - lo))
        object.__setattr__(part, "indices", self.indices[lo:hi])
        return part

    @functools.cached_property
    def relevant(self) -> tuple:
        """The relevant ids of each query as a tuple of frozensets."""
        bounds = self.indptr.tolist()
        ids = self.indices.tolist()
        return tuple(frozenset(ids[a:b]) for a, b in zip(bounds[:-1], bounds[1:]))

    def row_ids(self) -> np.ndarray:
        """The query index of every entry of ``indices``."""
        return np.repeat(np.arange(len(self)), np.diff(self.indptr))


def generate_benchmark(spec: SyntheticSpec):
    """Seeded gallery, raw query stream, and ground truth.

    Class prototypes are uniform on the unit sphere; gallery item i belongs
    to class i mod C. Queries are raw (pre-adapter) prototype-plus-noise
    vectors, each relevant to every gallery item of its class.
    """
    rng = np.random.default_rng(spec.seed)
    protos = l2_normalize_rows(rng.standard_normal((spec.classes, spec.dim)))

    g_classes = np.arange(spec.gallery_size) % spec.classes
    g_raw = protos[g_classes] + spec.sigma_gallery * rng.standard_normal(
        (spec.gallery_size, spec.dim)
    )
    gallery = Gallery(l2_normalize_rows(g_raw))

    q_classes = rng.integers(0, spec.classes, spec.stream_length)
    stream = protos[q_classes] + spec.sigma_query * rng.standard_normal(
        (spec.stream_length, spec.dim)
    )

    # Each query's ids are its class's run of the class-sorted gallery ids.
    members = np.argsort(g_classes, kind="stable")
    sizes = np.bincount(g_classes)
    lengths = sizes[q_classes]
    indptr = np.concatenate(([0], np.cumsum(lengths)))
    starts = (np.cumsum(sizes) - sizes)[q_classes]
    runs = np.repeat(starts - indptr[:-1], lengths) + np.arange(indptr[-1])
    truth = GroundTruth(indptr=indptr, indices=members[runs])
    return gallery, stream, truth


def shift_direction(dim: int, domain: int) -> np.ndarray:
    """Stable unit direction for a mean-shift domain; depends only on the id."""
    rng = np.random.default_rng(np.random.SeedSequence([_DIRECTION_TAG, int(domain)]))
    v = rng.standard_normal(dim)
    return v / np.linalg.norm(v)


def _apply(stream: np.ndarray, spec: CorruptionSpec, rng: np.random.Generator) -> np.ndarray:
    if spec.kind == "gaussian_noise":
        return stream + spec.sigma * rng.standard_normal(stream.shape)
    if spec.kind == "mean_shift":
        v = shift_direction(stream.shape[1], spec.domain)
        return stream + spec.delta * v[None, :]
    if spec.kind == "uniformity_collapse":
        center = stream.mean(axis=0)
        return stream + spec.rho * (center[None, :] - stream)
    out = stream
    for part in spec.parts:
        out = _apply(out, part, rng)
    return out


def corrupt_stream(stream: np.ndarray, specs, seed: int) -> np.ndarray:
    """Apply one corruption uniformly, or sample one per query when several
    domains are given (the diverse-shift protocol)."""
    stream = np.asarray(stream, dtype=np.float64)
    specs = list(specs)
    if not specs:
        return stream.copy()
    if len(specs) == 1:
        return _apply(stream, specs[0], np.random.default_rng(seed))
    rng = np.random.default_rng(seed)
    choice = rng.integers(0, len(specs), stream.shape[0])
    # Corrupt the full stream under each domain, then pick rows; collapse
    # needs the whole-stream center and each domain keeps its own noise draw.
    variants = np.stack(
        [_apply(stream, s, np.random.default_rng([seed, d])) for d, s in enumerate(specs)]
    )
    return variants[choice, np.arange(stream.shape[0])]


def scale_queries(z: np.ndarray, lam_scale: float) -> np.ndarray:
    """Spread (or shrink) embeddings about their center, then re-normalize.

    lam_scale == 1.0 is an exact identity on normalized input.
    """
    if not lam_scale > 0:
        raise InvalidSpecError(f"scale factor must be > 0, got {lam_scale}")
    z = np.asarray(z, dtype=np.float64)
    if lam_scale == 1.0:
        return z.copy()
    center = z.mean(axis=0)
    moved = center[None, :] + lam_scale * (z - center[None, :])
    return l2_normalize_rows(moved)


def offset_queries(z: np.ndarray, gallery_mean: np.ndarray, lam_offset: float) -> np.ndarray:
    """Shift embeddings toward closing the query-gallery gap, then re-normalize.

    lam_offset == 0.0 (and a zero gap) are exact identities.
    """
    z = np.asarray(z, dtype=np.float64)
    gallery_mean = np.asarray(gallery_mean, dtype=np.float64)
    if z.shape[1] != gallery_mean.shape[0]:
        raise DimMismatchError("gallery mean does not match query dim")
    if lam_offset == 0.0:
        return z.copy()
    gap_vec = z.mean(axis=0) - gallery_mean
    if not np.any(gap_vec):
        return z.copy()
    return l2_normalize_rows(z - lam_offset * gap_vec[None, :])


# ---------------------------------------------------------------------------
# Diagnostic metrics
# ---------------------------------------------------------------------------

def metric_uniformity(z: np.ndarray, center: np.ndarray, rows: int) -> float:
    """The part of ``z``'s rows in the mean Euclidean distance of ``rows``
    embeddings to their ``center``: their distances' sum over ``rows``.

    Summed over row blocks of all the embeddings, it is that mean.
    """
    z = np.asarray(z, dtype=np.float64)
    if z.ndim != 2 or z.shape[0] == 0:
        raise EmptyBatchError("uniformity metric needs a non-empty batch")
    return float(np.linalg.norm(z - center[None, :], axis=1).sum() / rows)


def metric_gap(center: np.ndarray, g_center: np.ndarray) -> float:
    """Euclidean distance between the query ``center`` and the gallery center
    ``g_center`` (``Gallery.center``)."""
    center = np.asarray(center, dtype=np.float64)
    g_center = np.asarray(g_center, dtype=np.float64)
    if center.ndim != 1 or g_center.shape != center.shape:
        raise DimMismatchError("query and gallery centers must be vectors of one dim")
    return float(np.linalg.norm(center - g_center))


def relevant_sums(z_g: np.ndarray, truth: GroundTruth) -> tuple[np.ndarray, np.ndarray]:
    """``(sets, slot)``: the float64 sums of the distinct relevant sets of
    ``truth``'s queries over the rows of ``z_g``, and each query's row of
    ``sets``, so that ``sets[slot]`` is the sum of each query's relevant rows.

    A set is a run of sorted, unique ids, so two sets are equal exactly when
    their bytes are: each distinct byte run gets a slot, in order of its
    first query. The distinct sets are gathered once, in blocks of whole sets
    of at most ``_SUM_BLOCK`` values; a set with more pairs than that is
    gathered alone. Each set's rows are summed in order, so its sum does not
    depend on which sets share its block: ``sets[slot]`` over ``truth[a:b]``
    is rows a..b-1 of ``sets[slot]`` over ``truth``, bit for bit.
    """
    z_g = np.asarray(z_g, dtype=np.float64)
    indptr, ids = truth.indptr, truth.indices
    raw, cuts = ids.tobytes(), (indptr * ids.itemsize).tolist()
    index: dict = {}
    slot = np.array([index.setdefault(raw[a:b], len(index)) for a, b in zip(cuts[:-1], cuts[1:])],
                    dtype=np.int64)
    # The id bytes and their cuts grow with the truth; the gather needs neither.
    del raw, cuts, index
    own = np.zeros(len(truth), dtype=bool)
    own[np.unique(slot, return_index=True)[1]] = True
    counts = np.diff(indptr)
    sub_ptr = np.concatenate(([0], np.cumsum(counts[own])))
    sub_ids = ids[np.repeat(own, counts)]

    step = max(1, _SUM_BLOCK // z_g.shape[1])
    sets = np.empty((sub_ptr.size - 1, z_g.shape[1]))
    first = 0
    while first < len(sets):
        # The whole sets whose pairs fit in one block from ``first``'s first pair.
        fit = int(np.searchsorted(sub_ptr, sub_ptr[first] + step, side="right")) - 1
        last = max(first + 1, fit)
        lo, hi = sub_ptr[first], sub_ptr[last]
        rows = z_g.take(sub_ids[lo:hi], axis=0)
        sets[first:last] = np.add.reduceat(rows, sub_ptr[first:last] - lo, axis=0)
        first = last
    return sets, slot


def metric_consistency(z_q: np.ndarray, sums: np.ndarray, pairs: int) -> float:
    """The part of ``z_q``'s rows in the mean cosine similarity over ``pairs``
    correctly associated pairs: ``vdot(z_q, sums) / pairs``, where ``sums``
    holds the relevant-row sums of ``z_q``'s queries (``relevant_sums``), in
    the shape of ``z_q``.

    Summed over row blocks of all the queries, with all their pairs, it is
    that mean.
    """
    if pairs < 1:
        raise EmptyBatchError("no relevance pairs")
    z_q = np.asarray(z_q, dtype=np.float64)
    if np.shape(sums) != z_q.shape:
        raise DimMismatchError(f"sums of shape {np.shape(sums)} do not match queries {z_q.shape}")
    return float(np.vdot(z_q, sums)) / pairs


def first_hits(rankings: np.ndarray, truth: GroundTruth) -> np.ndarray:
    """Per query, the rank of the first relevant id in its ranking row, or ``NO_HIT``.

    Rows past the ground truth's queries and negative ids are ignored. Each
    (query, id) pair is the key ``query * span + id``; the ground truth's
    keys are sorted, so one ``searchsorted`` finds every hit.
    """
    rankings = np.asarray(rankings)
    n = len(truth)
    if rankings.shape[0] < n:
        raise DimMismatchError(f"rankings cover {rankings.shape[0]} queries, ground truth has {n}")
    top = rankings[:n]
    span = max(int(truth.indices.max(initial=0)), int(top.max(initial=0))) + 1
    keys = truth.row_ids() * span + truth.indices
    want = np.arange(n)[:, None] * span + top
    found = keys[np.searchsorted(keys, want).clip(max=keys.size - 1)] == want
    found &= top >= 0
    return np.where(found, np.arange(top.shape[1]), NO_HIT).min(axis=1, initial=NO_HIT)


def recall_at_k(rankings: np.ndarray, truth: GroundTruth, k: int) -> float:
    """Fraction of queries whose top-k ranked ids hit a relevant item."""
    return recall_of_hits(first_hits(rankings, truth), k)


def recall_of_hits(hits: np.ndarray, k: int) -> float:
    """Fraction of queries whose first hit (``first_hits``) ranks within the top k."""
    return int(np.count_nonzero(hits < k)) / hits.size
