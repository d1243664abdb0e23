"""Synthetic retrieval benchmarks, embedding-space corruptions, probes, metrics.

Benchmarks are class-prototype mixtures on the unit sphere. Corruptions act on
RAW (pre-adapter) query vectors so a well-placed affine adapter can invert a
mean shift and recover a collapsed spread; this keeps end-to-end improvement
achievable by construction. All randomness flows through numpy's PCG64
generator seeded explicitly, so every artifact is bit-reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DimMismatchError,
    EmptyBatchError,
    EmptyGroundTruthError,
    InvalidSpecError,
    MissingQueryError,
)
from .gallery import Gallery
from .vectors import l2_normalize_rows

_CORRUPTION_KINDS = ("gaussian_noise", "mean_shift", "uniformity_collapse", "compose")

# Fixed tag mixed into the per-domain shift-direction seed.
_DIRECTION_TAG = 0x5D1F7


@dataclass(frozen=True)
class SyntheticSpec:
    """Parameters of a class-prototype benchmark."""

    classes: int
    dim: int
    gallery_size: int
    stream_length: int
    sigma_query: float = 0.0
    sigma_gallery: float = 0.0
    seed: int = 0

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


@dataclass(frozen=True)
class CorruptionSpec:
    """One corruption of the raw query stream.

    kinds: gaussian_noise(sigma), mean_shift(delta, domain),
    uniformity_collapse(rho), compose(parts).
    """

    kind: str
    sigma: float = 0.0
    delta: float = 0.0
    rho: float = 0.0
    domain: int = 0
    parts: tuple = field(default=())

    def __post_init__(self):
        if self.kind not in _CORRUPTION_KINDS:
            raise InvalidSpecError(f"unknown corruption kind {self.kind!r}")
        if self.sigma < 0:
            raise InvalidSpecError("sigma must be non-negative")
        if not 0.0 <= self.rho < 1.0:
            raise InvalidSpecError("rho must lie in [0, 1)")
        if self.kind == "compose" and len(self.parts) == 0:
            raise InvalidSpecError("compose needs a non-empty part list")


@dataclass(frozen=True)
class GroundTruth:
    """Relevant gallery ids per query index."""

    relevant: tuple

    def __post_init__(self):
        if any(len(r) == 0 for r in self.relevant):
            raise InvalidSpecError("every query needs at least one relevant id")

    def __len__(self) -> int:
        return len(self.relevant)


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

    by_class = [frozenset(np.flatnonzero(g_classes == c).tolist()) for c in range(spec.classes)]
    truth = GroundTruth(relevant=tuple(by_class[int(c)] for c in q_classes))
    return gallery, stream, truth


def shift_direction(dim: int, domain: int) -> np.ndarray:
    """Stable unit direction for a mean-shift domain; depends only on the id."""
    rng = np.random.default_rng(np.random.SeedSequence([_DIRECTION_TAG, int(domain)]))
    v = rng.standard_normal(dim)
    return v / np.linalg.norm(v)


def apply_corruption(stream: np.ndarray, spec: CorruptionSpec, seed: int) -> np.ndarray:
    """Corrupt a raw query stream; deterministic given (spec, seed)."""
    stream = np.asarray(stream, dtype=np.float64)
    rng = np.random.default_rng(seed)
    return _apply(stream, spec, rng)


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
        return apply_corruption(stream, specs[0], seed)
    rng = np.random.default_rng(seed)
    choice = rng.integers(0, len(specs), stream.shape[0])
    # Corrupt the full stream under each domain, then pick rows; collapse
    # needs the whole-stream center and each domain keeps its own noise draw.
    variants = [_apply(stream, s, np.random.default_rng([seed, d])) for d, s in enumerate(specs)]
    out = np.empty_like(stream)
    for i, d in enumerate(choice):
        out[i] = variants[int(d)][i]
    return out


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

def metric_uniformity(z: np.ndarray) -> float:
    """Mean Euclidean distance of embeddings to their center."""
    z = np.asarray(z, dtype=np.float64)
    if z.ndim != 2 or z.shape[0] == 0:
        raise EmptyBatchError("uniformity metric needs a non-empty batch")
    center = z.mean(axis=0)
    return float(np.linalg.norm(z - center[None, :], axis=1).mean())


def metric_gap(z_q: np.ndarray, z_g: np.ndarray) -> float:
    """Euclidean distance between the query and gallery centers."""
    z_q = np.asarray(z_q, dtype=np.float64)
    z_g = np.asarray(z_g, dtype=np.float64)
    if z_q.shape[1] != z_g.shape[1]:
        raise DimMismatchError("query and gallery batches differ in dim")
    return float(np.linalg.norm(z_q.mean(axis=0) - z_g.mean(axis=0)))


def metric_consistency(z_q: np.ndarray, z_g: np.ndarray, truth: GroundTruth) -> float:
    """Mean cosine similarity over all correctly associated pairs."""
    z_q = np.asarray(z_q, dtype=np.float64)
    z_g = np.asarray(z_g, dtype=np.float64)
    total = 0.0
    count = 0
    for qi, rel in enumerate(truth.relevant):
        for gi in rel:
            total += float(np.dot(z_q[qi], z_g[gi]))
            count += 1
    if count == 0:
        raise EmptyGroundTruthError("no relevance pairs")
    return total / count


def count_hits(rankings: np.ndarray, truth: GroundTruth, k: int) -> int:
    """Number of queries whose top-k ranked ids hit a relevant item."""
    rankings = np.asarray(rankings)
    if rankings.shape[0] < len(truth):
        raise MissingQueryError(
            f"rankings cover {rankings.shape[0]} queries, ground truth has {len(truth)}"
        )
    return sum(
        1
        for qi, rel in enumerate(truth.relevant)
        if any(g in rel for g in rankings[qi, :k].tolist())
    )


def recall_at_k(rankings: np.ndarray, truth: GroundTruth, k: int) -> float:
    """Fraction of queries whose top-k ranked ids hit a relevant item."""
    return count_hits(rankings, truth, k) / len(truth)
