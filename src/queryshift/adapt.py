"""Online adaptation engine: affine adapter, gradient decoupling, batch pipeline.

One session owns the mutable state (adapter parameters, source-like queue) and
consumes the query stream strictly in order, one gradient step per batch. The
gallery and its centroids stay frozen. The update gradient is optionally
decoupled against the general direction, the gradient of the KL divergence
between frozen source predictions and current predictions, so adaptation never
opposes what the source model already knows.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import DimMismatchError, DivergenceError, InvalidKError, InvalidSpecError
from .gallery import CentroidSet, Gallery, build_centroids, knn_table
from .losses import (
    ForwardState,
    LossBreakdown,
    _kl_grad,
    _rem_grad,
    affine_normalize,
    forward_state,
    param_grad,
    total_loss_and_grad,
)
from .refine import (
    SourceLikeQueue,
    build_candidate_sets,
    estimate_constraints,
    source_likeness,
    update_queue,
)
from .vectors import softmax_temp

# Every method a run can name: ``rest`` and the baselines of ``run_baseline``.
METHODS = ("rest", "tent", "pl", "none")

# Ranking depth of every batch: the deepest recall cut-off any report reads.
RANK_DEPTH = 10


@dataclass(frozen=True)
class AdapterParams:
    """Per-dimension scale and shift applied to raw queries before normalization."""

    gamma: np.ndarray
    beta: np.ndarray

    @classmethod
    def identity(cls, dim: int) -> "AdapterParams":
        return cls(gamma=np.ones(dim), beta=np.zeros(dim))

    def flat(self) -> np.ndarray:
        return np.concatenate([self.gamma, self.beta])

    @classmethod
    def from_flat(cls, theta: np.ndarray) -> "AdapterParams":
        theta = np.asarray(theta, dtype=np.float64)
        dim = theta.size // 2
        return cls(gamma=theta[:dim].copy(), beta=theta[dim:].copy())

    @property
    def dim(self) -> int:
        return self.gamma.size


@dataclass(frozen=True)
class SessionConfig:
    tau: float = 0.02
    k: int = 10
    batch: int = 64
    lr: float = 1e-3
    decouple: bool = False
    seed: int = 0

    def __post_init__(self):
        # Scores are divided by tau: a subnormal tau is > 0, but 1/tau overflows.
        if not (math.isfinite(self.tau) and self.tau > 0 and math.isfinite(1 / self.tau)):
            raise InvalidSpecError(f"tau and 1/tau must be finite and > 0, got {self.tau}")
        if self.k < 1:
            raise InvalidSpecError(f"k must be >= 1, got {self.k}")
        if self.batch < 1:
            raise InvalidSpecError(f"batch size must be >= 1, got {self.batch}")
        if not (math.isfinite(self.lr) and self.lr > 0):
            raise InvalidSpecError(f"learning rate must be finite and > 0, got {self.lr}")
        if self.seed < 0:
            raise InvalidSpecError(f"seed must be non-negative, got {self.seed}")


@dataclass
class BatchDiagnostics:
    """Per-batch report record; fields without a value for the method are None."""

    step: int
    objective: float | None = None
    d_kl: float | None = None
    w_d: float | None = None
    angle_deg: float | None = None
    active_count: int | None = None
    delta_s: float | None = None
    e_b: float | None = None


@dataclass
class BatchResult:
    """Top rankings and post-step embeddings of one batch.

    ``rankings`` holds, per query, the ``min(RANK_DEPTH, gallery.size)`` most
    similar gallery ids under the post-step parameters, ties to the lower id.
    """

    rankings: np.ndarray
    breakdown: LossBreakdown | None
    diagnostics: BatchDiagnostics
    z: np.ndarray


def forward_adapter(params: AdapterParams, raw: np.ndarray) -> np.ndarray:
    """Adapted, unit-normalized query embeddings for a batch of raw vectors."""
    _, z = affine_normalize(params.gamma, params.beta, raw)
    return z


def kl_general(state: ForwardState, src_probs: np.ndarray) -> tuple[float, np.ndarray]:
    """General direction: (KL of current predictions from frozen source ones,
    its flat parameter gradient).

    ``src_probs`` must share the state's (b, U) candidate supports.
    A KL of exactly 0 means the predictions coincide, the KL's minimum, where
    the direction is exactly zero (the computed gradient would be roundoff).
    """
    val, dz = _kl_grad(state, src_probs)
    return val, (param_grad(state, dz) if val != 0.0 else np.zeros(2 * state.dim))


def decouple(g_d: np.ndarray, g_r: np.ndarray, kl: float) -> tuple[np.ndarray, float]:
    """Refine the task gradient so it never conflicts with the general direction.

    Returns (g_hat, w_d). The component of ``g_d`` parallel to ``g_r`` is kept
    only when it agrees with ``g_r``; the whole update is damped by
    w_d = exp(-kl). With no general direction defined (``g_r`` numerically
    zero) the damped task gradient passes through.
    """
    g_d = np.asarray(g_d, dtype=np.float64)
    g_r = np.asarray(g_r, dtype=np.float64)
    if g_d.shape != g_r.shape:
        raise DimMismatchError(f"gradient shapes differ: {g_d.shape} vs {g_r.shape}")
    w_d = float(np.exp(-max(kl, 0.0)))
    denom = float(np.dot(g_r, g_r))
    dot = float(np.dot(g_d, g_r))
    g_parallel = (dot / denom if denom >= 1e-24 else 0.0) * g_r
    g_perp = g_d - g_parallel
    return w_d * (g_perp + g_parallel if dot >= 0 else g_perp), w_d


def sgd_step(params: AdapterParams, grad: np.ndarray, lr: float) -> AdapterParams:
    """One plain gradient step on the flattened [gamma..., beta...] vector.

    Raises DivergenceError if the stepped parameters are not all finite.
    """
    grad = np.asarray(grad, dtype=np.float64)
    if grad.size != 2 * params.dim:
        raise DimMismatchError(
            f"gradient length {grad.size} does not match 2*dim={2 * params.dim}"
        )
    # An overflow is caught by the finiteness check below.
    with np.errstate(over="ignore"):
        theta = params.flat() - lr * grad
    if not np.all(np.isfinite(theta)):
        raise DivergenceError("adapter parameters are no longer finite")
    return AdapterParams.from_flat(theta)


def _angle_degrees(a: np.ndarray, b: np.ndarray) -> float | None:
    na = float(np.linalg.norm(a))
    nb = float(np.linalg.norm(b))
    if na < 1e-24 or nb < 1e-24:
        return None
    c = float(np.clip(np.dot(a, b) / (na * nb), -1.0, 1.0))
    return math.degrees(math.acos(c))


class AdaptationSession:
    """Owner of the adapter state for one ordered query stream.

    Batches must be fed sequentially; any error raised mid-batch leaves the
    parameters (and queue) exactly as they were before the call. The gallery
    centroids are built by the first batch that builds candidates, so a
    ``none`` run never runs k-means.
    """

    def __init__(self, gallery: Gallery, config: SessionConfig):
        if gallery.size < config.k + 1:
            raise InvalidKError(
                f"gallery of {gallery.size} items cannot serve k={config.k}"
            )
        self.gallery = gallery
        self.config = config
        self.params = AdapterParams.identity(gallery.dim)
        self.source_params = AdapterParams.identity(gallery.dim)
        self.queue = SourceLikeQueue.empty(config.batch, gallery.dim)
        self.step = 0

    @functools.cached_property
    def centroids(self) -> CentroidSet:
        """k-means centroids of the gallery, the cluster negatives of every batch."""
        return build_centroids(self.gallery, self.config.k, self.config.seed)

    # -- public pipeline ----------------------------------------------------

    def adapt_batch(self, raw: np.ndarray) -> BatchResult:
        """Full robust-objective step: refine, estimate, step, re-rank."""
        return self._run_batch(raw, "rest")

    def run_baseline(self, raw: np.ndarray, kind: str) -> BatchResult:
        """Tent- or pseudo-label-style step, or plain ranking with no update."""
        if kind == "rest" or kind not in METHODS:
            raise InvalidSpecError(f"unknown baseline {kind!r}")
        return self._run_batch(raw, kind)

    # -- internals ---------------------------------------------------------

    def _run_batch(self, raw: np.ndarray, method: str) -> BatchResult:
        """Candidates, objective, one step and an exact top-RANK_DEPTH re-rank.

        ``none`` skips everything up to the ranking and keeps the parameters.
        """
        raw = np.asarray(raw, dtype=np.float64)
        diagnostics = BatchDiagnostics(step=self.step)
        params, queue, breakdown = self.params, self.queue, None
        if method != "none":
            z = forward_adapter(params, raw)
            cands = build_candidate_sets(z, self.gallery, self.centroids, self.config.k)
            state = forward_state(params.gamma, params.beta, raw, cands, self.config.tau)
            if method == "rest":
                grad, breakdown, queue = self._rest_gradient(state, diagnostics)
            else:
                if method == "tent":
                    # Tent is the entropy term with no query filtered out.
                    val, dz = _rem_grad(state, np.ones(state.batch_size), state.batch_size)
                else:
                    # Pseudo-labeling is the KL from the one-hot source argmax.
                    labels = np.argmax(self._source_probs(state), axis=1)
                    target = np.zeros_like(state.probs)
                    target[np.arange(state.batch_size), labels] = 1.0
                    val, dz = _kl_grad(state, target)
                grad = param_grad(state, dz)
                diagnostics.objective = val
            params = sgd_step(params, grad, self.config.lr)

        z = forward_adapter(params, raw)
        rankings = knn_table(self.gallery, z, min(RANK_DEPTH, self.gallery.size))

        # Mutate only after the whole pipeline succeeded.
        self.params = params
        self.queue = queue
        self.step += 1
        return BatchResult(rankings=rankings, breakdown=breakdown, diagnostics=diagnostics, z=z)

    def _source_probs(self, state: ForwardState) -> np.ndarray:
        """Source-parameter predictions on the state's candidate supports (probs only).

        At the source point they equal ``state.probs`` bit for bit, so the KL
        and the general direction there are exactly zero.
        """
        src = self.source_params
        _, z_src = affine_normalize(src.gamma, src.beta, state.raw)
        return softmax_temp(np.where(state.mask, z_src @ state.pool.T, -np.inf), state.tau)

    def _rest_gradient(self, state: ForwardState, diagnostics: BatchDiagnostics):
        """Robust-objective update direction, its loss terms and the next queue."""
        positives = state.positives
        scores = source_likeness(state.z, positives, state.z.mean(axis=0), positives.mean(axis=0))
        queue = update_queue(self.queue, state.z, positives, scores, state.entropies)
        constraints = estimate_constraints(queue)

        breakdown, g_d = total_loss_and_grad(state, constraints)
        kl, g_r = kl_general(state, self._source_probs(state))
        g_hat, w_d = decouple(g_d, g_r, kl)

        diagnostics.objective = breakdown.l_total
        diagnostics.d_kl = kl
        diagnostics.w_d = w_d
        diagnostics.angle_deg = _angle_degrees(g_d, g_r)
        diagnostics.active_count = breakdown.active_count
        diagnostics.delta_s = constraints.gap_source
        diagnostics.e_b = constraints.entropy_threshold
        return (g_hat if self.config.decouple else g_d), breakdown, queue
