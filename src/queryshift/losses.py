"""Adaptation objectives with analytic parameter gradients.

The learnable surface is a per-dimension affine head (scale ``gamma``, shift
``beta``) applied to raw query vectors before L2 normalization. Every loss
here is differentiated exactly through that head: normalization Jacobian,
cosine scores, tempered softmax, entropy, and batch means. Filter weights,
the entropy threshold, the gap constraint, and hard-negative indices are
treated as constants of the step (no gradient flows through them).

A central finite-difference oracle doubles as the verification gate for all
analytic gradients.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    DimMismatchError, DivergenceError, EmptyBatchError, InvalidSpecError, ZeroVectorError
)
from .gallery import Gallery, build_centroids
from .refine import CandidateBatch, build_candidate_sets
from .vectors import (
    EPS_NORM, EPS_PROB, clamped_log, l2_normalize_rows, shannon_entropy, softmax_temp
)


@dataclass(frozen=True)
class LossBreakdown:
    """Per-term values of the robust objective; ``objective`` is their sum."""

    l_u: float
    l_g: float
    l_rem: float
    l_rhm: float
    objective: float
    active_count: int


@dataclass
class ForwardState:
    """Recorded forward pass of one batch through the adapter.

    The candidate pool is a frozen snapshot; re-evaluating a loss at
    perturbed parameters keeps it (and all other discrete choices) fixed.
    Per-candidate arrays are (b, U) over the pool columns: columns outside a
    query's candidates (``mask``) score -inf and have probability exactly 0.
    ``pos`` holds each query's positive column; ``log_probs`` (``clamped_log(probs)``)
    and ``live`` (``probs > EPS_PROB``) are built once per pass for every loss.
    """

    raw: np.ndarray
    gamma: np.ndarray
    beta: np.ndarray
    norms: np.ndarray
    z: np.ndarray
    pool: np.ndarray
    pos: np.ndarray
    mask: np.ndarray
    scores: np.ndarray
    probs: np.ndarray
    log_probs: np.ndarray
    live: np.ndarray
    entropies: np.ndarray
    tau: float

    @property
    def batch_size(self) -> int:
        return self.raw.shape[0]

    @property
    def positives(self) -> np.ndarray:
        """(b, d) embeddings of the queries' positives."""
        return self.pool[self.pos]

    @property
    def dim(self) -> int:
        return self.raw.shape[1]


def affine_normalize(gamma: np.ndarray, beta: np.ndarray, raw: np.ndarray):
    """Apply the affine head and unit-normalize rows.

    Returns (norms, z). Raises ZeroVectorError if any adapted row
    vanishes and DivergenceError if any row norm is not finite (the adapter
    has blown up, and dividing by the norm would give zero rows).
    """
    raw = np.asarray(raw, dtype=np.float64)
    if not np.all(np.isfinite(raw)):
        raise ValueError("raw queries contain non-finite entries")
    # An overflow is caught by the finiteness check below.
    with np.errstate(over="ignore", invalid="ignore"):
        pre = gamma[None, :] * raw + beta[None, :]
        norms = np.linalg.norm(pre, axis=1)
    if not np.all(np.isfinite(norms)):
        raise DivergenceError("adapter output row has a non-finite norm")
    if np.any(norms <= EPS_NORM):
        raise ZeroVectorError("adapter output row has near-zero norm")
    return norms, pre / norms[:, None]


def forward_state(
    gamma: np.ndarray, beta: np.ndarray, raw: np.ndarray, cands: CandidateBatch, tau: float
) -> ForwardState:
    """Run the batch forward pass against a frozen candidate pool.

    All rows are scored by one matmul against the pool and one softmax over
    rows whose non-candidate columns score -inf.
    """
    gamma = np.asarray(gamma, dtype=np.float64)
    beta = np.asarray(beta, dtype=np.float64)
    norms, z = affine_normalize(gamma, beta, raw)
    scores = np.where(cands.mask, z @ cands.embs.T, -np.inf)
    probs = softmax_temp(scores, tau)
    log_probs = clamped_log(probs)
    return ForwardState(
        raw=np.asarray(raw, dtype=np.float64),
        gamma=gamma,
        beta=beta,
        norms=norms,
        z=z,
        pool=cands.embs,
        pos=cands.pos,
        mask=cands.mask,
        scores=scores,
        probs=probs,
        log_probs=log_probs,
        live=probs > EPS_PROB,
        entropies=shannon_entropy(probs, log_probs),
        tau=tau,
    )


def param_grad(state: ForwardState, dz: np.ndarray) -> np.ndarray:
    """Back-propagate a gradient w.r.t. z through normalization to the flat
    [gamma..., beta...] vector.

    The Jacobian of z = u / ||u|| is (I - z z^T) / ||u||, applied exactly.
    """
    proj = dz - state.z * np.sum(state.z * dz, axis=1, keepdims=True)
    du = proj / state.norms[:, None]
    return np.concatenate([np.sum(du * state.raw, axis=0), np.sum(du, axis=0)])


# ---------------------------------------------------------------------------
# Filter weights and analytic gradients w.r.t. z (chained to parameters via
# param_grad)
# ---------------------------------------------------------------------------

def rem_weights(entropies: np.ndarray, e_b: float) -> np.ndarray:
    """Per-query filter weights max(1 - E/E_B, 0)."""
    if not e_b > 0:
        raise InvalidSpecError(f"entropy threshold must be > 0, got {e_b}")
    return np.maximum(1.0 - np.asarray(entropies, dtype=np.float64) / e_b, 0.0)


def _uniformity_grad(z: np.ndarray):
    if z.ndim != 2 or z.shape[0] == 0:
        raise EmptyBatchError("uniformity loss needs a non-empty batch")
    b = z.shape[0]
    center = z.mean(axis=0)
    diff = z - center
    r = np.linalg.norm(diff, axis=1)
    e = np.exp(-r)
    val = float(e.mean())
    # Unit direction of each row from the center; zero at the center itself.
    d = np.zeros_like(z)
    mask = r > EPS_NORM
    d[mask] = diff[mask] / r[mask, None]
    weighted = e[:, None] * d
    dz = -(weighted - weighted.mean(axis=0)[None, :]) / b
    return val, dz


def _gap_grad(z: np.ndarray, pos_mean: np.ndarray, delta_s: float):
    b = z.shape[0]
    gap_vec = z.mean(axis=0) - pos_mean
    delta_t = float(np.linalg.norm(gap_vec))
    val = (delta_t - delta_s) ** 2
    dz = np.zeros_like(z)
    if delta_t > EPS_NORM:
        common = 2.0 * (delta_t - delta_s) * gap_vec / (delta_t * b)
        dz += common[None, :]
    return float(val), dz


def _entropy_score_grads(state: ForwardState) -> np.ndarray:
    """dE_i/ds_i for every query; the probability clamp zeroes dead terms."""
    p = state.probs
    # With h = log p + live, dE/ds = -p (h - <p, h>) / tau.
    h = state.log_probs + state.live
    h -= (p * h).sum(axis=1, keepdims=True)
    h *= p
    h /= -state.tau
    return h


def _rem_grad(state: ForwardState, w: np.ndarray, n_act: int):
    if n_act == 0:
        return 0.0, np.zeros_like(state.z)
    dz = _entropy_score_grads(state) @ state.pool
    return float((w * state.entropies).sum() / n_act), (w / n_act)[:, None] * dz


def _rhm_grad(state: ForwardState, w: np.ndarray, n_act: int, slots: np.ndarray):
    if n_act == 0:
        return 0.0, np.zeros_like(state.z)
    rows = np.arange(state.batch_size)
    # Column 0 is the positive, column 1 the hard negative.
    pair = state.scores[rows[:, None], np.stack([state.pos, slots], axis=1)]
    raw_c = (1.0 + np.clip(pair, -1.0, 1.0)) / 2.0
    c = np.clip(raw_c, EPS_PROB, 1.0)
    h = np.log(c[:, 1]) - np.log(c[:, 0])
    live = (EPS_PROB < raw_c) & (raw_c < 1.0)
    coef = (w / n_act)[:, None] * live / (2.0 * c)
    dz = coef[:, 1:] * state.pool[slots] - coef[:, :1] * state.positives
    return float((w * h).sum() / n_act), dz


def _kl_grad(state: ForwardState, src_probs: np.ndarray):
    """Mean KL from frozen source predictions to current ones, with gradient.

    Where the predictions coincide the KL is exactly 0 and the gradient roundoff.
    A one-hot ``src_probs`` makes it the cross-entropy to those pseudo-labels.
    """
    q = np.asarray(src_probs, dtype=np.float64)
    p = state.probs
    if q.shape != p.shape or np.any(q[~state.mask] != 0.0):
        raise DimMismatchError(
            f"source predictions {q.shape} do not share the candidate supports {p.shape}"
        )
    b = state.batch_size
    terms = clamped_log(q)
    terms -= state.log_probs
    terms *= q
    val = float(terms.sum()) / b
    q_live = q * state.live
    # Source mass on the live columns; non-candidates hold none (checked above).
    ds = p * q_live.sum(axis=1, keepdims=True)
    ds -= q_live
    ds /= b * state.tau
    return val, ds @ state.pool


def hard_negative_slots(state: ForwardState) -> np.ndarray:
    """Pool column of each query's highest-consistency negative, frozen for the step.

    Consistency is the cosine score mapped to [0, 1] and clamped at EPS_PROB;
    ties go to the lowest column.
    """
    negatives = state.mask.copy()
    negatives[np.arange(state.batch_size), state.pos] = False
    if not negatives.any(axis=1).all():
        raise EmptyBatchError("need a positive and at least one negative")
    c = np.clip(state.scores, -1.0, 1.0)
    c += 1.0
    c /= 2.0
    np.clip(c, EPS_PROB, 1.0, out=c)
    c[~negatives] = -np.inf
    return np.argmax(c, axis=1)


def total_loss_and_grad(state: ForwardState, delta_s: float, e_b: float):
    """Robust objective value and its analytic gradient over (gamma, beta).

    The four terms are uniformity, gap (held near the source gap ``delta_s``),
    filtered entropy, and filtered hard mining. Filter weights come from the
    entropy threshold ``e_b``; a non-positive threshold filters everything
    (the consistency terms and their gradients vanish instead of faulting).
    """
    w = rem_weights(state.entropies, e_b) if e_b > 0 else np.zeros(state.batch_size)
    n_act = int(np.count_nonzero(w))
    # A fully filtered batch never asks for hard negatives.
    slots = hard_negative_slots(state) if n_act else None
    values, dz = _robust_terms(state, w, n_act, slots, delta_s)
    breakdown = LossBreakdown(*values, objective=sum(values), active_count=n_act)
    return breakdown, param_grad(state, dz)


def _robust_terms(state: ForwardState, w, n_act: int, slots, delta_s: float):
    """Uniformity, gap, filtered entropy and hard-mining values, and their summed dz."""
    terms = [
        _uniformity_grad(state.z),
        _gap_grad(state.z, state.positives.mean(axis=0), delta_s),
        _rem_grad(state, w, n_act),
        _rhm_grad(state, w, n_act, slots),
    ]
    return [val for val, _ in terms], sum(dz for _, dz in terms)


# ---------------------------------------------------------------------------
# Finite-difference oracle and the gradient verification gate
# ---------------------------------------------------------------------------

def finite_diff_grad(loss_fn, params: np.ndarray) -> np.ndarray:
    """Central-difference gradient, at steps of 1e-5, of a scalar function of a flat vector."""
    h = 1e-5
    params = np.asarray(params, dtype=np.float64)
    grad = np.zeros_like(params)
    for j in range(params.size):
        plus = params.copy()
        minus = params.copy()
        plus[j] += h
        minus[j] -= h
        grad[j] = (loss_fn(plus) - loss_fn(minus)) / (2.0 * h)
    return grad


def _relative_error(analytic: np.ndarray, numeric: np.ndarray) -> float:
    scale = max(
        float(np.max(np.abs(analytic), initial=0.0)),
        float(np.max(np.abs(numeric), initial=0.0)),
        1e-8,
    )
    return float(np.max(np.abs(analytic - numeric), initial=0.0)) / scale


def _gradcheck_instance(seed: int, dim: int, b: int, k: int):
    """Seeded random instance: 48-item gallery, candidates, a generic adapter point, tau 0.5."""
    rng = np.random.default_rng(seed)
    gallery = Gallery(l2_normalize_rows(rng.standard_normal((48, dim))))
    k_eff = min(k, 47)
    cents = build_centroids(gallery, k_eff, seed)
    raw = rng.standard_normal((b, dim))
    gamma = 1.0 + 0.1 * rng.standard_normal(dim)
    beta = 0.1 * rng.standard_normal(dim)

    _, z = affine_normalize(gamma, beta, raw)
    cands = build_candidate_sets(z, gallery, cents, k_eff)
    state = forward_state(gamma, beta, raw, cands, 0.5)
    src_state = forward_state(np.ones(dim), np.zeros(dim), raw, cands, 0.5)

    delta_t = float(np.linalg.norm(state.z.mean(axis=0) - state.positives.mean(axis=0)))
    delta_s = max(0.0, delta_t - 0.3)
    e_b = 1.2 * float(np.median(state.entropies))
    if e_b <= 0:
        e_b = 1e-3
    return state, src_state, cands, raw, delta_s, e_b


def gradient_check(seed: int = 0, dims=(16,), instances: int = 20, b: int = 8, k: int = 4) -> dict:
    """Compare every analytic gradient against central finite differences.

    Each instance is a 48-item gallery scored at tau 0.5, and each numeric
    gradient takes central steps of 1e-5. Returns a report with the max
    relative error per loss target over all seeded instances.
    """
    worst = dict.fromkeys(("uniformity", "gap", "rem", "rhm", "em", "kl", "total"), 0.0)

    for dim in dims:
        for inst in range(instances):
            state, src_state, cands, raw, delta_s, e_b = _gradcheck_instance(
                seed * 10_000 + inst, dim, b, k
            )
            w = rem_weights(state.entropies, e_b)
            n_act = int(np.count_nonzero(w))
            slots = hard_negative_slots(state)

            def total(st):
                values, dz = _robust_terms(st, w, n_act, slots, delta_s)
                return sum(values), dz

            terms = {
                "uniformity": lambda st: _uniformity_grad(st.z),
                "gap": lambda st: _gap_grad(st.z, st.positives.mean(axis=0), delta_s),
                "rem": lambda st: _rem_grad(st, w, n_act),
                "rhm": lambda st: _rhm_grad(st, w, n_act, slots),
                "em": lambda st: _rem_grad(st, np.ones(st.batch_size), st.batch_size),
                "kl": lambda st: _kl_grad(st, src_state.probs),
                "total": total,
            }

            theta0 = np.concatenate([state.gamma, state.beta])
            for term, fn in terms.items():
                ga = param_grad(state, fn(state)[1])

                def value(theta, fn=fn):
                    return fn(forward_state(theta[:dim], theta[dim:], raw, cands, state.tau))[0]

                gn = finite_diff_grad(value, theta0)
                worst[term] = max(worst[term], _relative_error(ga, gn))

    max_err = max(worst.values())
    return {
        "targets": worst,
        "max_relative_error": max_err,
        "tolerance": 1e-4,
        "passed": bool(max_err < 1e-4),
    }
