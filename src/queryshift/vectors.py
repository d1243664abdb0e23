"""Dense-vector primitives shared by every module.

All functions are pure, operate on float64 numpy arrays, and hold no state;
they are safe to call concurrently.
"""

from __future__ import annotations

import numpy as np

from .errors import DivergenceError, InvalidSpecError, ZeroVectorError

# Norm below which a vector counts as zero.
EPS_NORM = 1e-12
# Probabilities are clamped here before any log; low temperatures produce
# underflow-scale entries.
EPS_PROB = 1e-12


def l2_normalize_rows(a: np.ndarray) -> np.ndarray:
    """Row-wise unit normalization of a 2-D array.

    Raises DivergenceError on a non-finite row norm (a non-finite entry, or
    an overflow: dividing by it would give a zero row).
    """
    a = np.asarray(a, dtype=np.float64)
    # An overflow is caught by the finiteness check below.
    with np.errstate(over="ignore"):
        norms = np.linalg.norm(a, axis=1)
    if not np.all(np.isfinite(norms)):
        raise DivergenceError("a row has a non-finite norm")
    if np.any(norms <= EPS_NORM):
        raise ZeroVectorError("batch contains a row with near-zero norm")
    return a / norms[:, None]


def softmax_temp(scores: np.ndarray, tau: float) -> np.ndarray:
    """Temperature softmax over the last axis, with max-subtraction for stability."""
    if not tau > 0:
        raise InvalidSpecError(f"temperature must be > 0, got {tau}")
    e = np.asarray(scores, dtype=np.float64) / tau  # a copy; the rest runs in place
    # At a tiny tau the shift of the lowest scores can overflow to -inf,
    # whose exp is the exact 0 it stands for.
    with np.errstate(over="ignore"):
        e -= e.max(axis=-1, keepdims=True)
    np.exp(e, out=e)
    e /= e.sum(axis=-1, keepdims=True)
    return e


def clamped_log(p: np.ndarray) -> np.ndarray:
    """Natural log with the input clamped below at EPS_PROB."""
    return np.log(np.maximum(p, EPS_PROB))


def shannon_entropy(p: np.ndarray, log_p: np.ndarray | None = None) -> np.ndarray:
    """Natural-log entropy over the last axis; zero-probability terms contribute zero.

    ``log_p`` is ``clamped_log(p)`` when the caller already holds it.
    """
    p = np.asarray(p, dtype=np.float64)
    log_p = clamped_log(p) if log_p is None else log_p
    return -(p * log_p).sum(axis=-1)
