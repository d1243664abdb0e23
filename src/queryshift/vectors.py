"""Dense-vector primitives shared by every module.

All functions are pure, operate on float64 numpy arrays, and hold no state;
they are safe to call concurrently.
"""

from __future__ import annotations

import numpy as np

from .errors import NonPositiveTemperatureError, ZeroVectorError

# Norm below which a vector counts as zero.
EPS_NORM = 1e-12
# Probabilities are clamped here before any log; low temperatures produce
# underflow-scale entries.
EPS_PROB = 1e-12


def l2_normalize_rows(a: np.ndarray) -> np.ndarray:
    """Row-wise unit normalization of a 2-D array."""
    a = np.asarray(a, dtype=np.float64)
    norms = np.linalg.norm(a, axis=1)
    if np.any(norms <= EPS_NORM):
        raise ZeroVectorError("batch contains a row with near-zero norm")
    return a / norms[:, None]


def softmax_temp(scores: np.ndarray, tau: float) -> np.ndarray:
    """Temperature softmax with max-subtraction for numerical stability."""
    if not tau > 0:
        raise NonPositiveTemperatureError(f"temperature must be > 0, got {tau}")
    s = np.asarray(scores, dtype=np.float64) / tau
    s = s - s.max()
    e = np.exp(s)
    return e / e.sum()


def clamped_log(p: np.ndarray) -> np.ndarray:
    """Natural log with the input clamped below at EPS_PROB."""
    return np.log(np.maximum(p, EPS_PROB))


def shannon_entropy(p: np.ndarray) -> float:
    """Natural-log entropy; zero-probability terms contribute zero."""
    p = np.asarray(p, dtype=np.float64)
    return float(-(p * clamped_log(p)).sum())
