"""Calibration block: a fixed piece of work that measures the machine's speed.

The machine the benchmark was built on is a shared KVM guest whose
single-thread speed changes by up to about 1.6x, from one tenth of a second
to the next and for minutes at a time, with no steal time to show for it
(see README.md). Each vCPU changes on its own, so only work run in the same
process, right next to the measured work, sees the same speed.

How much a slow spell slows code depends on the code: interpreter work
slows most, sorting and matrix products over a large gallery less. So a
block mirrors the program's own mix at the workload's gallery size:
interpreter work on ints and a set, a small matrix product against a
random gallery of that size and a row-wise argsort of the scores.
``speed(seconds)`` turns the time one block took into a factor: a time
measured next to it, multiplied by the factor, reads as on a machine where
a block takes ``NOMINAL_S[gallery_size]``.
"""

from __future__ import annotations

import functools

import numpy as np

DIM = 32
ROWS = 4
LOOP = 12000
# Small galleries repeat the product and sort up to about this many items.
SORT_ITEMS = 8192

# Seconds one block takes on the reference machine, the 2.0 GHz Xeon KVM
# guest of README.md in its fast state, by gallery size. Constants, so that
# factors, and the times scaled by them, compare across runs and commits.
NOMINAL_S = {256: 2.3e-3, 512: 2.6e-3, 4096: 1.7e-3, 20000: 4.0e-3}


@functools.lru_cache(maxsize=None)
def _arrays(gallery_size: int):
    rng = np.random.default_rng(0)
    return rng.standard_normal((ROWS, DIM)), rng.standard_normal((gallery_size, DIM))


def nominal_s(gallery_size: int) -> float:
    if gallery_size not in NOMINAL_S:
        raise ValueError(f"no reference time for a calibration block of size {gallery_size}")
    return NOMINAL_S[gallery_size]


def block(gallery_size: int) -> None:
    """Run one calibration block; the caller times it."""
    a, g = _arrays(gallery_size)
    seen = set()
    for i in range(LOOP):
        seen.add((i * 7919) % 1021)
    for _ in range(max(1, SORT_ITEMS // gallery_size)):
        np.argsort(-(a @ g.T), axis=1)


def speed(seconds, gallery_size: int) -> np.ndarray:
    """Factor that scales a time measured at this speed to the reference."""
    return nominal_s(gallery_size) / np.asarray(seconds, dtype=np.float64)
