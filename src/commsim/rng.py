"""Deterministic named RNG sub-streams.

Every random draw in the package flows from a single integer seed through
named sub-streams, so independent components never share or race a stream
and runs reproduce bit-for-bit across platforms (PCG64 is portable).
"""

from __future__ import annotations

import hashlib
import math

import numpy as np


def stream_seed(seed: int, *labels) -> int:
    """Derive a 64-bit child seed from (seed, labels) via SHA-256."""
    key = repr((int(seed),) + tuple(labels)).encode()
    return int.from_bytes(hashlib.sha256(key).digest()[:8], "big")


def substream(seed: int, *labels) -> np.random.Generator:
    """A fresh generator for the named purpose."""
    return np.random.default_rng(stream_seed(seed, *labels))


def uniform_hash(seed: int, *labels) -> float:
    """A single deterministic uniform in [0, 1) keyed by (seed, labels)."""
    return stream_seed(seed, *labels) / 2.0**64


_CHOICE_ATOL = math.sqrt(np.finfo(np.float64).eps)


def choice_cdf(row: np.ndarray, n: int) -> np.ndarray:
    """The CDF that `Generator.choice(n, p=row / row.sum())` builds and
    searches. `cdf.searchsorted(rng.random(), side="right")` then draws the
    same index from the same single uniform as `choice`. Raises ValueError
    where `choice` would: p of the wrong length, negative or non-finite, or
    not summing to 1 within sqrt(float64 eps)."""
    p = row / row.sum()
    if p.shape != (n,) or not (np.all(p >= 0) and abs(p.sum() - 1.0) <= _CHOICE_ATOL):
        raise ValueError("recipient probabilities must be n finite, nonnegative values "
                         "summing to 1")
    cdf = p.cumsum()
    cdf /= cdf[-1]
    return cdf
