"""Deterministic named RNG sub-streams.

Every random draw in the package flows from a single integer seed through
named sub-streams, so independent components never share or race a stream
and runs reproduce bit-for-bit across platforms (PCG64 is portable).

`pcg64_states` seeds many keyed streams at once. It reproduces numpy's
`np.random.PCG64(key)` seeding exactly: `SeedSequence(key)` (the entropy
mixing of numpy's `bit_generator.pyx`, pool of four 32-bit words, then
`generate_state(4, uint64)`) followed by `pcg64_set_seed`, PCG's
`srandom_r` with its default 128-bit multiplier. The mixing runs once per
step over uint32 arrays of all keys; its hash constants do not depend on
the keys, so they are tabled at import.
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


_SEED_WORDS = 4  # numpy's SeedSequence pool size, in 32-bit words
_MIX_L, _MIX_R = np.uint32(0xca01f9dd), np.uint32(0x4973f715)
_PCG64_MULT = 0x2360ed051fc65da44385df649fccf645
_MASK128 = (1 << 128) - 1


def _hash_constants(init: int, mult: int, n: int) -> np.ndarray:
    """(n, 2) uint32: the constant each of SeedSequence's first n hashes
    xors in, and the one it multiplies by (the next in the sequence)."""
    seq = [init]
    for _ in range(n):
        seq.append(seq[-1] * mult & 0xFFFFFFFF)
    return np.array([seq[:-1], seq[1:]], dtype=np.uint32).T


# mix_entropy hashes the 4 pool words, then one word per (src, dst) pair of
# distinct words; generate_state hashes 8 words, the pool twice round
_POOL_HASH = _hash_constants(0x43b0d7e5, 0x931e8875, _SEED_WORDS * _SEED_WORDS)
_POOL_FILL = _POOL_HASH[:_SEED_WORDS].T[:, :, None]  # xor and mult columns
_POOL_MIX = [(src, dst, xor, mult) for (src, dst), (xor, mult) in zip(
    [(s, d) for s in range(_SEED_WORDS) for d in range(_SEED_WORDS) if s != d],
    _POOL_HASH[_SEED_WORDS:])]
_STATE_HASH = _hash_constants(0x8b51f9dd, 0x58f38ded, 2 * _SEED_WORDS).T[:, :, None]
_STATE_WORDS = list(range(_SEED_WORDS)) * 2


def _hashmix(value: np.ndarray, xor, mult) -> np.ndarray:
    value = (value ^ xor) * mult
    return value ^ (value >> np.uint32(16))


def pcg64_states(keys) -> list[tuple[int, int]]:
    """The (state, inc) of `np.random.PCG64(k)` for each 64-bit key k.
    A key below 2**32 is one entropy word, and SeedSequence hashes a missing
    word as 0, so every key is two words here."""
    k = np.array(keys, dtype=np.uint64)
    words = np.zeros((_SEED_WORDS, len(k)), dtype=np.uint32)
    words[0] = k & np.uint64(0xFFFFFFFF)
    words[1] = k >> np.uint64(32)
    pool = _hashmix(words, *_POOL_FILL)
    for src, dst, xor, mult in _POOL_MIX:
        mixed = _MIX_L * pool[dst] - _MIX_R * _hashmix(pool[src], xor, mult)
        pool[dst] = mixed ^ (mixed >> np.uint32(16))
    state = _hashmix(pool[_STATE_WORDS], *_STATE_HASH).astype(np.uint64)
    # generate_state's four uint64s, each a little-endian pair of words: the
    # seed's high and low halves, then the inc's
    halves = (state[0::2] | state[1::2] << np.uint64(32)).tolist()
    out = []  # srandom_r: inc = seq << 1 | 1; step from state 0, add the seed, step
    for s_hi, s_lo, i_hi, i_lo in zip(*halves):
        inc = ((i_hi << 64 | i_lo) << 1 | 1) & _MASK128
        out.append((((inc + (s_hi << 64 | s_lo)) * _PCG64_MULT + inc) & _MASK128, inc))
    return out


def set_pcg64_state(rng: np.random.Generator, state: int, inc: int) -> np.random.Generator:
    """`rng`, a PCG64 generator, set to draw as a fresh one of that (state, inc)."""
    rng.bit_generator.state = {"bit_generator": "PCG64", "state": {"state": state, "inc": inc},
                               "has_uint32": 0, "uinteger": 0}
    return rng


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
