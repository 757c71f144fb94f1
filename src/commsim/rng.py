"""Deterministic named RNG sub-streams.

Every random draw in the package flows from a single integer seed through
named sub-streams, so independent components never share or race a stream
and runs reproduce bit-for-bit across platforms (PCG64 is portable).

`pcg64_states` seeds many keyed streams at once. It reproduces these
numpy rules exactly:

* `np.random.PCG64(key)` seeding: `SeedSequence(key)` (the entropy mixing
  of numpy's `bit_generator.pyx`, pool of four 32-bit words, then
  `generate_state(4, uint64)`) followed by `pcg64_set_seed`, PCG's
  `srandom_r` with its default 128-bit multiplier. The mixing runs over
  uint32 arrays of all keys, one numpy step per source word (the three
  words a source mixes into read it unchanged); its hash constants do not
  depend on the keys, so they are tabled at import.
* PCG64's first double, what `default_rng(key).random()` returns:
  `(next64 >> 11) * 2**-53`, where next64 is the XSL-RR output (the high
  and low halves xored, rotated right by the top 6 bits) of the state one
  LCG step after seeding.
* The zero of `Generator.poisson(lam)` for 0 <= lam < 10, numpy's
  `random_poisson_mult`: it multiplies uniforms until the product is at
  most exp(-lam), so it returns 0 exactly when the first double is.
  `poisson_is_zero` tells that from the first double alone, so a keyed
  stream whose draw is 0 needs no generator.
"""

from __future__ import annotations

import hashlib
import math

import numpy as np


def stream_seed(seed: int, *labels) -> int:
    """Derive a 64-bit child seed from (seed, labels) via SHA-256."""
    key = repr((int(seed),) + tuple(labels)).encode()
    return int.from_bytes(hashlib.sha256(key).digest()[:8], "big")


def stream_seeds(seed: int, label, keys, *labels) -> list[int]:
    """`stream_seed(seed, label, k, *labels)` for each k in `keys`, the same
    bytes hashed: the repr around each k is formatted once."""
    head = f"({int(seed)!r}, {label!r}, "
    tail = "".join(f", {x!r}" for x in labels) + ")"
    sha256 = hashlib.sha256
    return [int.from_bytes(sha256(f"{head}{k!r}{tail}".encode()).digest()[:8], "big")
            for k in keys]


def substream(seed: int, *labels) -> np.random.Generator:
    """A fresh generator for the named purpose."""
    return np.random.default_rng(stream_seed(seed, *labels))


_SEED_WORDS = 4  # numpy's SeedSequence pool size, in 32-bit words
_MIX_L, _MIX_R = np.uint32(0xca01f9dd), np.uint32(0x4973f715)
_PCG64_MULT = 0x2360ed051fc65da44385df649fccf645
_MASK128 = (1 << 128) - 1
_MASK64 = (1 << 64) - 1
_DOUBLE_UNIT = 2.0**-53  # a 53-bit integer to a double in [0, 1)


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
# one step per source word: its three destinations, and their hash constants
# as (3, 1) xor and mult columns, in numpy's order
_POOL_MIX = [(src, [d for d in range(_SEED_WORDS) if d != src],
              *_POOL_HASH[_SEED_WORDS + 3 * src:_SEED_WORDS + 3 * src + 3].T[:, :, None])
             for src in range(_SEED_WORDS)]
_STATE_HASH = _hash_constants(0x8b51f9dd, 0x58f38ded, 2 * _SEED_WORDS).T[:, :, None]
_STATE_WORDS = list(range(_SEED_WORDS)) * 2


def _hashmix(value: np.ndarray, xor, mult) -> np.ndarray:
    value = (value ^ xor) * mult
    return value ^ (value >> np.uint32(16))


def pcg64_states(keys) -> list[tuple[int, int, float]]:
    """The (state, inc) of `np.random.PCG64(k)` for each 64-bit key k, and
    the first double its generator draws. A key below 2**32 is one entropy
    word, and SeedSequence hashes a missing word as 0, so every key is two
    words here."""
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
        seeded = ((inc + (s_hi << 64 | s_lo)) * _PCG64_MULT + inc) & _MASK128
        # next64: step, then XSL-RR; a double is its top 53 bits
        nxt = (seeded * _PCG64_MULT + inc) & _MASK128
        x = (nxt >> 64 ^ nxt) & _MASK64
        rot = nxt >> 122
        out.append((seeded, inc, (((x >> rot | x << 64 - rot) & _MASK64) >> 11) * _DOUBLE_UNIT))
    return out


def poisson_is_zero(first: float, lam: float) -> bool:
    """Whether `Generator.poisson(lam)` on a fresh generator whose first
    double is `first` returns 0 by numpy's `random_poisson_mult`, which
    draws it for 0 < lam < 10 (lam 0 is 0 without a draw). False outside
    [0, 10), where the draw must be made: numpy then runs another algorithm,
    or raises."""
    return 0.0 <= lam < 10.0 and first <= math.exp(-lam)


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


class RecipientDraw:
    """Draws a sender's recipient from its row of a weight table as
    `Generator.choice(n, p=row / row.sum())` does: the row's `choice_cdf`,
    built the first time the sender draws, searched with one `rng.random()`.
    A row without a positive sum draws a uniform other agent with one
    `rng.integers(n - 1)`, or None, drawing nothing, when there is none."""

    def __init__(self, weights: np.ndarray, n: int):
        self.weights, self.n = weights, n
        self._cdfs: dict[int, np.ndarray | None] = {}

    def uniform(self, sender: int) -> bool:
        """Whether the sender's draws are uniform over the other agents."""
        if sender not in self._cdfs:
            row = self.weights[sender]
            self._cdfs[sender] = choice_cdf(row, self.n) if row.sum() > 0 else None
        return self._cdfs[sender] is None

    def __call__(self, rng: np.random.Generator, sender: int) -> int | None:
        if not self.uniform(sender):
            return int(self._cdfs[sender].searchsorted(rng.random(), side="right"))
        if self.n < 2:
            return None
        other = int(rng.integers(self.n - 1))
        return other + (other >= sender)
