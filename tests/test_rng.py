"""Differential tests of the batched keyed seeding against numpy's own.

`rng.pcg64_states` reproduces `np.random.PCG64(key)` seeding from tabled
SeedSequence hash constants, and a reused generator set to its state must
then draw what `np.random.default_rng(key)` draws. Its first double must be
that generator's first `random()`, and `rng.poisson_is_zero` must say 0
exactly where numpy's `poisson` draws 0 (`random_poisson_mult`). The CI job
on the numpy floor runs these too, so the tables and the rule are checked
on the old numpy as well.
"""

import math
import struct

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from commsim.rng import (pcg64_states, poisson_is_zero, set_pcg64_state, stream_seed,
                         stream_seeds)

EDGE_KEYS = [0, 1, 2**32 - 1, 2**32, 2**64 - 1]
# keys of one 32-bit word and of two, with the edges mixed in
keys = st.lists(st.integers(0, 2**32 - 1) | st.integers(0, 2**64 - 1)
                | st.sampled_from(EDGE_KEYS), min_size=1, max_size=40)


def numpy_state(key: int) -> tuple[int, int]:
    state = np.random.PCG64(key).state["state"]
    return state["state"], state["inc"]


def seeded(batch) -> list[tuple[int, int]]:
    return [(state, inc) for state, inc, _ in pcg64_states(batch)]


def test_pcg64_states_of_edge_keys():
    assert seeded(EDGE_KEYS) == [numpy_state(k) for k in EDGE_KEYS]


def test_pcg64_states_of_no_keys():
    assert pcg64_states([]) == []


@settings(max_examples=200, deadline=None)
@given(keys)
def test_pcg64_states_match_numpy_seeding(batch):
    assert seeded(batch) == [numpy_state(k) for k in batch]


@settings(max_examples=100, deadline=None)
@given(keys, st.floats(0.0, 9.99), st.floats(10.0, 500.0), st.integers(1, 2**40))
def test_reused_generator_draws_as_default_rng(batch, small_lam, large_lam, n):
    """poisson on both of its algorithms (below and at or above lam 10),
    random and integers; a 32-bit `integers` draw leaves half a word
    buffered, which setting the state must drop."""
    reused = np.random.Generator(np.random.PCG64())
    reused.integers(3)
    for key, state in zip(batch, seeded(batch)):
        ours, fresh = set_pcg64_state(reused, *state), np.random.default_rng(key)
        for draw in (lambda g: g.poisson(small_lam), lambda g: g.poisson(large_lam),
                     lambda g: g.random(), lambda g: g.integers(n), lambda g: g.integers(7),
                     lambda g: g.random(3).tolist()):
            assert draw(ours) == draw(fresh)


@pytest.mark.parametrize("key", EDGE_KEYS)
def test_reused_generator_at_edge_keys(key):
    reused = set_pcg64_state(np.random.Generator(np.random.PCG64()), *seeded([key])[0])
    fresh = np.random.default_rng(key)
    assert reused.bit_generator.state == fresh.bit_generator.state
    assert reused.random(4).tolist() == fresh.random(4).tolist()


# ---------------------------------------------------------------------------
# the first double and the Poisson zero rule


def first_doubles(batch) -> list[float]:
    return [first for _, _, first in pcg64_states(batch)]


def test_first_double_of_edge_keys():
    assert first_doubles(EDGE_KEYS) == [np.random.default_rng(k).random() for k in EDGE_KEYS]


@settings(max_examples=200, deadline=None)
@given(keys)
def test_first_double_matches_default_rng(batch):
    assert first_doubles(batch) == [np.random.default_rng(k).random() for k in batch]


@settings(max_examples=200, deadline=None)
@given(keys, st.floats(0.0, 10.0, exclude_min=True, exclude_max=True))
def test_poisson_is_zero_matches_numpy(batch, lam):
    for key, first in zip(batch, first_doubles(batch)):
        assert poisson_is_zero(first, lam) == (np.random.default_rng(key).poisson(lam) == 0)


def _double(bits: int) -> float:
    return struct.unpack("<d", struct.pack("<q", bits))[0]


def _crossing(first: float) -> tuple[float, float]:
    """Adjacent doubles lo < hi in [0, 10] with exp(-lo) >= first > exp(-hi),
    by bisection over the bits of the nonnegative doubles, which order them."""
    lo, hi = 0, struct.unpack("<q", struct.pack("<d", 10.0))[0]
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if math.exp(-_double(mid)) >= first:
            lo = mid
        else:
            hi = mid
    return _double(lo), _double(hi)


def _around(lam: float, steps: int = 3) -> list[float]:
    """lam and its `steps` neighbouring doubles on each side."""
    out = [lam]
    for toward in (0.0, math.inf):
        x = lam
        for _ in range(steps):
            x = math.nextafter(x, toward)
            out.append(x)
    return out


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2**64 - 1) | st.sampled_from(EDGE_KEYS))
def test_poisson_is_zero_at_the_boundary(key):
    """lam a few ulps either way of -log(first) and of where exp(-lam)
    passes the first double: the rule and numpy flip together."""
    first = first_doubles([key])[0]
    assume(first > math.exp(-10.0))  # else numpy's draw is never 0 below lam 10
    lo, hi = _crossing(first)
    assert poisson_is_zero(first, lo) and not poisson_is_zero(first, hi)
    for lam in _around(-math.log(first)) + _around(lo) + _around(hi):
        if 0.0 < lam < 10.0:
            assert poisson_is_zero(first, lam) == (np.random.default_rng(key).poisson(lam) == 0)


@pytest.mark.parametrize("lam, zero", [(math.nextafter(10.0, 0.0), True), (10.0, False),
                                       (math.nextafter(10.0, math.inf), False), (12.5, False),
                                       (1e6, False)])
def test_poisson_is_zero_declines_at_10_and_above(lam, zero):
    """numpy draws lam >= 10 by another algorithm: no first double says 0."""
    assert poisson_is_zero(0.0, lam) == zero


@settings(max_examples=100, deadline=None)
@given(keys, st.floats(0.0, 10.0, exclude_min=True) | st.floats(10.0, 500.0),
       st.integers(1, 2**40))
def test_declined_stream_draws_as_default_rng(batch, lam, n):
    """Where the rule declines, the generator set to the key's state draws
    `poisson`, `random()` and `integers()` as `default_rng(key)`."""
    reused = np.random.Generator(np.random.PCG64())
    for key, (state, inc, first) in zip(batch, pcg64_states(batch)):
        if poisson_is_zero(first, lam):
            continue
        ours, fresh = set_pcg64_state(reused, state, inc), np.random.default_rng(key)
        for draw in (lambda g: g.poisson(lam), lambda g: g.random(),
                     lambda g: g.integers(n), lambda g: g.integers(7)):
            assert draw(ours) == draw(fresh)


labels = st.integers(-2**70, 2**70) | st.text(max_size=6) | st.floats(allow_nan=False)


@settings(max_examples=100, deadline=None)
@given(st.integers(-2**70, 2**70), labels, st.lists(labels, max_size=6),
       st.lists(labels, max_size=3))
def test_stream_seeds_hash_the_bytes_of_stream_seed(seed, label, batch, rest):
    assert stream_seeds(seed, label, batch, *rest) == [stream_seed(seed, label, k, *rest)
                                                       for k in batch]


def test_stream_seeds_of_numpy_scalars():
    """A numpy scalar's repr is what both hash, whatever it reads."""
    batch = [np.int64(3), 3, np.float64(0.5), np.uint8(7)]
    assert stream_seeds(np.int32(42), "initiate", batch, np.int64(9)) == [
        stream_seed(np.int32(42), "initiate", k, np.int64(9)) for k in batch]
