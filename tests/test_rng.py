"""Differential tests of the batched keyed seeding against numpy's own.

`rng.pcg64_states` reproduces `np.random.PCG64(key)` seeding from tabled
SeedSequence hash constants, and a reused generator set to its state must
then draw what `np.random.default_rng(key)` draws. The CI job on the numpy
floor runs these too, so the tables are checked on the old numpy as well.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from commsim.rng import pcg64_states, set_pcg64_state

EDGE_KEYS = [0, 1, 2**32 - 1, 2**32, 2**64 - 1]
# keys of one 32-bit word and of two, with the edges mixed in
keys = st.lists(st.integers(0, 2**32 - 1) | st.integers(0, 2**64 - 1)
                | st.sampled_from(EDGE_KEYS), min_size=1, max_size=40)


def numpy_state(key: int) -> tuple[int, int]:
    state = np.random.PCG64(key).state["state"]
    return state["state"], state["inc"]


def test_pcg64_states_of_edge_keys():
    assert pcg64_states(EDGE_KEYS) == [numpy_state(k) for k in EDGE_KEYS]


def test_pcg64_states_of_no_keys():
    assert pcg64_states([]) == []


@settings(max_examples=200, deadline=None)
@given(keys)
def test_pcg64_states_match_numpy_seeding(batch):
    assert pcg64_states(batch) == [numpy_state(k) for k in batch]


@settings(max_examples=100, deadline=None)
@given(keys, st.floats(0.0, 9.99), st.floats(10.0, 500.0), st.integers(1, 2**40))
def test_reused_generator_draws_as_default_rng(batch, small_lam, large_lam, n):
    """poisson on both of its algorithms (below and at or above lam 10),
    random and integers; a 32-bit `integers` draw leaves half a word
    buffered, which setting the state must drop."""
    reused = np.random.Generator(np.random.PCG64())
    reused.integers(3)
    for key, state in zip(batch, pcg64_states(batch)):
        ours, fresh = set_pcg64_state(reused, *state), np.random.default_rng(key)
        for draw in (lambda g: g.poisson(small_lam), lambda g: g.poisson(large_lam),
                     lambda g: g.random(), lambda g: g.integers(n), lambda g: g.integers(7),
                     lambda g: g.random(3).tolist()):
            assert draw(ours) == draw(fresh)


@pytest.mark.parametrize("key", EDGE_KEYS)
def test_reused_generator_at_edge_keys(key):
    reused = set_pcg64_state(np.random.Generator(np.random.PCG64()), *pcg64_states([key])[0])
    fresh = np.random.default_rng(key)
    assert reused.bit_generator.state == fresh.bit_generator.state
    assert reused.random(4).tolist() == fresh.random(4).tolist()
