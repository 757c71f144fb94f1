from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from commsim.baselines import (DEFAULT_SWAPS_PER_EDGE, RewireConfig, _swap_heads,
                               rewire_degree_preserving)
from commsim.rng import substream

from conftest import BASE_MONDAY, make_log, random_log, run_metric, view

DAY = 86400


def scalar_swap_heads(tails, heads, n_swaps, rng):
    """The swap loop before batched draws: two scalar draws per swap."""
    m = len(heads)
    for _ in range(n_swaps):
        i = int(rng.integers(m))
        j = int(rng.integers(m))
        if i == j:
            continue
        if tails[i] == heads[j] or tails[j] == heads[i]:
            continue  # would create a self-loop
        heads[i], heads[j] = heads[j], heads[i]


def degree_multisets(edges):
    out_deg, in_deg = Counter(), Counter()
    for u, v, _ in edges:
        out_deg[u] += 1
        in_deg[v] += 1
    return out_deg, in_deg


def test_single_edge_unchanged(mini_log):
    log = make_log([(0, 1, BASE_MONDAY + 100)])
    out = rewire_degree_preserving(log, (BASE_MONDAY, BASE_MONDAY + DAY),
                                   RewireConfig(seed=3))
    assert out.edges() == [(0, 1, BASE_MONDAY + 100)]


def test_too_few_edges():
    log = make_log([], n_agents=2)
    with pytest.raises(ValueError):
        rewire_degree_preserving(log, (0, 100), RewireConfig(seed=1))


@pytest.mark.parametrize("seed", range(5))
def test_degrees_and_timestamps_preserved(mini_log, seed):
    window = (BASE_MONDAY, BASE_MONDAY + 12 * DAY)
    out = rewire_degree_preserving(mini_log, window, RewireConfig(seed=seed))
    orig_edges = mini_log.edges()
    new_edges = out.edges()
    assert len(new_edges) == len(orig_edges)
    # oracle recount of per-node degree multisets
    assert degree_multisets(new_edges) == degree_multisets(orig_edges)
    assert Counter(t for _, _, t in new_edges) == Counter(t for _, _, t in orig_edges)
    assert all(u != v for u, v, _ in new_edges)
    assert out.events == tuple(sorted(out.events, key=lambda e: (e.ts, e.event_id)))


def test_deterministic_per_seed(mini_log):
    window = (BASE_MONDAY, BASE_MONDAY + 12 * DAY)
    a = rewire_degree_preserving(mini_log, window, RewireConfig(seed=9))
    b = rewire_degree_preserving(mini_log, window, RewireConfig(seed=9))
    c = rewire_degree_preserving(mini_log, window, RewireConfig(seed=10))
    assert a == b
    assert a != c


def test_structure_destroyed(mini_log):
    window = (BASE_MONDAY, BASE_MONDAY + 12 * DAY)
    out = rewire_degree_preserving(mini_log, window, RewireConfig(seed=1))
    edge_multiset = Counter((u, v) for u, v, _ in out.edges())
    orig_multiset = Counter((u, v) for u, v, _ in mini_log.edges())
    assert edge_multiset != orig_multiset
    val, _ = run_metric("2eg_8h", view(out, window), view(mini_log, window))
    assert val > 0.0


@given(st.integers(0, 2**31 - 1),
       st.lists(st.tuples(st.integers(0, 6), st.integers(0, 6), st.integers(0, 86400)),
                min_size=2, max_size=40))
@settings(max_examples=30, deadline=None)
def test_rewire_preserves_degrees_property(seed, records):
    records = [(s, (r,), BASE_MONDAY + t) for s, r, t in records if s != r]
    if len(records) < 2:
        return
    log = make_log(records, n_agents=7)
    out = rewire_degree_preserving(log, (BASE_MONDAY, BASE_MONDAY + DAY + 1),
                                   RewireConfig(seed=seed))
    assert degree_multisets(out.edges()) == degree_multisets(log.edges())
    assert Counter(t for _, _, t in out.edges()) == \
        Counter(t for _, _, t in log.edges())
    assert all(u != v for u, v, _ in out.edges())


def test_zero_swaps_only_shuffles_timestamps():
    rng = np.random.default_rng(44)
    log = random_log(rng, n_agents=6, n_events=40, t0=BASE_MONDAY, span=2 * DAY)
    out = rewire_degree_preserving(log, (BASE_MONDAY, BASE_MONDAY + 2 * DAY),
                                   RewireConfig(n_swaps=0, seed=2))
    assert Counter((u, v) for u, v, _ in out.edges()) == \
        Counter((u, v) for u, v, _ in log.edges())
    assert Counter(t for _, _, t in out.edges()) == \
        Counter(t for _, _, t in log.edges())


@given(st.integers(0, 2**31 - 1), st.integers(2, 5000), st.integers(2, 30), st.data())
@settings(max_examples=25, deadline=None)
def test_batched_swap_draws_match_scalar_draws(seed, m, n_nodes, data):
    """Batched draws swap exactly as one scalar draw per index did and leave
    the generator in the same state, so rng.permutation sees the same stream."""
    n_swaps = data.draw(st.one_of(
        st.sampled_from([0, 1, DEFAULT_SWAPS_PER_EDGE * m]),
        st.integers(1, 3 * m).filter(lambda k: k % m)))  # not a whole number of batches
    draw = np.random.default_rng(seed)
    tails = draw.integers(n_nodes, size=m).tolist()
    heads = ((np.array(tails) + 1 + draw.integers(n_nodes - 1, size=m)) % n_nodes).tolist()
    rng, twin = substream(seed, "rewire"), substream(seed, "rewire")
    batched, scalar = list(heads), list(heads)
    _swap_heads(tails, batched, n_swaps, rng)
    scalar_swap_heads(tails, scalar, n_swaps, twin)
    assert batched == scalar
    assert rng.bit_generator.state == twin.bit_generator.state
