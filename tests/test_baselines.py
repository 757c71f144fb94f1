from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from commsim.baselines import RewireConfig, rewire_degree_preserving
from commsim.metrics import motif_jsd

from conftest import BASE_MONDAY, make_log, random_log, view

DAY = 86400
HOUR = 3600


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
    val, _ = motif_jsd(view(out, window), view(mini_log, window), 2, 8 * HOUR)
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
