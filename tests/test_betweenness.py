"""The batched betweenness kernel against the per-graph loop it replaced.

`metrics._betweenness_days` must give, for every edge set of a batch, the
`{node: float}` that `oracle_betweenness` gives for it alone, node for node and
bit for bit (`float.hex`). The kernel rests on `np.bincount` adding in array
order, `np.unique`'s first occurrences, `np.minimum.at` and stable argsorts, so
this module needs only numpy and runs on the numpy floor too.
"""

import numpy as np
from hypothesis import example, given, settings, strategies as st

from commsim.metrics import _betweenness_days
from oracle_metrics import oracle_betweenness


def assert_same_floats(edge_sets):
    got = _betweenness_days(edge_sets)
    assert len(got) == len(edge_sets)
    for scores, edges in zip(got, edge_sets):
        want = oracle_betweenness(edges)
        assert list(scores) == list(want)  # nodes in the same (numbering) order
        assert [s.hex() for s in scores.values()] == [s.hex() for s in want.values()]


@st.composite
def day_graphs(draw):
    """A directed simple edge set, self-loop free, over shuffled labels: empty,
    random, disconnected blocks, a bidirected ring (many ties) or a layered
    graph, complete or thinned, with up to width**(levels - 1) shortest paths.
    Nodes without out-edges, and labels no edge touches, occur throughout."""
    shape = draw(st.sampled_from(["empty", "random", "blocks", "ring", "layered"]))
    if shape == "empty":
        return set()
    if shape == "layered":
        width, levels = draw(st.integers(1, 5)), draw(st.integers(2, 45))
        density, seed = draw(st.sampled_from([1.0, 0.8, 0.6])), draw(st.integers(0, 2 ** 16))
        edges = sorted(layered(width, levels, density, seed))
    else:
        n = draw(st.integers(2, 30))
        node = st.integers(0, n - 1)
        edges = draw(st.lists(st.tuples(node, node), max_size=3 * n))
        if shape == "blocks":
            k = draw(st.integers(2, 4))
            edges = [(u, v) for u, v in edges if u * k // n == v * k // n]
        elif shape == "ring":
            m = draw(st.integers(2, n))
            edges += [(v, (v + 1) % m) for v in range(m)] + [((v + 1) % m, v) for v in range(m)]
    labels = draw(st.permutations(range(max((x for e in edges for x in e), default=0) + 1)))
    return {(labels[u], labels[v]) for u, v in draw(st.permutations(edges)) if u != v}


def layered(width: int, levels: int, density: float = 1.0, seed: int = 0) -> set[tuple[int, int]]:
    """Links between consecutive layers of `width` nodes, each kept with
    probability `density`: below 1 the path counts into a node differ, so the
    order of sigma's additions shows once they pass 2**53."""
    keep = np.random.default_rng(seed).random((levels, width, width)) < density
    return {(k * width + i, (k + 1) * width + j)
            for k in range(levels - 1) for i in range(width) for j in range(width)
            if keep[k, i, j]}


@settings(max_examples=300, deadline=None)
@given(st.lists(day_graphs(), min_size=1, max_size=7))
@example([set()])
@example([set(), set()])
@example([{(0, 1)}, set(), {(1, 0), (0, 1)}, {(5, 3)}])
@example([{(0, 1), (1, 2), (2, 0), (3, 4)}])
@example([layered(3, 40), {(0, 2), (2, 0)}])  # 3**39 paths, past 2**53
def test_batched_kernel_equals_oracle(edge_sets):
    assert_same_floats(edge_sets)


def test_path_counts_past_2_53_stay_exact():
    """Layered graphs whose path counts pass 2**53, so that sigma's sums round:
    the batch must round them exactly as the loop does."""
    graphs = [layered(3, 50), layered(2, 70), layered(4, 30)]
    assert 3 ** 49 > 2 ** 53 and 2 ** 69 > 2 ** 53 and 4 ** 29 > 2 ** 53
    graphs += [layered(5, 60, 0.7, seed) for seed in range(4)]
    assert_same_floats(graphs)
    assert_same_floats(graphs[::-1])


def test_random_batches_of_sparse_days():
    """Benchmark-shaped batches: seven sparse days over one registry."""
    rng = np.random.default_rng(5)
    for _ in range(20):
        n = int(rng.integers(20, 120))
        days = [set(zip(rng.integers(0, n, m).tolist(), rng.integers(0, n, m).tolist()))
                for m in rng.integers(0, 2 * n, 7)]
        assert_same_floats([{(u, v) for u, v in day if u != v} for day in days])
