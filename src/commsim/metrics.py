"""Fidelity metric suite for simulated vs ground-truth event logs.

Fifteen metrics in four categories:

  temporal_rhythms:  r24, hod, wknd_drop, burst
  temporal_dynamics: 2eg_2h, 2eg_8h, 3eg_24h, 3eg_48h
  global_topology:   degdist, trans, globeff, recip
  local_topology:    topo_ovlp, degcen, betwcen

All are lower-is-better divergences/errors except the two centrality
Jaccard scores (degcen, betwcen), which are higher-is-better.

Daily graphs are bucketed by UTC midnight; directed simple graphs drop
multi-edges and self-loops; undirected collapses additionally drop
direction. Node sets always include the full registry, so isolated
agents count (degree 0, disconnected pairs contribute 0 to efficiency).

Each metric is one row of `SUITE`, name -> (part, comparison). A part reads
only one log's `LogView`, its non-trigger subnetwork within the window, built
by `log_view` from the log's columns and edge stream (`EventLog.edge_rows`,
self-loop-free) without any derived log: the rhythm parts read the kept
events' `ts` (and `burst` their renumbered `senders`), the censuses the kept
int64 edge columns u, v, t (log order) and `n_agents`, and the daily-topology
parts each UTC day's directed simple edge set and `n_agents`. The comparison
turns the sim and gt parts into the value and its flags. `summarize` computes
every part of one log once into a `LogSummary`, and `evaluate_all` is
`compare(summarize(sim, ...), summarize(gt, ...))`. A log keeps its latest
summary: `summarize` returns it again for the same trigger set and an equal
window, so `evaluate_all` calls that score several rollouts against one
ground-truth log summarize it once. A summary is thus shared by every caller,
and its `parts` are read-only. Rows may share a part:
the temporal-dynamics metrics come from one census call per arity. Both
arities count over one array enumeration of the node-sharing edge pairs
within the largest delta (`_later_pairs`); arity 3 adds, per pair, a count
of the middle edges on one endpoint pair between two times.

Every per-graph statistic is a kernel(edge_set, n_nodes) of a directed simple
edge set over range(n_nodes), except betweenness, which takes all of a view's
days at once. `daily_topology_series` maps a kernel over a view's days;
`corpus_stats`, the corpus-level summary behind `commsim stats`, applies them
to the whole log's graph. Three kernels use only the standard library and
numpy and return, bit for bit, what NetworkX 3.6 returns (the tests keep
NetworkX as their oracle), so reports do not depend on the installed graph library:

  _transitivity: 6 x triangles and 2 x connected triples are exact Python
      integers, so their ratio is the one correctly rounded float.
  _global_efficiency: a bit-parallel BFS from all sources at once gives
      each source's count of nodes at each distance k; NetworkX adds the
      equal terms 1/k one at a time, sources ascending and each BFS level
      in turn, and np.cumsum adds the same sequence in the same order.
  _betweenness_days: Brandes (2001) for every source of all of a view's day
      graphs at once, one BFS level at a time in numpy. Nodes are numbered
      and successors listed as NetworkX's DiGraph stores each day's edge
      set; first appearances among each level's candidates give the BFS
      order, and bincounts over edges sorted into the loop's order add every
      path count, dependency and score as NetworkX adds them.

`burst` compares two burstiness samples with `sample_emd`, the exact 1-D
Wasserstein distance as the integral of the CDF difference. It repeats SciPy
1.17's `wasserstein_distance` operation for operation and returns the same
float. The tests keep the SciPy call as its oracle (`oracle_sample_emd`), so
the package needs only numpy at run time.
"""

from __future__ import annotations

import csv
import io
import json
import math
from collections.abc import Mapping
from dataclasses import asdict, dataclass
from types import MappingProxyType

import numpy as np

from . import timeutil
from .corpus import (CorpusError, Event, EventLog, _unchecked, lag24_weekday_autocorr,
                     node_burstiness)

MOTIF2_CLASSES = ("reciprocal", "repeated", "out_star", "in_star",
                  "chain_forward", "chain_backward")
MOTIF3_CLASSES = ("dyad_alternation", "dyad_burst_reply", "feed_forward_closure",
                  "three_cycle", "broadcast_cross_link")

CATEGORY_OF = {name: category for category, names in (
    ("temporal_rhythms", ("r24", "hod", "wknd_drop", "burst")),
    ("temporal_dynamics", ("2eg_2h", "2eg_8h", "3eg_24h", "3eg_48h")),
    ("global_topology", ("degdist", "trans", "globeff", "recip")),
    ("local_topology", ("topo_ovlp", "degcen", "betwcen")),
) for name in names}
HIGHER_IS_BETTER = frozenset({"degcen", "betwcen"})
METRIC_NAMES = tuple(CATEGORY_OF)


class MetricError(ValueError):
    """Metric preconditions violated."""


# ---------------------------------------------------------------------------
# distance primitives


def _as_dist(h) -> np.ndarray:
    bins = np.asarray(h, dtype=float)
    total = bins.sum()
    if total <= 0:
        raise MetricError("cannot normalize an all-zero histogram")
    return bins / total


def emd_1d(p, q) -> float:
    """Earth Mover's Distance between two same-length histograms with unit
    ground distance between adjacent bins: sum of |CDF differences|."""
    pd, qd = _as_dist(p), _as_dist(q)
    if len(pd) != len(qd):
        raise MetricError(f"bin count mismatch: {len(pd)} vs {len(qd)}")
    return float(np.abs(np.cumsum(pd - qd)).sum())


def jsd(p, q) -> float:
    """Jensen-Shannon divergence, base 2, in [0, 1]."""
    pd, qd = _as_dist(p), _as_dist(q)
    if len(pd) != len(qd):
        raise MetricError(f"support mismatch: {len(pd)} vs {len(qd)}")
    m = 0.5 * (pd + qd)

    def kl(a, b):
        mask = a > 0
        return float(np.sum(a[mask] * np.log2(a[mask] / b[mask])))

    return 0.5 * kl(pd, m) + 0.5 * kl(qd, m)


# numpy's vecdot where it has one (numpy >= 2), else sum(x * y): the choice
# SciPy's np_vecdot makes, so sample_emd adds its products in the same order
_vecdot = getattr(np, "vecdot", lambda x, y: np.sum(x * y))


def sample_emd(xs, ys) -> float:
    """Exact 1-D Wasserstein distance between two empirical samples: the
    integral of |F_xs - F_ys| over the merged sorted sample (Ramdas, García
    Trillos & Cuturi 2015), computed op for op as SciPy 1.17's
    `wasserstein_distance` computes it, so the value is the same float."""
    xs, ys = np.asarray(xs, dtype=float), np.asarray(ys, dtype=float)
    if len(xs) == 0 or len(ys) == 0:
        raise MetricError("empty sample")
    merged = np.concatenate((xs, ys))
    merged.sort(kind="mergesort")
    deltas = np.diff(merged)
    xs_cdf = xs[np.argsort(xs)].searchsorted(merged[:-1], "right") / xs.size
    ys_cdf = ys[np.argsort(ys)].searchsorted(merged[:-1], "right") / ys.size
    return float(_vecdot(np.abs(xs_cdf - ys_cdf), deltas))


# ---------------------------------------------------------------------------
# temporal rhythm parts


def _rho_diff(s, g) -> tuple[float, list[str]]:
    """|rho_sim - rho_gt| of two (rho, degenerate) lag-24 weekday
    autocorrelations; a degenerate series has rho = 0 and is flagged."""
    flags = [f"{name}: degenerate hourly series, rho set to 0"
             for name, (_, deg) in (("sim", s), ("gt", g)) if deg]
    return abs(s[0] - g[0]), flags


def hod_histogram(ts: np.ndarray) -> np.ndarray:
    """24-bin hour-of-day histogram of event times; two are compared by
    linear, not circular, bin distance."""
    return np.bincount(timeutil.hour_of_day(ts), minlength=24).astype(float)


def weekend_weekday_ratio(ts: np.ndarray, window: tuple[int, int]) -> float:
    """Mean events per weekend day over mean events per weekday of the
    window, from the event times in it."""
    t0, t1 = window
    d0, d1 = timeutil.day_index(t0), timeutil.day_index(t1 - 1)
    days = np.arange(d0, d1 + 1)
    wknd_days = int(np.sum(timeutil.is_weekend(days * timeutil.SECONDS_PER_DAY)))
    wkdy_days = len(days) - wknd_days
    wknd_events = int(np.sum(timeutil.is_weekend(ts)))
    wkdy_events = len(ts) - wknd_events
    mu_wknd = wknd_events / wknd_days if wknd_days else 0.0
    mu_wkdy = wkdy_events / wkdy_days if wkdy_days else 0.0
    if mu_wkdy == 0:
        if mu_wknd == 0:
            return 0.0
        raise MetricError("no weekday activity; weekend ratio undefined")
    return mu_wknd / mu_wkdy


def burstiness_sample(view: LogView) -> list[float]:
    """Node-level burstiness values; two are compared by sample EMD."""
    values = list(node_burstiness(view).values())
    if not values:
        raise MetricError("no node with enough events for burstiness")
    return values


# ---------------------------------------------------------------------------
# the per-log view


@dataclass(frozen=True)
class LogView:
    """What every metric's part reads of one log's non-trigger subnetwork in
    one window: the window, the count of non-trigger agents (numbered
    0..n_agents-1 in registry order), the kept events' int64 `ts` and
    renumbered `senders`, the int64 columns u, v, t of their self-loop-free
    edge stream in log order, and each UTC day's directed simple edge set."""

    window: tuple[int, int]
    n_agents: int
    ts: np.ndarray
    senders: np.ndarray
    u: np.ndarray
    v: np.ndarray
    t: np.ndarray
    days: dict[int, set[tuple[int, int]]] | None  # None: empty window

    def daily(self) -> dict[int, set[tuple[int, int]]]:
        if self.days is None:
            raise MetricError("empty window")
        return self.days


def log_view(log: EventLog, window: tuple[int, int], triggers=()) -> LogView:
    """The view of `log`'s events in the window that no trigger agent sends or
    receives, from the log's columns: one `span`, one trigger mask, and the
    other agents renumbered in order (a trigger outside the registry is
    ignored)."""
    t0, t1 = window
    if t0 > t1:
        raise CorpusError(f"window start {t0} after end {t1}")
    n = log.n_agents
    is_trigger = np.isin(np.arange(n), list(triggers))
    span = log.span(t0, t1)
    ts, senders = log.ts[span], log.senders[span]
    lo, hi = np.searchsorted(log.edge_rows, (span.start, span.stop))
    rows, heads = log.edge_rows[lo:hi] - span.start, log.edge_heads[lo:hi]
    dropped = is_trigger[senders]
    dropped[rows[is_trigger[heads]]] = True
    renumber = np.cumsum(~is_trigger) - 1
    edge = ~dropped[rows]
    u, v, t = renumber[senders[rows[edge]]], renumber[heads[edge]], ts[rows[edge]]
    days = daily_edge_sets(u, v, t, window) if t1 > t0 else None
    return LogView(window, n - int(is_trigger.sum()), ts[~dropped],
                   renumber[senders[~dropped]], u, v, t, days)


def daily_edge_sets(u, v, t, window: tuple[int, int]) -> dict[int, set[tuple[int, int]]]:
    """Directed simple edges per UTC day bucket of a nonempty window, from
    the window's time-sorted edge columns. Each day's set is filled in edge
    order, which fixes its iteration order (`_betweenness_days` numbers nodes
    by it)."""
    t0, t1 = window
    d0, d1 = timeutil.day_index(t0), timeutil.day_index(t1 - 1)
    cuts = np.searchsorted(t, np.arange(d0 + 1, d1 + 1) * timeutil.SECONDS_PER_DAY).tolist()
    pairs = list(zip(u.tolist(), v.tolist()))
    return {d: set(pairs[lo:hi])
            for d, lo, hi in zip(range(d0, d1 + 1), [0] + cuts, cuts + [len(pairs)])}


# ---------------------------------------------------------------------------
# temporal motifs


@dataclass(frozen=True)
class MotifCensus:
    counts: dict[str, int]  # in class order
    delta: int

    def as_array(self) -> np.ndarray:
        return np.array(list(self.counts.values()), dtype=float)


def _check_deltas(deltas) -> None:
    if not deltas or any(a >= b for a, b in zip(deltas, deltas[1:])):
        raise MetricError(f"motif deltas must be nonempty and strictly ascending: {deltas}")


def _censuses(classes, deltas, span, cls, weight=1) -> tuple[MotifCensus, ...]:
    """One census per delta from each found motif's span t_last - t1, class
    index and multiplicity. Band k holds the spans in (deltas[k-1], deltas[k]],
    and the census at deltas[k] sums bands 0..k."""
    counts = np.zeros(len(deltas) * len(classes), dtype=np.int64)
    np.add.at(counts, np.searchsorted(deltas, span) * len(classes) + cls, weight)
    sums = counts.reshape(len(deltas), len(classes)).cumsum(axis=0)
    return tuple(MotifCensus(dict(zip(classes, map(int, row))), delta)
                 for row, delta in zip(sums, deltas))


def _time_rank(t: np.ndarray) -> np.ndarray:
    """Index of the first edge at each edge's time: a rank below len(t) that
    orders and ties as the sorted times do."""
    return np.searchsorted(t, t)


def _later_pairs(view: LogView, horizon: int) -> tuple[np.ndarray, np.ndarray]:
    """Every ordered pair (i, j) of edge indices, each once, in which e_j
    touches an endpoint of e_i and t_i < t_j <= t_i + horizon.

    Each edge has an incidence at either endpoint. Sorted by (node, time),
    the incidences list each node's edges in time order, so the later edges
    e_i meets at one endpoint are one run, bounded by two searchsorted calls,
    and np.repeat expands the runs. An e_j joining the same two nodes as e_i
    is in both endpoints' runs; it is kept from u_i's and dropped from v_i's."""
    u, v, t = view.u, view.v, view.t
    m = len(t)
    rank = _time_rank(t)
    edge = np.tile(np.arange(m), 2)
    base = np.concatenate([u, v]) * (m + 1)  # one key block per node: a run's bound may be m
    key = base + rank[edge]
    order = np.argsort(key)
    key = key[order]
    lo = np.searchsorted(key, base + np.searchsorted(t, t, "right")[edge])
    hi = np.searchsorted(key, base + np.searchsorted(t, t + horizon, "right")[edge])
    runs = hi - lo
    starts = np.cumsum(runs) - runs
    i = np.repeat(edge, runs)
    j = edge[order][np.arange(runs.sum()) + np.repeat(lo - starts, runs)]
    from_v = np.repeat(np.arange(2 * m) >= m, runs)
    keep = ~from_v | ((u[j] != u[i]) & (v[j] != u[i]))
    return i[keep], j[keep]


def motif_census_2(view: LogView, *deltas: int) -> tuple[MotifCensus, ...]:
    """One census per delta of the ordered pairs (e1, e2) of node-sharing
    edges with 0 < t2 - t1 <= delta, in the six 2-edge classes. Exact: every
    pair comes from one `_later_pairs` enumeration at the largest delta. With
    e1 = u1->v1 and e2 = u2->v2, the first class that matches wins:
    reciprocal (u2 = v1 and v2 = u1), repeated (u2 = u1 and v2 = v1),
    out_star (u2 = u1), in_star (v2 = v1), chain_forward (u2 = v1), else
    chain_backward."""
    _check_deltas(deltas)
    i, j = _later_pairs(view, deltas[-1])
    u1, v1, u2, v2 = view.u[i], view.v[i], view.u[j], view.v[j]
    cls = np.select([(u2 == v1) & (v2 == u1), (u2 == u1) & (v2 == v1),
                     u2 == u1, v2 == v1, u2 == v1], range(5), 5)
    return _censuses(MOTIF2_CLASSES, deltas, view.t[j] - view.t[i], cls)


def motif_census_3(view: LogView, *deltas: int) -> tuple[MotifCensus, ...]:
    """One census per delta of the strictly time-ordered edge triples
    (e1, e2, e3) with t2 - t1 and t3 - t1 in (0, delta] that match one of
    the five 3-edge classes.

    For an anchor e1 = x->y every class needs both e2 and e3 to touch x or y
    (dyad_alternation y->x, x->y; dyad_burst_reply x->y, y->x;
    feed_forward_closure y->b, x->b; three_cycle y->a, a->x;
    broadcast_cross_link x->b, y->b or x->a, a->y), so the (e1, e3) pairs
    are those of `_later_pairs` at the largest delta. Each such pair fixes
    the class and the ordered pair (p, q) that e2 must join; the e2 on
    (p, q) with t1 < t2 < t3 are counted by two searchsorted calls on the
    sorted edge keys (p * n + q) * m + time rank, which stay below n^2 * m.
    """
    _check_deltas(deltas)
    i, j = _later_pairs(view, deltas[-1])
    u, v, t = view.u, view.v, view.t
    x, y, a, b = u[i], v[i], u[j], v[j]
    rules = [(a == x) & (b == y), (a == y) & (b == x), a == x, b == x, a == y]  # else b == y
    cls = np.select(rules, range(5), 4)
    p = np.select(rules, [y, x, y, y, x], x)
    q = np.select(rules, [x, y, b, a, b], a)
    n, m = view.n_agents, len(t)
    rank = _time_rank(t)
    keys = np.sort((u * n + v) * m + rank)
    pq = (p * n + q) * m
    e2 = np.searchsorted(keys, pq + rank[j]) - np.searchsorted(keys, pq + rank[i], "right")
    return _censuses(MOTIF3_CLASSES, deltas, t[j] - t[i], cls, e2)


def _census_jsd(s: MotifCensus, g: MotifCensus) -> tuple[float, list[str]]:
    """JSD between two motif class distributions; an empty census is treated
    as uniform and flagged."""
    arrs = s.as_array(), g.as_array()
    flags = [f"{name}: zero motifs, uniform assumed"
             for name, arr in zip(("sim", "gt"), arrs) if arr.sum() == 0]
    return jsd(*(arr if arr.sum() else np.ones_like(arr) for arr in arrs)), flags


# ---------------------------------------------------------------------------
# daily topology


def _undirected_adjacency(edge_set, n_nodes) -> list[set[int]]:
    """Neighbour sets of a simple edge set's undirected collapse over range(n_nodes)."""
    nbrs: list[set[int]] = [set() for _ in range(n_nodes)]
    for u, v in edge_set:
        nbrs[u].add(v)
        nbrs[v].add(u)
    return nbrs


def _transitivity(edge_set, n_nodes) -> float:
    """3 x triangles / connected triples of the undirected collapse.

    Each triangle is counted six times (once per ordered pair of its nodes)
    and each triple twice, so the ratio of the two exact integer counts is
    the float NetworkX's transitivity returns."""
    nbrs = _undirected_adjacency(edge_set, n_nodes)
    tri6 = sum(len(nv & nbrs[w]) for nv in nbrs for w in nv)
    contri = sum(len(nv) * (len(nv) - 1) for nv in nbrs)
    return tri6 / contri if tri6 else 0.0


def _global_efficiency(edge_set, n_nodes) -> float:
    """Mean of 1/d(s, t) over ordered pairs s != t of the undirected
    collapse; unreachable pairs add 0.

    All sources advance together: ball[v] is a bitmask of the nodes within k
    hops of v, and the ball at k + 1 is the union of the neighbours' balls
    at k. Its growth is v's count of nodes at distance k + 1; a node whose
    ball stops growing has reached its whole component. The terms are then
    added one at a time in NetworkX's order (sources ascending, each in BFS
    order, and every term of one BFS level is the same 1/k), so the float
    equals NetworkX's global_efficiency."""
    nbrs = [list(nv) for nv in _undirected_adjacency(edge_set, n_nodes)]
    ball = [1 << v for v in range(n_nodes)]
    per_level: list[list[int]] = [[] for _ in range(n_nodes)]  # source -> counts at k = 1, 2, ...
    active = [v for v in range(n_nodes) if nbrs[v]]
    while active:
        grown = []
        for v in active:
            b = ball[v]
            for w in nbrs[v]:
                b |= ball[w]
            grown.append(b)
        still = []
        for v, b in zip(active, grown):
            count = (b ^ ball[v]).bit_count()
            if count:
                per_level[v].append(count)
                still.append(v)
            ball[v] = b
        active = still
    terms = [1 / k for counts in per_level for k in range(1, len(counts) + 1)]
    reps = [c for counts in per_level for c in counts]
    if not terms:
        return 0.0
    # cumsum adds left to right like NetworkX's loop; np.sum would not
    total = np.cumsum(np.repeat(terms, reps))[-1]
    return float(total / (n_nodes * (n_nodes - 1)))


def _betweenness_days(edge_sets) -> list[dict[int, float]]:
    """Unnormalized directed betweenness of the nodes each edge set touches
    (Brandes 2001), one {node: float} per edge set: float for float what
    NetworkX's betweenness_centrality gives for the DiGraph built by
    add_edges_from(edge_set). The tests keep the per-graph loop this
    replaced as its oracle.

    Brandes runs for every source of every graph at once, one BFS level at a
    time, and each float is the one NetworkX's loop makes, added in its order:
    - Each graph numbers its nodes by first appearance in `for u, v in
      edge_set`, u before v, and fills successor lists in that order, as the
      DiGraph inserts them. A node is keyed by slot * n_max + its number,
      n_max being the largest graph's node count.
    - Sources run in ascending number, and one without out-edges adds
      nothing. A (source, node) pair is keyed by source number * n_keys +
      node key, n_keys being slots * n_max: the view's state is one table of
      n_max * n_keys entries, not one per level.
      Level k+1 of a source holds the pairs that the candidates reach first:
      the level-k pairs in discovery order, each node's successors in list
      order. `np.minimum.at` finds each pair's first candidate.
    - sigma of a pair is a bincount of its parents' sigma over the DAG edges
      in candidate order: the loop's additions in its order.
    - Deepest level first, coeff = (1 + delta) / sigma, and delta of a pair is
      a bincount of sigma[v] * coeff[w] over its DAG edges stably sorted by
      descending discovery rank of w, as the loop pops its stack.
    - bc of a node adds its deltas source by source, one row of the pair
      table at a time, from 0.0 as the loop does. A pair the source does not
      reach holds 0.0, and adding 0.0 to a score, never negative, keeps it.
    """
    numbers, ends = [], []
    for edges in edge_sets:
        number: dict = {}
        ends += [number.setdefault(x, len(number)) for edge in edges for x in edge]
        numbers.append(number)
    n_max = max(map(len, numbers), default=0)
    if not n_max:
        return [{} for _ in edge_sets]
    slot_key = np.repeat(np.arange(len(edge_sets)) * n_max, [2 * len(e) for e in edge_sets])
    tail, head = (np.array(ends, dtype=np.int64) + slot_key).reshape(-1, 2).T
    succ = head[np.argsort(tail, kind="stable")]
    n_keys = len(edge_sets) * n_max
    out_deg = np.bincount(tail, minlength=n_keys)
    succ_start = np.cumsum(out_deg) - out_deg

    node = np.flatnonzero(out_deg)  # level 0: the sources, ascending
    source = node % n_max
    key = source * n_keys + node
    sigma = np.ones(len(node))
    unseen = np.iinfo(np.int32).max
    first_at = np.full(n_max * n_keys, unseen, dtype=np.int32)
    first_at[key] = 0
    levels = []  # (pair keys, sigma, DAG edges to the next level as parent, child)
    while len(node):
        deg = out_deg[node]
        parent = np.repeat(np.arange(len(node), dtype=np.int32), deg)
        at = np.repeat(succ_start[node] - (np.cumsum(deg) - deg), deg) + np.arange(len(parent))
        reached = succ[at] + source[parent] * n_keys
        dag = np.flatnonzero(first_at[reached] == unseen)
        reached, parent = reached[dag], parent[dag]
        candidate = np.arange(len(reached), dtype=np.int32)
        np.minimum.at(first_at, reached, candidate)
        found = first_at[reached]
        new = found == candidate
        child = (np.cumsum(new, dtype=np.int32) - 1)[found]
        levels.append((key, sigma, parent, child))
        sigma = np.bincount(child, weights=sigma[parent], minlength=np.count_nonzero(new))
        key = reached[new]
        source, node = np.divmod(key, n_keys)
        del at, reached, dag, found, new  # before the next level allocates its own
    del first_at

    delta = np.zeros(n_max * n_keys)  # by pair key: one row per source number
    coeff = np.zeros(0)  # (1 + delta) / sigma of the level below
    while len(levels) > 1:  # the sources' own delta adds to no score
        key, sigma, parent, child = levels.pop()
        by_child = np.argsort(child, kind="stable")[::-1]
        parent = parent[by_child]
        level_delta = np.bincount(parent, weights=sigma[parent] * coeff[child[by_child]],
                                  minlength=len(key))
        delta[key] = level_delta
        coeff = (1 + level_delta) / sigma
    bc = np.zeros(n_keys)
    for row in delta.reshape(n_max, n_keys):  # sources ascending; an unreached pair adds 0.0
        bc += row
    bc = bc.tolist()
    return [dict(zip(number, bc[i * n_max:i * n_max + len(number)]))
            for i, number in enumerate(numbers)]


def _reciprocity(edge_set, n_nodes) -> float:
    if not edge_set:
        return 0.0
    return sum(1 for (u, v) in edge_set if (v, u) in edge_set) / len(edge_set)


def _degrees(edge_set, n_nodes) -> np.ndarray:
    """Total (in + out) degree of each node of range(n_nodes)."""
    return np.bincount([x for edge in edge_set for x in edge], minlength=n_nodes)


def daily_topology_series(view: LogView, kernel) -> list:
    """[kernel(edge_set, n_nodes) for each UTC day of the window, in day
    order], n_nodes being the registry size."""
    per_day = view.daily()
    n = view.n_agents
    return [kernel(per_day[d], n) for d in sorted(per_day)]


def topology_rmse(sim_series, gt_series) -> float:
    s, g = np.asarray(sim_series, dtype=float), np.asarray(gt_series, dtype=float)
    if s.shape != g.shape:
        raise MetricError("series length mismatch")
    return float(np.sqrt(np.mean((s - g) ** 2)))


def _daily_degree_emd(s_days, g_days) -> float:
    """Mean over days of the EMD between total-degree histograms (unit
    distance = one degree)."""
    vals = []
    for ds, dg in zip(s_days, g_days):
        bins = int(max(ds.max(initial=0), dg.max(initial=0))) + 1  # no agents: all-zero, skipped
        vals.append(emd_1d(np.bincount(ds, minlength=bins), np.bincount(dg, minlength=bins)))
    return float(np.mean(vals))


def ego_overlap_values(view: LogView) -> dict[int, float]:
    """Per-node mean cosine-style neighborhood overlap across consecutive
    day pairs where both neighborhoods are nonempty."""
    daily = daily_topology_series(view, _undirected_adjacency)
    acc: dict[int, list[float]] = {}
    for a, b in zip(daily, daily[1:]):
        for v in range(view.n_agents):
            if a[v] and b[v]:
                c = len(a[v] & b[v]) / math.sqrt(len(a[v]) * len(b[v]))
                acc.setdefault(v, []).append(c)
    return {v: float(np.mean(cs)) for v, cs in acc.items()}


TOPO_OVERLAP_BINS = 20


def ego_overlap_histogram(view: LogView) -> np.ndarray:
    """Ego-overlap values in 20 uniform bins on [0, 1]; two are compared by
    EMD scaled to overlap units (bin width 0.05)."""
    if len(view.daily()) < 2:
        raise MetricError("topology overlap needs at least 2 days")
    vals = list(ego_overlap_values(view).values())
    if not vals:
        raise MetricError("no node active on two consecutive days")
    idx = np.clip((np.array(vals) * TOPO_OVERLAP_BINS).astype(int), 0, TOPO_OVERLAP_BINS - 1)
    return np.bincount(idx, minlength=TOPO_OVERLAP_BINS).astype(float)


def _top_k_nodes(scores: dict[int, float], k: int = 10) -> set[int]:
    """Top-k by score among nodes with positive score; ties break by
    ascending node index. Shrinks when fewer are available."""
    ranked = sorted(((s, v) for v, s in scores.items() if s > 0),
                    key=lambda sv: (-sv[0], sv[1]))
    return {v for _, v in ranked[:k]}


def daily_top_nodes(view: LogView, scores) -> dict[int, set[int] | None]:
    """Per UTC day of the window, the top-10 node set by the centrality
    scores of the day's directed simple graph; None for a day without edges.
    scores(edge_sets, n_nodes) gives one {node: score} per edge set, in order,
    for all days with edges at once."""
    days = sorted(view.daily().items())
    scored = iter(scores([edges for _, edges in days if edges], view.n_agents))
    return {d: _top_k_nodes(next(scored)) if edges else None for d, edges in days}


def centrality_jaccard(sim_tops, gt_tops, kind: str) -> tuple[float, list[str]]:
    """Mean daily Jaccard similarity of two logs' `daily_top_nodes` over the
    same window."""
    flags = []
    vals = []
    for d, top_s in sim_tops.items():
        if top_s is None and gt_tops[d] is None:
            flags.append(f"day {d}: empty in both logs, skipped")
            continue
        tops = [top or set() for top in (top_s, gt_tops[d])]
        flags += [f"day {d}: only {len(top)} nodes with nonzero {kind}"
                  for top in tops if 0 < len(top) < 10]
        union = tops[0] | tops[1]
        if not union:
            flags.append(f"day {d}: no node with nonzero {kind} in either log, skipped")
            continue
        vals.append(len(tops[0] & tops[1]) / len(union))
    if not vals:
        raise MetricError(f"no day with nonzero {kind} centrality")
    return float(np.mean(vals)), flags


# ---------------------------------------------------------------------------
# trigger exclusion, reports, regret


def _trigger_set(triggers) -> frozenset[int]:
    """Accept a TriggerPlan-like object or a plain collection of indices."""
    return frozenset(getattr(triggers, "trigger_agents", triggers) or ())


def exclude_triggers(log: EventLog, trigger_agents) -> EventLog:
    """Drop every event sent by or addressed to a trigger agent; shrink the
    registry and renumber the remaining agents (label order preserved)."""
    triggers = _trigger_set(trigger_agents)
    if not triggers:
        return log
    keep = [i for i in range(log.n_agents) if i not in triggers]
    remap = {old: new for new, old in enumerate(keep)}
    events = []
    for e in log.events:
        if e.sender in triggers or any(r in triggers for r in e.recipients):
            continue
        events.append(Event(e.event_id, remap[e.sender],
                            tuple(remap[r] for r in e.recipients),
                            e.ts, e.thread_id, e.body))
    # a subsequence of a checked log, remapped into the kept registry
    return _unchecked(EventLog, agents=tuple(log.agents[i] for i in keep), events=tuple(events))


@dataclass(frozen=True)
class MetricEntry:
    name: str
    category: str
    value: float | None
    direction: str
    flags: tuple[str, ...] = ()
    skipped: str | None = None


@dataclass(frozen=True)
class MetricsReport:
    entries: tuple[MetricEntry, ...]
    window: tuple[int, int]
    n_agents: int

    def to_dict(self) -> dict:
        return {
            "window": list(self.window),
            "n_agents": self.n_agents,
            "metrics": [{**asdict(e), "flags": list(e.flags)} for e in self.entries],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)

    def to_csv(self) -> str:
        buf = io.StringIO()
        w = csv.writer(buf)
        w.writerow(["name", "category", "value", "direction", "flags", "skipped"])
        for e in self.entries:
            w.writerow([e.name, e.category,
                        "" if e.value is None else repr(e.value),
                        e.direction, ";".join(e.flags), e.skipped or ""])
        return buf.getvalue()


def report_from_dict(d: dict) -> MetricsReport:
    entries = tuple(
        MetricEntry(m["name"], m["category"], m["value"], m["direction"],
                    tuple(m.get("flags", ())), m.get("skipped"))
        for m in d["metrics"]
    )
    return MetricsReport(entries, tuple(d["window"]), d["n_agents"])


# name -> (part, comparison), in report order; a comparison returns the value
# or (value, flags), and rows that share a part object share its value. Parts
# look functions up by name when called, so a wrapper set on this module
# (perfbench's tracer) sees every call.
_MOTIFS = {2: lambda v: motif_census_2(v, 2 * 3600, 8 * 3600),
           3: lambda v: motif_census_3(v, 24 * 3600, 48 * 3600)}
SUITE = {
    "r24": (lambda v: lag24_weekday_autocorr(v.ts, *v.window), _rho_diff),
    "hod": (lambda v: hod_histogram(v.ts), emd_1d),
    "wknd_drop": (lambda v: weekend_weekday_ratio(v.ts, v.window), lambda s, g: abs(s - g)),
    "burst": (lambda v: burstiness_sample(v), sample_emd),
    "2eg_2h": (_MOTIFS[2], lambda s, g: _census_jsd(s[0], g[0])),
    "2eg_8h": (_MOTIFS[2], lambda s, g: _census_jsd(s[1], g[1])),
    "3eg_24h": (_MOTIFS[3], lambda s, g: _census_jsd(s[0], g[0])),
    "3eg_48h": (_MOTIFS[3], lambda s, g: _census_jsd(s[1], g[1])),
    "degdist": (lambda v: daily_topology_series(v, _degrees), _daily_degree_emd),
    "trans": (lambda v: daily_topology_series(v, _transitivity), topology_rmse),
    "globeff": (lambda v: daily_topology_series(v, _global_efficiency), topology_rmse),
    "recip": (lambda v: daily_topology_series(v, _reciprocity), topology_rmse),
    "topo_ovlp": (ego_overlap_histogram, lambda s, g: emd_1d(s, g) / TOPO_OVERLAP_BINS),
    "degcen": (lambda v: daily_top_nodes(
        v, lambda days, n: [dict(enumerate(_degrees(e, n))) for e in days]),
               lambda s, g: centrality_jaccard(s, g, "degree")),
    "betwcen": (lambda v: daily_top_nodes(v, lambda days, n: _betweenness_days(days)),
                lambda s, g: centrality_jaccard(s, g, "betweenness")),
}


@dataclass(frozen=True, eq=False)
class LogSummary:
    """Every SUITE part of one log's non-trigger subnetwork in one window, or
    the MetricError of a part whose precondition failed. Read-only and shared
    (the log keeps its latest); `==` is identity, as parts hold arrays."""

    agents: tuple[str, ...]  # registry before trigger exclusion
    triggers: frozenset[int]
    window: tuple[int, int]
    n_agents: int  # non-trigger agents
    parts: Mapping[str, object]

    # a mappingproxy does not pickle, so a summary (and a log that keeps one)
    # pickles and deep-copies its parts as a dict
    def __getstate__(self):
        return {**self.__dict__, "parts": dict(self.parts)}

    def __setstate__(self, state):
        self.__dict__.update(state, parts=MappingProxyType(state["parts"]))


def summarize(log: EventLog, trigger_agents, window: tuple[int, int]) -> LogSummary:
    """Compute every metric's part of `log` once, on its non-trigger
    subnetwork within the window; rows that share a part share its value.

    The log keeps the latest summary in its `__dict__`, beside its cached
    columns. A call on the same log with the same trigger set and an equal
    window, its bounds of the same types, returns that summary; any other
    call computes a new one and replaces it."""
    triggers = _trigger_set(trigger_agents)
    t0, t1 = window
    # the types too: a reused summary holds and reports the window as passed
    key = (triggers, type(window), type(t0), t0, type(t1), t1)
    memo = log.__dict__.get("_summary")
    if memo is not None and memo[0] == key:
        return memo[1]
    view = log_view(log, window, triggers)
    values: dict = {}  # part -> its value or MetricError
    for part in dict.fromkeys(part for part, _ in SUITE.values()):
        try:
            values[part] = part(view)
        except MetricError as exc:
            values[part] = exc.with_traceback(None)
    parts = MappingProxyType({name: values[part] for name, (part, _) in SUITE.items()})
    summary = LogSummary(log.agents, triggers, window, view.n_agents, parts)
    log.__dict__["_summary"] = key, summary
    return summary


def compare(sim: LogSummary, gt: LogSummary) -> MetricsReport:
    """Score a simulated log's summary against a ground-truth summary of the
    same registry, trigger set and window. A metric is skipped with sim's
    stored error, else gt's, else the error its comparison raises."""
    if sim.agents != gt.agents:
        raise MetricError("sim and gt registries differ")
    if (sim.window, sim.triggers) != (gt.window, gt.triggers):
        raise MetricError("sim and gt summaries differ in window or trigger set")
    entries = []
    for name, (_, comparison) in SUITE.items():
        s, g = sim.parts[name], gt.parts[name]
        direction = "higher" if name in HIGHER_IS_BETTER else "lower"
        try:
            for part in (s, g):
                if isinstance(part, MetricError):
                    raise MetricError(str(part))  # a fresh one: the stored error is shared
            res = comparison(s, g)
        except MetricError as exc:
            entries.append(MetricEntry(name, CATEGORY_OF[name], None, direction,
                                       skipped=str(exc)))
            continue
        value, flags = res if isinstance(res, tuple) else (res, ())
        entries.append(MetricEntry(name, CATEGORY_OF[name], float(value), direction,
                                   tuple(flags)))
    return MetricsReport(tuple(entries), sim.window, sim.n_agents)


def evaluate_all(sim: EventLog, gt: EventLog, trigger_agents,
                 window: tuple[int, int]) -> MetricsReport:
    """Run the full 15-metric suite on the non-trigger subnetwork; a `gt`
    shared by several calls with one trigger set and window is summarized
    once."""
    return compare(summarize(sim, trigger_agents, window),
                   summarize(gt, trigger_agents, window))


def regret_scores(report: MetricsReport, setting: str) -> tuple[dict[str, float], list[str]]:
    """Lower-is-better scores of one report, as `regret` takes them: each
    higher-is-better value x becomes 1 - x. Skipped metrics are left out.
    Both are flagged, prefixed with the setting name."""
    scores: dict[str, float] = {}
    flags: list[str] = []
    for e in report.entries:
        if e.value is None:
            flags.append(f"{setting}/{e.name}: skipped ({e.skipped})")
        elif e.direction == "higher":
            scores[e.name] = 1.0 - e.value
            flags.append(f"{setting}/{e.name}: inverted (1 - x) for regret")
        else:
            scores[e.name] = e.value
    return scores, flags


SCORE_FLOOR = 1e-12


def regret(results: dict[str, dict[str, float]],
           categories: dict[str, str] | None = None) -> tuple[dict[str, dict[str, float]], list[str]]:
    """Per-(setting, category) relative degradation: the geometric mean over
    the category's metrics of score / best-score-across-settings, minus 1.

    Scores must be > 0 and lower-is-better; zeros are floored at 1e-12 and
    flagged. Returns ({setting: {category: regret}}, flags).
    """
    if categories is None:
        categories = CATEGORY_OF
    flags = []
    settings = sorted(results)
    if not settings:
        raise MetricError("no settings")
    metrics = sorted({m for s in settings for m in results[s]})
    floored = {}
    for s in settings:
        for m in results[s]:
            x = results[s][m]
            if x <= 0:
                flags.append(f"{s}/{m}: score {x} floored at {SCORE_FLOOR}")
                x = SCORE_FLOOR
            floored[(s, m)] = x
    best = {m: min(floored[(s, m)] for s in settings if (s, m) in floored)
            for m in metrics}
    out: dict[str, dict[str, float]] = {}
    for s in settings:
        per_cat: dict[str, list[float]] = {}
        for m in results[s]:
            cat = categories[m]
            per_cat.setdefault(cat, []).append(math.log(floored[(s, m)] / best[m]))
        out[s] = {cat: math.exp(float(np.mean(logs))) - 1.0
                  for cat, logs in sorted(per_cat.items())}
        if not out[s]:
            raise MetricError(f"setting {s}: no metrics in any category")
    return out, flags


# ---------------------------------------------------------------------------
# corpus-level summary


@dataclass(frozen=True)
class StatsSummary:
    n_agents: int
    time_span: tuple[int, int]
    total_events: int
    median_events_per_agent: float
    median_events_per_week: float
    r24: float
    weekend_ratio: float
    burstiness_median: float
    density: float
    transitivity: float
    global_efficiency: float
    reciprocity: float

    def to_dict(self) -> dict:
        d = dict(self.__dict__)
        d["time_span"] = list(self.time_span)
        return d


def corpus_stats(log: EventLog) -> StatsSummary:
    """Corpus-level temporal and structural summary; the graph fields are the
    kernels on the whole log's directed simple graph."""
    if not log.events:
        raise CorpusError("empty log")
    ts = log.ts
    t0, t1 = int(ts[0]), int(ts[-1]) + 1
    sent_counts = np.bincount(log.senders, minlength=log.n_agents)

    w0, w1 = timeutil.week_index(t0), timeutil.week_index(t1 - 1)
    week_counts = np.zeros(w1 - w0 + 1, dtype=np.int64)
    np.add.at(week_counts, timeutil.week_index(ts) - w0, 1)

    r24, _ = lag24_weekday_autocorr(ts, t0, t1)
    weekend_ratio = float(np.mean(timeutil.is_weekend(ts)))
    burst = node_burstiness(log)
    burst_median = float(np.median(list(burst.values()))) if burst else 0.0
    edges = {(u, v) for u, v, _ in log.edges()}
    n = log.n_agents

    return StatsSummary(
        n_agents=n,
        time_span=(t0, t1),
        total_events=len(log.events),
        median_events_per_agent=float(np.median(sent_counts)),
        median_events_per_week=float(np.median(week_counts)),
        r24=r24,
        weekend_ratio=weekend_ratio,
        burstiness_median=burst_median,
        density=len(edges) / (n * (n - 1)) if n > 1 else 0.0,
        transitivity=_transitivity(edges, n),
        global_efficiency=_global_efficiency(edges, n),
        reciprocity=_reciprocity(edges, n),
    )
