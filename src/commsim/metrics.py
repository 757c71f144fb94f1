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

`evaluate_all` builds one `LogView` per log with `log_view`: the edge
stream (self-loops dropped), its per-node time index, the directed simple
edge set of each UTC day of the window and the registry size. The motif
and daily-topology metrics read only views, so each log is expanded,
indexed and bucketed by day once per evaluation; the four temporal-rhythm
metrics read the log itself.

The three daily-graph kernels use only the standard library and numpy and
return, bit for bit, what NetworkX 3.6 returns (the tests keep NetworkX as
their oracle), so reports do not depend on the installed graph library:

  _transitivity: 6 x triangles and 2 x connected triples are exact Python
      integers, so their ratio is the one correctly rounded float.
  _global_efficiency: a bit-parallel BFS from all sources at once gives
      each source's count of nodes at each distance k; NetworkX adds the
      equal terms 1/k one at a time, sources ascending and each BFS level
      in turn, and np.cumsum adds the same sequence in the same order.
  _betweenness: Brandes (2001) over integer adjacency lists numbered and
      ordered as NetworkX's DiGraph stores the day's edge set, so every
      path count and dependency is the same float added in the same order.
"""

from __future__ import annotations

import bisect
import csv
import io
import json
import math
from collections import Counter
from dataclasses import dataclass

import numpy as np

from . import timeutil
from .corpus import Event, EventLog, window as log_window

MOTIF2_CLASSES = ("reciprocal", "repeated", "out_star", "in_star",
                  "chain_forward", "chain_backward")
MOTIF3_CLASSES = ("dyad_alternation", "dyad_burst_reply", "feed_forward_closure",
                  "three_cycle", "broadcast_cross_link")

CATEGORY_OF = {
    "r24": "temporal_rhythms", "hod": "temporal_rhythms",
    "wknd_drop": "temporal_rhythms", "burst": "temporal_rhythms",
    "2eg_2h": "temporal_dynamics", "2eg_8h": "temporal_dynamics",
    "3eg_24h": "temporal_dynamics", "3eg_48h": "temporal_dynamics",
    "degdist": "global_topology", "trans": "global_topology",
    "globeff": "global_topology", "recip": "global_topology",
    "topo_ovlp": "local_topology", "degcen": "local_topology",
    "betwcen": "local_topology",
}
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


def sample_emd(xs, ys) -> float:
    """Exact 1-D Wasserstein distance between two empirical samples."""
    from scipy.stats import wasserstein_distance

    xs, ys = np.asarray(xs, dtype=float), np.asarray(ys, dtype=float)
    if len(xs) == 0 or len(ys) == 0:
        raise MetricError("empty sample")
    return float(wasserstein_distance(xs, ys))


# ---------------------------------------------------------------------------
# temporal rhythm metrics


def r24_err(sim: EventLog, gt: EventLog, window: tuple[int, int]) -> tuple[float, list[str]]:
    """Absolute difference of lag-24 weekday autocorrelation of hourly
    activity. A constant (or too short) series yields rho = 0, flagged."""
    from .corpus import lag24_weekday_autocorr

    t0, t1 = window
    rho_s, deg_s = lag24_weekday_autocorr(sim.timestamps(), t0, t1)
    rho_g, deg_g = lag24_weekday_autocorr(gt.timestamps(), t0, t1)
    flags = [f"{name}: degenerate hourly series, rho set to 0"
             for name, deg in (("sim", deg_s), ("gt", deg_g)) if deg]
    return abs(rho_s - rho_g), flags


def hod_histogram(log: EventLog) -> np.ndarray:
    counts = np.zeros(24)
    for e in log.events:
        counts[timeutil.hour_of_day(e.ts)] += 1
    return counts


def hod_emd(sim: EventLog, gt: EventLog) -> float:
    """EMD between 24-bin hour-of-day activity histograms (linear, not
    circular, bin distance)."""
    return emd_1d(hod_histogram(sim), hod_histogram(gt))


def weekend_weekday_ratio(log: EventLog, window: tuple[int, int]) -> float:
    """Mean events per weekend day over mean events per weekday."""
    t0, t1 = window
    d0, d1 = timeutil.day_index(t0), timeutil.day_index(t1 - 1)
    days = np.arange(d0, d1 + 1)
    wknd_days = int(np.sum(timeutil.is_weekend(days * timeutil.SECONDS_PER_DAY)))
    wkdy_days = len(days) - wknd_days
    ts = log.timestamps()
    wknd_events = int(np.sum(timeutil.is_weekend(ts)))
    wkdy_events = len(ts) - wknd_events
    mu_wknd = wknd_events / wknd_days if wknd_days else 0.0
    mu_wkdy = wkdy_events / wkdy_days if wkdy_days else 0.0
    if mu_wkdy == 0:
        if mu_wknd == 0:
            return 0.0
        raise MetricError("no weekday activity; weekend ratio undefined")
    return mu_wknd / mu_wkdy


def wknd_drop_err(sim: EventLog, gt: EventLog, window: tuple[int, int]) -> float:
    return abs(weekend_weekday_ratio(sim, window) - weekend_weekday_ratio(gt, window))


def burstiness_emd(sim: EventLog, gt: EventLog) -> float:
    """EMD between the node-level burstiness samples of the two logs."""
    from .corpus import node_burstiness

    bs = list(node_burstiness(sim).values())
    bg = list(node_burstiness(gt).values())
    if not bs or not bg:
        raise MetricError("no node with enough events for burstiness")
    return sample_emd(bs, bg)


# ---------------------------------------------------------------------------
# the per-log view


@dataclass(frozen=True)
class LogView:
    """What the motif and daily-topology metrics read of one log."""

    edges: list[tuple[int, int, int]]
    by_node: dict[int, tuple[list[int], list[int]]]
    days: dict[int, set[tuple[int, int]]] | None  # None: empty window
    n_agents: int

    def daily(self) -> dict[int, set[tuple[int, int]]]:
        if self.days is None:
            raise MetricError("empty window")
        return self.days


def log_view(log: EventLog, window: tuple[int, int]) -> LogView:
    edges = log.edges()
    t0, t1 = window
    days = daily_edge_sets(edges, window) if t1 > t0 else None
    return LogView(edges, _node_index(edges), days, log.n_agents)


def _node_index(edges) -> dict[int, tuple[list[int], list[int]]]:
    """node -> (times, edge indices) of every edge it sends or receives, in
    edge order. Edges are time-sorted, so each `times` list is too."""
    by_node: dict[int, tuple[list[int], list[int]]] = {}
    for k, (u, v, t) in enumerate(edges):
        for node in (u, v):
            times, idxs = by_node.setdefault(node, ([], []))
            times.append(t)
            idxs.append(k)
    return by_node


def daily_edge_sets(edges, window: tuple[int, int]) -> dict[int, set[tuple[int, int]]]:
    """Directed simple edges per UTC day bucket of a nonempty window, from a
    self-loop-free edge stream."""
    t0, t1 = window
    days = {d: set() for d in range(timeutil.day_index(t0), timeutil.day_index(t1 - 1) + 1)}
    for u, v, t in edges:
        if t0 <= t < t1:
            days[timeutil.day_index(t)].add((u, v))
    return days


# ---------------------------------------------------------------------------
# temporal motifs


@dataclass(frozen=True)
class MotifCensus:
    counts: dict[str, int]  # in class order
    delta: int

    def total(self) -> int:
        return sum(self.counts.values())

    def as_array(self) -> np.ndarray:
        return np.array(list(self.counts.values()), dtype=float)


def classify_pair(u1: int, v1: int, u2: int, v2: int) -> str | None:
    """Class of the ordered edge pair (u1->v1, u2->v2), or None when the
    edges share no node. Assumes no self-loops."""
    if u2 == v1 and v2 == u1:
        return "reciprocal"
    if u2 == u1 and v2 == v1:
        return "repeated"
    if u2 == u1:
        return "out_star"
    if v2 == v1:
        return "in_star"
    if u2 == v1:
        return "chain_forward"
    if v2 == u1:
        return "chain_backward"
    return None


def motif_census_2(view: LogView, delta: int) -> MotifCensus:
    """Count ordered edge pairs (e1, e2) with 0 < t2 - t1 <= delta sharing at
    least one node, classified into the six 2-edge classes.

    Exact; uses per-node time indexes so only node-sharing pairs are visited.
    """
    edges, by_node = view.edges, view.by_node
    counts = dict.fromkeys(MOTIF2_CLASSES, 0)
    for u2, v2, t2 in edges:
        cand: set[int] = set()
        for node in (u2, v2):
            times, idxs = by_node[node]
            lo = bisect.bisect_left(times, t2 - delta)
            hi = bisect.bisect_left(times, t2)
            cand.update(idxs[lo:hi])
        for j in cand:
            u1, v1, _ = edges[j]
            cls = classify_pair(u1, v1, u2, v2)
            if cls is not None:
                counts[cls] += 1
    return MotifCensus(counts, delta)


def motif_census_3(view: LogView, delta: int) -> MotifCensus:
    """Count strictly time-ordered edge triples (e1, e2, e3) with
    t2 - t1 and t3 - t1 in (0, delta], matching one of the five 3-edge
    classes. Triples matching no class are not counted.

    For an anchor e1 = x->y every class needs both e2 and e3 to touch x or y
    (dyad_alternation y->x, x->y; dyad_burst_reply x->y, y->x;
    feed_forward_closure y->b, x->b; three_cycle y->a, a->x;
    broadcast_cross_link x->b, y->b or x->a, a->y). So only the edges in
    x's and y's per-node time indexes within (t1, t1 + delta] are visited:
    their union, deduplicated (x<->y edges are in both) and in edge order.
    Earlier candidates are tallied by endpoint pair so each class reduces to
    a lookup, one equal-timestamp group at a time, so equal timestamps never
    satisfy the strict ordering. The cost is the sum over anchors of the
    number of x's and y's edges inside the anchor's window, instead of the
    number of all edges inside it.
    """
    edges, by_node = view.edges, view.by_node
    counts = dict.fromkeys(MOTIF3_CLASSES, 0)
    for x, y, t1 in edges:
        cand: set[int] = set()
        for node in (x, y):
            times, idxs = by_node[node]
            lo = bisect.bisect_right(times, t1)
            hi = bisect.bisect_right(times, t1 + delta)
            cand.update(idxs[lo:hi])
        if len(cand) < 2:
            continue
        later = [edges[k] for k in sorted(cand)]
        cnt2: Counter = Counter()
        j, hi = 0, len(later)
        while j < hi:
            # process one equal-timestamp group as potential third edges,
            # then admit the group as potential second edges
            g = j
            while g < hi and later[g][2] == later[j][2]:
                g += 1
            for a, b, _ in later[j:g]:
                if a == x and b == y:
                    counts["dyad_alternation"] += cnt2[(y, x)]
                elif a == y and b == x:
                    counts["dyad_burst_reply"] += cnt2[(x, y)]
                if a == x and b != y:
                    counts["feed_forward_closure"] += cnt2[(y, b)]
                elif b == x and a != y:
                    counts["three_cycle"] += cnt2[(y, a)]
                if a == y and b != x:
                    counts["broadcast_cross_link"] += cnt2[(x, b)]
                elif b == y and a != x:
                    counts["broadcast_cross_link"] += cnt2[(x, a)]
            for a, b, _ in later[j:g]:
                cnt2[(a, b)] += 1
            j = g
    return MotifCensus(counts, delta)


def motif_jsd(sim: LogView, gt: LogView, arity: int, delta: int) -> tuple[float, list[str]]:
    """JSD between motif class distributions; an empty census is treated as
    uniform and flagged."""
    census = motif_census_2 if arity == 2 else motif_census_3
    flags = []
    dists = []
    for name, view in (("sim", sim), ("gt", gt)):
        arr = census(view, delta).as_array()
        if arr.sum() == 0:
            arr = np.ones_like(arr)
            flags.append(f"{name}: zero motifs, uniform assumed")
        dists.append(arr)
    return jsd(dists[0], dists[1]), flags


# ---------------------------------------------------------------------------
# daily topology


def _undirected_adjacency(edge_set, n_nodes) -> list[set[int]]:
    """Neighbour sets of the undirected simple collapse over range(n_nodes)."""
    nbrs: list[set[int]] = [set() for _ in range(n_nodes)]
    for u, v in edge_set:
        if u != v:
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


def _betweenness(edge_set) -> dict[int, float]:
    """Unnormalized directed betweenness of the nodes the edges touch
    (Brandes 2001), float for float what NetworkX's betweenness_centrality
    gives for the DiGraph built by add_edges_from(edge_set).

    Nodes are numbered, and successor lists filled, in the order that graph
    would insert them, so sources, BFS queues, predecessor lists and the
    reverse stack run in NetworkX's order and every sum adds the same floats
    in the same order. A source without out-edges adds nothing and is
    skipped; the directed unnormalized rescale multiplies by 1."""
    index: dict[int, int] = {}
    succ: list[list[int]] = []
    for u, v in edge_set:
        for x in (u, v):
            if x not in index:
                index[x] = len(succ)
                succ.append([])
        succ[index[u]].append(index[v])
    n = len(succ)
    bc = [0.0] * n
    sigma = [0.0] * n
    dist = [-1] * n
    delta = [0] * n
    preds: list[list[int]] = [[] for _ in range(n)]
    for s in range(n):
        if not succ[s]:
            continue
        sigma[s], dist[s] = 1.0, 0
        order = [s]  # the BFS queue, read in place, then the stack
        for v in order:
            dv, sv = dist[v] + 1, sigma[v]
            for w in succ[v]:
                dw = dist[w]
                if dw < 0:
                    order.append(w)
                    dist[w], sigma[w], preds[w] = dv, sv, [v]
                elif dw == dv:
                    sigma[w] += sv
                    preds[w].append(v)
        order.reverse()
        order.pop()  # the source adds nothing to its own score
        # dist and delta are reset as nodes leave the stack (sigma and preds
        # are overwritten on discovery), so a source costs only what it reaches
        for w in order:
            dep = delta[w]
            coeff = (1 + dep) / sigma[w]
            for v in preds[w]:
                delta[v] += sigma[v] * coeff
            bc[w] += dep
            delta[w], dist[w] = 0, -1
        delta[s], dist[s] = 0, -1
    return dict(zip(index, bc))


def _reciprocity(edge_set) -> float:
    if not edge_set:
        return 0.0
    return sum(1 for (u, v) in edge_set if (v, u) in edge_set) / len(edge_set)


def daily_topology_series(view: LogView, kind: str):
    """Per-day values: floats for transitivity/global_efficiency/reciprocity,
    integer degree arrays (one entry per registry node) for degdist."""
    per_day = view.daily()
    n = view.n_agents
    out = []
    for d in sorted(per_day):
        edges = per_day[d]
        if kind == "transitivity":
            out.append(_transitivity(edges, n))
        elif kind == "global_efficiency":
            out.append(_global_efficiency(edges, n))
        elif kind == "reciprocity":
            out.append(_reciprocity(edges))
        elif kind == "degdist":
            deg = np.zeros(n, dtype=np.int64)
            for u, v in edges:
                deg[u] += 1
                deg[v] += 1
            out.append(deg)
        else:
            raise MetricError(f"unknown series kind {kind!r}")
    return out


def topology_rmse(sim_series, gt_series) -> float:
    s, g = np.asarray(sim_series, dtype=float), np.asarray(gt_series, dtype=float)
    if s.shape != g.shape:
        raise MetricError("series length mismatch")
    return float(np.sqrt(np.mean((s - g) ** 2)))


def degdist_emd(sim: LogView, gt: LogView) -> float:
    """Mean over days of the EMD between total-degree histograms (unit
    distance = one degree)."""
    sim_days = daily_topology_series(sim, "degdist")
    gt_days = daily_topology_series(gt, "degdist")
    vals = []
    for ds, dg in zip(sim_days, gt_days):
        top = int(max(ds.max(), dg.max()))
        hs = np.bincount(ds, minlength=top + 1).astype(float)
        hg = np.bincount(dg, minlength=top + 1).astype(float)
        vals.append(emd_1d(hs, hg))
    return float(np.mean(vals))


def ego_overlap_values(view: LogView) -> dict[int, float]:
    """Per-node mean cosine-style neighborhood overlap across consecutive
    day pairs where both neighborhoods are nonempty."""
    per_day = view.daily()
    daily = []  # per day: node -> set of in/out neighbors (self excluded)
    for d in sorted(per_day):
        nbrs: dict[int, set[int]] = {}
        for u, v in per_day[d]:
            nbrs.setdefault(u, set()).add(v)
            nbrs.setdefault(v, set()).add(u)
        daily.append(nbrs)
    acc: dict[int, list[float]] = {}
    for a, b in zip(daily, daily[1:]):
        for v in set(a) & set(b):
            c = len(a[v] & b[v]) / math.sqrt(len(a[v]) * len(b[v]))
            acc.setdefault(v, []).append(c)
    return {v: float(np.mean(cs)) for v, cs in acc.items()}


TOPO_OVERLAP_BINS = 20


def topo_overlap_emd(sim: LogView, gt: LogView) -> float:
    """EMD between ego-overlap distributions, 20 uniform bins on [0, 1],
    scaled to overlap units (bin width 0.05)."""
    if len(sim.daily()) < 2:
        raise MetricError("topology overlap needs at least 2 days")
    dists = []
    for view in (sim, gt):
        vals = list(ego_overlap_values(view).values())
        if not vals:
            raise MetricError("no node active on two consecutive days")
        idx = np.clip((np.array(vals) * TOPO_OVERLAP_BINS).astype(int), 0, TOPO_OVERLAP_BINS - 1)
        dists.append(np.bincount(idx, minlength=TOPO_OVERLAP_BINS).astype(float))
    return emd_1d(dists[0], dists[1]) / TOPO_OVERLAP_BINS


def _top_k_nodes(scores: dict[int, float], k: int = 10) -> set[int]:
    """Top-k by score among nodes with positive score; ties break by
    ascending node index. Shrinks when fewer are available."""
    ranked = sorted(((s, v) for v, s in scores.items() if s > 0),
                    key=lambda sv: (-sv[0], sv[1]))
    return {v for _, v in ranked[:k]}


def centrality_jaccard(sim: LogView, gt: LogView, kind: str) -> tuple[float, list[str]]:
    """Mean daily Jaccard similarity of top-10 node sets by degree or
    betweenness centrality on the daily directed simple graphs of two views
    of the same window."""
    sim_days = sim.daily()
    gt_days = gt.daily()
    flags = []
    vals = []
    for d in sorted(sim_days):
        es, eg = sim_days[d], gt_days[d]
        if not es and not eg:
            flags.append(f"day {d}: empty in both logs, skipped")
            continue
        tops = []
        for edges in (es, eg):
            if kind == "degree":
                scores: dict[int, float] = Counter()
                for u, v in edges:
                    scores[u] += 1
                    scores[v] += 1
            elif kind == "betweenness":
                scores = _betweenness(edges)
            else:
                raise MetricError(f"unknown centrality kind {kind!r}")
            top = _top_k_nodes(dict(scores))
            if 0 < len(top) < 10:
                flags.append(f"day {d}: only {len(top)} nodes with nonzero {kind}")
            tops.append(top)
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


def _trigger_set(triggers) -> set[int]:
    """Accept a TriggerPlan-like object or a plain collection of indices."""
    return set(getattr(triggers, "trigger_agents", triggers) or ())


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
                            e.ts, e.kind, e.thread_id, e.body))
    return EventLog(tuple(log.agents[i] for i in keep), tuple(events))


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
            "metrics": [
                {"name": e.name, "category": e.category, "value": e.value,
                 "direction": e.direction, "flags": list(e.flags), "skipped": e.skipped}
                for e in self.entries
            ],
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


def evaluate_all(sim: EventLog, gt: EventLog, trigger_agents,
                 window: tuple[int, int]) -> MetricsReport:
    """Run the full 15-metric suite on the non-trigger subnetwork."""
    if sim.agents != gt.agents:
        raise MetricError("sim and gt registries differ")
    t0, t1 = window
    triggers = _trigger_set(trigger_agents)
    sim_x = log_window(exclude_triggers(sim, triggers), t0, t1)
    gt_x = log_window(exclude_triggers(gt, triggers), t0, t1)

    sim_v, gt_v = log_view(sim_x, window), log_view(gt_x, window)
    suite = {
        "r24": lambda: r24_err(sim_x, gt_x, window),
        "hod": lambda: hod_emd(sim_x, gt_x),
        "wknd_drop": lambda: wknd_drop_err(sim_x, gt_x, window),
        "burst": lambda: burstiness_emd(sim_x, gt_x),
        "2eg_2h": lambda: motif_jsd(sim_v, gt_v, 2, 2 * 3600),
        "2eg_8h": lambda: motif_jsd(sim_v, gt_v, 2, 8 * 3600),
        "3eg_24h": lambda: motif_jsd(sim_v, gt_v, 3, 24 * 3600),
        "3eg_48h": lambda: motif_jsd(sim_v, gt_v, 3, 48 * 3600),
        "degdist": lambda: degdist_emd(sim_v, gt_v),
        "trans": lambda: topology_rmse(daily_topology_series(sim_v, "transitivity"),
                                       daily_topology_series(gt_v, "transitivity")),
        "globeff": lambda: topology_rmse(daily_topology_series(sim_v, "global_efficiency"),
                                         daily_topology_series(gt_v, "global_efficiency")),
        "recip": lambda: topology_rmse(daily_topology_series(sim_v, "reciprocity"),
                                       daily_topology_series(gt_v, "reciprocity")),
        "topo_ovlp": lambda: topo_overlap_emd(sim_v, gt_v),
        "degcen": lambda: centrality_jaccard(sim_v, gt_v, "degree"),
        "betwcen": lambda: centrality_jaccard(sim_v, gt_v, "betweenness"),
    }
    entries = []
    for name, metric in suite.items():
        direction = "higher" if name in HIGHER_IS_BETTER else "lower"
        try:
            res = metric()
        except MetricError as exc:
            entries.append(MetricEntry(name, CATEGORY_OF[name], None, direction,
                                       skipped=str(exc)))
            continue
        value, flags = res if isinstance(res, tuple) else (res, ())
        entries.append(MetricEntry(name, CATEGORY_OF[name], float(value), direction,
                                   tuple(flags)))

    return MetricsReport(tuple(entries), window, sim_x.n_agents)


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
