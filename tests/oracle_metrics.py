"""The pairwise fidelity suite that `metrics.SUITE` replaced, kept as the
oracle of the summarize/compare split.

Each function takes the sim and gt logs (or views) together, as the suite
did before every metric became a per-log part plus a comparison;
`oracle_evaluate_all` is the old `evaluate_all` body. `hod_histogram` and
`ego_overlap_values` are the loops the library's versions replaced, and
`scan_motif_census_2`/`scan_motif_census_3` are the per-anchor scans the
array censuses replaced. `oracle_log_view` is the old path from a log to its
view: a windowed log, then a trigger-free log, then its `edges()` list.
`oracle_sample_emd` is the SciPy call that `metrics.sample_emd` replaced.
`classify_pair` is the per-pair rule that `motif_census_2` applies to arrays.
`oracle_betweenness` is the per-graph Brandes loop that the batched
`_betweenness_days` replaced.
"""

import bisect
import itertools
import math
from collections import Counter

import numpy as np

from commsim import timeutil
from commsim.corpus import EventLog, lag24_weekday_autocorr, node_burstiness
from commsim.corpus import window as log_window
from commsim.metrics import (CATEGORY_OF, HIGHER_IS_BETTER, MOTIF2_CLASSES, MOTIF3_CLASSES,
                             TOPO_OVERLAP_BINS, LogView, MetricEntry, MetricError, MetricsReport,
                             MotifCensus, _check_deltas, _degrees, _global_efficiency,
                             _reciprocity, _top_k_nodes, _transitivity, _trigger_set,
                             daily_topology_series, emd_1d, exclude_triggers, jsd,
                             motif_census_2, motif_census_3, topology_rmse,
                             weekend_weekday_ratio)


def classify_pair(u1: int, v1: int, u2: int, v2: int) -> str:
    """Class of the ordered pair (u1->v1, u2->v2) of two edges that share a
    node. Assumes no self-loops."""
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
    return "chain_backward"


def oracle_daily_edge_sets(edges, window: tuple[int, int]) -> dict[int, set[tuple[int, int]]]:
    """Directed simple edges per UTC day bucket of a nonempty window, one
    `add` per edge of a self-loop-free edge stream."""
    t0, t1 = window
    days = {d: set() for d in range(timeutil.day_index(t0), timeutil.day_index(t1 - 1) + 1)}
    for u, v, t in edges:
        if t0 <= t < t1:
            days[timeutil.day_index(t)].add((u, v))
    return days


def oracle_log_view(log: EventLog, window: tuple[int, int], triggers=()) -> LogView:
    """`log_view(log, window, triggers)` by way of the derived logs: the
    window, then `exclude_triggers`, then the edge list."""
    x = exclude_triggers(log_window(log, *window), _trigger_set(triggers))
    edges = x.edges()
    t0, t1 = window
    days = oracle_daily_edge_sets(edges, window) if t1 > t0 else None
    u, v, t = np.array(edges, dtype=np.int64).reshape(-1, 3).T.copy()
    return LogView(window, x.n_agents, x.ts, x.senders, u, v, t, days)


def view_edges(view: LogView) -> list[tuple[int, int, int]]:
    """A view's edge columns as the (u, v, t) list `EventLog.edges` gives."""
    return list(zip(view.u.tolist(), view.v.tolist(), view.t.tolist()))


def r24_err(sim: EventLog, gt: EventLog, window: tuple[int, int]) -> tuple[float, list[str]]:
    """Absolute difference of lag-24 weekday autocorrelation of hourly
    activity. A constant (or too short) series yields rho = 0, flagged."""
    t0, t1 = window
    rho_s, deg_s = lag24_weekday_autocorr(sim.ts, t0, t1)
    rho_g, deg_g = lag24_weekday_autocorr(gt.ts, t0, t1)
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


def wknd_drop_err(sim: EventLog, gt: EventLog, window: tuple[int, int]) -> float:
    return abs(weekend_weekday_ratio(sim.ts, window) - weekend_weekday_ratio(gt.ts, window))


def scipy_ends_with_vecdot() -> bool:
    """Whether SciPy's `_cdf_distance` sums with `np_vecdot` (`np.vecdot` on
    numpy 2), as `metrics.sample_emd` does, rather than `np.sum`."""
    from scipy.stats import _stats_py

    return hasattr(_stats_py, "np_vecdot")


def oracle_sample_emd(xs, ys) -> float:
    """Exact 1-D Wasserstein distance between two empirical samples."""
    from scipy.stats import wasserstein_distance

    xs, ys = np.asarray(xs, dtype=float), np.asarray(ys, dtype=float)
    if len(xs) == 0 or len(ys) == 0:
        raise MetricError("empty sample")
    return float(wasserstein_distance(xs, ys))


def burstiness_emd(sim: EventLog, gt: EventLog) -> float:
    """EMD between the node-level burstiness samples of the two logs."""
    bs = list(node_burstiness(sim).values())
    bg = list(node_burstiness(gt).values())
    if not bs or not bg:
        raise MetricError("no node with enough events for burstiness")
    return oracle_sample_emd(bs, bg)


def node_index(edges) -> dict[int, tuple[list[int], list[int]]]:
    """node -> (times, edge indices) of every edge it sends or receives, in
    edge order. Edges are time-sorted, so each `times` list is too."""
    by_node: dict[int, tuple[list[int], list[int]]] = {}
    for k, (u, v, t) in enumerate(edges):
        for node in (u, v):
            times, idxs = by_node.setdefault(node, ([], []))
            times.append(t)
            idxs.append(k)
    return by_node


def _later_edges(edges, by_node, x, y, t1, horizon) -> list[tuple[int, int, int]]:
    """The edges, in edge order, that touch x or y with time in
    (t1, t1 + horizon]; an x<->y edge is in both nodes' indexes, listed once."""
    cand: set[int] = set()
    for node in (x, y):
        times, idxs = by_node[node]
        cand.update(idxs[bisect.bisect_right(times, t1):bisect.bisect_right(times, t1 + horizon)])
    return [edges[k] for k in sorted(cand)]


def _cumulative(bands, deltas) -> tuple[MotifCensus, ...]:
    """The census at deltas[k] sums bands 0..k."""
    sums = itertools.accumulate(bands, lambda a, b: {cls: a[cls] + b[cls] for cls in a})
    return tuple(MotifCensus(counts, delta) for counts, delta in zip(sums, deltas))


def scan_motif_census_2(view: LogView, *deltas: int) -> tuple[MotifCensus, ...]:
    """One census per delta of the ordered pairs (e1, e2) of node-sharing
    edges with 0 < t2 - t1 <= delta, in the six 2-edge classes. Exact, from
    one scan at the largest delta over each e1's endpoints' later edges."""
    _check_deltas(deltas)
    bands = [dict.fromkeys(MOTIF2_CLASSES, 0) for _ in deltas]
    edges = view_edges(view)
    by_node = node_index(edges)
    for x, y, t1 in edges:
        for u2, v2, t2 in _later_edges(edges, by_node, x, y, t1, deltas[-1]):
            bands[bisect.bisect_left(deltas, t2 - t1)][classify_pair(x, y, u2, v2)] += 1
    return _cumulative(bands, deltas)


def scan_motif_census_3(view: LogView, *deltas: int) -> tuple[MotifCensus, ...]:
    """One census per delta of the strictly time-ordered edge triples
    (e1, e2, e3) with t2 - t1 and t3 - t1 in (0, delta] that match one of
    the five 3-edge classes, from one scan at the largest delta.

    For an anchor e1 = x->y only x's and y's later edges are visited.
    Earlier candidates are tallied by endpoint pair so each class reduces to
    a lookup, one equal-timestamp group at a time, so equal timestamps never
    satisfy the strict ordering.
    """
    _check_deltas(deltas)
    bands = [dict.fromkeys(MOTIF3_CLASSES, 0) for _ in deltas]
    edges = view_edges(view)
    by_node = node_index(edges)
    for x, y, t1 in edges:
        later = _later_edges(edges, by_node, x, y, t1, deltas[-1])
        if len(later) < 2:
            continue
        cnt2: Counter = Counter()
        for t3, group in itertools.groupby(later, key=lambda e: e[2]):
            # process one equal-timestamp group as potential third edges,
            # then admit the group as potential second edges
            group = list(group)
            counts = bands[bisect.bisect_left(deltas, t3 - t1)]
            for a, b, _ in group:
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
            for a, b, _ in group:
                cnt2[(a, b)] += 1
    return _cumulative(bands, deltas)


def motif_jsd(sim: LogView, gt: LogView, arity: int, delta: int) -> tuple[float, list[str]]:
    """JSD between motif class distributions; an empty census is treated as
    uniform and flagged."""
    census = motif_census_2 if arity == 2 else motif_census_3
    flags = []
    dists = []
    for name, view in (("sim", sim), ("gt", gt)):
        arr = census(view, delta)[0].as_array()
        if arr.sum() == 0:
            arr = np.ones_like(arr)
            flags.append(f"{name}: zero motifs, uniform assumed")
        dists.append(arr)
    return jsd(dists[0], dists[1]), flags


def degdist_emd(sim: LogView, gt: LogView) -> float:
    """Mean over days of the EMD between total-degree histograms (unit
    distance = one degree)."""
    sim_days = daily_topology_series(sim, _degrees)
    gt_days = daily_topology_series(gt, _degrees)
    vals = []
    for ds, dg in zip(sim_days, gt_days):
        top = int(max(ds.max(initial=0), dg.max(initial=0)))
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


def oracle_betweenness(edge_set) -> dict[int, float]:
    """Unnormalized directed betweenness of the nodes the edges touch
    (Brandes 2001), float for float what NetworkX's betweenness_centrality
    gives for the DiGraph built by add_edges_from(edge_set).

    Nodes are numbered, and successor lists filled, in the order that graph
    would insert them, so sources, BFS queues, predecessor lists and the
    reverse stack run in NetworkX's order and every sum adds the same floats
    in the same order. A source without out-edges adds nothing and is
    skipped; the directed unnormalized rescale multiplies by 1.

    The per-graph loop that `metrics._betweenness_days` replaced."""
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
                scores = oracle_betweenness(edges)
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


def oracle_evaluate_all(sim: EventLog, gt: EventLog, trigger_agents,
                        window: tuple[int, int]) -> MetricsReport:
    """Run the full 15-metric suite on the non-trigger subnetwork."""
    if sim.agents != gt.agents:
        raise MetricError("sim and gt registries differ")
    t0, t1 = window
    triggers = _trigger_set(trigger_agents)
    sim_x = log_window(exclude_triggers(sim, triggers), t0, t1)
    gt_x = log_window(exclude_triggers(gt, triggers), t0, t1)

    sim_v, gt_v = oracle_log_view(sim_x, window), oracle_log_view(gt_x, window)
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
        "trans": lambda: topology_rmse(daily_topology_series(sim_v, _transitivity),
                                       daily_topology_series(gt_v, _transitivity)),
        "globeff": lambda: topology_rmse(daily_topology_series(sim_v, _global_efficiency),
                                         daily_topology_series(gt_v, _global_efficiency)),
        "recip": lambda: topology_rmse(daily_topology_series(sim_v, _reciprocity),
                                       daily_topology_series(gt_v, _reciprocity)),
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

