import bisect
import itertools
import math
from collections import Counter

import networkx as nx
import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from commsim import corpus, metrics
from commsim.metrics import (MOTIF2_CLASSES, MetricError, MotifCensus, emd_1d,
                             jsd, motif_census_2, motif_census_3, regret, sample_emd)

from conftest import BASE_MONDAY, fixture_log, make_log, random_log, run_metric, view
from oracle_metrics import (classify_pair, node_index, oracle_sample_emd, scan_motif_census_2,
                            scan_motif_census_3, scipy_ends_with_vecdot, view_edges)

DAY = 86400
HOUR = 3600


# ---------------------------------------------------------------------------
# oracles


def emd_lp_oracle(p, q):
    """Optimal-transport LP over all bin pairs with |i - j| ground cost."""
    from scipy.optimize import linprog

    p = np.asarray(p, dtype=float) / np.sum(p)
    q = np.asarray(q, dtype=float) / np.sum(q)
    n = len(p)
    cost = np.array([abs(i - j) for i in range(n) for j in range(n)], dtype=float)
    a_eq = np.zeros((2 * n, n * n))
    for i in range(n):
        for j in range(n):
            a_eq[i, i * n + j] = 1.0
            a_eq[n + j, i * n + j] = 1.0
    res = linprog(cost, A_eq=a_eq, b_eq=np.concatenate([p, q]),
                  bounds=(0, None), method="highs")
    assert res.success
    return res.fun


def classify_pair_oracle(e1, e2):
    """Literal, one-check-per-class classification; asserts exclusivity."""
    (u1, v1), (u2, v2) = e1, e2
    matches = []
    if (u2, v2) == (v1, u1):
        matches.append("reciprocal")
    if (u2, v2) == (u1, v1):
        matches.append("repeated")
    if u2 == u1 and v2 != v1:
        matches.append("out_star")
    if v2 == v1 and u2 != u1:
        matches.append("in_star")
    if u2 == v1 and v2 != u1:
        matches.append("chain_forward")
    if v2 == u1 and u2 != v1:
        matches.append("chain_backward")
    assert len(matches) <= 1, (e1, e2, matches)
    return matches[0] if matches else None


def brute_motif2(edges, delta):
    counts = Counter()
    for (u1, v1, t1), (u2, v2, t2) in itertools.product(edges, repeat=2):
        if 0 < t2 - t1 <= delta:
            cls = classify_pair_oracle((u1, v1), (u2, v2))
            if cls:
                counts[cls] += 1
    return counts


def classify_triple_oracle(e1, e2, e3):
    (a, b), (c, d), (e, f) = e1, e2, e3
    matches = []
    if (c, d) == (b, a) and (e, f) == (a, b):
        matches.append("dyad_alternation")
    if (c, d) == (a, b) and (e, f) == (b, a):
        matches.append("dyad_burst_reply")
    if c == b and d not in (a, b) and (e, f) == (a, d):
        matches.append("feed_forward_closure")
    if c == b and d not in (a, b) and (e, f) == (d, a):
        matches.append("three_cycle")
    if c == a and d not in (a, b) and (e, f) in ((b, d), (d, b)):
        matches.append("broadcast_cross_link")
    assert len(matches) <= 1, (e1, e2, e3, matches)
    return matches[0] if matches else None


def brute_motif3(edges, delta):
    counts = Counter()
    m = len(edges)
    for i in range(m):
        u1, v1, t1 = edges[i]
        for j in range(m):
            u2, v2, t2 = edges[j]
            if not (t1 < t2 <= t1 + delta):
                continue
            for k in range(m):
                u3, v3, t3 = edges[k]
                if not (t2 < t3 <= t1 + delta):
                    continue
                cls = classify_triple_oracle((u1, v1), (u2, v2), (u3, v3))
                if cls:
                    counts[cls] += 1
    return counts


def oracle_motif_census_3(log, delta):
    """The anchor scan `motif_census_3` used before its endpoint restriction:
    every edge in (t1, t1 + delta] is visited for each anchor e1 = x->y."""
    edges = log.edges()
    times = [t for _, _, t in edges]
    counts = dict.fromkeys(metrics.MOTIF3_CLASSES, 0)
    for i, (x, y, t1) in enumerate(edges):
        lo = bisect.bisect_right(times, t1)
        hi = bisect.bisect_right(times, t1 + delta)
        if hi - lo < 2:
            continue
        cnt2: Counter = Counter()
        j = lo
        while j < hi:
            g = j
            while g < hi and times[g] == times[j]:
                g += 1
            for k in range(j, g):
                a, b, _ = edges[k]
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
            for k in range(j, g):
                a, b, _ = edges[k]
                cnt2[(a, b)] += 1
            j = g
    return counts


def oracle_motif_census_2(view, delta):
    """The one-delta `motif_census_2` that scanned back from each e2 over its
    endpoints' per-node time indexes, before the multi-delta census."""
    edges = view_edges(view)
    by_node = node_index(edges)
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


# ---------------------------------------------------------------------------
# distance primitives


def test_emd_trivial():
    assert emd_1d([0.25, 0.75], [0.25, 0.75]) == 0.0
    assert emd_1d([1.0, 0.0], [0.0, 1.0]) == 1.0
    with pytest.raises(MetricError):
        emd_1d([1.0], [0.5, 0.5])
    with pytest.raises(MetricError):
        emd_1d([0.0, 0.0], [0.5, 0.5])  # all-zero histogram cannot normalize


def test_emd_matches_lp_oracle():
    rng = np.random.default_rng(11)
    for _ in range(8):
        p = rng.random(24)
        q = rng.random(24)
        assert emd_1d(p, q) == pytest.approx(emd_lp_oracle(p, q), abs=1e-9)


@st.composite
def emd_samples(draw):
    """Two samples at one of seven magnitudes from 1e-300 to 1e300, drawn
    from a shared pool of values so both hold ties, within and across."""
    scale = draw(st.sampled_from([1e-300, 1e-150, 1e-8, 1.0, 1e8, 1e150, 1e300]))
    pool = draw(st.lists(st.sampled_from([0.0, -0.0]) | st.floats(-1.0, 1.0),
                         min_size=1, max_size=12))
    value = st.sampled_from(pool).map(lambda v: v * scale) | st.floats(-scale, scale)
    return (draw(st.lists(value, min_size=1, max_size=40)),
            draw(st.lists(value, min_size=1, max_size=40)))


def _bits(x: float) -> bytes:
    return np.float64(x).tobytes()


@settings(max_examples=400, deadline=None)
@given(emd_samples())
@example(([0.0], [-0.0]))
@example(([-0.0], [0.0, 0.0, -0.0]))
@example(([1e300], [-1e300, 1e300]))
@example(([5e-324], [0.0]))
def test_sample_emd_matches_scipy(samples):
    """The kernel returns the float SciPy's wasserstein_distance returns,
    signed zeros included. SciPy releases whose `_cdf_distance` predates
    `np_vecdot` end with `np.sum(np.multiply(...))` on every numpy, so there
    the kernel's last step is held to that sum; its other steps stay checked."""
    xs, ys = samples
    with pytest.MonkeyPatch.context() as mp:
        if not scipy_ends_with_vecdot():
            mp.setattr(metrics, "_vecdot", lambda x, y: np.sum(x * y))
        assert _bits(sample_emd(xs, ys)) == _bits(oracle_sample_emd(xs, ys))
        assert _bits(sample_emd(ys, xs)) == _bits(oracle_sample_emd(ys, xs))


def test_sample_emd_cases():
    assert sample_emd([0, 1, 3], [5, 6, 8]) == 5.0
    assert sample_emd([2.5], [2.5, 2.5]) == 0.0
    assert sample_emd([0.0, 1.0], [0.0, 0.0, 1.0, 1.0]) == 0.0
    for xs, ys in (([], [1.0]), ([1.0], []), ([], [])):
        with pytest.raises(MetricError, match="empty sample"):
            sample_emd(xs, ys)


def test_jsd_trivial_and_formula():
    assert jsd([0.3, 0.7], [0.3, 0.7]) == 0.0
    assert jsd([1.0, 0.0], [0.0, 1.0]) == pytest.approx(1.0)
    p, q = np.array([0.5, 0.5]), np.array([0.9, 0.1])
    m = (p + q) / 2
    expected = 0.5 * sum(pi * math.log2(pi / mi) for pi, mi in zip(p, m) if pi) \
        + 0.5 * sum(qi * math.log2(qi / mi) for qi, mi in zip(q, m) if qi)
    assert jsd(p, q) == pytest.approx(expected, rel=1e-12)


@given(st.lists(st.floats(0.01, 10.0), min_size=2, max_size=24),
       st.lists(st.floats(0.01, 10.0), min_size=2, max_size=24))
def test_symmetry_properties(a, b):
    n = min(len(a), len(b))
    p, q = a[:n], b[:n]
    assert emd_1d(p, q) == pytest.approx(emd_1d(q, p), rel=1e-12)
    assert jsd(p, q) == pytest.approx(jsd(q, p), rel=1e-12)
    assert emd_1d(p, q) >= 0
    assert 0 <= jsd(p, q) <= 1 + 1e-12
    assert emd_1d(p, p) == 0.0
    assert jsd(p, p) == 0.0


# ---------------------------------------------------------------------------
# rhythms


def test_r24_identity(mini_log):
    span = (mini_log.events[0].ts, mini_log.events[-1].ts + 1)
    err, flags = run_metric("r24", view(mini_log, span), view(mini_log, span))
    assert err == 0.0 and not flags


def test_r24_periodic_vs_noise():
    days = 14
    window = (BASE_MONDAY, BASE_MONDAY + days * DAY)
    periodic = make_log([(0, 1, BASE_MONDAY + d * DAY + h * HOUR)
                         for d in range(days) for h in (9, 10, 11)], n_agents=2)
    rng = np.random.default_rng(3)
    noise = make_log([(0, 1, int(t)) for t in
                      np.sort(rng.integers(window[0], window[1], size=14 * 3))],
                     n_agents=2)
    err, _ = run_metric("r24", view(noise, window), view(periodic, window))
    assert err == pytest.approx(1.0, abs=0.1)
    # a 24h shift leaves the lag-24 autocorrelation of the periodic series
    # unchanged (each log over its own span)
    from commsim.corpus import lag24_weekday_autocorr

    shifted = make_log([(e.sender, e.recipients, e.ts + DAY)
                        for e in periodic.events], n_agents=2)
    rho_orig, _ = lag24_weekday_autocorr(periodic.ts, *window)
    rho_shift, _ = lag24_weekday_autocorr(shifted.ts,
                                          window[0] + DAY, window[1] + DAY)
    assert rho_shift == pytest.approx(rho_orig, abs=1e-9)


def test_hod_and_wknd_identity(mini_log, mini_manifest):
    s0, s1 = mini_manifest["sim_window"]
    assert run_metric("hod", view(mini_log), view(mini_log)) == 0.0
    assert run_metric("wknd_drop", view(mini_log, (s0, s1)), view(mini_log, (s0, s1))) == 0.0
    assert run_metric("burst", view(mini_log), view(mini_log)) == 0.0


def test_wknd_ratio_value():
    # one week: 10 events over 5 weekdays (2/day), 2 over 2 weekend days
    # (1/day) -> R = 0.5
    events = [(0, 1, BASE_MONDAY + 9 * HOUR + i) for i in range(10)]
    events += [(0, 1, BASE_MONDAY + 5 * DAY + 9 * HOUR + i) for i in range(2)]
    log = make_log(events, n_agents=2)
    window = (BASE_MONDAY, BASE_MONDAY + 7 * DAY)
    assert metrics.weekend_weekday_ratio(log.ts, window) == pytest.approx(0.5)


# ---------------------------------------------------------------------------
# motifs


def test_motif2_trivial():
    log = make_log([(0, 1, 0), (1, 0, HOUR)])
    c = motif_census_2(view(log), 2 * HOUR)[0]
    assert c.counts["reciprocal"] == 1 and sum(c.counts.values()) == 1
    log2 = make_log([(0, 1, 0), (0, 2, HOUR)])
    c2 = motif_census_2(view(log2), 2 * HOUR)[0]
    assert c2.counts["out_star"] == 1 and sum(c2.counts.values()) == 1
    # outside the window
    log3 = make_log([(0, 1, 0), (1, 0, 3 * HOUR)])
    assert sum(motif_census_2(view(log3), 2 * HOUR)[0].counts.values()) == 0
    # simultaneous edges never pair (strict ordering)
    log4 = make_log([(0, 1, 50), (1, 0, 50)])
    assert sum(motif_census_2(view(log4), HOUR)[0].counts.values()) == 0


def test_motif3_trivial():
    log = make_log([(0, 1, 0), (1, 0, HOUR), (0, 1, 2 * HOUR)])
    c = motif_census_3(view(log), 24 * HOUR)[0]
    assert c.counts["dyad_alternation"] == 1 and sum(c.counts.values()) == 1
    log2 = make_log([(0, 1, 0), (1, 2, HOUR), (2, 0, 2 * HOUR)])
    c2 = motif_census_3(view(log2), 24 * HOUR)[0]
    assert c2.counts["three_cycle"] == 1 and sum(c2.counts.values()) == 1
    log3 = make_log([(0, 1, 0), (0, 2, HOUR), (1, 2, 2 * HOUR)])
    assert motif_census_3(view(log3), 24 * HOUR)[0].counts["broadcast_cross_link"] == 1
    log4 = make_log([(0, 1, 0), (1, 2, HOUR), (0, 2, 2 * HOUR)])
    assert motif_census_3(view(log4), 24 * HOUR)[0].counts["feed_forward_closure"] == 1
    log5 = make_log([(0, 1, 0), (0, 1, HOUR), (1, 0, 2 * HOUR)])
    assert motif_census_3(view(log5), 24 * HOUR)[0].counts["dyad_burst_reply"] == 1


@pytest.mark.parametrize("seed", range(6))
def test_motif2_matches_bruteforce(seed):
    rng = np.random.default_rng(100 + seed)
    log = random_log(rng, n_agents=5, n_events=80, t0=0, span=12 * HOUR,
                     multi_prob=0.2)
    edges = log.edges()
    for delta in (15 * 60, 2 * HOUR, 8 * HOUR):
        got = motif_census_2(view(log), delta)[0].counts
        want = brute_motif2(edges, delta)
        assert got == {k: want.get(k, 0) for k in got}


@pytest.mark.parametrize("seed", range(6))
def test_motif3_matches_bruteforce(seed):
    rng = np.random.default_rng(200 + seed)
    log = random_log(rng, n_agents=4, n_events=40, t0=0, span=10 * HOUR,
                     multi_prob=0.2)
    edges = log.edges()
    for delta in (HOUR, 4 * HOUR):
        got = motif_census_3(view(log), delta)[0].counts
        want = brute_motif3(edges, delta)
        assert got == {k: want.get(k, 0) for k in got}


@st.composite
def census_logs(draw):
    """20-60 agents and 300-800 edges, so most edges in an anchor's window
    miss both its endpoints. A fifth of the events share the previous
    timestamp, a fifth are replies to a recent event, a quarter of the rest
    go to 2-4 recipients, and some also address their sender; volume is
    heavy-tailed over agents so dyads and triangles recur."""
    n = draw(st.integers(20, 60))
    n_edges = draw(st.integers(300, 800))
    span = draw(st.sampled_from([12 * HOUR, 3 * DAY, 10 * DAY]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    weight = rng.permutation(1.0 / np.arange(1, n + 1))
    weight /= weight.sum()
    records, edges, ts = [], 0, 0
    while edges < n_edges:
        if rng.random() >= 0.2:
            ts += int(rng.exponential(span / n_edges)) + 1
        if records and rng.random() < 0.2:
            prev_sender, prev_rcpts, _ = records[-int(rng.integers(1, min(10, len(records)) + 1))]
            sender, rcpts = int(rng.choice(prev_rcpts)), (prev_sender,)
        else:
            sender = int(rng.choice(n, p=weight))
            k = 1 if rng.random() < 0.75 else int(rng.integers(2, 5))
            rcpts = tuple(int(r) for r in rng.choice(n, size=k, replace=False, p=weight))
        if rng.random() < 0.05 and sender not in rcpts:
            rcpts += (sender,)
        records.append((sender, rcpts, ts))
        edges += sum(r != sender for r in rcpts)
    return make_log(records, n_agents=n)


@settings(max_examples=20, deadline=None)
@given(census_logs(), st.sampled_from([HOUR, 24 * HOUR, 48 * HOUR]))
def test_motif3_matches_anchor_scan_oracle(log, delta):
    assert motif_census_3(view(log), delta)[0].counts == oracle_motif_census_3(log, delta)


@st.composite
def grid_logs(draw):
    """3-12 agents and 10-150 events on a whole-hour grid, so many spans
    t3 - t1 or t2 - t1 fall exactly on a delta; a third of the steps are 0, so
    events share timestamps. A fifth of the events go to 2-4 recipients, and
    recipients are drawn from all agents, so some address their sender."""
    n = draw(st.integers(3, 12))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    records, ts = [], 0
    for _ in range(draw(st.integers(10, 150))):
        ts += HOUR * int(rng.choice([0, 0, 0, 1, 1, 2, 6, 8, 16, 24]))
        k = 1 if rng.random() < 0.8 else int(rng.integers(2, min(4, n) + 1))
        rcpts = tuple(int(r) for r in rng.choice(n, size=k, replace=False))
        records.append((int(rng.integers(n)), rcpts, ts))
    return make_log(records, n_agents=n)


@settings(max_examples=40, deadline=None)
@given(st.one_of(grid_logs(), census_logs()),
       st.sampled_from([(HOUR,), (2 * HOUR, 8 * HOUR), (24 * HOUR, 48 * HOUR),
                        (HOUR, 2 * HOUR, 8 * HOUR, 24 * HOUR)]))
def test_multi_delta_censuses_match_per_delta_oracles(log, deltas):
    """One multi-delta call equals one oracle census per delta, both arities."""
    v = view(log)
    for census, oracle in ((motif_census_2, lambda d: oracle_motif_census_2(v, d).counts),
                           (motif_census_3, lambda d: oracle_motif_census_3(log, d))):
        got = census(v, *deltas)
        assert [c.delta for c in got] == list(deltas)
        for c in got:
            assert c.counts == oracle(c.delta)
            assert all(type(n) is int for n in c.counts.values())


SCANS = ((motif_census_2, scan_motif_census_2), (motif_census_3, scan_motif_census_3))


@settings(max_examples=40, deadline=None)
@given(st.one_of(grid_logs(), census_logs()))
def test_array_censuses_match_scan_oracles(log):
    """Both array censuses equal the per-anchor scans at the suite's delta
    pairs."""
    v = view(log)
    for census, scan in SCANS:
        for deltas in ((2 * HOUR, 8 * HOUR), (24 * HOUR, 48 * HOUR)):
            got = census(v, *deltas)
            assert got == scan(v, *deltas)
            assert all(type(n) is int for c in got for n in c.counts.values())


@pytest.mark.parametrize("log, motifs", [
    (make_log([], n_agents=3), False),  # empty window
    (make_log([(0, 1, 0)]), False),
    (make_log([(0, 1, 5), (1, 0, 5), (1, 2, 5), (2, 0, 5), (0, 2, 5)]), False),
    (make_log([(0, (0, 1, 2), 0), (1, (1, 0), HOUR), (2, (0, 2, 1), HOUR),
               (0, (1, 0), 2 * HOUR), (1, (2, 1), 3 * HOUR)]), True),
], ids=["empty_window", "one_edge", "one_timestamp", "self_addressed_multi_recipient"])
def test_census_edge_cases_match_scan_oracles(log, motifs):
    v = view(log)
    for census, scan in SCANS:
        got = census(v, HOUR, 2 * HOUR, 48 * HOUR)
        assert got == scan(v, HOUR, 2 * HOUR, 48 * HOUR)
        assert (sum(got[-1].counts.values()) > 0) == motifs


@pytest.mark.parametrize("census", [motif_census_2, motif_census_3])
@pytest.mark.parametrize("deltas", [(), (2 * HOUR, 2 * HOUR), (8 * HOUR, 2 * HOUR),
                                    (HOUR, 8 * HOUR, 2 * HOUR)])
def test_census_deltas_must_ascend(census, deltas):
    for records in ([(0, 1, 0), (1, 0, HOUR)], []):
        with pytest.raises(MetricError, match="strictly ascending"):
            census(view(make_log(records, n_agents=2)), *deltas)


def test_summarize_scans_each_arity_once(monkeypatch):
    calls = Counter()
    for name in ("motif_census_2", "motif_census_3"):
        def counted(*args, _fn=getattr(metrics, name), _name=name):
            calls[_name] += 1
            return _fn(*args)
        monkeypatch.setattr(metrics, name, counted)
    log = fixture_log(3)
    metrics.summarize(log, (), (log.events[0].ts, log.events[-1].ts + 1))
    assert calls == {"motif_census_2": 1, "motif_census_3": 1}


def test_motif_resort_invariance():
    # equal-timestamp events re-sorted by id must not change any census
    records = [(0, 1, 100), (1, 2, 100), (2, 0, 100), (0, 2, 4000), (1, 0, 4000)]
    log_a = make_log(records)
    log_b = make_log(list(reversed(records)))
    for delta in (HOUR, 8 * HOUR):
        assert motif_census_2(view(log_a), delta)[0].counts == motif_census_2(view(log_b), delta)[0].counts
        assert motif_census_3(view(log_a), delta)[0].counts == motif_census_3(view(log_b), delta)[0].counts


def test_motif_jsd():
    log = make_log([(0, 1, 0), (1, 0, HOUR)])
    val, flags = run_metric("2eg_2h", view(log), view(log))
    assert val == 0.0 and not flags
    out_star = make_log([(0, 1, 0), (0, 2, HOUR)])
    in_star = make_log([(1, 0, 0), (2, 0, HOUR)])
    val, _ = run_metric("2eg_2h", view(out_star), view(in_star))
    assert val == pytest.approx(1.0)
    empty = make_log([(0, 1, 0)], n_agents=3)
    val, flags = run_metric("2eg_2h", view(empty), view(out_star))
    assert flags and "uniform" in flags[0]


# ---------------------------------------------------------------------------
# daily topology


def test_daily_triangle_identity():
    days = 3
    records = []
    for d in range(days):
        t = BASE_MONDAY + d * DAY + 9 * HOUR
        records += [(0, 1, t), (1, 0, t + 1), (1, 2, t + 2), (2, 1, t + 3),
                    (2, 0, t + 4), (0, 2, t + 5)]
    log = make_log(records)
    window = (BASE_MONDAY, BASE_MONDAY + days * DAY)
    trans = metrics.daily_topology_series(view(log, window), metrics._transitivity)
    recip = metrics.daily_topology_series(view(log, window), metrics._reciprocity)
    assert trans == [1.0] * days and recip == [1.0] * days
    assert metrics.topology_rmse(trans, trans) == 0.0
    assert run_metric("degdist", view(log, window), view(log, window)) == 0.0


def test_global_efficiency_path():
    log = make_log([(0, 1, BASE_MONDAY + 10), (1, 2, BASE_MONDAY + 20)], n_agents=3)
    window = (BASE_MONDAY, BASE_MONDAY + DAY)
    eff = metrics.daily_topology_series(view(log, window), metrics._global_efficiency)
    assert eff == [pytest.approx(5 / 6)]


def test_daily_fixture_hand_values():
    # one day: edges a->b, b->a, b->c, c->d over 4 registry nodes
    t = BASE_MONDAY + 8 * HOUR
    log = make_log([(0, 1, t), (1, 0, t + 60), (1, 2, t + 120), (2, 3, t + 180)])
    window = (BASE_MONDAY, BASE_MONDAY + DAY)
    assert metrics.daily_topology_series(view(log, window), metrics._reciprocity) == [0.5]
    assert metrics.daily_topology_series(view(log, window), metrics._transitivity) == [0.0]
    assert metrics.daily_topology_series(view(log, window), metrics._global_efficiency) == \
        [pytest.approx(13 / 18)]
    (deg,) = metrics.daily_topology_series(view(log, window), metrics._degrees)
    assert deg.tolist() == [2, 3, 2, 1]


def test_degdist_detects_shift():
    t = BASE_MONDAY + 8 * HOUR
    hub = make_log([(0, i, t + i) for i in range(1, 5)], n_agents=5)
    chain = make_log([(i, i + 1, t + i) for i in range(4)], n_agents=5)
    window = (BASE_MONDAY, BASE_MONDAY + DAY)
    assert run_metric("degdist", view(hub, window), view(chain, window)) > 0


def test_topo_overlap():
    # identical neighborhoods on consecutive days -> C = 1 for every node
    records = []
    for d in range(2):
        t = BASE_MONDAY + d * DAY + 9 * HOUR
        records += [(0, 1, t), (0, 2, t + 1), (1, 2, t + 2)]
    log = make_log(records)
    window = (BASE_MONDAY, BASE_MONDAY + 2 * DAY)
    vals = metrics.ego_overlap_values(view(log, window))
    assert vals == {0: 1.0, 1: 1.0, 2: 1.0}
    assert run_metric("topo_ovlp", view(log, window), view(log, window)) == 0.0
    # disjoint neighborhoods -> C = 0
    rec2 = [(0, 1, BASE_MONDAY + 9 * HOUR), (0, 2, BASE_MONDAY + DAY + 9 * HOUR)]
    log2 = make_log(rec2)
    assert metrics.ego_overlap_values(view(log2, window))[0] == 0.0


def test_topo_overlap_oracle():
    rng = np.random.default_rng(5)
    log = random_log(rng, n_agents=6, n_events=120, t0=BASE_MONDAY, span=4 * DAY)
    window = (BASE_MONDAY, BASE_MONDAY + 4 * DAY)
    got = metrics.ego_overlap_values(view(log, window))
    # independent set-arithmetic recomputation
    nbrs = {}
    for u, v, t in log.edges():
        d = (t - BASE_MONDAY) // DAY
        nbrs.setdefault(d, {}).setdefault(u, set()).add(v)
        nbrs.setdefault(d, {}).setdefault(v, set()).add(u)
    want = {}
    for v in range(6):
        cs = []
        for d in range(3):
            a = nbrs.get(d, {}).get(v, set())
            b = nbrs.get(d + 1, {}).get(v, set())
            if a and b:
                cs.append(len(a & b) / math.sqrt(len(a) * len(b)))
        if cs:
            want[v] = sum(cs) / len(cs)
    assert set(got) == set(want)
    for v in got:
        assert got[v] == pytest.approx(want[v], rel=1e-12)
        assert 0.0 <= got[v] <= 1.0


def test_centrality_jaccard():
    t = BASE_MONDAY + 9 * HOUR
    star_a = make_log([(0, i, t + i) for i in range(1, 12)], n_agents=24)
    window = (BASE_MONDAY, BASE_MONDAY + DAY)
    val, _ = run_metric("degcen", view(star_a, window), view(star_a, window))
    assert val == 1.0
    path = make_log([(i, i + 1, t + i) for i in range(11)], n_agents=24)
    val_b, _ = run_metric("betwcen", view(path, window), view(path, window))
    assert val_b == 1.0
    star_b = make_log([(12, i, t + i) for i in range(13, 24)], n_agents=24)
    val2, _ = run_metric("degcen", view(star_a, window), view(star_b, window))
    assert val2 == 0.0


def test_centrality_hub_in_intersection():
    t = BASE_MONDAY + 9 * HOUR
    sim = make_log([(0, i, t + i) for i in range(1, 8)], n_agents=12)
    gt = make_log([(0, i, t + i) for i in range(4, 11)], n_agents=12)
    window = (BASE_MONDAY, BASE_MONDAY + DAY)
    val, flags = run_metric("degcen", view(sim, window), view(gt, window))
    assert val > 0  # the hub is in both top sets


# ---------------------------------------------------------------------------
# daily-graph kernels against networkx, compared with ==


def nx_undirected(edges, n_nodes):
    g = nx.Graph()
    g.add_nodes_from(range(n_nodes))
    g.add_edges_from(edges)
    return g


@st.composite
def simple_digraphs(draw):
    """(n_nodes, edge set) of a directed simple graph over range(n_nodes).
    Nodes no edge touches stay isolated; "components" keeps only edges
    inside k blocks of nodes; "ring" adds a bidirected cycle, on which many
    nodes tie on betweenness."""
    n = draw(st.integers(0, 40))
    if n < 2:
        return n, set()
    node = st.integers(0, n - 1)
    edges = set(draw(st.lists(st.tuples(node, node), max_size=3 * n)))
    shape = draw(st.sampled_from(["random", "components", "ring"]))
    if shape == "components":
        k = draw(st.integers(2, 4))
        edges = {(u, v) for u, v in edges if u * k // n == v * k // n}
    elif shape == "ring":
        m = draw(st.integers(2, n))
        edges |= {(v, (v + 1) % m) for v in range(m)} | {((v + 1) % m, v) for v in range(m)}
    return n, {(u, v) for u, v in edges if u != v}


GRAPH_EXAMPLES = [(0, set()), (1, set()), (5, set()), (2, {(0, 1)}), (2, {(0, 1), (1, 0)}),
                  (6, {(0, 1), (1, 2), (2, 0), (3, 4)})]


def with_examples(test):
    for graph in GRAPH_EXAMPLES:
        test = example(graph)(test)
    return test


@settings(max_examples=150, deadline=None)
@given(simple_digraphs())
@with_examples
def test_transitivity_equals_networkx(graph):
    n, edges = graph
    assert metrics._transitivity(edges, n) == nx.transitivity(nx_undirected(edges, n))


@settings(max_examples=150, deadline=None)
@given(simple_digraphs())
@with_examples
def test_global_efficiency_equals_networkx(graph):
    n, edges = graph
    assert metrics._global_efficiency(edges, n) == nx.global_efficiency(nx_undirected(edges, n))


@settings(max_examples=150, deadline=None)
@given(simple_digraphs())
@with_examples
def test_betweenness_equals_networkx(graph):
    _, edges = graph
    g = nx.DiGraph()
    g.add_edges_from(edges)
    assert metrics._betweenness_days([edges]) == [nx.betweenness_centrality(g, normalized=False)]


def test_corpus_stats_graph_kernels_equal_networkx():
    log = random_log(np.random.default_rng(3), n_agents=300, n_events=600,
                     t0=BASE_MONDAY, span=14 * DAY)
    stats = metrics.corpus_stats(log)
    edges = {(u, v) for u, v, _ in log.edges()}
    g = nx_undirected(edges, log.n_agents)
    assert stats.transitivity > 0 and nx.number_connected_components(g) > 1
    assert stats.transitivity == nx.transitivity(g)
    assert stats.global_efficiency == nx.global_efficiency(g)
    dg = nx.DiGraph()
    dg.add_nodes_from(range(log.n_agents))
    dg.add_edges_from(edges)
    assert 0 < stats.reciprocity < 1
    assert stats.density == nx.density(dg)
    assert stats.reciprocity == nx.overall_reciprocity(dg)


# ---------------------------------------------------------------------------
# exclusion, regret, full suite


def test_exclude_triggers(mini_log):
    assert metrics.exclude_triggers(mini_log, set()) == mini_log
    everyone = set(range(mini_log.n_agents))
    assert len(metrics.exclude_triggers(mini_log, everyone)) == 0
    alice = mini_log.index_of("alice")
    bob = mini_log.index_of("bob")
    cut = metrics.exclude_triggers(mini_log, {alice, bob})
    # linear scan oracle
    expect = [e for e in mini_log.events
              if e.sender not in (alice, bob)
              and all(r not in (alice, bob) for r in e.recipients)]
    assert len(cut) == len(expect)
    assert "alice" not in cut.agents and "bob" not in cut.agents
    assert [cut.agents[e.sender] for e in cut.events] == \
        [mini_log.agents[e.sender] for e in expect]


def test_regret_two_by_two():
    results = {"A": {"m1": 2.0, "m2": 4.0}, "B": {"m1": 1.0, "m2": 8.0}}
    table, flags = regret(results, {"m1": "cat", "m2": "cat"})
    assert table["A"]["cat"] == pytest.approx(math.sqrt(2) - 1, abs=1e-9)
    assert table["B"]["cat"] == pytest.approx(math.sqrt(2) - 1, abs=1e-9)
    assert not flags


def test_regret_single_setting_and_floor():
    table, _ = regret({"only": {"m1": 3.0, "m2": 0.4}}, {"m1": "c1", "m2": "c2"})
    assert table["only"] == {"c1": 0.0, "c2": 0.0}
    _, flags = regret({"A": {"m": 0.0}, "B": {"m": 1.0}}, {"m": "c"})
    assert flags


def test_regret_scores_inverts_and_flags():
    entries = (
        metrics.MetricEntry("hod", "temporal_rhythms", 0.25, "lower"),
        metrics.MetricEntry("degcen", "local_topology", 0.75, "higher"),
        metrics.MetricEntry("burst", "temporal_rhythms", None, "lower",
                            skipped="no node with enough events for burstiness"),
        metrics.MetricEntry("betwcen", "local_topology", 0.0, "higher", ("day 3: empty",)),
    )
    report = metrics.MetricsReport(entries, (0, DAY), 5)
    scores, flags = metrics.regret_scores(report, "hawkes")
    assert scores == {"hod": 0.25, "degcen": 0.25, "betwcen": 1.0}
    assert flags == [
        "hawkes/degcen: inverted (1 - x) for regret",
        "hawkes/burst: skipped (no node with enough events for burstiness)",
        "hawkes/betwcen: inverted (1 - x) for regret",
    ]


def test_regret_random_matrix_oracle():
    rng = np.random.default_rng(17)
    names = [f"m{i}" for i in range(3)]
    cats = {n: "c" for n in names}
    for _ in range(5):
        mat = rng.random((3, len(names))) + 0.1
        results = {f"s{i}": {n: float(mat[i, j]) for j, n in enumerate(names)}
                   for i in range(3)}
        table, _ = regret(results, cats)
        # direct formula
        for i in range(3):
            prod = 1.0
            for j, n in enumerate(names):
                prod *= mat[i, j] / mat[:, j].min()
            assert table[f"s{i}"]["c"] == pytest.approx(prod ** (1 / 3) - 1, rel=1e-9)
            assert table[f"s{i}"]["c"] >= 0.0
        # a dominating setting has regret exactly 0
        results["best"] = {n: float(mat[:, j].min()) for j, n in enumerate(names)}
        table2, _ = regret(results, cats)
        assert table2["best"]["c"] == 0.0


def test_evaluate_all_identity():
    log = fixture_log(42)
    window = (BASE_MONDAY, BASE_MONDAY + 10 * DAY)
    report = metrics.evaluate_all(log, log, set(), window)
    assert len(report.entries) == 15
    for e in report.entries:
        assert e.skipped is None, (e.name, e.skipped)
        if e.direction == "higher":
            assert e.value == 1.0, e.name
        else:
            assert e.value == 0.0, e.name


def test_evaluate_all_degenerate_inputs(mini_log):
    # 1-day window: too short for ego overlap, autocorrelation degenerate,
    # burstiness may lack eligible nodes; the report must still list all 15
    # metrics with skip reasons or flags instead of raising
    window = (BASE_MONDAY, BASE_MONDAY + DAY)
    report = metrics.evaluate_all(mini_log, mini_log, set(), window)
    assert len(report.entries) == 15
    by_name = {e.name: e for e in report.entries}
    assert by_name["topo_ovlp"].skipped is not None
    assert by_name["r24"].flags  # degenerate series flagged, value 0
    for e in report.entries:
        assert (e.value is not None) or e.skipped


def count_daily_edge_sets(monkeypatch) -> list:
    calls = []
    daily_edge_sets = metrics.daily_edge_sets

    def counting(*args):
        calls.append(args)
        return daily_edge_sets(*args)

    monkeypatch.setattr(metrics, "daily_edge_sets", counting)
    return calls


def test_evaluate_all_builds_one_view_per_log(monkeypatch):
    sim, gt = fixture_log(11), fixture_log(11)  # equal, but two logs
    assert sim == gt and sim is not gt
    window = (BASE_MONDAY, BASE_MONDAY + 10 * DAY)
    calls = count_daily_edge_sets(monkeypatch)
    report = metrics.evaluate_all(sim, gt, {0}, window)
    assert len(calls) == 2
    assert all(e.skipped is None for e in report.entries)


def test_evaluate_all_summarizes_a_shared_gt_once(monkeypatch):
    gt = fixture_log(11)
    window = (BASE_MONDAY, BASE_MONDAY + 10 * DAY)
    calls = count_daily_edge_sets(monkeypatch)
    reports = [metrics.evaluate_all(fixture_log(seed), gt, {0}, window) for seed in (12, 13)]
    assert len(calls) == 3  # each sim once, the gt once
    assert reports[0] != reports[1]
    assert metrics.summarize(gt, {0}, window) is metrics.summarize(gt, frozenset({0}), window)
    assert len(calls) == 3


def test_summarize_recomputes_for_another_window_or_trigger_set(monkeypatch):
    log = fixture_log(11)
    window = (BASE_MONDAY, BASE_MONDAY + 10 * DAY)
    calls = count_daily_edge_sets(monkeypatch)
    first = metrics.summarize(log, {0}, window)
    keys = [({1}, window), ({0}, (BASE_MONDAY, BASE_MONDAY + 9 * DAY)),
            ({0}, list(window)),  # a list never equals a tuple, in compare as here
            ({0}, tuple(map(np.int64, window))),  # equal, but reported otherwise
            ({0}, window)]
    for k, (triggers, w) in enumerate(keys, start=2):
        summary = metrics.summarize(log, triggers, w)
        assert len(calls) == k
        assert (summary.triggers, summary.window) == (frozenset(triggers), w)
        assert type(summary.window) is type(w) and type(summary.window[0]) is type(w[0])
    assert summary is not first  # only the latest is kept
    assert metrics.compare(summary, first) == metrics.compare(first, first)
    assert metrics.summarize(log, {0}, window) is summary and len(calls) == len(keys) + 1
    # the list window after a tuple one: both logs are summarized with the list
    sim = fixture_log(12)
    metrics.summarize(sim, {0}, window)
    report = metrics.evaluate_all(sim, log, {0}, list(window))
    assert report.window == list(window) and len(calls) == len(keys) + 4
    fresh = metrics.evaluate_all(fixture_log(12), fixture_log(11), {0}, list(window))
    assert report.to_json() == fresh.to_json()


@pytest.mark.parametrize("t", [BASE_MONDAY, BASE_MONDAY + 5 * DAY + 123])
def test_evaluate_all_empty_window_skips_daily_metrics(t):
    report = metrics.evaluate_all(fixture_log(3), fixture_log(3), set(), (t, t))
    assert [e.name for e in report.entries] == list(metrics.METRIC_NAMES)
    empty = [e.name for e in report.entries if e.skipped == "empty window"]
    assert empty == ["degdist", "trans", "globeff", "recip", "topo_ovlp", "degcen", "betwcen"]
    assert all(not e.flags for e in report.entries if e.skipped)


def test_evaluate_all_accepts_trigger_plan(mini_log, mini_manifest):
    from commsim.simulator import select_triggers

    h0, h1 = mini_manifest["history_window"]
    s0, s1 = mini_manifest["sim_window"]
    plan = select_triggers(mini_log, (h0, h1), 0.125, (s0, s1))
    by_plan = metrics.evaluate_all(mini_log, mini_log, plan, (s0, s1))
    by_set = metrics.evaluate_all(mini_log, mini_log, set(plan.trigger_agents), (s0, s1))
    assert by_plan == by_set
    assert by_plan.n_agents == mini_log.n_agents - 1


def test_evaluate_all_report_schema():
    log = fixture_log(7)
    window = (BASE_MONDAY, BASE_MONDAY + 10 * DAY)
    report = metrics.evaluate_all(log, log, {0, 1}, window)
    names = [e.name for e in report.entries]
    assert sorted(names) == sorted(metrics.METRIC_NAMES)
    d = report.to_dict()
    again = metrics.report_from_dict(d)
    assert again == report
    csv_text = report.to_csv()
    assert csv_text.count("\n") == 16  # header + 15 rows
