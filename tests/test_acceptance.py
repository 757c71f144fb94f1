"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line (run with `pytest tests/test_acceptance.py -v -s`).

Statistical criteria use pinned seeds, so every run is reproducible.
"""

import json
import math
import os
import subprocess
import sys
import time
from collections import Counter

import numpy as np
import pytest

from commsim import agents, baselines, metrics, simulator
from commsim.corpus import EventLog, ingest, window as log_window
from commsim.hawkes import FitConfig, HawkesModel, fit, sample_next_activation, simulate_pure_hawkes
from commsim.simulator import PeriodicSchedule, SimConfig, TriggerPlan, run, select_triggers

from conftest import BASE_MONDAY, MINI, fixture_log, make_log, random_log, run_metric, view
from oracle_hawkes import excitation_integral
from test_metrics import brute_motif2, brute_motif3

HOUR = 3600
DAY = 86400
WEEK = 7 * DAY


def report(n, text):
    print(f"\nPASS criterion {n}: {text}")


def two_agent_model(mu0, alpha0, beta):
    baselines_ = np.zeros((2, 168))
    baselines_[0, :] = mu0
    alpha = np.diag([alpha0, 0.0])
    return HawkesModel(("src", "sink"), baselines_, alpha, beta, True)


def test_criterion_1_hawkes_recovery():
    """10k sampled events from (mu=0.5/h, alpha=0.5, beta=1/h); the fit
    recovers alpha within +/-0.1 absolute and the bin-mean baseline within
    +/-15 percent, in under 60 s."""
    t_start = time.monotonic()
    model = two_agent_model(0.5, 0.5, 1.0)
    horizon_weeks = 63  # stationary rate 1/h -> about 10.6k events
    window = (BASE_MONDAY, BASE_MONDAY + horizon_weeks * WEEK)
    dist = np.array([[0.0, 1.0], [0.0, 0.0]])
    log = simulate_pure_hawkes(model, window, None, EventLog(model.agents, ()),
                               dist, seed=1001)
    n = len(log)
    assert n >= 10_000, f"sampler produced only {n} events"

    # beta pinned at the generator's true decay: the criterion measures
    # {mu, alpha} recovery, not the median-gap beta heuristic
    fitted = fit(log, window, FitConfig(beta_override=1.0))
    a_hat = float(fitted.alpha[0, 0])
    mu_hat = float(fitted.baselines[0].mean())
    elapsed = time.monotonic() - t_start
    assert abs(a_hat - 0.5) <= 0.1, f"alpha {a_hat}"
    assert abs(mu_hat - 0.5) / 0.5 <= 0.15, f"mu mean {mu_hat}"
    assert elapsed < 60, f"took {elapsed:.1f}s"
    report(1, f"n={n}, alpha={a_hat:.3f} (true 0.5), mu={mu_hat:.3f} "
              f"(true 0.5), {elapsed:.1f}s")


def test_criterion_2_sampler_correctness():
    """alpha=0, constant mu: inter-arrivals pass a KS test against the
    exponential law (p > 0.01, 10k samples) and per-hour-bin rates stay
    within 3 sigma of a piecewise baseline. Under 10 s."""
    from scipy.stats import kstest

    t_start = time.monotonic()
    mu = 2.0
    model = two_agent_model(mu, 0.0, 1.0)
    empty = EventLog(model.agents, ())
    rng = np.random.default_rng(2002)
    t = BASE_MONDAY
    horizon = BASE_MONDAY + 4_000_000 * HOUR
    gaps = []
    for _ in range(10_000):
        nxt = sample_next_activation(model, 0, empty, t, horizon, rng)
        gaps.append((nxt - t) / HOUR)
        t = nxt
    gaps = np.array(gaps)
    mean = gaps.mean()
    se = gaps.std() / math.sqrt(len(gaps))
    assert abs(mean - 1 / mu) <= 3 * se, f"mean {mean:.4f} vs {1/mu}"
    ks = kstest(gaps, "expon", args=(0, 1 / mu))
    assert ks.pvalue > 0.01, f"KS p={ks.pvalue:.4f}"

    # piecewise-constant weekly baseline: rate depends on the hour of day
    rates = np.array([0.3] * 9 + [3.0, 3.0, 3.0] + [1.0] * 12)
    base = np.tile(rates, 7).reshape(1, 168)
    pw2 = HawkesModel(("a", "b"), np.vstack([base, np.zeros((1, 168))]),
                      np.zeros((2, 2)), 1.0, True)
    days = 60
    w = (BASE_MONDAY, BASE_MONDAY + days * DAY)
    out = simulate_pure_hawkes(pw2, w, None, EventLog(pw2.agents, ()),
                               np.array([[0.0, 1.0], [0.0, 0.0]]), seed=2003)
    counts = np.zeros(24)
    for e in out.events:
        counts[(e.ts % DAY) // HOUR] += 1
    for h in range(24):
        expect = rates[h] * days
        sigma = math.sqrt(expect)
        assert abs(counts[h] - expect) <= 3 * sigma, \
            f"hour {h}: {counts[h]} vs {expect:.0f} +/- {3*sigma:.0f}"
    elapsed = time.monotonic() - t_start
    assert elapsed < 10, f"took {elapsed:.1f}s"
    report(2, f"KS p={ks.pvalue:.3f}, all 24 hourly bins within 3 sigma, "
              f"{elapsed:.1f}s")


def test_criterion_3_likelihood_integral():
    """Closed-form excitation integral matches adaptive quadrature to 1e-8
    relative on 20 random 3-event histories."""
    from scipy.integrate import quad

    rng = np.random.default_rng(3003)
    worst = 0.0
    for _ in range(20):
        beta = float(rng.uniform(0.2, 4.0))
        alpha = float(rng.uniform(0.05, 2.0))
        model = two_agent_model(0.3, alpha, beta)
        t0 = BASE_MONDAY
        times = sorted(int(x) for x in rng.integers(t0 - 6 * HOUR, t0 + 9 * HOUR, size=3))
        hist = make_log([(0, 1, u) for u in times], n_agents=2)
        w = (t0, t0 + 12 * HOUR)
        closed = excitation_integral(model, 0, hist, w)

        def exc(u_hours):
            t = w[0] + u_hours * HOUR
            return sum(alpha * beta * math.exp(-beta * (t - e) / HOUR)
                       for e in times if e < t)

        cuts = [0.0] + sorted((e - w[0]) / HOUR for e in times if w[0] < e < w[1]) + [12.0]
        total = sum(quad(exc, a, b, epsabs=1e-13, epsrel=1e-13, limit=300)[0]
                    for a, b in zip(cuts, cuts[1:]))
        rel = abs(closed - total) / max(abs(total), 1e-300)
        worst = max(worst, rel)
        assert rel <= 1e-8, f"rel err {rel:.2e}"
    report(3, f"20 histories, worst relative error {worst:.2e} <= 1e-8")


def test_criterion_4_motif_oracle_equivalence():
    """Censuses match brute-force enumeration exactly on 50 random logs
    (<= 200 edges for pairs, <= 100 for triples) at 2h/8h/24h/48h. < 30 s."""
    t_start = time.monotonic()
    deltas = (2 * HOUR, 8 * HOUR, 24 * HOUR, 48 * HOUR)

    def trim(log, limit):
        events = list(log.events)
        while sum(len(e.recipients) for e in events) > limit:
            events.pop()
        return EventLog(log.agents, tuple(events))

    checked = 0
    for trial in range(50):
        rng = np.random.default_rng(4000 + trial)
        n2 = int(rng.integers(120, 190))
        log2 = trim(random_log(rng, n_agents=6, n_events=n2, t0=BASE_MONDAY,
                               span=10 * DAY, multi_prob=0.1), 200)
        assert len(log2.edges()) <= 200
        n3 = int(rng.integers(60, 95))
        log3 = trim(random_log(rng, n_agents=5, n_events=n3, t0=BASE_MONDAY,
                               span=10 * DAY, multi_prob=0.1), 100)
        assert len(log3.edges()) <= 100
        for delta in deltas:
            got2 = metrics.motif_census_2(view(log2), delta)[0].counts
            want2 = brute_motif2(log2.edges(), delta)
            assert got2 == {k: want2.get(k, 0) for k in got2}, (trial, delta)
            got3 = metrics.motif_census_3(view(log3), delta)[0].counts
            want3 = brute_motif3(log3.edges(), delta)
            assert got3 == {k: want3.get(k, 0) for k in got3}, (trial, delta)
            checked += 1
    elapsed = time.monotonic() - t_start
    assert elapsed < 30, f"took {elapsed:.1f}s"
    report(4, f"{checked} (log, delta) pairs match exactly, {elapsed:.1f}s")


def test_criterion_5_metric_identities():
    """evaluate_all(gt, gt) is exactly 0 on the 13 error metrics and exactly
    1 on both Jaccard metrics, for 10 random fixture logs."""
    for seed in range(10):
        log = fixture_log(5000 + seed)
        w = (BASE_MONDAY, BASE_MONDAY + 10 * DAY)
        rep = metrics.evaluate_all(log, log, set(), w)
        assert len(rep.entries) == 15
        for e in rep.entries:
            assert e.skipped is None, (seed, e.name, e.skipped)
            if e.direction == "higher":
                assert e.value == 1.0, (seed, e.name, e.value)
            else:
                assert e.value == 0.0, (seed, e.name, e.value)
    report(5, "10 fixture logs: 13 zeros and 2 ones, exact")


def test_criterion_6_regret_formula():
    """Hand-checked 2x2 example to 1e-9 and zero regret for dominating
    settings on random matrices."""
    table, _ = metrics.regret({"A": {"m1": 2.0, "m2": 4.0},
                               "B": {"m1": 1.0, "m2": 8.0}},
                              {"m1": "cat", "m2": "cat"})
    expect = math.sqrt(2) - 1
    assert abs(table["A"]["cat"] - expect) <= 1e-9
    assert abs(table["B"]["cat"] - expect) <= 1e-9
    rng = np.random.default_rng(6006)
    for _ in range(20):
        names = [f"m{i}" for i in range(4)]
        cats = {n: ("x" if i < 2 else "y") for i, n in enumerate(names)}
        mat = rng.random((4, 4)) + 0.05
        results = {f"s{i}": dict(zip(names, map(float, mat[i]))) for i in range(4)}
        results["best"] = {n: float(mat[:, j].min()) for j, n in enumerate(names)}
        table, _ = metrics.regret(results, cats)
        assert table["best"] == {"x": 0.0, "y": 0.0}
        for s in results:
            for c, v in table[s].items():
                assert v >= 0.0
    report(6, f"2x2 regret = sqrt(2)-1 within 1e-9; dominating settings at 0")


def test_criterion_7_null_model(mini_log, mini_manifest):
    """Rewiring preserves per-node in/out degree multisets and the timestamp
    multiset on 20 seeded runs; on a single-day window (where the day bucket
    equals the rewiring window) degree histograms are exactly preserved while
    the motif mix shifts."""
    full = (BASE_MONDAY, BASE_MONDAY + 12 * DAY)

    def degs(edges):
        out_d, in_d = Counter(), Counter()
        for u, v, _ in edges:
            out_d[u] += 1
            in_d[v] += 1
        return out_d, in_d

    for seed in range(20):
        rewired = baselines.rewire_degree_preserving(
            mini_log, full, baselines.RewireConfig(seed=seed))
        assert degs(rewired.edges()) == degs(mini_log.edges())
        assert Counter(t for _, _, t in rewired.edges()) == \
            Counter(t for _, _, t in mini_log.edges())

    # single-day window: daily DegDist EMD is exactly 0 by the swap
    # invariant; the 2-edge motif mix changes (structure destroyed)
    day7 = (BASE_MONDAY + 7 * DAY, BASE_MONDAY + 8 * DAY)
    day_log = log_window(mini_log, *day7)
    rewired_day = baselines.rewire_degree_preserving(
        mini_log, day7, baselines.RewireConfig(seed=3))
    assert run_metric("degdist", view(rewired_day, day7), view(day_log, day7)) == 0.0
    jsd_val, _ = run_metric("2eg_2h", view(rewired_day, day7), view(day_log, day7))
    assert jsd_val > 0.0
    # and on the full window the motif mix also shifts
    rewired_full = baselines.rewire_degree_preserving(
        mini_log, full, baselines.RewireConfig(seed=3))
    jsd_full, _ = run_metric("2eg_8h", view(rewired_full, full), view(mini_log, full))
    assert jsd_full > 0.0
    report(7, f"20 seeds preserve degrees and timestamps exactly; "
              f"day-window DegDist = 0, motif JSD = {jsd_val:.3f} > 0")


def test_criterion_8_collapse_prevention(mini_log, mini_manifest):
    """Triggers plus the calibrated stub keep every simulated day active;
    removing triggers and zeroing initiations collapses activity to zero."""
    h0, h1 = mini_manifest["history_window"]
    s0, s1 = mini_manifest["sim_window"]
    cfg = SimConfig(window=(s0, s1), history_days=4, trigger_ratio=0.10,
                    seed=42, policy=PeriodicSchedule())
    plan = select_triggers(mini_log, (h0, h1), 0.10, (s0, s1))
    params = agents.stub_params_from_history(mini_log, (h0, h1), seed=42)
    out = run(cfg, mini_log, agents.StubPolicy(params), plan)
    active_days = {(e.ts - s0) // DAY for e in out.events}
    assert active_days == set(range(8)), f"missing days {set(range(8)) - active_days}"

    dead_params = agents.StubParams(
        reply_prob=params.reply_prob,
        initiate_rate=np.zeros_like(params.initiate_rate),
        contact_dist=params.contact_dist, seed=42)
    no_triggers = TriggerPlan(frozenset(), EventLog(mini_log.agents, ()))
    cfg0 = SimConfig(window=(s0, s1), history_days=4, trigger_ratio=0.0,
                     seed=42, policy=PeriodicSchedule())
    silent = run(cfg0, mini_log, agents.StubPolicy(dead_params), no_triggers)
    assert len(silent) == 0
    report(8, f"with triggers every day active ({len(out)} events); "
              f"without triggers and initiations activity is zero")


def test_criterion_9_determinism(tmp_path):
    """The stub simulation pipeline is byte-identical across two fresh
    processes (and platform-independent by construction: integer
    timestamps, named PCG64 streams, no hash iteration order)."""
    cfg = {"input": str(MINI), "window": [BASE_MONDAY + 4 * DAY, BASE_MONDAY + 12 * DAY],
           "history_days": 4, "trigger_ratio": 0.10, "seed": 42}
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(cfg))
    outputs = []
    for name in ("run1", "run2"):
        out = tmp_path / name
        cmd = [sys.executable, "-m", "commsim", "simulate", str(cfg_path),
               "--policy", "hawkes", "--agent", "stub", "--out", str(out)]
        env = dict(os.environ, PYTHONHASHSEED=str(len(outputs)))
        proc = subprocess.run(cmd, capture_output=True, text=True, env=env)
        assert proc.returncode == 0, proc.stderr
        outputs.append((out / "sim.jsonl").read_bytes())
    assert outputs[0] == outputs[1]
    assert len(outputs[0]) > 0
    report(9, f"two fresh processes, {len(outputs[0])} bytes, identical")


def test_criterion_10_enron_table():
    """Optional external check against the published corpus statistics;
    skipped with a notice when no corpus is configured."""
    path = os.environ.get("COMMSIM_ENRON_LOG")
    if not path:
        report(10, "SKIPPED - set COMMSIM_ENRON_LOG to a prepared Enron "
                   "JSONL log to enable the corpus-statistics check")
        pytest.skip("COMMSIM_ENRON_LOG not set; external corpus unavailable")
    stats = metrics.corpus_stats(ingest(path))
    assert abs(stats.reciprocity - 0.30) <= 0.02
    assert abs(stats.transitivity - 0.24) <= 0.02
    assert abs(stats.density - 0.03) <= 0.02
    assert abs(stats.r24 - 0.38) <= 0.05
    report(10, f"reciprocity {stats.reciprocity:.3f}, transitivity "
               f"{stats.transitivity:.3f}, density {stats.density:.3f}, "
               f"r24 {stats.r24:.3f}")


def test_criterion_11_burstiness_units():
    """Exact burstiness values on constructed gap patterns and near-zero on
    exponential gaps."""
    from commsim.corpus import node_burstiness

    constant = make_log([(0, 1, 1000 * k) for k in range(5)])
    assert node_burstiness(constant)[0] == -1.0

    two_gaps = make_log([(0, 1, 0), (0, 1, 1), (0, 1, 4)])
    assert node_burstiness(two_gaps)[0] == (1.0 - 2.0) / (1.0 + 2.0)

    rng = np.random.default_rng(1111)
    gaps = rng.exponential(300.0, size=10_000)
    times = np.cumsum(gaps).astype(np.int64) + 1
    times = np.unique(times)
    expo = make_log([(0, 1, int(t)) for t in times])
    b = node_burstiness(expo)[0]
    assert abs(b) < 0.05, b
    report(11, f"constant gaps -> -1 exact; gaps (1,3) -> -1/3 exact; "
               f"10k exponential gaps -> B = {b:+.4f}")
