#!/usr/bin/env python3
"""Desk-scale benchmark on the bundled mini-corpus.

Fits the activation model on the 4-day history, rolls out the four
activation policies with the statistical stub agent over the 8-day
evaluation window, adds the degree-preserving rewired null, scores every
rollout against the ground truth (summarized once) on the non-trigger
subnetwork, and prints the per-category regret table.

Usage: python scripts/run_benchmark.py [--out OUT_DIR] [--seed N]
"""

import argparse
import json
from pathlib import Path

from commsim import agents, baselines, hawkes, metrics, simulator
from commsim.corpus import contact_frequencies, ingest, save, window as log_window

ROOT = Path(__file__).resolve().parent.parent
MINI = ROOT / "tests" / "data" / "mini_corpus.jsonl"
BASE = 983750400
DAY = 86400


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--out", default="out/benchmark")
    ap.add_argument("--seed", type=int, default=42)
    ap.add_argument("--corpus", default=str(MINI))
    args = ap.parse_args()
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)

    log = ingest(args.corpus)
    hist_window = (BASE, BASE + 4 * DAY)
    sim_window = (BASE + 4 * DAY, BASE + 12 * DAY)

    plan = simulator.select_triggers(log, hist_window, 0.10, sim_window)
    params = agents.stub_params_from_history(log, hist_window, seed=args.seed)
    fit_counters = {}
    model = hawkes.fit(log, hist_window, counters=fit_counters)
    print(f"corpus: {log.n_agents} agents, {len(log)} events; "
          f"triggers: {sorted(log.agents[i] for i in plan.trigger_agents)}; "
          f"beta = {model.beta_per_hour:.3f}/h; unconverged agents: "
          f"{fit_counters['unconverged_max_iters']} at max_iters, "
          f"{fit_counters['unconverged_backtracking_failed']} on failed backtracking")

    hod_hist = simulator.hod_histograms(log_window(log, *hist_window))
    policies = {
        "periodic": simulator.PeriodicSchedule(3.0),
        "hod": simulator.EmpiricalHoD(hod_hist),
        "hawkes_guided": simulator.HawkesGuided(model),
    }

    rollouts = {}
    for name, policy in policies.items():
        cfg = simulator.SimConfig(window=sim_window, history_days=4,
                                  trigger_ratio=0.10, seed=args.seed,
                                  policy=policy)
        counters = {}
        rollouts[name] = simulator.run(cfg, log, agents.StubPolicy(params),
                                       plan, counters=counters)
        print(f"{name:<14} {counters['organic_events']:>4} organic "
              f"+ {counters['trigger_events']} trigger events")

    dist = contact_frequencies(log_window(log, *hist_window))
    counters = {}
    rollouts["pure_hawkes"] = hawkes.simulate_pure_hawkes(
        model, sim_window, plan, log_window(log, *hist_window), dist,
        seed=args.seed, counters=counters)
    print(f"{'pure_hawkes':<14} {counters['organic_events']:>4} organic "
          f"+ {len(plan.scheduled_events)} trigger events")

    rollouts["rewired_null"] = baselines.rewire_degree_preserving(
        log, sim_window, baselines.RewireConfig(seed=args.seed))
    print(f"{'rewired_null':<14} {len(rollouts['rewired_null']):>4} edges")

    results = {}
    categories = {}
    for name, sim_log in rollouts.items():
        # `log` keeps its summary, so the ground truth is summarized once
        report = metrics.evaluate_all(sim_log, log, plan.trigger_agents, sim_window)
        (out_dir / name).mkdir(exist_ok=True)
        (out_dir / name / "report.json").write_text(report.to_json() + "\n")
        (out_dir / name / "report.csv").write_text(report.to_csv())
        save(sim_log, out_dir / name / "sim.jsonl")
        categories.update((e.name, e.category) for e in report.entries)
        results[name], _ = metrics.regret_scores(report, name)

    table, flags = metrics.regret(results, categories)
    (out_dir / "regret.json").write_text(json.dumps(
        {"regret": table, "flags": flags}, indent=2, sort_keys=True) + "\n")

    cats = sorted({c for per in table.values() for c in per})
    print("\nper-category regret (lower is better):")
    print(f"{'setting':<14}" + "".join(f"{c:>20}" for c in cats))
    for setting in sorted(table):
        row = "".join(f"{table[setting].get(c, float('nan')):>20.4f}" for c in cats)
        print(f"{setting:<14}{row}")
    print(f"\nreports under {out_dir}/")


if __name__ == "__main__":
    main()
