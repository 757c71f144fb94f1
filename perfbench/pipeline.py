"""The benchmark's workloads and the check of their outputs.

Each workload is one pass of the library pipeline as a user runs it
(ingest -> fit -> select triggers -> rollout -> evaluate) on a synthetic
corpus file. Every call into commsim goes through a module attribute
(`hawkes.fit`, `simulator.run`, ...) so that traced mode can wrap it.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Callable

from commsim import agents, baselines, corpus, hawkes, metrics, simulator

from corpusgen import BASE, DAY

PROGRAM_SEED = 42
TRIGGER_RATIO = 0.10
N_REPORT_ENTRIES = 15


@dataclass
class Outcome:
    """What one pass produced; checked after the pass timer stops."""
    window: tuple[int, int]
    plan: simulator.TriggerPlan
    sims: dict[str, corpus.EventLog]
    # sims that must carry the plan's trigger events verbatim
    with_triggers: tuple[str, ...]
    reports: dict[str, metrics.MetricsReport] = field(default_factory=dict)
    model: hawkes.HawkesModel | None = None
    regret: dict | None = None


def _rollout(path: str, policy: str) -> Outcome:
    log = corpus.ingest(path)
    window = (BASE + 21 * DAY, BASE + 28 * DAY)
    hist = (window[0] - 14 * DAY, window[0])
    model = None
    if policy == "hawkes":
        model = hawkes.fit(log, hist)
        activation = simulator.HawkesGuided(model)
    else:
        activation = simulator.PeriodicSchedule(3.0)
    plan = simulator.select_triggers(log, hist, TRIGGER_RATIO, window)
    params = agents.stub_params_from_history(log, hist, PROGRAM_SEED)
    cfg = simulator.SimConfig(window=window, history_days=14,
                              trigger_ratio=TRIGGER_RATIO, seed=PROGRAM_SEED,
                              policy=activation)
    sim = simulator.run(cfg, log, agents.StubPolicy(params), plan, counters={})
    report = metrics.evaluate_all(sim, log, plan.trigger_agents, window)
    return Outcome(window, plan, {"sim": sim}, ("sim",), {"sim": report}, model)


def rollout_hawkes(path: str) -> Outcome:
    return _rollout(path, "hawkes")


def rollout_periodic(path: str) -> Outcome:
    return _rollout(path, "periodic")


def score_suite(path: str) -> Outcome:
    log = corpus.ingest(path)
    hist = (BASE, BASE + 7 * DAY)
    window = (BASE + 7 * DAY, BASE + 14 * DAY)
    model = hawkes.fit(log, hist)
    plan = simulator.select_triggers(log, hist, TRIGGER_RATIO, window)
    hist_log = corpus.window(log, *hist)
    sims = {
        "pure_hawkes": hawkes.simulate_pure_hawkes(
            model, window, plan, hist_log, corpus.contact_frequencies(hist_log),
            PROGRAM_SEED),
        "rewired_null": baselines.rewire_degree_preserving(
            log, window, baselines.RewireConfig(seed=PROGRAM_SEED)),
    }
    reports = {name: metrics.evaluate_all(sim, log, plan.trigger_agents, window)
               for name, sim in sims.items()}
    # regret takes lower-is-better scores, as `commsim compare` feeds it
    scores = {name: {e.name: (1.0 - e.value if e.direction == "higher" else e.value)
                     for e in rep.entries if e.value is not None}
              for name, rep in reports.items()}
    table, flags = metrics.regret(scores)
    return Outcome(window, plan, sims, ("pure_hawkes",), reports, model,
                   {"regret": table, "flags": flags})


def fit_full(path: str) -> Outcome:
    log = corpus.ingest(path)
    fit_window = (BASE, BASE + 14 * DAY)
    window = (BASE + 14 * DAY, BASE + 21 * DAY)
    model = hawkes.fit(log, fit_window, hawkes.FitConfig(diagonal_only=False))
    plan = simulator.select_triggers(log, fit_window, TRIGGER_RATIO, window)
    hist_log = corpus.window(log, *fit_window)
    sim = hawkes.simulate_pure_hawkes(model, window, plan, hist_log,
                                      corpus.contact_frequencies(hist_log),
                                      PROGRAM_SEED)
    return Outcome(window, plan, {"pure_hawkes": sim}, ("pure_hawkes",), model=model)


@dataclass(frozen=True)
class Workload:
    name: str
    n_days: int
    # size -> (agents, requested events per agent-day)
    sizes: dict[str, tuple[int, float]]
    run_pass: Callable[[str], Outcome]


WORKLOADS = {w.name: w for w in (
    Workload("rollout_hawkes",
             28, {"full": (60, 1.0), "smoke": (12, 0.6)}, rollout_hawkes),
    Workload("rollout_periodic",
             28, {"full": (60, 1.0), "smoke": (12, 0.6)}, rollout_periodic),
    Workload("score_suite",
             14, {"full": (100, 1.3), "smoke": (16, 0.8)}, score_suite),
    Workload("fit_full",
             21, {"full": (100, 1.0), "smoke": (16, 0.8)}, fit_full),
)}


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def digests(out: Outcome) -> dict[str, str]:
    """SHA-256 of every output a user would write to disk."""
    d = {f"{name}.sim": _sha(corpus.serialize(sim)) for name, sim in out.sims.items()}
    d.update({f"{name}.report": _sha(rep.to_json()) for name, rep in out.reports.items()})
    if out.model is not None:
        d["model"] = _sha(out.model.to_json())
    if out.regret is not None:
        d["regret"] = _sha(json.dumps(out.regret, sort_keys=True))
    return d


def problems(out: Outcome, got: dict[str, str], expected: dict[str, str] | None) -> list[str]:
    """Everything wrong with a pass's outputs; empty when it is correct."""
    found = []
    t0, t1 = out.window
    for name, sim in out.sims.items():
        outside = sum(1 for e in sim.events if not t0 <= e.ts < t1)
        if outside:
            found.append(f"{name}: {outside} events outside the window")
    planned = {(e.event_id, e.sender, e.recipients, e.ts, e.thread_id, e.body)
               for e in out.plan.scheduled_events.events if t0 <= e.ts < t1}
    for name in out.with_triggers:
        injected = {(e.event_id, e.sender, e.recipients, e.ts, e.thread_id, e.body)
                    for e in out.sims[name].events if e.sender in out.plan.trigger_agents}
        if injected != planned:
            found.append(f"{name}: trigger events not passed through verbatim")
    for name, rep in out.reports.items():
        if len(rep.entries) != N_REPORT_ENTRIES:
            found.append(f"{name}: {len(rep.entries)} report entries, want {N_REPORT_ENTRIES}")
    if expected is not None:
        for key in sorted(set(got) | set(expected)):
            if got.get(key) != expected.get(key):
                found.append(f"digest of {key}: {got.get(key)} != expected {expected.get(key)}")
    return found
