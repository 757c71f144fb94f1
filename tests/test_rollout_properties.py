"""Differential property tests for the incremental rollout state.

`simulator.run` keeps a Hawkes excitation state and a per-agent context
index that are updated as events are appended. These tests compare both
with the list scans they replaced, on random small logs and random diagonal
and full-matrix models, and check the rollout invariants on the same
scenarios: among them, that every generated log reads back from its file
unchanged.
"""

import math
import pickle

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from commsim import cli, hawkes, timeutil
from commsim.agents import StubParams, StubPolicy
from commsim.baselines import RewireConfig, rewire_degree_preserving
from commsim.corpus import Event, EventLog, contact_frequencies, ingest, save
from commsim.simulator import (ActionDecision, AgentContext, CadenceSummary, EmpiricalHoD,
                               HawkesGuided, LLMPredicted, PeriodicSchedule, SimConfig,
                               TriggerPlan, run, select_triggers)

from conftest import BASE_MONDAY

DAY = 86400
HOUR = 3600


def brute_excitation(model, agent, events, t):
    """sum over events with ts <= t of alpha[agent][sender] * exp(-beta * dt)."""
    total = 0.0
    for e in events:
        if e.ts <= t:
            total += model.alpha[agent, e.sender] * math.exp(
                -model.beta_per_hour * (t - e.ts) / hawkes.SECONDS_PER_HOUR)
    return total


def oracle_build_context(agent, history, sim_events, config, t_now, last_check,
                         suggested_next, persona=None):
    """The list-scan context assembly that `ContextIndex` replaced."""
    t0, _ = config.window
    h0 = t0 - config.history_days * 86400
    pre = [e for e in history.events if h0 <= e.ts < t0]
    visible = pre + [e for e in sim_events if e.ts <= t_now]
    sent = [e for e in visible if e.sender == agent]
    received = [e for e in visible if agent in e.recipients and e.sender != agent]
    since = last_check if last_check is not None else t0 - 1
    unread = tuple(e for e in sim_events
                   if since < e.ts <= t_now and agent in e.recipients and e.sender != agent)
    counts = {}
    for e in history.events:
        if e.sender == agent and h0 <= e.ts < t0:
            d = timeutil.day_index(e.ts)
            counts[d] = counts.get(d, 0) + 1
    n_days = max(1, timeutil.day_index(t0 - 1) - timeutil.day_index(h0) + 1)
    return AgentContext(
        agent=agent,
        label=history.agents[agent],
        persona=persona,
        agents=history.agents,
        sent_history=tuple(sorted(sent, key=lambda e: (e.ts, e.event_id))),
        received_history=tuple(sorted(received, key=lambda e: (e.ts, e.event_id))),
        unread=unread,
        now=t_now,
        takeover=t0,
        last_check=last_check,
        suggested_next_check=suggested_next,
        cadence=CadenceSummary(tuple(sorted(counts.items())),
                               sum(counts.values()) / n_days),
    )


# ---------------------------------------------------------------------------
# strategies


@st.composite
def logs(draw, max_agents=6, max_events=80, span=6 * DAY):
    """Random log with some same-second events, two-recipient mail and self-cc."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(2, max_agents))
    n_events = draw(st.integers(0, max_events))
    grain = draw(st.sampled_from([1, 600]))
    ts = np.sort(rng.integers(0, span, size=n_events) // grain * grain)
    events = []
    for k in range(n_events):
        sender = int(rng.integers(n))
        others = [a for a in range(n) if a != sender]
        size = min(len(others), 1 + int(rng.random() < 0.3))
        rcpts = tuple(int(r) for r in rng.choice(others, size=size, replace=False))
        if rng.random() < 0.1:
            rcpts += (sender,)  # self-cc: sent, but not received
        events.append(Event(k, sender, rcpts, BASE_MONDAY + int(ts[k])))
    labels = tuple(f"a{i:02d}" for i in range(n))
    return EventLog(labels, tuple(sorted(events, key=lambda e: (e.ts, e.event_id))))


@st.composite
def models(draw, n):
    diagonal = draw(st.booleans())
    beta = draw(st.floats(0.01, 5.0))
    rates = st.floats(0.0, 2.0)
    base = np.array(draw(st.lists(rates, min_size=n, max_size=n)))
    baselines = np.outer(base, (1 + np.arange(168) % 3) / 2)
    weights = st.floats(0.0, 0.9)
    if diagonal:
        alpha = np.diag(draw(st.lists(weights, min_size=n, max_size=n)))
    else:
        alpha = np.array(draw(st.lists(weights, min_size=n * n, max_size=n * n))).reshape(n, n) / n
    labels = tuple(f"a{i:02d}" for i in range(n))
    return hawkes.HawkesModel(labels, baselines, alpha, beta, diagonal)


POLICIES = ["periodic", "llm", "hod", "hawkes"]


@st.composite
def scenarios(draw, kind):
    """(config, history, triggers, policy_impl) for a random small rollout
    under the given activation policy kind."""
    log = draw(logs())
    n = log.n_agents
    history_days = draw(st.integers(1, 4))
    t0 = BASE_MONDAY + draw(st.integers(1, 4)) * DAY + draw(st.integers(0, DAY - 1))
    t1 = t0 + draw(st.integers(1, 48)) * HOUR
    if kind == "periodic":
        policy = PeriodicSchedule(draw(st.sampled_from([0.5, 1.0, 3.0, 7.5])))
    elif kind == "llm":
        policy = LLMPredicted()
    elif kind == "hod":
        h = np.array(draw(st.lists(st.floats(0.0, 1.0), min_size=24 * n, max_size=24 * n))).reshape(n, 24)
        sums = h.sum(axis=1, keepdims=True)
        policy = EmpiricalHoD(np.divide(h, sums, out=np.zeros_like(h), where=sums > 0))
    else:
        policy = HawkesGuided(draw(models(n)))
    config = SimConfig(window=(t0, t1), history_days=history_days,
                       seed=draw(st.integers(0, 2**31 - 1)), policy=policy,
                       max_actions_per_wake=draw(st.integers(1, 3)))
    trigger_agents = frozenset(draw(st.sets(st.integers(0, n - 1), min_size=1, max_size=n - 1)))
    scheduled = tuple(e for e in log.events if e.sender in trigger_agents and t0 <= e.ts < t1)
    plan = TriggerPlan(trigger_agents, EventLog(log.agents, scheduled))
    contacts = 1.0 - np.eye(n)
    params = StubParams(reply_prob=np.full(n, draw(st.floats(0.3, 1.0))),
                        initiate_rate=np.full(n, draw(st.floats(1.0, 12.0))),
                        contact_dist=contacts / contacts.sum(axis=1, keepdims=True),
                        seed=config.seed)
    return config, log, plan, StubPolicy(params)


class Recording:
    """Delegating AgentPolicy that keeps every context it is shown and every
    decision it returns."""

    def __init__(self, inner):
        self.inner = inner
        self.contexts = []
        self.decisions = []

    def decide(self, ctx):
        self.contexts.append(ctx)
        self.decisions.append(self.inner.decide(ctx))
        return self.decisions[-1]


# ---------------------------------------------------------------------------
# properties


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_excitation_state_matches_brute_force(data):
    log = data.draw(logs(max_events=60, span=10 * DAY))
    model = data.draw(models(log.n_agents))
    t = BASE_MONDAY + data.draw(st.integers(0, 11 * DAY))
    incremental = hawkes.ExcitationState(model)
    for e in log.events:
        if e.ts <= t:
            incremental.add(e.sender, e.ts)
    from_log = hawkes.ExcitationState.from_log(model, log, t)
    for agent in range(log.n_agents):
        want = brute_excitation(model, agent, log.events, t)
        for state in (incremental, from_log):
            assert math.isclose(state.at(agent, t), want,
                                rel_tol=1e-12, abs_tol=1e-300)


@pytest.mark.parametrize("kind", POLICIES)
@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_indexed_contexts_match_list_scan(kind, data):
    config, log, plan, stub = data.draw(scenarios(kind))
    recorder = Recording(stub)
    out = run(config, log, recorder, plan)
    for ctx in recorder.contexts:
        # simulated events appended before this wake: everything earlier,
        # plus same-instant triggers and same-instant wakes of lower agents
        appended = [e for e in out.events
                    if e.ts < ctx.now or (e.ts == ctx.now and (
                        e.sender in plan.trigger_agents or e.sender < ctx.agent))]
        want = oracle_build_context(ctx.agent, log, appended, config, ctx.now,
                                    ctx.last_check, ctx.suggested_next_check)
        for field in AgentContext.__dataclass_fields__:
            assert getattr(ctx, field) == getattr(want, field), field


@pytest.mark.parametrize("kind", POLICIES)
@settings(max_examples=10, deadline=None)
@given(data=st.data())
def test_unchecked_records_equal_constructed_ones(kind, data):
    """The contexts `run` hands a policy and the stub's decisions are made
    without their dataclass constructors. Each equals the record its
    constructor makes from the same fields, hashes alike and survives a
    pickle round trip."""
    config, log, plan, stub = data.draw(scenarios(kind))
    recorder = Recording(stub)
    run(config, log, recorder, plan)
    pairs = ([(ctx, AgentContext(**vars(ctx))) for ctx in recorder.contexts]
             + [(d, ActionDecision(d.actions, d.next_check)) for d in recorder.decisions])
    for made, constructed in pairs:
        assert vars(made) == vars(constructed)
        assert made == constructed and hash(made) == hash(constructed)
        assert pickle.loads(pickle.dumps(made)) == made


@pytest.mark.parametrize("kind", POLICIES)
@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_rollout_window_and_triggers_verbatim(kind, data):
    config, log, plan, stub = data.draw(scenarios(kind))
    recorder = Recording(stub)
    out = run(config, log, recorder, plan)
    t0, t1 = config.window
    assert all(t0 <= e.ts < t1 for e in out.events)
    # the injected events are those the trigger agents send: the plan's own
    # Event objects, each once, in order
    injected = tuple(e for e in out.events if e.sender in plan.trigger_agents)
    assert len(injected) == len(plan.scheduled_events)
    assert all(e is want for e, want in zip(injected, plan.scheduled_events.events))
    # every other event is sent by a non-trigger agent at one of its wakes
    wakes = {(ctx.agent, ctx.now) for ctx in recorder.contexts}
    for e in out.events:
        if e.sender not in plan.trigger_agents:
            assert (e.sender, e.ts) in wakes
    per_agent = {}
    for ctx in recorder.contexts:
        per_agent.setdefault(ctx.agent, []).append(ctx.now)
    for times in per_agent.values():
        assert all(a < b for a, b in zip(times, times[1:]))
        assert all(t0 <= t < t1 for t in times)


@pytest.fixture(scope="module")
def out_path(tmp_path_factory):
    return tmp_path_factory.mktemp("roundtrip") / "sim.jsonl"


@pytest.mark.parametrize("kind", POLICIES)
@settings(max_examples=10, deadline=None)
@given(data=st.data())
def test_generated_logs_read_back_from_their_files(kind, data, out_path):
    """A rollout, a pure-Hawkes rollout with the same `select_triggers` plan
    and the rewired null, each saved, ingested and re-indexed onto its registry as `commsim
    evaluate` reads a simulated log, equal the logs that were saved."""
    config, log, plan, stub = data.draw(scenarios(kind))
    if len(log):
        ratio = len(plan.trigger_agents) / log.n_agents
        plan = select_triggers(log, (log.ts[0], log.ts[-1] + 1), ratio, config.window)
    model = data.draw(models(log.n_agents))
    outputs = [run(config, log, stub, plan),
               hawkes.simulate_pure_hawkes(model, config.window, plan, log,
                                           contact_frequencies(log), config.seed)]
    if len(log):
        outputs.append(rewire_degree_preserving(log, (log.ts[0], log.ts[-1] + 1),
                                                RewireConfig(seed=config.seed)))
    for out in outputs:
        save(out, out_path)
        assert cli._align_registry(ingest(out_path), out) == out
