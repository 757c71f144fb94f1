import numpy as np
import pytest

from commsim import agents, hawkes, simulator
from commsim.corpus import Event, EventLog, serialize
from commsim.simulator import (MIN_CLAMP_SECONDS, ActionDecision, Action, EmpiricalHoD,
                               HawkesGuided, LLMPredicted, PeriodicSchedule, SimConfig,
                               SimulationAborted, SimulationError, TriggerPlan,
                               build_context, run, select_triggers)
from commsim.rng import pcg64_states, set_pcg64_state, substream

import oracle_agents
from conftest import BASE_MONDAY, ZeroDraws
from oracle_simulator import next_activation

DAY = 86400
HOUR = 3600


class IdlePolicy:
    def decide(self, ctx):
        nxt = ctx.suggested_next_check or ctx.now + 3 * HOUR
        return ActionDecision((), nxt)


class FailingPolicy:
    def decide(self, ctx):
        raise RuntimeError("boom")


# ---------------------------------------------------------------------------
# trigger selection


def test_select_triggers_ratio_zero(mini_log, mini_manifest):
    h0, h1 = mini_manifest["history_window"]
    s0, s1 = mini_manifest["sim_window"]
    plan = select_triggers(mini_log, (h0, h1), 0.0, (s0, s1))
    assert plan.trigger_agents == frozenset()
    assert len(plan.scheduled_events) == 0


def test_select_triggers_hand_ranked(mini_log, mini_manifest):
    h0, h1 = mini_manifest["history_window"]
    s0, s1 = mini_manifest["sim_window"]
    plan = select_triggers(mini_log, (h0, h1), 1 / 8, (s0, s1))
    assert {mini_log.agents[i] for i in plan.trigger_agents} == \
        set(mini_manifest["triggers_ratio_0.125"])
    plan2 = select_triggers(mini_log, (h0, h1), 0.25, (s0, s1))
    assert {mini_log.agents[i] for i in plan2.trigger_agents} == \
        set(mini_manifest["triggers_ratio_0.25"])
    # scheduled events: alice's ground truth inside the sim window, the
    # log's own Event objects
    alice = mini_log.index_of("alice")
    expected = [e for e in mini_log.events if s0 <= e.ts < s1 and e.sender == alice]
    assert len(plan.scheduled_events.events) == len(expected)
    assert all(e is want for e, want in zip(plan.scheduled_events.events, expected))


def test_select_triggers_empty_history(mini_log):
    with pytest.raises(SimulationError):
        select_triggers(mini_log, (0, 10), 0.1, (100, 200))


def test_trigger_plan_rejects_non_trigger_sender(mini_log):
    alice, bob = mini_log.index_of("alice"), mini_log.index_of("bob")
    event = Event(900, bob, (alice,), BASE_MONDAY)
    with pytest.raises(SimulationError, match="sent by non-trigger agent"):
        TriggerPlan(frozenset({alice}), EventLog(mini_log.agents, (event,)))


# ---------------------------------------------------------------------------
# next_activation


def test_periodic_next():
    rng = substream(0, "t")
    t = next_activation(PeriodicSchedule(3.0), 0, None, BASE_MONDAY,
                        BASE_MONDAY + DAY, rng)
    assert t == BASE_MONDAY + 3 * HOUR
    late = next_activation(PeriodicSchedule(30.0), 0, None, BASE_MONDAY,
                           BASE_MONDAY + DAY, rng)
    assert late is None


def test_periodic_rejects_sub_second_interval():
    # 0.0001 h is 0.36 s, which rounds to a 0 s step: the agent would wake
    # at t_now forever
    with pytest.raises(SimulationError):
        PeriodicSchedule(0.0001)
    with pytest.raises(SimulationError):
        PeriodicSchedule(0.0)
    with pytest.raises(SimulationError):
        PeriodicSchedule(float("nan"))
    assert PeriodicSchedule(1 / 3600).step_seconds == 1
    assert PeriodicSchedule(3.0).step_seconds == 3 * HOUR


@pytest.mark.parametrize("settings,message", [
    ({"history_days": True}, "history_days True is not an integer"),
    ({"history_days": 3.5}, "history_days 3.5 is not an integer"),
    ({"trigger_ratio": True}, "trigger_ratio True is not a number"),
    ({"seed": 1.5}, "seed 1.5 is not an integer"),
    ({"max_actions_per_wake": 2.5}, "max_actions_per_wake 2.5 is not an integer"),
])
def test_sim_config_rejects_settings_of_the_wrong_kind(settings, message):
    with pytest.raises(SimulationError, match=message):
        SimConfig(window=(0, 10), **settings)


def test_policies_reject_settings_of_the_wrong_kind():
    # the step would be round(True * 3600) seconds
    with pytest.raises(SimulationError, match="interval_hours True is not a number"):
        PeriodicSchedule(True)
    with pytest.raises(SimulationError, match="interval_hours '3' is not a number"):
        PeriodicSchedule("3")
    model = hawkes.HawkesModel(("a",), np.full((1, 168), 0.1), np.zeros((1, 1)), 1.0, True)
    with pytest.raises(SimulationError, match="llm_adjusts_next_check 'no' is not a boolean"):
        HawkesGuided(model, llm_adjusts_next_check="no")


def test_hod_degenerate_histogram():
    h = np.zeros((1, 24))
    h[0, 9] = 1.0
    pol = EmpiricalHoD(h)
    rng = substream(1, "t")
    for _ in range(5):
        t = next_activation(pol, 0, None, BASE_MONDAY + 10 * HOUR,
                            BASE_MONDAY + 10 * DAY, rng)
        assert (t % DAY) // HOUR == 9
        assert t > BASE_MONDAY + 10 * HOUR


def _model():
    return hawkes.HawkesModel(("a", "b"), np.full((2, 168), 0.5), np.eye(2) * 0.4, 1.0, True)


def _stub_params():
    return agents.StubParams(np.zeros(2), np.zeros(2), np.zeros((2, 2)))


def test_equality_of_array_holders_is_a_bool():
    """Models, hour-of-day policies and stub params compare by identity, as
    they hold arrays, and configs and stub policies holding them compare field
    by field; the generated `==` raised ValueError on them, and `hash` on stub
    params raised TypeError."""
    model, hod, params = _model(), EmpiricalHoD(np.full((2, 24), 1 / 24)), _stub_params()
    guided = SimConfig(window=(0, 10), policy=HawkesGuided(model))
    for a, b in [(model, _model()), (hod, EmpiricalHoD(hod.histograms)),
                 (guided, SimConfig(window=(0, 10), policy=HawkesGuided(_model()))),
                 (guided, SimConfig(window=(0, 10), policy=hod)),
                 (params, _stub_params()),
                 (agents.StubPolicy(params), agents.StubPolicy(_stub_params()))]:
        assert (a == a) is True and (a != a) is False
        assert (a == b) is False and (a != b) is True
        assert hash(a) == hash(a)
    assert guided == SimConfig(window=(0, 10), policy=HawkesGuided(model))
    assert agents.StubPolicy(params) == agents.StubPolicy(params)


def test_hawkes_guided_delegates():
    model = hawkes.HawkesModel(("a", "b"), np.zeros((2, 168)), np.zeros((2, 2)),
                               1.0, True)
    pol = HawkesGuided(model)
    rng = substream(2, "t")
    assert next_activation(pol, 0, hawkes.ExcitationState(model), BASE_MONDAY,
                           BASE_MONDAY + DAY, rng) is None


def test_hawkes_guided_without_state_reads_zero_excitation(mini_log):
    """None stands for a zero-alpha model's state, which reads 0.0 however
    much history it covers: the draws are the same draws."""
    n = mini_log.n_agents
    model = hawkes.HawkesModel(mini_log.agents, np.full((n, 168), 0.4), np.zeros((n, n)),
                               1.0, True)
    pol = HawkesGuided(model)
    t_now = int(mini_log.ts[-1])
    state = hawkes.ExcitationState.from_log(model, mini_log, t_now)
    for agent in range(n):
        ours, theirs = substream(5, "t", agent), substream(5, "t", agent)
        for _ in range(3):
            want = next_activation(pol, agent, state, t_now, t_now + DAY, theirs)
            assert next_activation(pol, agent, None, t_now, t_now + DAY, ours) == want
        assert ours.bit_generator.state == theirs.bit_generator.state


def test_llm_predicted_returns_none():
    rng = substream(3, "t")
    assert next_activation(LLMPredicted(), 0, None, BASE_MONDAY,
                           BASE_MONDAY + DAY, rng) is None


# ---------------------------------------------------------------------------
# context


def test_build_context_first_wake(mini_log, mini_manifest):
    s0, s1 = mini_manifest["sim_window"]
    cfg = SimConfig(window=(s0, s1), history_days=4, policy=PeriodicSchedule())
    bob = mini_log.index_of("bob")
    ctx = build_context(bob, mini_log, [], cfg, s0 + HOUR, None, None)
    assert ctx.unread == ()
    # histories limited to pre-window ground truth
    assert all(e.ts < s0 for e in ctx.sent_history)
    assert all(e.ts < s0 for e in ctx.received_history)
    assert all(e.sender == bob for e in ctx.sent_history)
    assert all(bob in e.recipients for e in ctx.received_history)


def test_build_context_unread(mini_log, mini_manifest):
    s0, s1 = mini_manifest["sim_window"]
    cfg = SimConfig(window=(s0, s1), history_days=4, policy=PeriodicSchedule())
    bob = mini_log.index_of("bob")
    alice = mini_log.index_of("alice")
    sim_events = [Event(1000, alice, (bob,), s0 + 100)]
    ctx = build_context(bob, mini_log, sim_events, cfg, s0 + HOUR, None, None)
    assert ctx.unread == (sim_events[0],)
    # after acknowledging, the same event is no longer unread
    ctx2 = build_context(bob, mini_log, sim_events, cfg, s0 + 2 * HOUR,
                         s0 + HOUR, None)
    assert ctx2.unread == ()


def test_context_refuses_unread_mail_after_now(mini_log, mini_manifest):
    """`AgentContext(...)` and the index's context, which skips the
    constructor, both keep the check."""
    s0, s1 = mini_manifest["sim_window"]
    cfg = SimConfig(window=(s0, s1), history_days=4, policy=PeriodicSchedule())
    bob, alice = mini_log.index_of("bob"), mini_log.index_of("alice")
    late = Event(1000, alice, (bob,), s0 + 2 * HOUR)
    ctx = build_context(bob, mini_log, [], cfg, s0 + HOUR, None, None)
    with pytest.raises(SimulationError, match="unread event after now"):
        simulator.AgentContext(**{**vars(ctx), "unread": (late,)})
    index = simulator.ContextIndex(mini_log, cfg)
    index.add(late)
    with pytest.raises(SimulationError, match="unread event after now"):
        index.context(bob, s0 + HOUR, None, None)


def test_build_context_history_days_filter(mini_log, mini_manifest):
    s0, s1 = mini_manifest["sim_window"]
    cfg = SimConfig(window=(s0, s1), history_days=1, policy=PeriodicSchedule())
    alice = mini_log.index_of("alice")
    ctx = build_context(alice, mini_log, [], cfg, s0 + HOUR, None, None)
    # linear scan oracle: alice sends within 1 day before the window
    expected = [e for e in mini_log.events
                if s0 - DAY <= e.ts < s0 and e.sender == alice]
    assert list(ctx.sent_history) == expected


# ---------------------------------------------------------------------------
# run


def _mini_setup(mini_log, mini_manifest, ratio=0.125, policy=None):
    h0, h1 = mini_manifest["history_window"]
    s0, s1 = mini_manifest["sim_window"]
    cfg = SimConfig(window=(s0, s1), history_days=4, trigger_ratio=ratio,
                    seed=42, policy=policy or PeriodicSchedule())
    plan = select_triggers(mini_log, (h0, h1), ratio, (s0, s1))
    return cfg, plan


def test_run_no_agents_no_triggers():
    log = EventLog((), ())
    cfg = SimConfig(window=(BASE_MONDAY, BASE_MONDAY + DAY), policy=PeriodicSchedule())
    plan = TriggerPlan(frozenset(), EventLog((), ()))
    out = run(cfg, log, IdlePolicy(), plan)
    assert len(out) == 0


def test_run_triggers_only(mini_log, mini_manifest):
    cfg, plan = _mini_setup(mini_log, mini_manifest)
    out = run(cfg, mini_log, IdlePolicy(), plan)
    assert out.events == plan.scheduled_events.events


def test_run_deterministic(mini_log, mini_manifest):
    h0, h1 = mini_manifest["history_window"]
    cfg, plan = _mini_setup(mini_log, mini_manifest)
    params = agents.stub_params_from_history(mini_log, (h0, h1), seed=42)
    a = run(cfg, mini_log, agents.StubPolicy(params), plan)
    b = run(cfg, mini_log, agents.StubPolicy(params), plan)
    assert serialize(a) == serialize(b)
    assert len(a) > len(plan.scheduled_events)


def test_run_invariants(mini_log, mini_manifest):
    h0, h1 = mini_manifest["history_window"]
    s0, s1 = mini_manifest["sim_window"]
    cfg, plan = _mini_setup(mini_log, mini_manifest)
    params = agents.stub_params_from_history(mini_log, (h0, h1), seed=42)
    counters = {}
    out = run(cfg, mini_log, agents.StubPolicy(params), plan, counters=counters)
    trigger_ids = {e.event_id for e in plan.scheduled_events.events}
    seen_triggers = [e for e in out.events if e.event_id in trigger_ids]
    assert len(seen_triggers) == len(trigger_ids)  # each exactly once
    for e in out.events:
        assert s0 <= e.ts < s1
        # injected exactly when sent by a trigger agent
        assert (e.event_id in trigger_ids) == (e.sender in plan.trigger_agents)
    assert counters["organic_events"] == len(out) - len(trigger_ids)
    assert counters["wakes"] > 0


def test_run_wake_times_strictly_increase(mini_log, mini_manifest):
    h0, h1 = mini_manifest["history_window"]
    cfg, plan = _mini_setup(mini_log, mini_manifest)

    wake_log: dict[int, list[int]] = {}

    class Spy(agents.StubPolicy):
        def decide(self, ctx):
            wake_log.setdefault(ctx.agent, []).append(ctx.now)
            return super().decide(ctx)

    params = agents.stub_params_from_history(mini_log, (h0, h1), seed=1)
    run(cfg, mini_log, Spy(params), plan)
    for agent, times in wake_log.items():
        assert times == sorted(times)
        assert len(set(times)) == len(times)


def test_run_hawkes_policy(mini_log, mini_manifest):
    h0, h1 = mini_manifest["history_window"]
    model = hawkes.fit(mini_log, (h0, h1), hawkes.FitConfig(max_iters=40))
    cfg, plan = _mini_setup(mini_log, mini_manifest, policy=HawkesGuided(model))
    params = agents.stub_params_from_history(mini_log, (h0, h1), seed=42)
    a = run(cfg, mini_log, agents.StubPolicy(params), plan)
    b = run(cfg, mini_log, agents.StubPolicy(params), plan)
    assert serialize(a) == serialize(b)


def test_run_llm_predicted_uses_next_check(mini_log, mini_manifest):
    cfg, plan = _mini_setup(mini_log, mini_manifest,
                            policy=LLMPredicted())

    wakes = []

    class SixHourly:
        def decide(self, ctx):
            wakes.append((ctx.agent, ctx.now))
            return ActionDecision((), ctx.now + 6 * HOUR)

    run(cfg, mini_log, SixHourly(), plan)
    s0 = mini_manifest["sim_window"][0]
    per_agent = {}
    for agent, now in wakes:
        per_agent.setdefault(agent, []).append(now)
    for times in per_agent.values():
        assert times[0] == s0
        for a, b in zip(times, times[1:]):
            assert b - a == 6 * HOUR


def test_run_clamps_past_next_check(mini_log, mini_manifest):
    cfg, plan = _mini_setup(mini_log, mini_manifest, policy=LLMPredicted())

    class PastPolicy:
        def decide(self, ctx):
            return ActionDecision((), ctx.now - HOUR)

    counters = {}
    run(cfg, mini_log, PastPolicy(), plan, counters=counters)
    assert counters["next_check_clamps"] > 0


def test_run_caps_actions(mini_log, mini_manifest):
    cfg, plan = _mini_setup(mini_log, mini_manifest)
    bob = mini_log.index_of("bob")

    class Chatty:
        def decide(self, ctx):
            target = bob if ctx.agent != bob else (bob + 1) % mini_log.n_agents
            acts = tuple(Action("initiate", (target,)) for _ in range(9))
            return ActionDecision(acts, ctx.now + 12 * HOUR)

    counters = {}
    out = run(cfg, mini_log, Chatty(), plan, counters=counters)
    by_wake = {}
    for e in out.events:
        if e.sender not in plan.trigger_agents:
            by_wake.setdefault((e.sender, e.ts), []).append(e)
    assert by_wake and all(len(v) <= cfg.max_actions_per_wake for v in by_wake.values())
    assert counters["actions_truncated"] > 0


@pytest.mark.parametrize("bad", ["-1", "n_agents"])
def test_run_rejects_recipient_outside_registry(mini_log, mini_manifest, bad):
    """An action addressed outside the registry stops the run at the wake
    that made it, before the event reaches any mailbox."""
    cfg, plan = _mini_setup(mini_log, mini_manifest)
    recipient = -1 if bad == "-1" else mini_log.n_agents
    decisions = []

    class Stray:
        def decide(self, ctx):
            decisions.append(ctx)
            return ActionDecision((Action("initiate", (recipient,)),), ctx.now + HOUR)

    with pytest.raises(SimulationError, match="outside registry"):
        run(cfg, mini_log, Stray(), plan)
    assert len(decisions) == 1


def test_run_hawkes_llm_adjusts_next_check(mini_log, mini_manifest):
    """With llm_adjusts_next_check the decision's next_check sets the next
    HawkesGuided wake, a past one clamped to +MIN_CLAMP_SECONDS and counted;
    without it the sampler alone schedules the wakes."""
    s0, _ = mini_manifest["sim_window"]
    fixed = s0 + 6 * HOUR
    t1 = fixed + 10 * MIN_CLAMP_SECONDS
    n = mini_log.n_agents
    model = hawkes.HawkesModel(mini_log.agents, np.ones((n, 168)), np.zeros((n, n)),
                               1.0, True)
    plan = TriggerPlan(frozenset(), EventLog(mini_log.agents, ()))

    def rollout(adjust, next_check):
        wakes, counters = {}, {}

        class Recorder:
            def decide(self, ctx):
                wakes.setdefault(ctx.agent, []).append(ctx.now)
                return ActionDecision((), next_check(ctx))

        cfg = SimConfig(window=(s0, t1), history_days=4,
                        policy=HawkesGuided(model, llm_adjusts_next_check=adjust))
        run(cfg, mini_log, Recorder(), plan, counters=counters)
        return wakes, counters["next_check_clamps"]

    followed, clamps = rollout(True, lambda ctx: fixed)
    assert followed
    past = 0
    for times in followed.values():
        first = times[0]
        start = fixed if first < fixed else first + MIN_CLAMP_SECONDS
        assert times == [first] + list(range(start, t1, MIN_CLAMP_SECONDS))
        past += sum(t >= fixed for t in times)
    assert clamps == past > 0

    ignored, clamps = rollout(False, lambda ctx: fixed)
    sampled, _ = rollout(False, lambda ctx: ctx.now + HOUR)
    assert ignored == sampled != followed
    assert clamps == 0


def test_run_periodic_suggestion_past_horizon(mini_log, mini_manifest):
    """The suggestion shown at the last wake is the next periodic slot even
    when that slot lies past the window end."""
    s0, _ = mini_manifest["sim_window"]
    cfg = SimConfig(window=(s0, s0 + 4 * HOUR), history_days=4,
                    policy=PeriodicSchedule(3.0))
    plan = TriggerPlan(frozenset(), EventLog(mini_log.agents, ()))
    seen = []

    class Recorder:
        def decide(self, ctx):
            seen.append((ctx.now, ctx.suggested_next_check))
            return ActionDecision((), ctx.suggested_next_check)

    run(cfg, mini_log, Recorder(), plan)
    assert seen == [(s0 + 3 * HOUR, s0 + 6 * HOUR)] * mini_log.n_agents


def test_run_hawkes_zero_draws_keeps_every_agent(mini_log, mini_manifest, monkeypatch):
    """With every thinning draw 0 the sampler proposes t_now itself; each
    agent must still wake once per second instead of leaving the schedule."""
    s0, _ = mini_manifest["sim_window"]
    t1 = s0 + 30
    model = hawkes.HawkesModel(mini_log.agents, np.full((mini_log.n_agents, 168), 1.0),
                               np.zeros((mini_log.n_agents,) * 2), 1.0, True)
    cfg = SimConfig(window=(s0, t1), history_days=4, policy=HawkesGuided(model))
    plan = TriggerPlan(frozenset(), EventLog(mini_log.agents, ()))
    monkeypatch.setattr(simulator, "substream", lambda *a: ZeroDraws())
    wakes = {}

    class Recorder:
        def decide(self, ctx):
            wakes.setdefault(ctx.agent, []).append(ctx.now)
            return ActionDecision((), ctx.suggested_next_check)

    run(cfg, mini_log, Recorder(), plan)
    assert wakes == {a: list(range(s0 + 1, t1)) for a in range(mini_log.n_agents)}


def test_run_zero_alpha_hawkes_keeps_no_excitation_state(mini_log, mini_manifest,
                                                        monkeypatch):
    n = mini_log.n_agents
    model = hawkes.HawkesModel(mini_log.agents, np.full((n, 168), 0.5), np.zeros((n, n)),
                               1.0, True)
    cfg, plan = _mini_setup(mini_log, mini_manifest, policy=HawkesGuided(model))

    def refuse(*args):
        raise AssertionError("a zero-alpha rollout built an ExcitationState")

    monkeypatch.setattr(hawkes.ExcitationState, "from_log", refuse)
    counters = {}
    run(cfg, mini_log, IdlePolicy(), plan, counters=counters)
    assert counters["wakes"] > 0


@pytest.mark.parametrize("policy_name", ["hod", "hawkes"])
def test_run_raises_on_wake_not_after_now(mini_log, mini_manifest, monkeypatch, policy_name):
    """A policy that schedules a wake at t_now is an error, not a silent exit
    of the agent from the schedule."""
    n = mini_log.n_agents
    policy = (EmpiricalHoD(np.full((n, 24), 1 / 24)) if policy_name == "hod" else
              HawkesGuided(hawkes.HawkesModel(mini_log.agents, np.ones((n, 168)),
                                              np.zeros((n, n)), 1.0, True)))
    cfg, plan = _mini_setup(mini_log, mini_manifest, policy=policy)
    s0 = cfg.window[0]
    monkeypatch.setattr(type(policy), "draw",
                        lambda self, agent, excitation, t_now, horizon, rng:
                        s0 + HOUR if t_now == s0 else t_now)
    with pytest.raises(SimulationError, match="not after"):
        run(cfg, mini_log, IdlePolicy(), plan)


def test_run_aborts_with_partial_log(mini_log, mini_manifest):
    cfg, plan = _mini_setup(mini_log, mini_manifest)
    with pytest.raises(SimulationAborted) as exc:
        run(cfg, mini_log, FailingPolicy(), plan)
    assert isinstance(exc.value.partial_log, EventLog)


def test_queue_ties_trigger_first_then_agent_index(mini_log, mini_manifest):
    """A trigger injected at exactly the window start is already visible to
    every agent waking at that same instant, and same-time wakes run in
    ascending agent-index order."""
    s0, s1 = mini_manifest["sim_window"]
    alice = mini_log.index_of("alice")
    bob = mini_log.index_of("bob")
    opening = Event(900, alice, (bob,), s0)
    plan = TriggerPlan(frozenset({alice}), EventLog(mini_log.agents, (opening,)))
    cfg = SimConfig(window=(s0, s1), history_days=4, trigger_ratio=0.125,
                    seed=1, policy=LLMPredicted())

    first_wakes = []

    class Recorder:
        def decide(self, ctx):
            if ctx.now == s0:
                first_wakes.append((ctx.agent, ctx.unread))
            return ActionDecision((), s1 + 1)  # single wake per agent

    run(cfg, mini_log, Recorder(), plan)
    assert [a for a, _ in first_wakes] == sorted(a for a, _ in first_wakes)
    by_agent = dict(first_wakes)
    assert by_agent[bob] == (opening,)  # trigger processed before the wakes


def test_run_with_llm_agent_mock_endpoint(mini_log, mini_manifest):
    """Full loop with the HTTP agent against a scripted endpoint: the fake
    reads the prompt's current time and schedules 4-hourly checks with one
    initiation per wake."""
    import json as _json
    import re

    from commsim import timeutil

    def transport(url, payload, headers, timeout):
        user = payload["messages"][-1]["content"]
        m = re.search(r"# Current time\n(\d{4}-\d{2}-\d{2} \d{2}:\d{2}:\d{2})", user)
        now = timeutil.parse_utc(m.group(1))
        decision = {
            "actions": [{"type": "initiate", "recipients": ["carol"],
                         "thread": None, "body": "ping"}],
            "next_check": timeutil.format_utc(now + 4 * HOUR),
            "reasoning": "scripted",
        }
        return {"choices": [{"message": {"content": _json.dumps(decision)}}]}

    cfg_llm = agents.LLMEndpointConfig(base_url="http://mock", model_name="m",
                                       backoff_base_seconds=0.0)
    policy_impl = agents.LLMPolicy(cfg_llm, transport=transport,
                                   sleeper=lambda s: None)
    cfg, plan = _mini_setup(mini_log, mini_manifest, policy=LLMPredicted())
    counters = {}
    out = run(cfg, mini_log, policy_impl, plan, counters=counters)
    carol = mini_log.index_of("carol")
    organic = [e for e in out.events if e.sender not in plan.trigger_agents]
    assert organic and all(e.recipients == (carol,) or e.sender == carol
                           for e in organic)
    # every organic sender is a non-trigger agent waking on its 4h schedule
    s0 = cfg.window[0]
    assert all((e.ts - s0) % (4 * HOUR) == 0 for e in organic)
    assert policy_impl.calls == counters["wakes"]
    assert counters["organic_events"] == len(organic)


def test_collapse_floor_with_triggers(mini_log, mini_manifest):
    """Trigger injection plus the calibrated stub keeps every day active."""
    h0, h1 = mini_manifest["history_window"]
    s0, s1 = mini_manifest["sim_window"]
    cfg, plan = _mini_setup(mini_log, mini_manifest, ratio=0.10)
    params = agents.stub_params_from_history(mini_log, (h0, h1), seed=42)
    out = run(cfg, mini_log, agents.StubPolicy(params), plan)
    days = {(e.ts - s0) // DAY for e in out.events}
    assert days == set(range(8))


# ---------------------------------------------------------------------------
# batched wakes: `prepare`


class OracleStub:
    """The stub decision through `substream`, without a `prepare` hook."""

    def __init__(self, params):
        self.params = params

    def decide(self, ctx):
        return oracle_agents.oracle_stub_decide(self.params, ctx)


class PrepareSpy:
    """Delegating AgentPolicy that logs every `prepare` and `decide` call."""

    def __init__(self, inner):
        self.inner = inner
        self.calls = []

    def prepare(self, now, agents_due):
        self.calls.append(("prepare", now, list(agents_due)))
        self.inner.prepare(now, agents_due)

    def decide(self, ctx):
        self.calls.append(("decide", ctx.now, ctx.agent))
        return self.inner.decide(ctx)


def _slot_rollout(n_organic):
    """Two trigger agents and n_organic stub agents on a 3-hour schedule
    over two days: trigger mail lands on wake slots and between them, every
    agent initiates and replies. Agent 2 sends over 100 a day, so each of
    its wakes draws `poisson` at lam above 12.5, beyond the zero rule's range."""
    rng = np.random.default_rng(n_organic)
    n = n_organic + 2
    t0 = BASE_MONDAY + 4 * DAY
    step = 3 * HOUR
    events = []
    for ts in np.sort(rng.integers(BASE_MONDAY, t0, 12 * n)):
        sender = int(rng.integers(n))
        events.append((sender, (sender + 1 + int(rng.integers(n - 1))) % n, int(ts)))
    for ts in np.sort(rng.integers(BASE_MONDAY, t0, 400)):
        events.append((2, 3 + int(rng.integers(n - 3)), int(ts)))
    for k in range(1, 16):
        events.append((k % 2, 2 + k % n_organic, t0 + k * step))        # on a slot
        events.append((k % 2, 2 + (3 * k) % n_organic, t0 + k * step + 7))
    events.sort(key=lambda e: e[2])
    log = EventLog(tuple(f"a{i:02d}" for i in range(n)),
                   tuple(Event(k, s, (r,), ts) for k, (s, r, ts) in enumerate(events)))
    triggers = frozenset({0, 1})
    scheduled = tuple(e for e in log.events if e.sender in triggers and e.ts >= t0)
    plan = TriggerPlan(triggers, EventLog(log.agents, scheduled))
    cfg = SimConfig(window=(t0, t0 + 2 * DAY), history_days=4, seed=7,
                    policy=PeriodicSchedule(3.0))
    params = agents.stub_params_from_history(log, (BASE_MONDAY, t0), seed=7)
    assert np.all(params.initiate_rate[2:] > 0) and params.initiate_rate[2] >= 100
    return cfg, log, plan, params


@pytest.mark.parametrize("offset", [-1, 0, 1])
def test_batched_stub_rollout_matches_substream_stub(offset, monkeypatch):
    """Around the break-even size the batched StubPolicy writes the rollout
    of the `substream` oracle byte for byte, and batches exactly when the
    due wakes reach that size; `prepare` sees each slot's due agents once,
    in agent-index order, before their wakes. A batched wake sets a
    generator only when the oracle's `initiate` draw is not 0; one at lam
    of 10 or more sets it whatever its draw."""
    n_organic = agents._BATCH_MIN_KEYS + offset
    cfg, log, plan, params = _slot_rollout(n_organic)
    batches, generators = [], []

    def counting(keys):
        batches.append(len(keys))
        return pcg64_states(keys)

    def setting(rng, state, inc):
        generators.append(state)
        return set_pcg64_state(rng, state, inc)

    monkeypatch.setattr(agents, "pcg64_states", counting)
    monkeypatch.setattr(agents, "set_pcg64_state", setting)
    spy = PrepareSpy(agents.StubPolicy(params))
    out = run(cfg, log, spy, plan)
    want = run(cfg, log, OracleStub(params), plan)
    assert serialize(out) == serialize(want)
    assert any(e.ts in {t for _, t, _ in spy.calls} for e in plan.scheduled_events.events)
    organic = list(range(2, 2 + n_organic))
    slots = sorted({now for kind, now, _ in spy.calls})
    assert len(slots) == 15
    for now in slots:
        at_now = [c for c in spy.calls if c[1] == now]
        assert at_now == [("prepare", now, organic)] + [("decide", now, a) for a in organic]
    assert batches == ([n_organic] * 15 if n_organic >= agents._BATCH_MIN_KEYS else [])
    # every agent wakes on every slot, so a wake after the first draws at lam
    # = rate * 3 h; the oracle's draw from its own substream
    lam = {a: float(params.initiate_rate[a]) * (3 * HOUR / DAY) for a in organic}
    nonzero = [(a, now) for now in slots[1:] for a in organic
               if substream(cfg.seed, "initiate", a, now).poisson(lam[a]) > 0]
    assert lam[2] >= 10 and 0 < len(nonzero) < len(organic) * 14
    assert len(generators) == (len(nonzero) if batches else 0)


def test_single_wakes_are_not_prepared(mini_log, mini_manifest):
    """A wake alone at its timestamp reaches `decide` without `prepare`."""
    h0, h1 = mini_manifest["history_window"]
    model = hawkes.fit(mini_log, (h0, h1), hawkes.FitConfig(max_iters=40))
    cfg, plan = _mini_setup(mini_log, mini_manifest, policy=HawkesGuided(model))
    params = agents.stub_params_from_history(mini_log, (h0, h1), seed=42)
    spy = PrepareSpy(agents.StubPolicy(params))
    out = run(cfg, mini_log, spy, plan)
    assert serialize(out) == serialize(run(cfg, mini_log, OracleStub(params), plan))
    wakes = [now for kind, now, _ in spy.calls]
    assert len(wakes) == len(set(wakes)) > 0
    assert {kind for kind, _, _ in spy.calls} == {"decide"}
