import json

import numpy as np
import pytest

from commsim import agents
from commsim.agents import (LLMDecodeError, LLMEndpointConfig, LLMPolicy,
                            LLMTransportError, StubParams, parse_decision,
                            render_prompt, stub_decide, stub_params_from_history)
from commsim.corpus import Event
from commsim.simulator import (AgentContext, CadenceSummary, PeriodicSchedule,
                               SimConfig, build_context)

from conftest import BASE_MONDAY

HOUR = 3600
DAY = 86400


def make_ctx(agent=0, n_agents=3, unread=(), now=None, suggested=None,
             last_check=None):
    now = now if now is not None else BASE_MONDAY + 4 * DAY + 9 * HOUR
    labels = tuple(f"a{i:02d}" for i in range(n_agents))
    return AgentContext(
        agent=agent, label=labels[agent], persona=None, agents=labels,
        sent_history=(), received_history=(),
        unread=tuple(unread), now=now, takeover=BASE_MONDAY + 4 * DAY,
        last_check=last_check, suggested_next_check=suggested,
        cadence=CadenceSummary((), 0.5),
    )


def uniform_params(n=3, reply=0.5, rate=0.0, seed=0):
    dist = np.full((n, n), 1.0 / (n - 1))
    np.fill_diagonal(dist, 0.0)
    return StubParams(reply_prob=np.full(n, reply),
                      initiate_rate=np.full(n, rate),
                      contact_dist=dist, seed=seed)


# ---------------------------------------------------------------------------
# stub


def test_stub_idle_when_zeroed():
    params = uniform_params(reply=0.0, rate=0.0)
    unread = [Event(7, 1, (0,), BASE_MONDAY + 4 * DAY + 8 * HOUR)]
    d = stub_decide(params, make_ctx(unread=unread))
    assert d.idle
    assert d.next_check == make_ctx().now + agents.DEFAULT_NEXT_CHECK_GAP


def test_stub_replies_to_each_unread():
    params = uniform_params(reply=1.0)
    t = BASE_MONDAY + 4 * DAY + 8 * HOUR
    unread = [Event(7, 1, (0,), t, "organic", 7), Event(9, 2, (0,), t + 60)]
    d = stub_decide(params, make_ctx(unread=unread))
    assert len(d.actions) == 2
    assert d.actions[0].kind == "reply" and d.actions[0].recipients == (1,)
    assert d.actions[0].thread_id == 7
    assert d.actions[1].recipients == (2,)
    assert d.actions[1].thread_id == 9  # falls back to the event id


def test_stub_pure_function():
    params = uniform_params(reply=0.5, rate=1.5)
    ctx = make_ctx(unread=[Event(3, 1, (0,), BASE_MONDAY + 4 * DAY)],
                   last_check=BASE_MONDAY + 4 * DAY - 6 * HOUR)
    a = stub_decide(params, ctx)
    b = stub_decide(params, ctx)
    assert a == b


def test_stub_reply_fraction_monte_carlo():
    params = uniform_params(reply=0.3)
    replies = 0
    n = 1000
    for k in range(n):
        unread = [Event(k, 1, (0,), BASE_MONDAY + 4 * DAY + 8 * HOUR)]
        d = stub_decide(params, make_ctx(unread=unread))
        replies += len(d.actions)
    assert abs(replies / n - 0.3) < 0.05


def test_stub_initiate_rate_long_run():
    params = uniform_params(rate=2.0, reply=0.0)
    total = 0.0
    wakes = 400
    for k in range(wakes):
        now = BASE_MONDAY + 4 * DAY + k * 6 * HOUR
        ctx = make_ctx(now=now, last_check=now - 6 * HOUR)
        total += len(stub_decide(params, ctx).actions)
    days = wakes * 0.25
    assert total / days == pytest.approx(2.0, rel=0.15)


def test_stub_echoes_suggested_next_check():
    params = uniform_params()
    ctx = make_ctx(suggested=BASE_MONDAY + 5 * DAY)
    assert stub_decide(params, ctx).next_check == BASE_MONDAY + 5 * DAY


def test_stub_calibration(mini_log, mini_manifest):
    h0, h1 = mini_manifest["history_window"]
    params = stub_params_from_history(mini_log, (h0, h1), seed=1)
    bob = mini_log.index_of("bob")
    # bob's in-neighbors {alice, carol} are both answered in history
    assert params.reply_prob[bob] == 1.0
    # bob sends 3 times over the 4-day history window
    assert params.initiate_rate[bob] == pytest.approx(3 / 4)
    assert params.contact_dist[bob].sum() == pytest.approx(1.0)


# ---------------------------------------------------------------------------
# prompt rendering


def test_prompt_no_future_leakage(mini_log, mini_manifest):
    s0, s1 = mini_manifest["sim_window"]
    cfg = SimConfig(window=(s0, s1), history_days=4, policy=PeriodicSchedule())
    bob = mini_log.index_of("bob")
    alice = mini_log.index_of("alice")
    now = s0 + 2 * HOUR
    sim_events = [Event(1000, alice, (bob,), s0 + HOUR, "trigger"),
                  Event(1001, alice, (bob,), s0 + 3 * HOUR, "trigger")]
    visible = [e for e in sim_events if e.ts <= now]
    ctx = build_context(bob, mini_log, visible, cfg, now, None, None)
    system, user = render_prompt(ctx)
    import re
    from commsim import timeutil
    for stamp in re.findall(r"\[(\d{4}-\d{2}-\d{2} \d{2}:\d{2}:\d{2})\]", user):
        assert timeutil.parse_utc(stamp) <= now


def test_prompt_contains_sections(mini_log, mini_manifest):
    s0, s1 = mini_manifest["sim_window"]
    cfg = SimConfig(window=(s0, s1), history_days=4, policy=PeriodicSchedule())
    bob = mini_log.index_of("bob")
    ctx = build_context(bob, mini_log, [], cfg, s0 + HOUR, None, s0 + 5 * HOUR)
    system, user = render_prompt(ctx)
    assert "next_check" in system
    for section in ("Unread since your last check", "Suggested next check",
                    "Current time", "Sending cadence"):
        assert section in user


# ---------------------------------------------------------------------------
# decision parsing


def good_payload(next_check="2001-03-09 15:00:00"):
    return {
        "actions": [
            {"type": "reply", "recipients": ["a01"], "thread": 7, "body": "ok"},
            {"type": "initiate", "recipients": ["a02"], "thread": None, "body": "hi"},
        ],
        "next_check": next_check,
        "reasoning": "calibration",
    }


def test_parse_golden_decision():
    ctx = make_ctx(now=BASE_MONDAY + 4 * DAY + 9 * HOUR)
    d = parse_decision(json.dumps(good_payload()), ctx)
    assert len(d.actions) == 2
    assert d.actions[0].kind == "reply" and d.actions[0].recipients == (1,)
    assert d.actions[0].thread_id == 7 and d.actions[0].body == "ok"
    assert d.actions[1].kind == "initiate" and d.actions[1].recipients == (2,)
    assert not d.next_check_clamped
    assert d.reasoning == "calibration"


def test_parse_strips_self_and_unknown_recipients():
    ctx = make_ctx()
    payload = good_payload()
    payload["actions"][0]["recipients"] = ["a00", "nobody@nowhere", "a01"]
    payload["actions"][1]["recipients"] = ["a00"]  # only self: dropped
    d = parse_decision(json.dumps(payload), ctx)
    assert len(d.actions) == 1
    assert d.actions[0].recipients == (1,)
    assert all(ctx.agent not in a.recipients for a in d.actions)


def test_parse_clamps_past_next_check():
    ctx = make_ctx()
    d = parse_decision(json.dumps(good_payload("2001-03-01 00:00:00")), ctx)
    assert d.next_check_clamped
    assert d.next_check == ctx.now + 60


def test_parse_rejects_garbage():
    ctx = make_ctx()
    with pytest.raises(LLMDecodeError):
        parse_decision("not json at all", ctx)
    with pytest.raises(LLMDecodeError):
        parse_decision(json.dumps({"actions": []}), ctx)  # missing next_check
    with pytest.raises(LLMDecodeError):
        parse_decision(json.dumps({"actions": [{"type": "forward", "recipients": ["a01"]}],
                                   "next_check": "2001-03-10 09:00:00"}), ctx)


# ---------------------------------------------------------------------------
# transport


def respond_with(content):
    return {"choices": [{"message": {"content": content}}]}


def make_policy(transport, max_retries=2):
    cfg = LLMEndpointConfig(base_url="http://mock", model_name="test-model",
                            max_retries=max_retries, backoff_base_seconds=0.0)
    return LLMPolicy(cfg, transport=transport, sleeper=lambda s: None)


def test_llm_decide_golden():
    def transport(url, payload, headers, timeout):
        assert url.endswith("/v1/chat/completions")
        assert payload["model"] == "test-model"
        assert payload["temperature"] == 0.0 and payload["seed"] == 42
        assert [m["role"] for m in payload["messages"]] == ["system", "user"]
        return respond_with(json.dumps(good_payload()))

    policy = make_policy(transport)
    d = policy.decide(make_ctx())
    assert len(d.actions) == 2 and policy.calls == 1


def test_llm_repair_reprompt_then_error():
    calls = []

    def transport(url, payload, headers, timeout):
        calls.append(payload)
        return respond_with("} not json {")

    policy = make_policy(transport)
    with pytest.raises(LLMDecodeError):
        policy.decide(make_ctx())
    assert len(calls) == 2  # original + one repair attempt
    assert "could not be parsed" in calls[1]["messages"][-1]["content"]


def test_llm_repair_reprompt_succeeds():
    replies = [respond_with("garbage"), respond_with(json.dumps(good_payload()))]

    def transport(url, payload, headers, timeout):
        return replies.pop(0)

    d = make_policy(transport).decide(make_ctx())
    assert len(d.actions) == 2


def test_llm_retries_transport_errors():
    attempts = []

    def transport(url, payload, headers, timeout):
        attempts.append(1)
        if len(attempts) < 3:
            raise ConnectionError("no route")
        return respond_with(json.dumps(good_payload()))

    policy = make_policy(transport, max_retries=3)
    d = policy.decide(make_ctx())
    assert len(attempts) == 3 and policy.retries == 2
    assert d.actions


def test_llm_transport_exhaustion():
    def transport(url, payload, headers, timeout):
        raise ConnectionError("down")

    policy = make_policy(transport, max_retries=1)
    with pytest.raises(LLMTransportError):
        policy.decide(make_ctx())
    assert policy.calls == 2


def test_llm_api_key_from_env(monkeypatch):
    seen = {}

    def transport(url, payload, headers, timeout):
        seen.update(headers)
        return respond_with(json.dumps(good_payload()))

    monkeypatch.setenv("COMMSIM_API_KEY", "sk-test")
    make_policy(transport).decide(make_ctx())
    assert seen.get("Authorization") == "Bearer sk-test"
