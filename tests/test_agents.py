import json
import math
import re
import threading
import urllib.error
import urllib.request

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from commsim import agents, corpus, rng as rng_mod
from commsim.agents import (LLMDecodeError, LLMEndpointConfig, LLMPolicy,
                            LLMTransportError, StubParams, parse_decision,
                            render_prompt, stub_decide, stub_params_from_history)
from commsim.corpus import Event
from commsim.simulator import (AgentContext, CadenceSummary, PeriodicSchedule,
                               SimConfig, build_context)

import oracle_agents
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
    unread = [Event(7, 1, (0,), t, 7), Event(9, 2, (0,), t + 60)]
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


@st.composite
def stub_cases(draw):
    """(params, ctx): contact rows of mixed scale with zero entries, some
    all-zero rows, rates that make several initiations per wake likely."""
    seed = draw(st.integers(0, 2**32 - 1))
    r = np.random.default_rng(seed)
    n = draw(st.integers(1, 8))
    rows = r.random((n, n)) * (r.random((n, n)) > 0.4) * 10.0 ** r.integers(-3, 4, (n, 1))
    rows[r.random(n) < 0.25] = 0.0
    sums = rows.sum(axis=1, keepdims=True)
    dist = np.divide(rows, sums, out=np.zeros_like(rows), where=sums > 0)
    params = StubParams(reply_prob=r.random(n), initiate_rate=r.random(n) * 20.0,
                        contact_dist=dist, seed=seed)
    now = BASE_MONDAY + 4 * DAY + draw(st.integers(0, 3 * DAY))
    ctx = make_ctx(agent=draw(st.integers(0, n - 1)), n_agents=n, now=now,
                   last_check=now - draw(st.integers(0, 2 * DAY)))
    return params, ctx


def _decide_recording(decide, module, params, ctx):
    """`decide(params, ctx)` and the generators it made by `module.substream`."""
    made = []

    def recording(*labels):
        made.append(rng_mod.substream(*labels))
        return made[-1]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(module, "substream", recording)
        return decide(params, ctx), made


@settings(max_examples=300, deadline=None)
@given(stub_cases())
def test_stub_decide_matches_choice_loop(case):
    """The cached recipient CDFs make the decisions of the `rng.choice` loop
    and leave the initiation stream in the same state."""
    params, ctx = case
    ours, our_rngs = _decide_recording(stub_decide, agents, params, ctx)
    theirs, their_rngs = _decide_recording(oracle_agents.oracle_stub_decide, oracle_agents,
                                           params, ctx)
    assert ours == theirs
    assert len(our_rngs) == len(their_rngs) <= 1
    for a, b in zip(our_rngs, their_rngs):
        assert a.bit_generator.state == b.bit_generator.state


def test_stub_negative_contact_raises_where_choice_raised():
    """A row with a negative entry constructs and fails only when its agent
    draws a recipient, with the ValueError `rng.choice(p=...)` raised."""
    dist = np.array([[0.0, 1.5, -0.5], [0.5, 0.0, 0.5], [0.5, 0.5, 0.0]])
    params = StubParams(reply_prob=np.zeros(3), initiate_rate=np.full(3, 50.0),
                        contact_dist=dist)
    now = BASE_MONDAY + 4 * DAY
    ctx = make_ctx(agent=1, n_agents=3, now=now, last_check=now - DAY)
    assert stub_decide(params, ctx) == oracle_agents.oracle_stub_decide(params, ctx)
    for decide in (stub_decide, oracle_agents.oracle_stub_decide):
        with pytest.raises(ValueError):
            decide(params, make_ctx(agent=0, n_agents=3, now=now, last_check=now - DAY))


def test_stub_lone_agent_initiates_nothing():
    """An agent with no one else to write to makes no initiation, however
    many its rate draws, as the `rng.choice` loop did."""
    params = StubParams(reply_prob=np.zeros(1), initiate_rate=np.full(1, 50.0),
                        contact_dist=np.zeros((1, 1)))
    now = BASE_MONDAY + 4 * DAY
    ctx = make_ctx(agent=0, n_agents=1, now=now, last_check=now - DAY)
    ours, our_rngs = _decide_recording(stub_decide, agents, params, ctx)
    theirs, their_rngs = _decide_recording(oracle_agents.oracle_stub_decide, oracle_agents,
                                           params, ctx)
    assert ours == theirs and ours.idle
    assert our_rngs[0].bit_generator.state == their_rngs[0].bit_generator.state


# ---------------------------------------------------------------------------
# prompt rendering


def test_prompt_no_future_leakage(mini_log, mini_manifest):
    s0, s1 = mini_manifest["sim_window"]
    cfg = SimConfig(window=(s0, s1), history_days=4, policy=PeriodicSchedule())
    bob = mini_log.index_of("bob")
    alice = mini_log.index_of("alice")
    now = s0 + 2 * HOUR
    sim_events = [Event(1000, alice, (bob,), s0 + HOUR),
                  Event(1001, alice, (bob,), s0 + 3 * HOUR)]
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
    with pytest.raises(LLMDecodeError, match="recursion"):
        parse_decision("[" * 200000, ctx)  # deeper than the decoder's stack
    with pytest.raises(LLMDecodeError):
        parse_decision(json.dumps({"actions": [{"type": "forward", "recipients": ["a01"]}],
                                   "next_check": "2001-03-10 09:00:00"}), ctx)
    # int() would read these as a time; a time is an integer as CSV ingest reads one
    for next_check in ("+983750400", "983_750_400"):
        with pytest.raises(LLMDecodeError, match="unrecognized timestamp"):
            parse_decision(json.dumps(good_payload(next_check)), ctx)
    # field types follow the JSONL rules: a body {"x": 1} would be written to
    # a sim.jsonl that ingest rejects, 1.7 and true would read as thread 1,
    # and "a01" as the labels a, 0 and 1
    for field, value, message in [
        ("body", {"x": 1}, "body {'x': 1} is not a string"),
        ("body", 5, "body 5 is not a string"),
        ("thread", 1.7, "thread 1.7 is not an integer"),
        ("thread", True, "thread True is not an integer"),
        ("thread", "7", "thread '7' is not an integer"),
        ("recipients", "a01", "recipients 'a01' is not a list of strings"),
        ("recipients", ["a01", 2], "recipients ['a01', 2] is not a list of strings"),
    ]:
        payload = good_payload()
        payload["actions"][0][field] = value
        with pytest.raises(LLMDecodeError, match=re.escape(message)):
            parse_decision(json.dumps(payload), ctx)
        payload["actions"][0]["recipients"] = ["a00"]  # dropped as self-addressed: still checked
        if field != "recipients":
            with pytest.raises(LLMDecodeError, match=re.escape(message)):
                parse_decision(json.dumps(payload), ctx)


_BAD_VALUES = {int: ["7", 1.7, True, [1]], str: [5, {"x": 1}, False, ["hi"]],
               list: ["a01", ["a01", 2], {"a01": 1}, None]}
_KIND_TEXT = {int: "an integer", str: "a string", list: "a list of strings"}


@pytest.mark.parametrize("field,value", [
    (name, value) for name, (kind, *_) in corpus.RECORD_FIELDS.items()
    if name in ("thread", "recipients", "body") for value in _BAD_VALUES[kind]])
def test_one_rule_one_text(tmp_path, field, value):
    """A bad field gets the same text from JSONL ingest, `Event` (which has
    no label fields) and an LLM reply: each applies the one record rule."""
    message = f"{field} {value!r} is not {_KIND_TEXT[corpus.RECORD_FIELDS[field][0]]}"
    good = {"id": 1, "sender": "a00", "recipients": ["a01"], "ts": 0, "thread": 4, "body": "x"}
    path = tmp_path / "log.jsonl"
    path.write_text(json.dumps(good) + "\n" + json.dumps({**good, "id": 2, field: value}) + "\n")
    with pytest.raises(corpus.CorpusError) as exc:
        corpus.ingest(path)
    assert str(exc.value) == f"line 2: {message}"
    if field != "recipients":
        with pytest.raises(corpus.CorpusError) as exc:
            Event(1, 0, (1,), 5, **{"thread_id" if field == "thread" else field: value})
        assert str(exc.value) == f"event 1: {message}"
    payload = good_payload()
    payload["actions"][0][field] = value
    with pytest.raises(LLMDecodeError) as exc:
        parse_decision(json.dumps(payload), make_ctx())
    assert str(exc.value) == f"undecodable decision: {message}"


# ---------------------------------------------------------------------------
# transport


def respond_with(content):
    return {"choices": [{"message": {"content": content}}]}


def make_policy(transport, max_retries=2):
    cfg = LLMEndpointConfig(base_url="http://mock", model_name="test-model",
                            max_retries=max_retries, backoff_base_seconds=0.0)
    return LLMPolicy(cfg, transport=transport, sleeper=lambda s: None)


@pytest.mark.parametrize("field,value", [
    ("timeout_seconds", float("nan")), ("timeout_seconds", float("inf")),
    ("timeout_seconds", 0.0), ("max_retries", 1.5), ("max_retries", True),
    ("max_retries", -1), ("backoff_base_seconds", -1.0),
    ("backoff_base_seconds", float("nan")), ("backoff_base_seconds", float("inf")),
    # float() and math.isfinite() read true as 1.0 and refuse "x" with a bare TypeError
    ("timeout_seconds", True), ("backoff_base_seconds", True),
    ("timeout_seconds", "x"), ("backoff_base_seconds", "x"),
    # both go into every request payload as they are
    ("temperature", "hot"), ("temperature", True), ("request_seed", True),
    ("request_seed", 4.2),
])
def test_endpoint_config_rejects_bad_settings(field, value):
    with pytest.raises(agents.AgentError, match=field):
        LLMEndpointConfig(base_url="http://mock", model_name="m", **{field: value})


# time.sleep raises OverflowError above threading.TIMEOUT_MAX (about 9.2e9 s)
@pytest.mark.parametrize("base,max_retries", [
    (1e308, 3), (5e9, 2), (3e9, 3), (math.nextafter(threading.TIMEOUT_MAX, math.inf), 1),
    (1.0, 1100),
])
def test_endpoint_config_rejects_a_backoff_that_time_sleep_refuses(base, max_retries):
    names_both = re.escape("backoff_base_seconds * 2 ** (max_retries - 1)")
    with pytest.raises(agents.AgentError, match=names_both):
        LLMEndpointConfig(base_url="http://mock", model_name="m",
                          backoff_base_seconds=base, max_retries=max_retries)


@pytest.mark.parametrize("base,max_retries", [
    (0.0, 1100), (1.5, 3), (threading.TIMEOUT_MAX, 1), (threading.TIMEOUT_MAX / 4, 3),
    (1e308, 0),
])
def test_backoff_doubles_from_the_base_on_each_retry(base, max_retries):
    def transport(url, payload, headers, timeout):
        raise ConnectionError("down")

    sleeps = []
    cfg = LLMEndpointConfig(base_url="http://mock", model_name="m",
                            backoff_base_seconds=base, max_retries=max_retries)
    policy = LLMPolicy(cfg, transport=transport, sleeper=sleeps.append)
    with pytest.raises(LLMTransportError):
        policy.decide(make_ctx())
    # 0.0 * 2 ** 1024 would raise: the int is too large to convert to float
    want = [0.0] * max_retries if base == 0 else [base * 2 ** k for k in range(max_retries)]
    assert sleeps == want and all(s <= threading.TIMEOUT_MAX for s in sleeps)


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


def test_llm_repair_reprompt_after_a_reply_too_deep_to_decode():
    calls = []

    def transport(url, payload, headers, timeout):
        calls.append(payload)
        return respond_with("[" * 200000 if len(calls) == 1 else json.dumps(good_payload()))

    d = make_policy(transport).decide(make_ctx())
    assert len(d.actions) == 2 and len(calls) == 2
    assert "recursion" in calls[1]["messages"][-1]["content"]


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


# the default transport, against a fake urlopen: no socket is opened


class FakeReply:
    def __init__(self, payload, status=200):
        self.body = json.dumps(payload).encode("utf-8")
        self.status, self.reason, self.headers = status, "fake", {}

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def read(self):
        return self.body


def default_transport_policy(max_retries=2):
    cfg = LLMEndpointConfig(base_url="http://mock/", model_name="test-model",
                            timeout_seconds=7.5, max_retries=max_retries,
                            backoff_base_seconds=0.0)
    return LLMPolicy(cfg, sleeper=lambda s: None)


def test_default_transport_posts_json(monkeypatch):
    seen = []

    def fake_urlopen(req, timeout):
        seen.append((req, timeout))
        return FakeReply(respond_with(json.dumps(good_payload())))

    monkeypatch.setattr(urllib.request, "urlopen", fake_urlopen)
    monkeypatch.setenv("COMMSIM_API_KEY", "sk-test")
    policy = default_transport_policy()
    d = policy.decide(make_ctx())
    assert len(d.actions) == 2 and policy.calls == 1 and policy.retries == 0
    ((req, timeout),) = seen
    assert req.get_method() == "POST"
    assert req.full_url == "http://mock/v1/chat/completions"
    body = json.loads(req.data)
    assert body["model"] == "test-model" and body["seed"] == 42
    assert [m["role"] for m in body["messages"]] == ["system", "user"]
    assert req.get_header("Content-type") == "application/json"
    assert req.get_header("Authorization") == "Bearer sk-test"
    assert timeout == 7.5


def http_503(req, timeout):
    raise urllib.error.HTTPError(req.full_url, 503, "Service Unavailable", {}, None)


def reply_503(req, timeout):
    return FakeReply({"error": "overloaded"}, status=503)


@pytest.mark.parametrize("failure", [http_503, reply_503])
def test_default_transport_retries_http_errors(monkeypatch, failure):
    calls = []

    def fake_urlopen(req, timeout):
        calls.append(req)
        if len(calls) == 1:
            return failure(req, timeout)
        return FakeReply(respond_with(json.dumps(good_payload())))

    monkeypatch.setattr(urllib.request, "urlopen", fake_urlopen)
    policy = default_transport_policy()
    assert len(policy.decide(make_ctx()).actions) == 2
    assert len(calls) == 2 and policy.retries == 1


@pytest.mark.parametrize("failure", [http_503, reply_503])
def test_default_transport_http_error_exhausts_retries(monkeypatch, failure):
    monkeypatch.setattr(urllib.request, "urlopen", failure)
    policy = default_transport_policy(max_retries=1)
    with pytest.raises(LLMTransportError, match="after 2 attempts.*503"):
        policy.decide(make_ctx())
    assert policy.calls == 2 and policy.retries == 1
