"""Agent decision policies.

Two implementations of the `decide(AgentContext) -> ActionDecision`
interface:

* StubPolicy — a deterministic statistical agent for network-free runs.
  Reply/initiate behavior is calibrated from the historical log; every
  decision is a pure function of (params, context) via hashed sub-streams.
* LLMPolicy — a client for any chat-completion style HTTP endpoint. It
  renders the agent's mailbox state into a system/user prompt pair, requests
  a structured JSON decision, validates it, and retries transport failures
  with exponential backoff.
"""

from __future__ import annotations

import json
import math
import os
import threading
import time
from dataclasses import dataclass, field

import numpy as np

from . import timeutil
from .corpus import (EventLog, _unchecked, check_kinds, contact_frequencies, field_error,
                     kind_error, simple_digraph_edges, window as log_window)
from .rng import (RecipientDraw, pcg64_states, poisson_is_zero, set_pcg64_state, stream_seeds,
                  substream, uniform_hash)
from .simulator import Action, ActionDecision, AgentContext, MIN_CLAMP_SECONDS

DEFAULT_NEXT_CHECK_GAP = 3 * 3600
# the fewest `initiate` keys that `StubPolicy.prepare` seeds in one batch.
# Batched, a slot's wakes (`prepare` and every `decide`) cost about 55-75 us,
# then about 5 us a wake, against 15-17 us a wake through `substream`: at 6
# keys batching is still 13% slower, at 8 it wins, 12.2 against 15.3 us a
# wake with 90% of the wakes' Poisson draws 0 and 14.5 against 16.7 with 69%
# (2 shared vCPUs, numpy 2.4.6)
_BATCH_MIN_KEYS = 8


class AgentError(RuntimeError):
    pass


class LLMTransportError(AgentError):
    pass


class LLMDecodeError(AgentError):
    pass


# ---------------------------------------------------------------------------
# statistical stub


@dataclass(frozen=True, eq=False)
class StubParams:
    """The stub's calibration. `==` is identity, as it holds arrays."""
    reply_prob: np.ndarray      # (D,) probability of answering an unread mail
    initiate_rate: np.ndarray   # (D,) expected initiations per day
    contact_dist: np.ndarray    # (D, D) row-normalized recipient frequencies
    seed: int = 0
    # each agent's recipient CDF, built the first time the agent initiates
    _recipients: RecipientDraw = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if np.any((self.reply_prob < 0) | (self.reply_prob > 1)):
            raise AgentError("reply_prob outside [0, 1]")
        if np.any(self.initiate_rate < 0):
            raise AgentError("negative initiate_rate")
        sums = self.contact_dist.sum(axis=1)
        if np.any((np.abs(sums - 1.0) > 1e-9) & (sums != 0)):
            raise AgentError("contact_dist rows must be normalized or zero")
        object.__setattr__(self, "_recipients",
                           RecipientDraw(self.contact_dist, self.contact_dist.shape[1]))


def stub_params_from_history(log: EventLog, window: tuple[int, int],
                             seed: int = 0) -> StubParams:
    """Calibrate the stub to a historical window: reply probability from the
    fraction of in-neighbors the agent ever answered, initiation rate from
    sends per day, contacts from recipient frequencies."""
    hist = log_window(log, *window)
    n = log.n_agents
    u, v = simple_digraph_edges(hist)
    in_degree = np.bincount(v, minlength=n)
    answered = np.bincount(v[np.isin(v * n + u, u * n + v)], minlength=n)
    reply = np.full(n, 0.3)
    np.divide(answered, in_degree, out=reply, where=in_degree > 0)
    days = max(1, (window[1] - window[0]) / 86400)
    sent = np.bincount(hist.senders, minlength=n)
    return StubParams(reply_prob=reply, initiate_rate=sent / days,
                      contact_dist=contact_frequencies(hist), seed=seed)


@dataclass(frozen=True)
class StubPolicy:
    """`stub_decide` as an agent policy. `prepare` seeds the `initiate`
    streams of a batch of wakes at once (`rng.pcg64_states`); a wake's
    decision then reads its stream from that batch, which draws exactly as
    `substream` would have, and sets a generator to it only when its
    Poisson draw is not 0 by its first double."""
    params: StubParams
    # (agent, now) -> (state, inc, first double) of the wake's `initiate`
    # stream, a function of (params.seed, agent, now): an aborted run's leftovers hold
    _initiate: dict = field(default_factory=dict, init=False, repr=False, compare=False)
    # a lambda: naming np.random.default_rng here would load numpy.random on import
    _rng: np.random.Generator = field(default_factory=lambda: np.random.default_rng(),
                                      init=False, repr=False, compare=False)

    def prepare(self, now: int, agents: list[int]) -> None:
        rate = self.params.initiate_rate
        drawing = [a for a in agents if rate[a] > 0]
        if len(drawing) >= _BATCH_MIN_KEYS:
            keys = stream_seeds(self.params.seed, "initiate", drawing, now)
            self._initiate.update(zip([(a, now) for a in drawing], pcg64_states(keys)))

    def decide(self, ctx: AgentContext) -> ActionDecision:
        stream = self._initiate.pop((ctx.agent, ctx.now), None) if self._initiate else None
        return stub_decide(self.params, ctx, stream, self._rng)


def stub_decide(params: StubParams, ctx: AgentContext,
                initiate: tuple[int, int, float] | None = None,
                rng: np.random.Generator | None = None) -> ActionDecision:
    """Deterministic statistical decision: answer each unread message with
    the calibrated reply probability, initiate at the calibrated daily rate
    over the time since the last check, bodies are placeholders.
    `initiate`, if given, is the wake's `initiate` substream as
    `rng.pcg64_states` seeds it, (state, inc, first double), and `rng` a
    PCG64 generator to set to it: only when `rng.poisson_is_zero` cannot
    tell that its Poisson draw is 0."""
    agent = ctx.agent
    actions = []
    for e in ctx.unread:
        u = uniform_hash(params.seed, "reply", agent, e.event_id)
        if u < params.reply_prob[agent]:
            thread = e.thread_id if e.thread_id is not None else e.event_id
            actions.append(Action("reply", (e.sender,), thread,
                                  f"re:{thread} from {ctx.label}"))

    since = ctx.last_check if ctx.last_check is not None else ctx.now
    elapsed_days = max(0.0, (ctx.now - since) / 86400)
    rate = float(params.initiate_rate[agent])
    if rate > 0 and elapsed_days > 0:
        lam = rate * elapsed_days
        if initiate is None:
            rng = substream(params.seed, "initiate", agent, ctx.now)
        elif poisson_is_zero(initiate[2], lam):  # no initiation, no other draw
            rng = None
        else:
            rng = set_pcg64_state(rng, initiate[0], initiate[1])
        n_init = 0 if rng is None else int(rng.poisson(lam))
        for k in range(n_init):
            recipient = params._recipients(rng, agent)
            if recipient is None:  # no other agent to write to
                break
            actions.append(Action("initiate", (recipient,), None,
                                  f"note {ctx.now}.{k} from {ctx.label}"))

    next_check = (ctx.suggested_next_check
                  if ctx.suggested_next_check is not None
                  else ctx.now + DEFAULT_NEXT_CHECK_GAP)
    # ActionDecision has no check: this skips only its frozen __init__ (0.55 against 0.74 us)
    return _unchecked(ActionDecision, actions=tuple(actions), next_check=next_check,
                      next_check_clamped=False, reasoning=None)


# ---------------------------------------------------------------------------
# LLM adapter


@dataclass(frozen=True)
class LLMEndpointConfig:
    base_url: str
    model_name: str
    api_key_env: str = "COMMSIM_API_KEY"
    endpoint_path: str = "/v1/chat/completions"
    timeout_seconds: float = 60.0
    max_retries: int = 3
    temperature: float = 0.0
    request_seed: int = 42
    backoff_base_seconds: float = 1.0

    def __post_init__(self):
        retries = self.max_retries
        if kind_error("max_retries", retries, int) or retries < 0:
            raise AgentError("max_retries must be >= 0 and an integer")
        check_kinds(vars(self), AgentError, timeout_seconds=float, backoff_base_seconds=float,
                    temperature=float, request_seed=int)
        if not (math.isfinite(self.timeout_seconds) and self.timeout_seconds > 0):
            raise AgentError("timeout_seconds must be positive and finite")
        # time.sleep raises on a negative, NaN or infinite backoff at the first
        # retry, and on one above threading.TIMEOUT_MAX at the retry that reaches it
        base = self.backoff_base_seconds
        if not (math.isfinite(base) and base >= 0):
            raise AgentError("backoff_base_seconds must be >= 0 and finite")
        if retries and base > math.ldexp(threading.TIMEOUT_MAX, 1 - retries):
            raise AgentError("the longest backoff, backoff_base_seconds * 2 ** (max_retries - 1), "
                             f"must be at most {threading.TIMEOUT_MAX} s")


SYSTEM_TEMPLATE = """\
You are acting as the owner of the mailbox {label}.
{persona_block}Ground rules:
- Stay close to the owner's historical habits: message volume, tone, and choice of contacts.
- Taking no action is a valid choice; ignore mail the owner would have ignored.
- Do not send noticeably more mail than the owner's past daily rate ({mean_per_day:.2f} messages/day).

Decide among these actions (several are allowed when justified):
- "reply": answer an existing thread; name the recipients (never yourself).
- "initiate": start a new thread; name the recipients (never yourself).
- No action: return an empty actions list.

Scheduling: also report when you will next check this mailbox as
"next_check" (UTC, format YYYY-MM-DD HH:MM:SS). A statistical model of the
owner's activity may supply a suggested time; keep it or adjust it, but
next_check must be strictly later than the current time, never in the past.

Answer with one JSON object only:
{{"actions": [{{"type": "reply"|"initiate", "recipients": ["addr", ...],
"thread": int|null, "body": "..."}}, ...],
"next_check": "YYYY-MM-DD HH:MM:SS", "reasoning": "..."}}
"""

USER_TEMPLATE = """\
# Mailbox
Address: {label}

# Sending cadence over the recent history
Mean sends per day: {mean_per_day:.2f}
Active days (UTC date: count): {cadence_days}

# Mail the owner received before takeover
{received_history}

# Mail the owner sent before takeover
{sent_history}

# Mail received since takeover
{received_sim}

# Mail sent by you since takeover
{sent_sim}

# Unread since your last check
{unread}

# Suggested next check time
{suggested}

# Current time
{now}

Pick your action(s) now and set next_check (never in the past).
"""


def _format_events(log_agents, events, limit: int = 40) -> str:
    lines = []
    for e in events[-limit:]:
        rcpts = ",".join(log_agents[r] for r in e.recipients)
        body = (e.body or "").replace("\n", " ")[:120]
        lines.append(f"[{timeutil.format_utc(e.ts)}] {log_agents[e.sender]} -> {rcpts}: {body}")
    return "\n".join(lines) if lines else "(none)"


def render_prompt(ctx: AgentContext) -> tuple[str, str]:
    """(system, user) messages for the decision request. Only events with
    timestamps <= ctx.now ever appear."""
    agents = ctx.agents
    t0 = ctx.takeover
    pre_recv = [e for e in ctx.received_history if e.ts < t0]
    pre_sent = [e for e in ctx.sent_history if e.ts < t0]
    sim_recv = [e for e in ctx.received_history if t0 <= e.ts <= ctx.now]
    sim_sent = [e for e in ctx.sent_history if t0 <= e.ts <= ctx.now]
    cadence_days = ", ".join(
        f"{timeutil.format_utc(d * 86400)[:10]}: {c}" for d, c in ctx.cadence.days) or "(none)"
    system = SYSTEM_TEMPLATE.format(
        label=ctx.label,
        persona_block=(f"Persona to embody:\n{ctx.persona}\n" if ctx.persona else ""),
        mean_per_day=ctx.cadence.mean_per_day,
    )
    user = USER_TEMPLATE.format(
        label=ctx.label,
        mean_per_day=ctx.cadence.mean_per_day,
        cadence_days=cadence_days,
        received_history=_format_events(agents, pre_recv),
        sent_history=_format_events(agents, pre_sent),
        received_sim=_format_events(agents, sim_recv),
        sent_sim=_format_events(agents, sim_sent),
        unread=_format_events(agents, ctx.unread),
        suggested=(timeutil.format_utc(ctx.suggested_next_check)
                   if ctx.suggested_next_check is not None else "(none)"),
        now=timeutil.format_utc(ctx.now),
    )
    return system, user


def parse_decision(content: str, ctx: AgentContext) -> ActionDecision:
    """Validate and convert the model's JSON reply. Each action's recipients,
    thread and body follow the record rules (`corpus.RECORD_FIELDS`). Unknown
    and self-addressed recipients are dropped; an action losing all
    recipients is dropped; a past next_check is clamped and flagged."""
    try:
        data = json.loads(content)
        raw_actions = data.get("actions", [])
        next_check_raw = data["next_check"]
    # the decoder recurses once per nesting level: a reply of 200,000 "["
    # raises RecursionError
    except (json.JSONDecodeError, RecursionError, KeyError, TypeError, AttributeError) as exc:
        raise LLMDecodeError(f"undecodable decision: {exc}") from exc

    registry = {lbl: i for i, lbl in enumerate(ctx.agents)}
    actions = []
    try:
        for a in raw_actions:
            kind = a["type"]
            if kind not in ("reply", "initiate"):
                raise LLMDecodeError(f"unknown action type {kind!r}")
            names, thread, body = a.get("recipients", []), a.get("thread"), a.get("body")
            if error := field_error((("thread", thread), ("recipients", names), ("body", body))):
                raise ValueError(error)
            recipients = tuple(registry[r] for r in names
                               if r in registry and registry[r] != ctx.agent)
            if not recipients:
                continue
            actions.append(Action(kind, recipients, thread, body))
        next_check = timeutil.parse_utc(str(next_check_raw))
    except (KeyError, TypeError, ValueError) as exc:
        raise LLMDecodeError(f"undecodable decision: {exc}") from exc

    clamped = False
    if next_check <= ctx.now:
        next_check = ctx.now + MIN_CLAMP_SECONDS
        clamped = True
    return ActionDecision(tuple(actions), next_check, next_check_clamped=clamped,
                          reasoning=data.get("reasoning"))


def _default_transport(url: str, payload: dict, headers: dict, timeout: float) -> dict:
    """POST `payload` as JSON and decode the JSON reply. A non-2xx status
    raises (urlopen raises HTTPError itself for 4xx and 5xx), so the caller
    retries it like any other transport failure."""
    import urllib.error
    import urllib.request

    req = urllib.request.Request(url, data=json.dumps(payload).encode("utf-8"),
                                 headers=headers, method="POST")
    with urllib.request.urlopen(req, timeout=timeout) as resp:
        if not 200 <= resp.status < 300:
            raise urllib.error.HTTPError(url, resp.status, resp.reason, resp.headers, None)
        return json.loads(resp.read())


@dataclass
class LLMPolicy:
    """Chat-completion client implementing the decision interface.

    `transport` may be replaced for testing: a callable
    (url, payload, headers, timeout) -> response dict.
    """

    cfg: LLMEndpointConfig
    transport: object = None
    sleeper: object = time.sleep
    calls: int = field(default=0)
    retries: int = field(default=0)

    def decide(self, ctx: AgentContext) -> ActionDecision:
        system, user = render_prompt(ctx)
        messages = [{"role": "system", "content": system},
                    {"role": "user", "content": user}]
        content = self._request(messages)
        try:
            return parse_decision(content, ctx)
        except LLMDecodeError as exc:
            messages = messages + [
                {"role": "assistant", "content": content},
                {"role": "user", "content":
                    f"The previous reply could not be parsed ({exc}). "
                    "Answer again with exactly one valid JSON object in the "
                    "required schema and nothing else."},
            ]
            content = self._request(messages)
            return parse_decision(content, ctx)

    def _request(self, messages) -> str:
        cfg = self.cfg
        url = cfg.base_url.rstrip("/") + cfg.endpoint_path
        payload = {
            "model": cfg.model_name,
            "messages": messages,
            "temperature": cfg.temperature,
            "seed": cfg.request_seed,
        }
        headers = {"Content-Type": "application/json"}
        api_key = os.environ.get(cfg.api_key_env)
        if api_key:
            headers["Authorization"] = f"Bearer {api_key}"
        transport = self.transport or _default_transport
        last_exc = None
        for attempt in range(cfg.max_retries + 1):
            try:
                self.calls += 1
                resp = transport(url, payload, headers, cfg.timeout_seconds)
                return resp["choices"][0]["message"]["content"]
            except LLMDecodeError:
                raise
            except (KeyError, IndexError, TypeError) as exc:
                raise LLMTransportError(f"malformed endpoint response: {exc}") from exc
            except Exception as exc:
                last_exc = exc
                if attempt < cfg.max_retries:
                    self.retries += 1
                    self.sleeper(math.ldexp(cfg.backoff_base_seconds, attempt))
        raise LLMTransportError(f"endpoint failed after {cfg.max_retries + 1} "
                                f"attempts: {last_exc}") from last_exc
