"""Chronological event-queue simulation of agent mailbox activity.

A priority queue interleaves ground-truth trigger injections with agent
wakes. On wake an agent receives its context (pre-simulation history,
simulated traffic, unread mail), returns reply/initiate actions plus a next
check time, and its organic events are appended at the wake timestamp.
Trigger agents never wake; their ground-truth events are injected verbatim,
as the same `Event` objects. An event carries no mark of its origin: in a
`run` or `hawkes.simulate_pure_hawkes` output, the injected events are
exactly those sent by `plan.trigger_agents`.

Queue ties at equal timestamps resolve deterministically: trigger
injections first (by event id), then wakes by agent index. The loop is
single-threaded; all randomness flows from named sub-streams of the run
seed, so a (seed, inputs) pair reproduces byte-identical output.

An agent policy may define `prepare(now, agents)` besides `decide`. When
more than one wake is due at one timestamp (every slot of a
`PeriodicSchedule`), `run` calls it once, after that timestamp's trigger
injections and before the first of those wakes, with the waking agents in
wake order. It lets a policy do the wakes' context-free work in one batch
(`agents.StubPolicy` seeds their generators). It may precompute only
what is a function of (now, agent) and the policy's own settings, such as
each wake's keyed random stream; it sees no context, so anything that
reads the agent's mail, last check or suggestion waits for `decide`. It
must not change any decision: a rollout is the same whether the policy
defines it or not. `run` looks the hook up once per run.

A rollout is linear in its events. Two incremental structures are updated
as each event is appended, instead of rescanning the log on every wake:
the policy's excitation state (`hawkes.ExcitationState`, pre-window
ground truth plus everything simulated so far) and the `ContextIndex`
(per-agent sent and received lists over the configured history span plus
everything simulated so far). Both share one invariant: at a wake at `now`
they cover exactly the events with ts <= now appended so far, in append
order, including events appended earlier at the same timestamp under the
queue's tie order. `run` builds an EventLog only for its result or an
aborted run's partial log.

Each wake's context copies the agent's lists as tuples into a
`corpus._unchecked` record; the index runs `AgentContext`'s unread check
itself when there is unread mail.
"""

from __future__ import annotations

import heapq
import math
from bisect import bisect_right
from dataclasses import dataclass, field
from typing import Protocol

import numpy as np

from . import hawkes, timeutil
from .corpus import (Event, EventLog, _unchecked, check_kinds, window as log_window,
                     simple_digraph_edges)
from .rng import substream

MIN_CLAMP_SECONDS = 60


class SimulationError(ValueError):
    pass


class SimulationAborted(RuntimeError):
    """Agent policy failed after retries; carries the partial log."""

    def __init__(self, message: str, partial_log: EventLog):
        super().__init__(message)
        self.partial_log = partial_log


# ---------------------------------------------------------------------------
# activation policies


class ActivationPolicy:
    """When an organic agent wakes. At each wake `run` shows the agent one
    `draw` as its suggested next check, and drops any wake at or past the
    horizon. `excitation_state` is the state `draw` reads, if any."""
    wakes_at_start = False    # the first wake is the window start, not a draw
    follows_decision = False  # the agent's next_check sets the next wake
    redraws = False           # the next wake is drawn after the wake's events

    def excitation_state(self, history: EventLog, t0: int) -> hawkes.ExcitationState | None:
        return None

    def draw(self, agent: int, excitation: hawkes.ExcitationState | None, t_now: int,
             horizon: int, rng: np.random.Generator) -> int | None:
        """The next wake after t_now from the agent's `wake` stream, or None."""
        raise NotImplementedError


@dataclass(frozen=True)
class PeriodicSchedule(ActivationPolicy):
    """Wake every fixed interval of at least one second."""
    interval_hours: float = 3.0

    def __post_init__(self):
        check_kinds(vars(self), SimulationError, interval_hours=float)
        if not (math.isfinite(self.interval_hours) and self.interval_hours * 3600 >= 1):
            raise SimulationError("interval must be at least 1 second and finite")

    @property
    def step_seconds(self) -> int:
        return int(round(self.interval_hours * 3600))

    def draw(self, agent, excitation, t_now, horizon, rng):
        return t_now + self.step_seconds  # shown even past the horizon


@dataclass(frozen=True)
class LLMPredicted(ActivationPolicy):
    """Wake at the window start, then at the agent's own next_check."""
    wakes_at_start = True
    follows_decision = True

    def draw(self, agent, excitation, t_now, horizon, rng):
        return None


@dataclass(frozen=True, eq=False)
class EmpiricalHoD(ActivationPolicy):
    """Sample the wake hour from each agent's historical hour-of-day
    histogram, uniform offset within the hour. `==` is identity, as it
    holds an array."""
    histograms: np.ndarray  # (D, 24), rows normalized (all-zero rows allowed)

    def __post_init__(self):
        h = self.histograms
        if h.ndim != 2 or h.shape[1] != 24 or np.any(h < 0):
            raise SimulationError("histograms must be a nonnegative (D, 24) array")
        sums = h.sum(axis=1)
        if np.any((np.abs(sums - 1.0) > 1e-9) & (sums != 0)):
            raise SimulationError("histogram rows must be normalized (or all-zero)")

    def draw(self, agent, excitation, t_now, horizon, rng):
        probs = self.histograms[agent]
        if probs.sum() == 0:
            probs = np.full(24, 1.0 / 24)
        hour = int(rng.choice(24, p=probs / probs.sum()))
        offset = int(rng.integers(3600))
        t = timeutil.day_index(t_now) * 86400 + hour * 3600 + offset
        if t <= t_now:
            t += 86400  # the same hour and offset tomorrow
        return t if t < horizon else None


@dataclass(frozen=True)
class HawkesGuided(ActivationPolicy):
    """Ogata-thinned wakes: a suggestion, then the next wake drawn after the
    wake's events, or the agent's next_check with `llm_adjusts_next_check`.
    Known limitation: another agent's send does not move a pending wake, so
    a full-matrix rollout wakes less often than the fitted process; a model
    with zero alpha off the diagonal (the default fit) is exact."""
    model: hawkes.HawkesModel
    llm_adjusts_next_check: bool = False

    def __post_init__(self):
        check_kinds(vars(self), SimulationError, llm_adjusts_next_check=bool)

    @property
    def follows_decision(self) -> bool:
        return self.llm_adjusts_next_check

    @property
    def redraws(self) -> bool:
        return not self.llm_adjusts_next_check

    def excitation_state(self, history, t0):
        # a zero-alpha model would read 0.0 everywhere: it keeps no state
        return (hawkes.ExcitationState.from_log(self.model, history, t0 - 1)
                if self.model.alpha.any() else None)

    def draw(self, agent, excitation, t_now, horizon, rng):
        a = excitation.at(agent, t_now) if excitation is not None else 0.0
        return hawkes.thin_next_activation(self.model, agent, a, t_now, horizon, rng)


def hod_histograms(log: EventLog) -> np.ndarray:
    """Per-agent hour-of-day send histograms, row-normalized."""
    cells = log.senders * 24 + timeutil.hour_of_day(log.ts)
    h = np.bincount(cells, minlength=log.n_agents * 24).reshape(-1, 24).astype(float)
    sums = h.sum(axis=1, keepdims=True)
    np.divide(h, sums, out=h, where=sums > 0)
    return h


# ---------------------------------------------------------------------------
# triggers and context


@dataclass(frozen=True)
class TriggerPlan:
    trigger_agents: frozenset[int]
    scheduled_events: EventLog

    def __post_init__(self):
        for e in self.scheduled_events.events:
            if e.sender not in self.trigger_agents:
                raise SimulationError(
                    f"scheduled event {e.event_id} sent by non-trigger agent {e.sender}")


def select_triggers(log: EventLog, history_window: tuple[int, int], ratio: float,
                    sim_window: tuple[int, int]) -> TriggerPlan:
    """Designate the ceil(ratio * D) agents with highest degree centrality in
    the aggregated history-window graph as triggers (ties by ascending agent
    index); their ground-truth events inside the simulation window become the
    injection schedule."""
    if not 0 <= ratio <= 1:
        raise SimulationError(f"ratio {ratio} outside [0, 1]")
    h0, h1 = history_window
    hist = log_window(log, h0, h1)
    if not hist.events:
        raise SimulationError("empty history window")
    n = log.n_agents
    u, v = simple_digraph_edges(hist)
    degree = np.bincount(u, minlength=n) + np.bincount(v, minlength=n)
    ranked = np.argsort(-degree, kind="stable")
    chosen = frozenset(ranked[:math.ceil(ratio * n)].tolist())
    s0, s1 = sim_window
    scheduled = tuple(e for e in log.events[log.span(s0, s1)] if e.sender in chosen)
    # a subsequence of log
    return TriggerPlan(chosen, _unchecked(EventLog, agents=log.agents, events=scheduled))


@dataclass(frozen=True)
class CadenceSummary:
    """Historical sending cadence: per-day send counts over the history
    window (active days only) and the window-wide daily mean."""
    days: tuple[tuple[int, int], ...]  # (UTC day index, count)
    mean_per_day: float


def cadence_summary(sent: list[Event], window: tuple[int, int]) -> CadenceSummary:
    """Cadence of one agent's sends, all inside the window."""
    t0, t1 = window
    counts: dict[int, int] = {}
    for e in sent:
        d = timeutil.day_index(e.ts)
        counts[d] = counts.get(d, 0) + 1
    n_days = max(1, timeutil.day_index(t1 - 1) - timeutil.day_index(t0) + 1)
    return CadenceSummary(tuple(sorted(counts.items())),
                          sum(counts.values()) / n_days)


@dataclass(frozen=True)
class AgentContext:
    agent: int
    label: str
    persona: str | None
    agents: tuple[str, ...]              # registry labels, by agent index
    sent_history: tuple[Event, ...]      # history span + simulated so far,
    received_history: tuple[Event, ...]  # each in (ts, event_id) order
    unread: tuple[Event, ...]
    now: int
    takeover: int            # simulation window start
    last_check: int | None
    suggested_next_check: int | None
    cadence: CadenceSummary

    def __post_init__(self):
        _check_unread(self.unread, self.now)


def _check_unread(unread: tuple[Event, ...], now: int) -> None:
    if any(e.ts > now for e in unread):
        raise SimulationError("unread event after now")


@dataclass(frozen=True)
class Action:
    kind: str  # "reply" | "initiate"
    recipients: tuple[int, ...]
    thread_id: int | None = None
    body: str | None = None

    def __post_init__(self):
        if self.kind not in ("reply", "initiate"):
            raise SimulationError(f"bad action kind {self.kind!r}")
        if not self.recipients:
            raise SimulationError("action with no recipients")


@dataclass(frozen=True)
class ActionDecision:
    actions: tuple[Action, ...]
    next_check: int
    next_check_clamped: bool = False
    reasoning: str | None = None

    @property
    def idle(self) -> bool:
        return not self.actions


class AgentPolicy(Protocol):
    """What `run` asks of an agent; it may also define the optional
    `prepare(now, agents)` hook of the module docstring."""
    def decide(self, ctx: AgentContext) -> ActionDecision: ...


@dataclass(frozen=True)
class SimConfig:
    window: tuple[int, int]
    history_days: int = 32
    trigger_ratio: float = 0.10
    seed: int = 42
    max_actions_per_wake: int = 5
    policy: ActivationPolicy = field(default_factory=PeriodicSchedule)

    def __post_init__(self):
        check_kinds(vars(self), SimulationError, history_days=int, trigger_ratio=float, seed=int,
                    max_actions_per_wake=int)
        t0, t1 = self.window
        if t1 <= t0:
            raise SimulationError("empty simulation window")
        if self.history_days <= 0:
            raise SimulationError("history_days must be positive")
        if not 0 <= self.trigger_ratio <= 1:
            raise SimulationError("trigger_ratio outside [0, 1]")
        if self.max_actions_per_wake <= 0:
            raise SimulationError("max_actions_per_wake must be positive")


class ContextIndex:
    """Per-agent sent and received lists behind every AgentContext.

    Ground truth in the configured history span [t0 - history_days, t0) is
    filed once; simulated events (ts >= t0) are filed by `add` as they are
    appended. Append order is (ts, event_id) order, so a context hands out
    copies of the lists as they are: the history arrives sorted, the queue
    appends triggers before wakes at equal ts, and organic ids are issued
    in increasing order above every history and scheduled id. Unread mail
    is the received list's slice after the agent's last check (at least
    t0 - 1, so ground truth is never unread). The cadence summaries read
    only ground truth and are computed up front.
    """

    def __init__(self, history: EventLog, config: SimConfig):
        t0 = config.window[0]
        self.history = history
        self.takeover = t0
        self.span = (t0 - config.history_days * 86400, t0)
        n = history.n_agents
        self.sent: list[list[Event]] = [[] for _ in range(n)]
        self.received: list[list[Event]] = [[] for _ in range(n)]
        self.received_ts: list[list[int]] = [[] for _ in range(n)]  # parallel to received
        for e in history.events[history.span(*self.span)]:
            self.add(e)
        self.cadence = [cadence_summary(sent, self.span) for sent in self.sent]

    def add(self, e: Event) -> None:
        self.sent[e.sender].append(e)
        for r in set(e.recipients):
            if r != e.sender:
                self.received[r].append(e)
                self.received_ts[r].append(e.ts)

    def context(self, agent: int, t_now: int, last_check: int | None,
                suggested_next: int | None, persona: str | None = None) -> AgentContext:
        """The agent's view at t_now; every filed event has ts <= t_now."""
        since = last_check if last_check is not None else self.takeover - 1
        received = self.received[agent]
        unread = tuple(received[bisect_right(self.received_ts[agent], since):])
        if unread:  # AgentContext's check; most wakes have no unread mail
            _check_unread(unread, t_now)
        return _unchecked(
            AgentContext,
            agent=agent,
            label=self.history.agents[agent],
            persona=persona,
            agents=self.history.agents,
            sent_history=tuple(self.sent[agent]),
            received_history=tuple(received),
            unread=unread,
            now=t_now,
            takeover=self.takeover,
            last_check=last_check,
            suggested_next_check=suggested_next,
            cadence=self.cadence[agent],
        )


def build_context(agent: int, history: EventLog, sim_events: list[Event],
                  config: SimConfig, t_now: int, last_check: int | None,
                  suggested_next: int | None,
                  persona: str | None = None) -> AgentContext:
    """Assemble the agent's view: ground truth from the configured history
    span before the window plus everything simulated so far (sim_events in
    append order; those after t_now are ignored); unread = messages
    addressed to the agent since its last wake."""
    index = ContextIndex(history, config)
    for e in sim_events:
        if e.ts <= t_now:
            index.add(e)
    return index.context(agent, t_now, last_check, suggested_next, persona)


# ---------------------------------------------------------------------------
# orchestration

_QK_TRIGGER = 0
_QK_WAKE = 1


def _check_wake(nxt: int | None, ts: int, agent: int) -> None:
    if nxt is not None and nxt <= ts:
        raise SimulationError(f"agent {agent}: next wake {nxt} not after {ts}")


def run(config: SimConfig, history: EventLog, policy_impl: AgentPolicy,
        triggers: TriggerPlan, personas: dict[int, str] | None = None,
        counters: dict | None = None) -> EventLog:
    """Execute the simulation over config.window and return the sorted log of
    injected trigger events plus generated organic events.

    Raises SimulationError if an activation policy schedules a wake that is
    not strictly after the current one, or an agent addresses an action to
    an index outside the registry."""
    counters = {} if counters is None else counters
    for key in ("wakes", "organic_events", "trigger_events", "next_check_clamps",
                "actions_truncated"):
        counters.setdefault(key, 0)
    personas = personas or {}
    t0, t1 = config.window
    scheduled = log_window(triggers.scheduled_events, t0, t1).events

    sim_events: list[Event] = []
    next_id = 1 + max((e.event_id for e in history.events + scheduled), default=-1)
    queue: list[tuple[int, int, int]] = []  # (ts, kind, tiebreak)

    for k, e in enumerate(scheduled):
        heapq.heappush(queue, (e.ts, _QK_TRIGGER, k))

    index = ContextIndex(history, config)
    # excitation from pre-window ground truth plus everything simulated so far:
    # the simulation replaces in-window ground truth for non-trigger agents
    excitation = config.policy.excitation_state(history, t0)

    def append(e: Event) -> None:
        sim_events.append(e)
        index.add(e)
        if excitation is not None:
            excitation.add(e.sender, e.ts)

    # per-wake invariants, read once
    activation = config.policy
    draw, follows, redraws = activation.draw, activation.follows_decision, activation.redraws
    max_actions = config.max_actions_per_wake
    prepare = policy_impl.prepare if hasattr(policy_impl, "prepare") else None

    organic_agents = [i for i in range(history.n_agents)
                      if i not in triggers.trigger_agents]
    wake_rng = {agent: substream(config.seed, "wake", agent) for agent in organic_agents}
    last_check: dict[int, int | None] = dict.fromkeys(organic_agents)
    for agent in organic_agents:
        if activation.wakes_at_start:
            first = t0
        else:
            first = draw(agent, excitation, t0, t1, wake_rng[agent])
            _check_wake(first, t0, agent)
        if first is not None and first < t1:
            heapq.heappush(queue, (first, _QK_WAKE, agent))

    while queue:
        ts, kind, key = heapq.heappop(queue)
        if ts >= t1:
            break
        if kind == _QK_TRIGGER:
            append(scheduled[key])
            counters["trigger_events"] += 1
            continue

        # the wakes due at ts, in queue order (triggers at ts sort before them);
        # a lone wake, the rule under HawkesGuided, skips the batch
        if queue and queue[0][0] == ts:
            due = [key]
            while queue and queue[0][0] == ts:
                due.append(heapq.heappop(queue)[2])
            if prepare is not None:
                prepare(ts, due)
        else:
            due = (key,)
        for agent in due:
            counters["wakes"] += 1
            # the policy's suggestion shown to the agent; unless the policy
            # follows the decision or redraws, it is also the next wake
            suggested = draw(agent, excitation, ts, t1, wake_rng[agent])

            ctx = index.context(agent, ts, last_check[agent], suggested, personas.get(agent))
            try:
                decision = policy_impl.decide(ctx)
            except Exception as exc:
                raise SimulationAborted(f"agent {agent} policy failed at {ts}: {exc}",
                                        history.with_events(sim_events)) from exc

            actions = decision.actions[:max_actions]
            if len(decision.actions) > max_actions:
                counters["actions_truncated"] += 1
            for action in actions:
                if any(not 0 <= r < history.n_agents for r in action.recipients):
                    raise SimulationError(f"agent {agent}: recipient outside registry "
                                          f"in {action.recipients} at {ts}")
                recipients = tuple(r for r in action.recipients if r != agent)
                if not recipients:
                    continue
                append(Event(next_id, agent, recipients, ts, action.thread_id, action.body))
                next_id += 1
                counters["organic_events"] += 1
            last_check[agent] = ts

            if decision.next_check_clamped:
                counters["next_check_clamps"] += 1
            if follows:
                nxt = decision.next_check
                if nxt <= ts:
                    nxt = ts + MIN_CLAMP_SECONDS
                    counters["next_check_clamps"] += 1
            elif redraws:
                nxt = draw(agent, excitation, ts, t1, wake_rng[agent])
            else:
                nxt = suggested
            _check_wake(nxt, ts, agent)
            if nxt is not None and nxt < t1:
                heapq.heappush(queue, (nxt, _QK_WAKE, agent))

    return history.with_events(sim_events)
