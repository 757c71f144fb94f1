"""Periodic self-exciting activation model.

Each agent's activation intensity (events/hour) is a weekly 7x24 baseline
plus exponentially decaying excitation from past events:

    lam_i(t) = mu_i(weekday(t), hour(t)) + sum_{events e with t_e < t}
               alpha[i][sender_e] * beta * exp(-beta * (t - t_e))

with beta shared across agents (units 1/hour; elapsed times in hours).
Excitation attaches to an event's sender and timestamp only; recipients do
not excite. Parameters are fitted by maximizing the exact log-likelihood
with projected gradient ascent (the likelihood is concave in mu and alpha
for fixed beta), and future activations are sampled by thinning with a
per-interval bound: within an hour bin, the baseline is constant and the
excitation is non-increasing, so bin rate + excitation at the interval's
left endpoint dominates the intensity.

Excitation is read from one recursion, `ExcitationState`: one decayed
event count per sender, updated as each event is appended (Ozaki 1979).
Its invariant: it covers exactly the events added so far, in append order
(non-decreasing ts), and is read at times t >= the latest added ts; events
at ts == t count with weight 1. Three readers share it:

- the fitter builds every agent's likelihood terms in one time-ordered
  sweep over the log, reading each in-window event's decayed source counts
  before adding the event's timestamp group, so an event is excited only
  by sources strictly before it;
- `sample_next_activation` builds the state from a history and thins;
- `simulator.run` keeps one state across a rollout, so a wake costs O(1)
  (diagonal model) or O(D) instead of a rescan of the history.

`simulate_pure_hawkes` keeps its own decayed vector with one common
reference time: its superposition sampler reads the whole vector at every
step, which then costs one `exp` instead of one per sender. `intensity`
and `excitation_integral` stay brute-force sums and serve as test oracles.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass

import numpy as np

from . import timeutil
from .corpus import Event, EventLog, ORGANIC
from .rng import substream

N_BINS = 168
SECONDS_PER_HOUR = 3600.0


class HawkesError(ValueError):
    pass


@dataclass(frozen=True)
class HawkesModel:
    agents: tuple[str, ...]
    baselines: np.ndarray          # (D, 168) events/hour, weekday-major
    alpha: np.ndarray              # (D, D) excitation strengths, row = receiver
    beta_per_hour: float
    diagonal_only: bool

    def __post_init__(self):
        d = len(self.agents)
        if self.baselines.shape != (d, N_BINS):
            raise HawkesError(f"baselines shape {self.baselines.shape}, want ({d}, {N_BINS})")
        if self.alpha.shape != (d, d):
            raise HawkesError(f"alpha shape {self.alpha.shape}, want ({d}, {d})")
        if np.any(self.baselines < 0) or not np.all(np.isfinite(self.baselines)):
            raise HawkesError("baseline rates must be finite and nonnegative")
        if np.any(self.alpha < 0) or not np.all(np.isfinite(self.alpha)):
            raise HawkesError("alpha must be finite and nonnegative")
        if self.beta_per_hour <= 0:
            raise HawkesError("beta must be positive")
        if self.diagonal_only and np.any(self.alpha * (1 - np.eye(d)) != 0):
            raise HawkesError("diagonal_only model has nonzero off-diagonal alpha")
        self.baselines.setflags(write=False)
        self.alpha.setflags(write=False)

    @property
    def n_agents(self) -> int:
        return len(self.agents)

    @property
    def stability_warning(self) -> bool:
        """Any alpha row sum >= 1 (supercritical excitation)."""
        return bool(np.any(self.alpha.sum(axis=1) >= 1.0))

    def baseline_rate(self, agent: int, ts) -> float:
        return float(self.baselines[agent, timeutil.flat_bin_of(int(ts))])

    def to_dict(self) -> dict:
        alpha = ({"diag": np.diag(self.alpha).tolist()} if self.diagonal_only
                 else self.alpha.tolist())
        return {
            "agents": list(self.agents),
            "baselines": self.baselines.tolist(),
            "alpha": alpha,
            "beta_per_hour": self.beta_per_hour,
            "diagonal_only": self.diagonal_only,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)


def model_from_dict(d: dict) -> HawkesModel:
    agents = tuple(d["agents"])
    n = len(agents)
    baselines = np.array(d["baselines"], dtype=float).reshape(n, N_BINS)
    if isinstance(d["alpha"], dict):
        alpha = np.diag(np.array(d["alpha"]["diag"], dtype=float))
    else:
        alpha = np.array(d["alpha"], dtype=float)
    return HawkesModel(agents, baselines, alpha, float(d["beta_per_hour"]),
                       bool(d["diagonal_only"]))


def load_model(path) -> HawkesModel:
    with open(path, "r", encoding="utf-8") as fh:
        return model_from_dict(json.load(fh))


def save_model(model: HawkesModel, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(model.to_json())


@dataclass(frozen=True)
class FitConfig:
    diagonal_only: bool = True
    beta_override: float | None = None
    max_iters: int = 500
    tolerance: float = 1e-6
    baseline_floor: float = 1e-6

    def __post_init__(self):
        if self.beta_override is not None and self.beta_override <= 0:
            raise HawkesError("beta_override must be positive")
        if self.max_iters <= 0 or self.tolerance <= 0 or self.baseline_floor <= 0:
            raise HawkesError("max_iters, tolerance and baseline_floor must be positive")


# ---------------------------------------------------------------------------
# excitation state


class ExcitationState:
    """Decayed per-sender event counts, updated as events are appended.

    For each sender j it keeps g_j, the sum of exp(-beta * (t_j - t_e)) over
    j's events e, at t_j, the time of j's latest event. Adding an event is
    the exponential-kernel recursion g_j <- g_j * exp(-beta * dt) + 1
    (Ozaki 1979). Invariant: the state covers exactly the events added so
    far, added in append order (non-decreasing ts), and is read only at times
    t >= every added ts.

    A rollout binds the state to its model and reads `at`. The fitter has
    no model yet: it passes `beta_per_hour` and `n_agents` and reads the
    per-source decayed counts with `decayed` and `decayed_all`.
    """

    def __init__(self, model: HawkesModel | None = None, *,
                 beta_per_hour: float | None = None, n_agents: int | None = None):
        if model is not None:
            beta_per_hour, n_agents = model.beta_per_hour, model.n_agents
        self.model = model
        self.beta = beta_per_hour
        self.g = np.zeros(n_agents)
        self.last = np.zeros(n_agents)

    @classmethod
    def from_log(cls, model: HawkesModel, history: EventLog, t_now: int) -> "ExcitationState":
        """State over the history events with ts <= t_now."""
        state = cls(model)
        for e in history.events:
            if e.ts > t_now:
                break
            state.add(e.sender, e.ts)
        return state

    def add(self, sender: int, ts: int) -> None:
        decay = math.exp(-self.beta * (ts - self.last[sender]) / SECONDS_PER_HOUR)
        self.g[sender] = self.g[sender] * decay + 1.0
        self.last[sender] = ts

    def decayed(self, source: int, t: int) -> float:
        """g_source decayed to t: sum over source's covered events of exp(-beta * (t - t_e))."""
        return self.g[source] * math.exp(-self.beta * (t - self.last[source]) / SECONDS_PER_HOUR)

    def decayed_all(self, t: int) -> np.ndarray:
        """`decayed` for every source. One `math.exp` per source keeps it
        bit-identical to `decayed`; a vectorized `np.exp` is not."""
        args = (-self.beta * (t - self.last) / SECONDS_PER_HOUR).tolist()
        return self.g * np.fromiter(map(math.exp, args), dtype=float, count=len(args))

    def at(self, agent: int, t: int) -> float:
        """sum over covered events e of alpha[agent][sender_e] * exp(-beta * (t - t_e))."""
        beta = self.beta
        if self.model.diagonal_only:
            return float(self.model.alpha[agent, agent] * self.g[agent]
                         * math.exp(-beta * (t - self.last[agent]) / SECONDS_PER_HOUR))
        decayed = self.g * np.exp(-beta * (t - self.last) / SECONDS_PER_HOUR)
        return float(self.model.alpha[agent] @ decayed)


# ---------------------------------------------------------------------------
# evaluation


def intensity(model: HawkesModel, agent: int, t: int, history: EventLog) -> float:
    """lam_agent(t) in events/hour; history events strictly before t excite."""
    if not (0 <= agent < model.n_agents):
        raise HawkesError(f"agent {agent} not in model")
    beta = model.beta_per_hour
    lam = model.baseline_rate(agent, t)
    row = model.alpha[agent]
    for e in history.events:
        if e.ts >= t:
            break
        a = row[e.sender]
        if a > 0:
            lam += a * beta * math.exp(-beta * (t - e.ts) / SECONDS_PER_HOUR)
    return lam


def excitation_integral(model: HawkesModel, agent: int, history: EventLog,
                        window: tuple[int, int]) -> float:
    """Closed-form integral over [t0, t1) of the excitation part of
    lam_agent: each event by j contributes
    alpha[agent][j] * (exp(-beta * max(0, t0 - t_e)) - exp(-beta * (t1 - t_e)))."""
    t0, t1 = window
    beta = model.beta_per_hour
    total = 0.0
    row = model.alpha[agent]
    for e in history.events:
        if e.ts >= t1:
            break
        a = row[e.sender]
        if a > 0:
            up = math.exp(-beta * max(0, t0 - e.ts) / SECONDS_PER_HOUR)
            lo = math.exp(-beta * (t1 - e.ts) / SECONDS_PER_HOUR)
            total += a * (up - lo)
    return total


def _excitation_weights(source_ts: np.ndarray, t0: int, t1: int, beta: float) -> float:
    """Sum over source events before t1 of their window excitation weight
    exp(-beta * max(0, t0 - t_e)) - exp(-beta * (t1 - t_e))."""
    ts = source_ts[source_ts < t1].astype(float)
    if len(ts) == 0:
        return 0.0
    up = np.exp(-beta * np.maximum(0.0, t0 - ts) / SECONDS_PER_HOUR)
    lo = np.exp(-beta * (t1 - ts) / SECONDS_PER_HOUR)
    return float(np.sum(up - lo))


@dataclass
class _AgentTerms:
    """Precomputed per-agent quantities; the log-likelihood of agent i is
    sum_k log(mu[bins[k]] + beta * S[k] @ alpha_row) - mu @ bin_hours
    - alpha_row @ weights."""
    bins: np.ndarray      # (n_i,) flat weekly bin of each in-window event
    S: np.ndarray         # (n_i, m) decayed source sums per fitted column
    weights: np.ndarray   # (m,) integral weight per fitted column
    columns: np.ndarray   # (m,) source agent index per fitted column


def _sent_times(log: EventLog) -> dict[int, np.ndarray]:
    per: dict[int, list[int]] = {}
    for e in log.events:
        per.setdefault(e.sender, []).append(e.ts)
    return {a: np.array(ts, dtype=np.int64) for a, ts in per.items()}


def _agent_terms(log: EventLog, window: tuple[int, int], beta: float,
                 diagonal_only: bool) -> dict[int, _AgentTerms]:
    """Every agent's terms from one time-ordered sweep over the log.

    An `ExcitationState` covers the events before the current timestamp
    group; each in-window event's `S` row is read from it before the group
    is added, so sources count strictly before the event. A full fit reads
    every source's decayed count, a diagonal fit the sender's own. Column
    weights depend on the source alone and are computed once per column.
    """
    t0, t1 = window
    n = log.n_agents
    counts = np.bincount(np.array([e.sender for e in log.events if t0 <= e.ts < t1],
                                  dtype=np.int64), minlength=n)
    m = 1 if diagonal_only else n
    S = [np.zeros((c, m)) for c in counts]
    bins = [np.zeros(c, dtype=np.int64) for c in counts]
    filled = [0] * n
    state = ExcitationState(beta_per_hour=beta, n_agents=n)
    for t, group in itertools.groupby(log.events, key=lambda e: e.ts):
        if t >= t1:
            break
        group = list(group)
        if t >= t0:
            b = timeutil.flat_bin_of(t)
            row = None if diagonal_only else state.decayed_all(t)
            for e in group:
                i = e.sender
                S[i][filled[i]] = state.decayed(i, t) if diagonal_only else row
                bins[i][filled[i]] = b
                filled[i] += 1
        for e in group:
            state.add(e.sender, t)
    col_weight = np.zeros(n)
    for j, src in _sent_times(log).items():
        col_weight[j] = _excitation_weights(src, t0, t1, beta)
    cols_full = np.arange(n)
    out = {}
    for i in range(n):
        cols = np.array([i]) if diagonal_only else cols_full
        out[i] = _AgentTerms(bins=bins[i], S=S[i], weights=col_weight[cols], columns=cols)
    return out


def _agent_ll(terms: _AgentTerms, mu: np.ndarray, alpha_row: np.ndarray,
              beta: float, bin_hours: np.ndarray) -> float:
    lam = mu[terms.bins] + beta * (terms.S @ alpha_row)
    if np.any(lam <= 0):
        raise HawkesError("nonpositive intensity at an event; raise baseline_floor")
    return float(np.sum(np.log(lam)) - mu @ bin_hours - alpha_row @ terms.weights)


def log_likelihood(model: HawkesModel, log: EventLog, window: tuple[int, int]) -> float:
    """Exact log-likelihood of the in-window events under the model; events
    before the window contribute excitation only."""
    t0, t1 = window
    if t1 <= t0:
        raise HawkesError("empty window")
    terms = _agent_terms(log, window, model.beta_per_hour, diagonal_only=False)
    bin_hours = timeutil.weekly_bin_hours(t0, t1)
    total = 0.0
    for i in range(model.n_agents):
        total += _agent_ll(terms[i], model.baselines[i], model.alpha[i],
                           model.beta_per_hour, bin_hours)
    if not math.isfinite(total):
        raise HawkesError("non-finite log-likelihood")
    return total


# ---------------------------------------------------------------------------
# fitting


def median_gap_beta(log: EventLog, window: tuple[int, int]) -> float:
    """beta (1/hour) = 1 / median inter-event gap, gaps taken per agent
    between consecutive sends within the window and pooled across agents."""
    t0, t1 = window
    gaps = []
    for ts in _sent_times(log).values():
        ts = ts[(ts >= t0) & (ts < t1)]
        if len(ts) >= 2:
            gaps.extend(np.diff(np.sort(ts)).tolist())
    if not gaps:
        all_ts = np.sort(log.timestamps())
        all_ts = all_ts[(all_ts >= t0) & (all_ts < t1)]
        gaps = np.diff(all_ts).tolist()
    if not gaps:
        return 1.0
    med = float(np.median(gaps))
    return SECONDS_PER_HOUR / max(med, 1.0)


def _maximize_agent(terms: _AgentTerms, beta: float, bin_hours: np.ndarray,
                    cfg: FitConfig) -> tuple[np.ndarray, np.ndarray, str]:
    """Projected gradient ascent with backtracking on one agent's concave
    likelihood. Ascent directions are scaled per coordinate by the inverse
    diagonal curvature, which keeps the baseline bins and the excitation
    weights moving at comparable speed. Returns (mu, alpha_row_compact,
    stop): "converged" when the gain fell below the tolerance (or the agent
    has no events), "max_iters" when the iteration budget ran out, and
    "backtracking_failed" when no step along the ascent direction kept the
    likelihood from falling."""
    floor = cfg.baseline_floor
    n_ev = len(terms.bins)
    mu = np.full(N_BINS, floor)
    if n_ev:
        counts = np.bincount(terms.bins, minlength=N_BINS).astype(float)
        with np.errstate(divide="ignore", invalid="ignore"):
            emp = np.where(bin_hours > 0, counts / np.maximum(bin_hours, 1e-12), 0.0)
        mu = np.maximum(emp, floor)
    alpha = np.full(len(terms.columns), 0.1 if n_ev else 0.0)
    if n_ev == 0:
        return mu, np.zeros(len(terms.columns)), "converged"

    def ll(m, a):
        return _agent_ll(terms, m, a, beta, bin_hours)

    cur = ll(mu, alpha)
    s_sq = terms.S ** 2
    for _ in range(cfg.max_iters):
        lam = mu[terms.bins] + beta * (terms.S @ alpha)
        inv = 1.0 / lam
        g_mu = np.bincount(terms.bins, weights=inv, minlength=N_BINS) - bin_hours
        g_alpha = beta * (terms.S.T @ inv) - terms.weights
        inv_sq = inv * inv
        h_mu = np.bincount(terms.bins, weights=inv_sq, minlength=N_BINS)
        h_alpha = beta * beta * (s_sq.T @ inv_sq)
        d_mu = g_mu / np.maximum(h_mu, 1e-9)
        d_alpha = g_alpha / np.maximum(h_alpha, 1e-9)
        step = 1.0
        accepted = False
        for _ in range(60):
            mu_c = np.maximum(mu + step * d_mu, floor)
            alpha_c = np.maximum(alpha + step * d_alpha, 0.0)
            cand = ll(mu_c, alpha_c)
            if not math.isfinite(cand):
                raise HawkesError("non-finite likelihood during optimization")
            if cand >= cur:
                accepted = True
                break
            step *= 0.5
        if not accepted:
            return mu, alpha, "backtracking_failed"
        improved = cand - cur
        mu, alpha, cur = mu_c, alpha_c, cand
        if improved <= cfg.tolerance * max(1.0, abs(cur)):
            return mu, alpha, "converged"
    return mu, alpha, "max_iters"


def fit(log: EventLog, window: tuple[int, int], config: FitConfig | None = None,
        counters: dict | None = None) -> HawkesModel:
    """Maximum-likelihood fit of baselines and excitation over the window.

    Agents with no in-window sends get floor-only baselines and a zero
    excitation row. beta comes from the pooled median inter-send gap unless
    overridden. `counters`, when given, receives the number of agents whose
    ascent stopped for each reason other than convergence
    (`unconverged_max_iters`, `unconverged_backtracking_failed`).
    """
    if counters is None:
        counters = {}
    counters.setdefault("unconverged_max_iters", 0)
    counters.setdefault("unconverged_backtracking_failed", 0)
    config = config or FitConfig()
    t0, t1 = window
    in_window = [e for e in log.events if t0 <= e.ts < t1]
    if len(in_window) < 2:
        raise HawkesError(f"window has {len(in_window)} events; need at least 2")
    beta = config.beta_override if config.beta_override is not None else median_gap_beta(log, window)
    terms = _agent_terms(log, window, beta, config.diagonal_only)
    bin_hours = timeutil.weekly_bin_hours(t0, t1)
    n = log.n_agents
    baselines = np.zeros((n, N_BINS))
    alpha = np.zeros((n, n))
    for i in range(n):
        mu, a, stop = _maximize_agent(terms[i], beta, bin_hours, config)
        if stop != "converged":
            counters[f"unconverged_{stop}"] += 1
        baselines[i] = mu
        alpha[i, terms[i].columns] = a
    return HawkesModel(tuple(log.agents), baselines, alpha, beta, config.diagonal_only)


# ---------------------------------------------------------------------------
# sampling


def sample_next_activation(model: HawkesModel, agent: int, history: EventLog,
                           t_now: int, horizon: int,
                           rng: np.random.Generator | int) -> int | None:
    """First thinning-accepted activation time in (t_now, horizon], or None;
    history events with ts <= t_now excite."""
    state = ExcitationState.from_log(model, history, t_now)
    return thin_next_activation(model, agent, state.at(agent, t_now),
                                t_now, horizon, rng)


def thin_next_activation(model: HawkesModel, agent: int, excitation: float,
                         t_now: int, horizon: int,
                         rng: np.random.Generator | int) -> int | None:
    """First thinning-accepted activation time in (t_now, horizon], or None,
    given the agent's excitation (without the beta factor) at t_now.

    Interval bound: within an hour the baseline is constant and the
    excitation only decays, so bin rate + excitation at the left endpoint
    dominates (Ogata 1981).
    """
    if t_now >= horizon:
        raise HawkesError("t_now must be before horizon")
    if isinstance(rng, (int, np.integer)):
        rng = np.random.default_rng(int(rng))
    beta = model.beta_per_hour
    mu = model.baselines[agent]
    a = excitation

    s = t_now / SECONDS_PER_HOUR
    a_ref = s
    horizon_h = horizon / SECONDS_PER_HOUR
    while s < horizon_h:
        b = min(math.floor(s) + 1.0, horizon_h)
        exc = a * math.exp(-beta * (s - a_ref))
        lam_bar = float(mu[timeutil.flat_bin_of_hour(int(math.floor(s)))]) + beta * exc
        if lam_bar <= 0:
            s = b
            continue
        delta = rng.exponential(1.0 / lam_bar)
        if s + delta >= b:
            s = b
            continue
        t_star = s + delta
        lam = float(mu[timeutil.flat_bin_of_hour(int(math.floor(t_star)))]) \
            + beta * a * math.exp(-beta * (t_star - a_ref))
        assert lam <= lam_bar * (1 + 1e-12), "thinning bound violated"
        if rng.uniform() * lam_bar <= lam:
            # ceil can round t_star back onto t_now; a wake is strictly later
            return max(min(int(math.ceil(t_star * SECONDS_PER_HOUR)), horizon), t_now + 1)
        s = t_star
    return None


def simulate_pure_hawkes(model: HawkesModel, window: tuple[int, int],
                         triggers, history: EventLog,
                         recipient_dist: np.ndarray, seed: int,
                         counters: dict | None = None) -> EventLog:
    """Roll the fitted process forward over the window.

    Trigger events are injected verbatim at their scheduled times and feed
    the excitation state; non-trigger agents generate organic events by
    multivariate thinning, each with one recipient drawn from the sender's
    historical contact distribution. Trigger agents do not generate organic
    events (their ground truth is the injection).
    """
    if counters is None:
        counters = {}
    counters.setdefault("uniform_recipient_fallbacks", 0)
    counters.setdefault("organic_events", 0)
    t0, t1 = window
    rng = substream(seed, "pure-hawkes")
    n = model.n_agents
    beta = model.beta_per_hour
    trigger_agents = frozenset(getattr(triggers, "trigger_agents", None) or ())
    sched_src = getattr(triggers, "scheduled_events", None)
    organic = np.array([i for i in range(n) if i not in trigger_agents], dtype=np.int64)
    schedule = [e for e in (sched_src.events if sched_src is not None else ())
                if t0 <= e.ts < t1]

    mu_org = model.baselines[organic]            # (K, 168)
    alpha_org = model.alpha[organic]             # (K, D)
    alpha_diag = np.diag(model.alpha)[organic]
    col_weight = alpha_org.sum(axis=0)           # excitation column weights
    sum_mu = mu_org.sum(axis=0)                  # (168,)

    g = np.zeros(n)
    t0_h = t0 / SECONDS_PER_HOUR
    for e in history.events:
        if e.ts <= t0:
            g[e.sender] += math.exp(-beta * (t0 - e.ts) / SECONDS_PER_HOUR)

    out: list[Event] = list(schedule)
    next_id = max((e.event_id for e in schedule), default=-1) + 1
    sched_h = [e.ts / SECONDS_PER_HOUR for e in schedule]
    si = 0

    s = t0_h
    g_ref = s
    horizon_h = t1 / SECONDS_PER_HOUR

    def decay_to(t):
        nonlocal g_ref
        if t > g_ref:
            g_val = math.exp(-beta * (t - g_ref))
            g[:] *= g_val
            g_ref = t

    while s < horizon_h:
        next_trig = sched_h[si] if si < len(schedule) else math.inf
        if next_trig <= s:
            decay_to(s)
            tt = schedule[si].ts
            while si < len(schedule) and schedule[si].ts == tt:
                g[schedule[si].sender] += 1.0
                si += 1
            continue
        b = min(math.floor(s) + 1.0, horizon_h, next_trig)
        decay_to(s)
        lam_bar = float(sum_mu[timeutil.flat_bin_of_hour(int(math.floor(s)))]) + beta * float(col_weight @ g)
        if lam_bar <= 0:
            s = b
            continue
        delta = rng.exponential(1.0 / lam_bar)
        if s + delta >= b:
            s = b
            continue
        t_star = s + delta
        decay_to(t_star)
        if len(organic) == 0:
            s = t_star
            continue
        if model.diagonal_only:
            exc = beta * alpha_diag * g[organic]
        else:
            exc = beta * (alpha_org @ g)
        lam = mu_org[:, timeutil.flat_bin_of_hour(int(math.floor(t_star)))] + exc
        total = float(lam.sum())
        u = rng.uniform() * lam_bar
        assert total <= lam_bar * (1 + 1e-12), "thinning bound violated"
        if u <= total:
            sender = int(organic[int(np.searchsorted(np.cumsum(lam), u, side="left"))])
            probs = recipient_dist[sender]
            if probs.sum() > 0:
                recipient = int(rng.choice(n, p=probs / probs.sum()))
            else:
                counters["uniform_recipient_fallbacks"] += 1
                others = [j for j in range(n) if j != sender]
                recipient = int(others[rng.integers(len(others))]) if others else sender
            ts = min(int(math.ceil(t_star * SECONDS_PER_HOUR)), t1 - 1)
            out.append(Event(next_id, sender, (recipient,), ts, ORGANIC))
            next_id += 1
            counters["organic_events"] += 1
            g[sender] += 1.0
        s = t_star

    return EventLog(model.agents, tuple(sorted(out, key=lambda e: (e.ts, e.event_id))))
