"""The pure-Hawkes sampler, the thinning loop and the fitter's ascent as
they were before their exact fast paths, kept as oracles of
`hawkes.simulate_pure_hawkes`, `hawkes.thin_next_activation` and
`hawkes._maximize_agent`, and the brute-force sums `intensity` and
`excitation_integral` with their `baseline_rate`.

`simulate_pure_hawkes` keeps the excitation vector up to date and runs both
matvecs on every thinning candidate, whatever alpha is, and draws each
recipient with `rng.choice`. `thin_next_activation` reads each hour's
baseline from the numpy row. `maximize_agent` recomputes the intensities at
the start of every iteration. The bodies are unchanged. `intensity` and
`excitation_integral` sum the excitation of every history event, one event
at a time."""

import math

import numpy as np

from commsim import timeutil
from commsim.corpus import Event, EventLog
from commsim.hawkes import (N_BINS, SECONDS_PER_HOUR, FitConfig, HawkesError, HawkesModel,
                            _AgentTerms)
from commsim.rng import substream


def baseline_rate(model: HawkesModel, agent: int, ts) -> float:
    """The agent's baseline rate in the weekly bin of ts (events/hour)."""
    return float(model.baselines[agent, timeutil.flat_bin_of(int(ts))])


def intensity(model: HawkesModel, agent: int, t: int, history: EventLog) -> float:
    """lam_agent(t) in events/hour; history events strictly before t excite."""
    if not (0 <= agent < model.n_agents):
        raise HawkesError(f"agent {agent} not in model")
    beta = model.beta_per_hour
    lam = baseline_rate(model, agent, t)
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
    schedule = sched_src.events[sched_src.span(t0, t1)] if sched_src is not None else ()

    mu_org = model.baselines[organic]            # (K, 168)
    alpha_org = model.alpha[organic]             # (K, D)
    alpha_diag = np.diag(model.alpha)[organic]
    col_weight = alpha_org.sum(axis=0)           # excitation column weights
    sum_mu = mu_org.sum(axis=0)                  # (168,)

    g = np.zeros(n)
    t0_h = t0 / SECONDS_PER_HOUR
    for e in history.events[history.span(t1=t0 + 1)]:
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
            out.append(Event(next_id, sender, (recipient,), ts))
            next_id += 1
            counters["organic_events"] += 1
            g[sender] += 1.0
        s = t_star

    return EventLog(model.agents, ()).with_events(out)


def agent_ll(terms: _AgentTerms, mu: np.ndarray, alpha_row: np.ndarray,
             beta: float, bin_hours: np.ndarray) -> float:
    lam = mu[terms.bins] + beta * (terms.S @ alpha_row)
    if np.any(lam <= 0):
        raise HawkesError("nonpositive intensity at an event; raise baseline_floor")
    return float(np.sum(np.log(lam)) - mu @ bin_hours - alpha_row @ terms.weights)


def maximize_agent(terms: _AgentTerms, beta: float, bin_hours: np.ndarray,
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
    if n_ev == 0:
        return mu, np.zeros(len(terms.columns)), "converged"
    # a source with no event before t1 has a zero S column and a zero weight,
    # so a zero gradient: its entry is not identifiable and starts (and stays) 0
    alpha = np.where(terms.weights > 0, 0.1, 0.0)

    def ll(m, a):
        return agent_ll(terms, m, a, beta, bin_hours)

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
