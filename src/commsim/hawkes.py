"""Periodic self-exciting activation model.

Each agent's activation intensity (events/hour) is a weekly 7x24 baseline
plus exponentially decaying excitation from past events:

    lam_i(t) = mu_i(weekday(t), hour(t)) + sum_{events e with t_e < t}
               alpha[i][sender_e] * beta * exp(-beta * (t - t_e))

with beta shared across agents (units 1/hour; elapsed times in hours).
Excitation attaches to an event's sender and timestamp only; recipients do
not excite. Parameters are fitted by maximizing the exact log-likelihood
(concave in mu and alpha for fixed beta), which splits into one term per
agent: projected gradient ascent on one vector x = (mu_i, alpha_i) per
agent, held componentwise above (baseline_floor, 0). Each coordinate steps
along its gradient over its curvature, and the step is halved until the
likelihood does not fall.

The agents ascend in blocks that take their steps together
(`_ascend_block`), each holding at most `_ASCENT_BLOCK_BYTES` more than the
largest agent alone, S**2 included. Each agent's floats, stop reason and
error are those of a one-agent ascent, which `tests/oracle_hawkes.py` keeps
as the oracle; `_ascend_block` gives the float order that makes them so.

Both samplers draw from one Ogata (1981) thinning kernel, `_thinning`. It
steps from interval to interval, none longer than an hour: each step takes
a rate bound, one exponential gap and, for a candidate inside the interval,
one acceptance uniform. Within an hour the baseline is constant and the
excitation only decays, so the rate at the interval's left endpoint
dominates. The kernel walks the hours itself and hands the bound and the
rate the hour's weekly bin, advanced by one per hour rather than recomputed
from the time at each step. The samplers differ only in their bound:

- `thin_next_activation` bounds one agent: its bin rate plus its
  excitation at the left endpoint, up to the end of the hour. With zero
  excitation the bin rate is the intensity itself, so it passes no rate
  and the kernel accepts every candidate, still drawing its uniform;
- `simulate_pure_hawkes` bounds the sum over the organic agents up to the
  end of the hour or the next trigger, and injects each trigger as the
  kernel reaches it.

The one-agent sampler walks many hours without a candidate (a median of 12
steps per wake on the benchmark corpora), so it asks the kernel to read its
gaps from blocks of standard exponentials, one numpy call per block rather
than per step. At a candidate, or at the horizon, the kernel puts the
generator back where one call per step would have left it, so each gap,
uniform and final state is unchanged. The pure-Hawkes bound sums every
organic agent's rate, so its events come close together: on the benchmark's
`score_suite` and `fit_full` corpora an event takes 1.5 hour steps on
average and 68% take one. A block there costs a restore per event, and
made that sampler 1.34x slower, so it keeps one call per step.

Excitation is read from one recursion, `ExcitationState`: one decayed
event count per sender, updated as each event is appended (Ozaki 1979).
Its invariant: it covers exactly the events added so far, in append order
(non-decreasing ts), and is read at times t >= the latest added ts; events
at ts == t count with weight 1. Three readers share it:

- the fitter builds every agent's likelihood terms in one time-ordered
  sweep over the log's `ts` and `senders`, reading each in-window event's
  decayed source counts before adding its timestamp group, so an event is
  excited only by sources strictly before it;
- `sample_next_activation` builds the state from a history and thins;
- `simulator.run` keeps one state across a rollout, so a wake costs O(1)
  (diagonal model) or O(D) instead of a rescan of the history; it keeps
  none when alpha is zero everywhere, as every read would be 0.0.

`simulate_pure_hawkes` keeps its own decayed vector with one common
reference time: its superposition sampler reads the whole vector at every
step, which then costs one `exp` instead of one per sender. When alpha is
zero on every organic row it keeps none, as the excitation only adds exact
zeros.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
from dataclasses import dataclass

import numpy as np

from . import timeutil
from .corpus import Event, EventLog, check_kinds, kind_error, sent_times, window as log_window
from .rng import RecipientDraw, substream

N_BINS = 168
SECONDS_PER_HOUR = 3600.0
# standard exponentials per block in the one-agent wake sampler: on the
# benchmark's rollouts a wake walks a median of 12 hour steps and about a
# tenth walk more than 64; blocks of 32 and 128 were slower there
_WAKE_BLOCK = 64
# bytes an ascent block may hold beyond the largest agent, which a
# one-agent ascent holds anyway; an agent holds its S**2, _ROW_ARRAYS arrays
# of 168 + m floats and _EVENT_ARRAYS floats per event. With 2 vCPUs: on the
# benchmark's 100-agent full fit, blocks of about 13 agents take the ascent
# from 15.6 to 9.7 ms a fit (1 MiB more took 1-2 MiB more peak RSS); at 1000
# agents, where one agent's S**2 is about 100 KB, blocks of about 15 keep
# the ascent as fast as one agent at a time (256 KiB blocks of one or two
# agents made it 1.17x slower).
_ASCENT_BLOCK_BYTES = 1 << 18
_ROW_ARRAYS, _EVENT_ARRAYS = 5, 12


class HawkesError(ValueError):
    pass


@dataclass(frozen=True, eq=False)
class HawkesModel:
    """A fitted process; `==` is identity, as it holds arrays."""

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
        check_kinds(vars(self), HawkesError, beta_per_hour=float, diagonal_only=bool)
        if not (math.isfinite(self.beta_per_hour) and self.beta_per_hour > 0):
            raise HawkesError("beta must be positive and finite")
        if self.diagonal_only and np.any(self.alpha * (1 - np.eye(d)) != 0):
            raise HawkesError("diagonal_only model has nonzero off-diagonal alpha")
        self.baselines.setflags(write=False)
        self.alpha.setflags(write=False)

    @property
    def n_agents(self) -> int:
        return len(self.agents)

    @property
    def stability_warning(self) -> bool:
        """Spectral radius of alpha >= 1: with the kernel alpha * beta *
        exp(-beta * t) the process is then not stationary (Hawkes 1971). The
        radius is at most the largest row sum, so eigenvalues are computed
        only when some row sum is >= 1."""
        if not np.any(self.alpha.sum(axis=1) >= 1.0):
            return False
        return bool(np.max(np.abs(np.linalg.eigvals(self.alpha))) >= 1.0)

    @functools.cached_property
    def baseline_rows(self) -> list[list[float]]:
        """`baselines` as Python floats: one 168-entry list per agent."""
        return self.baselines.tolist()

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
    if error := kind_error("agents", d["agents"], list):
        raise HawkesError(error)  # tuple() would read "ab" as the agents a and b
    agents = tuple(d["agents"])
    n = len(agents)
    baselines = np.array(d["baselines"], dtype=float).reshape(n, N_BINS)
    if isinstance(d["alpha"], dict):
        alpha = np.diag(np.array(d["alpha"]["diag"], dtype=float))
    else:
        alpha = np.array(d["alpha"], dtype=float)
    return HawkesModel(agents, baselines, alpha, d["beta_per_hour"], d["diagonal_only"])


def load_model(path) -> HawkesModel:
    with open(path, "r", encoding="utf-8") as fh:
        return model_from_dict(json.load(fh))


@dataclass(frozen=True)
class FitConfig:
    diagonal_only: bool = True
    beta_override: float | None = None
    max_iters: int = 500
    tolerance: float = 1e-6
    baseline_floor: float = 1e-6

    def __post_init__(self):
        beta, iters = self.beta_override, self.max_iters
        check_kinds(vars(self), HawkesError, diagonal_only=bool, tolerance=float,
                    baseline_floor=float, **({} if beta is None else {"beta_override": float}))
        if beta is not None and not (math.isfinite(beta) and beta > 0):
            raise HawkesError("beta_override must be positive and finite")
        if (kind_error("max_iters", iters, int) or iters <= 0
                or not all(math.isfinite(x) and x > 0 for x in (self.tolerance, self.baseline_floor))):
            raise HawkesError("max_iters, tolerance and baseline_floor must be positive, "
                              "max_iters an integer and the others finite")


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
        span = history.span(t1=t_now + 1)
        for sender, ts in zip(history.senders[span].tolist(), history.ts[span].tolist()):
            state.add(sender, ts)
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


def _excitation_weights(source_ts: np.ndarray, t0: int, t1: int, beta: float) -> float:
    """Sum over source events before t1 of their window excitation weight
    exp(-beta * max(0, t0 - t_e)) - exp(-beta * (t1 - t_e))."""
    ts = source_ts[source_ts < t1].astype(float)
    if len(ts) == 0:
        return 0.0
    up = np.exp(-beta * np.maximum(0.0, t0 - ts) / SECONDS_PER_HOUR)
    lo = np.exp(-beta * (t1 - ts) / SECONDS_PER_HOUR)
    return float(np.sum(up - lo))


_NONPOSITIVE = "nonpositive intensity at an event; raise baseline_floor"


@dataclass
class _AgentTerms:
    """Precomputed per-agent quantities; the log-likelihood of agent i is
    sum_k log(mu[bins[k]] + beta * S[k] @ alpha_row) - mu @ bin_hours
    - alpha_row @ weights.

    `_ascend_block` stacks the events of its agents and keeps every sum per
    agent, on these arrays; it says why the floats are a one-agent
    ascent's."""
    bins: np.ndarray      # (n_i,) flat weekly bin of each in-window event
    S: np.ndarray         # (n_i, m) decayed source sums per fitted column
    weights: np.ndarray   # (m,) integral weight per fitted column
    columns: np.ndarray   # (m,) source agent index per fitted column


def _agent_terms(log: EventLog, window: tuple[int, int], beta: float,
                 diagonal_only: bool) -> dict[int, _AgentTerms]:
    """Every agent's terms from one time-ordered sweep over `ts` and `senders`.

    An `ExcitationState` covers the events before the current timestamp
    group; each in-window event's `S` row is read from it before the group
    is added, so sources count strictly before the event. A full fit reads
    every source's decayed count, a diagonal fit the sender's own. Column
    weights depend on the source alone and are computed once per column.
    """
    t0, t1 = window
    n = log.n_agents
    in_window = log.span(t0, t1)
    counts = np.bincount(log.senders[in_window], minlength=n)
    m = 1 if diagonal_only else n
    S = [np.zeros((c, m)) for c in counts]
    bins = [np.zeros(c, dtype=np.int64) for c in counts]
    filled = [0] * n
    state = ExcitationState(beta_per_hour=beta, n_agents=n)
    ts, senders = log.ts[:in_window.stop], log.senders[:in_window.stop].tolist()
    starts = np.flatnonzero(np.diff(ts, prepend=ts[:1] - 1)).tolist()
    for lo, hi in zip(starts, starts[1:] + [len(senders)]):
        t, group = int(ts[lo]), senders[lo:hi]
        if t >= t0:
            b = timeutil.flat_bin_of(t)
            row = None if diagonal_only else state.decayed_all(t)
            for i in group:
                S[i][filled[i]] = state.decayed(i, t) if diagonal_only else row
                bins[i][filled[i]] = b
                filled[i] += 1
        for i in group:
            state.add(i, t)
    col_weight = np.zeros(n)
    for j, src in sent_times(log).items():
        col_weight[j] = _excitation_weights(src, t0, t1, beta)
    cols_full = np.arange(n)
    out = {}
    for i in range(n):
        cols = np.array([i]) if diagonal_only else cols_full
        out[i] = _AgentTerms(bins=bins[i], S=S[i], weights=col_weight[cols], columns=cols)
    return out


def _agent_ll(terms: _AgentTerms, mu: np.ndarray, alpha_row: np.ndarray,
              beta: float, bin_hours: np.ndarray) -> tuple[float, np.ndarray]:
    """(log-likelihood, intensity at each of the agent's events)."""
    lam = mu[terms.bins] + beta * (terms.S @ alpha_row)
    # the array methods run the same reductions as np.any and np.sum, minus their wrappers
    if (lam <= 0).any():
        raise HawkesError(_NONPOSITIVE)
    return float(np.log(lam).sum() - mu @ bin_hours - alpha_row @ terms.weights), lam


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
                           model.beta_per_hour, bin_hours)[0]
    if not math.isfinite(total):
        raise HawkesError("non-finite log-likelihood")
    return total


# ---------------------------------------------------------------------------
# fitting


def median_gap_beta(log: EventLog, window: tuple[int, int]) -> float:
    """beta (1/hour) = 1 / median inter-event gap, gaps taken per agent
    between consecutive sends within the window and pooled across agents."""
    hist = log_window(log, *window)
    gaps = [g for ts in sent_times(hist).values() for g in np.diff(ts).tolist()]
    if not gaps:
        gaps = np.diff(hist.ts).tolist()
    if not gaps:
        return 1.0
    med = float(np.median(gaps))
    return SECONDS_PER_HOUR / max(med, 1.0)


def _ascent_blocks(terms: dict[int, _AgentTerms]) -> list[list[int]]:
    """The agents in index order, cut into consecutive blocks that each
    hold at most `_ASCENT_BLOCK_BYTES` more than the largest agent alone,
    the most a one-agent-at-a-time ascent holds."""
    sizes = {i: 8 * (len(t.bins) * (len(t.columns) + _EVENT_ARRAYS)
                     + _ROW_ARRAYS * (N_BINS + len(t.columns)))
             for i, t in terms.items()}
    limit = _ASCENT_BLOCK_BYTES + max(sizes.values())
    blocks, block, held = [], [], 0
    for i, size in sizes.items():
        if held + size > limit:
            blocks.append(block)
            block, held = [], 0
        block.append(i)
        held += size
    return blocks + [block]


def _ascend_block(agents: list[int], terms: dict[int, _AgentTerms], beta: float,
                  bin_hours: np.ndarray, cfg: FitConfig, baselines: np.ndarray,
                  alpha: np.ndarray) -> list[tuple[str | HawkesError, int, float]]:
    """Projected gradient ascent with backtracking on each agent's concave
    likelihood, for a block of agents that take their steps together.

    Per agent, the ascent steps one vector x = (mu, alpha_row), projected
    onto x >= lower = (baseline_floor in the 168 bins, 0 in the m columns).
    The direction is the gradient scaled per coordinate by the inverse
    diagonal curvature, which keeps the baseline bins and the excitation
    weights moving at comparable speed. Each iteration starts from the
    intensities the accepted candidate's likelihood computed, and halves its
    step, from 1, until the likelihood does not fall. An agent stops as
    "converged" when the gain falls below the tolerance (or it has no
    events), "max_iters" when the iteration budget runs out,
    "backtracking_failed" when 60 candidates all fell, and with its
    `HawkesError` when its intensity is not positive at an event or its
    likelihood not finite.

    The block holds one row per agent still searching. x, the direction and
    the step are arrays of rows, and the intensities and their inverses are
    the rows' events concatenated, keyed by row * 168 + bin for `bincount`.
    Once per round, on the whole block: `1 / lam`, `inv * inv`, the
    gradient, curvature and direction, `x + step * d` and its `np.maximum`
    with `lower`, the gather of mu at the events, `np.log` and both
    `bincount`s. Each float they give an agent is the one its own arrays
    give: an elementwise result depends on its operands alone, and
    `bincount` adds the weights of a key in array order. Per row, with the
    shapes and calls of a one-agent ascent, run the reductions whose float
    order BLAS or pairwise summation fixes: `S @ alpha_row`, `S.T @ inv`,
    `(S**2).T @ inv_sq`, the sum of the row's log intensities,
    `mu @ bin_hours` and `alpha_row @ weights`. A row leaves the block when
    it stops, so every array row is searching. When some row starts an
    iteration, the direction of every row is recomputed; a backtracking
    row's comes from the inputs that gave it before, so it is unchanged.

    Writes each agent's mu and alpha row into `baselines` and `alpha`.
    Returns (stop, iterations, final likelihood) for each agent in block
    order.
    """
    ts = [terms[i] for i in agents]
    m = len(ts[0].columns)
    width = N_BINS + m
    lower = np.concatenate([np.full(N_BINS, cfg.baseline_floor), np.zeros(m)])
    sizes = [len(t.bins) for t in ts]
    bins = np.concatenate([t.bins for t in ts])
    weights = np.array([t.weights for t in ts])

    def index():
        slot_of = np.repeat(np.arange(len(sizes)), sizes)
        keys = slot_of * N_BINS + bins
        return slot_of, keys, keys + slot_of * m, [0, *itertools.accumulate(sizes)]

    def evaluate(x):
        """Each row's likelihood at its row of x, None where an intensity is
        not positive, and the intensities at every row's events."""
        s_alpha = np.empty(len(bins))
        for s, t in enumerate(ts):
            np.matmul(t.S, x[s, N_BINS:], out=s_alpha[bounds[s]:bounds[s + 1]])
        lam = x.ravel()[gather] + beta * s_alpha
        bad = lam <= 0
        failed = set(slot_of[bad].tolist()) if bad.any() else ()
        log_lam = np.log(np.where(bad, 1.0, lam) if failed else lam)
        return [None if s in failed else
                float(log_lam[bounds[s]:bounds[s + 1]].sum() - x[s, :N_BINS] @ bin_hours
                      - x[s, N_BINS:] @ t.weights)
                for s, t in enumerate(ts)], lam

    slot_of, keys, gather, bounds = index()
    x = np.empty((len(ts), width))
    # the empirical rate per bin, held above the floor; a bin the window
    # misses divides by inf, for a rate of 0
    hours = np.where(bin_hours > 0, np.maximum(bin_hours, 1e-12), np.inf)
    np.maximum(np.bincount(keys, minlength=len(ts) * N_BINS).reshape(-1, N_BINS) / hours,
               cfg.baseline_floor, out=x[:, :N_BINS])
    # a source with no event before t1 has a zero S column and a zero weight,
    # so a zero gradient: its entry is not identifiable and starts (and stays) 0
    x[:, N_BINS:] = np.where(weights > 0, 0.1, 0.0)
    if 0 in sizes:
        x[[s for s, size in enumerate(sizes) if size == 0], N_BINS:] = 0.0

    rows = list(range(len(ts)))
    tolerance, max_iters = cfg.tolerance, cfg.max_iters
    s_sq_t = [(t.S ** 2).T for t in ts]
    iters, tries = [0] * len(ts), [0] * len(ts)
    step = np.ones((len(ts), 1))
    # the direction persists; x_c holds the curvature, then the candidate
    direction, x_c = np.empty_like(x), np.empty_like(x)
    s_inv, s_sq_inv = np.empty((len(ts), m)), np.empty((len(ts), m))
    results: dict[int, tuple[str | HawkesError, int, float]] = {}
    cur, lam = evaluate(x)
    starting, stops = [], {}
    for s, c in enumerate(cur):
        if c is None:
            stops[s] = HawkesError(_NONPOSITIVE)
        elif sizes[s]:
            starting.append(s)
        else:
            stops[s] = "converged"

    while True:
        for s, stop in stops.items():
            results[rows[s]] = stop, iters[s], cur[s]
            baselines[agents[rows[s]]] = x[s, :N_BINS]
            alpha[agents[rows[s]], ts[s].columns] = x[s, N_BINS:]
        if stops:
            live = [s for s in range(len(rows)) if s not in stops]
            if not live:
                break
            keep = np.zeros(len(rows), dtype=bool)
            keep[live] = True
            at = np.cumsum(keep) - 1
            starting = [int(at[s]) for s in starting if keep[s]]
            ts, rows, s_sq_t, cur, iters, tries = ([v[s] for s in live]
                                                   for v in (ts, rows, s_sq_t, cur, iters, tries))
            events = keep[slot_of]
            bins, lam = bins[events], lam[events]
            sizes = [sizes[s] for s in live]
            weights, x, step = weights[keep], x[keep], step[keep]
            direction, s_inv, s_sq_inv = direction[keep], s_inv[keep], s_sq_inv[keep]
            x_c = x_c[:len(live)]
            slot_of, keys, gather, bounds = index()
        if starting:
            inv = 1.0 / lam
            inv_sq = inv * inv
            for s in starting:
                lo, hi = bounds[s], bounds[s + 1]
                np.matmul(ts[s].S.T, inv[lo:hi], out=s_inv[s])
                np.matmul(s_sq_t[s], inv_sq[lo:hi], out=s_sq_inv[s])
                iters[s] += 1
                tries[s] = 0
                step[s, 0] = 1.0
            n_bins = len(ts) * N_BINS
            # the gradient, then the direction, in place
            np.subtract(np.bincount(keys, weights=inv, minlength=n_bins).reshape(-1, N_BINS),
                        bin_hours, out=direction[:, :N_BINS])
            np.subtract(beta * s_inv, weights, out=direction[:, N_BINS:])
            x_c[:, :N_BINS] = np.bincount(keys, weights=inv_sq,
                                          minlength=n_bins).reshape(-1, N_BINS)
            np.multiply(beta * beta, s_sq_inv, out=x_c[:, N_BINS:])
            np.divide(direction, np.maximum(x_c, 1e-9, out=x_c), out=direction)
        np.maximum(np.add(x, np.multiply(step, direction, out=x_c), out=x_c), lower, out=x_c)
        cand, lam_c = evaluate(x_c)
        starting, stops, accepted = [], {}, []
        for s, c in enumerate(cand):
            if c is None or not math.isfinite(c):
                stops[s] = HawkesError(_NONPOSITIVE if c is None else
                                       "non-finite likelihood during optimization")
            elif c >= cur[s]:
                accepted.append(s)
                improved, cur[s] = c - cur[s], c
                if improved <= tolerance * max(1.0, abs(c)):
                    stops[s] = "converged"
                elif iters[s] == max_iters:
                    stops[s] = "max_iters"
                else:
                    starting.append(s)
            else:
                tries[s] += 1
                if tries[s] == 60:
                    stops[s] = "backtracking_failed"
                else:
                    step[s, 0] *= 0.5
        if len(accepted) == len(rows):
            x, x_c, lam = x_c, x, lam_c
        elif accepted:
            taken = np.zeros(len(rows), dtype=bool)
            taken[accepted] = True
            np.copyto(x, x_c, where=taken[:, None])
            np.copyto(lam, lam_c, where=taken[slot_of])
    return [results[row] for row in range(len(agents))]


def _ascend(blocks, terms: dict[int, _AgentTerms], beta: float, bin_hours: np.ndarray,
            cfg: FitConfig, baselines: np.ndarray, alpha: np.ndarray,
            counters: dict) -> list[str]:
    """Every agent's ascent, block after block; returns each agent's stop
    reason. Results go into `baselines` and `alpha`, each stop other than
    convergence is counted in `counters`, in agent order, and the first
    failing agent's `HawkesError` is raised once the agents before it are
    counted. Then `counters` receives the largest and the median iteration
    count over the agents with events and `log_likelihood`, the sum of
    every agent's final likelihood in agent order."""
    stops, iterations, total = [], [], 0.0
    for agents in blocks:
        results = _ascend_block(agents, terms, beta, bin_hours, cfg, baselines, alpha)
        for i, (stop, iters, objective) in zip(agents, results):
            if isinstance(stop, HawkesError):
                raise stop
            stops.append(stop)
            if stop != "converged":
                counters[f"unconverged_{stop}"] += 1
            if len(terms[i].bins):
                iterations.append(iters)
            total += objective
    counters["ascent_iterations_max"] = max(iterations, default=0)
    counters["ascent_iterations_median"] = float(np.median(iterations)) if iterations else 0.0
    counters["log_likelihood"] = total
    return stops


def fit(log: EventLog, window: tuple[int, int], config: FitConfig | None = None,
        counters: dict | None = None) -> HawkesModel:
    """Maximum-likelihood fit of baselines and excitation over the window.

    Agents with no in-window sends get floor-only baselines and a zero
    excitation row. beta comes from the pooled median inter-send gap unless
    overridden. `counters`, when given, receives the number of agents whose
    ascent stopped for each reason other than convergence
    (`unconverged_max_iters`, `unconverged_backtracking_failed`), then
    the fit's telemetry: `ascent_iterations_max` and
    `ascent_iterations_median` over the agents with in-window sends, and
    `log_likelihood`, each agent's final ascent objective summed in agent
    order (the model's log-likelihood, up to float order).

    The agents ascend in byte-budgeted blocks of consecutive agents
    (`_ascend_block`, which gives the float order). The model is
    byte-identical to one agent at a time, and so is an error: the
    `HawkesError` of the lowest-index agent that fails, raised once the
    agents before it are counted.
    """
    if counters is None:
        counters = {}
    counters.setdefault("unconverged_max_iters", 0)
    counters.setdefault("unconverged_backtracking_failed", 0)
    config = config or FitConfig()
    t0, t1 = window
    n_events = len(log.ts[log.span(t0, t1)])
    if n_events < 2:
        raise HawkesError(f"window has {n_events} events; need at least 2")
    beta = config.beta_override if config.beta_override is not None else median_gap_beta(log, window)
    terms = _agent_terms(log, window, beta, config.diagonal_only)
    bin_hours = timeutil.weekly_bin_hours(t0, t1)
    n = log.n_agents
    baselines = np.zeros((n, N_BINS))
    alpha = np.zeros((n, n))
    _ascend(_ascent_blocks(terms), terms, beta, bin_hours, config, baselines, alpha, counters)
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


def _thinning(rng: np.random.Generator, s: float, end_h: float, bound, rate,
              block: int = 0):
    """Ogata (1981) thinning over [s, end_h), in hours.

    The kernel keeps k, the weekly bin of s's hour: computed once, then
    advanced by one (167 wraps to 0) each time s reaches the hour's end.
    `bound(s, k, end)` returns (lam_bar, b): a rate that dominates the
    intensity on [s, b), where b <= end, the end of s's hour clipped to end_h.
    `rate(t, k)` is the intensity at a candidate t in s's hour; `rate=None`
    says the bound is the intensity, so every candidate is accepted. Each
    candidate draws its acceptance uniform with `rng.random()`, the double
    and the generator state `rng.uniform()` gives. Yields (t, u, k) for each
    accepted candidate, u = uniform * lam_bar <= rate(t, k).

    Each step's gap is `rng.exponential(1 / lam_bar)`. With `block` > 0 the
    steps read their standard exponentials from `standard_exponential(block)`,
    one call per `block` steps, and a gap is `(1 / lam_bar) * e`, the double
    `exponential` returns (numpy computes it as the scale times one standard
    exponential). A block's entries are the draws that many scalar calls
    make, in order, so restoring the state the block was drawn from and
    drawing the j entries read leaves the state j scalar calls leave. The
    kernel does that at a candidate, before its uniform, and at end_h: every
    gap, uniform and state between yields is that of one call per step.
    The block's fixed cost (a state save, the block, a restore and a
    redraw) pays off only over many steps per candidate, so only the
    one-agent sampler passes a block."""
    hour = math.floor(s)
    k = timeutil.flat_bin_of_hour(hour)
    hour_end = hour + 1.0
    end = hour_end if hour_end < end_h else end_h
    gaps: list[float] = []  # the block's standard exponentials
    j = n = 0               # the steps have read j of its n entries
    while s < end_h:
        if s >= hour_end:
            k = k + 1 if k < N_BINS - 1 else 0
            hour_end += 1.0
            end = hour_end if hour_end < end_h else end_h
        lam_bar, b = bound(s, k, end)
        if lam_bar <= 0:
            s = b
            continue
        if j < n:
            delta = (1.0 / lam_bar) * gaps[j]
            j += 1
        elif block:
            saved = rng.bit_generator.state
            gaps, n = rng.standard_exponential(block).tolist(), block
            delta = (1.0 / lam_bar) * gaps[0]
            j = 1
        else:
            delta = rng.exponential(1.0 / lam_bar)
        if s + delta >= b:
            s = b
            continue
        s += delta
        if j < n:  # leave the state j scalar draws leave
            rng.bit_generator.state = saved
            rng.standard_exponential(j)
        j = n = 0
        u = rng.random() * lam_bar
        if rate is None:
            yield s, u, k
            continue
        lam = rate(s, k)
        if not lam <= lam_bar * (1 + 1e-12):  # a NaN rate fails it too
            raise HawkesError("thinning bound violated")
        if u <= lam:
            yield s, u, k
    if j < n:
        rng.bit_generator.state = saved
        rng.standard_exponential(j)


def thin_next_activation(model: HawkesModel, agent: int, excitation: float,
                         t_now: int, horizon: int,
                         rng: np.random.Generator | int) -> int | None:
    """First thinning-accepted activation time in (t_now, horizon], or None,
    given the agent's excitation (without the beta factor) at t_now.

    Interval bound: within an hour the baseline is constant and the
    excitation only decays, so bin rate + excitation at the left endpoint
    dominates. Without excitation the bin rate is the bound and the
    intensity both, and the kernel takes no rate.
    """
    if t_now >= horizon:
        raise HawkesError("t_now must be before horizon")
    if isinstance(rng, (int, np.integer)):
        rng = np.random.default_rng(int(rng))
    beta = model.beta_per_hour
    mu = model.baseline_rows[agent]
    a = excitation
    a_ref = t_now / SECONDS_PER_HOUR
    horizon_h = horizon / SECONDS_PER_HOUR

    if a == 0.0:
        def bound(s, k, end):
            return mu[k], end
        rate = None
    else:
        def bound(s, k, end):
            exc = a * math.exp(-beta * (s - a_ref))
            return mu[k] + beta * exc, end

        def rate(t, k):
            return mu[k] + beta * a * math.exp(-beta * (t - a_ref))

    for t_star, _, _ in _thinning(rng, a_ref, horizon_h, bound, rate, _WAKE_BLOCK):
        # ceil can round t_star back onto t_now; a wake is strictly later
        return max(min(int(math.ceil(t_star * SECONDS_PER_HOUR)), horizon), t_now + 1)
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

    Two invariants keep the output byte-identical to thinning that updates
    the excitation vector at every step and draws with `rng.choice`:

    - when alpha is zero on every organic row, a candidate's intensity
      vector is its hour's baseline column plus exact zeros, a contiguous
      array; its sum and cumsum are tabulated once per weekly bin, and no
      excitation is kept;
    - each recipient is drawn by `rng.RecipientDraw`: one `rng.random()`,
      the one draw `choice` makes, searched in the CDF `choice` builds. A
      sender with no other agent to fall back on writes to itself.
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
    sum_mu = mu_org.sum(axis=0).tolist()         # (168,)
    excited = bool(alpha_org.any())
    if not excited:
        zeros = np.zeros(len(organic))
        bin_lam = [mu_org[:, k] + zeros for k in range(N_BINS)]
        # a pairwise sum, which need not equal the sequential cumsum's last entry
        bin_total = [float(lam.sum()) for lam in bin_lam]
        bin_cum = [np.cumsum(lam) for lam in bin_lam]
    recipients = RecipientDraw(recipient_dist, n)

    g = np.zeros(n)
    t0_h = t0 / SECONDS_PER_HOUR
    if excited:
        span = history.span(t1=t0 + 1)
        for sender, ts in zip(history.senders[span].tolist(), history.ts[span].tolist()):
            g[sender] += math.exp(-beta * (t0 - ts) / SECONDS_PER_HOUR)

    out: list[Event] = list(schedule)
    next_id = max((e.event_id for e in schedule), default=-1) + 1
    sched_h = [e.ts / SECONDS_PER_HOUR for e in schedule] + [math.inf]
    si = 0
    g_ref = t0_h
    horizon_h = t1 / SECONDS_PER_HOUR
    lam = None  # the excited candidate's intensity vector, kept for the sender search

    def decay_to(t):
        nonlocal g_ref
        if t > g_ref:
            g_val = math.exp(-beta * (t - g_ref))
            g[:] *= g_val
            g_ref = t

    def bound(s, k, end):
        """Inject every trigger due by s, then bound the rate up to the end of
        s's hour or the next trigger."""
        nonlocal si
        if excited:
            decay_to(s)
        while sched_h[si] <= s:
            if excited:
                g[schedule[si].sender] += 1.0
            si += 1
        lam_bar = sum_mu[k]
        if excited:
            lam_bar += beta * float(col_weight @ g)
        return lam_bar, min(end, sched_h[si])

    def rate(t, k):
        nonlocal lam
        if not excited:
            return bin_total[k]
        decay_to(t)
        if model.diagonal_only:
            exc = beta * alpha_diag * g[organic]
        else:
            exc = beta * (alpha_org @ g)
        lam = mu_org[:, k] + exc
        return float(lam.sum())

    for t_star, u, k in _thinning(rng, t0_h, horizon_h, bound, rate):
        cum = np.cumsum(lam) if excited else bin_cum[k]
        sender = int(organic[int(cum.searchsorted(u, side="left"))])
        if recipients.uniform(sender):
            counters["uniform_recipient_fallbacks"] += 1
        recipient = recipients(rng, sender)
        ts = min(int(math.ceil(t_star * SECONDS_PER_HOUR)), t1 - 1)
        out.append(Event(next_id, sender, (sender if recipient is None else recipient,), ts))
        next_id += 1
        counters["organic_events"] += 1
        if excited:
            g[sender] += 1.0

    return EventLog(model.agents, ()).with_events(out)
