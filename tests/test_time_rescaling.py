"""Time-rescaling checks of the rollout samplers (Brown, Barbieri, Ventura,
Kass & Frank, Neural Computation 2002). Take agent i's compensator
Lambda_i(t) = integral of mu_i + sum over events e before t of
alpha[i, sender(e)] * (1 - exp(-beta * (t - t_e))). If the events follow the
model, the gaps Lambda_i(t_k) - Lambda_i(t_{k-1}) between agent i's
consecutive events, from the window start on, are iid Exp(1).

A full-matrix `HawkesGuided` rollout fails this test, and no test here
asserts it: another agent's send does not move a pending wake, so
cross-excitation reaches an agent only from its next wake on (the known
limitation in README's command-line section)."""

import numpy as np
import pytest
from scipy.stats import kstest

from commsim import hawkes
from commsim.corpus import EventLog
from commsim.simulator import (Action, ActionDecision, HawkesGuided, SimConfig, TriggerPlan,
                               run)

from conftest import BASE_MONDAY

DAY = 86400
HOUR = 3600
N = 20
AGENTS = tuple(f"a{i:02d}" for i in range(N))


class SendNext:
    """One message to the next agent at every wake, so wakes are events."""

    def decide(self, ctx):
        return ActionDecision((Action("initiate", ((ctx.agent + 1) % N,)),), ctx.now + HOUR)


def compensator_gaps(log: EventLog, model: hawkes.HawkesModel, t0: int) -> np.ndarray:
    """Every agent's rescaled gaps, for a model with a flat baseline over a
    log with no event before t0."""
    ts = log.ts / HOUR
    gaps = []
    for i in range(log.n_agents):
        t = np.concatenate([[t0 / HOUR], ts[log.senders == i]])
        lag = t[:, None] - ts[None, :]
        kernel = np.where(lag > 0, -np.expm1(-model.beta_per_hour * np.maximum(lag, 0)), 0.0)
        excited = kernel @ model.alpha[i, log.senders]
        gaps.append(np.diff(model.baselines[i, 0] * (t - t[0]) + excited))
    return np.concatenate(gaps)


def test_diagonal_hawkes_guided_rollout_rescales_to_unit_exponentials():
    """20 agents, flat mu = 0.2/h, beta = 1/h, alpha = 0.5 * I, 30 days:
    about 5,800 events whose gaps pass KS against Exp(1) at seed 7."""
    model = hawkes.HawkesModel(AGENTS, np.full((N, 168), 0.2), 0.5 * np.eye(N), 1.0, True)
    t0 = BASE_MONDAY
    cfg = SimConfig(window=(t0, t0 + 30 * DAY), seed=7, policy=HawkesGuided(model))
    empty = EventLog(AGENTS, ())
    sim = run(cfg, empty, SendNext(), TriggerPlan(frozenset(), empty))
    gaps = compensator_gaps(sim, model, t0)
    assert len(sim.events) > 5000
    assert abs(gaps.mean() - 1) < 0.05, gaps.mean()
    assert kstest(gaps, "expon").pvalue > 0.01


@pytest.mark.parametrize("alpha", [0.5 * np.eye(N), 0.3 * np.eye(N) + 0.02 * (1 - np.eye(N))],
                         ids=["diagonal", "full"])
def test_pure_hawkes_rollout_rescales_to_unit_exponentials(alpha):
    """The same setup: the pure-Hawkes sampler draws every agent's next event
    from the current excitation of all of them, so its full-matrix rollout
    passes too."""
    diagonal = not (alpha - np.diag(np.diag(alpha))).any()
    model = hawkes.HawkesModel(AGENTS, np.full((N, 168), 0.2), alpha, 1.0, diagonal)
    window = (BASE_MONDAY, BASE_MONDAY + 30 * DAY)
    empty = EventLog(AGENTS, ())
    contacts = (1 - np.eye(N)) / (N - 1)
    sim = hawkes.simulate_pure_hawkes(model, window, TriggerPlan(frozenset(), empty), empty,
                                      contacts, 7)
    gaps = compensator_gaps(sim, model, window[0])
    assert len(sim.events) > 4000
    assert abs(gaps.mean() - 1) < 0.05, gaps.mean()
    assert kstest(gaps, "expon").pvalue > 0.01
