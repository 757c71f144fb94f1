"""`next_activation`, the simulator's wake function before each activation
policy drew its own wakes: a policy's `draw` capped at the horizon. The
tests of the four policies' wake rules call it as they always have."""

from commsim import hawkes
from commsim.simulator import ActivationPolicy, SimulationError


def next_activation(policy: ActivationPolicy, agent: int,
                    excitation: hawkes.ExcitationState | None,
                    t_now: int, horizon: int, rng) -> int | None:
    """Next wake strictly after t_now under the policy, or None if it falls
    past the horizon. LLMPredicted returns None here: the agent's own
    decision supplies the time. Only HawkesGuided reads `excitation`, the
    model's state over the events up to t_now; None stands for a model
    without excitation, whose state would read 0.0."""
    if t_now >= horizon:
        raise SimulationError("t_now must be before horizon")
    t = policy.draw(agent, excitation, t_now, horizon, rng)
    return t if t is not None and t < horizon else None
