"""The stub decision that `agents.stub_decide` replaced, kept as its oracle:
every initiated message draws its recipient with `rng.choice(p=...)` over the
agent's normalized contact row, rebuilt on each draw. Also the reply
probabilities `agents.stub_params_from_history` computed from per-agent
neighbour sets."""

import numpy as np

from commsim.agents import DEFAULT_NEXT_CHECK_GAP, StubParams
from commsim.corpus import EventLog, window
from commsim.rng import substream, uniform_hash
from commsim.simulator import Action, ActionDecision, AgentContext

from oracle_corpus import scan_edges


def oracle_stub_decide(params: StubParams, ctx: AgentContext) -> ActionDecision:
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
        rng = substream(params.seed, "initiate", agent, ctx.now)
        n_init = int(rng.poisson(rate * elapsed_days))
        row = params.contact_dist[agent]
        n_agents = len(row)
        for k in range(n_init):
            if row.sum() > 0:
                recipient = int(rng.choice(n_agents, p=row / row.sum()))
            else:
                others = [j for j in range(n_agents) if j != agent]
                if not others:
                    break
                recipient = others[int(rng.integers(len(others)))]
            actions.append(Action("initiate", (recipient,), None,
                                  f"note {ctx.now}.{k} from {ctx.label}"))

    next_check = (ctx.suggested_next_check
                  if ctx.suggested_next_check is not None
                  else ctx.now + DEFAULT_NEXT_CHECK_GAP)
    return ActionDecision(tuple(actions), next_check)


def oracle_reply_prob(log: EventLog, history_window: tuple[int, int]) -> np.ndarray:
    """The old reply probabilities of `stub_params_from_history`: the share of
    an agent's in-neighbours it sent to, from dicts of neighbour sets; 0.3 for
    an agent with none."""
    hist = window(log, *history_window)
    n = log.n_agents
    in_nbrs: dict[int, set[int]] = {}
    out_nbrs: dict[int, set[int]] = {}
    for u, v in {(u, v) for u, v, _ in scan_edges(hist)}:
        out_nbrs.setdefault(u, set()).add(v)
        in_nbrs.setdefault(v, set()).add(u)
    reply = np.full(n, 0.3)
    for v in range(n):
        senders = in_nbrs.get(v, set())
        if senders:
            reply[v] = len(senders & out_nbrs.get(v, set())) / len(senders)
    return reply
