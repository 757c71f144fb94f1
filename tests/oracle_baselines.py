"""The Event-built rewired null that `baselines.rewire_degree_preserving`
replaced, which builds its log from columns, kept as its oracle. The body is
unchanged: one `Event` per edge, then the checked `with_events`."""

from commsim.baselines import DEFAULT_SWAPS_PER_EDGE, RewireConfig, _swap_heads
from commsim.corpus import Event, EventLog, window as log_window
from commsim.rng import substream


def rewire_degree_preserving(log: EventLog, window: tuple[int, int],
                             cfg: RewireConfig) -> EventLog:
    t0, t1 = window
    win = log_window(log, t0, t1)
    rows = win.edge_rows
    tails, heads = win.senders[rows].tolist(), win.edge_heads.tolist()
    times = win.ts[rows].tolist()
    m = len(heads)
    if not m:
        raise ValueError("window has no edges")

    rng = substream(cfg.seed, "rewire")
    n_swaps = cfg.n_swaps if cfg.n_swaps is not None else DEFAULT_SWAPS_PER_EDGE * m
    _swap_heads(tails, heads, n_swaps, rng)
    perm = rng.permutation(m)
    events = [Event(k, tails[k], (heads[k],), times[perm[k]]) for k in range(m)]
    return log.with_events(events)
