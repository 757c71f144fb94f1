"""Null-model generators.

Degree-preserving rewiring destroys temporal and higher-order structure of
an observed window while keeping, exactly, every node's in- and out-degree
(edge multiset double swaps) and the multiset of timestamps (random
permutation among edges). The result is the reference floor a simulator has
to beat.
"""

from __future__ import annotations

from dataclasses import dataclass

from .corpus import Event, EventLog, ORGANIC, window as log_window
from .rng import substream

DEFAULT_SWAPS_PER_EDGE = 10


@dataclass(frozen=True)
class RewireConfig:
    n_swaps: int | None = None  # default 10x edge count
    seed: int = 0

    def __post_init__(self):
        if self.n_swaps is not None and self.n_swaps < 0:
            raise ValueError("n_swaps must be >= 0")


def rewire_degree_preserving(log: EventLog, window: tuple[int, int],
                             cfg: RewireConfig) -> EventLog:
    """Rewire the window's directed edge multiset by repeated double swaps
    ((a->b), (c->d)) -> ((a->d), (c->b)), rejecting swaps that would create a
    self-loop, then randomly permute the original timestamps among the edges.

    Multi-recipient events are expanded to single-recipient edges first;
    multi-edges are allowed in the result. Deterministic per seed: the swap
    indices are drawn in batches, which for m < 2**32 take the same values
    from the seed's stream, and leave the generator in the same state, as one
    rng.integers(m) call per index.
    """
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
    events = [Event(k, tails[k], (heads[k],), times[perm[k]], ORGANIC)
              for k in range(m)]
    return log.with_events(events)


def _swap_heads(tails: list[int], heads: list[int], n_swaps: int, rng) -> None:
    """Attempt n_swaps double swaps in place, each on two edge indices drawn
    uniformly. The draws come in batches of 2 * m, so the extra memory stays
    O(m)."""
    m = len(heads)
    for start in range(0, n_swaps, m):
        draws = rng.integers(m, size=2 * min(m, n_swaps - start)).tolist()
        for i, j in zip(draws[::2], draws[1::2]):
            if i == j:
                continue
            if tails[i] == heads[j] or tails[j] == heads[i]:
                continue  # would create a self-loop
            heads[i], heads[j] = heads[j], heads[i]
