import json
import types
from pathlib import Path

import numpy as np
import pytest

from commsim.corpus import Event, EventLog, ingest
from commsim.metrics import SUITE, log_view

DATA_DIR = Path(__file__).parent / "data"

MINI = DATA_DIR / "mini_corpus.jsonl"


@pytest.fixture(scope="session")
def mini_manifest():
    with open(DATA_DIR / "mini_corpus_manifest.json") as fh:
        return json.load(fh)


@pytest.fixture(scope="session")
def mini_log():
    return ingest(MINI)


def make_log(records, n_agents=None):
    """EventLog from (sender, recipient_or_recipients, ts) tuples;
    integer agents labeled a00..; ids follow record order."""
    events = []
    max_agent = 0
    for k, rec in enumerate(records):
        sender, recipients, ts = rec
        if isinstance(recipients, int):
            recipients = (recipients,)
        recipients = tuple(recipients)
        max_agent = max(max_agent, sender, *recipients)
        events.append(Event(k, sender, recipients, int(ts)))
    n = n_agents if n_agents is not None else max_agent + 1
    labels = tuple(f"a{i:02d}" for i in range(n))
    return EventLog(labels, tuple(sorted(events, key=lambda e: (e.ts, e.event_id))))


def random_log(rng, n_agents, n_events, t0, span, multi_prob=0.0):
    """Random log for oracle comparisons; timestamps uniform over the span."""
    records = []
    ts = np.sort(rng.integers(t0, t0 + span, size=n_events))
    for k in range(n_events):
        sender = int(rng.integers(n_agents))
        n_rcpt = 2 if (multi_prob and rng.random() < multi_prob) else 1
        others = [a for a in range(n_agents) if a != sender]
        rcpts = tuple(int(x) for x in rng.choice(others, size=min(n_rcpt, len(others)),
                                                 replace=False))
        records.append((sender, rcpts, int(ts[k])))
    return make_log(records, n_agents=n_agents)


BASE_MONDAY = 983750400  # 2001-03-05 00:00:00 UTC


def view(log, window=None):
    """`metrics.log_view` of `log`; the default window spans all its events."""
    if window is None:
        window = (log.events[0].ts, log.events[-1].ts + 1) if len(log) else (0, 0)
    return log_view(log, window)


def run_metric(name, sim_view, gt_view):
    """The `metrics.SUITE` row `name` on two views: its comparison of the
    two views' parts."""
    part, comparison = SUITE[name]
    return comparison(part(sim_view), part(gt_view))


class ZeroDraws:
    """rng stub whose every draw is 0: the thinning sampler's first
    candidate lands on t_now itself and is accepted. It keeps no state, so
    the one-agent sampler's block restores a placeholder."""

    def __init__(self):
        self.bit_generator = types.SimpleNamespace(state=None)

    def exponential(self, scale=1.0):
        return 0.0

    def standard_exponential(self, size):
        return np.zeros(size)

    def random(self):
        return 0.0


def fixture_log(seed, n_agents=12, days=10, events_per_day=40):
    """A dense, circadian, well-conditioned log: every metric computable
    (every agent sends >= 3 times, every day active, span covers weekends)."""
    rng = np.random.default_rng(seed)
    hours = np.arange(24)
    hour_p = np.exp(-0.5 * ((hours - 13) / 4.0) ** 2)
    hour_p /= hour_p.sum()
    records = []
    for d in range(days):
        for _ in range(events_per_day + int(rng.integers(-5, 6))):
            s = int(rng.integers(n_agents))
            r = int((s + 1 + rng.integers(n_agents - 1)) % n_agents)
            h = int(rng.choice(24, p=hour_p))
            ts = BASE_MONDAY + d * 86400 + h * 3600 + int(rng.integers(3600))
            records.append((s, (r,), ts))
    for a in range(n_agents):  # guarantee burstiness eligibility
        for j, d in enumerate((0, days // 2, days - 1)):
            r = (a + 1 + j) % n_agents
            ts = BASE_MONDAY + d * 86400 + 9 * 3600 + a * 60 + j
            records.append((a, (r,), ts))
    return make_log(records, n_agents=n_agents)
