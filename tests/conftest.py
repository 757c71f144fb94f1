import copy
import json
import pickle
from pathlib import Path

import numpy as np
import pytest

from commsim.corpus import Event, EventLog, ingest, serialize, window as log_window
from commsim.metrics import SUITE, compare, log_view, summarize

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


class ZeroDraws(np.random.Generator):
    """Generator whose draws that the samplers make are all 0: the thinning
    sampler's first candidate lands on t_now itself and is accepted. None
    of them advances its bit generator, so the one-agent sampler's block
    saves and restores an unchanged state."""

    def __init__(self):
        super().__init__(np.random.PCG64(0))

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


def assert_same_log(got: EventLog, want: EventLog, window: tuple[int, int]):
    """A log built from columns (`got`) against the Event-built log it
    replaces (`want`). First, before any Event of `got` is built: every int
    column, ids included, of both logs and of their windows [window) and
    [t1, t1), and a pickle and a deep copy of `got` holding a cached
    summary. Then `==`, `hash` and the `serialize` bytes of each pair."""
    t0, t1 = window
    pairs = [(got, want), (log_window(got, t0, t1), log_window(want, t0, t1)),
             (log_window(got, t1, t1), log_window(want, t1, t1))]
    summary = summarize(got, (), window)
    for clone in (pickle.loads(pickle.dumps(got)), copy.deepcopy(got)):
        again = summarize(clone, (), window)  # the clone keeps a copy of the summary
        assert again is not summary
        assert compare(again, summary).to_json() == compare(summary, summary).to_json()
        pairs.append((clone, want))
    for a, b in pairs:
        assert "events" not in vars(a)
        assert a.agents == b.agents and len(a) == len(b)
        for name in ("ids", "ts", "senders", "edge_rows", "edge_heads"):
            x, y = getattr(a, name), getattr(b, name)
            assert x.dtype == y.dtype == np.int64 and np.array_equal(x, y), name
    for a, b in pairs:
        assert a == b and hash(a) == hash(b)
        assert serialize(a) == serialize(b)
