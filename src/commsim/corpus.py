"""Timestamped communication event logs: ingestion, windowing, summary stats.

An event log is an immutable, time-sorted stream of directed multi-recipient
messages over a fixed agent registry. Agents are referenced by integer index;
the registry maps indices to opaque labels (e.g. mailbox addresses) sorted
lexicographically, so ingestion of the same data always yields the same
indexing regardless of record order.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from . import timeutil

ORGANIC = "organic"
TRIGGER = "trigger"


class CorpusError(ValueError):
    """Malformed input data or an operation on an unsuitable log."""


@dataclass(frozen=True)
class Event:
    event_id: int
    sender: int
    recipients: tuple[int, ...]
    ts: int
    kind: str = ORGANIC
    thread_id: int | None = None
    body: str | None = None

    def __post_init__(self):
        if not self.recipients:
            raise CorpusError(f"event {self.event_id}: empty recipient list")
        if self.kind not in (ORGANIC, TRIGGER):
            raise CorpusError(f"event {self.event_id}: bad kind {self.kind!r}")


@dataclass(frozen=True)
class EventLog:
    """Registry + events sorted by (ts, event_id). Immutable; safe to share."""

    agents: tuple[str, ...]
    events: tuple[Event, ...]

    def __post_init__(self):
        n = len(self.agents)
        last = None
        seen_ids = set()
        for e in self.events:
            if not (0 <= e.sender < n) or any(not (0 <= r < n) for r in e.recipients):
                raise CorpusError(f"event {e.event_id}: agent index outside registry")
            key = (e.ts, e.event_id)
            if last is not None and key <= last:
                raise CorpusError("events not sorted by (ts, event_id)")
            last = key
            if e.event_id in seen_ids:
                raise CorpusError(f"duplicate event_id {e.event_id}")
            seen_ids.add(e.event_id)

    def __len__(self):
        return len(self.events)

    @property
    def n_agents(self) -> int:
        return len(self.agents)

    def index_of(self, label: str) -> int:
        try:
            return self.agents.index(label)
        except ValueError:
            raise CorpusError(f"unknown agent label {label!r}") from None

    def with_events(self, events: Iterable[Event]) -> "EventLog":
        """Same registry, new (re-sorted) event list."""
        return EventLog(self.agents, tuple(sorted(events, key=lambda e: (e.ts, e.event_id))))

    def timestamps(self) -> np.ndarray:
        return np.array([e.ts for e in self.events], dtype=np.int64)

    def edges(self) -> list[tuple[int, int, int]]:
        """Expand to a (sender, recipient, ts) directed edge stream, one edge
        per recipient other than the sender, in log order."""
        return [(e.sender, r, e.ts) for e in self.events for r in e.recipients
                if r != e.sender]


def _sorted_events(events: Iterable[Event]) -> tuple[Event, ...]:
    return tuple(sorted(events, key=lambda e: (e.ts, e.event_id)))


def build_log(labels_by_event: Sequence[tuple[int, str, Sequence[str], int, int | None, str | None]]) -> EventLog:
    """Assemble an EventLog from label-based records
    (event_id, sender, recipients, ts, thread, body)."""
    labels = set()
    for _, sender, recipients, _, _, _ in labels_by_event:
        labels.add(sender)
        labels.update(recipients)
    registry = tuple(sorted(labels))
    index = {lbl: i for i, lbl in enumerate(registry)}
    events = []
    for event_id, sender, recipients, ts, thread, body in labels_by_event:
        events.append(Event(
            event_id=event_id,
            sender=index[sender],
            recipients=tuple(index[r] for r in recipients),
            ts=ts,
            thread_id=thread,
            body=body,
        ))
    return EventLog(registry, _sorted_events(events))


def _parse_jsonl(text: str):
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        try:
            rec = json.loads(line)
            ts = rec["ts"]
            # int() would silently truncate 1.7 and accept true as 1
            if not isinstance(ts, int) or isinstance(ts, bool):
                raise ValueError(f"ts {ts!r} is not an integer")
            yield (int(rec["id"]), str(rec["sender"]),
                   [str(r) for r in rec["recipients"]], ts,
                   rec.get("thread"), rec.get("body"))
        except (KeyError, TypeError, ValueError, json.JSONDecodeError) as exc:
            raise CorpusError(f"line {lineno}: {exc}") from exc


def _parse_csv(text: str):
    reader = csv.DictReader(io.StringIO(text))
    for lineno, rec in enumerate(reader, start=2):
        try:
            thread = rec.get("thread") or None
            body = rec.get("body") or None
            yield (int(rec["id"]), rec["sender"],
                   [r for r in rec["recipients"].split(";") if r], int(rec["ts"]),
                   int(thread) if thread is not None else None, body)
        except (KeyError, TypeError, ValueError) as exc:
            raise CorpusError(f"line {lineno}: {exc}") from exc


def ingest(path, format: str = "jsonl") -> EventLog:
    """Load an event log from a JSONL or CSV file.

    Records may arrive in any order; the result is sorted by (ts, id) with a
    lexicographically ordered registry, so equal data yields equal logs.
    """
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    if format == "jsonl":
        records = list(_parse_jsonl(text))
    elif format == "csv":
        records = list(_parse_csv(text))
    else:
        raise CorpusError(f"unknown format {format!r}")
    ids = [r[0] for r in records]
    if len(ids) != len(set(ids)):
        dupes = sorted({i for i in ids if ids.count(i) > 1})
        raise CorpusError(f"duplicate event ids: {dupes[:5]}")
    return build_log(records)


def serialize(log: EventLog) -> str:
    """Canonical JSONL: one event per line, sorted by (ts, id), fixed key
    order. Byte-identical for equal logs."""
    lines = []
    for e in log.events:
        rec = {
            "id": e.event_id,
            "sender": log.agents[e.sender],
            "recipients": [log.agents[r] for r in e.recipients],
            "ts": e.ts,
            "thread": e.thread_id,
            "body": e.body,
        }
        lines.append(json.dumps(rec, separators=(",", ":"), ensure_ascii=False))
    return "\n".join(lines) + ("\n" if lines else "")


def save(log: EventLog, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(serialize(log))


def window(log: EventLog, t0: int, t1: int) -> EventLog:
    """Events with t0 <= ts < t1; registry unchanged."""
    if t0 > t1:
        raise CorpusError(f"window start {t0} after end {t1}")
    return EventLog(log.agents, tuple(e for e in log.events if t0 <= e.ts < t1))


def simple_digraph_edges(log: EventLog) -> set[tuple[int, int]]:
    """Distinct directed (sender, recipient) pairs, self-loops excluded."""
    return {(u, v) for u, v, _ in log.edges()}


def contact_frequencies(log: EventLog) -> np.ndarray:
    """Row-normalized (D, D) recipient frequency table; rows of agents who
    never sent are all-zero. Self-loops excluded."""
    n = log.n_agents
    table = np.zeros((n, n))
    for u, v, _ in log.edges():
        table[u, v] += 1.0
    sums = table.sum(axis=1, keepdims=True)
    np.divide(table, sums, out=table, where=sums > 0)
    return table


@dataclass(frozen=True)
class StatsSummary:
    n_agents: int
    time_span: tuple[int, int]
    total_events: int
    median_events_per_agent: float
    median_events_per_week: float
    r24: float
    weekend_ratio: float
    burstiness_median: float
    density: float
    transitivity: float
    global_efficiency: float
    reciprocity: float

    def to_dict(self) -> dict:
        d = dict(self.__dict__)
        d["time_span"] = list(self.time_span)
        return d


def hourly_counts(ts: np.ndarray, t0: int, t1: int) -> np.ndarray:
    """Event counts per UTC hour bucket over [t0, t1)."""
    h0 = timeutil.hour_index(t0)
    h1 = timeutil.hour_index(t1 - 1) + 1
    counts = np.zeros(h1 - h0, dtype=np.int64)
    if len(ts):
        hours = timeutil.hour_index(ts)
        keep = (hours >= h0) & (hours < h1)
        np.add.at(counts, hours[keep] - h0, 1)
    return counts


def lag24_weekday_autocorr(ts: np.ndarray, t0: int, t1: int) -> tuple[float, bool]:
    """Pearson autocorrelation at lag 24 of the hourly activity series,
    keeping only pairs where both hours fall on weekdays.

    Returns (rho, degenerate); a constant series yields rho=0, flagged.
    """
    counts = hourly_counts(ts, t0, t1)
    h0 = timeutil.hour_index(t0)
    hours = np.arange(h0, h0 + len(counts))
    wk = ~timeutil.is_weekend(hours * timeutil.SECONDS_PER_HOUR)
    n = len(counts) - 24
    if n <= 1:
        return 0.0, True
    valid = wk[:n] & wk[24:24 + n]
    x = counts[:n][valid].astype(float)
    y = counts[24:24 + n][valid].astype(float)
    if len(x) < 2 or x.std() == 0 or y.std() == 0:
        return 0.0, True
    return float(np.corrcoef(x, y)[0, 1]), False


def node_burstiness(log: EventLog, min_events: int = 3) -> dict[int, float]:
    """Per-agent burstiness of inter-send gaps: (sigma - mu) / (sigma + mu),
    both moments over the m-1 gaps with divisor m-1. Agents with fewer than
    `min_events` sends are skipped (fewer than 2 gaps)."""
    sent: dict[int, list[int]] = {}
    for e in log.events:
        sent.setdefault(e.sender, []).append(e.ts)
    out = {}
    for agent, times in sent.items():
        if len(times) < min_events:
            continue
        gaps = np.diff(np.sort(np.array(times, dtype=np.int64))).astype(float)
        mu = gaps.mean()
        sigma = gaps.std()  # ddof=0 over the m-1 gaps
        if sigma + mu == 0:
            continue
        out[agent] = (sigma - mu) / (sigma + mu)
    return out


def _aggregate_graph_stats(log: EventLog) -> tuple[float, float, float, float]:
    """(density, transitivity, global_efficiency, reciprocity) of the
    aggregated graph; directed simple graph for density/reciprocity,
    undirected simple collapse for transitivity/efficiency."""
    from . import metrics  # metrics imports this module

    edges = simple_digraph_edges(log)
    n = log.n_agents
    density = len(edges) / (n * (n - 1)) if n > 1 else 0.0
    return (density, metrics._transitivity(edges, n), metrics._global_efficiency(edges, n),
            metrics._reciprocity(edges))


def corpus_stats(log: EventLog) -> StatsSummary:
    """Corpus-level temporal and structural summary."""
    if not log.events:
        raise CorpusError("empty log")
    ts = log.timestamps()
    t0, t1 = int(ts.min()), int(ts.max()) + 1

    sent_counts = np.zeros(log.n_agents, dtype=np.int64)
    for e in log.events:
        sent_counts[e.sender] += 1

    w0, w1 = timeutil.week_index(t0), timeutil.week_index(t1 - 1)
    week_counts = np.zeros(w1 - w0 + 1, dtype=np.int64)
    np.add.at(week_counts, timeutil.week_index(ts) - w0, 1)

    r24, _ = lag24_weekday_autocorr(ts, t0, t1)
    weekend_ratio = float(np.mean(timeutil.is_weekend(ts)))
    burst = node_burstiness(log)
    burst_median = float(np.median(list(burst.values()))) if burst else 0.0
    density, trans, eff, recip = _aggregate_graph_stats(log)

    return StatsSummary(
        n_agents=log.n_agents,
        time_span=(t0, t1),
        total_events=len(log.events),
        median_events_per_agent=float(np.median(sent_counts)),
        median_events_per_week=float(np.median(week_counts)),
        r24=r24,
        weekend_ratio=weekend_ratio,
        burstiness_median=burst_median,
        density=density,
        transitivity=trans,
        global_efficiency=eff,
        reciprocity=recip,
    )
