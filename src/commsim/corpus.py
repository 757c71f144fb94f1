"""Timestamped communication event logs: ingestion, windowing, activity statistics.

An event log is an immutable, time-sorted stream of directed multi-recipient
messages over a fixed agent registry. Agents are referenced by integer index;
the registry maps indices to opaque labels (e.g. mailbox addresses) sorted
lexicographically, so ingestion of the same data always yields the same
indexing regardless of record order. An `Event` is one file record and no
more (id, sender, recipients, ts, thread, body), so a saved log, ingested and
re-indexed onto its registry, equals the log that was saved.

A log caches read-only int64 columns, built on first read: `ts`, `senders`
and its edge stream, `edge_rows` (event index) with `edge_heads` (recipient).
The edge rule is decided here only: one edge per recipient other than the
sender, in log order. Every time window is half-open, t0 <= ts < t1, and is
found by one bisect per bound on the sorted `ts` (`EventLog.span`); a reader
of ts <= t asks for the span up to t + 1. A `window` starts with the slice of
its parent's `ts`, and of `senders` where built. `sent_times` splits the
columns per sender.

`EventLog(...)`, `with_events`, `ingest` and `simulator.run`'s result check the
registry range, the (ts, event_id) order and id uniqueness of what a user or
an agent supplies. `EventLog._unchecked` skips the check where all three hold
by construction: a subsequence of a checked log (`window`, `metrics.
exclude_triggers`, `simulator.select_triggers`' schedule) and `build_log`'s
sorted records after its duplicate-id check.
"""

from __future__ import annotations

import csv
import functools
import io
import json
import re
from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from . import timeutil


class CorpusError(ValueError):
    """Malformed input data or an operation on an unsuitable log."""


@dataclass(frozen=True)
class Event:
    event_id: int
    sender: int
    recipients: tuple[int, ...]
    ts: int
    thread_id: int | None = None
    body: str | None = None

    def __post_init__(self):
        if not self.recipients:
            raise CorpusError(f"event {self.event_id}: empty recipient list")
        # the JSONL rules, so every log serializes to a file `ingest` accepts
        thread = self.thread_id
        if thread is not None and (not isinstance(thread, int) or isinstance(thread, bool)):
            raise CorpusError(f"event {self.event_id}: thread {thread!r} is not an integer")
        if self.body is not None and not isinstance(self.body, str):
            raise CorpusError(f"event {self.event_id}: body {self.body!r} is not a string")


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

    @classmethod
    def _unchecked(cls, agents: tuple[str, ...], events: tuple[Event, ...],
                   ts: np.ndarray | None = None,
                   senders: np.ndarray | None = None) -> "EventLog":
        """An EventLog without `__post_init__`'s check, for events already
        sorted by (ts, event_id) with unique ids inside the registry. A given
        `ts` or `senders` presets that cached column with the read-only array
        it would build from `events`."""
        log = object.__new__(cls)
        object.__setattr__(log, "agents", agents)
        object.__setattr__(log, "events", events)
        for name, column in (("ts", ts), ("senders", senders)):
            if column is not None:
                log.__dict__[name] = column
        return log

    def with_events(self, events: Iterable[Event]) -> "EventLog":
        """Same registry, new (re-sorted) event list."""
        return EventLog(self.agents, tuple(sorted(events, key=lambda e: (e.ts, e.event_id))))

    @functools.cached_property
    def ts(self) -> np.ndarray:
        """Event timestamps in log order (int64, read-only)."""
        return _column([e.ts for e in self.events])

    @functools.cached_property
    def senders(self) -> np.ndarray:
        """Event senders in log order (int64, read-only)."""
        return _column([e.sender for e in self.events])

    @functools.cached_property
    def edge_rows(self) -> np.ndarray:
        """The event index of each edge (int64, read-only); the edge's sender
        is `senders[edge_rows]` and its time `ts[edge_rows]`."""
        return _column([k for k, e in enumerate(self.events) for r in e.recipients
                        if r != e.sender])

    @functools.cached_property
    def edge_heads(self) -> np.ndarray:
        """The recipient of each edge (int64, read-only)."""
        return _column([r for e in self.events for r in e.recipients if r != e.sender])

    def span(self, t0: int | None = None, t1: int | None = None) -> slice:
        """The slice of `events` with t0 <= ts < t1, one bisect per bound on
        `ts`; an omitted bound is open."""
        lo = 0 if t0 is None else int(np.searchsorted(self.ts, t0))
        hi = len(self.events) if t1 is None else int(np.searchsorted(self.ts, t1))
        return slice(lo, hi)

    def edges(self) -> list[tuple[int, int, int]]:
        """The edge stream as (sender, recipient, ts) tuples, in log order."""
        rows = self.edge_rows
        return list(zip(self.senders[rows].tolist(), self.edge_heads.tolist(),
                        self.ts[rows].tolist()))


def _column(values: list[int]) -> np.ndarray:
    col = np.array(values, dtype=np.int64)
    col.setflags(write=False)
    return col


def build_log(labels_by_event: Sequence[tuple[int, str, Sequence[str], int, int | None, str | None]]) -> EventLog:
    """Assemble an EventLog from label-based records
    (event_id, sender, recipients, ts, thread, body); ids must be unique."""
    ids = [r[0] for r in labels_by_event]
    if len(ids) != len(set(ids)):
        dupes = sorted(i for i, n in Counter(ids).items() if n > 1)
        raise CorpusError(f"duplicate event ids: {dupes[:5]}")
    labels = set()
    for _, sender, recipients, _, _, _ in labels_by_event:
        labels.add(sender)
        labels.update(recipients)
    registry = tuple(sorted(labels))
    index = {lbl: i for i, lbl in enumerate(registry)}
    events = (Event(event_id, index[sender], tuple(index[r] for r in recipients), ts, thread, body)
              for event_id, sender, recipients, ts, thread, body in labels_by_event)
    # unique ids, sorted, indexed into their own registry: the full check holds
    return EventLog._unchecked(registry, tuple(sorted(events, key=lambda e: (e.ts, e.event_id))))


def _json_int(rec: dict, key: str) -> int:
    value = rec[key]
    # int() would silently truncate 1.7 and accept true as 1
    if not isinstance(value, int) or isinstance(value, bool):
        raise ValueError(f"{key} {value!r} is not an integer")
    return value


def _parse_jsonl(text: str):
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        try:
            rec = json.loads(line)
            thread, body = rec.get("thread"), rec.get("body")
            if body is not None and not isinstance(body, str):
                raise ValueError(f"body {body!r} is not a string")
            sender, recipients = rec["sender"], rec["recipients"]
            # str() would read the label "5" from 5 and the recipients b, c from "bc"
            if not isinstance(sender, str):
                raise ValueError(f"sender {sender!r} is not a string")
            if not (isinstance(recipients, list) and all(isinstance(r, str) for r in recipients)):
                raise ValueError(f"recipients {recipients!r} is not a list of strings")
            yield (_json_int(rec, "id"), sender, recipients, _json_int(rec, "ts"),
                   None if thread is None else _json_int(rec, "thread"), body)
        except (KeyError, TypeError, ValueError, json.JSONDecodeError) as exc:
            raise CorpusError(f"line {lineno}: {exc}") from exc


def _csv_int(rec: dict, key: str) -> int:
    value = rec[key]
    # int() would also read "983_782_800", "+3", " 3" and non-ASCII digits
    if not re.fullmatch(r"-?[0-9]+", value):
        raise ValueError(f"{key} {value!r} is not an integer")
    return int(value)


_CSV_REQUIRED = ("id", "sender", "recipients", "ts")


def _parse_csv(text: str):
    """Rows as records; a bad row, or a field over the `csv` module's limit
    (131,072 characters), raises `CorpusError` naming its line."""
    rows = csv.reader(io.StringIO(text))
    try:
        header = next(rows, [])
        for row in rows:
            if not row:
                continue
            if len(row) > len(header):
                raise ValueError(f"{len(row)} fields, the header has {len(header)}")
            # a short row leaves out its trailing columns, which may only be optional
            rec = dict(zip(header, row))
            missing = [key for key in _CSV_REQUIRED if key not in rec]
            if missing:
                raise ValueError(f"missing {', '.join(missing)}")
            thread = rec.get("thread") or None
            body = rec.get("body") or None
            yield (_csv_int(rec, "id"), rec["sender"],
                   [r for r in rec["recipients"].split(";") if r], _csv_int(rec, "ts"),
                   _csv_int(rec, "thread") if thread is not None else None, body)
    except (ValueError, csv.Error) as exc:
        raise CorpusError(f"line {rows.line_num}: {exc}") from exc


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
    """Events with t0 <= ts < t1; registry unchanged. The window starts with
    the slice of its parent's `ts` (built by `span`), and of `senders` where
    the parent has built it."""
    if t0 > t1:
        raise CorpusError(f"window start {t0} after end {t1}")
    span = log.span(t0, t1)
    senders = log.__dict__.get("senders")
    return EventLog._unchecked(log.agents, log.events[span], ts=log.ts[span],
                               senders=None if senders is None else senders[span])


def sent_times(log: EventLog) -> dict[int, np.ndarray]:
    """{sender: its send times, ascending int64} for every agent that sent,
    in ascending agent order. Reads only `ts` and `senders`, as a
    `metrics.LogView` has them too."""
    order = np.argsort(log.senders, kind="stable")
    agents, starts = np.unique(log.senders[order], return_index=True)
    return dict(zip(agents.tolist(), np.split(log.ts[order], starts[1:])))


def simple_digraph_edges(log: EventLog) -> tuple[np.ndarray, np.ndarray]:
    """The edge stream's distinct (sender, recipient) pairs, sorted, as int64 columns."""
    n = log.n_agents
    # stable, as in `sent_times`: np.unique's default sort pages in ~1 MiB more numpy code
    pairs = np.sort(log.senders[log.edge_rows] * n + log.edge_heads, kind="stable")
    pairs = pairs[np.diff(pairs, prepend=-1) != 0]
    return pairs // n, pairs % n


def contact_frequencies(log: EventLog) -> np.ndarray:
    """Row-normalized (D, D) recipient frequency table over the edge stream;
    rows of agents who never sent are all-zero."""
    n = log.n_agents
    pair = log.senders[log.edge_rows] * n + log.edge_heads
    table = np.bincount(pair, minlength=n * n).reshape(n, n).astype(float)
    sums = table.sum(axis=1, keepdims=True)
    np.divide(table, sums, out=table, where=sums > 0)
    return table


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
    out = {}
    for agent, times in sent_times(log).items():
        if len(times) < min_events:
            continue
        gaps = np.diff(times).astype(float)
        mu = gaps.mean()
        sigma = gaps.std()  # ddof=0 over the m-1 gaps
        if sigma + mu == 0:
            continue
        out[agent] = (sigma - mu) / (sigma + mu)
    return out
