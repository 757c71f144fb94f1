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

The input rules live here: `kind_error` (and `check_kinds`) for each kind of
value, which every setting follows, and `RECORD_FIELDS` for each file field,
which the readers, `Event` and `agents.parse_decision` check by `field_error`.

`EventLog(...)`, `with_events`, `ingest` and `simulator.run`'s result check the
registry range, the (ts, event_id) order and id uniqueness of what a user or
an agent supplies. `_unchecked` makes a frozen record without its dataclass
`__init__` where the record's check holds by construction: an `EventLog` of
a subsequence of a checked log (`window`, `metrics.exclude_triggers`,
`simulator.select_triggers`' schedule) or of `build_log`'s sorted records
after its duplicate-id check, and two per-wake records,
`simulator.ContextIndex.context`'s `AgentContext`, whose unread check the
index runs itself, and `agents.stub_decide`'s `ActionDecision`, which has
no check. `tests/test_library_callers.py` lists these sites; no agent reply,
user policy or file goes through them.
"""

from __future__ import annotations

import csv
import functools
import io
import itertools
import json
from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from . import timeutil


class CorpusError(ValueError):
    """Malformed input data or an operation on an unsuitable log."""


_NULL = type(None)

# kind -> (the types of its values, its name); a bool is never an integer or a
# number. Converting would read 1.7 and true as 1, "no" as True and "bc" as b, c.
_KINDS = {int: (int, "an integer"), float: ((int, float), "a number"),
          bool: (bool, "a boolean"), str: (str, "a string"), list: (list, "a list of strings")}

# A file field -> the exact types of its JSON values (what the quick tests
# below accept), its kind first; one that may be null may be left out. A JSONL
# line is checked in this order, so its first bad field names its error.
RECORD_FIELDS = {"body": (str, _NULL), "sender": (str,), "recipients": (list,), "id": (int,),
                 "ts": (int,), "thread": (int, _NULL)}
_RECORD_TYPES = frozenset(itertools.product(*RECORD_FIELDS.values()))
_EVENT_TYPES = frozenset(itertools.product(RECORD_FIELDS["thread"], RECORD_FIELDS["body"]))
_LABEL_TYPES = frozenset((str,))


def kind_error(name: str, value, kind: type) -> str | None:
    """`{name} {value!r} is not <kind>` if `value` breaks the rule of `kind`, else None."""
    types, text = _KINDS[kind]
    if not (isinstance(value, types) and (kind is bool or not isinstance(value, bool))
            and (kind is not list or all(isinstance(r, str) for r in value))):
        return f"{name} {value!r} is not {text}"
    return None


def check_kinds(settings: dict, error: type, **kinds) -> None:
    """Raise `error` with the first `kind_error` of the named settings in `settings`."""
    for name, kind in kinds.items():
        if name in settings and (message := kind_error(name, settings[name], kind)):
            raise error(message)


def field_error(fields) -> str | None:
    """The first `kind_error` of `fields`, (name, value) pairs of record fields, or None."""
    for name, value in fields:
        kind, *nullable = RECORD_FIELDS[name]
        if not (nullable and value is None) and (error := kind_error(name, value, kind)):
            return error
    return None


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
        # the record rules, so every log serializes to a file `ingest` accepts
        if (type(self.thread_id), type(self.body)) not in _EVENT_TYPES and (
                error := field_error((("thread", self.thread_id), ("body", self.body)))):
            raise CorpusError(f"event {self.event_id}: {error}")


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


def _unchecked(cls, **fields):
    """An instance of the frozen dataclass `cls` holding `fields`, made
    without its `__init__` and `__post_init__`. `fields` name every field,
    and for an `EventLog` may preset a cached column (`ts`, `senders`) with
    the read-only array it would build. About 0.9 us against 2.7 us for
    `simulator.AgentContext(...)` (CPython 3.11, 2 shared vCPUs). The
    instance gets a dict of its own (368 against 168 bytes for an `Event`),
    so never for records a log keeps."""
    record = object.__new__(cls)
    record.__dict__.update(fields)
    return record


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
    return _unchecked(EventLog, agents=registry,
                      events=tuple(sorted(events, key=lambda e: (e.ts, e.event_id))))


# `json.loads` without its per-call argument checks, which take about a tenth
# of the reader's time on typical records
_decode = json.JSONDecoder().decode


def _parse_jsonl(text: str):
    """Records, one per non-blank line. A line that breaks the record rules
    names the first field, in `RECORD_FIELDS` order, that breaks its rule, or
    the first required one missing before it."""
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        try:
            if line.startswith("\ufeff"):  # json.loads' own first check, kept for its text
                raise json.JSONDecodeError("Unexpected UTF-8 BOM (decode using utf-8-sig)", line, 0)
            rec = _decode(line)
            if type(rec) is not dict:
                raise ValueError(f"record {rec!r} is not a JSON object")
            body, sender, recipients, event_id, ts, thread = (
                rec.get("body"), rec.get("sender"), rec.get("recipients"), rec.get("id"),
                rec.get("ts"), rec.get("thread"))
            if ((type(body), type(sender), type(recipients), type(event_id), type(ts),
                 type(thread)) not in _RECORD_TYPES
                    or not _LABEL_TYPES.issuperset(map(type, recipients))):
                raise ValueError(field_error((name, rec.get(name) if _NULL in types else rec[name])
                                             for name, types in RECORD_FIELDS.items()))
        # the decoder recurses once per nesting level: a line of 200,000 "["
        # raises RecursionError
        except (KeyError, TypeError, ValueError, RecursionError) as exc:
            raise CorpusError(f"line {lineno}: {exc}") from exc
        yield event_id, sender, recipients, ts, thread, body


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
            missing = [key for key, types in RECORD_FIELDS.items()
                       if _NULL not in types and key not in rec]
            if missing:
                raise ValueError(f"missing {', '.join(missing)}")
            # integers as `timeutil.DECIMAL_INT` reads them; other text is left to the rules
            event_id, ts, thread = (int(t) if t and timeutil.DECIMAL_INT.fullmatch(t) else t
                                    for t in (rec["id"], rec["ts"], rec.get("thread") or None))
            if error := field_error((("id", event_id), ("ts", ts), ("thread", thread))):
                raise ValueError(error)
            yield (event_id, rec["sender"], [r for r in rec["recipients"].split(";") if r], ts,
                   thread, rec.get("body") or None)
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
    built = {"senders": log.__dict__["senders"][span]} if "senders" in log.__dict__ else {}
    return _unchecked(EventLog, agents=log.agents, events=log.events[span], ts=log.ts[span],
                      **built)


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
