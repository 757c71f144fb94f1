"""Timestamped communication event logs: ingestion, windowing, activity statistics.

An event log is an immutable, time-sorted stream of directed multi-recipient
messages over a fixed agent registry. Agents are referenced by integer index;
the registry maps indices to opaque labels (e.g. mailbox addresses) sorted
lexicographically, so ingestion of the same data always yields the same
indexing regardless of record order. An `Event` is one file record and no
more (id, sender, recipients, ts, thread, body), so a saved log, ingested and
re-indexed onto its registry, equals the log that was saved.

Every log holds its events as columns, whichever door made it: the
read-only int64 `ids`, `ts`, `senders` and the recipient CSR (`_offsets`
into one flat `_recipients`), with the `_threads` and `_bodies` lists. `events`
is a view built from them on first read. `EventLog(agents, events)` and
`with_events` derive the columns from the `Event`s they are given and keep
those as the view. `_from_columns` builds a log from columns: `build_log` (so
`ingest`), `baselines.rewire_degree_preserving`, `hawkes.simulate_pure_hawkes`,
`metrics.exclude_triggers` and the CLI's registry alignment build through it.
`_rows` makes the log of some rows of a log (a `window`,
`simulator.select_triggers`' schedule) from the rows of its parent's columns,
and of its Events where built. `==`, `hash` and `serialize` read the columns,
so no library reader builds Events to compare, save or renumber a log.
The edge stream, `edge_rows` (event index) with `edge_heads` (recipient), is
derived from the CSR on first read. The edge rule is decided here only: one
edge per recipient other than the sender, in log order. Every time window is
half-open, t0 <= ts < t1, and is found by one bisect per bound on the sorted
`ts` (`EventLog.span`); a reader of ts <= t asks for the span up to t + 1.
`sent_times` splits the columns per sender.

The input rules live here: `kind_error` (and `check_kinds`) for each kind of
value, which every setting follows, and `RECORD_FIELDS` for each file field,
which the readers, `Event` and `agents.parse_decision` check by `field_error`.

`EventLog(...)`, `with_events` and so `simulator.run`'s result check the
registry range, the (ts, event_id) order and id uniqueness of what a user or
an agent supplies, in one numpy pass over the columns they derive. The
events are walked, for the message naming the first breach, only when that
pass finds one or a value is not an integer in int64's range; such a value is
then refused as `build_log` refuses it (`_int64`). `_from_columns` checks
unique int64 ids and times and each row's `Event` rules, sorts with one
`np.lexsort`, then checks the registry range.
`_unchecked` makes a frozen record without its `__init__` where the record's
check holds by construction: the log `_from_columns` has just checked, an
`EventLog` of ascending rows of a checked log (`_rows`), and two per-wake
records, `simulator.ContextIndex.context`'s `AgentContext`, whose unread
check the index runs itself, and `agents.stub_decide`'s `ActionDecision`,
which has no check. `tests/test_library_callers.py` lists these sites and
those of `_rows`; no agent reply, user policy or file goes through them.
"""

from __future__ import annotations

import csv
import functools
import io
import itertools
import json
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
# an EventLog's int64 columns -> the name `_int64` gives a value of each
_COLUMNS = {"ids": "id", "ts": "ts", "senders": "sender", "_offsets": "offset",
            "_recipients": "recipient"}


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


@dataclass(frozen=True, init=False)
class EventLog:
    """Registry + events sorted by (ts, event_id). Immutable; safe to share.

    Every log holds its events as columns, in log order: the read-only
    int64 `ids`, `ts` and `senders`, the recipient CSR (event k's recipients
    are `_recipients[_offsets[k]:_offsets[k + 1]]`) and the `_threads` and
    `_bodies` lists. `events` is built from them on first read;
    `EventLog(agents, events)` and `with_events` keep the Events they were
    given as it. `==` and `hash` read the columns and lists."""

    agents: tuple[str, ...]

    def __init__(self, agents: tuple[str, ...], events: tuple[Event, ...]):
        try:
            columns = {name: _int64(values, _COLUMNS[name])
                       for name, values in _event_lists(events).items()}
        except CorpusError:  # the walk names an order or range breach first
            _walk_check(agents, events)
            raise
        # the events are walked only for a breach
        if _breach(len(agents), columns):
            _walk_check(agents, events)
        self.__dict__.update(agents=agents, events=events, **columns,
                             _threads=[e.thread_id for e in events],
                             _bodies=[e.body for e in events])

    def __eq__(self, other):
        return self._key() == other._key() if type(other) is EventLog else NotImplemented

    def __hash__(self):
        return hash(self._key())

    def _key(self) -> tuple:
        """What `==` and `hash` read: the registry, the int columns' bytes and
        the threads and bodies."""
        return (self.agents, *(getattr(self, name).tobytes() for name in _COLUMNS),
                tuple(self._threads), tuple(self._bodies))

    @functools.cached_property
    def events(self) -> tuple[Event, ...]:
        """The log's Events, built from the columns on first read."""
        offsets, flat = self._offsets.tolist(), self._recipients.tolist()
        return tuple(map(Event, self.ids.tolist(), self.senders.tolist(),
                         [tuple(flat[a:b]) for a, b in zip(offsets, offsets[1:])],
                         self.ts.tolist(), self._threads, self._bodies))

    def __len__(self):
        return len(self.ts)

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
    def edge_rows(self) -> np.ndarray:
        """The event index of each edge (int64, read-only); the edge's sender
        is `senders[edge_rows]` and its time `ts[edge_rows]`."""
        return self._edge_stream[0]

    @functools.cached_property
    def edge_heads(self) -> np.ndarray:
        """The recipient of each edge (int64, read-only)."""
        return self._edge_stream[1]

    @functools.cached_property
    def _edge_stream(self) -> tuple[np.ndarray, np.ndarray]:
        """(edge_rows, edge_heads), from the recipient CSR."""
        rows = np.repeat(np.arange(len(self), dtype=np.int64), np.diff(self._offsets))
        keep = self._recipients != self.senders[rows]
        return _frozen(rows[keep]), _frozen(self._recipients[keep])

    def span(self, t0: int | None = None, t1: int | None = None) -> slice:
        """The slice of `events` with t0 <= ts < t1, one bisect per bound on
        `ts`; an omitted bound is open."""
        lo = 0 if t0 is None else int(np.searchsorted(self.ts, t0))
        hi = len(self) if t1 is None else int(np.searchsorted(self.ts, t1))
        return slice(lo, hi)

    def edges(self) -> list[tuple[int, int, int]]:
        """The edge stream as (sender, recipient, ts) tuples, in log order."""
        rows = self.edge_rows
        return list(zip(self.senders[rows].tolist(), self.edge_heads.tolist(),
                        self.ts[rows].tolist()))


def _walk_check(agents: tuple[str, ...], events: tuple[Event, ...]) -> None:
    """The checked constructor's three rules, one event at a time: raises
    for the first event that breaks one."""
    n = len(agents)
    last = None
    seen_ids = set()
    for e in events:
        if not (0 <= e.sender < n) or any(not (0 <= r < n) for r in e.recipients):
            raise CorpusError(f"event {e.event_id}: agent index outside registry")
        key = (e.ts, e.event_id)
        if last is not None and key <= last:
            raise CorpusError("events not sorted by (ts, event_id)")
        last = key
        if e.event_id in seen_ids:
            raise CorpusError(f"duplicate event_id {e.event_id}")
        seen_ids.add(e.event_id)


def _breach(n_agents: int, columns: dict[str, np.ndarray]) -> bool:
    """Whether int64 columns break a rule of `_walk_check`: the registry
    range, the strict (ts, id) order or unique ids."""
    ids, ts = columns["ids"], columns["ts"]
    agents = np.concatenate((columns["senders"], columns["_recipients"]))
    if len(agents) and (agents.min() < 0 or agents.max() >= n_agents):
        return True
    later = (ts[1:] > ts[:-1]) | ((ts[1:] == ts[:-1]) & (ids[1:] > ids[:-1]))
    ordered = np.sort(ids)
    return not later.all() or bool((ordered[1:] == ordered[:-1]).any())


def _event_lists(events: Sequence[Event]) -> dict[str, list]:
    """The int columns of `events` as lists: ids, ts, senders and the
    recipient CSR."""
    recipients = [e.recipients for e in events]
    return {"ids": [e.event_id for e in events], "ts": [e.ts for e in events],
            "senders": [e.sender for e in events],
            "_offsets": [0, *itertools.accumulate(map(len, recipients))],
            "_recipients": list(itertools.chain.from_iterable(recipients))}


def _unchecked(cls, **fields):
    """An instance of the frozen dataclass `cls` holding `fields`, made
    without its `__init__` and `__post_init__`. `fields` name every field,
    or for an `EventLog` every column and list (`events` is optional). About
    0.9 us against 2.7 us for `simulator.AgentContext(...)` (CPython 3.11,
    2 shared vCPUs). The instance gets a dict of its own (368 against 168
    bytes for an `Event`), so never for records a log keeps."""
    record = object.__new__(cls)
    record.__dict__.update(fields)
    return record


def _frozen(column: np.ndarray) -> np.ndarray:
    column.setflags(write=False)
    return column


def _int64(values, name: str) -> np.ndarray:
    """`values` as a read-only int64 column; CorpusError names the first
    value that is not an integer in int64's range."""
    try:
        column = np.array(values) if len(values) else np.zeros(0, dtype=np.int64)
    except OverflowError:
        column = None
    if column is None or column.dtype.kind != "i":
        bad = next(v for v in values if kind_error(name, v, int) or not -2**63 <= v < 2**63)
        raise CorpusError(kind_error(name, bad, int) or f"{name} {bad} is outside the int64 range")
    return _frozen(column.astype(np.int64, copy=False))


def _take_csr(offsets: np.ndarray, flat: np.ndarray, rows) -> tuple[np.ndarray, np.ndarray]:
    """The CSR (offsets, flat) of `rows`, a slice or an index array, of
    the CSR (offsets, flat)."""
    starts, counts = offsets[:-1][rows], np.diff(offsets)[rows]
    taken = np.zeros(len(counts) + 1, dtype=np.int64)
    np.cumsum(counts, out=taken[1:])
    index = np.repeat(starts - taken[:-1], counts) + np.arange(taken[-1], dtype=np.int64)
    return _frozen(taken), _frozen(flat[index])


def _from_columns(agents: tuple[str, ...], ids, ts, senders, counts, recipients, threads,
                  bodies) -> EventLog:
    """A log from rows in any order: ids, timestamps and sender indices,
    each row's recipient count with every row's recipient indices in one
    flat sequence, and threads and bodies. Ids must be unique and, with the
    timestamps, integers in int64's range; each row keeps `Event`'s rules.
    The rows are ordered by (ts, id) with one `np.lexsort`, and the registry
    range is checked on the sorted columns."""
    ids, ts = _int64(ids, "id"), _int64(ts, "ts")
    distinct, seen = np.unique(ids, return_counts=True)
    if (seen > 1).any():
        raise CorpusError(f"duplicate event ids: {distinct[seen > 1][:5].tolist()}")
    counts = np.asarray(counts, dtype=np.int64)
    if not (counts.all() and set(map(type, threads)).issubset(RECORD_FIELDS["thread"])
            and set(map(type, bodies)).issubset(RECORD_FIELDS["body"])):
        for k, n in enumerate(counts.tolist()):  # Event names the first row it refuses
            Event(ids[k].item(), 0, (0,) * min(n, 1), 0, threads[k], bodies[k])
    order = np.lexsort((ids, ts))
    offsets = np.zeros(len(counts) + 1, dtype=np.int64)
    np.cumsum(counts, out=offsets[1:])
    columns = {"ids": _frozen(ids[order]), "ts": _frozen(ts[order]),
               "senders": _frozen(np.asarray(senders, dtype=np.int64)[order])}
    columns["_offsets"], columns["_recipients"] = _take_csr(
        offsets, np.asarray(recipients, dtype=np.int64), order)
    rows = order.tolist()
    log = _unchecked(EventLog, agents=agents, _threads=[threads[k] for k in rows],
                     _bodies=[bodies[k] for k in rows], **columns)
    if _breach(len(agents), columns):  # sorted with unique ids: only the range can fail
        _walk_check(agents, log.events)
    return log


def _rows(log: EventLog, rows) -> EventLog:
    """The log of `log`'s events at `rows`, a slice or an ascending index
    array: a subsequence of a checked log, so made without the check. It
    holds the rows of `log`'s columns and lists, and of its Events where
    built."""
    fields = {name: _frozen(getattr(log, name)[rows]) for name in ("ids", "ts", "senders")}
    fields["_offsets"], fields["_recipients"] = _take_csr(log._offsets, log._recipients, rows)
    picked = None if isinstance(rows, slice) else rows.tolist()
    for name in ("_threads", "_bodies", "events"):
        if name in log.__dict__:  # the Events only where built
            values = log.__dict__[name]
            fields[name] = values[rows] if picked is None else tuple(values[k] for k in picked)
    return _unchecked(EventLog, agents=log.agents, **fields)


def _record_columns(log: EventLog) -> tuple[list, ...]:
    """`log`'s events as `_from_columns` takes them, as lists."""
    return (log.ids.tolist(), log.ts.tolist(), log.senders.tolist(),
            np.diff(log._offsets).tolist(), log._recipients.tolist(), list(log._threads),
            list(log._bodies))


def build_log(records: Iterable[tuple[int, str, Sequence[str], int, int | None, str | None]]
              ) -> EventLog:
    """Assemble an EventLog from label-based records
    (event_id, sender, recipients, ts, thread, body); ids must be unique.
    The registry is every label, sorted; the log holds columns. Each record
    is read into flat columns as it comes, so no record is kept: a reader's
    records are read as it parses."""
    ids, senders, ts, threads, bodies, counts, labels = [], [], [], [], [], [], []
    for event_id, sender, recipients, stamp, thread, body in records:
        ids.append(event_id)
        senders.append(sender)
        ts.append(stamp)
        threads.append(thread)
        bodies.append(body)
        counts.append(len(recipients))
        labels.extend(recipients)
    registry = tuple(sorted({*senders, *labels}))
    index = {label: i for i, label in enumerate(registry)}.__getitem__
    return _from_columns(registry, ids, ts, list(map(index, senders)), counts,
                         list(map(index, labels)), threads, bodies)


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
        records = _parse_jsonl(text)
    elif format == "csv":
        records = _parse_csv(text)
    else:
        raise CorpusError(f"unknown format {format!r}")
    return build_log(records)


def serialize(log: EventLog) -> str:
    """Canonical JSONL: one event per line, sorted by (ts, id), fixed key
    order. Byte-identical for equal logs. Reads the columns, so it builds no
    `Event`."""
    agents = log.agents
    offsets, labels = log._offsets.tolist(), [agents[r] for r in log._recipients.tolist()]
    lines = [json.dumps({"id": event_id, "sender": agents[sender], "recipients": labels[a:b],
                         "ts": ts, "thread": thread, "body": body},
                        separators=(",", ":"), ensure_ascii=False)
             for event_id, sender, a, b, ts, thread, body in zip(
                 log.ids.tolist(), log.senders.tolist(), offsets, offsets[1:], log.ts.tolist(),
                 log._threads, log._bodies)]
    return "\n".join(lines) + ("\n" if lines else "")


def save(log: EventLog, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(serialize(log))


def window(log: EventLog, t0: int, t1: int) -> EventLog:
    """Events with t0 <= ts < t1; registry unchanged. The window holds the
    slice of what its parent holds (`_rows`), `ts` (built by `span`) too."""
    if t0 > t1:
        raise CorpusError(f"window start {t0} after end {t1}")
    return _rows(log, log.span(t0, t1))


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
