"""The per-event scans that the cached columns, `EventLog.span` and
`corpus.sent_times` replaced, kept as oracles of the column readers, the
Event-first `build_log` and `serialize` that the columns-first ones
replaced, and the JSONL reader, with its own field checks, that
`corpus._parse_jsonl`'s one-decode read and the shared record rules
(`corpus.RECORD_FIELDS`) replaced."""

import json
import math
from collections import Counter

import numpy as np

from commsim import timeutil
from commsim.corpus import CorpusError, Event, EventLog, build_log, window
from commsim.hawkes import SECONDS_PER_HOUR, ExcitationState
from commsim.simulator import SimulationError, TriggerPlan


def scan_edges(log: EventLog) -> list[tuple[int, int, int]]:
    """The old `EventLog.edges()` body: one (sender, recipient, ts) edge per
    recipient other than the sender, walking every event."""
    return [(e.sender, r, e.ts) for e in log.events for r in e.recipients if r != e.sender]


def scan_edge_rows(log: EventLog) -> list[int]:
    """The event index of each edge of `scan_edges`."""
    return [k for k, e in enumerate(log.events) for r in e.recipients if r != e.sender]


def scan_window(log: EventLog, t0: int, t1: int) -> EventLog:
    """The old `corpus.window` body: a filter over every event."""
    return EventLog(log.agents, tuple(e for e in log.events if t0 <= e.ts < t1))


def scan_contact_frequencies(log: EventLog) -> np.ndarray:
    """The old `corpus.contact_frequencies`: one increment per edge."""
    n = log.n_agents
    table = np.zeros((n, n))
    for u, v, _ in scan_edges(log):
        table[u, v] += 1.0
    sums = table.sum(axis=1, keepdims=True)
    np.divide(table, sums, out=table, where=sums > 0)
    return table


def oracle_build_log(records) -> EventLog:
    """The Event-first `corpus.build_log` that the columns-first one
    replaced: the duplicate-id check, the registry, one `Event` per record
    and a sort by a Python key, then the full check."""
    ids = [r[0] for r in records]
    if len(ids) != len(set(ids)):
        dupes = sorted(i for i, n in Counter(ids).items() if n > 1)
        raise CorpusError(f"duplicate event ids: {dupes[:5]}")
    registry = tuple(sorted({lbl for _, s, rs, _, _, _ in records for lbl in (s, *rs)}))
    index = {lbl: i for i, lbl in enumerate(registry)}
    events = (Event(event_id, index[s], tuple(index[r] for r in rs), ts, thread, body)
              for event_id, s, rs, ts, thread, body in records)
    return EventLog(registry, tuple(sorted(events, key=lambda e: (e.ts, e.event_id))))


def oracle_serialize(log: EventLog) -> str:
    """The Event-first `corpus.serialize`: one JSON line per `Event` of
    `log.events`."""
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


def _json_int(rec: dict, key: str) -> int:
    value = rec[key]
    # int() would silently truncate 1.7 and accept true as 1
    if not isinstance(value, int) or isinstance(value, bool):
        raise ValueError(f"{key} {value!r} is not an integer")
    return value


def parse_jsonl(text: str):
    """The old `corpus._parse_jsonl` body: `json.loads` and every field check
    on each non-blank line. The one addition is the object check, without
    which a line such as `[1, 2]` raised AttributeError."""
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        try:
            rec = json.loads(line)
            if not isinstance(rec, dict):
                raise ValueError(f"record {rec!r} is not a JSON object")
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


def ingest_jsonl(text: str) -> EventLog:
    """The old JSONL `corpus.ingest` after the file read: `parse_jsonl`, then
    `build_log`."""
    return build_log(list(parse_jsonl(text)))


def scan_sent_times(log: EventLog) -> dict[int, np.ndarray]:
    """The old `hawkes._sent_times`: a dict of per-sender lists."""
    per: dict[int, list[int]] = {}
    for e in log.events:
        per.setdefault(e.sender, []).append(e.ts)
    return {a: np.array(ts, dtype=np.int64) for a, ts in per.items()}


def scan_excitation_state(model, history: EventLog, t_now: int) -> ExcitationState:
    """The old `ExcitationState.from_log`: add events until one is after t_now."""
    state = ExcitationState(model)
    for e in history.events:
        if e.ts > t_now:
            break
        decay = math.exp(-state.beta * (e.ts - state.last[e.sender]) / SECONDS_PER_HOUR)
        state.g[e.sender] = state.g[e.sender] * decay + 1.0
        state.last[e.sender] = e.ts
    return state


def scan_hod_histograms(log: EventLog) -> np.ndarray:
    """The old `simulator.hod_histograms`: one increment per event."""
    h = np.zeros((log.n_agents, 24))
    for e in log.events:
        h[e.sender, timeutil.hour_of_day(e.ts)] += 1
    sums = h.sum(axis=1, keepdims=True)
    np.divide(h, sums, out=h, where=sums > 0)
    return h


def oracle_select_triggers(log: EventLog, history_window: tuple[int, int], ratio: float,
                           sim_window: tuple[int, int]) -> TriggerPlan:
    """The old `simulator.select_triggers`: degrees counted one distinct edge
    at a time, agents ranked by a Python sort."""
    if not 0 <= ratio <= 1:
        raise SimulationError(f"ratio {ratio} outside [0, 1]")
    hist = window(log, *history_window)
    if not hist.events:
        raise SimulationError("empty history window")
    degree = np.zeros(log.n_agents, dtype=np.int64)
    for u, v in {(u, v) for u, v, _ in scan_edges(hist)}:
        degree[u] += 1
        degree[v] += 1
    k = math.ceil(ratio * log.n_agents)
    ranked = sorted(range(log.n_agents), key=lambda i: (-degree[i], i))
    chosen = frozenset(ranked[:k])
    s0, s1 = sim_window
    scheduled = tuple(e for e in log.events if s0 <= e.ts < s1 and e.sender in chosen)
    return TriggerPlan(chosen, EventLog(log.agents, scheduled))
