"""The columnar `metrics.log_view` against the derived-log path it replaced,
and the internal constructor against the checked one it stands in for."""

import copy
import csv
import dataclasses
import io
import json
import pickle

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from commsim import corpus, metrics
from commsim.corpus import CorpusError, Event, EventLog, build_log, ingest, serialize, window
from commsim.metrics import compare, log_view, summarize
from commsim.simulator import (Action, ActionDecision, PeriodicSchedule, SimConfig,
                               SimulationError, run, select_triggers)

from conftest import BASE_MONDAY, assert_same_log, make_log
from oracle_corpus import oracle_build_log, oracle_serialize, scan_window
from oracle_metrics import oracle_evaluate_all, oracle_log_view

SLOT = 4 * 3600  # six slots a day: timestamps repeat and fall on midnight


@st.composite
def view_cases(draw):
    """(log, window, triggers): multi-recipient events, self-addressed and
    repeated recipients, repeated timestamps, window bounds at event times or
    anywhere (so possibly empty), and any trigger set, the whole registry
    included."""
    n = draw(st.integers(1, 6))
    event = st.tuples(st.integers(0, n - 1),
                      st.lists(st.integers(0, n - 1), min_size=1, max_size=3),
                      st.integers(0, 20))
    records = [(s, tuple(r), BASE_MONDAY + SLOT * k)
               for s, r, k in draw(st.lists(event, max_size=40))]
    log = make_log(records, n_agents=n)
    bound = st.one_of(st.sampled_from([t for _, _, t in records] or [BASE_MONDAY]),
                      st.integers(BASE_MONDAY - SLOT, BASE_MONDAY + 21 * SLOT))
    t0, t1 = sorted((draw(bound), draw(bound)))
    triggers = draw(st.one_of(st.just(frozenset(range(n))),
                              st.frozensets(st.integers(0, n - 1))))
    return log, (t0, t1), triggers


def assert_same_view(got, want):
    for name in ("ts", "senders", "u", "v", "t"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype == np.int64 and np.array_equal(a, b), name
    assert (got.window, got.n_agents) == (want.window, want.n_agents)
    if want.days is None:
        assert got.days is None
    else:
        assert list(got.days) == list(want.days)
        # _betweenness_days numbers nodes in set iteration order
        assert [list(s) for s in got.days.values()] == [list(s) for s in want.days.values()]


@settings(max_examples=300, deadline=None)
@given(view_cases(), st.randoms(use_true_random=False))
def test_log_view_matches_derived_log_path(case, rnd):
    log, win, triggers = case
    assert_same_view(log_view(log, win, triggers), oracle_log_view(log, win, triggers))
    # a second log on the same registry, its events at the same times in
    # another order, scored against the first by both paths
    gt = log.with_events(dataclasses.replace(e, sender=rnd.randrange(log.n_agents))
                         for e in log.events)
    got = compare(summarize(log, triggers, win), summarize(gt, triggers, win))
    assert got.to_json() == oracle_evaluate_all(log, gt, triggers, win).to_json()


def test_log_view_edge_cases():
    """One log through every case the view must get right: an event whose
    only trigger is one of its recipients, a self-addressed recipient,
    events exactly at t0 and at t1, an empty window and an all-trigger
    registry."""
    day = 86400
    # without triggers, day 0's edges arrive (1,0), (1,3), (0,1), (0,2): a set
    # filled in sorted order iterates differently
    log = make_log([(1, (0, 1, 3), BASE_MONDAY),          # at t0; self-addressed
                    (0, (1, 2), BASE_MONDAY),             # 2 is a trigger
                    (3, (1,), BASE_MONDAY + day + 5),
                    (2, (0,), BASE_MONDAY + 2 * day)],    # sender trigger
                   n_agents=4)
    for win, triggers in [((BASE_MONDAY, BASE_MONDAY + day + 5), {2}),  # t1 excludes an event
                          ((BASE_MONDAY, BASE_MONDAY + 3 * day), {2}),
                          ((BASE_MONDAY + day, BASE_MONDAY + day), {2}),  # empty window
                          ((BASE_MONDAY, BASE_MONDAY + 3 * day), {0, 1, 2, 3}),
                          ((BASE_MONDAY, BASE_MONDAY + 3 * day), set())]:
        assert_same_view(log_view(log, win, triggers), oracle_log_view(log, win, triggers))
    v = log_view(log, (BASE_MONDAY, BASE_MONDAY + day + 5), {2})
    assert v.n_agents == 3 and v.ts.tolist() == [BASE_MONDAY]
    assert list(zip(v.u.tolist(), v.v.tolist())) == [(1, 0), (1, 2)]
    with pytest.raises(CorpusError):
        log_view(log, (BASE_MONDAY + 1, BASE_MONDAY))


# ---------------------------------------------------------------------------
# the internal constructor


def assert_passes_full_check(derived: EventLog, want: EventLog):
    checked = EventLog(derived.agents, derived.events)  # raises if a check fails
    assert derived == checked == want


@settings(max_examples=200, deadline=None)
@given(view_cases(), st.randoms(use_true_random=False))
def test_derived_logs_equal_checked_logs(case, rnd):
    log, (t0, t1), triggers = case
    assert_passes_full_check(window(log, t0, t1), scan_window(log, t0, t1))
    keep = [i for i in range(log.n_agents) if i not in triggers]
    new = {old: new for new, old in enumerate(keep)}
    assert_passes_full_check(
        metrics.exclude_triggers(log, triggers),
        EventLog(tuple(log.agents[i] for i in keep), tuple(
            Event(e.event_id, new[e.sender], tuple(new[r] for r in e.recipients), e.ts)
            for e in log.events if e.sender in new and all(r in new for r in e.recipients))))
    if len(log):
        plan = select_triggers(log, (log.ts[0], log.ts[-1] + 1),
                               len(triggers) / log.n_agents, (t0, t1))
        assert_passes_full_check(plan.scheduled_events, EventLog(log.agents, tuple(
            e for e in scan_window(log, t0, t1).events if e.sender in plan.trigger_agents)))
    records = [(e.event_id, log.agents[e.sender], [log.agents[r] for r in e.recipients],
                e.ts, e.thread_id, e.body) for e in log.events]
    rnd.shuffle(records)
    assert_passes_full_check(build_log(records), oracle_build_log(records))


@pytest.mark.parametrize("events,message", [
    ((Event(1, 0, (1,), 5), Event(0, 1, (0,), 4)), "not sorted"),
    ((Event(1, 0, (1,), 5), Event(0, 1, (0,), 5)), "not sorted"),
    ((Event(0, 0, (1,), 5), Event(0, 1, (0,), 6)), "duplicate event_id 0"),
    ((Event(0, 0, (2,), 5),), "outside registry"),
    ((Event(0, -1, (1,), 5),), "outside registry"),
    # the first breach names the event: a later one, a recipient, an id met
    # two events before, a range breach before an order breach and after one
    ((Event(0, 0, (1,), 5), Event(3, 1, (0, 2), 6)), "^event 3: agent index outside registry$"),
    ((Event(4, 0, (1,), 1), Event(2, 1, (0,), 2), Event(4, 1, (0,), 3)),
     "^duplicate event_id 4$"),
    ((Event(1, 0, (7,), 5), Event(0, 1, (0,), 4)), "^event 1: agent index outside registry$"),
    ((Event(1, 0, (1,), 5), Event(0, 1, (0,), 4), Event(2, 0, (5,), 6)),
     r"^events not sorted by \(ts, event_id\)$"),
    # values that are not int64 are checked as they are: 1.7 then 1.2 is not
    # sorted, though both truncate to 1
    ((Event(0, 0, (1,), 1.7), Event(1, 1, (0,), 1.2)), "not sorted"),
    ((Event(0, 0, (1,), 5), Event(2**64, 1, (0,), 5), Event(2**64, 1, (0,), 6)),
     "^duplicate event_id 18446744073709551616$"),
])
def test_event_log_keeps_the_full_check(events, message):
    with pytest.raises(CorpusError, match=message):
        EventLog(("a", "b"), events)
    if "not sorted" not in message:  # with_events sorts first
        with pytest.raises(CorpusError, match=message):
            EventLog(("a", "b"), ()).with_events(events)


@pytest.mark.parametrize("events,message", [
    ((Event(0, 0, (1,), 1.2),), r"^ts 1\.2 is not an integer$"),
    ((Event(True, 0, (1,), 5),), "^id True is not an integer$"),
    ((Event(0, 0, (1,), 2**63),), "^ts 9223372036854775808 is outside the int64 range$"),
    ((Event(0, 1.0, (0,), 5),), r"^sender 1\.0 is not an integer$"),
], ids=["float_ts", "bool_id", "ts_2_63", "float_sender"])
def test_event_log_takes_int64_values_as_build_log_does(events, message):
    """Values that pass the walk but are not integers in int64's range are
    refused with `build_log`'s message, by both checked doors."""
    with pytest.raises(CorpusError, match=message):
        EventLog(("a", "b"), events)
    with pytest.raises(CorpusError, match=message):
        EventLog(("a", "b"), ()).with_events(events)


@pytest.mark.parametrize("records,message", [
    # Event's rules, for the first record in file order that breaks one
    ([(1, "a", ["b"], 5, None, None), (0, "b", [], 4, None, None),
      (2, "a", [], 3, None, None)], "^event 0: empty recipient list$"),
    ([(1, "a", ["b"], 5, None, None), (3, "a", ["b"], 1, "x", None),
      (2, "a", [], 3, None, None)], "^event 3: thread 'x' is not an integer$"),
    ([(1, "a", ["b"], 5, None, 7)], "^event 1: body 7 is not a string$"),
])
def test_build_log_names_the_record_event_refuses(records, message):
    for build in (build_log, oracle_build_log):
        with pytest.raises(CorpusError, match=message):
            build(records)


@pytest.mark.parametrize("records,message", [
    ([(1, "a", ["b"], 5, None, None), (2, "b", ["a"], 2**63, None, None)],
     "^ts 9223372036854775808 is outside the int64 range$"),
    ([(-2**63 - 1, "a", ["b"], 5, None, None)], "^id -9223372036854775809 is outside the int64 range$"),
    ([(1.5, "a", ["b"], 5, None, None)], r"^id 1\.5 is not an integer$"),
])
def test_build_log_takes_int64_ids_and_times(records, message):
    with pytest.raises(CorpusError, match=message):
        build_log(records)


# ---------------------------------------------------------------------------
# columns-first ingest against the Event-first oracle

LABELS = st.sampled_from(["a", "b", "c", "d@x.org", "Z\u00e9"])


@st.composite
def record_files(draw):
    """{format: file text} of one record set in any order: unique ids, six
    slots of timestamps (so they repeat), one to three recipients that may
    repeat or name the sender, and a thread and a body each a value, null or
    absent. A file may be empty; a CSV one may have its header only."""
    records = []
    for event_id in draw(st.lists(st.integers(-3, 40), unique=True, max_size=25)):
        sender = draw(LABELS)
        records.append({
            "id": event_id, "sender": sender,
            "recipients": draw(st.lists(st.just(sender) | LABELS, min_size=1, max_size=3)),
            "ts": BASE_MONDAY + SLOT * draw(st.integers(0, 5)),
            "thread": draw(st.none() | st.integers(-2, 3)),
            "body": draw(st.none() | st.text(alphabet='ab ,;"\n\r\u00e9', max_size=4))})
    absent = draw(st.booleans())  # a null field is left out: key or trailing columns
    lines = [json.dumps({k: v for k, v in rec.items() if v is not None or not absent})
             for rec in records]
    table = io.StringIO()
    rows = csv.writer(table)
    if records or draw(st.booleans()):
        rows.writerow(["id", "sender", "recipients", "ts", "thread", "body"])
    for rec in records:
        row = [rec["id"], rec["sender"], ";".join(rec["recipients"]), rec["ts"],
               "" if rec["thread"] is None else rec["thread"], rec["body"] or ""]
        while absent and row[-1] == "" and len(row) > 4:
            row.pop()
        rows.writerow(row)
    return {"jsonl": "".join(line + "\n" for line in lines), "csv": table.getvalue()}


@pytest.fixture(scope="module")
def files_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("ingest")


@settings(max_examples=150, deadline=None)
@given(files=record_files())
def test_columns_first_ingest_matches_the_event_first_oracle(files_dir, files):
    """`ingest` builds columns; the oracle builds one Event per record of the
    same file, as read by the same reader."""
    for fmt, read in (("jsonl", corpus._parse_jsonl), ("csv", corpus._parse_csv)):
        path = files_dir / f"log.{fmt}"
        path.write_text(files[fmt], encoding="utf-8")
        want = oracle_build_log(list(read(path.read_text(encoding="utf-8"))))
        assert_same_log(ingest(path, fmt), want, (BASE_MONDAY + SLOT, BASE_MONDAY + 4 * SLOT))


def test_build_log_and_ingest_reject_duplicate_ids(tmp_path):
    records = [(7, "a", ["b"], 0, None, None), (7, "b", ["a"], 1, None, None)]
    with pytest.raises(CorpusError, match=r"^duplicate event ids: \[7\]$"):
        build_log(records)
    path = tmp_path / "dup.csv"
    path.write_text("id,sender,recipients,ts\n7,a,b,0\n7,b,a,1\n")
    with pytest.raises(CorpusError, match=r"^duplicate event ids: \[7\]$"):
        ingest(path, "csv")


def test_run_rejects_an_action_outside_the_registry(mini_log, mini_manifest):
    """`run`'s result holds agent output, which never reaches the log unchecked."""
    s0, s1 = mini_manifest["sim_window"]
    cfg = SimConfig(window=(s0, s1), history_days=4, policy=PeriodicSchedule())
    plan = select_triggers(mini_log, tuple(mini_manifest["history_window"]), 0.125, (s0, s1))

    class Stray:
        def decide(self, ctx):
            return ActionDecision((Action("initiate", (mini_log.n_agents,)),), ctx.now + 3600)

    with pytest.raises(SimulationError, match="outside registry"):
        run(cfg, mini_log, Stray(), plan)


# ---------------------------------------------------------------------------
# one representation: `serialize`, `==` and `hash` read the columns

# bodies with unicode, quotes, a backslash and line breaks
BODIES = st.none() | st.text(alphabet='ab "\'\\\n\r\u00e9\u2603', max_size=5)
# what every log holds from the moment it is made, whichever door made it
HELD = {"agents", "ids", "ts", "senders", "_offsets", "_recipients", "_threads", "_bodies"}


@st.composite
def label_records(draw):
    """Label records in any order: unique ids, negative ones too, six slots
    of timestamps, one to three recipients that may repeat or name the
    sender, null or negative threads and `BODIES`; possibly none."""
    records = []
    for event_id in draw(st.lists(st.integers(-5, 40), unique=True, max_size=20)):
        sender = draw(LABELS)
        records.append((event_id, sender,
                        draw(st.lists(st.just(sender) | LABELS, min_size=1, max_size=3)),
                        BASE_MONDAY + SLOT * draw(st.integers(0, 5)),
                        draw(st.none() | st.integers(-3, 3)), draw(BODIES)))
    return records


@settings(max_examples=100, deadline=None)
@given(label_records())
@example([])
def test_serialize_reads_the_columns(records):
    """A column log and an Event log of the same records serialize to the
    Event-first oracle's bytes, and `serialize` builds no Event."""
    log, want = build_log(records), oracle_build_log(records)
    text = serialize(log)
    assert "events" not in vars(log)
    assert text == serialize(want) == oracle_serialize(want) == oracle_serialize(log)


@settings(max_examples=150, deadline=None)
@given(label_records(), st.data())
def test_log_equality_reads_columns_and_lists(records, data):
    """The same log from every door compares equal, with an equal hash, and
    neither `==` nor `hash` builds Events; logs that differ in one thread,
    one body, the order of one event's recipients or only in where the flat
    recipients split into events compare unequal."""
    log, want = build_log(records), oracle_build_log(records)
    events, n = want.events, log.n_agents
    t0, t1 = sorted(BASE_MONDAY + SLOT * data.draw(st.integers(-1, 7)) for _ in range(2))
    in_window = tuple(e for e in events if t0 <= e.ts < t1)
    triggers = data.draw(st.frozensets(st.integers(0, n - 1))) if n else frozenset()
    new = {old: k for k, old in enumerate(i for i in range(n) if i not in triggers)}
    doors = [(log, want), (pickle.loads(pickle.dumps(log)), want), (copy.deepcopy(log), want),
             (window(log, t0, t1), EventLog(log.agents, in_window)),
             (metrics.exclude_triggers(log, triggers), EventLog(
                 tuple(log.agents[i] for i in new), tuple(
                     dataclasses.replace(e, sender=new[e.sender],
                                         recipients=tuple(new[r] for r in e.recipients))
                     for e in events if e.sender in new and all(r in new for r in e.recipients))))]
    if n:
        plan = select_triggers(log, (int(log.ts[0]), int(log.ts[-1]) + 1), len(triggers) / n,
                               (t0, t1))
        doors.append((plan.scheduled_events, EventLog(log.agents, tuple(
            e for e in in_window if e.sender in plan.trigger_agents))))
    for got, expected in [*doors, (EventLog(log.agents, ()).with_events(events[::-1]), want)]:
        assert HELD <= vars(got).keys() and HELD <= vars(expected).keys()
        assert got == expected and expected == got and hash(got) == hash(expected)
    assert ["events" in vars(got) for got, _ in doors] == [False] * len(doors)

    variants = []
    for k, e in enumerate(events):
        variants += [{k: dataclasses.replace(e, thread_id=(e.thread_id or 0) + 1)},
                     {k: dataclasses.replace(e, body=(e.body or "") + "x")}]
        if len(set(e.recipients)) > 1:
            rotated = (*e.recipients[1:], e.recipients[0])
            variants.append({k: dataclasses.replace(e, recipients=rotated)})
        if len(e.recipients) > 1 and k + 1 < len(events):  # the same flat recipients
            after = events[k + 1]
            variants.append({k: dataclasses.replace(e, recipients=e.recipients[:-1]),
                             k + 1: dataclasses.replace(after, recipients=(e.recipients[-1],
                                                                           *after.recipients))})
    for changed in variants:
        other = EventLog(log.agents, tuple(changed.get(k, e) for k, e in enumerate(events)))
        assert log != other and other != log and want != other
    assert "events" not in vars(log)
