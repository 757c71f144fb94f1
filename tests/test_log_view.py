"""The columnar `metrics.log_view` against the derived-log path it replaced,
and the internal constructor against the checked one it stands in for."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from commsim import metrics
from commsim.corpus import CorpusError, Event, EventLog, build_log, ingest, window
from commsim.metrics import compare, log_view, summarize
from commsim.simulator import (Action, ActionDecision, PeriodicSchedule, SimConfig,
                               SimulationError, run, select_triggers)

from conftest import BASE_MONDAY, make_log
from oracle_corpus import oracle_build_log, scan_window
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
        # _betweenness numbers nodes in set iteration order
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
])
def test_event_log_keeps_the_full_check(events, message):
    with pytest.raises(CorpusError, match=message):
        EventLog(("a", "b"), events)
    if message != "not sorted":  # with_events sorts first
        with pytest.raises(CorpusError, match=message):
            EventLog(("a", "b"), ()).with_events(events)


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
