"""summarize/compare against the pairwise suite it replaced (oracle_metrics)."""

import pytest
from hypothesis import given, settings, strategies as st

from commsim import metrics
from commsim.metrics import MetricError, compare, evaluate_all, summarize

from conftest import BASE_MONDAY, fixture_log, make_log
from oracle_metrics import oracle_evaluate_all

DAY = 86400
HOUR = 3600


def assert_matches_oracle(sim, gt, triggers, window):
    want = oracle_evaluate_all(sim, gt, triggers, window).to_json()
    got = evaluate_all(sim, gt, triggers, window).to_json()
    assert got == want
    return got


@st.composite
def scoring_cases(draw):
    """Two small logs on one registry, a trigger set and a window that may be
    empty, one day long or start off midnight."""
    n = draw(st.integers(2, 6))
    event = st.tuples(st.integers(0, n - 1),
                      st.sets(st.integers(0, n - 1), min_size=1, max_size=2),
                      st.integers(0, 9 * DAY - 1))

    def log():
        events = draw(st.lists(event, max_size=30))
        return make_log([(s, tuple(sorted(r)), BASE_MONDAY + t) for s, r, t in events],
                        n_agents=n)

    sim, gt = log(), log()
    triggers = draw(st.sets(st.integers(0, n - 1), max_size=n - 1))
    t0 = BASE_MONDAY + draw(st.integers(0, 8)) * DAY + draw(st.sampled_from([0, 5 * HOUR]))
    window = (t0, t0 + draw(st.integers(0, 9)) * DAY)
    return sim, gt, triggers, window


@settings(max_examples=60, deadline=None)
@given(scoring_cases())
def test_evaluate_all_matches_pairwise_oracle(case):
    assert_matches_oracle(*case)


def _weekend_only(n=4):
    sat = BASE_MONDAY + 5 * DAY + 10 * HOUR
    return make_log([(a, (a + 1) % n, sat + 60 * k + a) for k in range(3) for a in range(n)],
                    n_agents=n)


def _two_sends_each(n=12):
    return make_log([(a, (a + 1) % n, BASE_MONDAY + d * DAY + 9 * HOUR + a)
                     for d in (0, 3) for a in range(n)], n_agents=n)


def _busy_days(days, n=12):
    rec = [(a, (a + 1 + j) % n, BASE_MONDAY + d * DAY + 9 * HOUR + 60 * j + a)
           for d in days for j in range(3) for a in range(n)]
    return make_log(rec, n_agents=n)


WEEK = (BASE_MONDAY, BASE_MONDAY + 7 * DAY)
SKIP_CASES = {
    "empty window": (fixture_log(3), fixture_log(3), set(),
                     (BASE_MONDAY + DAY, BASE_MONDAY + DAY), '"skipped": "empty window"'),
    "one-day window": (fixture_log(3), fixture_log(4), {2}, (BASE_MONDAY, BASE_MONDAY + DAY),
                       "topology overlap needs at least 2 days"),
    "no weekday events": (_weekend_only(), fixture_log(5, n_agents=4), set(), WEEK,
                          "no weekday activity; weekend ratio undefined"),
    "fewer than 3 sends per agent": (_two_sends_each(), fixture_log(6), set(), WEEK,
                                     "no node with enough events for burstiness"),
    "zero motifs": (make_log([(0, 1, BASE_MONDAY + HOUR)], n_agents=12), fixture_log(7), {5},
                    WEEK, "sim: zero motifs, uniform assumed"),
    "day empty in both logs": (_busy_days((0, 2, 3)), _busy_days((0, 3, 4)), set(),
                               (BASE_MONDAY, BASE_MONDAY + 5 * DAY),
                               f"day {BASE_MONDAY // DAY + 1}: empty in both logs, skipped"),
}


@pytest.mark.parametrize("case", SKIP_CASES, ids=list(SKIP_CASES))
def test_skip_paths_match_pairwise_oracle(case):
    sim, gt, triggers, window, message = SKIP_CASES[case]
    assert message in assert_matches_oracle(sim, gt, triggers, window)


def test_one_gt_summary_scores_several_rollouts():
    window = (BASE_MONDAY, BASE_MONDAY + 10 * DAY)
    sims = [fixture_log(21), fixture_log(22, events_per_day=8), _two_sends_each(),
            make_log([(0, 1, BASE_MONDAY + HOUR)], n_agents=12)]
    for gt in (fixture_log(20), _two_sends_each()):  # the second stores part errors
        for triggers in (set(), {0, 3}):
            gt_summary = summarize(gt, triggers, window)
            for sim in sims:
                report = compare(summarize(sim, triggers, window), gt_summary)
                assert report == evaluate_all(sim, gt, triggers, window)
                assert report.to_json() == oracle_evaluate_all(sim, gt, triggers, window).to_json()


def test_summary_stores_part_errors():
    summary = summarize(_two_sends_each(), set(), WEEK)
    assert isinstance(summary.parts["burst"], MetricError)
    assert list(summary.parts) == list(metrics.METRIC_NAMES)
    assert summary.n_agents == 12


@pytest.mark.parametrize("other", [
    ({1}, WEEK),
    (set(), (BASE_MONDAY, BASE_MONDAY + 6 * DAY)),
])
def test_compare_rejects_summaries_of_different_windows_or_triggers(other):
    log = fixture_log(8)
    triggers, window = other
    base = summarize(log, set(), WEEK)
    with pytest.raises(MetricError, match="window or trigger set"):
        compare(base, summarize(log, triggers, window))
    with pytest.raises(MetricError, match="window or trigger set"):
        compare(summarize(log, triggers, window), base)


def test_compare_rejects_different_registries():
    with pytest.raises(MetricError, match="registries differ"):
        compare(summarize(fixture_log(8), set(), WEEK),
                summarize(fixture_log(8, n_agents=11), set(), WEEK))
