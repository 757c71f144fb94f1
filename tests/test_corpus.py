import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from commsim import corpus, timeutil
from commsim.corpus import CorpusError, Event, EventLog, ingest, serialize, window

from conftest import BASE_MONDAY, make_log


def write_jsonl(tmp_path, lines, name="log.jsonl"):
    path = tmp_path / name
    path.write_text("\n".join(json.dumps(l) for l in lines) + "\n")
    return path


def test_ingest_minimal(tmp_path):
    path = write_jsonl(tmp_path, [
        {"id": 0, "sender": "a", "recipients": ["b"], "ts": 0, "thread": None, "body": None},
    ])
    log = ingest(path)
    assert len(log) == 1
    assert log.n_agents == 2
    assert log.agents == ("a", "b")
    assert log.events[0].sender == 0 and log.events[0].recipients == (1,)


def test_ingest_deterministic(tmp_path):
    lines = [
        {"id": 2, "sender": "zed", "recipients": ["amy"], "ts": 100},
        {"id": 1, "sender": "amy", "recipients": ["zed", "bob"], "ts": 50},
    ]
    p1 = write_jsonl(tmp_path, lines, "one.jsonl")
    p2 = write_jsonl(tmp_path, lines, "two.jsonl")
    a, b = ingest(p1), ingest(p2)
    assert a == b
    assert serialize(a) == serialize(b)


def test_ingest_roundtrip(tmp_path):
    path = write_jsonl(tmp_path, [
        {"id": 5, "sender": "c", "recipients": ["a", "b"], "ts": 7, "thread": 5, "body": "x"},
        {"id": 3, "sender": "a", "recipients": ["c"], "ts": 7},
    ])
    log = ingest(path)
    out = tmp_path / "round.jsonl"
    corpus.save(log, out)
    assert ingest(out) == log
    assert out.read_text() == serialize(log)


def test_ingest_errors(tmp_path):
    bad = tmp_path / "bad.jsonl"
    bad.write_text('{"id": 1, "sender": "a"}\n')
    with pytest.raises(CorpusError, match="line 1"):
        ingest(bad)
    dup = write_jsonl(tmp_path, [
        {"id": 1, "sender": "a", "recipients": ["b"], "ts": 0},
        {"id": 1, "sender": "b", "recipients": ["a"], "ts": 1},
    ], "dup.jsonl")
    with pytest.raises(CorpusError, match="duplicate"):
        ingest(dup)
    empty_rcpt = write_jsonl(tmp_path, [
        {"id": 1, "sender": "a", "recipients": [], "ts": 0},
    ], "empty.jsonl")
    with pytest.raises(CorpusError):
        ingest(empty_rcpt)


def test_csv_matches_jsonl(tmp_path):
    jl = write_jsonl(tmp_path, [
        {"id": 1, "sender": "a", "recipients": ["b", "c"], "ts": 10, "thread": 1, "body": "hey"},
        {"id": 2, "sender": "b", "recipients": ["a"], "ts": 20},
    ])
    cp = tmp_path / "log.csv"
    cp.write_text(
        "id,sender,recipients,ts,thread,body\n"
        '1,a,b;c,10,1,hey\n'
        "2,b,a,20,,\n"
    )
    assert ingest(jl) == ingest(cp, format="csv")


def test_csv_quoted_bodies(tmp_path):
    cp = tmp_path / "quoted.csv"
    cp.write_text(
        "id,sender,recipients,ts,thread,body\n"
        '1,a,b,10,,"hello, with commas and ""quotes"""\n'
    )
    log = ingest(cp, format="csv")
    assert log.events[0].body == 'hello, with commas and "quotes"'


def test_unicode_roundtrip(tmp_path):
    path = write_jsonl(tmp_path, [
        {"id": 1, "sender": "göthe@ü.example", "recipients": ["北京"],
         "ts": 5, "thread": None, "body": "piñata 🎉"},
    ])
    log = ingest(path)
    out = tmp_path / "round.jsonl"
    corpus.save(log, out)
    again = ingest(out)
    assert again == log
    assert again.events[0].body == "piñata 🎉"
    assert "北京" in again.agents


def test_mini_corpus_manifest(mini_log, mini_manifest):
    assert mini_log.n_agents == mini_manifest["n_agents"]
    assert list(mini_log.agents) == mini_manifest["agents"]
    assert len(mini_log) == mini_manifest["total_events"]
    assert len(mini_log.edges()) == mini_manifest["total_edges"]
    h0, h1 = mini_manifest["history_window"]
    assert len(window(mini_log, h0, h1)) == mini_manifest["history_events"]
    s0, s1 = mini_manifest["sim_window"]
    assert len(window(mini_log, s0, s1)) == mini_manifest["sim_events"]


def test_window_half_open(mini_log, mini_manifest):
    base = mini_manifest["base_ts"]
    t = mini_log.events[0].ts
    assert len(window(mini_log, t, t)) == 0
    full = window(mini_log, base, base + 12 * 86400)
    assert len(full) == len(mini_log)
    day2 = window(mini_log, base + 2 * 86400, base + 3 * 86400)
    # linear scan oracle
    expected = sum(1 for e in mini_log.events
                   if base + 2 * 86400 <= e.ts < base + 3 * 86400)
    assert len(day2) == expected == mini_manifest["events_per_day"][2]
    with pytest.raises(CorpusError):
        window(mini_log, 10, 5)


@given(st.lists(st.tuples(st.integers(0, 4), st.integers(0, 4), st.integers(0, 10_000)),
                min_size=0, max_size=30),
       st.integers(0, 10_000), st.integers(0, 10_000), st.integers(0, 10_000))
def test_window_union_property(records, a, b, c):
    records = [(s, (r,), t) for s, r, t in records if s != r]
    if not records:
        return
    log = make_log(records)
    a, b, c = sorted((a, b, c))
    left = window(log, a, b).events
    right = window(log, b, c).events
    combined = window(log, a, c).events
    assert tuple(sorted(left + right, key=lambda e: (e.ts, e.event_id))) == combined


def test_roundtrip_property(tmp_path):
    rng = np.random.default_rng(7)
    for trial in range(10):
        n = int(rng.integers(2, 6))
        records = []
        for k in range(int(rng.integers(1, 40))):
            s = int(rng.integers(n))
            r = int((s + 1 + rng.integers(n - 1)) % n)
            records.append((s, (r,), int(rng.integers(0, 10**6))))
        log = make_log(records, n_agents=n)
        path = tmp_path / f"t{trial}.jsonl"
        corpus.save(log, path)
        again = ingest(path)
        assert corpus.serialize(again) == corpus.serialize(log)
        corpus.save(again, path)
        assert ingest(path) == again


def test_stats_two_event_reciprocal():
    day = 86400
    log = make_log([(0, 1, 4 * day + 3600), (1, 0, 4 * day + 7200)])
    s = corpus.corpus_stats(log)
    assert s.reciprocity == 1.0
    assert s.density == 1.0
    assert s.transitivity == 0.0 and isinstance(s.transitivity, float)
    assert s.total_events == 2
    assert s.n_agents == 2


def test_stats_weekend_ratio_all_saturday():
    # 1970-01-03 was a Saturday
    sat = 2 * 86400
    log = make_log([(0, 1, sat + 100), (1, 0, sat + 200), (0, 1, sat + 300)])
    s = corpus.corpus_stats(log)
    assert s.weekend_ratio == 1.0


def test_stats_ranges(mini_log):
    s = corpus.corpus_stats(mini_log)
    for name in ("weekend_ratio", "density", "transitivity",
                 "global_efficiency", "reciprocity"):
        assert 0.0 <= getattr(s, name) <= 1.0, name
    assert -1.0 <= s.burstiness_median <= 1.0
    assert -1.0 <= s.r24 <= 1.0
    assert s.total_events == 50
    assert corpus.corpus_stats(mini_log) == s  # deterministic


def test_stats_empty_log_errors():
    log = EventLog(("a", "b"), ())
    with pytest.raises(CorpusError):
        corpus.corpus_stats(log)


def test_burstiness_values():
    # constant gaps -> sigma = 0 -> B = -1
    log = make_log([(0, 1, t) for t in (0, 100, 200, 300)])
    b = corpus.node_burstiness(log)
    assert b[0] == -1.0
    # gaps {1, 3}: mu=2, sigma=1 -> B = -1/3
    log2 = make_log([(0, 1, 0), (0, 1, 1), (0, 1, 4)])
    assert corpus.node_burstiness(log2)[0] == (1.0 - 2.0) / (1.0 + 2.0)
    # two events only: no burstiness entry
    log3 = make_log([(0, 1, 0), (0, 1, 5)])
    assert 0 not in corpus.node_burstiness(log3)


def test_contact_frequencies():
    log = make_log([(0, 1, 0), (0, 1, 10), (0, 2, 20), (1, 0, 30)])
    table = corpus.contact_frequencies(log)
    assert table[0, 1] == pytest.approx(2 / 3)
    assert table[0, 2] == pytest.approx(1 / 3)
    assert table[1, 0] == 1.0
    assert table[2].sum() == 0.0


def test_multi_recipient_edges_and_self_loops():
    log = make_log([(0, (1, 2, 0), 0)])  # self-loop dropped from edges
    assert log.edges() == [(0, 1, 0), (0, 2, 0)]


@pytest.mark.parametrize("ts, want", [
    (0, 72),                           # 1970-01-01 00:00, a Thursday
    (-1, 71),                          # Wednesday 23:59:59
    (-3 * 86400, 0),                   # Monday 1969-12-29 00:00
    (-3 * 86400 - 1, 167),             # Sunday 23:59:59
    (BASE_MONDAY - 1, 167),
    (BASE_MONDAY, 0),
    (BASE_MONDAY + 7 * 86400 - 1, 167),
])
def test_flat_bin_of_hour_matches_flat_bin_of(ts, want):
    assert timeutil.flat_bin_of(ts) == want
    assert timeutil.flat_bin_of_hour(ts // 3600) == want


def test_flat_bin_of_hour_across_weeks():
    for start in (-21 * 86400, BASE_MONDAY - 21 * 86400):
        ts = np.arange(start, start + 42 * 86400, 1799, dtype=np.int64)
        weekday_hour = timeutil.weekday(ts) * 24 + timeutil.hour_of_day(ts)
        assert np.array_equal(timeutil.flat_bin_of(ts), weekday_hour)
        assert np.array_equal(timeutil.flat_bin_of_hour(ts // 3600), weekday_hour)


@given(st.integers(0, 10**9), st.integers(1, 14 * 86400))
def test_weekly_bin_hours_total(t0, span):
    from commsim.timeutil import weekly_bin_hours

    hours = weekly_bin_hours(t0, t0 + span)
    assert hours.shape == (168,)
    assert np.all(hours >= 0)
    assert hours.sum() == pytest.approx(span / 3600, rel=1e-12)


@settings(max_examples=25, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 5), st.integers(0, 5),
                          st.integers(0, 40 * 86400)),
                min_size=1, max_size=60))
def test_stats_ranges_property(records):
    records = [(s, (r,), t) for s, r, t in records if s != r]
    if not records:
        return
    s = corpus.corpus_stats(make_log(records))
    assert 0.0 <= s.weekend_ratio <= 1.0
    assert 0.0 <= s.density <= 1.0
    assert 0.0 <= s.transitivity <= 1.0
    assert 0.0 <= s.global_efficiency <= 1.0
    assert 0.0 <= s.reciprocity <= 1.0
    assert -1.0 <= s.burstiness_median <= 1.0
    assert -1.0 <= s.r24 <= 1.0
    assert s.total_events == len(records)
