import json
import re
import shutil
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from commsim import corpus, metrics, timeutil
from commsim.agents import AgentError, LLMEndpointConfig, stub_params_from_history
from commsim.corpus import CorpusError, Event, EventLog, ingest, sent_times, serialize, window
from commsim.hawkes import ExcitationState, FitConfig, HawkesError, HawkesModel
from commsim.simulator import SimConfig, SimulationError, hod_histograms, select_triggers

from conftest import BASE_MONDAY, DATA_DIR, make_log
import oracle_corpus
from oracle_agents import oracle_reply_prob
from oracle_corpus import (oracle_select_triggers, scan_contact_frequencies, scan_edge_rows,
                           scan_edges, scan_excitation_state, scan_hod_histograms,
                           scan_sent_times, scan_window)


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


@pytest.mark.parametrize("field,value,message", [
    ("id", 2.5, "id 2.5 is not an integer"),
    ("id", True, "id True is not an integer"),
    ("id", "3", "id '3' is not an integer"),
    ("thread", "x", "thread 'x' is not an integer"),
    ("thread", [1], "thread [1] is not an integer"),
    ("thread", False, "thread False is not an integer"),
    ("thread", 1.0, "thread 1.0 is not an integer"),
    ("body", 5, "body 5 is not a string"),
    ("body", ["hi"], "body ['hi'] is not a string"),
    ("sender", 5, "sender 5 is not a string"),
    ("sender", None, "sender None is not a string"),
    ("recipients", "bc", "recipients 'bc' is not a list of strings"),
    ("recipients", ["b", 3], "recipients ['b', 3] is not a list of strings"),
    ("recipients", {"b": 1}, "recipients {'b': 1} is not a list of strings"),
])
def test_ingest_jsonl_field_types(tmp_path, field, value, message):
    good = {"id": 1, "sender": "a", "recipients": ["b"], "ts": 0, "thread": 4, "body": "x"}
    path = write_jsonl(tmp_path, [good, {**good, "id": 2, field: value}])
    with pytest.raises(CorpusError, match=f"^line 2: {re.escape(message)}$"):
        ingest(path)
    nulls = write_jsonl(tmp_path, [{**good, "thread": None, "body": None}], "nulls.jsonl")
    assert ingest(nulls).events[0].thread_id is None


_LABELS = st.sampled_from(["a", "b", "c", "é"])
_VALID_RECORDS = st.fixed_dictionaries(
    {"id": st.integers(0, 12), "sender": _LABELS, "recipients": st.lists(_LABELS, max_size=3),
     "ts": st.integers(-5, 5)},
    optional={"thread": st.none() | st.integers(-3, 3), "body": st.none() | st.text(max_size=4)})
# one field replaced by a value of the wrong type, or a required field left out
_WRONG_FIELDS = st.sampled_from([
    ("thread", True), ("thread", False), ("thread", 1.0), ("thread", "2"), ("id", True),
    ("id", 2.5), ("id", None), ("ts", "3"), ("ts", False), ("sender", 5), ("sender", None),
    ("recipients", "bc"), ("recipients", ["a", 1]), ("recipients", {"a": 1}),
    ("body", 7), ("body", ["x"]), ("id", ...), ("ts", ...), ("sender", ...),
    ("recipients", ...)])


@st.composite
def _jsonl_lines(draw):
    kind = draw(st.sampled_from(["valid", "valid", "valid", "blank", "padded", "non-object",
                                 "wrong-type", "not-json"]))
    if kind == "blank":
        return draw(st.sampled_from(["", " ", "\t", " \t ", "\u00a0"]))
    if kind == "non-object":
        return draw(st.sampled_from(["[1, 2]", "5", "null", "true", '"x"', "[]", "1.5"]))
    if kind == "not-json":
        return draw(st.sampled_from(["{", '{"id": 1,}', "x", "\ufeff{}", "{} {}"]))
    rec = draw(_VALID_RECORDS)
    if kind == "wrong-type":
        field, value = draw(_WRONG_FIELDS)
        rec = {k: v for k, v in rec.items() if k != field}
        if value is not ...:
            rec[field] = value
    line = json.dumps(rec, ensure_ascii=draw(st.booleans()))
    if kind == "padded":
        line = (draw(st.sampled_from([" ", "\t", "  "])) + line
                + draw(st.sampled_from(["", " ", "\r"])))
    return line


def _outcome(read, text):
    try:
        return read(text)
    except CorpusError as exc:
        return f"CorpusError: {exc}"


@settings(max_examples=300, deadline=None)
@given(lines=st.lists(_jsonl_lines(), max_size=8))
def test_parse_jsonl_matches_oracle(lines):
    """The reader gives the old reader's records and log, or its error text."""
    text = "\n".join(lines)
    records = _outcome(lambda t: list(corpus._parse_jsonl(t)), text)
    assert records == _outcome(lambda t: list(oracle_corpus.parse_jsonl(t)), text)
    log = _outcome(lambda t: corpus.build_log(list(corpus._parse_jsonl(t))), text)
    assert log == _outcome(oracle_corpus.ingest_jsonl, text)


@pytest.mark.parametrize("extra,kwargs,message", [
    (("trigger",), {}, "thread 'trigger' is not an integer"),  # a stale 5th kind argument
    ((), {"thread_id": True}, "thread True is not an integer"),
    ((), {"thread_id": 1.0}, "thread 1.0 is not an integer"),
    ((), {"body": 5}, "body 5 is not a string"),
    ((7,), {"body": b"x"}, "body b'x' is not a string"),
])
def test_event_fields_follow_the_jsonl_rules(extra, kwargs, message):
    with pytest.raises(CorpusError, match=f"^event 1: {re.escape(message)}$"):
        Event(1, 0, (1,), 5, *extra, **kwargs)
    assert Event(1, 0, (1,), 5, 3, "x") == Event(1, 0, (1,), 5, thread_id=3, body="x")


def _endpoint(**setting):
    return LLMEndpointConfig(base_url="http://mock", model_name="m", **setting)


def _sim_config(**setting):
    return SimConfig(window=(0, 10), **setting)


# (config, integer setting, error, its message as the existing tests pin it)
_INTEGER_SETTINGS = [
    (FitConfig, "max_iters", HawkesError,
     "max_iters, tolerance and baseline_floor must be positive, max_iters an integer"),
    (_endpoint, "max_retries", AgentError, "max_retries must be >= 0 and an integer"),
    (_endpoint, "request_seed", AgentError, "request_seed {!r} is not an integer"),
    (_sim_config, "history_days", SimulationError, "history_days {!r} is not an integer"),
    (_sim_config, "seed", SimulationError, "seed {!r} is not an integer"),
    (_sim_config, "max_actions_per_wake", SimulationError,
     "max_actions_per_wake {!r} is not an integer"),
]


@pytest.mark.parametrize("value", [np.int64(3), True], ids=["np_int64", "bool"])
@pytest.mark.parametrize("make,name,error,message", _INTEGER_SETTINGS,
                         ids=[name for _, name, _, _ in _INTEGER_SETTINGS])
def test_integer_settings_refuse_numpy_integers_and_bools(make, name, error, message, value):
    """One rule (`kind_error`) for every integer setting: json.dumps cannot
    write a numpy integer, and a bool is not a count."""
    with pytest.raises(error, match=re.escape(message.format(value))):
        make(**{name: value})
    make(**{name: 3})


def test_ingest_duplicate_ids_message_and_cost(tmp_path):
    """40k events with seven ids used twice: the message names the first five
    duplicate ids, sorted, and finding them is linear (counting each id with
    list.count took about 12 s on a 2-vCPU machine)."""
    n = 40_000
    ids = list(range(n - 7)) + [31, 2, 17, 5, 40, 3, 11]
    path = write_jsonl(tmp_path, [{"id": i, "sender": "a", "recipients": ["b"], "ts": k}
                                  for k, i in enumerate(ids)])
    start = time.perf_counter()
    with pytest.raises(CorpusError) as exc:
        ingest(path)
    assert time.perf_counter() - start < 5
    assert str(exc.value) == "duplicate event ids: [2, 3, 5, 11, 17]"


def test_make_mini_corpus_reproduces_fixture(tmp_path):
    """scripts/make_mini_corpus.py writes the mini corpus fixture and its
    manifest byte for byte; it writes next to its own location."""
    script = Path(__file__).resolve().parent.parent / "scripts" / "make_mini_corpus.py"
    (tmp_path / "scripts").mkdir()
    shutil.copy(script, tmp_path / "scripts")
    proc = subprocess.run([sys.executable, str(tmp_path / "scripts" / script.name)],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    for name in ("mini_corpus.jsonl", "mini_corpus_manifest.json"):
        assert (tmp_path / "tests" / "data" / name).read_bytes() == \
            (DATA_DIR / name).read_bytes(), name


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


@st.composite
def column_cases(draw):
    """(log, t0, t1): a sorted log on few half-hour slots, so timestamps
    repeat, possibly empty, and bounds before, inside, at and after the data."""
    n = draw(st.integers(1, 4))
    slots = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1),
                                    st.integers(0, 60)), max_size=25))
    log = make_log([(s, (r,), BASE_MONDAY + 1800 * k) for s, r, k in slots], n_agents=n)
    bound = st.one_of(st.sampled_from([int(t) for t in log.ts] or [BASE_MONDAY]),
                      st.integers(BASE_MONDAY - 3600, BASE_MONDAY + 1800 * 62))
    return log, draw(bound), draw(bound)


@settings(max_examples=200, deadline=None)
@given(column_cases())
def test_columns_span_and_sent_times_match_scans(case):
    log, t0, t1 = case
    assert log.ts.tolist() == [e.ts for e in log.events]
    assert log.senders.tolist() == [e.sender for e in log.events]
    if t0 > t1:
        with pytest.raises(CorpusError):
            window(log, t0, t1)
        assert log.events[log.span(t0, t1)] == ()
    else:
        assert window(log, t0, t1).events == scan_window(log, t0, t1).events
    assert log.events[log.span(t1=t1)] == tuple(e for e in log.events if e.ts < t1)
    got, want = sent_times(log), scan_sent_times(log)
    assert sorted(got) == sorted(want)
    for agent, times in got.items():
        assert times.dtype == np.int64 and np.array_equal(times, want[agent])
    n = log.n_agents
    model = HawkesModel(log.agents, np.ones((n, 168)), np.full((n, n), 0.2), 0.7, False)
    state = ExcitationState.from_log(model, log, t1)
    scan = scan_excitation_state(model, log, t1)
    assert np.array_equal(state.g, scan.g) and np.array_equal(state.last, scan.last)
    assert np.array_equal(hod_histograms(log), scan_hod_histograms(log))


COLUMNS = ("ts", "senders", "edge_rows", "edge_heads")


def assert_edge_stream_matches_scan(log):
    """`edge_rows`, `edge_heads` and `edges()` equal the walk over every
    event's recipients that drops the self-addressed ones."""
    for column in (log.edge_rows, log.edge_heads):
        assert column.dtype == np.int64 and not column.flags.writeable
    want = scan_edges(log)
    assert log.edge_rows.tolist() == scan_edge_rows(log)
    assert log.edge_heads.tolist() == [v for _, v, _ in want]
    assert log.edges() == want


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_window_carries_built_columns(data):
    """A window starts with the slice of its parent's `ts`, and of `senders`
    where built, and every column equals the one rebuilt from its events; so
    does a window of a window."""
    n = data.draw(st.integers(1, 4))
    agent = st.integers(0, n - 1)
    records = data.draw(st.lists(st.tuples(agent, st.lists(agent, min_size=1, max_size=3),
                                           st.integers(0, 60)), max_size=25))
    log = make_log([(s, r, BASE_MONDAY + 1800 * k) for s, r, k in records], n_agents=n)
    bound = st.integers(BASE_MONDAY - 3600, BASE_MONDAY + 1800 * 62)
    for _ in range(2):
        built = data.draw(st.sets(st.sampled_from(COLUMNS)))
        for name in built:
            getattr(log, name)
        had = {name for name in COLUMNS if name in vars(log)}
        t0, t1 = sorted((data.draw(bound), data.draw(bound)))
        sub = window(log, t0, t1)
        assert {name for name in COLUMNS if name in vars(sub)} == {"ts"} | (had & {"senders"})
        fresh = corpus._unchecked(EventLog, agents=sub.agents, events=sub.events)
        for name in COLUMNS:
            column = getattr(sub, name)
            assert column.dtype == np.int64 and not column.flags.writeable
            assert np.array_equal(column, getattr(fresh, name)), name
        assert_edge_stream_matches_scan(sub)
        log = sub


@pytest.mark.parametrize("row,want", [
    ("1,a,b,-5,-2,x", (1, "a", ["b"], -5, -2, "x")),
    ("-1,a,b;c,0,,", (-1, "a", ["b", "c"], 0, None, None)),
    ("2,b,a,20", (2, "b", ["a"], 20, None, None)),
    ("3,b,a,20,7", (3, "b", ["a"], 20, 7, None)),
])
def test_csv_reads_rows(row, want):
    # signed ASCII integers; a row may leave out the optional thread and body
    assert list(corpus._parse_csv("id,sender,recipients,ts,thread,body\n" + row + "\n")) == [want]


def test_columns_are_read_only(mini_log):
    for column in (mini_log.ts, mini_log.senders):
        with pytest.raises(ValueError):
            column[0] = 1
    assert mini_log.ts is mini_log.ts
    fresh = ingest(DATA_DIR / "mini_corpus.jsonl")
    assert mini_log == fresh and hash(mini_log) == hash(fresh)


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
    s = metrics.corpus_stats(log)
    assert s.reciprocity == 1.0
    assert s.density == 1.0
    assert s.transitivity == 0.0 and isinstance(s.transitivity, float)
    assert s.total_events == 2
    assert s.n_agents == 2


def test_stats_weekend_ratio_all_saturday():
    # 1970-01-03 was a Saturday
    sat = 2 * 86400
    log = make_log([(0, 1, sat + 100), (1, 0, sat + 200), (0, 1, sat + 300)])
    s = metrics.corpus_stats(log)
    assert s.weekend_ratio == 1.0


def test_stats_ranges(mini_log):
    s = metrics.corpus_stats(mini_log)
    for name in ("weekend_ratio", "density", "transitivity",
                 "global_efficiency", "reciprocity"):
        assert 0.0 <= getattr(s, name) <= 1.0, name
    assert -1.0 <= s.burstiness_median <= 1.0
    assert -1.0 <= s.r24 <= 1.0
    assert s.total_events == 50
    assert metrics.corpus_stats(mini_log) == s  # deterministic


def test_stats_empty_log_errors():
    log = EventLog(("a", "b"), ())
    with pytest.raises(CorpusError):
        metrics.corpus_stats(log)


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


@st.composite
def recipient_cases(draw):
    """A log with multi-recipient events, self-addressed and repeated
    recipients and agents that never send."""
    n = draw(st.integers(1, 6))
    event = st.tuples(st.integers(0, n - 1),
                      st.lists(st.integers(0, n - 1), min_size=1, max_size=3),
                      st.integers(0, 50))
    return make_log([(s, tuple(r), BASE_MONDAY + 600 * k)
                     for s, r, k in draw(st.lists(event, max_size=40))], n_agents=n)


@settings(max_examples=200, deadline=None)
@given(recipient_cases())
def test_recipient_columns_and_contact_frequencies_match_scans(log):
    assert_edge_stream_matches_scan(log)
    got, want = corpus.contact_frequencies(log), scan_contact_frequencies(log)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


@settings(max_examples=200, deadline=None)
@given(recipient_cases(), st.data())
def test_distinct_pairs_trigger_ranks_and_reply_probs_match_scans(log, data):
    """The numpy readers of the distinct (sender, recipient) pairs equal the
    scans over sets of edges that they replaced: the pairs themselves, the
    reply probabilities byte for byte, and the trigger plan at every count
    of triggers, which fixes the whole degree ranking."""
    u, v = corpus.simple_digraph_edges(log)
    assert u.dtype == v.dtype == np.int64
    assert list(zip(u.tolist(), v.tolist())) == sorted({(a, b) for a, b, _ in scan_edges(log)})
    bound = st.integers(BASE_MONDAY - 600, BASE_MONDAY + 600 * 51)
    hist = tuple(sorted((data.draw(bound), data.draw(bound))))
    sim = tuple(sorted((data.draw(bound), data.draw(bound))))
    reply = stub_params_from_history(log, hist).reply_prob
    assert reply.tobytes() == oracle_reply_prob(log, hist).tobytes()
    n = log.n_agents
    for k in range(n + 1):
        try:
            want = oracle_select_triggers(log, hist, k / n, sim)
        except SimulationError as exc:
            with pytest.raises(SimulationError, match=re.escape(str(exc))):
                select_triggers(log, hist, k / n, sim)
            continue
        assert select_triggers(log, hist, k / n, sim) == want


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


@pytest.mark.parametrize("text,want", [
    ("983750400", 983750400), (" -5\n", -5), ("0983750400", 983750400),
    ("2001-03-05", 983750400), ("2001-03-05 01:00:00", 983754000),
    ("2001-03-05T01:00:00", 983754000), ("2001-03-05 01:02", 983754120),
    ("2000-02-29 23:59:59", 951868799), ("1970-01-01", 0),
])
def test_parse_utc_reads_integers_and_dates(text, want):
    assert timeutil.parse_utc(text) == want


@pytest.mark.parametrize("text", [
    "\u0662\u0660\u0660\u0661-03-05",   # Arabic-Indic year digits
    "2001-3-5", "2001-03-05 1:00", "2001-03-05T01:00", "2001-03-05 01:00:00Z",
    "2001-13-05", "2001-02-29", "2001-03-05 24:00", "0000-01-01",
])
def test_parse_utc_rejects_other_date_forms(text):
    """A date is one of the four forms, in zero-padded ASCII digits, and a
    real UTC time; strptime alone reads the first three as times."""
    with pytest.raises(ValueError, match="unrecognized timestamp"):
        timeutil.parse_utc(text)


@pytest.mark.parametrize("text", [
    "983_750_400", "+983750400", "\u0669\u0668\u0663\u0667\u0665\u0660\u0664\u0660\u0660",
    "983750400.0", "1e9", ""])
def test_parse_utc_reads_integers_as_csv_ingest_does(text, tmp_path):
    """int() reads the first three as 983750400; a time is an integer by the
    one rule CSV ingest applies to its ts column."""
    with pytest.raises(ValueError, match="unrecognized timestamp"):
        timeutil.parse_utc(text)
    path = tmp_path / "bad.csv"
    path.write_text(f"id,sender,recipients,ts\n1,a,b,{text}\n", encoding="utf-8")
    with pytest.raises(CorpusError, match="is not an integer"):
        ingest(path, format="csv")


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
    s = metrics.corpus_stats(make_log(records))
    assert 0.0 <= s.weekend_ratio <= 1.0
    assert 0.0 <= s.density <= 1.0
    assert 0.0 <= s.transitivity <= 1.0
    assert 0.0 <= s.global_efficiency <= 1.0
    assert 0.0 <= s.reciprocity <= 1.0
    assert -1.0 <= s.burstiness_median <= 1.0
    assert -1.0 <= s.r24 <= 1.0
    assert s.total_events == len(records)
