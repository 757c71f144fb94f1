import dataclasses
import inspect
import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from commsim import agents, corpus, hawkes, simulator
from commsim.cli import main

from conftest import DATA_DIR, MINI

BASE = 983750400
DAY = 86400
SIM_T0 = BASE + 4 * DAY
SIM_T1 = BASE + 12 * DAY


def run_cli(*argv):
    return main([str(a) for a in argv])


def sim_config(tmp_path, **overrides):
    cfg = {
        "input": str(MINI),
        "window": [SIM_T0, SIM_T1],
        "history_days": 4,
        "trigger_ratio": 0.10,
        "seed": 42,
    }
    cfg.update(overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return path


def test_stats_matches_golden(tmp_path, capsys):
    out = tmp_path / "o"
    assert run_cli("stats", MINI, "--out", out) == 0
    got = json.loads((out / "stats.json").read_text())
    golden = json.loads((DATA_DIR / "mini_corpus_stats_golden.json").read_text())
    for key, want in golden.items():
        if isinstance(want, (int, list)):
            assert got[key] == want, key
        else:
            assert got[key] == pytest.approx(want, rel=1e-9), key
    table = capsys.readouterr().out
    assert "reciprocity" in table
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["status"] == "ok"
    assert str(MINI) in manifest["inputs"]


def test_stats_missing_file(tmp_path):
    out = tmp_path / "o"
    assert run_cli("stats", tmp_path / "nope.jsonl", "--out", out) == 2
    assert not (out / "stats.json").exists()
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["status"] == "error"


def test_stats_format_independence(tmp_path):
    rows = [json.loads(l) for l in MINI.read_text().splitlines()]
    csv_path = tmp_path / "mini.csv"
    lines = ["id,sender,recipients,ts,thread,body"]
    for r in rows:
        lines.append(f"{r['id']},{r['sender']},{';'.join(r['recipients'])},{r['ts']},{r['thread']},")
    csv_path.write_text("\n".join(lines) + "\n")
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert run_cli("stats", MINI, "--out", out_a) == 0
    assert run_cli("stats", csv_path, "--format", "csv", "--out", out_b) == 0
    assert (out_a / "stats.json").read_text() == (out_b / "stats.json").read_text()


def test_fit_roundtrip_and_beta(tmp_path):
    out = tmp_path / "m"
    assert run_cli("fit", MINI, "--t0", BASE, "--t1", SIM_T0,
                   "--beta", "2.0", "--out", out) == 0
    model = hawkes.load_model(out / "model.json")
    assert model.beta_per_hour == 2.0
    assert model.n_agents == 8
    out2 = tmp_path / "m2"
    assert run_cli("fit", MINI, "--t0", BASE, "--t1", SIM_T0,
                   "--beta", "2.0", "--out", out2) == 0
    assert (out / "model.json").read_bytes() == (out2 / "model.json").read_bytes()


def test_fit_manifest_counts_unconverged_agents(tmp_path):
    out = tmp_path / "m"
    assert run_cli("fit", MINI, "--t0", BASE, "--t1", SIM_T0, "--full-matrix",
                   "--out", out) == 0
    counters = json.loads((out / "manifest.json").read_text())["counters"]
    want = {}
    hawkes.fit(corpus.ingest(MINI), (BASE, SIM_T0), hawkes.FitConfig(diagonal_only=False),
               counters=want)
    for key in ("unconverged_max_iters", "unconverged_backtracking_failed",
                "ascent_iterations_max", "ascent_iterations_median", "log_likelihood"):
        assert counters[key] == want[key]


def test_simulate_deterministic(tmp_path):
    cfg = sim_config(tmp_path)
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert run_cli("simulate", cfg, "--policy", "periodic", "--agent", "stub",
                   "--out", out_a) == 0
    assert run_cli("simulate", cfg, "--policy", "periodic", "--agent", "stub",
                   "--out", out_b) == 0
    assert (out_a / "sim.jsonl").read_bytes() == (out_b / "sim.jsonl").read_bytes()
    manifest = json.loads((out_a / "manifest.json").read_text())
    assert manifest["counters"]["trigger_events"] > 0
    assert (out_a / "triggers.json").exists()


def test_simulate_zero_model_trigger_free(tmp_path):
    import commsim.corpus as corpus

    log = corpus.ingest(MINI)
    zero = hawkes.HawkesModel(log.agents, np.zeros((8, 168)),
                              np.zeros((8, 8)), 1.0, True)
    model_path = tmp_path / "zero.json"
    model_path.write_text(zero.to_json())
    cfg = sim_config(tmp_path, trigger_ratio=0.0, model=str(model_path))
    out = tmp_path / "o"
    assert run_cli("simulate", cfg, "--policy", "hawkes", "--agent", "stub",
                   "--out", out) == 0
    assert (out / "sim.jsonl").read_text() == ""


def test_manifest_lists_exactly_the_files_written(tmp_path, monkeypatch):
    """Each command's files under --out are its manifest's outputs and the
    manifest itself, also for a rollout that aborts after its partial log."""
    def unreachable(url, payload, headers, timeout):
        raise OSError("endpoint unreachable")

    monkeypatch.setattr(agents, "_default_transport", unreachable)
    for name in ("stub", "llm"):
        (tmp_path / name).mkdir()
    stub = sim_config(tmp_path / "stub")
    llm = sim_config(tmp_path / "llm", llm={"base_url": "http://localhost:1",
                                            "model_name": "m", "max_retries": 0})
    runs = {
        "stats": (0, ["stats", MINI]),
        "fit": (0, ["fit", MINI, "--t0", BASE, "--t1", SIM_T0]),
        "simulate": (0, ["simulate", stub, "--policy", "hawkes", "--agent", "stub"]),
        "evaluate": (0, ["evaluate", MINI, MINI]),
        "compare": (0, ["compare", tmp_path / "evaluate" / "report.json"]),
        "aborted": (1, ["simulate", llm, "--policy", "periodic", "--agent", "llm"]),
    }
    outputs = {}
    for name, (code, argv) in runs.items():
        out = tmp_path / name
        assert run_cli(*argv, "--out", out) == code, name
        outputs[name] = json.loads((out / "manifest.json").read_text())["outputs"]
        written = sorted(str(p) for p in out.rglob("*") if p.is_file())
        assert sorted([*outputs[name], str(out / "manifest.json")]) == written, name
    assert outputs["aborted"] == [str(tmp_path / "aborted" / "sim.partial.jsonl")]


def test_fitted_model_file_stands_in_for_the_in_process_fit(tmp_path):
    """`commsim fit` writes the model `hawkes.fit` returns, byte for byte, and
    a hawkes rollout that reads it equals one that fits the same window."""
    assert run_cli("fit", MINI, "--t0", BASE, "--t1", SIM_T0, "--out", tmp_path / "fit") == 0
    model_path = tmp_path / "fit" / "model.json"
    want = hawkes.fit(corpus.ingest(MINI), (BASE, SIM_T0)).to_json()
    assert model_path.read_bytes() == want.encode("utf-8")
    rollouts = []
    for name, overrides in (("file", {"model": str(model_path)}), ("fitted", {})):
        (tmp_path / name).mkdir()
        cfg = sim_config(tmp_path / name, **overrides)  # history_days 4: fits (BASE, SIM_T0)
        out = tmp_path / name / "o"
        assert run_cli("simulate", cfg, "--policy", "hawkes", "--agent", "stub",
                       "--out", out) == 0
        rollouts.append((out / "sim.jsonl").read_bytes())
    assert rollouts[0] and rollouts[0] == rollouts[1]


def test_simulate_null_model_fits_and_empty_model_path_exits_2(tmp_path, capsys):
    """`"model": null` fits in-process like a config without the key; an empty
    path is a missing model file, not a request to fit."""
    rollouts = []
    for name, overrides in (("null", {"model": None}), ("absent", {})):
        (tmp_path / name).mkdir()
        out = tmp_path / name / "o"
        assert run_cli("simulate", sim_config(tmp_path / name, **overrides), "--policy", "hawkes",
                       "--agent", "stub", "--out", out) == 0
        rollouts.append((out / "sim.jsonl").read_bytes())
    assert rollouts[0] and rollouts[0] == rollouts[1]
    capsys.readouterr()
    out = tmp_path / "empty"
    assert run_cli("simulate", sim_config(tmp_path, model=""), "--policy", "hawkes",
                   "--agent", "stub", "--out", out) == 2
    assert "No such file or directory: ''" in _error(out)
    assert not (out / "sim.jsonl").exists()
    assert capsys.readouterr().err.startswith("error: ")


def test_simulate_hawkes_stub(tmp_path):
    import time

    cfg = sim_config(tmp_path)
    out = tmp_path / "h"
    start = time.monotonic()
    assert run_cli("simulate", cfg, "--policy", "hawkes", "--agent", "stub",
                   "--out", out) == 0
    assert time.monotonic() - start < 60  # full 8-day rollout incl. fitting
    lines = (out / "sim.jsonl").read_text().splitlines()
    assert lines


def test_simulate_manifest_counts_unconverged_agents(tmp_path):
    # `hawkes` without a `model` file fits on the history window
    cfg = sim_config(tmp_path, fit={"max_iters": 1})
    out = tmp_path / "h"
    assert run_cli("simulate", cfg, "--policy", "hawkes", "--agent", "stub",
                   "--out", out) == 0
    counters = json.loads((out / "manifest.json").read_text())["counters"]
    want = {}
    hawkes.fit(corpus.ingest(MINI), (SIM_T0 - 4 * DAY, SIM_T0), hawkes.FitConfig(max_iters=1),
               counters=want)
    assert want["unconverged_max_iters"] > 0
    for key in ("unconverged_max_iters", "unconverged_backtracking_failed"):
        assert counters[key] == want[key]
    assert counters["wakes"] > 0


def test_simulate_seed_flag_overrides_config(tmp_path):
    cfg = sim_config(tmp_path)
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert run_cli("simulate", cfg, "--policy", "hod", "--agent", "stub",
                   "--seed", "7", "--out", out_a) == 0
    assert run_cli("simulate", cfg, "--policy", "hod", "--agent", "stub",
                   "--out", out_b) == 0
    assert (out_a / "sim.jsonl").read_bytes() != (out_b / "sim.jsonl").read_bytes()
    manifest = json.loads((out_a / "manifest.json").read_text())
    assert manifest["seed"] == 7


def _field_defaults(cls) -> dict:
    return {f.name: f.default for f in dataclasses.fields(cls)}


# simulate config key -> its default, read from the dataclass field or the
# parameter it sets
SIMULATE_DEFAULTS = {
    "format": inspect.signature(corpus.ingest).parameters["format"].default,
    **{key: _field_defaults(simulator.SimConfig)[key]
       for key in ("history_days", "trigger_ratio", "seed", "max_actions_per_wake")},
    "periodic_interval_hours": _field_defaults(simulator.PeriodicSchedule)["interval_hours"],
    "llm_adjusts_next_check":
        _field_defaults(simulator.HawkesGuided)["llm_adjusts_next_check"],
}


def test_readme_simulate_defaults_are_the_dataclass_defaults():
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    table = readme.split("| key | default | read by |\n| --- | --- | --- |\n", 1)[1]
    rows = [line.split(" | ", 2) for line in table.split("\n\n", 1)[0].splitlines()]
    documented = {key.strip("| `"): default.strip("`") for key, default, _ in rows}
    for key, default in SIMULATE_DEFAULTS.items():
        value = json.loads(documented[key])
        assert (type(value), value) == (type(default), default), key


@pytest.mark.parametrize("policy", ["periodic", "hawkes"])
def test_simulate_omitted_keys_take_the_dataclass_defaults(tmp_path, policy):
    """A config without the optional keys runs as one that states their
    defaults, and its manifest records the default seed."""
    runs = {}
    for name, cfg in (("bare", {}), ("stated", SIMULATE_DEFAULTS)):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps({"input": str(MINI), "window": [SIM_T0, SIM_T1], **cfg}))
        out = tmp_path / name
        assert run_cli("simulate", path, "--policy", policy, "--agent", "stub",
                       "--out", out) == 0
        runs[name] = ((out / "sim.jsonl").read_bytes(),
                      json.loads((out / "manifest.json").read_text())["seed"])
    assert runs["bare"] == runs["stated"]
    assert runs["bare"][1] == SIMULATE_DEFAULTS["seed"]


def test_evaluate_identity(tmp_path):
    out = tmp_path / "e"
    assert run_cli("evaluate", MINI, MINI, "--t0", SIM_T0, "--t1", SIM_T1,
                   "--out", out) == 0
    report = json.loads((out / "report.json").read_text())
    assert len(report["metrics"]) == 15
    for m in report["metrics"]:
        if m["skipped"]:
            continue
        if m["direction"] == "higher":
            assert m["value"] == 1.0, m["name"]
        else:
            assert m["value"] == 0.0, m["name"]
    assert (out / "report.csv").exists()


def test_evaluate_window_mismatch(tmp_path):
    out = tmp_path / "e"
    code = run_cli("evaluate", MINI, MINI,
                   "--t0", SIM_T1 + 30 * DAY, "--t1", SIM_T1 + 31 * DAY,
                   "--out", out)
    assert code == 2


def test_compare_single_report_zero(tmp_path):
    out = tmp_path / "e"
    run_cli("evaluate", MINI, MINI, "--t0", SIM_T0, "--t1", SIM_T1, "--out", out)
    cmp_out = tmp_path / "c"
    assert run_cli("compare", out / "report.json", "--out", cmp_out) == 0
    table = json.loads((cmp_out / "compare.json").read_text())["regret"]
    for per_cat in table.values():
        for v in per_cat.values():
            assert v == 0.0


def test_compare_two_reports_hand_formula(tmp_path):
    # two synthetic reports: verify against a direct evaluation of the formula
    def fake_report(name, vals):
        entries = [{"name": n, "category": c, "value": v, "direction": "lower",
                    "flags": [], "skipped": None}
                   for (n, c, v) in vals]
        d = {"window": [0, 1], "n_agents": 3, "metrics": entries}
        p = tmp_path / name
        p.mkdir()
        (p / "report.json").write_text(json.dumps(d))
        return p / "report.json"

    ra = fake_report("ra", [("m1", "cat", 2.0), ("m2", "cat", 4.0)])
    rb = fake_report("rb", [("m1", "cat", 1.0), ("m2", "cat", 8.0)])
    cmp_out = tmp_path / "c"
    assert run_cli("compare", ra, rb, "--out", cmp_out) == 0
    table = json.loads((cmp_out / "compare.json").read_text())["regret"]
    assert table["ra"]["cat"] == pytest.approx(math.sqrt(2) - 1, abs=1e-9)
    assert table["rb"]["cat"] == pytest.approx(math.sqrt(2) - 1, abs=1e-9)


def test_compare_rejects_colliding_setting_names(tmp_path, capsys):
    """A setting is named by its report's directory; two reports from
    directories of one name would overwrite each other."""
    report = tmp_path / "e"
    run_cli("evaluate", MINI, MINI, "--t0", SIM_T0, "--t1", SIM_T1, "--out", report)
    paths = []
    for parent in ("x/hod", "y/hod", "bench/hawkes_guided"):
        (tmp_path / parent).mkdir(parents=True)
        paths.append(tmp_path / parent / "report.json")
        shutil.copy(report / "report.json", paths[-1])
    out = tmp_path / "c"
    assert run_cli("compare", *paths, "--out", out) == 2
    message = f"setting 'hod' named twice: {paths[0]} and {paths[1]}"
    assert message in _error(out)
    assert message in capsys.readouterr().err
    assert not (out / "compare.json").exists()


def test_evaluate_empty_ground_truth_exits_2(tmp_path):
    empty = tmp_path / "empty.jsonl"
    empty.write_text("")
    out = tmp_path / "o"
    assert run_cli("evaluate", empty, empty, "--out", out) == 2
    assert _error(out) == f"CorpusError: {empty}: ground truth has no events"


def test_full_pipeline_subprocess(tmp_path):
    """End-to-end through the real entry point in a fresh interpreter."""
    cfg = sim_config(tmp_path)
    out = tmp_path / "pipe"
    cmd = [sys.executable, "-m", "commsim", "simulate", str(cfg),
           "--policy", "hod", "--agent", "stub", "--out", str(out)]
    proc = subprocess.run(cmd, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    ev = [sys.executable, "-m", "commsim", "evaluate", str(out / "sim.jsonl"),
          str(MINI), "--triggers", str(out / "triggers.json"),
          "--t0", str(SIM_T0), "--t1", str(SIM_T1), "--out", str(out / "eval")]
    proc2 = subprocess.run(ev, capture_output=True, text=True)
    assert proc2.returncode == 0, proc2.stderr
    report = json.loads((out / "eval" / "report.json").read_text())
    assert len(report["metrics"]) == 15


def test_warmup_pass_imports_no_heavy_modules():
    """The pipeline a CLI run pays for on every start (perfbench/warmup.py:
    ingest, fit, rollout and evaluate on the mini corpus) must not load
    networkx, requests or scipy.sparse."""
    root = Path(__file__).resolve().parent.parent
    code = ("import runpy, sys\n"
            "import commsim.cli\n"
            f"runpy.run_path({str(root / 'perfbench' / 'warmup.py')!r}, run_name='__main__')\n"
            "print(sorted(m for m in ('networkx', 'requests', 'scipy.sparse') "
            "if m in sys.modules))\n")
    env = {**os.environ, "PYTHONPATH": str(root / "src")}
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          cwd=root, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_importing_the_cli_leaves_numpy_random_unloaded():
    """`commsim stats`, `evaluate` and `compare` draw nothing, so importing the
    package, its agents and the CLI must not load numpy.random."""
    code = ("import sys, numpy\n"
            "before = 'numpy.random' in sys.modules\n"
            "import commsim, commsim.agents, commsim.cli\n"
            "print(before, 'numpy.random' in sys.modules)\n")
    root = Path(__file__).resolve().parent.parent
    env = {**os.environ, "PYTHONPATH": str(root / "src")}
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          cwd=root, env=env)
    assert proc.returncode == 0, proc.stderr
    before, after = proc.stdout.split()
    if before == "True":
        pytest.skip("this numpy loads numpy.random on import")
    assert after == "False"


def test_evaluate_runs_without_scipy(tmp_path):
    """The runtime needs only numpy: with scipy made unimportable,
    `commsim evaluate` of the mini corpus against itself still scores all 15
    metrics, `burst` included, and writes the report a normal run writes."""
    root = Path(__file__).resolve().parent.parent
    normal, blocked = tmp_path / "normal", tmp_path / "blocked"
    assert run_cli("evaluate", MINI, MINI, "--out", normal) == 0
    argv = ["evaluate", str(MINI), str(MINI), "--out", str(blocked)]
    code = ("import sys\n"
            "sys.modules['scipy'] = None\n"
            "from commsim.cli import main\n"
            f"sys.exit(main({argv!r}))\n")
    env = {**os.environ, "PYTHONPATH": str(root / "src")}
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          cwd=root, env=env)
    assert proc.returncode == 0, proc.stderr
    report = (blocked / "report.json").read_bytes()
    assert report == (normal / "report.json").read_bytes()
    burst = next(m for m in json.loads(report)["metrics"] if m["name"] == "burst")
    assert burst["skipped"] is None and burst["value"] == 0.0


# ---------------------------------------------------------------------------
# exit codes: input errors 2, internal errors 1


def _error(out):
    return json.loads((out / "manifest.json").read_text())["error"]


def test_ingest_non_string_labels_exit_2(tmp_path):
    # str() read this file as registry ('5', 'a', 'b', 'c'), event 1 sent to b and c
    bad = tmp_path / "bad.jsonl"
    bad.write_text('{"id": 1, "sender": "a", "recipients": "bc", "ts": 0}\n'
                   '{"id": 2, "sender": 5, "recipients": ["a"], "ts": 1}\n')
    out = tmp_path / "o"
    assert run_cli("stats", bad, "--out", out) == 2
    assert _error(out) == "CorpusError: line 1: recipients 'bc' is not a list of strings"
    bad.write_text(bad.read_text().splitlines()[1] + "\n")
    assert run_cli("stats", bad, "--out", out) == 2
    assert _error(out) == "CorpusError: line 1: sender 5 is not a string"


@pytest.mark.parametrize("ts", [1.7, True, "983782800"])
def test_ingest_non_integer_ts_exits_2(tmp_path, ts):
    bad = tmp_path / "bad.jsonl"
    bad.write_text(json.dumps({"id": 1, "sender": "a", "recipients": ["b"], "ts": ts}) + "\n")
    out = tmp_path / "o"
    assert run_cli("stats", bad, "--out", out) == 2
    assert "not an integer" in _error(out)


@pytest.mark.parametrize("record,message", [
    ({"id": 2.5, "thread": "x"}, "id 2.5 is not an integer"),
    ({"id": True, "thread": [1]}, "id True is not an integer"),
    ({"thread": "x"}, "thread 'x' is not an integer"),
    ({"thread": [1]}, "thread [1] is not an integer"),
    ({"body": 7}, "body 7 is not a string"),
])
def test_ingest_bad_jsonl_fields_exit_2(tmp_path, record, message):
    good = {"id": 1, "sender": "a", "recipients": ["b"], "ts": 983782800}
    bad = tmp_path / "bad.jsonl"
    bad.write_text(json.dumps(good) + "\n" + json.dumps({**good, "id": 2, **record}) + "\n")
    out = tmp_path / "o"
    assert run_cli("stats", bad, "--out", out) == 2
    assert f"line 2: {message}" in _error(out)


@pytest.mark.parametrize("lines,message", [
    (["[1, 2]"], "line 1: record [1, 2] is not a JSON object"),
    ([json.dumps({"id": 1, "sender": "a", "recipients": ["b"], "ts": 983782800}), "5"],
     "line 2: record 5 is not a JSON object"),
])
def test_ingest_non_object_line_exits_2(tmp_path, capsys, lines, message):
    bad = tmp_path / "bad.jsonl"
    bad.write_text("\n".join(lines) + "\n")
    out = tmp_path / "o"
    assert run_cli("stats", bad, "--out", out) == 2
    assert _error(out) == f"CorpusError: {message}"
    assert f"error: {message}" in capsys.readouterr().err


def test_ingest_too_deeply_nested_line_exits_2(tmp_path, capsys):
    """The JSON decoder recurses once per nesting level; running out of
    depth is a bad line, not a crash."""
    bad = tmp_path / "bad.jsonl"
    bad.write_text("[" * 200_000 + "\n")
    out = tmp_path / "o"
    assert run_cli("stats", bad, "--out", out) == 2
    message = "line 1: maximum recursion depth exceeded"
    assert _error(out).startswith(f"CorpusError: {message}")
    assert f"error: {message}" in capsys.readouterr().err


def test_ingest_reads_jsonl_one_line_at_a_time(tmp_path, capsys):
    """A string that runs past its line's end is an error on that line, even
    where the lines joined by commas would read as three valid records."""
    bad = tmp_path / "bad.jsonl"
    bad.write_text('{"id":1,"sender":"a","recipients":["b"],"ts":5,"x":"}\n'
                   '{","y":2}\n'
                   '{"id":2,"sender":"a","recipients":["b"],"ts":6},'
                   '{"id":3,"sender":"b","recipients":["a"],"ts":7}\n')
    out = tmp_path / "o"
    assert run_cli("stats", bad, "--out", out) == 2
    message = "line 1: Unterminated string starting at: line 1 column 52 (char 51)"
    assert _error(out) == f"CorpusError: {message}"
    assert f"error: {message}" in capsys.readouterr().err


@pytest.mark.parametrize("under", [False, True])
def test_out_that_cannot_be_a_directory_exits_2(tmp_path, capsys, under):
    """--out naming an existing file, or a path under one, is a usage error:
    one `error:` line, no traceback, no command run and the file untouched."""
    blocker = tmp_path / "taken"
    blocker.write_text("keep\n")
    out = blocker / "o" if under else blocker
    assert run_cli("stats", MINI, "--out", out) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: --out: ") and err.count("\n") == 1, err
    assert blocker.read_text() == "keep\n"


@pytest.mark.parametrize("fmt,records", [
    ("jsonl", [{"id": 7, "sender": "a", "recipients": [], "ts": 983782900},
               {"id": 8, "sender": "b", "recipients": ["a"], "ts": 983782700},
               {"id": 5, "sender": "a", "recipients": [], "ts": 983782800}]),
    ("csv", ["id,sender,recipients,ts", "7,a,,983782900", "8,b,a,983782700",
             "5,a,,983782800"]),
])
def test_ingest_names_the_first_bad_record_in_the_file(tmp_path, fmt, records):
    """Of two events without recipients, the error names the earlier line's
    (event 7), not the earlier event's (event 5)."""
    bad = tmp_path / f"bad.{fmt}"
    lines = [json.dumps(r) for r in records] if fmt == "jsonl" else records
    bad.write_text("\n".join(lines) + "\n")
    out = tmp_path / "o"
    assert run_cli("stats", bad, "--format", fmt, "--out", out) == 2
    assert _error(out) == "CorpusError: event 7: empty recipient list"


@pytest.mark.parametrize("fmt,line", [
    ("jsonl", json.dumps({"id": 7, "sender": "a", "recipients": [], "ts": 983782800})),
    ("csv", "id,sender,recipients,ts\n7,a,,983782800"),
])
def test_ingest_empty_recipients_exits_2(tmp_path, fmt, line):
    bad = tmp_path / f"bad.{fmt}"
    bad.write_text(line + "\n")
    out = tmp_path / "o"
    assert run_cli("stats", bad, "--format", fmt, "--out", out) == 2
    assert "event 7: empty recipient list" in _error(out)


@pytest.mark.parametrize("row,message", [
    ("2,b", "line 3: missing recipients, ts"),
    ("2", "line 3: missing sender, recipients, ts"),
    ("2,b,a,983782860,x", "line 3: 5 fields, the header has 4"),
    ("2,b,a,983_782_860", "line 3: ts '983_782_860' is not an integer"),
    ("+2,b,a,983782860", "line 3: id '+2' is not an integer"),
    ("\u0662,b,a,983782860", "line 3: id '\u0662' is not an integer"),
    (" 2,b,a,983782860", "line 3: id ' 2' is not an integer"),
    ("2,b,a,983782860,,{body}", "line 3: field larger than field limit (131072)"),
])
def test_ingest_bad_csv_rows_exit_2(tmp_path, row, message):
    # a row short of a required field once exited 1 ("'NoneType' object has
    # no attribute 'split'"), and int() read 983_782_860, +2 and non-ASCII
    # digits; a row with more fields than the header is refused, not cut; a
    # body over the csv module's field limit once exited 1 on its csv.Error
    row = row.format(body="x" * 140_000)
    bad = tmp_path / "bad.csv"
    bad.write_text("id,sender,recipients,ts\n1,a,b,983782800\n" + row + "\n", encoding="utf-8")
    out = tmp_path / "o"
    assert run_cli("stats", bad, "--format", "csv", "--out", out) == 2
    assert _error(out) == f"CorpusError: {message}"


@pytest.mark.parametrize("key", ["input", "window"])
def test_simulate_missing_config_key_exits_2(tmp_path, key):
    cfg = json.loads(sim_config(tmp_path).read_text())
    del cfg[key]
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "o"
    assert run_cli("simulate", path, "--policy", "periodic", "--out", out) == 2
    assert repr(key) in _error(out)


def test_simulate_model_file_missing_key_exits_2(tmp_path):
    model = tmp_path / "model.json"
    model.write_text(json.dumps({"agents": ["a"], "baselines": [[0.0] * 168]}))
    out = tmp_path / "o"
    assert run_cli("simulate", sim_config(tmp_path, model=str(model)),
                   "--policy", "hawkes", "--out", out) == 2
    assert "alpha" in _error(out)


@pytest.mark.parametrize("policy,overrides,message", [
    ("periodic", {"window": [SIM_T0, SIM_T0]}, "empty simulation window"),
    ("periodic", {"window": ["2001-03-05", "next week"]}, "unrecognized timestamp"),
    ("periodic", {"window": [SIM_T0]}, "window must be [start, end]"),
    ("periodic", {"seed": "x"}, "seed 'x' is not an integer"),
    # hawkes fits on the history window: validation must come first
    ("hawkes", {"history_days": 0}, "history_days must be positive"),
    ("periodic", {"history_days": -2}, "history_days must be positive"),
    ("periodic", {"trigger_ratio": 1.5}, "trigger_ratio outside [0, 1]"),
    ("periodic", {"trigger_ratio": -0.1}, "trigger_ratio outside [0, 1]"),
    ("periodic", {"max_actions_per_wake": 0}, "max_actions_per_wake must be positive"),
    ("hawkes", {"model": 3}, "model must be a file path, not 3"),
    ("periodic", {"history_days": math.inf}, "history_days inf is not an integer"),
    # int() and bool() would run these as seed 7, 3 days and True
    ("periodic", {"seed": 7.9}, "seed 7.9 is not an integer"),
    ("periodic", {"history_days": 3.9}, "history_days 3.9 is not an integer"),
    ("periodic", {"seed": True}, "seed True is not an integer"),
    ("periodic", {"max_actions_per_wake": 2.5}, "max_actions_per_wake 2.5 is not an integer"),
    ("periodic", {"llm_adjusts_next_check": "no"}, "llm_adjusts_next_check 'no' is not a boolean"),
    # the history window [SIM_T0 - 4 days, BASE) ends where the corpus starts
    ("hawkes", {"window": [BASE, SIM_T1]}, "empty history window"),
    # float() would run the strings and bools as numbers; NaN stops at the setting's range check
    ("periodic", {"trigger_ratio": True}, "trigger_ratio True is not a number"),
    ("periodic", {"trigger_ratio": "0.1"}, "trigger_ratio '0.1' is not a number"),
    ("periodic", {"trigger_ratio": math.nan}, "trigger_ratio outside [0, 1]"),
    ("periodic", {"periodic_interval_hours": "3"}, "periodic_interval_hours '3' is not a number"),
    ("periodic", {"periodic_interval_hours": False},
     "periodic_interval_hours False is not a number"),
    ("periodic", {"periodic_interval_hours": math.nan}, "interval must be at least 1 second and finite"),
    ("hawkes", {"fit": {"diagonal_only": "no"}}, "diagonal_only 'no' is not a boolean"),
    # int() would read this as SIM_T0; CSV ingest does not
    ("periodic", {"window": [f"+{SIM_T0}", SIM_T1]}, "unrecognized timestamp"),
    # math.isfinite() reads true as 1.0 and refuses "2" without naming the key
    ("hawkes", {"fit": {"beta_override": True}}, "beta_override True is not a number"),
    ("hawkes", {"fit": {"tolerance": True}}, "tolerance True is not a number"),
    ("hawkes", {"fit": {"beta_override": "2"}}, "beta_override '2' is not a number"),
])
def test_simulate_invalid_config_exits_2(tmp_path, capsys, policy, overrides, message):
    out = tmp_path / "o"
    assert run_cli("simulate", sim_config(tmp_path, **overrides), "--policy", policy,
                   "--agent", "stub", "--out", out) == 2
    assert message in _error(out)
    assert message in capsys.readouterr().err
    assert not (out / "sim.jsonl").exists()


def _model_dict(agents):
    n = len(agents)
    return json.loads(hawkes.HawkesModel(agents, np.full((n, 168), 0.01), np.zeros((n, n)),
                                         1.0, True).to_json())


@pytest.mark.parametrize("case", ["model_baselines_shape", "model_other_registry",
                                  "triggers_number", "config_list", "report_metrics_not_list",
                                  "model_diagonal_only_string", "model_beta_string",
                                  "triggers_string", "triggers_non_string_label"])
def test_malformed_user_json_exits_2(tmp_path, case):
    bad = tmp_path / "bad.json"
    simulate_hawkes = ["simulate", sim_config(tmp_path, model=str(bad)), "--policy", "hawkes"]
    payload, argv = {
        "model_baselines_shape": ({**_model_dict(corpus.ingest(MINI).agents),
                                   "baselines": [[0.01] * 100]}, simulate_hawkes),
        "model_other_registry": (_model_dict(("x", "y")), simulate_hawkes),
        "triggers_number": (5, ["evaluate", MINI, MINI, "--triggers", bad,
                                "--t0", SIM_T0, "--t1", SIM_T1]),
        # list() would read "ab" as the labels a and b
        "triggers_string": ({"trigger_agents": "ab"}, ["evaluate", MINI, MINI, "--triggers", bad]),
        "triggers_non_string_label": ([corpus.ingest(MINI).agents[0], 5],
                                      ["evaluate", MINI, MINI, "--triggers", bad]),
        "config_list": ([str(MINI)], ["simulate", bad, "--policy", "periodic"]),
        "report_metrics_not_list": ({"window": [0, 1], "n_agents": 3, "metrics": 5},
                                    ["compare", bad]),
        "model_diagonal_only_string": ({**_model_dict(corpus.ingest(MINI).agents),
                                        "diagonal_only": "no"}, simulate_hawkes),
        "model_beta_string": ({**_model_dict(corpus.ingest(MINI).agents),
                               "beta_per_hour": "2"}, simulate_hawkes),
    }[case]
    bad.write_text(json.dumps(payload))
    out = tmp_path / "o"
    assert run_cli(*argv, "--out", out) == 2
    assert str(bad) in _error(out)


@pytest.mark.parametrize("beta", [math.nan, math.inf])
def test_simulate_model_non_finite_beta_exits_2(tmp_path, beta):
    model = tmp_path / "model.json"
    model.write_text(json.dumps({**_model_dict(corpus.ingest(MINI).agents), "beta_per_hour": beta}))
    out = tmp_path / "o"
    assert run_cli("simulate", sim_config(tmp_path, model=str(model)),
                   "--policy", "hawkes", "--out", out) == 2
    assert "beta must be positive and finite" in _error(out)


def test_evaluate_unknown_trigger_label_exits_2(tmp_path):
    triggers = tmp_path / "triggers.json"
    triggers.write_text(json.dumps({"trigger_agents": ["nobody"]}))
    out = tmp_path / "o"
    assert run_cli("evaluate", MINI, MINI, "--triggers", triggers,
                   "--t0", SIM_T0, "--t1", SIM_T1, "--out", out) == 2
    assert "nobody" in _error(out)


def test_internal_key_error_exits_1(tmp_path, monkeypatch):
    from commsim import metrics

    def broken(log):
        raise KeyError("internal")

    monkeypatch.setattr(metrics, "corpus_stats", broken)
    out = tmp_path / "o"
    assert run_cli("stats", MINI, "--out", out) == 1
    assert _error(out).startswith("KeyError")


@pytest.mark.parametrize("argv,message", [
    (["--t0", "garbage", "--t1", SIM_T0], "unrecognized timestamp"),
    (["--t0", BASE, "--t1", SIM_T0, "--beta", "-1"], "beta_override must be positive"),
    (["--t0", SIM_T0, "--t1", SIM_T0], "is not after --t0"),
    (["--t0", SIM_T0, "--t1", BASE], "is not after --t0"),
    (["--t0", BASE, "--t1", SIM_T0, "--beta", "nan"], "beta_override must be positive"),
    (["--t0", BASE, "--t1", SIM_T0, "--beta", "inf"], "beta_override must be positive"),
    # int() would read these as BASE; CSV ingest does not
    (["--t0", "983_750_400", "--t1", SIM_T0], "unrecognized timestamp"),
    (["--t0", "+983750400", "--t1", SIM_T0], "unrecognized timestamp"),
])
def test_fit_bad_arguments_exit_2(tmp_path, argv, message):
    out = tmp_path / "o"
    assert run_cli("fit", MINI, *argv, "--out", out) == 2
    assert message in _error(out)
    assert not (out / "model.json").exists()


@pytest.mark.parametrize("argv,message", [
    (["--t0", "garbage", "--t1", SIM_T1], "unrecognized timestamp"),
    (["--t0", SIM_T0], "--t0 and --t1 must be given together"),
    (["--t1", SIM_T1], "--t0 and --t1 must be given together"),
])
def test_evaluate_bad_window_exits_2(tmp_path, argv, message):
    out = tmp_path / "o"
    assert run_cli("evaluate", MINI, MINI, *argv, "--out", out) == 2
    assert message in _error(out)
    assert not (out / "report.json").exists()


@pytest.mark.parametrize("policy,agent,overrides,message", [
    ("hawkes", "stub", {"fit": {"max_iter": 5}}, "unexpected keyword argument 'max_iter'"),
    ("hawkes", "stub", {"fit": {"max_iters": 0}}, "max_iters, tolerance and baseline_floor"),
    ("periodic", "stub", {"periodic_interval_hours": 0}, "interval must be at least 1 second"),
    ("periodic", "llm", {"llm": {"base_url": "http://localhost:1"}}, "model_name"),
    ("periodic", "llm", {"llm": {"base_url": "http://localhost:1", "model_name": "m",
                                 "max_retries": -1}}, "max_retries must be >= 0"),
    ("hawkes", "stub", {"fit": {"max_iters": 2.5}}, "max_iters an integer"),
    ("hawkes", "stub", {"fit": {"tolerance": math.nan}}, "the others finite"),
    ("periodic", "stub", {"periodic_interval_hours": math.inf}, "interval must be at least 1"),
])
def test_simulate_bad_policy_or_agent_config_exits_2(tmp_path, policy, agent, overrides,
                                                     message):
    out = tmp_path / "o"
    assert run_cli("simulate", sim_config(tmp_path, **overrides), "--policy", policy,
                   "--agent", agent, "--out", out) == 2
    assert message in _error(out)
    assert not (out / "sim.jsonl").exists()
