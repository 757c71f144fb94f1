import json
import math
import subprocess
import sys

import numpy as np
import pytest

from commsim import corpus, hawkes
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
    for key in ("unconverged_max_iters", "unconverged_backtracking_failed"):
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
    hawkes.save_model(zero, model_path)
    cfg = sim_config(tmp_path, trigger_ratio=0.0, model=str(model_path))
    out = tmp_path / "o"
    assert run_cli("simulate", cfg, "--policy", "hawkes", "--agent", "stub",
                   "--out", out) == 0
    assert (out / "sim.jsonl").read_text() == ""


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


# ---------------------------------------------------------------------------
# exit codes: input errors 2, internal errors 1


def _error(out):
    return json.loads((out / "manifest.json").read_text())["error"]


@pytest.mark.parametrize("ts", [1.7, True, "983782800"])
def test_ingest_non_integer_ts_exits_2(tmp_path, ts):
    bad = tmp_path / "bad.jsonl"
    bad.write_text(json.dumps({"id": 1, "sender": "a", "recipients": ["b"], "ts": ts}) + "\n")
    out = tmp_path / "o"
    assert run_cli("stats", bad, "--out", out) == 2
    assert "not an integer" in _error(out)


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


def test_evaluate_unknown_trigger_label_exits_2(tmp_path):
    triggers = tmp_path / "triggers.json"
    triggers.write_text(json.dumps({"trigger_agents": ["nobody"]}))
    out = tmp_path / "o"
    assert run_cli("evaluate", MINI, MINI, "--triggers", triggers,
                   "--t0", SIM_T0, "--t1", SIM_T1, "--out", out) == 2
    assert "nobody" in _error(out)


def test_internal_key_error_exits_1(tmp_path, monkeypatch):
    from commsim import corpus

    def broken(log):
        raise KeyError("internal")

    monkeypatch.setattr(corpus, "corpus_stats", broken)
    out = tmp_path / "o"
    assert run_cli("stats", MINI, "--out", out) == 1
    assert _error(out).startswith("KeyError")
