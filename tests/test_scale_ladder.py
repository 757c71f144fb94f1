"""Smoke test of `scripts/scale_ladder.py` at its tiny sizes.

Runs every workload once per size in fresh processes, checks each output
against the digests pinned in `scripts/scale_ladder.json`, and reads the
result file's shape. The ladder itself (100 to 1000 agents) is run by hand.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("rollout_hawkes", "rollout_periodic", "score_suite", "fit_full")


def test_scale_ladder_smoke(tmp_path):
    out = tmp_path / "scale.json"
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / "scale_ladder.py"),
                           "--sizes", "smoke", "--reps", "1", "--output", str(out)],
                          cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    record = json.loads(out.read_text())
    assert list(record["workloads"]) == list(WORKLOADS)
    for name, result in record["workloads"].items():
        sizes = result["sizes"]
        assert [row["agents"] for row in sizes] == [12, 24], name
        for row in sizes:
            assert row["events"] > 0 and row["wall_s"] > 0 and row["wall_rel"] > 0
            assert row["peak_rss_mb"] > 0 and len(row["wall_s_runs"]) == 1
        assert isinstance(result["slope_wall_s_vs_agents"], float)
        layers = result["layers_at_top"]
        assert layers["agents"] == 24 and "corpus.ingest" in layers["self_s"], name
    pinned = json.loads((ROOT / "scripts" / "scale_ladder.json").read_text())
    assert sorted(pinned["ladder"]["score_suite"]) == ["100", "1000", "300"]
    assert "rewired_null.report" in pinned["ladder"]["score_suite"]["1000"]
