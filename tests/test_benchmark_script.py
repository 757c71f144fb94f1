"""Pins every file `scripts/run_benchmark.py` writes on the mini corpus.

The desk benchmark runs the whole pipeline (fit, four stub rollouts, the
pure-Hawkes rollout, the rewired null, evaluation and regret), so a change
anywhere in the package that alters what it computes shows here as a
changed digest.
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

DIGESTS = {
    "regret.json": "1a5610af9a13d1793f961eabf3685abd60d19e364a1c2bb4fa4b3367a1f715ac",
    "hawkes_guided/report.csv": "7b898955913778f8d5afebe0e1878bad3f82b44a86bda08ae7de65a5f2d979a5",
    "hawkes_guided/report.json": "f4f3b2a31ad73ad0fc7e890cdc047c76d9315ecf28ba265c950c105ceff55c33",
    "hawkes_guided/sim.jsonl": "1c0e9e4dae53deb84377df087e84aff2273f5fc9b48c50c0a74c3692f169212b",
    "hod/report.csv": "41f59faf7c6ac1bad5fe28cc43a4282f674f5c2e1a51af9739c22de90bfa5af6",
    "hod/report.json": "c430e8ec7fd08ef4bf9dde33d19af412110a39d82f9835cc231049a128d130b2",
    "hod/sim.jsonl": "928b03bce6ebba9423c3523b52a9bec4c81888d97967cfb96cd78f741650307c",
    "periodic/report.csv": "f25888503e5579d2e4d50b3367643596e0f138bf56e3f8d3f252b6869f977e82",
    "periodic/report.json": "f20a599eabc4a5274a57f8deab1056fef278c1c8434ae210ac90b53d594e9e26",
    "periodic/sim.jsonl": "2860936801d0cb346e73e7310541040b3bf2fabfe36399dc4d1ac8397c07b0d0",
    "pure_hawkes/report.csv": "7ded1c933f8a68ff8432b8d3a5a67d84659bf67d6970b9376d411cc5774b92ae",
    "pure_hawkes/report.json": "1d8ce239212c71a390db4b103f34b5ac76ac3eb8cccff30ac19a52d596ee0662",
    "pure_hawkes/sim.jsonl": "b7704f957bef0266221fa27fcc43d08fe10f5f2c3db355ccbb3bea175aaae196",
    "rewired_null/report.csv": "388823c2da22b637fe44cb22124febbbb271ecfd97e1cc0f56143425c303dcf8",
    "rewired_null/report.json": "149c52e2ee9ac4734a8366072354c1052bec737fd4bbb629e94c6b7d124f8d9a",
    "rewired_null/sim.jsonl": "9929babf3c969ed4667b14d73cdf8ed7a1ae7a0f0d9db8f91cc6abeaf638c491",
}


def test_run_benchmark_outputs_pinned(tmp_path):
    out = tmp_path / "bench"
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / "run_benchmark.py"),
                           "--out", str(out)], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    written = sorted(str(p.relative_to(out)) for p in out.rglob("*") if p.is_file())
    assert written == sorted(DIGESTS)
    for name, want in DIGESTS.items():
        assert hashlib.sha256((out / name).read_bytes()).hexdigest() == want, name
