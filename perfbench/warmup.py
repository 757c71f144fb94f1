"""One warm-up pass in a fresh interpreter: import commsim and run the
pipeline on the bundled mini corpus, as a CLI user pays it on every run.

run.py starts this file as a child process and times it from outside;
`setup_s` is the median of those times. Usage (from the repo root):

    python3 perfbench/warmup.py
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from commsim import agents, corpus, hawkes, metrics, simulator  # noqa: E402

BASE = 983750400  # first day of the mini corpus
DAY = 86400


def main() -> None:
    log = corpus.ingest(ROOT / "tests" / "data" / "mini_corpus.jsonl")
    hist = (BASE, BASE + 4 * DAY)
    window = (BASE + 4 * DAY, BASE + 12 * DAY)
    model = hawkes.fit(log, hist)
    plan = simulator.select_triggers(log, hist, 0.10, window)
    params = agents.stub_params_from_history(log, hist, seed=42)
    cfg = simulator.SimConfig(window=window, history_days=4, seed=42,
                              policy=simulator.HawkesGuided(model))
    sim = simulator.run(cfg, log, agents.StubPolicy(params), plan)
    report = metrics.evaluate_all(sim, log, plan.trigger_agents, window)
    if len(report.entries) != 15:
        sys.exit(f"warm-up report has {len(report.entries)} entries, want 15")


if __name__ == "__main__":
    main()
