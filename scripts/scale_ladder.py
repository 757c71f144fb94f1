#!/usr/bin/env python3
"""Scaling ladder, agents axis: the four perfbench workloads at growing sizes.

Each workload runs at 100, 300 and 1000 agents (`--sizes smoke`: 12 and 24),
over its own days and at its full-size events per agent-day, so events grow in
proportion to agents. The corpora are perfbench's `corpusgen` (seed 1, corpus
0), written under out/ladder/. Each size runs `--reps` fresh processes; each
process runs the reference computation, then one pass, and reports the pass
wall time, `wall_rel` (pass time over reference time, as perfbench's gated
metric), its peak RSS and the SHA-256 of every output. One more process at the
top size runs the pass traced by perfbench's spans, for the layer split
(`corpus.ingest` is a layer of its own).

Every process's digests must equal those pinned in scripts/scale_ladder.json;
a mismatch fails the run. The result goes to BENCH_scale.json: per size the
median wall time, median `wall_rel`, median peak RSS, events and agents; per
workload the log-log slope of wall time against agents, and the layer split.

    python scripts/scale_ladder.py                  # the ladder, about a minute
    python scripts/scale_ladder.py --sizes smoke --reps 1 --output /tmp/scale.json

`--pin` records the digests instead of checking them; use it only on code
whose outputs are known to be right. The script reads perfbench/ and never
changes it.
"""

from __future__ import annotations

import argparse
import json
import math
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "perfbench"), str(ROOT / "src")]

import corpusgen  # noqa: E402  (perfbench/, numpy only)

PINNED = Path(__file__).with_suffix(".json")
CORPORA = ROOT / "out" / "ladder"
SEED, CORPUS_INDEX = 1, 0
SIZES = {"ladder": (100, 300, 1000), "smoke": (12, 24)}
# workload -> (days, events per agent-day), as pipeline.WORKLOADS' full size
WORKLOADS = {"rollout_hawkes": (28, 1.0), "rollout_periodic": (28, 1.0),
             "score_suite": (14, 1.3), "fit_full": (21, 1.0)}


def peak_rss_mb() -> float:
    """This process's peak resident set. Linux's ru_maxrss of a child started
    by fork and exec also counts the parent's resident set at the fork, so
    the high-water mark of the process's own address space is read first."""
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            return next(int(line.split()[1]) for line in fh if line.startswith("VmHWM:")) / 1024
    except (OSError, StopIteration):
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def child(workload: str, path: str, traced: bool) -> dict:
    """One pass of `workload` on the corpus at `path` in this process."""
    import pipeline
    import reference
    import spans

    run_pass = pipeline.WORKLOADS[workload].run_pass
    tracer = spans.Tracer() if traced else None
    reference.run()  # warm-up: the first run is slower than the rest
    ref = reference.run()
    t = time.perf_counter()
    if tracer is None:
        out = run_pass(path)
    else:
        with tracer.traced_pass():
            out = run_pass(path)
    wall = time.perf_counter() - t
    digests = pipeline.digests(out)
    found = pipeline.problems(out, digests, None)
    if found:
        raise SystemExit(f"{workload} on {path}: " + "; ".join(found))
    result = {"wall_s": wall, "ref_s": ref, "wall_rel": wall / ref, "digests": digests,
              "peak_rss_mb": peak_rss_mb()}
    if tracer is not None:
        layers = tracer.pass_layers()[0]
        self_s = {key[:-len(".self_s")]: value for key, value in layers.items()
                  if key.endswith(".self_s") and layers[key[:-len("self_s")] + "calls"]}
        result["self_s"] = dict(sorted(self_s.items(), key=lambda kv: -kv[1]))
        result["other_s"] = wall - sum(self_s.values())
    return result


def spawn(workload: str, path: Path, traced: bool) -> dict:
    argv = [sys.executable, __file__, "--child", workload, str(path)]
    proc = subprocess.run(argv + (["--traced"] if traced else []), cwd=ROOT,
                          capture_output=True, text=True, check=False)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(argv)} failed:\n{proc.stderr}")
    return json.loads(proc.stdout)


def corpus_file(agents: int, days: int, rate: float) -> tuple[Path, dict]:
    data = corpusgen.to_jsonl(corpusgen.generate(agents, days, rate, SEED, CORPUS_INDEX))
    path = CORPORA / f"corpus-{agents}a-{days}d-{rate}r.jsonl"
    CORPORA.mkdir(parents=True, exist_ok=True)
    path.write_bytes(data)
    return path, {"corpus": corpusgen.sha256(data), "events": data.count(b"\n")}


def slope(xs, ys) -> float:
    """Least-squares slope of log(ys) against log(xs)."""
    lx, ly = [math.log(x) for x in xs], [math.log(y) for y in ys]
    mx, my = statistics.fmean(lx), statistics.fmean(ly)
    return (sum((a - mx) * (b - my) for a, b in zip(lx, ly))
            / sum((a - mx) ** 2 for a in lx))


def ladder(sizes: str, reps: int, pin: bool) -> tuple[dict, list[str]]:
    pinned = json.loads(PINNED.read_text()) if PINNED.exists() else {}
    table = pinned.setdefault(sizes, {})
    problems = []
    result = {}
    for name, (days, rate) in WORKLOADS.items():
        rows = []
        for agents in SIZES[sizes]:
            path, corpus = corpus_file(agents, days, rate)
            runs = [spawn(name, path, traced=False) for _ in range(reps)]
            if agents == SIZES[sizes][-1]:
                traced = spawn(name, path, traced=True)
                runs.append(traced)
            want = table.setdefault(name, {}).get(str(agents))
            for run in runs:
                got = {"corpus": corpus["corpus"], **run["digests"]}
                if pin and want is None:
                    want = table[name][str(agents)] = got
                if got != want:
                    problems.append(f"{name} at {agents} agents: digests differ from "
                                    f"{PINNED.name}: {got} != {want}")
            timed = runs[:reps]
            rows.append({
                "agents": agents, "events": corpus["events"],
                "wall_s": statistics.median(r["wall_s"] for r in timed),
                "wall_rel": statistics.median(r["wall_rel"] for r in timed),
                "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in timed),
                "wall_s_runs": [round(r["wall_s"], 4) for r in timed],
                "peak_rss_mb_runs": [round(r["peak_rss_mb"], 1) for r in timed],
            })
            print(f"{name:<17} {agents:>5} agents {corpus['events']:>6} events  "
                  f"wall {rows[-1]['wall_s']:.3f} s  wall_rel {rows[-1]['wall_rel']:.3f}  "
                  f"peak {rows[-1]['peak_rss_mb']:.1f} MiB", flush=True)
        result[name] = {
            "days": days, "events_per_agent_day": rate, "sizes": rows,
            "slope_wall_s_vs_agents": slope([r["agents"] for r in rows],
                                            [r["wall_s"] for r in rows]),
            "layers_at_top": {"agents": rows[-1]["agents"], "wall_s": traced["wall_s"],
                              "self_s": traced["self_s"], "other_s": traced["other_s"]},
        }
    if pin:
        PINNED.write_text(json.dumps(pinned, indent=2, sort_keys=True) + "\n")
    return result, problems


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--sizes", choices=tuple(SIZES), default="ladder")
    ap.add_argument("--reps", type=int, default=3, help="fresh processes per size")
    ap.add_argument("--output", default=str(ROOT / "BENCH_scale.json"))
    ap.add_argument("--pin", action="store_true",
                    help="record the digests of sizes not yet pinned instead of failing")
    ap.add_argument("--child", nargs=2, metavar=("WORKLOAD", "CORPUS"), help=argparse.SUPPRESS)
    ap.add_argument("--traced", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.child:
        print(json.dumps(child(*args.child, args.traced)))
        return 0
    if args.reps < 1:
        ap.error("--reps must be at least 1")

    import numpy
    started = time.perf_counter()
    workloads, problems = ladder(args.sizes, args.reps, args.pin)
    record = {
        "axis": "agents", "sizes": args.sizes, "seed": SEED, "corpus_index": CORPUS_INDEX,
        "reps": args.reps,
        "environment": {"python": platform.python_version(), "numpy": numpy.__version__,
                        "machine": platform.machine()},
        "ladder_s": time.perf_counter() - started,
        "workloads": workloads,
    }
    Path(args.output).write_text(json.dumps(record, indent=2) + "\n")
    for problem in problems:
        print(f"error: {problem}", file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
