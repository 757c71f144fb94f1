#!/usr/bin/env python3
"""commsim performance benchmark.

Runs one workload (see perfbench/README.md) as a closed loop in this
process: one pipeline pass starts only after the previous one ends, with no
extra threads. Inputs are generated from --seed by corpusgen.py; every
pass's outputs are checked (digests, window, triggers, report size).

    python3 perfbench/run.py --workload rollout_hawkes --seed 1 --seconds 25 --trace 0

--trace 0 prints the end-to-end metrics of BENCHMARK.json, --trace 1 the
per-layer metrics from a traced run. The last stdout line is one JSON
object {correct, attempted, failed, metrics}; a fuller record (environment,
corpus SHA-256, per-pass times, digests) goes to perfbench/out/.
Run it from the repository root: it imports commsim from ./src and fails
when that is missing.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import nullcontext
from pathlib import Path

import corpusgen  # numpy only; the modules that import commsim come later
import reference

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
DIGESTS = HERE / "digests.json"
DEFAULT_SEED = 1
# corpora drawn from one seed; timed passes cycle through them, so pass-time
# medians cover several inputs and vary less from seed to seed
N_INPUTS = 8
# fresh interpreters timed per run for setup_s; the median is reported
SETUP_REPS = {"full": 5, "smoke": 1}


def import_program() -> None:
    """Put ./src first on the path; refuse to run against anything else."""
    if not (SRC / "commsim" / "__init__.py").is_file():
        sys.exit(f"error: no commsim sources under {SRC}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import commsim
    if Path(commsim.__file__).resolve().parent != (SRC / "commsim").resolve():
        sys.exit(f"error: imported commsim from {commsim.__file__}, not {SRC}")


def measure_setup(reps: int) -> list[float]:
    times = []
    for _ in range(reps):
        t = time.perf_counter()
        subprocess.run([sys.executable, str(HERE / "warmup.py")], cwd=ROOT,
                       check=True, stdout=subprocess.DEVNULL)
        times.append(time.perf_counter() - t)
    return times


def environment() -> dict:
    import networkx
    import numpy
    import scipy

    sha = "unknown (not a git checkout)"
    try:
        git = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=30)
        lines = git.stdout.split()
        if git.returncode == 0 and Path(lines[0]).resolve() == ROOT:
            sha = lines[1]
    except (OSError, subprocess.TimeoutExpired):
        pass
    src = hashlib.sha256()
    for path in sorted((SRC / "commsim").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "git_sha": sha,
        "src_sha256": src.hexdigest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "networkx": networkx.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": cpu,
    }


class Inputs:
    """The seed's family of N_INPUTS corpora, each generated and written on
    first use, outside any timed region."""

    def __init__(self, workload, size: str, seed: int, tag: str):
        self.workload, self.size, self.seed, self.tag = workload, size, seed, tag
        self.paths: dict[int, str] = {}
        self.record: dict[str, dict] = {}

    def path(self, k: int) -> str:
        if k not in self.paths:
            n_agents, rate = self.workload.sizes[self.size]
            data = corpusgen.to_jsonl(corpusgen.generate(
                n_agents, self.workload.n_days, rate, self.seed, k))
            path = OUT / f"corpus-{self.tag}-{k}.jsonl"
            path.write_bytes(data)
            self.paths[k] = str(path)
            self.record[str(k)] = {"sha256": corpusgen.sha256(data),
                                   "events": data.count(b"\n"), "agents": n_agents,
                                   "days": self.workload.n_days}
        return self.paths[k]


def run_passes(workload, inputs: Inputs, seconds: float, pinned: dict, tracer) -> dict:
    """Warm-up pass, then timed passes until `seconds` have gone by, cycling
    through the inputs. Each timed pass is preceded by one run of the
    reference computation. With a tracer, untraced and traced passes
    alternate and each kind cycles through the inputs in the same order."""
    import pipeline

    walls = {False: [], True: []}
    refs: list[float] = []  # reference seconds, one before each timed pass
    attempted = failed = 0
    expected = dict(pinned)  # corpus index -> digests every pass must match
    errors: list[str] = []

    def one(k: int, traced: bool, timed: bool) -> None:
        nonlocal attempted, failed
        path = inputs.path(k)
        if timed:
            refs.append(reference.run())
        attempted += 1
        t = time.perf_counter()
        try:
            with tracer.traced_pass() if traced else nullcontext():
                out = workload.run_pass(path)
        except Exception:  # a failed pass is counted, the run goes on
            wall = time.perf_counter() - t
            failed += 1
            errors.append(traceback.format_exc())
            print(errors[-1], file=sys.stderr)
        else:
            wall = time.perf_counter() - t
            got = {"corpus": inputs.record[str(k)]["sha256"], **pipeline.digests(out)}
            found = pipeline.problems(out, got, expected.get(str(k)))
            expected.setdefault(str(k), got)  # later passes must reproduce it
            if found:
                failed += 1
                errors.extend(f"corpus {k}: {p}" for p in found)
                print("\n".join(errors[-len(found):]), file=sys.stderr)
        if timed:
            walls[traced].append(wall)

    one(0, traced=False, timed=False)
    reference.run()  # warm-up: the first run is slower than the rest
    start = time.perf_counter()
    traced = False
    while time.perf_counter() - start < seconds or not walls[False] or (
            tracer is not None and not walls[True]):
        one(len(walls[traced]) % N_INPUTS, traced, timed=True)
        if tracer is not None:
            traced = not traced
    return {"attempted": attempted, "failed": failed, "walls": walls[False],
            "refs": refs, "traced_walls": walls[True], "digests": expected,
            "errors": errors}


def fmt(value) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "smoke"), default="full",
                    help="smoke: tiny inputs for the benchmark's own test")
    args = ap.parse_args(argv)

    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        bench = json.load(fh)
    import_program()
    import pipeline
    import spans

    if args.workload not in pipeline.WORKLOADS:
        ap.error(f"unknown workload {args.workload!r}; "
                 f"choose from {', '.join(pipeline.WORKLOADS)}")
    workload = pipeline.WORKLOADS[args.workload]
    OUT.mkdir(exist_ok=True)
    tag = f"{workload.name}-s{args.seed}-{args.size}-t{args.trace}"

    setup = [] if args.trace else measure_setup(SETUP_REPS[args.size])

    pinned = {}
    if args.seed == DEFAULT_SEED:
        with open(DIGESTS, encoding="utf-8") as fh:
            pinned = json.load(fh).get(args.size, {}).get(workload.name, {})

    inputs = Inputs(workload, args.size, args.seed, tag)
    tracer = spans.Tracer() if args.trace else None
    res = run_passes(workload, inputs, args.seconds, pinned, tracer)
    walls = res["walls"]
    wall_s = statistics.median(walls)

    if args.trace:
        layers = tracer.pass_layers()
        values = {key: statistics.median(p[key] for p in layers) for key in layers[0]}
        values["trace.overhead_s"] = statistics.median(res["traced_walls"]) - wall_s
        wanted = bench["per_layer"]
    else:
        values = {
            "wall_rel": wall_s / statistics.median(res["refs"]),
            "setup_s": statistics.median(setup),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        wanted = bench["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    error_rate = res["failed"] / res["attempted"]

    record = {
        "workload": workload.name, "seed": args.seed, "size": args.size,
        "trace": args.trace, "seconds": args.seconds,
        "environment": environment(),
        "corpora": inputs.record,
        "setup_samples_s": setup, "pass_walls_s": walls,
        "reference_s": res["refs"], "wall_s": wall_s,
        "traced_pass_walls_s": res["traced_walls"],
        "attempted": res["attempted"], "failed": res["failed"], "error_rate": error_rate,
        "digests": res["digests"], "pinned": bool(pinned),
        "errors": res["errors"], "metrics": metrics,
    }
    if args.trace:
        record["layers"] = values
        tracer.write(OUT / f"spans-{tag}.jsonl")
    with open(OUT / f"result-{tag}.json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=2, sort_keys=True)
        fh.write("\n")

    events = [c["events"] for c in inputs.record.values()]
    print(f"{workload.name} seed={args.seed} size={args.size}: {len(events)} corpora of "
          f"{min(events)}-{max(events)} events; {len(walls)} timed passes "
          f"(+1 warm-up{' and traced' if args.trace else ''}); digests checked against "
          f"{'pinned values' if pinned else 'the first pass on each corpus'}")
    if args.trace:
        by_self = sorted((k for k in values if k.endswith(".self_s")),
                         key=lambda k: -values[k])
        print("largest self time: " + ", ".join(
            f"{k[:-len('.self_s')]} {values[k]:.3f}s" for k in by_self[:4]))
    else:
        print(f"wall_rel and wall_s: median of {len(walls)} passes (wall_s min "
              f"{min(walls):.4f}, max {max(walls):.4f}); setup_s: median of "
              f"{len(setup)} fresh processes")
    for name, m in metrics.items():
        print(f"  {name:<44} {fmt(m['value']):>12} {m['unit']}")
    if not args.trace:
        print(f"  {'wall_s':<44} {fmt(wall_s):>12} s (not gated: see README)")
    print(f"  {'error_rate':<44} {fmt(error_rate):>12} ratio "
          f"({res['failed']} failed / {res['attempted']} attempted)")
    print(json.dumps({"correct": res["failed"] == 0, "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
