"""Command-line pipeline: stats, fit, simulate, evaluate, compare.

Every command writes its primary outputs under --out with fixed filenames
(stats.json, model.json, sim.jsonl, report.json/report.csv, compare.json/
compare.csv) plus a manifest.json recording the command, config snapshot,
seed, input digests, wall time and counters. A command writes under --out
only through `Manifest.write`, so the manifest lists every file written,
also when the command fails, and it is written then too. Exit codes:
0 success, 1 computation error, 2 usage/input error.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import sys
import time
from pathlib import Path

import numpy as np

from . import agents, corpus, hawkes, metrics, simulator, timeutil


def _sha256(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


class Manifest:
    def __init__(self, command: str, out_dir: Path, config: dict, seed: int | None):
        self.data = {
            "command": command,
            "config": config,
            "seed": seed,
            "inputs": {},
            "outputs": [],
            "counters": {},
            "status": "error",
            "error": None,
            "wall_time_seconds": None,
        }
        self.out_dir = out_dir
        self._start = time.monotonic()

    def add_input(self, path) -> None:
        self.data["inputs"][str(path)] = _sha256(path)

    def write(self, name: str, text: str) -> None:
        """Write `text` to --out/name, then list that path among the outputs."""
        path = self.out_dir / name
        path.write_text(text, encoding="utf-8")
        self.data["outputs"].append(str(path))

    def finish(self, status: str, error: str | None = None) -> None:
        self.data["status"] = status
        self.data["error"] = error
        self.data["wall_time_seconds"] = round(time.monotonic() - self._start, 3)
        # the text is taken before write appends its path: the manifest does not list itself
        self.write("manifest.json", _json_text(self.data))


def _json_text(payload: dict) -> str:
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


class UsageError(Exception):
    """Bad user input that no narrower error type covers (exit 2)."""


def _require(mapping: dict, key: str, source) -> object:
    """mapping[key] from a user-supplied file; a missing key is a usage error."""
    try:
        return mapping[key]
    except KeyError:
        raise UsageError(f"{source}: missing key {key!r}") from None


def _read_file(reader, path):
    """reader(path) for a user-supplied JSON file; a missing key or a value of
    the wrong type, shape or range (HawkesError is a ValueError) is a usage
    error naming the file."""
    try:
        return reader(path)
    except KeyError as exc:
        raise UsageError(f"{path}: missing key {exc}") from None
    except (TypeError, ValueError) as exc:
        raise UsageError(f"{path}: {exc}") from None


def _parse_window(t0: str, t1: str) -> tuple[int, int]:
    """(t0, t1) from --t0 and --t1; a bad time or t1 <= t0 is a usage error."""
    try:
        window = (timeutil.parse_utc(t0), timeutil.parse_utc(t1))
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    if window[1] <= window[0]:
        raise UsageError(f"--t1 {t1} is not after --t0 {t0}")
    return window


USAGE_ERRORS = (FileNotFoundError, IsADirectoryError, PermissionError,
                corpus.CorpusError, json.JSONDecodeError, UsageError)


def _guarded(args) -> int:
    """args.func(args, manifest), then the manifest, whatever the command
    raised; returns the exit code. --out is made first: where it cannot be a
    directory (an existing file, or a path under one), no command runs and no
    manifest can be written, and that is a usage error."""
    try:
        Path(args.out).mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        print(f"error: --out: {exc}", file=sys.stderr)
        return 2
    manifest = Manifest(args.command, Path(args.out),
                        {k: v for k, v in vars(args).items() if k != "func"},
                        getattr(args, "seed", None))
    try:
        args.func(args, manifest)
    except Exception as exc:
        manifest.finish("error", f"{type(exc).__name__}: {exc}")
        print(f"error: {exc}", file=sys.stderr)
        return 2 if isinstance(exc, USAGE_ERRORS) else 1
    manifest.finish("ok")
    return 0


# ---------------------------------------------------------------------------
# stats


def cmd_stats(args, manifest: Manifest) -> None:
    manifest.add_input(args.input)
    rows = metrics.corpus_stats(corpus.ingest(args.input, args.format)).to_dict()
    manifest.write("stats.json", _json_text(rows))
    width = max(len(k) for k in rows)
    for key, val in rows.items():
        if key == "time_span":
            val = f"{timeutil.format_utc(val[0])} .. {timeutil.format_utc(val[1])}"
        elif isinstance(val, float):
            val = f"{val:.4f}"
        print(f"{key:<{width}}  {val}")


# ---------------------------------------------------------------------------
# fit


def cmd_fit(args, manifest: Manifest) -> None:
    manifest.add_input(args.input)
    window = _parse_window(args.t0, args.t1)
    try:
        cfg = hawkes.FitConfig(diagonal_only=not args.full_matrix, beta_override=args.beta)
    except hawkes.HawkesError as exc:
        raise UsageError(str(exc)) from None
    log = corpus.ingest(args.input, args.format)
    model = hawkes.fit(log, window, cfg, counters=manifest.data["counters"])
    manifest.write("model.json", model.to_json())
    manifest.data["counters"]["beta_per_hour"] = model.beta_per_hour
    manifest.data["counters"]["stability_warning"] = model.stability_warning
    print(f"fitted {model.n_agents} agents, beta={model.beta_per_hour:.6g}/h")


# ---------------------------------------------------------------------------
# simulate


def _load_sim_config(path) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        cfg = json.load(fh)
    if not isinstance(cfg, dict):
        raise TypeError(f"config must be a JSON object, not {type(cfg).__name__}")
    return cfg


def _build_policy(name: str, cfg: dict, periodic, guided: dict, fit_cfg, log,
                  hist_window, counters: dict):
    if name == "periodic":
        return periodic
    if name == "llm-predicted":
        return simulator.LLMPredicted()
    if name == "hod":
        return simulator.EmpiricalHoD(simulator.hod_histograms(corpus.window(log, *hist_window)))
    if cfg.get("model") is not None:  # hawkes, the one policy left; null fits
        model = _read_file(hawkes.load_model, cfg["model"])
        if model.agents != log.agents:
            raise UsageError(f"{cfg['model']}: model agents differ from the corpus registry")
    else:
        model = hawkes.fit(log, hist_window, fit_cfg, counters=counters)
    return simulator.HawkesGuided(model, **guided)


def cmd_simulate(args, manifest: Manifest) -> None:
    manifest.add_input(args.config)
    cfg = _read_file(_load_sim_config, args.config)
    input_path = _require(cfg, "input", args.config)
    manifest.add_input(input_path)
    log = corpus.ingest(input_path, **{k: v for k, v in cfg.items() if k == "format"})
    window = _require(cfg, "window", args.config)
    if not isinstance(window, list) or len(window) != 2:
        raise UsageError(f"{args.config}: window must be [start, end]")
    # each consumer checks its settings before the policy, which may fit a model;
    # here only keys a consumer may not see (--seed, other policies) or renames
    try:
        corpus.check_kinds(cfg, TypeError, seed=int, llm_adjusts_next_check=bool,
                           periodic_interval_hours=float)
        t0 = timeutil.parse_utc(str(window[0]))
        t1 = timeutil.parse_utc(str(window[1]))
        # the keys the config holds: each dataclass keeps its own defaults
        settings = {key: cfg[key] for key in ("history_days", "trigger_ratio", "seed",
                                              "max_actions_per_wake") if key in cfg}
        if args.seed is not None:
            settings["seed"] = args.seed
        sim_config = simulator.SimConfig(window=(t0, t1), **settings)
        guided = {k: v for k, v in cfg.items() if k == "llm_adjusts_next_check"}
        hist_window = (t0 - sim_config.history_days * 86400, t0)
        triggers = simulator.select_triggers(log, hist_window,
                                             sim_config.trigger_ratio, (t0, t1))
        periodic = simulator.PeriodicSchedule(
            **{"interval_hours": v for k, v in cfg.items() if k == "periodic_interval_hours"})
        fit_cfg = hawkes.FitConfig(**cfg.get("fit", {}))
        llm_cfg = (agents.LLMEndpointConfig(**_require(cfg, "llm", args.config))
                   if args.agent == "llm" else None)
        model_path = cfg.get("model")
        if model_path is not None and not isinstance(model_path, str):
            raise TypeError(f"model must be a file path, not {model_path!r}")  # open(3) reads fd 3
    except (ValueError, TypeError, OverflowError, agents.AgentError) as exc:
        # SimulationError and HawkesError are ValueErrors, a missing or unknown
        # keyword a TypeError, int(Infinity) an OverflowError, LLMEndpointConfig an AgentError
        raise UsageError(f"{args.config}: {exc}") from None
    manifest.data["seed"] = sim_config.seed
    counters = manifest.data["counters"]
    policy = _build_policy(args.policy, cfg, periodic, guided, fit_cfg, log, hist_window,
                           counters)
    sim_config = dataclasses.replace(sim_config, policy=policy)
    policy_impl = (agents.LLMPolicy(llm_cfg) if args.agent == "llm" else agents.StubPolicy(
        agents.stub_params_from_history(log, hist_window, sim_config.seed)))
    try:
        sim_log = simulator.run(sim_config, log, policy_impl, triggers, counters=counters)
    except simulator.SimulationAborted as exc:
        manifest.write("sim.partial.jsonl", corpus.serialize(exc.partial_log))
        raise
    manifest.write("sim.jsonl", corpus.serialize(sim_log))
    labels = sorted(log.agents[i] for i in triggers.trigger_agents)
    manifest.write("triggers.json", _json_text({"trigger_agents": labels}))
    if isinstance(policy_impl, agents.LLMPolicy):
        counters["llm_calls"] = policy_impl.calls
        counters["llm_retries"] = policy_impl.retries
    manifest.data["trigger_agents"] = labels
    print(f"simulated {counters.get('organic_events', 0)} organic + "
          f"{counters.get('trigger_events', 0)} trigger events")


# ---------------------------------------------------------------------------
# evaluate & compare


def _default_window(log: corpus.EventLog) -> tuple[int, int]:
    ts = log.ts
    t0 = int(timeutil.day_index(ts[0])) * 86400
    t1 = (int(timeutil.day_index(ts[-1])) + 1) * 86400
    return t0, t1


def cmd_evaluate(args, manifest: Manifest) -> None:
    manifest.add_input(args.sim)
    manifest.add_input(args.gt)
    sim = corpus.ingest(args.sim)
    gt = corpus.ingest(args.gt)
    if not len(gt):
        raise corpus.CorpusError(f"{args.gt}: ground truth has no events")
    if sim.agents != gt.agents:
        # simulated logs only contain active agents; align on gt registry
        sim = _align_registry(sim, gt)
    trigger_agents: set[int] = set()
    if args.triggers:
        manifest.add_input(args.triggers)
        labels = _read_file(_load_trigger_labels, args.triggers)
        trigger_agents = {gt.index_of(lbl) for lbl in labels}
    if args.t0 is None and args.t1 is None:
        window = _default_window(sim if len(sim) else gt)
    elif args.t0 is None or args.t1 is None:
        raise UsageError("--t0 and --t1 must be given together")
    else:
        window = _parse_window(args.t0, args.t1)
    span = gt.span(*window)
    if span.start == span.stop:
        raise corpus.CorpusError("ground truth has no events in the window")
    report = metrics.evaluate_all(sim, gt, trigger_agents, window)
    manifest.write("report.json", report.to_json() + "\n")
    manifest.write("report.csv", report.to_csv())
    flagged = sum(1 for e in report.entries if e.flags or e.skipped)
    manifest.data["counters"]["flagged_metrics"] = flagged
    for e in report.entries:
        shown = "skipped: " + e.skipped if e.skipped else f"{e.value:.6f}"
        print(f"{e.name:<10} {e.category:<18} {shown}")


def _load_trigger_labels(path) -> list[str]:
    """A JSON list of trigger agent labels (strings), or an object whose
    `trigger_agents` is one."""
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    labels = data["trigger_agents"] if isinstance(data, dict) else data
    # list() would read the string "ab" as the two labels a and b
    if error := corpus.kind_error("trigger labels", labels, list):
        raise ValueError(error)
    return labels


def _align_registry(sim: corpus.EventLog, gt: corpus.EventLog) -> corpus.EventLog:
    """Re-index a simulated log onto the ground-truth registry (labels must
    be a subset)."""
    index = np.array([gt.index_of(lbl) for lbl in sim.agents], dtype=np.int64)
    ids, ts, senders, counts, recipients, threads, bodies = corpus._record_columns(sim)
    return corpus._from_columns(gt.agents, ids, ts, index[senders], counts, index[recipients],
                                threads, bodies)


def _load_report(path) -> metrics.MetricsReport:
    with open(path, "r", encoding="utf-8") as fh:
        return metrics.report_from_dict(json.load(fh))


def cmd_compare(args, manifest: Manifest) -> None:
    results: dict[str, dict[str, float]] = {}
    categories: dict[str, str] = {}
    flags: list[str] = []
    paths: dict[str, str] = {}  # setting -> its report's path
    for path in args.reports:
        manifest.add_input(path)
        report = _read_file(_load_report, path)
        name = Path(path).parent.name or Path(path).stem
        if name in paths:
            raise UsageError(f"setting {name!r} named twice: {paths[name]} and {path}")
        paths[name] = path
        categories.update((e.name, e.category) for e in report.entries)
        results[name], report_flags = metrics.regret_scores(report, name)
        flags.extend(report_flags)
    table, regret_flags = metrics.regret(results, categories)
    flags.extend(regret_flags)
    manifest.write("compare.json", _json_text({"regret": table, "flags": flags}))
    categories = sorted({c for per in table.values() for c in per})
    lines = ["setting," + ",".join(categories)]
    for setting in sorted(table):
        row = [setting] + [f"{table[setting].get(c, float('nan')):.6f}"
                           for c in categories]
        lines.append(",".join(row))
    manifest.write("compare.csv", "\n".join(lines) + "\n")
    print("\n".join(lines))



# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="commsim",
                                description="communication network simulation and fidelity benchmark")
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("stats", help="summarize an event log")
    sp.add_argument("input")
    sp.add_argument("--format", choices=["jsonl", "csv"], default="jsonl")
    sp.add_argument("--out", required=True)
    sp.set_defaults(func=cmd_stats)

    fp = sub.add_parser("fit", help="fit the activation model")
    fp.add_argument("input")
    fp.add_argument("--format", choices=["jsonl", "csv"], default="jsonl")
    fp.add_argument("--t0", required=True, help="window start (UTC or epoch)")
    fp.add_argument("--t1", required=True, help="window end (UTC or epoch)")
    fp.add_argument("--beta", type=float, default=None,
                    help="override decay rate (1/hour)")
    fp.add_argument("--full-matrix", action="store_true",
                    help="fit the full excitation matrix instead of diagonal")
    fp.add_argument("--out", required=True)
    fp.set_defaults(func=cmd_fit)

    mp = sub.add_parser("simulate", help="run a simulation from a config file")
    mp.add_argument("config", help="JSON simulation config")
    mp.add_argument("--policy", choices=["periodic", "llm-predicted", "hod", "hawkes"],
                    default="hawkes")
    mp.add_argument("--agent", choices=["stub", "llm"], default="stub")
    mp.add_argument("--seed", type=int, default=None,
                    help="override the config seed; all randomness derives "
                         "from it through named sub-streams")
    mp.add_argument("--out", required=True)
    mp.set_defaults(func=cmd_simulate)

    ep = sub.add_parser("evaluate", help="score a simulated log against ground truth")
    ep.add_argument("sim")
    ep.add_argument("gt")
    ep.add_argument("--triggers", default=None,
                    help="JSON file with trigger agent labels")
    ep.add_argument("--t0", default=None)
    ep.add_argument("--t1", default=None)
    ep.add_argument("--out", required=True)
    ep.set_defaults(func=cmd_evaluate)

    cp = sub.add_parser("compare", help="aggregate reports into a regret table")
    cp.add_argument("reports", nargs="+")
    cp.add_argument("--out", required=True)
    cp.set_defaults(func=cmd_compare)
    return p


def main(argv=None) -> int:
    return _guarded(build_parser().parse_args(argv))


if __name__ == "__main__":
    sys.exit(main())
