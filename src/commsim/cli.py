"""Command-line pipeline: stats, fit, simulate, evaluate, compare.

Every command writes its primary outputs under --out with fixed filenames
(stats.json, model.json, sim.jsonl, report.json/report.csv, compare.json/
compare.csv) plus a manifest.json recording the command, config snapshot,
seed, input digests, wall time and counters. The manifest is written even
when the command fails. Exit codes: 0 success, 1 computation error,
2 usage/input error.
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

    def add_output(self, path) -> None:
        self.data["outputs"].append(str(path))

    def finish(self, status: str, error: str | None = None) -> None:
        self.data["status"] = status
        self.data["error"] = error
        self.data["wall_time_seconds"] = round(time.monotonic() - self._start, 3)
        self.out_dir.mkdir(parents=True, exist_ok=True)
        path = self.out_dir / "manifest.json"
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.data, fh, indent=2, sort_keys=True)
            fh.write("\n")


def _write_json(path: Path, payload: dict) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _write_text(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


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


def _guarded(command: str, args, fn) -> int:
    out_dir = Path(args.out)
    manifest = Manifest(command, out_dir,
                        {k: v for k, v in vars(args).items() if k != "func"},
                        getattr(args, "seed", None))
    try:
        fn(manifest)
    except USAGE_ERRORS as exc:
        manifest.finish("error", f"{type(exc).__name__}: {exc}")
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        manifest.finish("error", f"{type(exc).__name__}: {exc}")
        print(f"error: {exc}", file=sys.stderr)
        return 1
    manifest.finish("ok")
    return 0


# ---------------------------------------------------------------------------
# stats


def cmd_stats(args) -> int:
    def body(manifest: Manifest):
        manifest.add_input(args.input)
        log = corpus.ingest(args.input, args.format)
        summary = metrics.corpus_stats(log)
        out = Path(args.out) / "stats.json"
        _write_json(out, summary.to_dict())
        manifest.add_output(out)
        rows = summary.to_dict()
        width = max(len(k) for k in rows)
        for key, val in rows.items():
            if key == "time_span":
                val = f"{timeutil.format_utc(val[0])} .. {timeutil.format_utc(val[1])}"
            elif isinstance(val, float):
                val = f"{val:.4f}"
            print(f"{key:<{width}}  {val}")

    return _guarded("stats", args, body)


# ---------------------------------------------------------------------------
# fit


def cmd_fit(args) -> int:
    def body(manifest: Manifest):
        manifest.add_input(args.input)
        window = _parse_window(args.t0, args.t1)
        try:
            cfg = hawkes.FitConfig(diagonal_only=not args.full_matrix,
                                   beta_override=args.beta)
        except hawkes.HawkesError as exc:
            raise UsageError(str(exc)) from None
        log = corpus.ingest(args.input, args.format)
        model = hawkes.fit(log, window, cfg, counters=manifest.data["counters"])
        out = Path(args.out) / "model.json"
        out.parent.mkdir(parents=True, exist_ok=True)
        hawkes.save_model(model, out)
        manifest.add_output(out)
        manifest.data["counters"]["beta_per_hour"] = model.beta_per_hour
        manifest.data["counters"]["stability_warning"] = model.stability_warning
        print(f"fitted {model.n_agents} agents, beta={model.beta_per_hour:.6g}/h")

    return _guarded("fit", args, body)


# ---------------------------------------------------------------------------
# simulate


def _load_sim_config(path) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        cfg = json.load(fh)
    if not isinstance(cfg, dict):
        raise TypeError(f"config must be a JSON object, not {type(cfg).__name__}")
    return cfg


def _build_policy(name: str, cfg: dict, periodic, follows: bool, fit_cfg, log,
                  hist_window, counters: dict):
    hist = corpus.window(log, *hist_window)
    if name == "periodic":
        return periodic
    if name == "llm-predicted":
        return simulator.LLMPredicted()
    if name == "hod":
        return simulator.EmpiricalHoD(simulator.hod_histograms(hist))
    if name == "hawkes":
        if cfg.get("model"):
            model = _read_file(hawkes.load_model, cfg["model"])
            if model.agents != log.agents:
                raise UsageError(f"{cfg['model']}: model agents differ from the corpus registry")
        else:
            model = hawkes.fit(log, hist_window, fit_cfg, counters=counters)
        return simulator.HawkesGuided(model, llm_adjusts_next_check=follows)
    raise ValueError(f"unknown policy {name!r}")


def cmd_simulate(args) -> int:
    def body(manifest: Manifest):
        manifest.add_input(args.config)
        cfg = _read_file(_load_sim_config, args.config)
        input_path = _require(cfg, "input", args.config)
        manifest.add_input(input_path)
        log = corpus.ingest(input_path, cfg.get("format", "jsonl"))
        window = _require(cfg, "window", args.config)
        if not isinstance(window, list) or len(window) != 2:
            raise UsageError(f"{args.config}: window must be [start, end]")
        # each consumer checks its settings before the policy, which may fit a model;
        # here only keys a consumer may not see (--seed, other policies) or renames
        try:
            corpus.check_kinds(cfg, TypeError, seed=int, llm_adjusts_next_check=bool,
                               periodic_interval_hours=float)
            seed = args.seed if args.seed is not None else cfg.get("seed", 42)
            t0 = timeutil.parse_utc(str(window[0]))
            t1 = timeutil.parse_utc(str(window[1]))
            sim_config = simulator.SimConfig(
                window=(t0, t1),
                history_days=cfg.get("history_days", 32),
                trigger_ratio=cfg.get("trigger_ratio", 0.10),
                seed=seed,
                max_actions_per_wake=cfg.get("max_actions_per_wake", 5),
            )
            follows = cfg.get("llm_adjusts_next_check", False)
            hist_window = (t0 - sim_config.history_days * 86400, t0)
            triggers = simulator.select_triggers(log, hist_window,
                                                 sim_config.trigger_ratio, (t0, t1))
            periodic = simulator.PeriodicSchedule(cfg.get("periodic_interval_hours", 3.0))
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
        manifest.data["seed"] = seed
        counters = manifest.data["counters"]
        policy = _build_policy(args.policy, cfg, periodic, follows, fit_cfg, log, hist_window,
                               counters)
        sim_config = dataclasses.replace(sim_config, policy=policy)
        if args.agent == "stub":
            params = agents.stub_params_from_history(log, hist_window, seed)
            policy_impl = agents.StubPolicy(params)
        elif args.agent == "llm":
            policy_impl = agents.LLMPolicy(llm_cfg)
        else:
            raise ValueError(f"unknown agent {args.agent!r}")

        out = Path(args.out)
        try:
            sim_log = simulator.run(sim_config, log, policy_impl, triggers,
                                    counters=counters)
        except simulator.SimulationAborted as exc:
            partial = out / "sim.partial.jsonl"
            out.mkdir(parents=True, exist_ok=True)
            corpus.save(exc.partial_log, partial)
            manifest.add_output(partial)
            raise
        sim_path = out / "sim.jsonl"
        out.mkdir(parents=True, exist_ok=True)
        corpus.save(sim_log, sim_path)
        manifest.add_output(sim_path)
        triggers_path = out / "triggers.json"
        _write_json(triggers_path, {
            "trigger_agents": sorted(log.agents[i] for i in triggers.trigger_agents),
        })
        manifest.add_output(triggers_path)
        if isinstance(policy_impl, agents.LLMPolicy):
            counters["llm_calls"] = policy_impl.calls
            counters["llm_retries"] = policy_impl.retries
        manifest.data["trigger_agents"] = sorted(
            log.agents[i] for i in triggers.trigger_agents)
        print(f"simulated {counters.get('organic_events', 0)} organic + "
              f"{counters.get('trigger_events', 0)} trigger events")

    return _guarded("simulate", args, body)


# ---------------------------------------------------------------------------
# evaluate & compare


def _default_window(log: corpus.EventLog) -> tuple[int, int]:
    ts = log.ts
    t0 = int(timeutil.day_index(ts[0])) * 86400
    t1 = (int(timeutil.day_index(ts[-1])) + 1) * 86400
    return t0, t1


def cmd_evaluate(args) -> int:
    def body(manifest: Manifest):
        manifest.add_input(args.sim)
        manifest.add_input(args.gt)
        sim = corpus.ingest(args.sim)
        gt = corpus.ingest(args.gt)
        if not gt.events:
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
            window = _default_window(sim if sim.events else gt)
        elif args.t0 is None or args.t1 is None:
            raise UsageError("--t0 and --t1 must be given together")
        else:
            window = _parse_window(args.t0, args.t1)
        if not gt.events[gt.span(*window)]:
            raise corpus.CorpusError("ground truth has no events in the window")
        report = metrics.evaluate_all(sim, gt, trigger_agents, window)
        out = Path(args.out)
        _write_text(out / "report.json", report.to_json() + "\n")
        _write_text(out / "report.csv", report.to_csv())
        manifest.add_output(out / "report.json")
        manifest.add_output(out / "report.csv")
        flagged = sum(1 for e in report.entries if e.flags or e.skipped)
        manifest.data["counters"]["flagged_metrics"] = flagged
        for e in report.entries:
            shown = "skipped: " + e.skipped if e.skipped else f"{e.value:.6f}"
            print(f"{e.name:<10} {e.category:<18} {shown}")

    return _guarded("evaluate", args, body)


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
    mapping = {}
    for i, lbl in enumerate(sim.agents):
        mapping[i] = gt.index_of(lbl)
    events = tuple(
        corpus.Event(e.event_id, mapping[e.sender],
                     tuple(mapping[r] for r in e.recipients),
                     e.ts, e.thread_id, e.body)
        for e in sim.events)
    return corpus.EventLog(gt.agents, events)


def _load_report(path) -> metrics.MetricsReport:
    with open(path, "r", encoding="utf-8") as fh:
        return metrics.report_from_dict(json.load(fh))


def cmd_compare(args) -> int:
    def body(manifest: Manifest):
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
        out = Path(args.out)
        payload = {"regret": table, "flags": flags}
        _write_json(out / "compare.json", payload)
        manifest.add_output(out / "compare.json")
        categories = sorted({c for per in table.values() for c in per})
        lines = ["setting," + ",".join(categories)]
        for setting in sorted(table):
            row = [setting] + [f"{table[setting].get(c, float('nan')):.6f}"
                               for c in categories]
            lines.append(",".join(row))
        _write_text(out / "compare.csv", "\n".join(lines) + "\n")
        manifest.add_output(out / "compare.csv")
        print("\n".join(lines))

    return _guarded("compare", args, body)


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
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
