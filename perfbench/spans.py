"""Traced mode: spans around commsim's public functions, kept in memory.

The tracer wraps functions by replacing module attributes for the duration
of a traced pass and restores them afterwards; the program itself is not
edited. The agent is wrapped in a delegating timing policy (StubPolicy is a
frozen dataclass and stays untouched). A span is (name, start, end, parent
span, pass); self time is a span's duration minus that of its direct
children.
"""

from __future__ import annotations

import functools
import json
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

from commsim import agents, baselines, corpus, hawkes, metrics, simulator

MODULES = {"agents": agents, "baselines": baselines, "corpus": corpus,
           "hawkes": hawkes, "metrics": metrics, "simulator": simulator}

# every function a traced pass wraps, as <module>.<function>
TRACED = (
    "corpus.ingest",
    "hawkes.fit",
    "hawkes.simulate_pure_hawkes",
    "hawkes.sample_next_activation",
    "simulator.run",
    "simulator.build_context",
    "baselines.rewire_degree_preserving",
    "metrics.evaluate_all",
    "metrics.exclude_triggers",
    "metrics.motif_census_2",
    "metrics.motif_census_3",
    "metrics.daily_topology_series",
    "metrics.daily_edge_sets",
    "metrics.centrality_jaccard",
    "metrics.regret",
)
DECIDE = "agents.decide"
RUN_COUNTERS = ("wakes", "organic_events")


class Tracer:
    def __init__(self):
        self.spans: list[list] = []          # [name, start, end, parent, pass]
        self.counts: list[Counter] = []      # one per traced pass
        self._stack: list[int] = []

    def _record(self, name, fn, *args, **kwargs):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        span = [name, time.perf_counter(), None, parent, len(self.counts) - 1]
        self.spans.append(span)
        self._stack.append(idx)
        try:
            return fn(*args, **kwargs)
        finally:
            self._stack.pop()
            span[2] = time.perf_counter()

    def _wrap(self, name, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self._record(name, fn, *args, **kwargs)
        return traced

    def _wrap_run(self, fn):
        @functools.wraps(fn)
        def traced(*args, counters=None, **kwargs):
            counters = {} if counters is None else counters
            result = self._record("simulator.run", fn, *args, counters=counters, **kwargs)
            for key in RUN_COUNTERS:
                self.counts[-1][f"simulator.{key}"] += counters.get(key, 0)
            return result
        return traced

    def _wrap_stub(self, cls):
        tracer = self

        class TimedPolicy:
            """Delegating AgentPolicy that times and counts decisions."""

            def __init__(self, *args, **kwargs):
                self.inner = cls(*args, **kwargs)

            def decide(self, ctx):
                decision = tracer._record(DECIDE, self.inner.decide, ctx)
                tracer.counts[-1]["agents.decisions"] += 1
                tracer.counts[-1]["agents.idle"] += decision.idle
                return decision

        return TimedPolicy

    @contextmanager
    def traced_pass(self):
        """Wrap every TRACED function (and the stub agent) for one pass."""
        self.counts.append(Counter())
        saved = []
        try:
            for qual in TRACED:
                mod_name, attr = qual.split(".")
                mod = MODULES[mod_name]
                fn = getattr(mod, attr)
                saved.append((mod, attr, fn))
                setattr(mod, attr, self._wrap_run(fn) if qual == "simulator.run"
                        else self._wrap(qual, fn))
            saved.append((agents, "StubPolicy", agents.StubPolicy))
            agents.StubPolicy = self._wrap_stub(agents.StubPolicy)
            yield
        finally:
            for mod, attr, fn in reversed(saved):
                setattr(mod, attr, fn)

    def pass_layers(self) -> list[dict[str, float]]:
        """Per traced pass: <name>.s, <name>.self_s and <name>.calls for every
        wrapped function (0 when not called), plus counters and ratios."""
        child_s = defaultdict(float)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_s[parent] += end - start
        out = []
        for p, counts in enumerate(self.counts):
            layer = {}
            for name in TRACED + (DECIDE,):
                layer.update({f"{name}.s": 0.0, f"{name}.self_s": 0.0, f"{name}.calls": 0})
            for idx, (name, start, end, _, pass_no) in enumerate(self.spans):
                if pass_no != p:
                    continue
                layer[f"{name}.s"] += end - start
                layer[f"{name}.self_s"] += end - start - child_s[idx]
                layer[f"{name}.calls"] += 1
            for key in RUN_COUNTERS:
                layer[f"simulator.{key}"] = counts[f"simulator.{key}"]
            run_s = layer["simulator.run.s"]
            layer["simulator.wakes_per_s"] = counts["simulator.wakes"] / run_s if run_s else 0.0
            decisions = counts["agents.decisions"]
            layer["agents.idle_ratio"] = counts["agents.idle"] / decisions if decisions else 0.0
            out.append(layer)
        return out

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, pass_no in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "pass": pass_no}) + "\n")
