"""Temporal communication-network simulation engine and fidelity benchmark."""

from .corpus import Event, EventLog, ingest, serialize, window
from .hawkes import (FitConfig, HawkesModel, fit, log_likelihood,
                     sample_next_activation, simulate_pure_hawkes)
from .metrics import MetricsReport, StatsSummary, corpus_stats, evaluate_all, regret
from .simulator import (ActionDecision, AgentContext, SimConfig, TriggerPlan,
                        run, select_triggers)

__all__ = [
    "Event", "EventLog", "StatsSummary", "corpus_stats", "ingest", "serialize",
    "window", "FitConfig", "HawkesModel", "fit", "log_likelihood",
    "sample_next_activation", "simulate_pure_hawkes", "MetricsReport",
    "evaluate_all", "regret", "ActionDecision", "AgentContext", "SimConfig",
    "TriggerPlan", "run", "select_triggers",
]
