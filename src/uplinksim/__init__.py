"""Deterministic simulator of a frame-based wireless uplink, built to compare
deadline-driven and fairness-aware bandwidth scheduling policies on
throughput, delay, deadline misses, starvation and context switches."""

from .model import (Cell, ConfigError, Request, Scenario, ServiceClass,
                    SubscriberStation, TrafficSpec, canonical_scenario,
                    make_request, starvation_scenario, validate_scenario)
from .schedulers import (POLICY_NAMES, Outcome, SchedulerDecision,
                         claim_value, hedf_decide, ssbpf_priority,
                         update_historical_throughput)
from .engine import EventLog, InvariantError, run, simulate
from .metrics import DelayStats, MetricsRecord, compute_metrics

__version__ = "0.1.0"

__all__ = [
    "Cell", "ConfigError", "Request", "Scenario", "ServiceClass",
    "SubscriberStation", "canonical_scenario", "make_request",
    "validate_scenario", "TrafficSpec", "starvation_scenario",
    "POLICY_NAMES", "Outcome", "SchedulerDecision", "claim_value",
    "hedf_decide", "ssbpf_priority", "update_historical_throughput",
    "EventLog", "InvariantError", "run", "simulate", "DelayStats",
    "MetricsRecord", "compute_metrics",
]
