"""The package's public surface is pinned, so a name cannot join or leave
it unnoticed."""

import uplinksim

PUBLIC = [
    "Cell", "ConfigError", "DelayStats", "EventLog", "InvariantError",
    "MetricsRecord", "Outcome", "POLICY_NAMES", "Request", "Scenario",
    "SchedulerDecision", "ServiceClass", "SubscriberStation", "TrafficSpec",
    "canonical_scenario", "claim_value", "compute_metrics", "hedf_decide",
    "make_request", "run", "simulate", "ssbpf_priority",
    "starvation_scenario", "update_historical_throughput",
    "validate_scenario",
]


def test_public_names_pinned():
    assert sorted(uplinksim.__all__) == sorted(PUBLIC)
    assert len(set(uplinksim.__all__)) == len(uplinksim.__all__)


def test_every_public_name_imports():
    namespace = {}
    exec("from uplinksim import *", namespace)
    for name in PUBLIC:
        assert namespace[name] is getattr(uplinksim, name)
