"""Tracing for the traced run: in-memory spans and a separate counting pass.

Spans are recorded only at coarse boundaries: the benchmark's own step, the
public functions each layer calls in another module (wrapped in the
namespace where the caller looks them up), and each ``allocate_frame`` call.
Per-grant functions are counted, not timed, in a separate pass, because a
wrapper on them costs as much as the work they do.
"""

from __future__ import annotations

import contextlib
import functools
import json
import os
from collections import Counter
from time import perf_counter
from typing import Callable, Dict, Iterator, List, Optional, Tuple

import uplinksim.cli
import uplinksim.engine
import uplinksim.metrics
import uplinksim.schedulers
import uplinksim.traffic

# (module, attribute, span name). The span name is the layer that owns the
# function; the module is where its caller looks it up.
TRACE_POINTS = (
    (uplinksim.cli, "load_scenario", "cli.load_scenario"),
    (uplinksim.cli, "validate_scenario", "model.validate_scenario"),
    (uplinksim.cli, "run", "engine.run"),
    (uplinksim.cli, "write_events_csv", "metrics.write_events_csv"),
    (uplinksim.cli, "write_summary_csv", "metrics.write_summary_csv"),
    (uplinksim.cli, "load_events_csv", "metrics.load_events_csv"),
    (uplinksim.cli, "compute_metrics", "metrics.compute_metrics"),
    (uplinksim.engine, "run", "engine.run"),
    (uplinksim.engine, "validate_scenario", "model.validate_scenario"),
    (uplinksim.engine, "build_requests", "traffic.build_requests"),
    (uplinksim.engine, "simulate", "engine.simulate"),
    (uplinksim.traffic, "build_requests", "traffic.build_requests"),
    (uplinksim.metrics, "compute_metrics", "metrics.compute_metrics"),
    (uplinksim.metrics, "compute_starvation_windows",
     "metrics.compute_starvation_windows"),
)

ALLOCATE = "schedulers.allocate_frame"


def _policy_classes():
    """Policy classes that define their own ``allocate_frame``."""
    return [cls for cls in uplinksim.schedulers.POLICIES.values()
            if "allocate_frame" in vars(cls)]


def _measure(name: str, args, result) -> Optional[dict]:
    """Sizes recorded on a span, for per-unit rates."""
    if name == "traffic.build_requests":
        return {"requests": len(result)}
    if name == "engine.simulate":
        sc = args[0]
        return {"cell_frames": len(sc.cells) * sc.total_frames}
    if name == "metrics.write_events_csv":
        return {"bytes": os.path.getsize(result)}
    return None


@contextlib.contextmanager
def patched(replacements: List[Tuple[object, str, object]]) -> Iterator[None]:
    """Set attributes for the duration of the block, then restore them."""
    saved = [(obj, attr, vars(obj)[attr]) for obj, attr, _ in replacements]
    try:
        for obj, attr, new in replacements:
            setattr(obj, attr, new)
        yield
    finally:
        for obj, attr, old in reversed(saved):
            setattr(obj, attr, old)


class Tracer:
    """Spans kept in memory as ``[id, name, start, end, parent, run, extra]``.

    ``allocate_frame`` calls are folded into one span per (parent span,
    policy) whose ``extra`` holds the call count, the summed busy time and
    the grants returned; the calls never overlap, so the summed time is what
    they cover of the parent.
    """

    def __init__(self) -> None:
        self.spans: List[list] = []
        self.run: Optional[str] = None
        self._stack: List[int] = []
        self._aggregates: Dict[Tuple[Optional[int], str], list] = {}

    def _open(self, name: str) -> list:
        parent = self._stack[-1] if self._stack else None
        rec = [len(self.spans), name, perf_counter(), 0.0, parent, self.run,
               None]
        self.spans.append(rec)
        self._stack.append(rec[0])
        return rec

    def _close(self, rec: list) -> None:
        rec[3] = perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str, run: str) -> Iterator[list]:
        self.run = run
        rec = self._open(name)
        try:
            yield rec
        finally:
            self._close(rec)

    def _wrap(self, name: str, fn: Callable) -> Callable:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(rec)
            rec[6] = _measure(name, args, result)
            return result
        return traced

    def _wrap_allocate(self, fn: Callable) -> Callable:
        aggregates = self._aggregates

        @functools.wraps(fn)
        def traced(policy, frame, now, capacity):
            start = perf_counter()
            grants = fn(policy, frame, now, capacity)
            end = perf_counter()
            parent = self._stack[-1] if self._stack else None
            key = (parent, policy.name)
            rec = aggregates.get(key)
            if rec is None:
                rec = [len(self.spans), f"{ALLOCATE}.{policy.name}", start,
                       end, parent, self.run,
                       {"calls": 0, "busy": 0.0, "grants": 0}]
                self.spans.append(rec)
                aggregates[key] = rec
            rec[3] = end
            extra = rec[6]
            extra["calls"] += 1
            extra["busy"] += end - start
            extra["grants"] += len(grants)
            return grants
        return traced

    def installed(self):
        """Context manager that wraps every trace point."""
        replacements = [(module, attr, self._wrap(name, vars(module)[attr]))
                        for module, attr, name in TRACE_POINTS]
        replacements += [
            (cls, "allocate_frame",
             self._wrap_allocate(vars(cls)["allocate_frame"]))
            for cls in _policy_classes()]
        return patched(replacements)

    def write(self, fh) -> None:
        """One JSON object per span, one span per line."""
        keys = ("id", "name", "start", "end", "parent", "run", "extra")
        for rec in self.spans:
            fh.write(json.dumps(dict(zip(keys, rec))) + "\n")


def self_times(spans: List[list]) -> Dict[int, float]:
    """Span duration minus the time its child spans cover."""
    child_time: Dict[int, float] = {}
    for rec in spans:
        if rec[4] is not None:
            covered = rec[6]["busy"] if rec[1].startswith(ALLOCATE) \
                else rec[3] - rec[2]
            child_time[rec[4]] = child_time.get(rec[4], 0.0) + covered
    return {rec[0]: rec[3] - rec[2] - child_time.get(rec[0], 0.0)
            for rec in spans}


class Counts:
    """The counting pass: exact call counts of per-grant functions and the
    event mix of every simulated log, with no timing."""

    def __init__(self) -> None:
        self.calls: Counter = Counter()
        self.events: Counter = Counter()
        self.switches = 0
        # Cell-frames of runs in which the policy ranked stations.
        self.ranked_cell_frames = 0

    def _count(self, key: str, fn: Callable) -> Callable:
        calls = self.calls

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            calls[key] += 1
            return fn(*args, **kwargs)
        return counted

    def _count_decide(self, fn: Callable) -> Callable:
        switch = uplinksim.schedulers.Outcome.SWITCH

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            decision = fn(*args, **kwargs)
            self.calls["schedulers.hedf_decide"] += 1
            if decision.outcome is switch:
                self.switches += 1
            return decision
        return counted

    def _count_simulate(self, fn: Callable) -> Callable:
        @functools.wraps(fn)
        def counted(scenario, requests):
            ranked_before = self.calls["schedulers.ssbpf_priority"]
            log = fn(scenario, requests)
            if self.calls["schedulers.ssbpf_priority"] > ranked_before:
                self.ranked_cell_frames += (len(scenario.cells)
                                            * scenario.total_frames)
            self.events.update(e[2] for e in log.events)
            return log
        return counted

    def installed(self):
        engine, schedulers = uplinksim.engine, uplinksim.schedulers
        return patched([
            (engine, "apply_grant",
             self._count("engine.apply_grant", engine.apply_grant)),
            (engine, "simulate", self._count_simulate(engine.simulate)),
            (schedulers, "ssbpf_priority",
             self._count("schedulers.ssbpf_priority",
                         schedulers.ssbpf_priority)),
            (schedulers, "hedf_decide",
             self._count_decide(schedulers.hedf_decide)),
        ])
