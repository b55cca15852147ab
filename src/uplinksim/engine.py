"""Deterministic frame-stepped simulation loop.

Each frame, in order: (1) hand the arrivals whose time falls inside the
frame to their cell's policy (at the frame start, so a request can be served
in its arrival frame), (2) let every policy grant its cell's capacity as
``(request, bits)`` pairs, (3) apply the grants,
(4) record completions and deadline misses at the closing frame boundary.
Step (2) calls every cell's policy, idle cells included, so that a ranking
policy steps its stations' smoothed throughputs every frame (see
``schedulers``). The log's ``final_station_throughput`` merges the ranking
policies' end-of-run throughputs into one fresh dict; it is empty under
``rr``, ``wrr`` and ``edf``.

Frame ``f`` opens at ``f*delta`` and closes at ``f*delta + delta``, computed
as exactly these float expressions (see ``metrics.load_events_csv``).

Deadline-miss rule: at the first closing boundary strictly past its
deadline, a request that did not complete at or before the deadline is
logged once as a deadline_miss. A deadline exactly on a boundary is still
pending at that boundary. Missed requests stay queued and are served late,
unless the scenario sets ``drop_on_miss``, which marks them dropped.

The engine needs no completion times for this. Before allocating a frame
it takes each request whose deadline is before the frame's closing boundary
and that is not yet complete; after the grants it logs each as a miss with
its remainder. Such a deadline is not before the frame's opening boundary,
so the request met it exactly when it completed before this frame.

Event records are 7-tuples ``(frame, time_ms, event, cell, station, request,
bits)``. Arrivals carry their true arrival time; grant, completion,
deadline_miss and context_switch records are stamped at the closing boundary
of their frame, which keeps the log time-ordered. The ``bits`` column holds
the request size for arrivals and completions, the granted bits for grants,
the unserved remainder for deadline misses, and 0 for context switches.

A run never mutates its Scenario, whose values are frozen: the run's state
is the requests, regenerated from the scenario seed, and its policies, so
running the same scenario twice gives byte-identical logs.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from .model import ConfigError, Request, Scenario, validate_scenario
from .schedulers import make_policy
from .traffic import build_requests

EVENT_TYPES = ("arrival", "grant", "completion", "deadline_miss",
               "context_switch")


class InvariantError(Exception):
    """An internal consistency check failed; the run is aborted."""


@dataclass
class EventLog:
    """Complete, time-ordered record of one run."""

    frame_duration_ms: float
    total_frames: int
    drop_on_miss: bool = False
    station_ids: List[int] = field(default_factory=list)  # ascending
    events: List[tuple] = field(default_factory=list)
    # Request objects by id; for logs reloaded from CSV this holds the
    # lighter ReqInfo view, which has no service class (see
    # metrics.load_events_csv).
    requests: Dict[int, object] = field(default_factory=dict)
    # Smoothed per-station throughput at end of run (bits/frame), for the
    # stations of ranking policies only.
    final_station_throughput: Dict[int, float] = field(default_factory=dict)

    @property
    def duration_s(self) -> float:
        return self.total_frames * self.frame_duration_ms / 1000.0


def apply_grant(r: Request, bits: int) -> bool:
    """Advance a request by one grant of ``bits``; True when it completes.

    Over-grants and grants to dropped requests abort the run: a policy that
    emits one is buggy and continuing would corrupt every downstream metric.
    """
    rem = r.size_bits - r.served_bits
    if bits <= 0 or bits > rem:
        raise InvariantError(
            f"grant of {bits} bits to request {r.id} with {rem} bits remaining")
    if r.dropped:
        raise InvariantError(f"grant to dropped request {r.id}")
    r.served_bits += bits
    return r.served_bits == r.size_bits


def simulate(scenario: Scenario, requests: List[Request]) -> EventLog:
    """Run the frame loop over an explicit, time-ordered request list."""
    delta = scenario.frame_duration
    n_frames = scenario.total_frames
    stations = scenario.stations
    by_id = {s.id: s for s in stations}
    cell_of: Dict[int, int] = {s.id: s.cell_id for s in stations}
    cells = scenario.cells

    log = EventLog(
        frame_duration_ms=delta,
        total_frames=n_frames,
        drop_on_miss=scenario.drop_on_miss,
        station_ids=sorted(by_id),
    )
    ev = log.events.append

    buckets: List[List[Request]] = [[] for _ in range(n_frames)]
    for r in requests:
        f = int(r.arrival_time // delta)
        if 0 <= f < n_frames:
            buckets[f].append(r)

    policies = {c.id: make_policy(scenario.scheduler_name, c, by_id,
                                  scenario.ewma_alpha, delta)
                for c in cells}
    on_arrival = {sid: policies[cid].on_arrival
                  for sid, cid in cell_of.items()}
    cell_runs = [(c.id, c.base_station_capacity, policies[c.id])
                 for c in cells]

    drop = scenario.drop_on_miss
    miss_heap: List[Tuple[float, int, Request]] = []
    # The frame's due requests that were not complete when it opened.
    late: List[Request] = []
    # Per cell: (last granted request, was it incomplete after that grant);
    # the context-switch rule of metrics.count_context_switches.
    prev_grant: Dict[int, Tuple[Optional[Request], bool]] = {}

    for f in range(n_frames):
        now = f * delta
        boundary = now + delta

        for r in buckets[f]:
            sid = r.station_id
            log.requests[r.id] = r
            on_arrival[sid](r)
            ev((f, r.arrival_time, "arrival", cell_of[sid], sid, r.id,
                r.size_bits))
            heapq.heappush(miss_heap, (r.deadline, r.id, r))

        late.clear()
        while miss_heap and miss_heap[0][0] < boundary:
            r = heapq.heappop(miss_heap)[2]
            if r.served_bits < r.size_bits:
                late.append(r)

        for cid, capacity, policy in cell_runs:
            grants = policy.allocate_frame(f, now, capacity)
            if not grants:
                continue
            total = 0
            prev, prev_open = prev_grant.get(cid, (None, False))
            for r, bits in grants:
                total += bits
                if prev_open and prev is not r:
                    ev((f, boundary, "context_switch", cid, prev.station_id,
                        prev.id, 0))
                done = apply_grant(r, bits)
                sid = r.station_id
                ev((f, boundary, "grant", cid, sid, r.id, bits))
                prev, prev_open = r, not done
                if done:
                    ev((f, boundary, "completion", cid, sid, r.id,
                        r.size_bits))
            prev_grant[cid] = (prev, prev_open)
            if total > capacity:
                raise InvariantError(
                    f"cell {cid} granted {total} bits in frame {f}, "
                    f"capacity {capacity}")

        for r in late:
            rem = r.size_bits - r.served_bits
            ev((f, boundary, "deadline_miss", cell_of[r.station_id],
                r.station_id, r.id, rem))
            if drop and rem > 0:
                r.dropped = True

    log.final_station_throughput = {
        sid: th for p in policies.values() for sid, th in p.throughput.items()}
    return log


def run(scenario: Scenario):
    """Validate, then simulate a scenario; returns (EventLog, MetricsRecord)."""
    violations = validate_scenario(scenario)
    if violations:
        raise ConfigError(violations)
    requests = build_requests(scenario)
    log = simulate(scenario, requests)
    from .metrics import compute_metrics  # engine <-> metrics one-way at import
    return log, compute_metrics(log)
