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

The engine needs no completion times for this. At arrival it files each
request under its due frame: the first frame, at or after the arrival frame,
whose closing boundary is past the deadline. A deadline at or past the
run's last boundary (infinite and NaN ones included) is never due. When a
frame opens, the engine takes the requests filed under it that are not yet
complete, in (deadline, id) order; after the grants it logs each as a miss
with its remainder. A due request's deadline is not before the frame's
opening boundary, so it met the deadline exactly when it completed before
this frame.

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

from collections import defaultdict
from dataclasses import dataclass, field
from operator import attrgetter
from typing import Dict, List

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
    left = r.left_bits
    if bits <= 0 or bits > left:
        raise InvariantError(
            f"grant of {bits} bits to request {r.id} with {left} bits remaining")
    if r.dropped:
        raise InvariantError(f"grant to dropped request {r.id}")
    r.left_bits = left = left - bits
    return not left


def simulate(scenario: Scenario, requests: List[Request]) -> EventLog:
    """Run the frame loop over an explicit, time-ordered request list."""
    delta = scenario.frame_duration
    n_frames = scenario.total_frames
    stations = scenario.stations
    by_id = {s.id: s for s in stations}
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
    # Per station: (cell id, the cell policy's on_arrival).
    arrive = {s.id: (s.cell_id, policies[s.cell_id].on_arrival)
              for s in stations}
    # Per cell: [id, capacity, policy, the request its last grant left
    # incomplete or None]; the context-switch rule of
    # metrics.count_context_switches.
    cell_runs = [[c.id, c.base_station_capacity, policies[c.id], None]
                 for c in cells]

    drop = scenario.drop_on_miss
    last_boundary = (n_frames - 1) * delta + delta
    # Requests by due frame (see the module docstring).
    due: Dict[int, List[Request]] = defaultdict(list)
    by_deadline = attrgetter("deadline", "id")

    for f in range(n_frames):
        now = f * delta
        boundary = now + delta

        for r in buckets[f]:
            sid = r.station_id
            cid, on_arrival = arrive[sid]
            log.requests[r.id] = r
            on_arrival(r)
            ev((f, r.arrival_time, "arrival", cid, sid, r.id, r.size_bits))
            d = r.deadline
            if d < boundary:
                due[f].append(r)
            elif d < last_boundary:
                # d // delta is within one frame of the due frame; the
                # boundary expression itself decides.
                g = int(d // delta)
                while g > f + 1 and d < (g - 1) * delta + delta:
                    g -= 1
                while g <= f or not d < g * delta + delta:
                    g += 1
                due[g].append(r)

        late = due.pop(f, ())
        if late:
            late = [r for r in late if r.left_bits]
            late.sort(key=by_deadline)

        for cell_run in cell_runs:
            cid, capacity, policy, open_req = cell_run
            grants = policy.allocate_frame(f, now, capacity)
            if not grants:
                continue
            total = 0
            for r, bits in grants:
                total += bits
                if open_req is not None and open_req is not r:
                    ev((f, boundary, "context_switch", cid,
                        open_req.station_id, open_req.id, 0))
                done = apply_grant(r, bits)
                sid = r.station_id
                ev((f, boundary, "grant", cid, sid, r.id, bits))
                if done:
                    open_req = None
                    ev((f, boundary, "completion", cid, sid, r.id,
                        r.size_bits))
                else:
                    open_req = r
            cell_run[3] = open_req
            if total > capacity:
                raise InvariantError(
                    f"cell {cid} granted {total} bits in frame {f}, "
                    f"capacity {capacity}")

        for r in late:
            sid = r.station_id
            rem = r.left_bits
            ev((f, boundary, "deadline_miss", arrive[sid][0], sid, r.id, rem))
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
