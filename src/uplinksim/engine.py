"""Deterministic frame-stepped simulation loop.

Each frame, in order: (1) hand the arrivals whose time falls inside the
frame to their cell's policy (at the frame start, so a request can be served
in its arrival frame), (2) let every policy grant its cell's capacity as
``(request, bits)`` pairs, (3) apply the grants,
(4) record completions and deadline misses at the closing frame boundary.
Arrivals are read by walking the time-ordered request list, so the loop
keeps no per-frame request lists. Step (2) calls every cell's policy, idle
cells included, so that a ranking policy steps its stations' smoothed
throughputs every frame (see ``schedulers``). The log's
``final_station_throughput`` merges the ranking policies' end-of-run
throughputs into one fresh dict; it is empty under ``rr``, ``wrr`` and
``edf``.

Frame ``f`` opens at ``f*delta`` and closes at ``frame_close(f, delta)``,
``f*delta + delta``, computed as exactly these float expressions (see
``metrics.load_events_csv``). A run computes its closing boundaries once.

Deadline-miss rule: at the first closing boundary strictly past its
deadline, a request that did not complete at or before the deadline is
logged once as a deadline_miss. A deadline exactly on a boundary is still
pending at that boundary. Missed requests stay queued and are served late,
unless the scenario sets ``drop_on_miss``, which marks them dropped.

The engine needs no completion times for this. At arrival it files each
request under its due frame: the first frame, at or after the arrival frame,
whose closing boundary is past the deadline, found by bisection over the
run's non-decreasing closing boundaries. A deadline at or past the run's
last boundary (infinite and NaN ones included) is never due. When a frame
opens, the engine takes the requests filed under it that are not yet
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
Equal values share one int: an untouched request's whole grant and its
completion carry the request's ``size_bits`` object, and equal partial-grant
bit counts and the remainders they leave come from one table per run.

A run never mutates its Scenario, whose values are frozen: the run's state
is the requests, regenerated from the scenario seed, and its policies, so
running the same scenario twice gives byte-identical logs.
"""

from __future__ import annotations

import math
from bisect import bisect_right
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


def frame_close(f: int, delta: float) -> float:
    """The closing boundary of frame ``f``: the stamp of its non-arrival
    events."""
    return f * delta + delta


def simulate(scenario: Scenario, requests: List[Request]) -> EventLog:
    """Run the frame loop over an explicit, time-ordered request list.

    Arrivals are read in list order, so a request whose arrival frame is
    below the previous request's raises ValueError. Arrivals before frame 0
    or at or past the horizon never arrive.
    """
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
    closes = [frame_close(f, delta) for f in range(n_frames)]
    # Requests by due frame (see the module docstring).
    due: Dict[int, List[Request]] = defaultdict(list)
    by_deadline = attrgetter("deadline", "id")
    # One int per distinct partial-grant or remainder value.
    share = {}.setdefault
    # requests[i] is the first request not yet read.
    i, n_req, last = 0, len(requests), -math.inf

    for f in range(n_frames):
        now = f * delta
        boundary = closes[f]

        while i < n_req:
            r = requests[i]
            a = int(r.arrival_time // delta)
            if a > f:
                break
            i += 1
            if a < f:
                # Only frame 0 reads arrivals of earlier frames in order:
                # those before its own arrivals, which are skipped (``last``
                # is the latest one's frame). Read anywhere else, such an
                # arrival follows one in frame f: the list is out of order.
                if log.requests or a < last:
                    raise _out_of_order(r, a, f if log.requests else last)
                last = a
                continue
            sid = r.station_id
            cid, on_arrival = arrive[sid]
            log.requests[r.id] = r
            on_arrival(r)
            ev((f, r.arrival_time, "arrival", cid, sid, r.id, r.size_bits))
            g = bisect_right(closes, r.deadline, f)
            if g < n_frames:
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
                if not done:
                    bits = share(bits, bits)
                    left = r.left_bits
                    r.left_bits = share(left, left)
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

    # Requests past the horizon never arrive, but their order is checked.
    last = -math.inf
    for r in requests[i:]:
        a = int(r.arrival_time // delta)
        if a < last:
            raise _out_of_order(r, a, last)
        last = a

    log.final_station_throughput = {
        sid: th for p in policies.values() for sid, th in p.throughput.items()}
    return log


def _out_of_order(r: Request, a: int, last: int) -> ValueError:
    return ValueError(f"request {r.id} arrives in frame {a}, before frame "
                      f"{last} of the request listed before it")


def run(scenario: Scenario):
    """Validate, then simulate a scenario; returns (EventLog, MetricsRecord)."""
    violations = validate_scenario(scenario)
    if violations:
        raise ConfigError(violations)
    requests = build_requests(scenario)
    log = simulate(scenario, requests)
    from .metrics import compute_metrics  # engine <-> metrics one-way at import
    return log, compute_metrics(log)
