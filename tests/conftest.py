"""Shared test helpers: a minimal single-cell policy harness that mimics the
engine's grant application without events or metrics, a linear-scan EDF
oracle, and a per-(station, frame) starvation-window oracle."""

from typing import Dict, List, Optional, Sequence

from uplinksim.model import (Cell, Request, ServiceClass, SubscriberStation,
                             make_request)
from uplinksim.schedulers import Grants, SchedulerPolicy, make_policy


def edf_select(candidates: Sequence[Request]) -> Request:
    """The request that is due first by a linear scan; ties break on earlier
    arrival, then lower id."""
    if not candidates:
        raise ValueError("edf_select requires a nonempty candidate list")
    best = candidates[0]
    for r in candidates[1:]:
        if (r.deadline, r.arrival_time, r.id) < \
                (best.deadline, best.arrival_time, best.id):
            best = r
    return best


def starvation_windows_oracle(log) -> Dict[int, float]:
    """Per station, the longest backlogged interval without a single grant,
    by per-(station, frame) tallies and a walk over every frame of the run.

    Frame-granular: a frame counts toward a window when the station holds
    unserved bits after that frame's arrivals and ends the frame without a
    single granted bit.
    """
    arrived: Dict[int, Dict[int, int]] = {sid: {} for sid in log.station_ids}
    removed: Dict[int, Dict[int, int]] = {sid: {} for sid in log.station_ids}
    granted_in: Dict[int, set] = {sid: set() for sid in log.station_ids}
    for e in log.events:
        kind = e[2]
        sid = e[4]
        frame = e[0]
        if kind == "arrival":
            d = arrived[sid]
            d[frame] = d.get(frame, 0) + e[6]
        elif kind == "grant":
            d = removed[sid]
            d[frame] = d.get(frame, 0) + e[6]
            granted_in[sid].add(frame)
        elif kind == "deadline_miss" and log.drop_on_miss and e[6] > 0:
            d = removed[sid]
            d[frame] = d.get(frame, 0) + e[6]

    out: Dict[int, float] = {}
    delta = log.frame_duration_ms
    for sid in log.station_ids:
        backlog = 0
        current = 0
        best = 0
        arr = arrived[sid]
        rem = removed[sid]
        got = granted_in[sid]
        for f in range(log.total_frames):
            backlog += arr.get(f, 0)
            if backlog > 0 and f not in got:
                current += 1
                if current > best:
                    best = current
            else:
                current = 0
            backlog -= rem.get(f, 0)
        out[sid] = best * delta
    return out


class PolicyHarness:
    """Drives one policy over one cell, applying grants like the engine."""

    def __init__(self, policy_name: str, n_stations: int = 1,
                 capacity: int = 1000, frame_ms: float = 5.0,
                 station_caps: Optional[List[int]] = None):
        self.frame_ms = frame_ms
        self.capacity = capacity
        caps = station_caps or [capacity] * n_stations
        self.stations: Dict[int, SubscriberStation] = {
            i: SubscriberStation(id=i, cell_id=0, capacity_c=caps[i])
            for i in range(n_stations)}
        self.cell = Cell(id=0, base_station_capacity=capacity,
                         station_ids=list(range(n_stations)))
        self.policy: SchedulerPolicy = make_policy(
            policy_name, self.cell, self.stations, frame_ms)
        self._next_id = 0
        self.requests: Dict[int, Request] = {}

    def arrive(self, station_id: int, size_bits: int, arrival: float,
               service_class: ServiceClass = ServiceClass.RTPS,
               deadline: Optional[float] = None,
               request_id: Optional[int] = None) -> Request:
        if request_id is None:
            request_id = self._next_id
        r = make_request(request_id, station_id, service_class, arrival,
                         size_bits)
        if deadline is not None:
            r.deadline = deadline
        self._next_id = max(self._next_id, request_id) + 1
        self.requests[r.id] = r
        self.policy.on_arrival(r)
        return r

    def backlog(self) -> int:
        return sum(r.size_bits - r.served_bits
                   for r in self.requests.values() if not r.dropped)

    def frame(self, frame_index: int,
              capacity: Optional[int] = None) -> Grants:
        cap = self.capacity if capacity is None else capacity
        now = frame_index * self.frame_ms
        grants = self.policy.allocate_frame(frame_index, now, cap)
        assert sum(bits for _, bits in grants) <= cap
        for r, bits in grants:
            assert self.requests[r.id] is r and not r.dropped
            assert 0 < bits <= r.size_bits - r.served_bits
            r.served_bits += bits
        return grants
