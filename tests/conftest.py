"""Shared test helpers: a minimal single-cell policy harness that applies
grants through the engine's ``apply_grant`` without events or metrics, a
linear-scan EDF oracle, a per-(station, frame) starvation-window oracle, a
counter of hedf's keep-or-preempt checks per frame, and a tuple-keyed
traffic oracle."""

import math
from contextlib import contextmanager
from typing import Dict, List, Optional, Sequence, Tuple

import pytest

from uplinksim import schedulers
from uplinksim.engine import apply_grant
from uplinksim.model import (Cell, ConfigError, Request, Scenario,
                             ServiceClass, SubscriberStation, TrafficSpec,
                             make_request)
from uplinksim.schedulers import Grants, SchedulerPolicy, make_policy
from uplinksim.traffic import IDS_PER_STATION, stream_rng


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


@contextmanager
def hedf_checks_per_frame():
    """Within the block, count ``hedf_decide`` calls per
    ``HeuristicEdfPolicy.allocate_frame`` call; yields the list of counts,
    one per call in call order."""
    counts: List[int] = []
    decide = schedulers.hedf_decide
    allocate = schedulers.HeuristicEdfPolicy.allocate_frame

    def counting_decide(mu, next_deadline):
        counts[-1] += 1
        return decide(mu, next_deadline)

    def counting_allocate(self, frame, now, capacity):
        counts.append(0)
        return allocate(self, frame, now, capacity)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(schedulers, "hedf_decide", counting_decide)
        mp.setattr(schedulers.HeuristicEdfPolicy, "allocate_frame",
                   counting_allocate)
        yield counts


class PolicyHarness:
    """Drives one policy over one cell, applying grants with the engine's
    ``apply_grant``, which refuses an over-grant or a grant to a dropped
    request."""

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
            policy_name, self.cell, self.stations, Scenario.ewma_alpha,
            frame_ms)
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
        return sum(r.left_bits
                   for r in self.requests.values() if not r.dropped)

    def frame(self, frame_index: int,
              capacity: Optional[int] = None) -> Grants:
        cap = self.capacity if capacity is None else capacity
        now = frame_index * self.frame_ms
        grants = self.policy.allocate_frame(frame_index, now, cap)
        assert sum(bits for _, bits in grants) <= cap
        for r, bits in grants:
            assert self.requests[r.id] is r
            apply_grant(r, bits)
        return grants


# Traffic oracle: the generators as first written, one sort on explicit
# (time, source) keys per station and one on (arrival, station, id) keys per
# scenario. traffic.py orders by stable sorts on the arrival time alone; the
# ordering property in test_fuzz.py holds it to these.


def oracle_generate(spec: TrafficSpec, station_id: int, seed: int,
                    horizon: float, *, source_index: int = 0) -> List[Request]:
    """Emit the time-ordered requests of one source up to ``horizon`` ms.

    constant_rate places packets at exact multiples of
    packet_size_bits / rate_bits_per_s starting at ``start_time``; poisson
    draws exponential inter-arrivals at the same mean rate from the seeded
    generator. Deadlines follow the service class offset. Ids count from 0.
    """
    end = min(spec.stop_time, horizon)
    out: List[Request] = []
    rid = 0
    if spec.pattern == "constant_rate":
        interval_ms = spec.packet_size_bits / spec.rate_bits_per_s * 1000.0
        k = 0
        while True:
            t = spec.start_time + k * interval_ms
            if t >= end:
                break
            out.append(make_request(rid, station_id, spec.service_class,
                                    t, spec.packet_size_bits))
            rid += 1
            k += 1
    elif spec.pattern == "poisson":
        rng = stream_rng(seed, station_id, source_index)
        mean_ms = 1000.0 / spec.packets_per_s
        t = spec.start_time + (-math.log(rng.next_unit())) * mean_ms
        while t < end:
            out.append(make_request(rid, station_id, spec.service_class,
                                    t, spec.packet_size_bits))
            rid += 1
            t += (-math.log(rng.next_unit())) * mean_ms
    else:
        raise ValueError(f"unknown traffic pattern {spec.pattern!r}")
    return out


def oracle_generate_station(specs: Tuple[TrafficSpec, ...],
                            station_id: int, seed: int,
                            horizon: float) -> List[Request]:
    """Merge all of one station's sources into a single time-ordered stream.

    Ids are assigned after the merge from the station's private namespace, so
    they are stable for a fixed (specs, seed, station) triple. A station that
    would emit more requests than its namespace holds raises ConfigError
    rather than reuse the next station's ids.
    """
    tagged: List[Tuple[float, int, Request]] = []
    for k, spec in enumerate(specs):
        for r in oracle_generate(spec, station_id, seed, horizon,
                                 source_index=k):
            tagged.append((r.arrival_time, k, r))
    if len(tagged) > IDS_PER_STATION:
        raise ConfigError([
            f"traffic_specs[{station_id}]: {len(tagged)} requests exceed the "
            f"{IDS_PER_STATION} request ids of one station"])
    tagged.sort(key=lambda item: (item[0], item[1]))
    base = station_id * IDS_PER_STATION
    out = []
    for n, (_, _, r) in enumerate(tagged):
        r.id = base + n
        out.append(r)
    return out


def oracle_build_requests(sc: Scenario) -> List[Request]:
    """All requests of a scenario, ordered by (arrival, station, id)."""
    horizon = sc.duration_ms
    everything: List[Request] = []
    for st in sc.stations:
        specs = sc.traffic_specs.get(st.id, ())
        if specs:
            everything.extend(oracle_generate_station(specs, st.id, sc.seed,
                                                      horizon))
    everything.sort(key=lambda r: (r.arrival_time, r.station_id, r.id))
    return everything
