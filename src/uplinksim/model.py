"""Domain model for a frame-based uplink scheduling simulator.

A base station (one per cell) owns a pool of uplink capacity, expressed in
bits per frame, and hands it out to subscriber stations as per-frame grants.
Subscriber stations send deadline-tagged bandwidth requests; each cell's
scheduling policy keeps the waiting requests in its own queues and decides
which are served each frame (see ``schedulers``).

This module is the whole scenario model. Every value a ``Scenario`` holds
(cells, stations, traffic sources) is a frozen dataclass defined here, and
no code changes the lists and dict that hold them, so a run cannot change
its scenario. A run's own state is the progress of each ``Request``, which
the engine advances, and its policies' state, such as the smoothed
throughputs that the ranking policies keep.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Dict, List, Optional, Tuple


class ConfigError(Exception):
    """A scenario failed validation. Carries one message per violation."""

    def __init__(self, violations: List[str]):
        self.violations = list(violations)
        super().__init__("; ".join(self.violations))


class ServiceClass(Enum):
    """MAC service classes, ordered from most to least latency-sensitive.

    ``deadline_offset_ms`` is the static deadline offset: a request is due
    this long after arrival. Real-time classes get tight deadlines, best
    effort a very loose one; the wide rtPS/BE gap is what makes plain
    deadline ordering starve BE stations. It is a plain attribute of each
    member, so reading it hashes nothing.
    """

    UGS = "UGS", 5.0
    ERTPS = "ertPS", 10.0
    RTPS = "rtPS", 20.0
    NRTPS = "nrtPS", 200.0
    BE = "BE", 1000.0

    def __new__(cls, value: str, deadline_offset_ms: float):
        member = object.__new__(cls)
        member._value_ = value
        member.deadline_offset_ms = deadline_offset_ms
        return member


CLASS_BY_NAME: Dict[str, ServiceClass] = {c.value: c for c in ServiceClass}


@dataclass(slots=True)
class Request:
    """One uplink bandwidth demand from a station.

    ``deadline`` is absolute simulation time in ms. For traffic-generated
    requests it always equals ``arrival_time + class offset`` (see
    :func:`make_request`); synthetic test workloads may set it freely.
    ``left_bits`` are the bits not yet granted; :func:`make_request` starts
    them as the ``size_bits`` object itself. ``served_bits`` is derived.
    Requests of equal constant-rate sources in one traffic build also share
    their ``arrival_time`` and ``deadline`` floats (see ``traffic``).
    """

    id: int
    station_id: int
    service_class: ServiceClass
    arrival_time: float
    size_bits: int
    deadline: float
    left_bits: int
    dropped: bool = False

    @property
    def served_bits(self) -> int:
        return self.size_bits - self.left_bits


def make_request(req_id: int, station_id: int, service_class: ServiceClass,
                 arrival_time: float, size_bits: int) -> Request:
    """Build a request with the class-derived deadline."""
    return Request(req_id, station_id, service_class, arrival_time,
                   size_bits, arrival_time + service_class.deadline_offset_ms,
                   size_bits)


@dataclass(frozen=True, slots=True)
class SubscriberStation:
    """A client node sending requests to its cell's base station.

    ``capacity_c`` is the station's transmission capacity in bits per frame;
    it feeds the proportional-fairness priority and service-time estimates.
    The smoothed throughput that priority also reads is run state, kept per
    run by the ranking policy of the station's cell (see ``schedulers``).
    """

    id: int
    cell_id: int
    capacity_c: int
    wrr_weight: Optional[int] = None


@dataclass(frozen=True, slots=True)
class Cell:
    """One base station and the stations it serves."""

    id: int
    base_station_capacity: int
    station_ids: List[int] = field(default_factory=list)


@dataclass(frozen=True)
class TrafficSpec:
    """One traffic source attached to a station. It emits from
    ``start_time`` until ``stop_time`` or the end of the run, whichever
    comes first; by default it has no stop."""

    service_class: ServiceClass
    pattern: str  # "constant_rate" | "poisson"
    rate_bits_per_s: float
    packet_size_bits: int
    start_time: float = 0.0  # ms
    stop_time: float = float("inf")  # ms

    @property
    def packets_per_s(self) -> float:
        return self.rate_bits_per_s / self.packet_size_bits

    @property
    def interval_ms(self) -> float:
        """Spacing of a constant-rate source's packets."""
        return self.packet_size_bits / self.rate_bits_per_s * 1000.0


PATTERNS = ("constant_rate", "poisson")

# Station ids get a private id namespace this wide, keeping request ids
# globally unique while independent of other stations' traffic volume.
IDS_PER_STATION = 1_000_000


def validate_spec(spec: TrafficSpec) -> List[str]:
    v = []
    if spec.pattern not in PATTERNS:
        v.append(f"pattern: unknown pattern {spec.pattern!r}, "
                 f"expected one of {PATTERNS}")
    if not 0 < spec.rate_bits_per_s < math.inf:
        v.append(f"rate_bits_per_s: must be finite and > 0, "
                 f"got {spec.rate_bits_per_s}")
    if spec.packet_size_bits <= 0:
        v.append(f"packet_size_bits: must be > 0, got {spec.packet_size_bits}")
    if not -math.inf < spec.start_time < spec.stop_time:
        v.append(f"start_time: must be finite and < stop_time, got "
                 f"[{spec.start_time}, {spec.stop_time})")
    return v


def _constant_rate_packets(spec: TrafficSpec, horizon: float,
                           cap: int) -> int:
    """How many packets, at most ``cap``, a valid constant-rate source emits
    up to ``horizon`` ms; the traffic generator emits exactly these.

    Packet ``n`` is emitted while ``start_time + n * interval_ms`` is below
    ``min(stop_time, horizon)``. That float expression never falls as ``n``
    rises, so a bisection on it finds the count.
    """
    end = min(spec.stop_time, horizon)
    start, interval = spec.start_time, spec.interval_ms
    lo, hi = 0, cap
    while lo < hi:
        mid = (lo + hi) // 2
        if start + mid * interval < end:
            lo = mid + 1
        else:
            hi = mid
    return lo


@dataclass(frozen=True)
class Scenario:
    """Full description of one simulation run.

    ``traffic_specs`` maps station id to the traffic sources attached to that
    station (a station may carry e.g. an rtPS stream plus best-effort
    background). Identical (Scenario, seed) pairs produce bit-identical runs.
    """

    name: str
    cells: List[Cell]
    stations: List[SubscriberStation]
    frame_duration: float  # ms
    total_frames: int
    traffic_specs: Dict[int, Tuple[TrafficSpec, ...]]
    seed: int
    scheduler_name: str = "edf"
    ewma_alpha: float = 0.1
    drop_on_miss: bool = False

    @property
    def duration_ms(self) -> float:
        return self.total_frames * self.frame_duration


# Canonical topology: 7 cells, 2 stations each, one base station per cell.
CANONICAL_CELLS = 7
CANONICAL_STATIONS_PER_CELL = 2
DEFAULT_FRAME_MS = 5.0
DEFAULT_TOTAL_FRAMES = 12_000  # 60 s at 5 ms per frame
# 80% mean utilisation: per station 64 kbit/s rtPS + 32 kbit/s BE background
# = 480 bits/frame, twice per cell, against 1200 bits/frame of capacity.
CANONICAL_CELL_CAPACITY = 1200


def canonical_scenario(*, seed: int = 1, scheduler_name: str = "edf",
                       total_frames: int = DEFAULT_TOTAL_FRAMES) -> Scenario:
    """The default benchmark topology.

    Every station sources real-time (rtPS) traffic plus a trickle of
    best-effort background, so deadline-ordered policies are regularly
    interrupted mid-request and context-switch behaviour is observable.
    """
    cells: List[Cell] = []
    stations: List[SubscriberStation] = []
    specs: Dict[int, Tuple[TrafficSpec, ...]] = {}
    for c in range(CANONICAL_CELLS):
        sids = []
        for k in range(CANONICAL_STATIONS_PER_CELL):
            sid = c * CANONICAL_STATIONS_PER_CELL + k
            sids.append(sid)
            stations.append(SubscriberStation(
                id=sid, cell_id=c, capacity_c=CANONICAL_CELL_CAPACITY))
            specs[sid] = (
                TrafficSpec(service_class=ServiceClass.RTPS,
                            pattern="constant_rate",
                            rate_bits_per_s=64_000.0,
                            packet_size_bits=800),
                TrafficSpec(service_class=ServiceClass.BE,
                            pattern="poisson",
                            rate_bits_per_s=32_000.0,
                            packet_size_bits=1600),
            )
        cells.append(Cell(id=c, base_station_capacity=CANONICAL_CELL_CAPACITY,
                          station_ids=sids))
    return Scenario(
        name="canonical",
        cells=cells,
        stations=stations,
        frame_duration=DEFAULT_FRAME_MS,
        total_frames=total_frames,
        traffic_specs=specs,
        seed=seed,
        scheduler_name=scheduler_name,
    )


# Starvation demonstration: station A's real-time load exceeds the cell
# capacity by OVERLOAD_FACTOR, so its backlog (and the lag of its oldest
# deadline) grows without bound. Station B wakes up with one best-effort
# packet every BE_PERIOD_MS; under plain deadline order each successive
# packet waits longer than the one before, while fairness-aware policies
# serve it within a frame or two.
STARVATION_CELL_CAPACITY = 4000  # bits/frame
OVERLOAD_FACTOR = 1.2
STARVATION_RTPS_PACKET = 4000  # bits
STARVATION_BE_PACKET = 1600  # bits
BE_PERIOD_MS = 15_000.0


def starvation_scenario(*, seed: int = 1, scheduler_name: str = "edf",
                        total_frames: int = DEFAULT_TOTAL_FRAMES) -> Scenario:
    """One cell, two stations: overloaded rtPS vs sparse best effort."""
    frames_per_s = 1000.0 / DEFAULT_FRAME_MS
    rtps_rate = OVERLOAD_FACTOR * STARVATION_CELL_CAPACITY * frames_per_s
    stations = [
        SubscriberStation(id=0, cell_id=0, capacity_c=STARVATION_CELL_CAPACITY),
        SubscriberStation(id=1, cell_id=0, capacity_c=STARVATION_CELL_CAPACITY),
    ]
    specs: Dict[int, Tuple[TrafficSpec, ...]] = {
        0: (TrafficSpec(service_class=ServiceClass.RTPS,
                        pattern="constant_rate",
                        rate_bits_per_s=rtps_rate,
                        packet_size_bits=STARVATION_RTPS_PACKET),),
        1: (TrafficSpec(service_class=ServiceClass.BE,
                        pattern="constant_rate",
                        rate_bits_per_s=STARVATION_BE_PACKET / (BE_PERIOD_MS / 1000.0),
                        packet_size_bits=STARVATION_BE_PACKET),),
    }
    return Scenario(
        name="starvation",
        cells=[Cell(id=0, base_station_capacity=STARVATION_CELL_CAPACITY,
                    station_ids=[0, 1])],
        stations=stations,
        frame_duration=DEFAULT_FRAME_MS,
        total_frames=total_frames,
        traffic_specs=specs,
        seed=seed,
        scheduler_name=scheduler_name,
    )


def validate_scenario(sc: Scenario) -> List[str]:
    """Check every model invariant; returns all violations, not just the first.

    Messages start with the offending field path so config errors are
    actionable from the command line.
    """
    from .schedulers import POLICY_NAMES  # deferred: schedulers imports model

    v: List[str] = []
    if sc.total_frames <= 0:
        v.append(f"total_frames: must be > 0, got {sc.total_frames}")
    if not 0 < sc.frame_duration < math.inf:
        v.append(f"frame_duration: must be finite and > 0, "
                 f"got {sc.frame_duration}")
    if not (0.0 < sc.ewma_alpha <= 1.0):
        v.append(f"ewma_alpha: must be in (0, 1], got {sc.ewma_alpha}")
    if not (-(2 ** 63) <= sc.seed < 2 ** 64):
        v.append(f"seed: must fit in 64 bits, got {sc.seed}")
    if sc.scheduler_name not in POLICY_NAMES:
        v.append(f"scheduler_name: unknown policy {sc.scheduler_name!r}, "
                 f"expected one of {sorted(POLICY_NAMES)}")

    seen_cells: Dict[int, int] = {}
    for i, cell in enumerate(sc.cells):
        if cell.id in seen_cells:
            v.append(f"cells[{i}].id: duplicate cell id {cell.id} "
                     f"(also cells[{seen_cells[cell.id]}])")
        else:
            seen_cells[cell.id] = i
        if cell.base_station_capacity <= 0:
            v.append(f"cells[{i}].base_station_capacity: must be > 0, "
                     f"got {cell.base_station_capacity}")

    seen_stations: Dict[int, int] = {}
    for i, st in enumerate(sc.stations):
        if st.id in seen_stations:
            v.append(f"stations[{i}].id: duplicate station id {st.id} "
                     f"(also stations[{seen_stations[st.id]}])")
        else:
            seen_stations[st.id] = i
        if st.capacity_c <= 0:
            v.append(f"stations[{i}].capacity_c: must be > 0, got {st.capacity_c}")
        if st.cell_id not in seen_cells:
            v.append(f"stations[{i}].cell_id: no such cell {st.cell_id}")
        if st.wrr_weight is not None and st.wrr_weight < 1:
            v.append(f"stations[{i}].wrr_weight: must be >= 1, got {st.wrr_weight}")

    by_id = {s.id: s for s in sc.stations}
    claimed: Dict[int, int] = {}
    for i, cell in enumerate(sc.cells):
        for sid in cell.station_ids:
            st = by_id.get(sid)
            if st is None:
                v.append(f"cells[{i}].station_ids: no such station {sid}")
                continue
            if st.cell_id != cell.id:
                v.append(f"cells[{i}].station_ids: station {sid} has "
                         f"cell_id {st.cell_id}, expected {cell.id}")
            if sid in claimed:
                v.append(f"cells[{i}].station_ids: station {sid} already "
                         f"claimed by cell {claimed[sid]}")
            claimed[sid] = cell.id
    for sid, st in by_id.items():
        if sid not in claimed:
            v.append(f"stations: station {sid} not listed by any cell")

    # A station's constant-rate packets are counted here, so a source too
    # dense for its id namespace is refused before any request is built;
    # Poisson counts are known only once generated.
    horizon = sc.duration_ms
    for sid, specs in sorted(sc.traffic_specs.items()):
        if sid not in by_id:
            v.append(f"traffic_specs[{sid}]: no such station")
        packets = 0
        for j, spec in enumerate(specs):
            msgs = validate_spec(spec)
            v.extend(f"traffic_specs[{sid}][{j}].{msg}" for msg in msgs)
            if (not msgs and spec.pattern == "constant_rate"
                    and 0 < horizon < math.inf):
                packets += _constant_rate_packets(
                    spec, horizon, IDS_PER_STATION + 1 - packets)
        if packets > IDS_PER_STATION:
            v.append(f"traffic_specs[{sid}]: constant-rate requests exceed "
                     f"the {IDS_PER_STATION} request ids of one station")
    return v
