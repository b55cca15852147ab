"""Seeded traffic generators.

Request streams must be reproducible bit-for-bit across runs, platforms and
reimplementations, so randomness comes from an explicitly specified PRNG
rather than a platform default.

PRNG specification (splitmix64):
    state is a 64-bit unsigned integer. Each draw advances
        state = (state + 0x9E3779B97F4A7C15) mod 2^64
    then returns the mix of the new state
        z = state
        z = ((z XOR (z >> 30)) * 0xBF58476D1CE4E5B9) mod 2^64
        z = ((z XOR (z >> 27)) * 0x94D049BB133111EB) mod 2^64
        z = z XOR (z >> 31)
    A uniform double in (0, 1] is ((z >> 11) + 1) * 2^-53.

Stream seeding: the generator for traffic source ``k`` of station ``i`` under
run seed ``s`` starts from
    state0 = (s XOR ((i + 1) * 0x9E3779B97F4A7C15)
                XOR ((k + 1) * 0xC2B2AE3D27D4EB4F)) mod 2^64
so per-station streams are independent: changing one station's spec never
perturbs another station's arrivals.

Order contract: a station's requests are ordered by arrival time, equal times
by source index (a source emits in time order); ids are assigned after this
merge, so they rise along it. A scenario's requests are ordered by arrival
time, then station id, then id. Each order is one stable sort on the arrival
time alone: of the sources concatenated in index order, and of the stations
concatenated in id order.

Sharing: within one ``build_requests`` call, constant-rate sources of equal
class, start, interval and packet count share one arrival float and one
deadline float per packet, as all stations of ``canonical`` do. Requests are
never shared: each is its own object, the state of the run.
"""

from __future__ import annotations

import math
from operator import attrgetter
from typing import Dict, Iterator, List, Tuple

from .model import (IDS_PER_STATION, ConfigError, Request, Scenario,
                    TrafficSpec, _constant_rate_packets, make_request)

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB
_STREAM = 0xC2B2AE3D27D4EB4F


class SplitMix64:
    """The 64-bit generator specified in the module docstring."""

    __slots__ = ("_state",)

    def __init__(self, seed: int):
        self._state = seed & _MASK64

    def next_u64(self) -> int:
        self._state = (self._state + _GOLDEN) & _MASK64
        z = self._state
        z = ((z ^ (z >> 30)) * _MIX1) & _MASK64
        z = ((z ^ (z >> 27)) * _MIX2) & _MASK64
        return z ^ (z >> 31)

    def next_unit(self) -> float:
        """Uniform double in (0, 1]; never 0, so log() is always finite."""
        return ((self.next_u64() >> 11) + 1) * 2.0 ** -53


def stream_rng(seed: int, station_id: int, source_index: int) -> SplitMix64:
    state = (seed
             ^ ((station_id + 1) * _GOLDEN)
             ^ ((source_index + 1) * _STREAM)) & _MASK64
    return SplitMix64(state)


def _source(spec: TrafficSpec, station_id: int, seed: int, horizon: float,
            source_index: int, cap: int,
            built: Dict[tuple, List[Request]]) -> Iterator[Request]:
    """At most ``cap`` requests of one source up to ``horizon`` ms, in time
    order, built as they are drawn.

    constant_rate places packets at exact multiples of
    packet_size_bits / rate_bits_per_s starting at ``start_time``, as many
    as ``model._constant_rate_packets`` counts; poisson draws exponential
    inter-arrivals at the same mean rate from the seeded generator.
    Deadlines follow the service class offset. Ids count from 0.

    A constant-rate source's times are fixed by its class, start, interval
    and count alone. ``built`` maps those four to the requests of the first
    source that has them; a later one yields fresh requests of its own
    station and size that hold the first one's arrival and deadline floats.
    """
    end = min(spec.stop_time, horizon)
    cls, size = spec.service_class, spec.packet_size_bits
    if spec.pattern == "constant_rate":
        start, interval_ms = spec.start_time, spec.interval_ms
        n = _constant_rate_packets(spec, horizon, cap)
        first = built.setdefault((cls, start, interval_ms, n), [])
        if first:
            for rid, t in enumerate(first):
                yield Request(rid, station_id, cls, t.arrival_time, size,
                              t.deadline, size)
            return
        for rid in range(n):
            r = make_request(rid, station_id, cls, start + rid * interval_ms,
                             size)
            first.append(r)
            yield r
    elif spec.pattern == "poisson":
        rng = stream_rng(seed, station_id, source_index)
        mean_ms = 1000.0 / spec.packets_per_s
        t = spec.start_time + (-math.log(rng.next_unit())) * mean_ms
        for rid in range(cap):
            if t >= end:
                return
            yield make_request(rid, station_id, cls, t, size)
            t += (-math.log(rng.next_unit())) * mean_ms
    else:
        raise ValueError(f"unknown traffic pattern {spec.pattern!r}")


def generate_station(specs: Tuple[TrafficSpec, ...], station_id: int,
                     seed: int, horizon: float,
                     built: Dict[tuple, List[Request]]) -> List[Request]:
    """Merge all of one station's sources into a single time-ordered stream.

    Ids are assigned after the merge from the station's private namespace, so
    they are stable for a fixed (specs, seed, station) triple. A station that
    would emit more requests than its namespace holds raises ConfigError
    rather than reuse the next station's ids; generation stops at the first
    request past the namespace. ``built`` is the constant-rate table of
    ``_source``.
    """
    out: List[Request] = []
    for k, spec in enumerate(specs):
        out.extend(_source(spec, station_id, seed, horizon, k,
                           IDS_PER_STATION + 1 - len(out), built))
        if len(out) > IDS_PER_STATION:
            raise ConfigError([
                f"traffic_specs[{station_id}]: requests exceed the "
                f"{IDS_PER_STATION} request ids of one station"])
    out.sort(key=attrgetter("arrival_time"))  # stable: ties by source
    base = station_id * IDS_PER_STATION
    for n, r in enumerate(out):
        r.id = base + n
    return out


def build_requests(sc: Scenario) -> List[Request]:
    """All requests of a scenario, ordered by (arrival, station, id)."""
    horizon = sc.duration_ms
    built: Dict[tuple, List[Request]] = {}
    everything: List[Request] = []
    for st in sorted(sc.stations, key=attrgetter("id")):
        specs = sc.traffic_specs.get(st.id, ())
        if specs:
            everything.extend(generate_station(specs, st.id, sc.seed, horizon,
                                               built))
    everything.sort(key=attrgetter("arrival_time"))  # ties: station, id
    return everything
