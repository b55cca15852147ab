import dataclasses
import time
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from uplinksim import engine, model, traffic
from uplinksim.model import (ConfigError, ServiceClass, TrafficSpec,
                             canonical_scenario, starvation_scenario,
                             validate_scenario, validate_spec)
from uplinksim.traffic import SplitMix64, generate_station, stream_rng
from test_engine import single_cell_scenario

RTPS = ServiceClass.RTPS
BE = ServiceClass.BE


def test_splitmix64_reference_vectors():
    # Published outputs of the reference splitmix64 for seed 0.
    g = SplitMix64(0)
    assert [g.next_u64() for _ in range(5)] == [
        0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F,
        0xF88BB8A8724C81EC, 0x1B39896A51A8749B,
    ]


def test_unit_interval_never_zero():
    g = SplitMix64(42)
    for _ in range(10_000):
        u = g.next_unit()
        assert 0.0 < u <= 1.0


def test_constant_rate_spec_rate_arithmetic():
    spec = TrafficSpec(service_class=RTPS, pattern="constant_rate",
                       rate_bits_per_s=64_000.0, packet_size_bits=800,
                       start_time=0.0, stop_time=10_000.0)
    reqs = generate_station((spec,), station_id=0, seed=1, horizon=1000.0,
                            built={})
    assert len(reqs) == 80
    for k, r in enumerate(reqs):
        assert r.arrival_time == k * 12.5
        assert r.size_bits == 800


def test_zero_horizon_empty():
    spec = TrafficSpec(service_class=RTPS, pattern="constant_rate",
                       rate_bits_per_s=64_000.0, packet_size_bits=800)
    assert generate_station((spec,), 0, 1, 0.0, {}) == []


def test_poisson_mean_interarrival_within_5_percent():
    # Law-of-large-numbers check over 10^4 arrivals: 1000 packets/s.
    spec = TrafficSpec(service_class=BE, pattern="poisson",
                       rate_bits_per_s=800_000.0, packet_size_bits=800,
                       start_time=0.0, stop_time=float("inf"))
    reqs = generate_station((spec,), station_id=3, seed=99,
                            horizon=60_000.0, built={})
    assert len(reqs) > 10_000
    gaps = [b.arrival_time - a.arrival_time
            for a, b in zip(reqs[:10_000], reqs[1:10_001])]
    mean = sum(gaps) / len(gaps)
    assert abs(mean - 1.0) / 1.0 < 0.05


def test_generator_determinism():
    spec = TrafficSpec(service_class=BE, pattern="poisson",
                       rate_bits_per_s=32_000.0, packet_size_bits=1600)
    a = generate_station((spec,), 5, 1234, 30_000.0, {})
    b = generate_station((spec,), 5, 1234, 30_000.0, {})
    assert [(r.arrival_time, r.size_bits, r.deadline) for r in a] == \
           [(r.arrival_time, r.size_bits, r.deadline) for r in b]


def test_stream_independence_across_stations():
    spec = TrafficSpec(service_class=BE, pattern="poisson",
                       rate_bits_per_s=32_000.0, packet_size_bits=1600)
    other = TrafficSpec(service_class=BE, pattern="poisson",
                        rate_bits_per_s=64_000.0, packet_size_bits=400)
    with_spec = generate_station((spec,), 7, 5, 20_000.0, {})
    # Station 8 changing its traffic must not perturb station 7's stream.
    again = generate_station((spec,), 7, 5, 20_000.0, {})
    assert [(r.id, r.arrival_time) for r in with_spec] == \
           [(r.id, r.arrival_time) for r in again]
    st8_a = generate_station((spec,), 8, 5, 20_000.0, {})
    st8_b = generate_station((other,), 8, 5, 20_000.0, {})
    assert [r.arrival_time for r in st8_a] != [r.arrival_time for r in st8_b]
    assert stream_rng(5, 7, 0).next_u64() != stream_rng(5, 8, 0).next_u64()


def test_deadline_law_every_request():
    for cls in (RTPS, BE):
        spec = TrafficSpec(service_class=cls, pattern="poisson",
                           rate_bits_per_s=100_000.0, packet_size_bits=1000)
        for r in generate_station((spec,), 2, 7, 5_000.0, {}):
            assert r.deadline == r.arrival_time + cls.deadline_offset_ms


def test_time_ordered_and_ids_unique():
    specs = (
        TrafficSpec(service_class=RTPS, pattern="constant_rate",
                    rate_bits_per_s=64_000.0, packet_size_bits=800),
        TrafficSpec(service_class=BE, pattern="poisson",
                    rate_bits_per_s=32_000.0, packet_size_bits=1600),
    )
    reqs = generate_station(specs, station_id=4, seed=11, horizon=10_000.0,
                            built={})
    times = [r.arrival_time for r in reqs]
    assert times == sorted(times)
    ids = [r.id for r in reqs]
    assert len(set(ids)) == len(ids)
    assert all(r.station_id == 4 for r in reqs)


def test_station_request_id_overflow_rejected(monkeypatch):
    # 64 kbit/s of 800-bit packets: one request every 12.5 ms.
    monkeypatch.setattr(traffic, "IDS_PER_STATION", 10)
    spec = TrafficSpec(service_class=RTPS, pattern="constant_rate",
                       rate_bits_per_s=64_000.0, packet_size_bits=800)
    reqs = generate_station((spec,), station_id=1, seed=1, horizon=125.0,
                            built={})
    assert [r.id for r in reqs] == list(range(10, 20))
    with pytest.raises(ConfigError, match="traffic_specs\\[1\\]"):
        generate_station((spec,), station_id=1, seed=1, horizon=125.1,
                         built={})


def test_request_id_overflow_refused_before_building_the_list(monkeypatch):
    # 80,000 packets/s for 60 s would be 4.8 million requests; generation
    # stops at the eleventh.
    monkeypatch.setattr(traffic, "IDS_PER_STATION", 10)
    spec = TrafficSpec(service_class=RTPS, pattern="constant_rate",
                       rate_bits_per_s=6.4e7, packet_size_bits=800)
    tracemalloc.start()
    t0 = time.perf_counter()
    try:
        with pytest.raises(ConfigError, match="traffic_specs\\[1\\]"):
            generate_station((spec,), 1, 1, 60_000.0, {})
        elapsed = time.perf_counter() - t0
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert elapsed < 1.0
    assert peak < 2 ** 20


def _constant_rate_scenario(frames, *rates):
    # One station with one 800-bit constant-rate source per rate. At
    # 64 kbit/s a source sends every 12.5 ms, so 25 frames of 5 ms hold 10
    # packets and 26 frames hold 11.
    specs = tuple(TrafficSpec(service_class=RTPS, pattern="constant_rate",
                              rate_bits_per_s=rate, packet_size_bits=800)
                  for rate in rates)
    return single_cell_scenario(frames=frames, specs={0: specs})


@pytest.fixture
def ten_ids(monkeypatch):
    monkeypatch.setattr(model, "IDS_PER_STATION", 10)
    monkeypatch.setattr(traffic, "IDS_PER_STATION", 10)


def test_constant_rate_overflow_refused_at_validate(ten_ids, monkeypatch):
    fits = _constant_rate_scenario(25, 64_000.0)
    assert validate_scenario(fits) == []
    log, _ = engine.run(fits)
    assert len([e for e in log.events if e[2] == "arrival"]) == 10

    def no_generation(sc):
        raise AssertionError("build_requests ran")

    monkeypatch.setattr(engine, "build_requests", no_generation)
    message = ("traffic_specs[0]: constant-rate requests exceed the 10 "
               "request ids of one station")
    # The eleventh packet lands at 125.0 ms, inside 26 frames. Sources every
    # 16 ms and every 50 ms send 8 and 3 packets in 125 ms, eleven in all.
    for sc in (_constant_rate_scenario(26, 64_000.0),
               _constant_rate_scenario(25, 50_000.0, 16_000.0)):
        assert validate_scenario(sc) == [message]
        with pytest.raises(ConfigError, match=r"traffic_specs\[0\]"):
            engine.run(sc)


@settings(max_examples=300, deadline=None)
@given(start=st.floats(-50.0, 50.0), stop=st.floats(-40.0, 300.0),
       rate=st.floats(1e3, 1e6), size=st.integers(1, 2000),
       horizon=st.floats(0.1, 200.0))
def test_constant_rate_count_is_the_generators(start, stop, rate, size,
                                               horizon):
    spec = TrafficSpec(service_class=RTPS, pattern="constant_rate",
                       rate_bits_per_s=rate, packet_size_bits=size,
                       start_time=start, stop_time=max(stop, start + 1e-3))
    cap = 40
    # An independent count: step the packet times one by one.
    end = min(spec.stop_time, horizon)
    stepped = 0
    while stepped < cap and spec.start_time + stepped * spec.interval_ms < end:
        stepped += 1
    assert model._constant_rate_packets(spec, horizon, cap) == stepped
    emitted = traffic._source(spec, 0, 1, horizon, 0, cap, {})
    assert [r.arrival_time for r in emitted] == \
        [spec.start_time + n * spec.interval_ms for n in range(stepped)]


def test_equal_times_in_one_station_take_ids_in_source_order():
    # Two sources with one start and one 12.5 ms interval: every arrival
    # time ties, and the class tells the sources apart.
    specs = (
        TrafficSpec(service_class=BE, pattern="constant_rate",
                    rate_bits_per_s=128_000.0, packet_size_bits=1600),
        TrafficSpec(service_class=RTPS, pattern="constant_rate",
                    rate_bits_per_s=64_000.0, packet_size_bits=800),
    )
    reqs = generate_station(specs, station_id=2, seed=1, horizon=100.0,
                            built={})
    assert len(reqs) == 16
    assert [r.id for r in reqs] == list(range(2_000_000, 2_000_016))
    for first, second in zip(reqs[::2], reqs[1::2]):
        assert first.arrival_time == second.arrival_time
        assert (first.service_class, second.service_class) == (BE, RTPS)


def _by_station(reqs, cls):
    out = {}
    for r in reqs:
        if r.service_class is cls:
            out.setdefault(r.station_id, []).append(r)
    return out


def test_equal_constant_rate_sources_share_floats_not_requests():
    # Every canonical station carries the same 64 kbit/s rtPS stream.
    sc = canonical_scenario(total_frames=400)
    rtps = _by_station(traffic.build_requests(sc), RTPS)
    assert len(rtps) == len(sc.stations) == 14
    assert {len(v) for v in rtps.values()} == {160}
    for a, b in zip(rtps[0], rtps[13]):
        assert a is not b and a.id != b.id
        assert (a.station_id, b.station_id) == (0, 13)
        assert a.arrival_time is b.arrival_time
        assert a.deadline is b.deadline
    # Granting one request, or dropping it, leaves its twin untouched.
    a, b = rtps[0][5], rtps[13][5]
    a.left_bits = 0
    rtps[1][5].dropped = True
    assert b.left_bits is b.size_bits and b.served_bits == 0
    assert not b.dropped and not rtps[2][5].dropped


def test_poisson_floats_are_never_shared():
    reqs = traffic.build_requests(canonical_scenario(total_frames=400))
    be = [r for v in _by_station(reqs, BE).values() for r in v]
    floats = [id(f) for r in be for f in (r.arrival_time, r.deadline)]
    assert len(be) > 100 and len(set(floats)) == len(floats)


def test_a_source_differing_only_in_start_shares_nothing():
    spec = TrafficSpec(service_class=RTPS, pattern="constant_rate",
                       rate_bits_per_s=64_000.0, packet_size_bits=800)
    later = dataclasses.replace(spec, start_time=2.5)
    sc = single_cell_scenario(n_stations=3, frames=100,
                              specs={0: (spec,), 1: (later,), 2: (spec,)})
    rtps = _by_station(traffic.build_requests(sc), RTPS)
    assert [a.arrival_time is b.arrival_time
            for a, b in zip(rtps[0], rtps[2])] == [True] * 40
    floats = {id(f) for r in rtps[0] for f in (r.arrival_time, r.deadline)}
    assert not floats & {id(f) for r in rtps[1]
                         for f in (r.arrival_time, r.deadline)}


def test_a_source_capped_by_the_id_namespace_shares_nothing(ten_ids):
    # 64 kbit/s for 125 ms is 10 packets, as many as a station may send; a
    # source that follows 6 requests of its station is capped at 5, the cap
    # generate_station passes.
    spec = TrafficSpec(service_class=RTPS, pattern="constant_rate",
                       rate_bits_per_s=64_000.0, packet_size_bits=800)
    room = traffic.IDS_PER_STATION + 1
    built = {}
    whole = list(traffic._source(spec, 0, 1, 125.0, 0, room, built))
    capped = list(traffic._source(spec, 1, 1, 125.0, 1, room - 6, built))
    twin = list(traffic._source(spec, 2, 1, 125.0, 0, room, built))
    assert (len(whole), len(capped), len(twin)) == (10, 5, 10)
    assert all(a.arrival_time is b.arrival_time for a, b in zip(whole, twin))
    assert not any(a.arrival_time is b.arrival_time or a.deadline is b.deadline
                   for a, b in zip(whole, capped))
    assert [r.arrival_time for r in capped] == \
        [r.arrival_time for r in whole[:5]]


def test_validate_spec_messages():
    bad = TrafficSpec(service_class=RTPS, pattern="burst", rate_bits_per_s=-1,
                      packet_size_bits=0, start_time=10.0, stop_time=5.0)
    msgs = validate_spec(bad)
    assert len(msgs) == 4


def test_starvation_scenario_construction():
    sc = starvation_scenario()
    assert len(sc.stations) == 2
    assert len(sc.cells) == 1
    cap = sc.cells[0].base_station_capacity
    frames_per_s = 1000.0 / sc.frame_duration
    a_spec = sc.traffic_specs[0][0]
    # Station A overloads the cell by a factor of 1.2.
    assert a_spec.rate_bits_per_s == pytest.approx(1.2 * cap * frames_per_s)
    assert a_spec.service_class is RTPS
    b_spec = sc.traffic_specs[1][0]
    assert b_spec.service_class is BE
    # 980 ms deadline gap between the two classes involved.
    assert (BE.deadline_offset_ms - RTPS.deadline_offset_ms) == 980.0
