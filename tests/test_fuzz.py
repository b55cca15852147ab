"""Engine invariants on small random scenarios: every policy, drop-on-miss
on and off, mixed service classes and traffic patterns, under- and
overload."""

from collections import defaultdict

from hypothesis import given, settings, strategies as st

from uplinksim.engine import run
from uplinksim.metrics import count_context_switches
from uplinksim.model import Cell, Scenario, ServiceClass, SubscriberStation
from uplinksim.schedulers import POLICY_NAMES
from uplinksim.traffic import PATTERNS, TrafficSpec

specs = st.builds(
    TrafficSpec,
    service_class=st.sampled_from(list(ServiceClass)),
    pattern=st.sampled_from(PATTERNS),
    rate_bits_per_s=st.integers(8_000, 400_000).map(float),
    packet_size_bits=st.integers(200, 4_000),
)


@st.composite
def scenarios(draw):
    cells, stations, traffic = [], [], {}
    for cid in range(draw(st.integers(1, 3))):
        sids = []
        for _ in range(draw(st.integers(1, 4))):
            sid = len(stations)
            sids.append(sid)
            stations.append(SubscriberStation(
                id=sid, cell_id=cid,
                capacity_c=draw(st.integers(100, 3_000)),
                wrr_weight=draw(st.none() | st.integers(1, 3))))
            traffic[sid] = tuple(draw(st.lists(specs, min_size=1,
                                               max_size=2)))
        cells.append(Cell(cid, draw(st.integers(200, 2_000)), sids))
    return Scenario(
        name="fuzz", cells=cells, stations=stations,
        frame_duration=draw(st.sampled_from([1.0, 2.5, 5.0])),
        total_frames=draw(st.integers(1, 200)),
        traffic_specs=traffic,
        seed=draw(st.integers(0, 2 ** 32)),
        scheduler_name=draw(st.sampled_from(POLICY_NAMES)),
        drop_on_miss=draw(st.booleans()))


@settings(max_examples=150, deadline=None)
@given(sc=scenarios())
def test_engine_invariants_on_random_scenarios(sc):
    log, rec = run(sc)
    capacity = {c.id: c.base_station_capacity for c in sc.cells}
    per_cell_frame = defaultdict(int)
    granted = defaultdict(int)
    last_grant_frame = {}
    missed_in = {}
    for frame, _, kind, cell, _, rid, bits in log.events:
        if kind == "grant":
            per_cell_frame[cell, frame] += bits
            granted[rid] += bits
            last_grant_frame[rid] = frame
        elif kind == "deadline_miss":
            missed_in[rid] = frame

    for (cell, _), bits in per_cell_frame.items():
        assert bits <= capacity[cell]
    for r in log.requests.values():
        assert granted[r.id] == r.served_bits
        if r.dropped:
            # Dropped in its miss frame, after that frame's grants.
            assert sc.drop_on_miss and r.served_bits < r.size_bits
            assert last_grant_frame.get(r.id, -1) <= missed_in[r.id]
    times = [e[1] for e in log.events]
    assert times == sorted(times)
    frames = [e[0] for e in log.events]
    assert frames == sorted(frames)
    # compute_metrics counts the engine's context_switch events.
    assert rec.context_switch_count == count_context_switches(log)
