"""Engine and metrics invariants on small random scenarios: every policy,
drop-on-miss on and off, mixed service classes and traffic patterns, under-
and overload."""

import json
import os
import tempfile
from collections import defaultdict
from dataclasses import replace

from hypothesis import given, settings, strategies as st

from conftest import (hedf_checks_per_frame, oracle_build_requests,
                      starvation_windows_oracle)
from uplinksim.cli import _reload_metrics, scenario_to_dict
from uplinksim.engine import run
from uplinksim.metrics import (compute_starvation_windows,
                               count_context_switches, write_events_csv)
from uplinksim.model import (PATTERNS, Cell, Scenario, ServiceClass,
                             SubscriberStation, TrafficSpec)
from uplinksim.schedulers import POLICY_NAMES
from uplinksim.traffic import build_requests

specs = st.builds(
    TrafficSpec,
    service_class=st.sampled_from(list(ServiceClass)),
    pattern=st.sampled_from(PATTERNS),
    rate_bits_per_s=st.integers(8_000, 400_000).map(float),
    packet_size_bits=st.integers(200, 4_000),
)


@st.composite
def scenarios(draw, frame_durations=(1.0, 2.5, 5.0)):
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
        frame_duration=draw(st.sampled_from(frame_durations)),
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
    grants_of = defaultdict(list)
    last_grant_frame = {}
    miss_rows = defaultdict(list)
    for frame, time_ms, kind, cell, _, rid, bits in log.events:
        if kind == "grant":
            per_cell_frame[cell, frame] += bits
            granted[rid] += bits
            grants_of[rid].append((frame, bits))
            last_grant_frame[rid] = frame
        elif kind == "deadline_miss":
            miss_rows[rid].append((frame, time_ms, bits))

    for (cell, _), bits in per_cell_frame.items():
        assert bits <= capacity[cell]
    for r in log.requests.values():
        assert granted[r.id] == r.served_bits
        if r.dropped:
            # Dropped in its miss frame, after that frame's grants.
            assert sc.drop_on_miss and r.served_bits < r.size_bits
            assert last_grant_frame.get(r.id, -1) <= miss_rows[r.id][0][0]
    times = [e[1] for e in log.events]
    assert times == sorted(times)
    frames = [e[0] for e in log.events]
    assert frames == sorted(frames)

    # The miss rule, from the grant rows alone: a request that did not
    # complete at or before its deadline has one deadline_miss row, in the
    # frame of the first closing boundary strictly past the deadline, if
    # that boundary is inside the horizon; any other request has none.
    delta = sc.frame_duration
    for r in log.requests.values():
        done, completed_in = 0, None
        for frame, bits in grants_of[r.id]:
            done += bits
            if done == r.size_bits:
                completed_in = frame
        past = [g for g in range(int(r.arrival_time // delta),
                                 sc.total_frames)
                if g * delta + delta > r.deadline]
        met = completed_in is not None and \
            completed_in * delta + delta <= r.deadline
        if met or not past:
            assert miss_rows[r.id] == []
        else:
            g = past[0]
            left = r.size_bits - sum(b for f, b in grants_of[r.id] if f <= g)
            assert miss_rows[r.id] == [(g, g * delta + delta, left)]
    # compute_metrics counts the engine's context_switch events.
    assert rec.context_switch_count == count_context_switches(log)


def demand_feasible_cells(sc):
    """Per cell, the processor-demand test (Baruah, Rosier and Howell,
    Real-Time Systems 2(4), 1990) in the engine's frame time.

    A request is due by the last frame whose closing boundary is at or
    before its deadline. For every pair of frames a <= b, the bits of the
    requests that arrive in frame a or later and are due by frame b must fit
    in ``C * (b - a + 1)``; a request due before its arrival frame fails
    alone. Requests whose deadline is at or past the run's last boundary are
    never due, so they are left out. Returns ``{cell id: passes}``.
    """
    delta, n = sc.frame_duration, sc.total_frames
    last_boundary = (n - 1) * delta + delta
    cell_of = {s.id: s.cell_id for s in sc.stations}
    feasible = {c.id: True for c in sc.cells}
    demand = {c.id: defaultdict(int) for c in sc.cells}
    for r in build_requests(sc):
        a = int(r.arrival_time // delta)
        d = r.deadline
        if not 0 <= a < n or not d < last_boundary:
            continue
        b = max(int(d // delta), a - 1)
        while b >= a and b * delta + delta > d:
            b -= 1
        while (b + 1) * delta + delta <= d:
            b += 1
        if b < a:
            feasible[cell_of[r.station_id]] = False
        else:
            demand[cell_of[r.station_id]][a, b] += r.size_bits
    for c in sc.cells:
        jobs = sorted(demand[c.id].items(), key=lambda job: job[0][1])
        for a in {a for (a, _), _ in jobs}:
            bits = 0
            for (a_j, b), size in jobs:
                if a_j >= a:
                    bits += size
                    if bits > c.base_station_capacity * (b - a + 1):
                        feasible[c.id] = False
    return feasible


@settings(max_examples=150, deadline=None)
@given(sc=scenarios(frame_durations=(0.1, 0.3, 1.0, 2.5, 5.0)))
def test_edf_misses_exactly_where_the_demand_test_fails(sc):
    # Preemptive EDF with divisible grants is optimal on one cell (Horn,
    # 1974), so edf logs a miss in a cell exactly when no schedule meets
    # every deadline there. Frames of 0.1 and 0.3 ms put deadlines on
    # boundaries that do not round to exact multiples of the frame. Cell
    # capacities are scaled to the frame's length, so short frames see
    # loads as high as 5 ms frames do.
    scale = sc.frame_duration / 5.0
    sc = replace(sc, scheduler_name="edf", cells=[
        replace(c, base_station_capacity=max(
            1, round(c.base_station_capacity * scale))) for c in sc.cells])
    log, _ = run(sc)
    missed = {e[3] for e in log.events if e[2] == "deadline_miss"}
    feasible = demand_feasible_cells(sc)
    assert missed == {cid for cid, ok in feasible.items() if not ok}


@settings(max_examples=60, deadline=None)
@given(sc=scenarios())
def test_hedf_checks_at_most_once_per_frame(sc):
    sc = replace(sc, scheduler_name="hedf")
    with hedf_checks_per_frame() as counts:
        run(sc)
    assert len(counts) == len(sc.cells) * sc.total_frames
    assert max(counts) <= 1


@settings(max_examples=100, deadline=None)
@given(sc=scenarios(), data=st.data())
def test_starvation_windows_match_oracle(sc, data):
    log, rec = run(sc)
    assert rec.max_starvation_window_ms == starvation_windows_oracle(log)
    # A horizon cut below the last event ignores the events past it.
    log.total_frames = data.draw(st.integers(0, log.total_frames))
    assert compute_starvation_windows(log) == starvation_windows_oracle(log)


@settings(max_examples=60, deadline=None)
@given(sc=scenarios())
def test_csv_reload_reproduces_metrics(sc):
    # The events file and its manifest as `run` writes them, reloaded as
    # `report` reloads them.
    log, rec = run(sc)
    with tempfile.TemporaryDirectory() as tmp:
        path = write_events_csv(log, os.path.join(tmp, "events.csv"))
        with open(os.path.join(tmp, "manifest.json"), "w") as fh:
            json.dump({"events.csv": scenario_to_dict(sc)}, fh)
        back, recorded = _reload_metrics(path, None)
    assert sorted(st.id for st in recorded.stations) == log.station_ids
    # Service classes are not in the event schema, so a reloaded log has no
    # per-class delays; every other field is equal.
    assert back.delay_ms_by_class == {}
    assert replace(back, delay_ms_by_class=rec.delay_ms_by_class) == rec


# Few start times and rates, so arrival times often tie within a station
# (two equal constant-rate sources) and across stations.
tie_prone_specs = st.builds(
    TrafficSpec,
    service_class=st.sampled_from(list(ServiceClass)),
    pattern=st.sampled_from(PATTERNS),
    rate_bits_per_s=st.sampled_from([32_000.0, 64_000.0, 128_000.0]),
    packet_size_bits=st.sampled_from([400, 800, 1600]),
    start_time=st.sampled_from([0, 0.0, -0.0, 2.5, 12.5]),
)


@st.composite
def traffic_scenarios(draw):
    """Stations listed in a drawn order with drawn ids, 1-3 sources each;
    sometimes the first is constant-rate and followed by a twin that differs
    only in class, so every arrival of the pair ties. Sometimes a station
    also carries one constant-rate source common to the scenario, at a drawn
    place; a zero start is redrawn from 0, 0.0 and -0.0 per station, which
    compare equal, so equal sources share floats whatever their start's
    type."""
    ids = draw(st.lists(st.integers(0, 30), min_size=1, max_size=5,
                        unique=True))
    common = replace(draw(tie_prone_specs), pattern="constant_rate")
    stations, traffic = [], {}
    for sid in ids:
        stations.append(SubscriberStation(id=sid, cell_id=0, capacity_c=1000))
        specs = draw(st.lists(tie_prone_specs, min_size=1, max_size=3))
        if draw(st.booleans()):
            first = replace(specs[0], pattern="constant_rate")
            specs[:1] = [first, replace(first, service_class=draw(
                st.sampled_from(list(ServiceClass))))]
        if draw(st.booleans()):
            own = common
            if common.start_time == 0:
                own = replace(common, start_time=draw(
                    st.sampled_from([0, 0.0, -0.0])))
            specs.insert(draw(st.integers(0, len(specs))), own)
        traffic[sid] = tuple(specs)
    return Scenario(
        name="traffic", cells=[Cell(0, 1000, sorted(ids))],
        stations=stations, frame_duration=5.0,
        total_frames=draw(st.integers(1, 400)), traffic_specs=traffic,
        seed=draw(st.integers(0, 2 ** 64 - 1)))


@settings(max_examples=200, deadline=None)
@given(sc=traffic_scenarios())
def test_request_order_and_fields_match_tuple_keyed_oracle(sc):
    # repr shows every field and tells 0 from 0.0 and -0.0.
    assert [repr(r) for r in build_requests(sc)] == \
        [repr(r) for r in oracle_build_requests(sc)]
