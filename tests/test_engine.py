import math
from collections import defaultdict
from dataclasses import FrozenInstanceError, replace
from itertools import chain

import pytest

from perfbench.checks import check_log
from perfbench.workloads import dense_overload_scenario
from uplinksim.engine import InvariantError, apply_grant, run, simulate
from uplinksim.metrics import (compute_metrics, count_context_switches,
                               write_events_csv)
from uplinksim.model import (Cell, ConfigError, Scenario, ServiceClass,
                             SubscriberStation, canonical_scenario,
                             make_request)
from uplinksim import engine, schedulers
from uplinksim.schedulers import update_historical_throughput
from uplinksim.traffic import build_requests

RTPS = ServiceClass.RTPS
BE = ServiceClass.BE


def single_cell_scenario(policy="edf", capacity=1000, n_stations=1,
                         frames=100, specs=None, seed=1, frame_ms=5.0,
                         drop_on_miss=False, alpha=0.1) -> Scenario:
    stations = [SubscriberStation(id=i, cell_id=0, capacity_c=capacity)
                for i in range(n_stations)]
    return Scenario(
        name="test",
        cells=[Cell(0, capacity, [s.id for s in stations])],
        stations=stations,
        frame_duration=frame_ms,
        total_frames=frames,
        traffic_specs=specs or {},
        seed=seed,
        scheduler_name=policy,
        ewma_alpha=alpha,
        drop_on_miss=drop_on_miss,
    )


def requests_for(sc, items):
    """items: (id, station, class, arrival, size[, deadline])."""
    out = []
    for item in items:
        rid, sid, cls, arrival, size = item[:5]
        r = make_request(rid, sid, cls, arrival, size)
        if len(item) == 6:
            r.deadline = item[5]
        out.append(r)
    out.sort(key=lambda r: (r.arrival_time, r.station_id, r.id))
    return out


def test_sim_clock_invariant():
    # Frame f opens at f*delta: an arrival lands in frame arrival // delta,
    # and every other record of frame f is stamped f*delta + delta exactly.
    for frame_ms in (5.0, 2.5, 0.1):
        sc = replace(canonical_scenario(seed=1, scheduler_name="hedf",
                                        total_frames=400),
                     frame_duration=frame_ms)
        log = simulate(sc, build_requests(sc))
        assert {"arrival", "grant", "completion"} <= {e[2] for e in log.events}
        for f, t, kind, *_ in log.events:
            if kind == "arrival":
                assert f == int(t // frame_ms)
            else:
                assert t == f * frame_ms + frame_ms


def test_zero_traffic_empty_run():
    sc = single_cell_scenario()
    log, rec = run(sc)
    assert [e for e in log.events if e[2] == "grant"] == []
    assert rec.throughput_bps == 0.0
    assert rec.offered_load_bps == 0.0


def test_single_request_served_in_arrival_frame():
    sc = single_cell_scenario(capacity=1000)
    log = simulate(sc, requests_for(sc, [(0, 0, RTPS, 0.0, 1000)]))
    completions = [e for e in log.events if e[2] == "completion"]
    assert len(completions) == 1
    frame, time_ms = completions[0][0], completions[0][1]
    assert frame == 0
    delay = time_ms - 0.0
    assert delay <= sc.frame_duration


def test_mid_frame_arrival_served_same_frame():
    sc = single_cell_scenario(capacity=1000)
    log = simulate(sc, requests_for(sc, [(0, 0, RTPS, 7.5, 400)]))
    completions = [e for e in log.events if e[2] == "completion"]
    assert completions[0][0] == 1  # frame containing t=7.5
    assert completions[0][1] == 10.0
    assert completions[0][1] - 7.5 == 2.5


def test_apply_grant_completion_and_partial():
    r = make_request(0, 0, RTPS, 0.0, 500)
    assert apply_grant(r, 200) is False
    assert r.served_bits == 200
    assert apply_grant(r, 300) is True
    assert r.served_bits == r.size_bits


def test_apply_grant_over_grant_aborts():
    r = make_request(0, 0, RTPS, 0.0, 500)
    with pytest.raises(InvariantError):
        apply_grant(r, 501)
    with pytest.raises(InvariantError):
        apply_grant(r, 0)


def test_deadline_policy_boundaries():
    # A deadline of 20.0 is the closing boundary of frame 3: the request is
    # pending at boundaries 15 and 20 and missed at 25, and a completion
    # stamped exactly at 20.0 is on time.
    sc = single_cell_scenario(capacity=100, frames=20)
    late = simulate(sc, requests_for(sc, [(0, 0, RTPS, 0.0, 1000, 20.0)]))
    assert [(e[0], e[1]) for e in late.events if e[2] == "deadline_miss"] == \
        [(4, 25.0)]
    on_time = simulate(sc, requests_for(sc, [(0, 0, RTPS, 0.0, 400, 20.0)]))
    assert [e[1] for e in on_time.events if e[2] == "completion"] == [20.0]
    assert [e for e in on_time.events if e[2] == "deadline_miss"] == []


def test_deadline_on_a_rounded_boundary_is_pending_there():
    # 2*0.1 + 0.1 is 0.30000000000000004, frame 2's closing boundary, while
    # 0.30000000000000004 // 0.1 is 3.0: the boundary expression, not the
    # quotient, decides that the request is pending at frame 2's boundary
    # and missed at frame 3's.
    deadline = 2 * 0.1 + 0.1
    assert deadline == 0.30000000000000004
    sc = single_cell_scenario(capacity=100, frames=10, frame_ms=0.1)
    log = simulate(sc, requests_for(sc, [(0, 0, RTPS, 0.0, 1000, deadline)]))
    assert [(e[0], e[1], e[6]) for e in log.events
            if e[2] == "deadline_miss"] == [(3, 3 * 0.1 + 0.1, 600)]


def test_deadline_inside_the_arrival_frame_is_missed_there():
    # Arrival at 6.0 in frame 1 (5.0-10.0) with a 7.5 deadline, and one
    # already past at arrival: both are missed at 10.0, in frame 1.
    sc = single_cell_scenario(capacity=100, frames=10)
    log = simulate(sc, requests_for(sc, [(0, 0, RTPS, 6.0, 1000, 7.5),
                                         (1, 0, RTPS, 6.0, 1000, 2.0)]))
    assert [(e[0], e[1], e[5]) for e in log.events
            if e[2] == "deadline_miss"] == [(1, 10.0, 1), (1, 10.0, 0)]


@pytest.mark.parametrize("policy", ["rr", "wrr", "edf", "ssbpf_edf", "hedf"])
def test_whole_grants_and_completions_share_the_size_object(policy):
    # A request's size is one int: its whole-request grant rows hold the
    # size_bits object itself. Completed requests all hold one 0 object.
    sc = canonical_scenario(seed=1, scheduler_name=policy, total_frames=600)
    log = simulate(sc, build_requests(sc))
    completed = [r for r in log.requests.values() if r.left_bits == 0]
    assert completed
    assert len({id(r.left_bits) for r in completed}) == 1
    whole = [(e, log.requests[e[5]]) for e in log.events
             if e[2] == "grant" and e[6] == log.requests[e[5]].size_bits]
    assert whole
    assert all(e[6] is r.size_bits for e, r in whole)


@pytest.mark.parametrize("policy", ["rr", "wrr", "edf", "ssbpf_edf", "hedf"])
def test_equal_partial_grants_and_remainders_share_one_int(policy):
    # Grant rows whose bits are not their request's size (partial grants
    # and the grants that finish them) hold one int per value, and so do
    # the unfinished requests' remainders. A partial grant may equal
    # another request's size, which is that request's own object.
    sc = canonical_scenario(seed=1, scheduler_name=policy, total_frames=600)
    log = simulate(sc, build_requests(sc))
    objects = defaultdict(set)
    for e in log.events:
        if e[2] == "grant" and e[6] != log.requests[e[5]].size_bits:
            objects["grant", e[6]].add(id(e[6]))
    assert objects
    for r in log.requests.values():
        if r.left_bits:
            objects["left", r.left_bits].add(id(r.left_bits))
    assert any(kind == "left" for kind, _ in objects)
    assert all(len(ids) == 1 for ids in objects.values())


def test_events_read_back_the_logged_objects_as_a_sequence(tmp_path):
    # The log stores six fields per record and each frame's number once per
    # chunk, and reads the records back as 7-tuples of the stored objects;
    # every reader gives the same result for it as for a plain list of the
    # same tuples.
    sc = canonical_scenario(seed=1, scheduler_name="hedf", total_frames=300)
    log = simulate(sc, build_requests(sc))
    events = log.events
    assert isinstance(events, engine.Events)
    records = list(events)
    fields = list(chain.from_iterable(events.chunks))
    assert len(events.chunks) > 1
    assert {len(c) % 6 for c in events.chunks} == {0}
    assert len(events) == len(records) == len(fields) // 6
    assert {len(e) for e in records} == {7}
    assert [e[0] for e in records] == list(chain.from_iterable(
        [f] * n for f, n in zip(chain.from_iterable(events.frames),
                                chain.from_iterable(events.counts))))
    assert all(a is b for a, b in zip(
        chain.from_iterable(e[1:] for e in events), fields, strict=True))
    assert [events[i] for i in range(len(records))] == records
    assert events[-1] == records[-1] == (records[-1][0], *fields[-6:])
    assert events[-len(records)] == records[0]
    with pytest.raises(IndexError):
        events[len(records)]
    copied = engine.Events()
    for record in records:
        copied.append(record)
    assert len(copied.chunks) > 1 and list(copied) == records
    # Item assignment reaches records in the first and the last chunk, with
    # records of their own frame, and append adds a record after the last.
    i = len(records) - 2
    other = next(e for e in records
                 if e[0] == records[i][0] and e[2] != records[i][2])
    copied[i] = other
    copied[1] = records[0]
    copied.append(records[5])
    assert list(copied) == (records[:1] + records[:1] + records[2:i]
                            + [other] + records[i + 1:] + records[5:6])
    # Assigning a record of another frame would move the record: refused,
    # and the log is left as it was.
    before = list(copied)
    for j, record in ((0, records[-1]), (-2, records[0])):
        with pytest.raises(ValueError, match="belongs to frame"):
            copied[j] = record
    assert list(copied) == before

    plain = replace(log, events=records)
    assert compute_metrics(plain) == compute_metrics(log)
    assert count_context_switches(plain) == count_context_switches(log)
    for name, which in (("events", log), ("plain", plain)):
        write_events_csv(which, str(tmp_path / f"{name}.csv"))
    assert (tmp_path / "events.csv").read_bytes() == \
        (tmp_path / "plain.csv").read_bytes()


def test_event_store_holds_six_fields_per_record():
    # The store's cost: six list slots per record, and each frame's number
    # once per chunk it spans.
    sc = canonical_scenario(seed=1, scheduler_name="edf", total_frames=300)
    log = simulate(sc, build_requests(sc))
    chunks = log.events.chunks
    assert len(chunks) > 1
    assert sum(map(len, chunks)) == 6 * len(log.events)
    assert sum(map(len, log.events.frames)) < sc.total_frames + len(chunks)
    fields = chain.from_iterable(chunks)
    for record in log.events:
        assert type(record) is tuple and len(record) == 7
        assert all(a is b for a, b in zip(record[1:], fields))
    assert next(fields, None) is None


@pytest.mark.parametrize("entry", ["append", "item assignment"])
@pytest.mark.parametrize("length", [6, 8])
def test_event_records_of_another_length_are_refused(entry, length):
    # One short or long record would shift every later record the log reads
    # back, so each entry point refuses it and leaves the log as it was.
    record = (0, 5.0, "grant", 0, 0, 1, 400, 0)[:length]
    events = engine.Events()
    events.append((0, 1.0, "arrival", 0, 0, 1, 400))
    before = list(events)
    with pytest.raises(ValueError, match=f"7 fields, got {length}"):
        if entry == "append":
            events.append(record)
        else:
            events[0] = record
    assert list(events) == before


def test_item_assignment_corruption_fails_the_conservation_check():
    # A grant raised by 10,000 bits through item assignment reaches the
    # benchmark's conservation check as an over-granted request.
    sc = dense_overload_scenario(1, "edf", 200)
    capacity = {c.id: c.base_station_capacity for c in sc.cells}
    log, _ = run(sc)
    assert check_log(log, capacity, in_memory=True) == []
    i = next(i for i, e in enumerate(log.events) if e[2] == "grant")
    rid, bits = log.events[i][5], log.events[i][6]
    log.events[i] = log.events[i][:6] + (bits + 10_000,)
    size = log.requests[rid].size_bits
    failures = check_log(log, capacity, in_memory=True)
    assert any(m.startswith(f"request {rid}: granted {bits + 10_000} of "
                            f"{size} bits") for m in failures), failures


@pytest.mark.parametrize("first,second,frames", [
    (7.5, 2.0, (0, 1)), (100.0, 2.0, (0, 20)), (2.0, -1.0, (-1, 0)),
    (-1.0, -6.0, (-2, -1))])
def test_arrivals_out_of_list_order_are_refused(first, second, frames):
    # The second request arrives a frame before the first, which may lie
    # past the horizon or before frame 0: refused, naming the second.
    sc = single_cell_scenario(capacity=1000, frames=10)
    backwards = [make_request(0, 0, RTPS, first, 400),
                 make_request(1, 0, RTPS, second, 400)]
    with pytest.raises(ValueError, match=f"request 1 arrives in frame "
                       f"{frames[0]}, before frame {frames[1]} "):
        simulate(sc, backwards)


@pytest.mark.parametrize("arrival", [math.nan, math.inf, -math.inf])
def test_arrival_time_in_no_frame_is_refused(arrival):
    # NaN and infinite arrival times lie in no frame: refused, naming the
    # request and its arrival time.
    sc = single_cell_scenario(capacity=1000, frames=10)
    with pytest.raises(ValueError, match=f"request 1 has arrival time "
                       f"{arrival}, in no frame"):
        simulate(sc, [make_request(0, 0, RTPS, 2.0, 400),
                      make_request(1, 0, RTPS, arrival, 400)])


def test_arrivals_outside_the_run_never_arrive():
    sc = single_cell_scenario(capacity=1000, frames=10)
    # Arrivals before frame 0 or at or past the horizon never arrive.
    log = simulate(sc, [make_request(0, 0, RTPS, -1.0, 400),
                        make_request(1, 0, RTPS, 2.0, 400),
                        make_request(2, 0, RTPS, 50.0, 400)])
    assert sorted(log.requests) == [1]
    assert {e[5] for e in log.events} == {1}


def test_invalid_scenario_rejected_with_field_path():
    sc = replace(single_cell_scenario(), ewma_alpha=7.0)
    with pytest.raises(ConfigError) as exc:
        run(sc)
    assert any("ewma_alpha" in v for v in exc.value.violations)


def test_run_reproducible_byte_identical():
    sc1 = canonical_scenario(seed=5, scheduler_name="hedf", total_frames=1500)
    sc2 = canonical_scenario(seed=5, scheduler_name="hedf", total_frames=1500)
    log1, _ = run(sc1)
    log2, _ = run(sc2)
    assert list(log1.events) == list(log2.events)
    # A scenario carries no run state: the same object runs twice alike,
    # and its stations cannot be changed.
    sc = canonical_scenario(seed=5, scheduler_name="ssbpf_edf",
                            total_frames=1500)
    first, _ = run(sc)
    second, _ = run(sc)
    assert list(first.events) == list(second.events)
    assert first.final_station_throughput == \
        second.final_station_throughput
    with pytest.raises(FrozenInstanceError):
        sc.stations[0].capacity_c = 1


def test_arrivals_identical_across_policies():
    logs = {}
    for policy in ("edf", "hedf"):
        sc = canonical_scenario(seed=3, scheduler_name=policy,
                                total_frames=1000)
        logs[policy], _ = run(sc)
    a = [e for e in logs["edf"].events if e[2] == "arrival"]
    b = [e for e in logs["hedf"].events if e[2] == "arrival"]
    assert a == b


def test_grant_replay_rederives_completions_and_conservation():
    sc = canonical_scenario(seed=11, scheduler_name="ssbpf_edf",
                            total_frames=1200)
    log, rec = run(sc)
    served = defaultdict(int)
    completion_time = {}
    for e in log.events:
        if e[2] != "grant":
            continue
        rid = e[5]
        served[rid] += e[6]
        if served[rid] == log.requests[rid].size_bits:
            completion_time[rid] = (e[0] + 1) * log.frame_duration_ms
    logged = {e[5]: e[1] for e in log.events if e[2] == "completion"}
    assert completion_time == logged
    # Conservation: total granted equals total served over all requests.
    assert sum(served.values()) == \
        sum(r.served_bits for r in log.requests.values())


def test_per_frame_capacity_never_exceeded():
    sc = canonical_scenario(seed=2, scheduler_name="rr", total_frames=800)
    log, _ = run(sc)
    capacity = {c.id: c.base_station_capacity for c in sc.cells}
    per_frame = defaultdict(int)
    for e in log.events:
        if e[2] != "grant":
            continue
        per_frame[(e[0], e[3])] += e[6]
    for (frame, cell), bits in per_frame.items():
        assert bits <= capacity[cell]


def test_miss_recorded_once_at_first_boundary_past_deadline():
    sc = single_cell_scenario(capacity=100, frames=20)
    # 1000 bits at 100 bits/frame: completes at frame 9 (t=50), due at 20.
    log = simulate(sc, requests_for(sc, [(0, 0, RTPS, 0.0, 1000)]))
    misses = [e for e in log.events if e[2] == "deadline_miss"]
    assert len(misses) == 1
    assert misses[0][0] == 4  # first boundary past 20.0 is t=25, frame 4
    assert misses[0][1] == 25.0
    # Served late, not dropped: the completion still happens.
    assert len([e for e in log.events if e[2] == "completion"]) == 1


def test_completion_on_time_no_miss():
    sc = single_cell_scenario(capacity=1000, frames=20)
    log = simulate(sc, requests_for(sc, [(0, 0, RTPS, 0.0, 800)]))
    assert [e for e in log.events if e[2] == "deadline_miss"] == []


def test_drop_on_miss_removes_request():
    sc = single_cell_scenario(capacity=100, frames=20, drop_on_miss=True)
    log = simulate(sc, requests_for(sc, [(0, 0, RTPS, 0.0, 1000)]))
    assert len([e for e in log.events if e[2] == "deadline_miss"]) == 1
    assert [e for e in log.events if e[2] == "completion"] == []
    grants = [e for e in log.events if e[2] == "grant"]
    assert all(e[0] <= 4 for e in grants)  # nothing granted after the drop
    served = sum(e[6] for e in grants)
    assert served < 1000


def test_events_time_ordered():
    sc = canonical_scenario(seed=7, scheduler_name="edf", total_frames=600)
    log, _ = run(sc)
    times = [e[1] for e in log.events]
    assert times == sorted(times)


@pytest.mark.parametrize("drop_on_miss", [False, True])
def test_late_request_still_served(drop_on_miss):
    # Overload then drain: both requests complete even though one misses.
    # Request 1 completes at 10.0, in the frame whose closing boundary first
    # passes its 8.0 deadline: a miss with nothing left to serve, so
    # drop_on_miss has nothing to drop.
    sc = single_cell_scenario(capacity=500, frames=30,
                              drop_on_miss=drop_on_miss)
    log = simulate(sc, requests_for(sc, [
        (0, 0, RTPS, 0.0, 1000),
        (1, 0, RTPS, 0.0, 1000, 8.0),
    ]))
    assert [e[5] for e in log.events if e[2] == "completion"] == [1, 0]
    misses = [e for e in log.events if e[2] == "deadline_miss"]
    assert [e[5] for e in misses] == [1]
    assert misses[0][1] == 10.0  # first boundary past the 8.0 deadline
    assert misses[0][6] == 0


@pytest.mark.parametrize("policy", ["ssbpf_edf", "hedf"])
def test_throughput_history_matches_repeated_op_application(policy):
    sc = canonical_scenario(seed=9, scheduler_name=policy, total_frames=700)
    assert len(sc.cells) == 7
    log = simulate(sc, build_requests(sc))
    served = {sid: [0] * sc.total_frames for sid in log.station_ids}
    for e in log.events:
        if e[2] != "grant":
            continue
        served[e[4]][e[0]] += e[6]
    th = {sid: 0.0 for sid in log.station_ids}
    for f in range(sc.total_frames):
        for sid in log.station_ids:
            th[sid] = update_historical_throughput(th[sid], served[sid][f],
                                                   sc.ewma_alpha)
    assert th == log.final_station_throughput


@pytest.mark.parametrize("policy,steps_per_station_frame", [
    ("rr", 0), ("wrr", 0), ("edf", 0), ("ssbpf_edf", 1), ("hedf", 1)])
def test_ewma_steps_only_under_ranking_policies(monkeypatch, policy,
                                                steps_per_station_frame):
    calls = []

    def counted(th, served, alpha):
        calls.append(1)
        return update_historical_throughput(th, served, alpha)

    # Also counted should the engine import the step again.
    for module in (schedulers, engine):
        monkeypatch.setattr(module, "update_historical_throughput", counted,
                            raising=False)
    sc = canonical_scenario(seed=4, scheduler_name=policy, total_frames=200)
    log = simulate(sc, build_requests(sc))
    assert len(calls) == \
        steps_per_station_frame * sc.total_frames * len(sc.stations)
    # A policy that ranks no stations keeps no throughputs.
    assert len(log.final_station_throughput) == \
        steps_per_station_frame * len(sc.stations)


def test_context_switch_event_emitted_on_preemption():
    # A best-effort request is interrupted mid-service by a tight-deadline
    # arrival: exactly one preemptive transition, back-transfer is free.
    sc = single_cell_scenario(policy="edf", capacity=100, n_stations=2,
                              frames=10)
    log = simulate(sc, requests_for(sc, [
        (0, 0, BE, 0.0, 250),
        (1, 1, RTPS, 10.0, 100),
    ]))
    grants = [(e[5], e[6]) for e in log.events if e[2] == "grant"]
    assert grants == [(0, 100), (0, 100), (1, 100), (0, 50)]
    switches = [e for e in log.events if e[2] == "context_switch"]
    assert len(switches) == 1
    assert switches[0][5] == 0  # the preempted request
