import csv
import io
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from uplinksim.engine import EVENT_TYPES, EventLog, run, simulate
from uplinksim.metrics import (CLASS_ORDER, DelayStats, MetricsRecord,
                               compute_metrics, compute_starvation_windows,
                               count_context_switches, delay_stats,
                               format_table, load_events_csv,
                               parse_summary_csv, summary_row,
                               write_events_csv, write_summary_csv)
from uplinksim.model import (ConfigError, ServiceClass, canonical_scenario,
                             make_request)
from conftest import starvation_windows_oracle
from test_engine import requests_for, single_cell_scenario

RTPS = ServiceClass.RTPS
BE = ServiceClass.BE


def synthetic_log(events, requests=(), frames=200, frame_ms=5.0,
                  stations=(0,)):
    log = EventLog(frame_duration_ms=frame_ms, total_frames=frames,
                   station_ids=list(stations))
    log.events = list(events)
    for r in requests:
        log.requests[r.id] = r
    return log


def test_throughput_arithmetic():
    events = [(k, (k + 1) * 5.0, "completion", 0, 0, k, 1000)
              for k in range(10)]
    reqs = [make_request(k, 0, RTPS, 0.0, 1000) for k in range(10)]
    log = synthetic_log(events, reqs, frames=200)  # 1 s at 5 ms frames
    assert compute_metrics(log).throughput_bps == 10_000.0


def test_throughput_empty():
    assert compute_metrics(synthetic_log([])).throughput_bps == 0.0


def test_throughput_duration_contract(tmp_path):
    # A reloaded log must span at least one frame of positive, finite
    # duration, and the file does not say how many: the caller does.
    path = write_events_csv(synthetic_log([]), str(tmp_path / "empty.csv"))
    with pytest.raises(TypeError, match="total_frames"):
        load_events_csv(path)
    for kwargs in ({"total_frames": 0},
                   *({"total_frames": 10, "frame_duration_ms": delta}
                     for delta in (0.0, float("nan"), float("inf")))):
        with pytest.raises(ConfigError, match="duration must be > 0"):
            load_events_csv(path, **kwargs)


def test_delay_single_value():
    r = make_request(0, 0, RTPS, 10.0, 100)
    log = synthetic_log([(4, 25.0, "completion", 0, 0, 0, 100)], [r])
    stats = compute_metrics(log).delay_ms
    assert stats.mean == 15.0
    assert stats.p50 == stats.p95 == stats.max == 15.0


def test_delay_stats_ordering():
    stats = delay_stats([5.0, 1.0, 9.0, 3.0, 7.0])
    assert stats.p50 <= stats.p95 <= stats.max
    assert stats.p50 == 5.0
    assert stats.p95 == 9.0
    assert stats.mean == 5.0


def test_delay_single_request_bounded_by_two_frames():
    sc = single_cell_scenario(capacity=1000)
    log = simulate(sc, requests_for(sc, [(0, 0, RTPS, 2.0, 900)]))
    rec = compute_metrics(log)
    assert rec.delay_ms.max <= 2 * sc.frame_duration


def test_starvation_served_every_frame_small_window():
    # Backlogged for 10 frames but granted in each: no starved frame at all.
    events = []
    events.append((0, 0.0, "arrival", 0, 0, 0, 1000))
    for f in range(10):
        events.append((f, (f + 1) * 5.0, "grant", 0, 0, 0, 100))
    r = make_request(0, 0, RTPS, 0.0, 1000)
    log = synthetic_log(events, [r], frames=10)
    assert compute_starvation_windows(log)[0] <= log.frame_duration_ms


def test_starvation_never_served():
    # Backlogged from t=0, zero grants over a 500 ms run.
    r = make_request(0, 0, RTPS, 0.0, 1000)
    log = synthetic_log([(0, 0.0, "arrival", 0, 0, 0, 1000)], [r],
                        frames=100)
    assert compute_starvation_windows(log)[0] == 500.0


def test_starvation_window_resets_on_grant():
    events = [
        (0, 0.0, "arrival", 0, 0, 0, 300),
        (3, 20.0, "grant", 0, 0, 0, 100),  # 3 starved frames, then service
        (4, 25.0, "grant", 0, 0, 0, 100),
        (5, 30.0, "grant", 0, 0, 0, 100),
    ]
    r = make_request(0, 0, RTPS, 0.0, 300)
    log = synthetic_log(events, [r], frames=20)
    assert compute_starvation_windows(log)[0] == 15.0


def check_starvation(log, expected):
    assert compute_starvation_windows(log) == expected
    assert starvation_windows_oracle(log) == expected


def test_starvation_silent_frames_after_drop_end_the_window():
    # Frames 1-3 starve until the remainders are dropped; frames 4-5 are
    # silent with nothing queued, so they end that window, the longest.
    # Frames 6-7 starve again until the grant in frame 8.
    events = [
        (0, 0.0, "arrival", 0, 0, 0, 500),
        (0, 5.0, "grant", 0, 0, 0, 100),
        (1, 7.0, "arrival", 0, 0, 1, 100),
        (3, 20.0, "deadline_miss", 0, 0, 0, 400),
        (3, 20.0, "deadline_miss", 0, 0, 1, 100),
        (6, 30.0, "arrival", 0, 0, 2, 100),
        (8, 45.0, "grant", 0, 0, 2, 100),
        (8, 45.0, "completion", 0, 0, 2, 100),
    ]
    log = synthetic_log(events, frames=12)
    log.drop_on_miss = True
    check_starvation(log, {0: 15.0})


def test_starvation_ignores_events_past_the_horizon():
    events = [
        (0, 1.0, "arrival", 0, 0, 0, 100),
        (5, 26.0, "arrival", 0, 1, 1, 100),
        (6, 35.0, "grant", 0, 0, 0, 100),
    ]
    log = synthetic_log(events, frames=4, stations=(0, 1))
    check_starvation(log, {0: 20.0, 1: 0.0})


@pytest.mark.parametrize("drop,expected", [(True, 10.0), (False, 45.0)])
def test_starvation_dropped_remainder_in_frame_without_grant(drop, expected):
    # Granted in frame 0, starved in frames 1 and 2; the remainder missed in
    # frame 2 leaves the queue only when it is dropped.
    events = [
        (0, 0.0, "arrival", 0, 0, 0, 1000),
        (0, 5.0, "grant", 0, 0, 0, 400),
        (2, 15.0, "deadline_miss", 0, 0, 0, 600),
    ]
    log = synthetic_log(events, frames=10)
    log.drop_on_miss = drop
    check_starvation(log, {0: expected})


def test_starvation_windows_scratch_memory_is_per_station():
    sc = canonical_scenario(seed=1, scheduler_name="edf", total_frames=3000)
    log, rec = run(sc)
    tracemalloc.start()
    try:
        windows = compute_starvation_windows(log)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert windows == rec.max_starvation_window_ms
    assert peak < 1 << 20


def test_context_switch_recount_matches_engine_events():
    for policy in ("edf", "hedf", "rr"):
        sc = canonical_scenario(seed=4, scheduler_name=policy,
                                total_frames=900)
        log, rec = run(sc)
        assert count_context_switches(log) == rec.context_switch_count


def test_metrics_invariants_on_real_run():
    sc = canonical_scenario(seed=8, scheduler_name="ssbpf_edf",
                            total_frames=1000)
    log, rec = run(sc)
    assert rec.throughput_bps <= rec.offered_load_bps
    assert 0.0 <= rec.deadline_miss_ratio <= 1.0
    assert rec.delay_ms.p50 <= rec.delay_ms.p95 <= rec.delay_ms.max
    # Throughput recomputed from grant records of completed requests.
    completed = {e[5] for e in log.events if e[2] == "completion"}
    granted = sum(e[6] for e in log.events
                  if e[2] == "grant" and e[5] in completed)
    assert granted / log.duration_s == rec.throughput_bps


def test_export_empty_log_header_only(tmp_path):
    log = synthetic_log([])
    path = write_events_csv(log, str(tmp_path / "empty.csv"))
    lines = Path(path).read_text().splitlines()
    assert lines == ["frame,time_ms,event,cell,station,request,bits"]


def test_export_row_count(tmp_path):
    sc = canonical_scenario(seed=1, scheduler_name="edf", total_frames=300)
    log, rec = run(sc)
    path = write_events_csv(log, str(tmp_path / "ev.csv"))
    with open(path) as fh:
        n_lines = sum(1 for _ in fh)
    assert n_lines == len(log.events) + 1


def test_export_overwrite_guard(tmp_path):
    log = synthetic_log([])
    path = str(tmp_path / "x.csv")
    write_events_csv(log, path)
    with pytest.raises(FileExistsError):
        write_events_csv(log, path)
    write_events_csv(log, path, force=True)


_FIELD = st.one_of(
    st.integers(min_value=-2 ** 100, max_value=2 ** 100),
    st.booleans(),
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([0.0, -0.0, 1e-7, 10.0 ** 20, 1e16, 0.1,
                     float("inf"), float("-inf"), float("nan")]),
    st.sampled_from(EVENT_TYPES),
)


@settings(max_examples=200, deadline=None)
@given(rows=st.lists(st.tuples(*[_FIELD] * 7), max_size=20))
def test_event_rows_are_the_csv_writer_bytes(tmp_path_factory, rows):
    # csv.writer is the reference: the fixed row format must write the same
    # bytes for every number and every event name.
    path = str(tmp_path_factory.mktemp("oracle") / "ev.csv")
    write_events_csv(synthetic_log(rows), path)
    ref = io.StringIO(newline="")
    w = csv.writer(ref)
    w.writerow(["frame", "time_ms", "event", "cell", "station", "request",
                "bits"])
    w.writerows(rows)
    assert Path(path).read_bytes() == ref.getvalue().encode()


def record_from_summary(row, station_ids):
    """Inverse of summary_row."""
    by_class = {}
    for cls in CLASS_ORDER:
        by_class[cls] = DelayStats(
            mean=row[f"delay_mean_ms_{cls}"], p50=row[f"delay_p50_ms_{cls}"],
            p95=row[f"delay_p95_ms_{cls}"], max=row[f"delay_max_ms_{cls}"])
    return MetricsRecord(
        throughput_bps=row["throughput_bps"],
        throughput_bps_by_station={
            sid: row[f"throughput_bps_station{sid}"] for sid in station_ids},
        delay_ms=DelayStats(mean=row["delay_mean_ms"], p50=row["delay_p50_ms"],
                            p95=row["delay_p95_ms"], max=row["delay_max_ms"]),
        delay_ms_by_class=by_class,
        deadline_miss_ratio=row["deadline_miss_ratio"],
        max_starvation_window_ms={
            sid: row[f"max_starvation_ms_station{sid}"] for sid in station_ids},
        context_switch_count=row["context_switch_count"],
        offered_load_bps=row["offered_load_bps"],
    )


def test_summary_round_trip_exact(tmp_path):
    sc = canonical_scenario(seed=6, scheduler_name="hedf", total_frames=800)
    log, rec = run(sc)
    row = summary_row(sc.name, sc.scheduler_name, sc.seed, rec,
                      log.station_ids)
    summary_path = write_summary_csv([row], str(tmp_path / "r1.summary.csv"))
    rows = parse_summary_csv(summary_path)
    assert len(rows) == 1
    back = record_from_summary(rows[0], log.station_ids)
    assert back.throughput_bps == rec.throughput_bps
    assert back.offered_load_bps == rec.offered_load_bps
    assert back.delay_ms == rec.delay_ms
    assert back.deadline_miss_ratio == rec.deadline_miss_ratio
    assert back.context_switch_count == rec.context_switch_count
    assert back.throughput_bps_by_station == rec.throughput_bps_by_station
    assert back.max_starvation_window_ms == rec.max_starvation_window_ms
    for cls, stats in rec.delay_ms_by_class.items():
        assert back.delay_ms_by_class[cls] == stats


def test_event_csv_replay_matches_in_memory(tmp_path):
    # Independent recomputation of the global stats from the raw CSV.
    sc = canonical_scenario(seed=12, scheduler_name="edf", total_frames=600)
    log, rec = run(sc)
    path = write_events_csv(log, str(tmp_path / "ev.csv"))

    arrivals = {}
    completions = []
    switches = 0
    with open(path, newline="") as fh:
        for row in csv.DictReader(fh):
            if row["event"] == "arrival":
                arrivals[row["request"]] = float(row["time_ms"])
            elif row["event"] == "completion":
                completions.append(
                    (row["request"], float(row["time_ms"]), int(row["bits"])))
            elif row["event"] == "context_switch":
                switches += 1
    delays = [t - arrivals[rid] for rid, t, _ in completions]
    assert delay_stats(delays) == rec.delay_ms
    total_bits = sum(b for _, _, b in completions)
    assert total_bits / log.duration_s == rec.throughput_bps
    assert switches == rec.context_switch_count

    reloaded = load_events_csv(path, frame_duration_ms=log.frame_duration_ms,
                               total_frames=log.total_frames)
    # The file does not list the stations either; the run's scenario does.
    assert reloaded.station_ids == []
    reloaded.station_ids = sorted(st.id for st in sc.stations)
    rec2 = compute_metrics(reloaded)
    assert rec2.throughput_bps == rec.throughput_bps
    assert rec2.delay_ms == rec.delay_ms
    # The file carries no service classes, so no per-class delays reload.
    assert rec.delay_ms_by_class and rec2.delay_ms_by_class == {}
    assert rec2.deadline_miss_ratio == rec.deadline_miss_ratio
    assert rec2.context_switch_count == rec.context_switch_count
    assert rec2.max_starvation_window_ms == rec.max_starvation_window_ms


def test_load_events_csv_accepts_csv_variants_and_shares_values(tmp_path):
    # Quoted fields, extra columns and bare \n line endings parse as before.
    path = tmp_path / "ev.csv"
    path.write_bytes(
        b"frame,time_ms,event,cell,station,request,bits\n"
        b'"300","1501.5","arrival",1000,1000,70000,1000\n'
        b'300,1505.0,"grant",1000,1000,70000,600\n'
        b"300,1505.0,completion,1000,1000,70000,400,,\n"
        b"301,1510.0,grant,1000,1000,70000,400\n")
    log = load_events_csv(str(path), total_frames=302)
    assert list(log.events) == [
        (300, 1501.5, "arrival", 1000, 1000, 70000, 1000),
        (300, 1505.0, "grant", 1000, 1000, 70000, 600),
        (300, 1505.0, "completion", 1000, 1000, 70000, 400),
        (301, 1510.0, "grant", 1000, 1000, 70000, 400)]
    first, grant, odd, later = log.events
    # One frame int and one stamp per frame, the engine's event names, and
    # one int per distinct integer field value.
    assert first[0] is grant[0] is odd[0] and grant[1] is odd[1]
    assert grant[2] is EVENT_TYPES[1] and later[2] is grant[2]
    assert odd[2] is EVENT_TYPES[2]
    assert first[3] is first[4] is first[6] and first[5] is later[5]
    assert odd[6] is later[6]


def test_summary_columns_stable():
    rec = compute_metrics(synthetic_log([], stations=(0, 1)))
    cols = list(summary_row("s", "edf", 1, rec, [0, 1]))
    assert cols[0:3] == ["scenario", "policy", "seed"]
    assert "delay_mean_ms_rtPS" in cols
    assert cols.index("throughput_bps_station0") < \
        cols.index("throughput_bps_station1")


def test_format_table_alignment():
    text = format_table(["a", "bbbb"], [[1, 2.5], [333, 4.0]])
    lines = text.splitlines()
    assert len(lines) == 4
    assert all(len(line) == len(lines[0]) for line in lines[1:])
