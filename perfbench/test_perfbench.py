"""Tests of the benchmark itself, on shortened workloads."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from uplinksim import engine
from uplinksim.metrics import write_events_csv
from uplinksim.model import validate_scenario
from uplinksim.traffic import build_requests

from perfbench import checks, run, workloads

ROOT = Path(__file__).resolve().parent.parent
FRAMES = 40


@pytest.fixture
def small(monkeypatch, tmp_path):
    """Every workload shortened to FRAMES frames; outputs under tmp_path."""
    for name in ("CLI_FRAMES", "SWEEP_FRAMES", "DENSE_FRAMES"):
        monkeypatch.setattr(workloads, name, FRAMES)
    monkeypatch.setattr(run, "SCRATCH", tmp_path / "scratch")
    monkeypatch.setattr(run, "TRACES", tmp_path / "traces")
    monkeypatch.setattr(run, "SETUP_PROBES", 1)
    return tmp_path


def test_workload_inputs_repeat_for_a_seed(small):
    a = workloads.dense_overload_scenario(5, "hedf", FRAMES)
    b = workloads.dense_overload_scenario(5, "hedf", FRAMES)
    assert a == b
    assert a != workloads.dense_overload_scenario(6, "hedf", FRAMES)

    def arrivals(sc):
        return [(r.id, r.arrival_time, r.size_bits, r.deadline)
                for r in build_requests(sc)]
    assert arrivals(a) == arrivals(b)
    assert workloads.CsSweep(5).scenarios == workloads.CsSweep(5).scenarios


def test_dense_overload_scenario_is_valid_and_overloaded():
    sc = workloads.dense_overload_scenario(3, "edf", workloads.DENSE_FRAMES)
    assert validate_scenario(sc) == []
    assert sc.drop_on_miss
    assert [len(c.station_ids) for c in sc.cells] == [24, 24]
    frames_per_s = 1000.0 / sc.frame_duration
    for cell in sc.cells:
        offered = sum(spec.rate_bits_per_s for sid in cell.station_ids
                      for spec in sc.traffic_specs[sid])
        assert offered / (cell.base_station_capacity * frames_per_s) \
            == pytest.approx(1.10)
    specs = [s for specs in sc.traffic_specs.values() for s in specs]
    assert {s.service_class.value for s in specs} == {"UGS", "ertPS", "rtPS",
                                                      "BE"}
    assert {s.pattern for s in specs} == {"constant_rate", "poisson"}
    assert len({st.capacity_c for st in sc.stations}) > 1


def test_digest_bytes_are_the_written_csv(tmp_path):
    log, _ = engine.run(workloads.dense_overload_scenario(2, "hedf", FRAMES))
    path = write_events_csv(log, str(tmp_path / "events.csv"))
    assert Path(path).read_bytes() == checks.events_csv_bytes(log.events)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_clean_repetitions_pass_every_check(small, name):
    h = run.Harness(workloads.WORKLOADS[name](1, str(small / name)))
    h.repetition()
    h.repetition(full=True)
    assert (h.failed, h.attempted) == (0, 2 * len(h.steps))
    assert len(h.walls) == 1


def test_corrupted_log_counts_as_failed_run(small):
    h = run.Harness(workloads.DenseOverload(1))
    label, fn = h.steps[0]

    def corrupted():
        log, rec = fn()
        i = next(i for i, e in enumerate(log.events) if e[2] == "grant")
        log.events[i] = log.events[i][:6] + (log.events[i][6] + 10_000,)
        return log, rec
    h.steps[0] = (label, corrupted)
    h.repetition(full=True)
    assert (h.failed, h.attempted) == (1, len(h.steps))


def test_corrupted_csv_counts_as_failed_report(small):
    w = workloads.CanonicalCli(1, str(small / "cli"))
    h = run.Harness(w)
    label, fn = h.steps[0]

    def corrupted():
        fn()
        path = Path(w.events_path[label])
        text = path.read_bytes().decode()
        row = next(line for line in text.split("\r\n")
                   if ",completion," in line)
        fields = row.split(",")
        fields[6] = str(int(fields[6]) + 1)
        path.write_bytes(text.replace(row, ",".join(fields), 1).encode())
    h.steps[0] = (label, corrupted)
    h.repetition(full=True)
    # The reloaded throughput no longer matches the run's summary.
    assert h.failed == 1


def test_output_that_changes_between_repetitions_counts(small):
    h = run.Harness(workloads.CsSweep(1))
    h.repetition()
    label, fn = h.steps[0]

    def extra_event():
        log = fn()
        log.events.append(log.events[-1])
        return log
    h.steps[0] = (label, extra_event)
    h.repetition()
    assert h.failed == 1
    assert len(h.walls) == 1  # the failed repetition has no wall time


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_run_prints_every_declared_metric(small, capsys, name, trace):
    argv = ["--workload", name, "--seed", "1", "--seconds", "0",
            "--trace", str(trace)]
    assert run.main(argv) == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = spec["per_layer" if trace else "end_to_end"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["metrics"] == {
        m["name"]: {"value": result["metrics"][m["name"]]["value"],
                    "unit": m["unit"]} for m in declared}
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())
    assert not any((small / "scratch").iterdir())


def test_exits_without_result_when_the_program_is_missing(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("_scratch", "_traces",
                                                  "__pycache__"))
    p = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "cs_sweep",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert p.returncode != 0
    assert "correct" not in p.stdout
