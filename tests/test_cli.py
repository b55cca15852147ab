import copy
import csv
import json
import math
import os
import re
import subprocess
import sys
import textwrap
import tracemalloc
from pathlib import Path

import pytest
import yaml

from uplinksim import cli, engine
from uplinksim.cli import (EXIT_CONFIG, EXIT_INVARIANT, EXIT_IO, EXIT_OK,
                           load_scenario, main, scenario_to_dict)
from uplinksim.model import ConfigError, ServiceClass
from uplinksim.schedulers import POLICY_NAMES


GOOD_CONFIG = {
    "name": "two_cells",
    "frame_duration_ms": 5.0,
    "total_frames": 400,
    "seed": 3,
    "scheduler": "edf",
    "cells": [
        {"id": 0, "capacity_bits_per_frame": 1200,
         "stations": [
             {"id": 0, "capacity_bits_per_frame": 1200,
              "traffic": [{"class": "rtPS", "pattern": "constant_rate",
                           "rate_bits_per_s": 64000,
                           "packet_size_bits": 800}]},
             {"id": 1,
              "traffic": [{"class": "BE", "pattern": "poisson",
                           "rate_bits_per_s": 32000,
                           "packet_size_bits": 1600}]},
         ]},
        {"id": 1, "capacity_bits_per_frame": 800,
         "stations": [
             {"id": 2,
              "traffic": [{"class": "nrtPS", "pattern": "constant_rate",
                           "rate_bits_per_s": 16000,
                           "packet_size_bits": 400}]},
         ]},
    ],
}


def write_config(tmp_path, doc, name="sc.yaml"):
    path = tmp_path / name
    path.write_text(yaml.safe_dump(doc))
    return str(path)


def with_values(*changes):
    """A copy of GOOD_CONFIG with each (key path, value) change applied."""
    doc = copy.deepcopy(GOOD_CONFIG)
    for where, value in changes:
        parent = doc
        for key in where[:-1]:
            parent = parent[key]
        parent[where[-1]] = value
    return doc


def test_run_two_policies_same_arrivals(tmp_path, capsys):
    out = str(tmp_path / "out")
    rc = main(["run", "--scenario", "canonical", "--policy", "edf,hedf",
               "--seed", "1", "--frames", "400", "--out", out])
    assert rc == EXIT_OK
    files = sorted(os.listdir(out))
    assert files == ["canonical_edf_seed1.events.csv",
                     "canonical_hedf_seed1.events.csv", "manifest.json",
                     "summary.csv"]

    def arrivals(path):
        with open(path) as fh:
            return [line for line in fh if ",arrival," in line]

    assert arrivals(os.path.join(out, files[0])) == \
        arrivals(os.path.join(out, files[1]))
    assert "throughput_bps" in capsys.readouterr().out


def test_run_starvation_reports_station_b_window(tmp_path):
    out = str(tmp_path / "out")
    rc = main(["run", "--scenario", "starvation", "--policy", "edf",
               "--seed", "1", "--frames", "2000", "--out", out])
    assert rc == EXIT_OK
    from uplinksim.metrics import parse_summary_csv
    row = parse_summary_csv(os.path.join(out, "summary.csv"))[0]
    assert row["max_starvation_ms_station1"] > 0.0


def test_missing_scenario_file_exit_2(tmp_path):
    out = str(tmp_path / "out")
    rc = main(["run", "--scenario", str(tmp_path / "nope.yaml"), "--out", out])
    assert rc == EXIT_CONFIG
    assert not os.path.exists(os.path.join(out, "summary.csv"))


@pytest.mark.parametrize("text,message", [
    ("cells: [\n", "scenario file {path}: "),
    ("name: a\n  seed: 1\n", "scenario file {path}: "),
    ("", "config: top level must be a mapping"),
    ("- 1\n- 2\n", "config: top level must be a mapping"),
    ("just words\n", "config: top level must be a mapping"),
], ids=["unclosed list", "bad indent", "empty", "list", "scalar"])
@pytest.mark.parametrize("command", ["run", "validate"])
def test_unreadable_scenario_file_exit_2(tmp_path, capsys, command, text,
                                         message):
    path = tmp_path / "sc.yaml"
    path.write_text(text)
    out = tmp_path / "out"
    argv = (["run", "--scenario", str(path), "--out", str(out)]
            if command == "run" else ["validate", str(path)])
    assert main(argv) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert f"error: {message.format(path=path)}" in captured.err
    assert captured.out == ""
    assert not out.exists()


def test_unknown_policy_exit_2(tmp_path, capsys):
    rc = main(["run", "--scenario", "canonical", "--policy", "lifo",
               "--out", str(tmp_path / "out")])
    assert rc == EXIT_CONFIG
    assert "'lifo'" in capsys.readouterr().err
    assert not os.path.exists(tmp_path / "out")


def test_overwrite_without_force_exit_3_and_force_identical(tmp_path):
    out = str(tmp_path / "out")
    argv = ["run", "--scenario", "canonical", "--policy", "rr",
            "--seed", "2", "--frames", "300", "--out", out]
    assert main(argv) == EXIT_OK
    events = os.path.join(out, "canonical_rr_seed2.events.csv")
    first = Path(events).read_bytes()
    assert main(argv) == EXIT_IO
    assert main(argv + ["--force"]) == EXIT_OK
    assert Path(events).read_bytes() == first


@pytest.mark.parametrize("seeds", ["1,99999999999999999999999", "1,1",
                                   "abc"])
def test_run_invalid_seed_writes_nothing(tmp_path, seeds):
    # A second seed that does not fit in 64 bits or repeats the first, or a
    # seed that is not an integer, is refused before the first events CSV is
    # written.
    out = tmp_path / "out"
    out.mkdir()
    rc = main(["run", "--scenario", "canonical", "--policy", "edf",
               "--seed", seeds, "--frames", "50", "--out", str(out)])
    assert rc == EXIT_CONFIG
    assert os.listdir(out) == []


@pytest.mark.parametrize("option,value", [("--policy", ","),
                                          ("--seed", " , ")])
def test_run_empty_list_writes_nothing(tmp_path, capsys, option, value):
    # A policy or seed list with no item is refused before --out is made.
    out = tmp_path / "out"
    rc = main(["run", "--scenario", "canonical", option, value,
               "--frames", "50", "--out", str(out)])
    assert rc == EXIT_CONFIG
    assert "empty comma list" in capsys.readouterr().err
    assert not out.exists()


def test_run_stale_summary_without_force_writes_nothing(tmp_path):
    out = tmp_path / "out"
    out.mkdir()
    (out / "summary.csv").write_text("stale\n")
    rc = main(["run", "--scenario", "canonical", "--policy", "edf,rr",
               "--seed", "1", "--frames", "50", "--out", str(out)])
    assert rc == EXIT_IO
    assert os.listdir(out) == ["summary.csv"]
    assert (out / "summary.csv").read_text() == "stale\n"


def test_run_stale_manifest_without_force_writes_nothing(tmp_path):
    out = tmp_path / "out"
    out.mkdir()
    (out / "manifest.json").write_text("{}")
    rc = main(["run", "--scenario", "canonical", "--policy", "edf",
               "--frames", "50", "--out", str(out)])
    assert rc == EXIT_IO
    assert os.listdir(out) == ["manifest.json"]
    assert main(["run", "--scenario", "canonical", "--policy", "edf",
                 "--frames", "50", "--out", str(out), "--force"]) == EXIT_OK
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest == {"canonical_edf_seed1.events.csv": scenario_to_dict(
        load_scenario("canonical", total_frames=50))}


def test_validate_builtin_ok(capsys):
    assert main(["validate", "canonical"]) == EXIT_OK
    doc = yaml.safe_load(capsys.readouterr().out)
    assert doc["total_frames"] == 12000
    assert len(doc["cells"]) == 7


def test_validate_file_round_trip(tmp_path, capsys):
    path = write_config(tmp_path, GOOD_CONFIG)
    assert main(["validate", path]) == EXIT_OK
    doc = yaml.safe_load(capsys.readouterr().out)
    assert doc["name"] == "two_cells"
    assert doc["ewma_alpha"] == 0.1  # default filled in
    sc = load_scenario(path)
    assert scenario_to_dict(sc) == doc


def test_validate_bad_alpha_named(tmp_path, capsys):
    doc = dict(GOOD_CONFIG, ewma_alpha=1.5)
    path = write_config(tmp_path, doc)
    assert main(["validate", path]) == EXIT_CONFIG
    assert "ewma_alpha" in capsys.readouterr().err


def test_validate_duplicate_station_lists_both(tmp_path, capsys):
    doc = yaml.safe_load(yaml.safe_dump(GOOD_CONFIG))
    doc["cells"][1]["stations"][0]["id"] = 0  # collides with cell 0's station
    path = write_config(tmp_path, doc)
    assert main(["validate", path]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "stations[0]" in err and "stations[2]" in err


def test_validate_collects_multiple_violations(tmp_path, capsys):
    doc = dict(GOOD_CONFIG, ewma_alpha=0.0, total_frames=-5)
    path = write_config(tmp_path, doc)
    assert main(["validate", path]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "ewma_alpha" in err and "total_frames" in err


STATION0 = ["cells", 0, "stations", 0]
TRAFFIC0 = STATION0 + ["traffic", 0]


@pytest.mark.parametrize("where,value,path", [
    (["drop_on_miss"], "no", "config.drop_on_miss"),
    (["total_frames"], 100.7, "config.total_frames"),
    (["cells", 0, "capacity_bits_per_frame"], 1200.9,
     "cells[0].capacity_bits_per_frame"),
    (TRAFFIC0 + ["packet_size_bits"], 800.5,
     "cells[0].stations[0].traffic[0].packet_size_bits"),
    (["cells"], 5, "config.cells"),
    (["cells"], [7], "config.cells"),
    (["cells", 0, "capacity_bits_per_frame"], "abc",
     "cells[0].capacity_bits_per_frame"),
    (["frame_duration_ms"], "fast", "config.frame_duration_ms"),
    (["seed"], "x", "config.seed"),
    (TRAFFIC0 + ["stop_ms"], "soon",
     "cells[0].stations[0].traffic[0].stop_ms"),
    (STATION0 + ["traffic"], "rtPS", "cells[0].stations[0].traffic"),
    (["seed"], True, "config.seed"),
    (TRAFFIC0 + ["rate_bits_per_s"], 10 ** 400,
     "cells[0].stations[0].traffic[0].rate_bits_per_s"),
    (["name"], None, "config.name"),
    (["name"], 5, "config.name"),
    (["scheduler"], 5, "config.scheduler"),
], ids=["drop_on_miss no", "total_frames float", "capacity float",
        "packet size float", "cells int", "cells of int", "capacity str",
        "frame_duration_ms str", "seed str", "stop_ms str", "traffic str",
        "seed bool", "rate beyond float", "name null", "name int",
        "scheduler int"])
def test_config_value_of_wrong_type_exit_2(tmp_path, capsys, where, value,
                                           path):
    # Each value is refused where it is read, with its path named, instead
    # of being cast (truncated, None or 5 taken as a name, any string taken
    # as true) or crashing.
    cfg = write_config(tmp_path, with_values((where, value)))
    out = tmp_path / "out"
    assert main(["validate", cfg]) == EXIT_CONFIG
    assert main(["run", "--scenario", cfg, "--out", str(out)]) == EXIT_CONFIG
    assert not out.exists()
    err = capsys.readouterr().err
    assert f"{path}: expected " in err
    assert "missing required key" not in err


def test_config_unknown_class_reported_after_its_entry(tmp_path, capsys):
    # A class name is looked up once its whole traffic entry has been read,
    # so its error follows the entry's other errors.
    cfg = write_config(tmp_path, with_values(
        (TRAFFIC0 + ["class"], "XX"), (TRAFFIC0 + ["packet_size_bits"], 0.5)))
    assert main(["validate", cfg]) == EXIT_CONFIG
    path = "error: cells[0].stations[0].traffic[0]"
    assert capsys.readouterr().err.splitlines() == [
        f"{path}.packet_size_bits: expected an integer, got 0.5",
        f"{path}.class: unknown class 'XX', expected one of "
        "['BE', 'UGS', 'ertPS', 'nrtPS', 'rtPS']"]


@pytest.mark.parametrize("where,path", [
    (["total_frame"], "config.total_frame"),
    (["cells", 0, "capacity"], "cells[0].capacity"),
    (STATION0 + ["wrr_wieght"], "cells[0].stations[0].wrr_wieght"),
    (TRAFFIC0 + ["stop_sm"], "cells[0].stations[0].traffic[0].stop_sm"),
], ids=["config", "cell", "station", "traffic"])
def test_config_unknown_key_exit_2(tmp_path, capsys, where, path):
    # A misspelt key is refused at every level, with its path named, instead
    # of being ignored while its default applies.
    cfg = write_config(tmp_path, with_values((where, 3)))
    out = tmp_path / "out"
    assert main(["validate", cfg]) == EXIT_CONFIG
    assert main(["run", "--scenario", cfg, "--out", str(out)]) == EXIT_CONFIG
    assert not out.exists()
    assert f"{path}: unknown key" in capsys.readouterr().err


def test_config_misspelt_nested_keys_all_reported(tmp_path, capsys):
    # An unknown station key does not stop the read of its traffic.
    cfg = write_config(tmp_path, with_values((STATION0 + ["wrr_wieght"], 3),
                                             (TRAFFIC0 + ["stop_sm"], 100)))
    assert main(["validate", cfg]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "cells[0].stations[0].wrr_wieght: unknown key" in err
    assert "cells[0].stations[0].traffic[0].stop_sm: unknown key" in err


ALL_TRAFFIC = [STATION0 + ["traffic", 0], ["cells", 0, "stations", 1,
               "traffic", 0], ["cells", 1, "stations", 0, "traffic", 0]]


@pytest.mark.parametrize("changes,message", [
    ([(["frame_duration_ms"], math.inf)], "frame_duration: must be finite"),
    ([(["frame_duration_ms"], math.nan)]
     + [(where + ["stop_ms"], 100.0) for where in ALL_TRAFFIC],
     "frame_duration: must be finite"),
    ([(TRAFFIC0 + ["rate_bits_per_s"], math.inf)],
     "traffic_specs[0][0].rate_bits_per_s: must be finite"),
    ([(TRAFFIC0 + ["start_ms"], -math.inf)],
     "traffic_specs[0][0].start_time: must be finite"),
    ([(TRAFFIC0 + ["start_ms"], math.nan)],
     "traffic_specs[0][0].start_time: must be finite"),
], ids=["frame_duration_ms inf", "frame_duration_ms nan, stop_ms set",
        "rate inf", "start_ms -inf", "start_ms nan"])
def test_config_non_finite_number_exit_2(tmp_path, capsys, changes, message):
    # Only validation runs here: each of these scenarios used to validate
    # and then start a run that never ended or died in a traceback.
    cfg = write_config(tmp_path, with_values(*changes))
    assert main(["validate", cfg]) == EXIT_CONFIG
    assert message in capsys.readouterr().err


def test_config_stop_ms_may_be_infinite(tmp_path, capsys):
    cfg = write_config(tmp_path, with_values((TRAFFIC0 + ["stop_ms"],
                                              math.inf)))
    assert main(["validate", cfg]) == EXIT_OK
    doc = yaml.safe_load(capsys.readouterr().out)
    assert doc["cells"][0]["stations"][0]["traffic"][0]["stop_ms"] == math.inf


def test_terabit_constant_rate_exit_2_before_generation(tmp_path, capsys,
                                                       monkeypatch):
    def no_generation(sc):
        raise AssertionError("build_requests ran")

    monkeypatch.setattr(engine, "build_requests", no_generation)
    cfg = write_config(tmp_path, with_values((TRAFFIC0 + ["rate_bits_per_s"],
                                              1e12)))
    message = ("traffic_specs[0]: constant-rate requests exceed the 1000000 "
               "request ids of one station")
    assert main(["validate", cfg]) == EXIT_CONFIG
    assert message in capsys.readouterr().err
    out = tmp_path / "out"
    assert main(["run", "--scenario", cfg, "--out", str(out)]) == EXIT_CONFIG
    assert message in capsys.readouterr().err
    assert not out.exists() or os.listdir(out) == []


def test_validate_round_trips_every_key(tmp_path, capsys):
    # A config that sets every key of every level reads back as itself, so
    # validate writes exactly what the reader reads.
    traffic = {"class": "ertPS", "pattern": "poisson",
               "rate_bits_per_s": 48000.0, "packet_size_bits": 600,
               "start_ms": 10.0, "stop_ms": 1500.0}
    station = {"id": 4, "capacity_bits_per_frame": 900, "wrr_weight": 3,
               "traffic": [traffic]}
    cell = {"id": 2, "capacity_bits_per_frame": 1000, "stations": [station]}
    doc = {"name": "full", "frame_duration_ms": 2.5, "total_frames": 800,
           "seed": 9, "scheduler": "wrr", "ewma_alpha": 0.25,
           "drop_on_miss": True, "cells": [cell]}
    for level, table in [(doc, cli.CONFIG_KEYS), (cell, cli.CELL_KEYS),
                         (station, cli.STATION_KEYS),
                         (traffic, cli.TRAFFIC_KEYS)]:
        assert set(level) == set(table)
    assert main(["validate", write_config(tmp_path, doc)]) == EXIT_OK
    text = capsys.readouterr().out
    assert yaml.safe_load(text) == doc
    again = tmp_path / "again.yaml"
    again.write_text(text)
    assert main(["validate", str(again)]) == EXIT_OK
    assert capsys.readouterr().out == text


@pytest.mark.parametrize("name", sorted(cli.BUILTIN_SCENARIOS))
def test_validate_builtin_round_trips(tmp_path, capsys, name):
    # A builtin's sources set no stop, so they run to the end of the run.
    assert main(["validate", name]) == EXIT_OK
    text = capsys.readouterr().out
    doc = yaml.safe_load(text)
    assert {t["stop_ms"] for c in doc["cells"] for s in c["stations"]
            for t in s["traffic"]} == {math.inf}
    path = tmp_path / "again.yaml"
    path.write_text(text)
    assert main(["validate", str(path)]) == EXIT_OK
    assert capsys.readouterr().out == text


def documented_scenarios():
    """The scenario YAML shown in README.md and in the cli docstring."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    blocks = re.findall(r"```yaml\n(.*?)```", readme, re.S)
    schema = cli.__doc__.split("Scenario file schema (YAML)")[1]
    literal = []
    for line in schema.split("::\n", 1)[1].splitlines():
        if line and not line.startswith(" "):
            break
        literal.append(line)
    return {"README.md": blocks, "cli docstring": [
        textwrap.dedent("\n".join(literal))]}


@pytest.mark.parametrize("source", ["README.md", "cli docstring"])
def test_documented_scenario_yaml_validates(tmp_path, capsys, source):
    blocks = documented_scenarios()[source]
    assert blocks
    for text in blocks:
        assert "cells:" in text
        path = tmp_path / "doc.yaml"
        path.write_text(text)
        assert main(["validate", str(path)]) == EXIT_OK, \
            capsys.readouterr().err


def test_run_from_config_file(tmp_path):
    path = write_config(tmp_path, GOOD_CONFIG)
    out = str(tmp_path / "out")
    rc = main(["run", "--scenario", path, "--policy", "wrr,ssbpf_edf",
               "--seed", "1,2", "--out", out])
    assert rc == EXIT_OK
    # 2 policies x 2 seeds, the summary and the manifest
    assert len(os.listdir(out)) == 4 + 2


def test_frames_extends_a_file_without_stop(tmp_path):
    # --frames moves the run end of a file's sources that set no stop_ms,
    # so the run equals the file with that many total_frames.
    frames = 2 * GOOD_CONFIG["total_frames"]
    longer = dict(GOOD_CONFIG, total_frames=frames)
    (tmp_path / "a").mkdir()
    (tmp_path / "b").mkdir()
    paths = [write_config(tmp_path / "a", GOOD_CONFIG),
             write_config(tmp_path / "b", longer)]
    outs = [str(tmp_path / "out_a"), str(tmp_path / "out_b")]
    assert main(["run", "--scenario", paths[0], "--frames", str(frames),
                 "--out", outs[0]]) == EXIT_OK
    assert main(["run", "--scenario", paths[1], "--out", outs[1]]) == EXIT_OK
    name = "two_cells_edf_seed3.events.csv"
    assert Path(outs[0], name).read_bytes() == Path(outs[1], name).read_bytes()
    with open(os.path.join(outs[0], name)) as fh:
        late = {int(row["station"]) for row in csv.DictReader(fh)
                if row["event"] == "arrival"
                and int(row["frame"]) >= GOOD_CONFIG["total_frames"]}
    assert late == {0, 1, 2}


def test_report_recomputes(tmp_path, capsys):
    out = str(tmp_path / "out")
    main(["run", "--scenario", "canonical", "--policy", "edf", "--seed", "1",
          "--frames", "400", "--out", out])
    events = os.path.join(out, "canonical_edf_seed1.events.csv")
    capsys.readouterr()
    rc = main(["report", events, "--frames", "400"])
    assert rc == EXIT_OK
    assert "throughput_bps" in capsys.readouterr().out


def test_report_missing_file_exit_2(tmp_path, capsys):
    assert main(["report", str(tmp_path / "ghost.csv")]) == EXIT_CONFIG
    # A run directory is not a file: its parent's manifest is not read.
    run_dir = tmp_path / "run"
    assert main(["run", "--scenario", "starvation", "--frames", "20",
                 "--out", str(run_dir)]) == EXIT_OK
    capsys.readouterr()
    assert main(["report", str(run_dir)]) == EXIT_CONFIG
    assert capsys.readouterr().err == f"error: report: no such file {run_dir}\n"


def test_invariant_breach_exit_4(monkeypatch, tmp_path):
    from uplinksim import cli, engine
    from uplinksim.engine import InvariantError

    def boom(sc):
        raise InvariantError("synthetic breach")

    monkeypatch.setattr(cli, "run", boom)
    rc = main(["run", "--scenario", "canonical", "--frames", "10",
               "--out", str(tmp_path / "out")])
    assert rc == EXIT_INVARIANT


def test_load_scenario_unknown_name():
    with pytest.raises(ConfigError):
        load_scenario("no_such_builtin")


def edit_manifest(directory, change):
    """Apply ``change`` to every entry of the run manifest in
    ``directory``."""
    path = Path(directory, "manifest.json")
    manifest = json.loads(path.read_text())
    for doc in manifest.values():
        change(doc)
    path.write_text(json.dumps(manifest))


def test_report_refuses_wrong_frame_duration(tmp_path, capsys):
    out = str(tmp_path / "out")
    main(["run", "--scenario", "canonical", "--policy", "edf", "--seed", "1",
          "--frames", "400", "--out", out])
    events = os.path.join(out, "canonical_edf_seed1.events.csv")
    edit_manifest(out, lambda doc: doc.update(frame_duration_ms=2.0))
    capsys.readouterr()
    rc = main(["report", events])
    assert rc == EXIT_CONFIG
    captured = capsys.readouterr()
    assert "implies a frame duration of 5.0 ms, not 2.0 ms" in captured.err
    assert captured.out == ""


def test_report_refuses_horizon_shorter_than_the_log(tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["run", "--scenario", "canonical", "--policy", "edf",
                 "--frames", "50", "--out", str(out)]) == EXIT_OK
    events = str(out / "canonical_edf_seed1.events.csv")
    with open(events) as fh:
        last_frame = int(fh.readlines()[-1].split(",")[0])
    rep = tmp_path / "rep"
    edit_manifest(out, lambda doc: doc.update(total_frames=last_frame))
    capsys.readouterr()
    assert main(["report", events, "--out", str(rep)]) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert f"{events}: an event at frame {last_frame} lies past the horizon " \
        f"of {last_frame} frames" in captured.err
    assert captured.out == ""
    assert not (rep / "report_summary.csv").exists()
    # The run's own horizon reproduces its summary row.
    edit_manifest(out, lambda doc: doc.update(total_frames=50))
    assert main(["report", events, "--frames", "50",
                 "--out", str(rep)]) == EXIT_OK
    with open(out / "summary.csv", newline="") as fh:
        ran = next(csv.DictReader(fh))
    with open(rep / "report_summary.csv", newline="") as fh:
        reported = next(csv.DictReader(fh))
    same = [k for k in ran if k.startswith(("offered", "throughput",
                                            "max_starvation", "deadline",
                                            "context"))
            or k.startswith("delay_") and k.endswith("_ms")]
    assert len(same) == 8 + 2 * 14  # global columns, two per station
    assert {k: reported[k] for k in same} == {k: ran[k] for k in same}


def test_report_refuses_frames_other_than_the_recorded_horizon(tmp_path,
                                                               capsys):
    out, rep = tmp_path / "out", tmp_path / "rep"
    assert main(["run", "--scenario", "canonical", "--policy", "edf",
                 "--frames", "50", "--out", str(out)]) == EXIT_OK
    events = str(out / "canonical_edf_seed1.events.csv")
    for frames in ("49", "51", "100"):
        capsys.readouterr()
        assert main(["report", events, "--frames", frames,
                     "--out", str(rep)]) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert f"{events}: --frames {frames} differs from the recorded " \
            "horizon of 50 frames" in captured.err
        assert captured.out == ""
    assert not rep.exists()


def test_run_and_report_list_station_columns_in_id_order(tmp_path):
    # The file lists stations 5, 3, 2; both summaries list them 2, 3, 5.
    doc = with_values((("cells", 0, "stations", 0, "id"), 5),
                      (("cells", 0, "stations", 1, "id"), 3))
    out, rep = tmp_path / "out", tmp_path / "rep"
    assert main(["run", "--scenario", write_config(tmp_path, doc),
                 "--out", str(out)]) == EXIT_OK
    assert main(["report", str(out / "two_cells_edf_seed3.events.csv"),
                 "--frames", "400", "--out", str(rep)]) == EXIT_OK

    def header(path):
        with open(path, newline="") as fh:
            return next(csv.reader(fh))

    ran = header(out / "summary.csv")
    assert ran == header(rep / "report_summary.csv")
    assert [k for k in ran if k.startswith("throughput_bps_station")] == [
        f"throughput_bps_station{sid}" for sid in (2, 3, 5)]


def assert_report_matches_run(out, rep):
    """Row by row, ``report_summary.csv`` has the columns of ``summary.csv``
    and equal values in all but the scenario column, which names the file,
    and the per-class delays, which the events CSV does not carry."""
    def rows(path):
        with open(path, newline="") as fh:
            return list(csv.DictReader(fh))

    ran, reported = rows(out / "summary.csv"), rows(rep / "report_summary.csv")
    assert len(reported) == len(ran)
    for r, p in zip(ran, reported):
        assert list(p) == list(r)
        same = [k for k in r if k != "scenario"
                and not (k.startswith("delay_") and not k.endswith("_ms"))]
        assert {k: p[k] for k in same} == {k: r[k] for k in same}


def one_cell(name, stations, **config):
    """A 400-frame scenario of one 1200-bit cell; ``stations`` maps each
    station id to its traffic list."""
    return {"name": name, "frame_duration_ms": 5.0, "total_frames": 400,
            "seed": 1, **config,
            "cells": [{"id": 0, "capacity_bits_per_frame": 1200,
                       "stations": [{"id": sid, "traffic": traffic}
                                    for sid, traffic in stations.items()]}]}


def source(cls, pattern, rate, size, **extra):
    return {"class": cls, "pattern": pattern, "rate_bits_per_s": rate,
            "packet_size_bits": size, **extra}


REPORT_CASES = {
    # Traffic stops at 100 ms, so the last 380 frames log nothing; the
    # horizon is not the last event's frame plus one.
    "idle tail": (one_cell("idle_tail", {
        0: [source("rtPS", "constant_rate", 64000, 800, stop_ms=100)]}),
        ["edf"]),
    # A 4000-bit UGS packet cannot meet its 5 ms deadline at 1200 bits per
    # frame, so each one misses and, under drop_on_miss, drops its
    # remainder; station 0 then holds nothing until its next packet 20 ms
    # later. Reloaded with drops off, those frames read as starved.
    "drop on miss": (one_cell("ugs_be", {
        0: [source("UGS", "constant_rate", 200000, 4000)],
        1: [source("BE", "poisson", 96000, 1600)]}, drop_on_miss=True),
        ["rr", "wrr", "edf", "ssbpf_edf", "hedf"]),
    # Station 1 has no traffic, so it logs nothing, yet it has columns.
    "silent station": (one_cell("silent", {
        0: [source("rtPS", "constant_rate", 64000, 800)], 1: []}), ["edf"]),
}


@pytest.mark.parametrize("case", list(REPORT_CASES))
def test_report_reproduces_run_summary_without_flags(tmp_path, case):
    doc, policies = REPORT_CASES[case]
    out, rep = tmp_path / "out", tmp_path / "rep"
    assert main(["run", "--scenario", write_config(tmp_path, doc),
                 "--policy", ",".join(policies), "--out", str(out)]) == EXIT_OK
    assert main(["report", *(str(out / f"{doc['name']}_{p}_seed1.events.csv")
                             for p in policies),
                 "--out", str(rep)]) == EXIT_OK
    assert_report_matches_run(out, rep)


def test_report_rows_carry_each_runs_policy_and_seed(tmp_path):
    out, rep = tmp_path / "out", tmp_path / "rep"
    assert main(["run", "--scenario", "canonical", "--policy", "edf,hedf",
                 "--seed", "3,4", "--frames", "20", "--out", str(out)]) == EXIT_OK
    names = [f"canonical_{p}_seed{s}.events.csv"
             for p in ("edf", "hedf") for s in (3, 4)]
    assert main(["report", *(str(out / n) for n in names),
                 "--out", str(rep)]) == EXIT_OK
    assert_report_matches_run(out, rep)
    with open(rep / "report_summary.csv", newline="") as fh:
        assert [(r["scenario"], r["policy"], r["seed"])
                for r in csv.DictReader(fh)] == [
            (names[0], "edf", "3"), (names[1], "edf", "4"),
            (names[2], "hedf", "3"), (names[3], "hedf", "4")]


def test_run_force_keeps_earlier_manifest_entries(tmp_path):
    # A second run --force into the same --out keeps the first call's
    # entry, so its events CSV still reports.
    out, first, rep = tmp_path / "d", tmp_path / "first", tmp_path / "rep"
    assert main(["run", "--scenario", "canonical", "--policy", "edf",
                 "--frames", "50", "--out", str(out)]) == EXIT_OK
    first.mkdir()
    (first / "summary.csv").write_bytes((out / "summary.csv").read_bytes())
    assert main(["run", "--scenario", "canonical", "--policy", "hedf",
                 "--frames", "50", "--out", str(out), "--force"]) == EXIT_OK
    assert sorted(json.loads((out / "manifest.json").read_text())) == [
        "canonical_edf_seed1.events.csv", "canonical_hedf_seed1.events.csv"]
    assert main(["report", str(out / "canonical_edf_seed1.events.csv"),
                 "--out", str(rep)]) == EXIT_OK
    assert_report_matches_run(first, rep)


def test_wimax_mix_example_validates_runs_and_reports(tmp_path, capsys):
    path = Path(__file__).resolve().parents[1] / "examples" / "wimax_mix.yaml"
    assert main(["validate", str(path)]) == EXIT_OK
    stations = [st for cell in yaml.safe_load(capsys.readouterr().out)["cells"]
                for st in cell["stations"]]
    # All five 802.16 classes, on stations of pairwise different capacity.
    assert sorted(t["class"] for st in stations for t in st["traffic"]) == \
        sorted(c.value for c in ServiceClass)
    assert len({st["capacity_bits_per_frame"] for st in stations}) == \
        len(stations)
    out, rep = tmp_path / "out", tmp_path / "rep"
    assert main(["run", "--scenario", str(path), "--frames", "600",
                 "--policy", ",".join(POLICY_NAMES),
                 "--out", str(out)]) == EXIT_OK
    assert main(["report", *(str(out / f"wimax_mix_{p}_seed1.events.csv")
                             for p in POLICY_NAMES),
                 "--out", str(rep)]) == EXIT_OK
    assert_report_matches_run(out, rep)


def test_report_header_only_without_frames_exit_2(tmp_path, capsys):
    # No run wrote this file, so no manifest records its scenario.
    path = tmp_path / "empty.events.csv"
    path.write_text("frame,time_ms,event,cell,station,request,bits\n")
    assert main(["report", str(path)]) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert f"{path}: no readable entry in {tmp_path / 'manifest.json'}" \
        in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("manifest", ['{"other.events.csv": {}}', "[]",
                                      "{", ""],
                         ids=["other file", "list", "truncated", "empty"])
def test_report_refuses_a_file_its_manifest_does_not_list(tmp_path, capsys,
                                                          manifest):
    out = tmp_path / "out"
    assert main(["run", "--scenario", "canonical", "--policy", "edf",
                 "--frames", "50", "--out", str(out)]) == EXIT_OK
    (out / "manifest.json").write_text(manifest)
    events = out / "canonical_edf_seed1.events.csv"
    capsys.readouterr()
    assert main(["report", str(events)]) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert f"{events}: no readable entry in {out / 'manifest.json'}" \
        in captured.err
    assert captured.out == ""


def test_report_refuses_a_station_outside_the_scenario(tmp_path, capsys):
    out, rep = tmp_path / "out", tmp_path / "rep"
    assert main(["run", "--scenario", write_config(tmp_path, GOOD_CONFIG),
                 "--out", str(out)]) == EXIT_OK
    edit_manifest(out, lambda doc: doc["cells"][1].update(stations=[]))
    events = out / "two_cells_edf_seed3.events.csv"
    capsys.readouterr()
    assert main(["report", str(events), "--out", str(rep)]) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert f"{events}: station 2 not in {out / 'manifest.json'}" \
        in captured.err
    assert captured.out == ""
    assert not rep.exists()


@pytest.mark.parametrize("frame_ms", ["nan", "inf"])
def test_report_non_finite_frame_duration_exit_2(tmp_path, capsys, frame_ms):
    out = tmp_path / "out"
    assert main(["run", "--scenario", "canonical", "--policy", "edf",
                 "--frames", "50", "--out", str(out)]) == EXIT_OK
    edit_manifest(out, lambda doc: doc.update(
        frame_duration_ms=float(frame_ms)))
    text = (out / "manifest.json").read_text()
    assert ('"frame_duration_ms": ' + {"nan": "NaN", "inf": "Infinity"}[
        frame_ms]) in text
    capsys.readouterr()
    assert main(["report", str(out / "canonical_edf_seed1.events.csv")]) \
        == EXIT_CONFIG
    captured = capsys.readouterr()
    assert f"{out / 'manifest.json'}: canonical_edf_seed1.events.csv: " \
        "frame_duration: must be finite and > 0" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("text,message", [
    ("scenario,policy,seed\ncanonical,edf,1\n", "unexpected header"),
    ("frame,time_ms,event,cell,station,request,bits\n0,5.0,grant,0,0,x,8\n",
     "malformed row"),
    ("frame,time_ms,event,cell,station,request,bits\n-1,3.0,grant,0,0,1,8\n",
     "negative frame"),
    ("frame,time_ms,event,cell,station,request,bits\n2,15.0,grant,0,0,1,8\n"
     "1,10.0,grant,0,0,1,8\n", "bad.csv:3: frame 1 after frame 2"),
    ("frame,time_ms,event,cell,station,request,bits\n0,5.0,grant,0,0,1,8\n"
     "0,5.0,grnt,0,0,1,8\n", "bad.csv:3: unknown event 'grnt'"),
    ('frame,time_ms,event,cell,station,request,bits\n'
     '0,5.0,"grant,x",0,0,1,8\n', "bad.csv:2: unknown event 'grant,x'"),
    ("frame,time_ms,event,cell,station,request,bits\n0,5.0,grant,0,0,1,8\n",
     "bad.csv:2: grant of request 1 has no earlier arrival row"),
    ("frame,time_ms,event,cell,station,request,bits\n0,1.0,arrival,0,0,1,8\n"
     "0,5.0,grant,0,0,1,8\n1,6.0,arrival,0,0,1,8\n",
     "bad.csv:4: second arrival row for request 1"),
    ("frame,time_ms,event,cell,station,request,bits\n"
     "0,1000000000.0,arrival,0,0,1,8\n",
     "bad.csv:2: arrival at 1000000000.0 ms lies outside frame 0"),
    ("frame,time_ms,event,cell,station,request,bits\n0,5.0,arrival,0,0,1,8\n",
     "bad.csv:2: arrival at 5.0 ms lies outside frame 0"),
    ("frame,time_ms,event,cell,station,request,bits\n0,nan,arrival,0,0,1,8\n",
     "bad.csv:2: malformed row"),
    ("frame,time_ms,event,cell,station,request,bits\n0,inf,arrival,0,0,1,8\n",
     "bad.csv:2: malformed row"),
], ids=["header", "row", "frame", "frame order", "event", "quoted event",
        "no arrival", "second arrival", "arrival past frame",
        "arrival at frame end", "nan arrival", "inf arrival"])
def test_report_malformed_csv_exit_2(tmp_path, capsys, text, message):
    path = tmp_path / "bad.csv"
    path.write_text(text)
    (tmp_path / "manifest.json").write_text(json.dumps(
        {"bad.csv": GOOD_CONFIG}))
    assert main(["report", str(path)]) == EXIT_CONFIG
    assert message in capsys.readouterr().err


def traced_peak(argv):
    """Peak bytes allocated by one CLI call, after an untraced warm-up."""
    assert main(argv) == EXIT_OK
    tracemalloc.start()
    try:
        assert main(argv) == EXIT_OK
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_report_holds_one_log_at_a_time(tmp_path):
    out = tmp_path / "run"
    assert main(["run", "--scenario", "canonical", "--policy", "edf",
                 "--frames", "1000", "--out", str(out)]) == EXIT_OK
    events = str(out / "canonical_edf_seed1.events.csv")
    report = ["report", "--frames", "1000", "--out", str(tmp_path / "rep"),
              "--force"]
    once = traced_peak(report + [events])
    twice = traced_peak(report + [events, events])
    assert twice <= 1.1 * once


def test_run_holds_one_log_at_a_time(tmp_path):
    # On canonical, rr and wrr log identical runs.
    run = ["run", "--scenario", "canonical", "--frames", "1000", "--force"]
    one = traced_peak(run + ["--policy", "rr", "--out", str(tmp_path / "1")])
    two = traced_peak(run + ["--policy", "rr,wrr",
                             "--out", str(tmp_path / "2")])
    assert two <= 1.1 * one


SRC = Path(cli.__file__).resolve().parents[1]


def fresh_python(code, cwd):
    """Run ``code`` in a new interpreter that imports uplinksim from the
    same source tree as this test run."""
    path = os.pathsep.join(filter(None, [str(SRC),
                                         os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-c", code], cwd=cwd,
                          env=dict(os.environ, PYTHONPATH=path),
                          capture_output=True, text=True, timeout=300)


def test_builtin_run_and_report_leave_yaml_unimported(tmp_path):
    # This module imports yaml itself, so only a fresh interpreter can show
    # that uplinksim does not.
    code = textwrap.dedent("""
        import sys
        import uplinksim, uplinksim.cli
        main = uplinksim.cli.main
        assert main(["run", "--scenario", "canonical", "--frames", "50",
                     "--out", "out"]) == 0
        assert main(["report", "out/canonical_edf_seed1.events.csv",
                     "--frames", "50"]) == 0
        print(sorted(m for m in sys.modules if m.split(".")[0] == "yaml"))
    """)
    proc = fresh_python(code, tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[]"


def test_validate_file_in_a_fresh_process(tmp_path):
    path = write_config(tmp_path, GOOD_CONFIG)
    proc = fresh_python("import sys; from uplinksim.cli import main; "
                        f"sys.exit(main(['validate', {path!r}]))", tmp_path)
    assert proc.returncode == EXIT_OK, proc.stderr
    assert yaml.safe_load(proc.stdout) == scenario_to_dict(load_scenario(path))
