"""Command-line front end.

Subcommands::

    uplinksim run      --scenario <name|path> [--policy a,b] [--seed 1,2]
                       [--frames N] [--out DIR] [--force] [--drop-on-miss]
    uplinksim validate <name|path>
    uplinksim report   <events.csv> [...] [--frames N] [--out DIR] [--force]

``run`` executes the cross product of policies and seeds, writes one
per-event CSV per run, a combined ``summary.csv`` and a ``manifest.json``
mapping each events file's name to its run's resolved configuration (with
``--force`` it keeps the entries an earlier call wrote there), and prints
the summary table. ``validate`` checks a config without running and
prints the resolved effective configuration. ``report`` recomputes global
metrics from existing per-event CSVs under the configuration the manifest
beside each file records, refusing (exit 2) a file it does not list, a
``--frames`` other than the recorded horizon, a station outside the
scenario, stamps that contradict the frame duration and rows out of frame
order. Both hold one event log in memory at a time.

Exit codes: 0 success, 2 configuration error, 3 I/O error, 4 internal
invariant breach.

Scenario file schema (YAML)
---------------------------
::

    name: demo                     # optional, defaults to file stem
    frame_duration_ms: 5.0
    total_frames: 12000
    seed: 1
    scheduler: edf                 # rr | wrr | edf | ssbpf_edf | hedf
    ewma_alpha: 0.1                # optional, default 0.1
    drop_on_miss: false            # optional, default false
    cells:
      - id: 0
        capacity_bits_per_frame: 1200
        stations:
          - id: 0
            capacity_bits_per_frame: 1200
            wrr_weight: 2          # optional; default scales with capacity
            traffic:
              - class: rtPS        # UGS | ertPS | rtPS | nrtPS | BE
                pattern: constant_rate   # or poisson
                rate_bits_per_s: 64000
                packet_size_bits: 800
                start_ms: 0        # optional, default 0
                stop_ms: 60000     # optional, default: runs to the end

Values are checked, not cast: ids, counts, capacities, sizes, ``seed`` and
``wrr_weight`` are integers, ms values, rates and ``ewma_alpha`` finite
numbers (``stop_ms`` may be ``.inf``), ``name`` and ``scheduler`` strings,
``drop_on_miss`` true or false. Any other value, and a key not shown above,
at any level, is a configuration error naming its path. A source without
``stop_ms`` runs to the end of the run, ``--frames`` included, and
``validate`` prints its ``stop_ms`` as ``.inf``.

The builtin names ``canonical`` (7 cells x 2 stations, rtPS plus best-effort
background) and ``starvation`` (one overloaded real-time station next to a
sparse best-effort station) need no file.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import replace
from typing import Dict, List, Optional, Tuple

from .engine import InvariantError, run
from .metrics import (MetricsRecord, _guard, compute_metrics, format_table,
                      load_events_csv, summary_row, write_events_csv,
                      write_summary_csv)
from .model import (CLASS_BY_NAME, Cell, ConfigError, Scenario,
                    ServiceClass, SubscriberStation, TrafficSpec,
                    canonical_scenario, starvation_scenario,
                    validate_scenario)
from .schedulers import POLICY_NAMES

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_IO = 3
EXIT_INVARIANT = 4

BUILTIN_SCENARIOS = {
    "canonical": canonical_scenario,
    "starvation": starvation_scenario,
}


# Value kinds of the scenario schema: a name for messages and the accepted
# Python types. A bool is an int in Python, so only _BOOL accepts one.
_INT = ("an integer", int)
_NUMBER = ("a number", (int, float))
_BOOL = ("true or false", bool)
_STRING = ("a string", str)
_CLASS = ("a string", str)  # a service class name, read as the ServiceClass
_MAPPINGS = ("a list of mappings", list)
_REQUIRED = object()

# One table per level of the scenario file: key -> (kind, default, field).
# The field is the model attribute the key fills: a keyword of Scenario,
# Cell, SubscriberStation or TrafficSpec. It is None for the key that holds
# the next level's list, whose entries are read with the next table. A
# default that depends on the enclosing level (the file stem, the cell's
# capacity) is passed to _read by the caller. A source without stop_ms runs
# to the end of the run, --frames included.
CONFIG_KEYS = {"name": (_STRING, _REQUIRED, "name"),
               "frame_duration_ms": (_NUMBER, _REQUIRED, "frame_duration"),
               "total_frames": (_INT, _REQUIRED, "total_frames"),
               "seed": (_INT, 1, "seed"),
               "scheduler": (_STRING, "edf", "scheduler_name"),
               "ewma_alpha": (_NUMBER, 0.1, "ewma_alpha"),
               "drop_on_miss": (_BOOL, False, "drop_on_miss"),
               "cells": (_MAPPINGS, _REQUIRED, None)}
CELL_KEYS = {"id": (_INT, _REQUIRED, "id"),
             "capacity_bits_per_frame": (_INT, _REQUIRED,
                                         "base_station_capacity"),
             "stations": (_MAPPINGS, [], None)}
STATION_KEYS = {"id": (_INT, _REQUIRED, "id"),
                "capacity_bits_per_frame": (_INT, _REQUIRED, "capacity_c"),
                "wrr_weight": (_INT, None, "wrr_weight"),
                "traffic": (_MAPPINGS, [], None)}
TRAFFIC_KEYS = {"class": (_CLASS, _REQUIRED, "service_class"),
                "pattern": (_STRING, _REQUIRED, "pattern"),
                "rate_bits_per_s": (_NUMBER, _REQUIRED, "rate_bits_per_s"),
                "packet_size_bits": (_INT, _REQUIRED, "packet_size_bits"),
                "start_ms": (_NUMBER, 0.0, "start_time"),
                "stop_ms": (_NUMBER, float("inf"), "stop_time")}


def _read(doc: dict, table: dict, path: str, errors: List[str],
          **defaults) -> Tuple[dict, list]:
    """One level of the scenario file: ``fields`` holds each key's value in
    ``doc`` (a number as a float, a class name as its ServiceClass) or its
    default, by model field; ``children`` is the list under the list key. A
    key the table lacks, a missing required key, a value of the wrong kind
    and then an unknown class each add an error naming its path."""
    errors.extend(f"{path}.{key}: unknown key" for key in doc
                  if key not in table)
    fields, children, class_errors = {}, [], []
    for key, (kind, default, field) in table.items():
        if key not in doc:
            value = defaults.get(key, default)
            if value is _REQUIRED:
                errors.append(f"{path}.{key}: missing required key")
                value = None
        else:
            value = doc[key]
            name, types = kind
            ok = isinstance(value, types) and (
                kind is _BOOL or not isinstance(value, bool))
            if ok and kind is _MAPPINGS:
                ok = all(isinstance(item, dict) for item in value)
            if ok and kind is _NUMBER:
                try:
                    value = float(value)
                except OverflowError:  # an int beyond the float range
                    ok = False
            if not ok:
                errors.append(f"{path}.{key}: expected {name}, got {value!r}")
                value = None
            elif kind is _CLASS:
                if value not in CLASS_BY_NAME:
                    class_errors.append(
                        f"{path}.{key}: unknown class {value!r}, expected "
                        f"one of {sorted(CLASS_BY_NAME)}")
                value = CLASS_BY_NAME.get(value)
        if field is None:
            children = value or []
        else:
            fields[field] = value
    errors.extend(class_errors)
    return fields, children


def _dump(obj, table: dict, children: list = ()) -> dict:
    """The inverse of _read; a field that is None (an unset ``wrr_weight``)
    is left out."""
    doc = {}
    for key, (_, _, field) in table.items():
        value = children if field is None else getattr(obj, field)
        if isinstance(value, ServiceClass):
            value = value.value
        if value is not None:
            doc[key] = value
    return doc


def scenario_from_dict(doc: dict, default_name: str) -> Scenario:
    """Build a Scenario from a parsed config tree; raises ConfigError with
    every structural, type or unknown-key problem found, each naming its
    path."""
    errors: List[str] = []
    if not isinstance(doc, dict):
        raise ConfigError(["config: top level must be a mapping"])
    top, cell_docs = _read(doc, CONFIG_KEYS, "config", errors,
                           name=default_name)

    cells: List[Cell] = []
    stations: List[SubscriberStation] = []
    specs: Dict[int, Tuple[TrafficSpec, ...]] = {}
    for i, cdoc in enumerate(cell_docs):
        cpath = f"cells[{i}]"
        cell, station_docs = _read(cdoc, CELL_KEYS, cpath, errors)
        sids = []
        for j, sdoc in enumerate(station_docs):
            spath = f"{cpath}.stations[{j}]"
            st, traffic_docs = _read(
                sdoc, STATION_KEYS, spath, errors,
                capacity_bits_per_frame=cell["base_station_capacity"])
            sids.append(st["id"])
            stations.append(SubscriberStation(cell_id=cell["id"], **st))
            specs[st["id"]] = tuple(
                TrafficSpec(**_read(tdoc, TRAFFIC_KEYS,
                                    f"{spath}.traffic[{k}]", errors)[0])
                for k, tdoc in enumerate(traffic_docs))
        cells.append(Cell(station_ids=sids, **cell))

    if errors:
        raise ConfigError(errors)
    return Scenario(cells=cells, stations=stations, traffic_specs=specs,
                    **top)


def scenario_to_dict(sc: Scenario) -> dict:
    """Resolved effective configuration, ready for YAML dumping."""
    by_cell: Dict[int, List[SubscriberStation]] = {}
    for st in sc.stations:
        by_cell.setdefault(st.cell_id, []).append(st)
    return _dump(sc, CONFIG_KEYS, [
        _dump(cell, CELL_KEYS, [
            _dump(st, STATION_KEYS, [
                _dump(spec, TRAFFIC_KEYS)
                for spec in sc.traffic_specs.get(st.id, ())])
            for st in by_cell.get(cell.id, [])])
        for cell in sc.cells])


def load_scenario(ref: str, *, total_frames: Optional[int] = None,
                  drop_on_miss: Optional[bool] = None) -> Scenario:
    """Resolve a builtin name or YAML path, with optional overrides."""
    builder = BUILTIN_SCENARIOS.get(ref)
    if builder is not None:
        sc = builder()
    else:
        if not os.path.exists(ref):
            raise ConfigError(
                [f"scenario: no builtin or file named {ref!r} "
                 f"(builtins: {sorted(BUILTIN_SCENARIOS)})"])
        import yaml  # only a scenario file pays for PyYAML's import
        try:
            with open(ref) as fh:
                doc = yaml.safe_load(fh)
        except yaml.YAMLError as exc:
            raise ConfigError([f"scenario file {ref}: {exc}"]) from exc
        sc = scenario_from_dict(doc, os.path.splitext(os.path.basename(ref))[0])
    if total_frames is not None:
        sc = replace(sc, total_frames=total_frames)
    if drop_on_miss is not None:
        sc = replace(sc, drop_on_miss=drop_on_miss)
    violations = validate_scenario(sc)
    if violations:
        raise ConfigError(violations)
    return sc


def _parse_list(value: str, key: str) -> List[str]:
    """The items of a comma list option; a list with none is refused."""
    items = [v.strip() for v in value.split(",") if v.strip()]
    if not items:
        raise ConfigError([f"{key}: empty comma list {value!r}"])
    return items


def _parse_seeds(value: str) -> List[int]:
    try:
        return [int(s) for s in _parse_list(value, "seed")]
    except ValueError:
        raise ConfigError([f"seed: expected a comma list of integers, "
                           f"got {value!r}"]) from None


def _run_to_csv(sc: Scenario, events_path: str,
                force: bool) -> Dict[str, object]:
    """Run one scenario and write its events; only the summary row outlives
    the call, so one event log is held at a time."""
    log, rec = run(sc)
    write_events_csv(log, events_path, force=force)
    return summary_row(sc.name, sc.scheduler_name, sc.seed, rec,
                       log.station_ids)


def cmd_run(args) -> int:
    policies = (None if args.policy is None
                else _parse_list(args.policy, "policy"))
    seeds = None if args.seed is None else _parse_seeds(args.seed)

    base = load_scenario(args.scenario, total_frames=args.frames,
                         drop_on_miss=args.drop_on_miss or None)
    if policies is None:
        policies = [base.scheduler_name]
    if seeds is None:
        seeds = [base.seed]

    # Every run is validated and every output path checked before the first
    # file is written, so a refused run leaves --out untouched.
    runs = [replace(base, seed=seed, scheduler_name=policy)
            for policy in policies for seed in seeds]
    for sc in runs:
        violations = validate_scenario(sc)
        if violations:
            raise ConfigError(violations)
    events_paths = [
        os.path.join(args.out, f"{sc.name}_{sc.scheduler_name}_seed{sc.seed}"
                     ".events.csv") for sc in runs]
    if len(set(events_paths)) < len(events_paths):
        raise ConfigError(["run: a policy or seed is listed twice"])
    summary_path = os.path.join(args.out, "summary.csv")
    manifest_path = os.path.join(args.out, "manifest.json")
    for path in events_paths + [summary_path, manifest_path]:
        _guard(path, args.force)

    os.makedirs(args.out, exist_ok=True)
    rows = []
    for sc, events_path in zip(runs, events_paths):
        rows.append(_run_to_csv(sc, events_path, args.force))
        print(f"wrote {events_path}")
    write_summary_csv(rows, summary_path, force=args.force)
    print(f"wrote {summary_path}")
    import json  # imported where used, as yaml is, to keep start-up short
    # With --force, earlier calls' entries stay, so their files still report.
    entries = {}
    if args.force:
        try:
            with open(manifest_path) as fh:
                entries = json.load(fh)
        except (OSError, ValueError):
            pass
        if not isinstance(entries, dict):
            entries = {}
    entries.update((os.path.basename(path), scenario_to_dict(sc))
                   for sc, path in zip(runs, events_paths))
    with open(manifest_path, "w") as fh:
        json.dump(entries, fh, indent=1)
    print(f"wrote {manifest_path}")

    head = ["scenario", "policy", "seed", "throughput_bps", "delay_mean_ms",
            "delay_p95_ms", "deadline_miss_ratio", "context_switch_count"]
    print(format_table(head, [[r[h] for h in head] for r in rows]))
    return EXIT_OK


def cmd_validate(args) -> int:
    import yaml
    sc = load_scenario(args.scenario)
    print(yaml.safe_dump(scenario_to_dict(sc), sort_keys=False), end="")
    return EXIT_OK


def _reload_metrics(path: str, frames: Optional[int]
                    ) -> Tuple[MetricsRecord, Scenario]:
    """Reload one events CSV under the scenario that the ``manifest.json``
    beside it records for it, and summarise it; only the record and that
    scenario outlive the call, so one event log is held at a time."""
    import json
    if not os.path.isfile(path):
        raise ConfigError([f"report: no such file {path}"])
    manifest = os.path.join(os.path.dirname(path), "manifest.json")
    name = os.path.basename(path)
    try:
        with open(manifest) as fh:
            doc = json.load(fh)[name]
    except (FileNotFoundError, KeyError, TypeError, ValueError):
        raise ConfigError([f"{path}: no readable entry in {manifest}"])
    try:
        sc = scenario_from_dict(doc, name)
        errors = validate_scenario(sc)
    except ConfigError as exc:
        errors = exc.violations
    if errors:
        raise ConfigError([f"{manifest}: {name}: {e}" for e in errors])
    if frames is not None and frames != sc.total_frames:
        raise ConfigError([f"{path}: --frames {frames} differs from the "
                           f"recorded horizon of {sc.total_frames} frames"])
    log = load_events_csv(path, frame_duration_ms=sc.frame_duration,
                          total_frames=sc.total_frames)
    log.drop_on_miss = sc.drop_on_miss
    log.station_ids = sorted(st.id for st in sc.stations)
    stray = {s for _, _, _, _, s, _, _ in log.events} - set(log.station_ids)
    if stray:
        raise ConfigError([f"{path}: station {min(stray)} not in {manifest}"])
    return compute_metrics(log), sc


def cmd_report(args) -> int:
    recs = []
    station_ids: List[int] = []
    for path in args.events:
        rec, sc = _reload_metrics(path, args.frames)
        station_ids = sorted(set(station_ids)
                             | {st.id for st in sc.stations})
        recs.append((os.path.basename(path), sc, rec))
    rows = [summary_row(name, sc.scheduler_name, sc.seed, rec, station_ids)
            for name, sc, rec in recs]
    head = ["throughput_bps", "delay_mean_ms", "delay_p95_ms",
            "deadline_miss_ratio", "context_switch_count"]
    print(format_table(["file"] + head,
                       [[r["scenario"]] + [r[h] for h in head] for r in rows]))
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        path = os.path.join(args.out, "report_summary.csv")
        write_summary_csv(rows, path, force=args.force)
        print(f"wrote {path}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="uplinksim",
        description="Frame-based uplink scheduling simulator")
    sub = p.add_subparsers(dest="command", required=True)

    pr = sub.add_parser("run", help="simulate policies x seeds on a scenario")
    pr.add_argument("--scenario", required=True,
                    help="builtin name (canonical, starvation) or YAML path")
    pr.add_argument("--policy", help="comma list from: " + ", ".join(POLICY_NAMES))
    pr.add_argument("--seed", help="comma list of integer seeds")
    pr.add_argument("--frames", type=int, help="override total_frames")
    pr.add_argument("--out", default="out", help="output directory")
    pr.add_argument("--force", action="store_true",
                    help="overwrite existing output files")
    pr.add_argument("--drop-on-miss", action="store_true",
                    help="drop requests at their first missed frame boundary")
    pr.set_defaults(func=cmd_run)

    pv = sub.add_parser("validate", help="check a scenario without running")
    pv.add_argument("scenario", help="builtin name or YAML path")
    pv.set_defaults(func=cmd_validate)

    pp = sub.add_parser("report", help="re-summarize existing event CSVs")
    pp.add_argument("events", nargs="+", help="per-event CSV files")
    pp.add_argument("--frames", type=int, help="cross-check of the horizon")
    pp.add_argument("--out", help="also write a summary CSV here")
    pp.add_argument("--force", action="store_true")
    pp.set_defaults(func=cmd_report)
    return p


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        for v in exc.violations:
            print(f"error: {v}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except InvariantError as exc:
        print(f"internal invariant breach: {exc}", file=sys.stderr)
        return EXIT_INVARIANT


if __name__ == "__main__":
    sys.exit(main())
