"""The benchmark's workloads.

Each workload is a closed loop: one (scenario, policy, seed) run at a time,
in the benchmark's own process, with no pool. Constructing a workload is its
set-up: it builds and validates every scenario the workload runs. ``steps``
lists the timed calls of one repetition, each a call into uplinksim's public
API made through the module attribute, so the traced run can wrap it there.
``inspect`` checks one step's output outside the timed region.

Sizes are chosen so that one repetition takes a few seconds on a 2-CPU host
and a run of the benchmark holds several repetitions.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import random
from collections import Counter
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

import uplinksim.cli
import uplinksim.engine
import uplinksim.traffic
from uplinksim.metrics import load_events_csv, parse_summary_csv
from uplinksim.model import (Cell, ConfigError, Scenario, ServiceClass,
                             DEFAULT_TOTAL_FRAMES, SubscriberStation,
                             canonical_scenario, validate_scenario)
from uplinksim.traffic import TrafficSpec

from perfbench import checks

POLICIES = ("rr", "wrr", "edf", "ssbpf_edf", "hedf")

# canonical_cli: 3000 frames is 15 s of simulated time; the full 60 s
# horizon would make one repetition take ~20 s.
CLI_FRAMES = 3000
# cs_sweep: the full canonical horizon, as in acceptance criterion 3, over
# this many consecutive seeds per repetition.
SWEEP_FRAMES = DEFAULT_TOTAL_FRAMES
SWEEP_SEEDS = 2
SWEEP_POLICIES = ("edf", "hedf")
# dense_overload: 2 cells x 24 stations at 110% offered load.
DENSE_CELLS = 2
DENSE_STATIONS = 24
DENSE_CELL_CAPACITY = 9600  # bits per frame
DENSE_LOAD = 1.10
DENSE_FRAMES = 2000
DENSE_FRAME_MS = 5.0
# Real-time class of a station's main source and its packet size in bits.
# Each class gets the same share of the load and the same number of
# stations, so only the arrangement changes with the seed, not the amount
# of work.
DENSE_CLASSES = ((ServiceClass.UGS, 400), (ServiceClass.ERTPS, 800),
                 (ServiceClass.RTPS, 1200), (ServiceClass.BE, 1600))
DENSE_BACKGROUND_SHARE = 0.2  # best-effort Poisson background per station
DENSE_BACKGROUND_PACKET = 1600
# Station capacities as multiples of the cell capacity / stations share.
DENSE_CAPACITY_FACTORS = (0.5, 1.0, 2.0, 4.0)


def dense_overload_scenario(seed: int, scheduler_name: str,
                            total_frames: int) -> Scenario:
    """A generated overload scenario: mixed UGS/ertPS/rtPS/BE stations with
    constant-rate and Poisson sources, unequal station capacities, ~110%
    offered load per cell and ``drop_on_miss`` on.

    The seed shuffles which station gets which class, pattern and capacity,
    and draws per-station rate weights and start offsets; class totals and
    the cell load are fixed.
    """
    rng = random.Random(seed)
    horizon = total_frames * DENSE_FRAME_MS
    frames_per_s = 1000.0 / DENSE_FRAME_MS
    cell_bps = DENSE_LOAD * DENSE_CELL_CAPACITY * frames_per_s
    per_class = len(DENSE_CLASSES)
    group = DENSE_STATIONS // per_class
    fair_share = DENSE_CELL_CAPACITY // DENSE_STATIONS

    cells: List[Cell] = []
    stations: List[SubscriberStation] = []
    specs: Dict[int, Tuple[TrafficSpec, ...]] = {}
    for c in range(DENSE_CELLS):
        sids = [c * DENSE_STATIONS + k for k in range(DENSE_STATIONS)]
        order = sids[:]
        rng.shuffle(order)
        patterns = ["constant_rate", "poisson"] * (DENSE_STATIONS // 2)
        rng.shuffle(patterns)
        factors = list(DENSE_CAPACITY_FACTORS) * (
            DENSE_STATIONS // len(DENSE_CAPACITY_FACTORS))
        rng.shuffle(factors)
        main_bps = cell_bps * (1.0 - DENSE_BACKGROUND_SHARE) / per_class
        background_bps = cell_bps * DENSE_BACKGROUND_SHARE / DENSE_STATIONS
        for g, (cls, packet) in enumerate(DENSE_CLASSES):
            members = order[g * group:(g + 1) * group]
            weights = [0.5 + rng.random() for _ in members]
            total = sum(weights)
            for sid, w in zip(members, weights):
                start = rng.random() * DENSE_FRAME_MS
                specs[sid] = (
                    TrafficSpec(service_class=cls,
                                pattern=patterns[sid % DENSE_STATIONS],
                                rate_bits_per_s=main_bps * w / total,
                                packet_size_bits=packet,
                                start_time=start, stop_time=horizon),
                    TrafficSpec(service_class=ServiceClass.BE,
                                pattern="poisson",
                                rate_bits_per_s=background_bps,
                                packet_size_bits=DENSE_BACKGROUND_PACKET,
                                start_time=0.0, stop_time=horizon),
                )
        for k, sid in enumerate(sids):
            stations.append(SubscriberStation(
                id=sid, cell_id=c,
                capacity_c=int(fair_share * factors[k])))
        cells.append(Cell(id=c, base_station_capacity=DENSE_CELL_CAPACITY,
                          station_ids=sids))
    return Scenario(
        name="dense_overload",
        cells=cells,
        stations=stations,
        frame_duration=DENSE_FRAME_MS,
        total_frames=total_frames,
        traffic_specs=specs,
        seed=seed,
        scheduler_name=scheduler_name,
        drop_on_miss=True,
    )


def validated(sc: Scenario) -> Scenario:
    violations = validate_scenario(sc)
    if violations:
        raise ConfigError(violations)
    return sc


@dataclass
class Inspection:
    """What the harness learns from one step's output."""

    events: int = 0
    # Equal across repetitions of a deterministic step; cheap to compute.
    fingerprint: object = None
    failures: List[str] = field(default_factory=list)
    context_switches: Optional[int] = None
    miss_ratio: Optional[float] = None


def inspect_log(log, capacity: Dict[int, int], digest) -> Inspection:
    """Inspect an in-memory EventLog; full checks only when digesting."""
    kinds = Counter(e[2] for e in log.events)
    ins = Inspection(
        events=len(log.events),
        fingerprint=(sorted(kinds.items()),
                     sorted(log.final_station_throughput.items())),
        context_switches=kinds["context_switch"],
        miss_ratio=(kinds["deadline_miss"] / kinds["arrival"]
                    if kinds["arrival"] else 0.0),
    )
    if digest is not None:
        ins.failures = checks.check_log(log, capacity, in_memory=True)
        digest.update(checks.events_csv_bytes(log.events))
    return ins


Step = Tuple[str, Callable[[], object]]


class Workload:
    name = ""

    def steps(self) -> List[Step]:
        raise NotImplementedError

    def inspect(self, label: str, output, digest) -> Inspection:
        """Check one step's output. With a digest, run every output check
        and feed the step's event CSV bytes into it; without, compute only
        the cheap fingerprint."""
        raise NotImplementedError


class CanonicalCli(Workload):
    """``uplinksim run`` of canonical for each policy, then one ``report``
    over the five events CSVs, all through ``uplinksim.cli.main``."""

    name = "canonical_cli"

    def __init__(self, seed: int, workdir: Optional[str]):
        self.seed = seed
        sc = validated(canonical_scenario(seed=seed, total_frames=CLI_FRAMES))
        self.capacity = {c.id: c.base_station_capacity for c in sc.cells}
        self.workdir = workdir or ""
        self.out = {p: os.path.join(self.workdir, p) for p in POLICIES}
        self.events_path = {
            p: os.path.join(self.out[p],
                            f"{sc.name}_{p}_seed{seed}.events.csv")
            for p in POLICIES}
        self.report_dir = os.path.join(self.workdir, "report")

    def _cli(self, argv: List[str]) -> None:
        with contextlib.redirect_stdout(io.StringIO()):
            code = uplinksim.cli.main(argv)
        if code != 0:
            raise RuntimeError(f"uplinksim {' '.join(argv)} exited {code}")

    def _run(self, policy: str) -> None:
        self._cli(["run", "--scenario", "canonical", "--policy", policy,
                   "--seed", str(self.seed), "--frames", str(CLI_FRAMES),
                   "--out", self.out[policy], "--force"])

    def _report(self) -> None:
        self._cli(["report", *(self.events_path[p] for p in POLICIES),
                   "--frames", str(CLI_FRAMES), "--out", self.report_dir,
                   "--force"])

    def steps(self) -> List[Step]:
        runs: List[Step] = [(p, lambda p=p: self._run(p)) for p in POLICIES]
        return runs + [("report", self._report)]

    def _summary(self, policy: str) -> Dict[str, object]:
        return parse_summary_csv(os.path.join(self.out[policy],
                                              "summary.csv"))[0]

    def inspect(self, label, output, digest):
        if label == "report":
            path = os.path.join(self.report_dir, "report_summary.csv")
            with open(path, "rb") as fh:
                ins = Inspection(
                    fingerprint=hashlib.sha256(fh.read()).digest())
            rows = parse_summary_csv(path)
            for policy, row in zip(POLICIES, rows):
                ins.failures.extend(checks.compare_summaries(
                    self._summary(policy), row, policy))
            if len(rows) != len(POLICIES):
                ins.failures.append(f"report has {len(rows)} rows, "
                                    f"expected {len(POLICIES)}")
            return ins
        path = self.events_path[label]
        with open(path, "rb") as fh:
            data = fh.read()
        row = self._summary(label)
        ins = Inspection(events=data.count(b"\n") - 1,
                         fingerprint=hashlib.sha256(data).digest(),
                         context_switches=row["context_switch_count"],
                         miss_ratio=row["deadline_miss_ratio"])
        if digest is not None:
            digest.update(data)
            log = load_events_csv(path, total_frames=CLI_FRAMES)
            ins.failures = checks.check_log(log, self.capacity,
                                            in_memory=False)
        return ins


class CsSweep(Workload):
    """``simulate(sc, build_requests(sc))`` with edf then hedf on canonical,
    for a block of consecutive seeds: the code path of acceptance
    criterion 3. No metrics and no CSV."""

    name = "cs_sweep"

    def __init__(self, seed: int, workdir: Optional[str] = None):
        self.scenarios = [
            validated(canonical_scenario(seed=s, scheduler_name=p,
                                         total_frames=SWEEP_FRAMES))
            for s in range(seed, seed + SWEEP_SEEDS) for p in SWEEP_POLICIES]
        cells = self.scenarios[0].cells
        self.capacity = {c.id: c.base_station_capacity for c in cells}

    def steps(self) -> List[Step]:
        return [(sc.scheduler_name,
                 lambda sc=sc: uplinksim.engine.simulate(
                     sc, uplinksim.traffic.build_requests(sc)))
                for sc in self.scenarios]

    def inspect(self, label, output, digest):
        return inspect_log(output, self.capacity, digest)


class DenseOverload(Workload):
    """``engine.run`` of the generated dense_overload scenario under all
    five policies: validation, traffic, simulation and metrics, no CSV."""

    name = "dense_overload"

    def __init__(self, seed: int, workdir: Optional[str] = None):
        self.scenarios = [
            validated(dense_overload_scenario(seed, p, DENSE_FRAMES))
            for p in POLICIES]
        cells = self.scenarios[0].cells
        self.capacity = {c.id: c.base_station_capacity for c in cells}

    def steps(self) -> List[Step]:
        return [(sc.scheduler_name,
                 lambda sc=sc: uplinksim.engine.run(sc))
                for sc in self.scenarios]

    def inspect(self, label, output, digest):
        log, _ = output
        return inspect_log(log, self.capacity, digest)


WORKLOADS = {w.name: w for w in (CanonicalCli, CsSweep, DenseOverload)}
