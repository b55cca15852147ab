"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload canonical_cli --seed 1 \\
        --seconds 30 --trace 0

Run from anywhere; the program under test is the ``src/uplinksim`` next to
this directory, never an installed copy. Repetitions of the workload run
one after another for ``--seconds`` (at least one); the metrics are medians
over them. ``--trace 0`` prints every end-to-end metric of
``BENCHMARK.json``; ``--trace 1`` alternates untraced and traced
repetitions, then makes one counting pass, and prints every per-layer
metric. The last line of stdout is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``. Host time throughout.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import traceback
from pathlib import Path
from time import perf_counter
from typing import Dict, List, Optional

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
HERE = Path(__file__).resolve().parent
SCRATCH = HERE / "_scratch"  # temporary CSVs, removed at exit
TRACES = HERE / "_traces"  # span files of the last traced run per workload

SETUP_PROBES = 7


def median(values: List[float]) -> float:
    return statistics.median(values) if values else 0.0


class Harness:
    """Runs repetitions of one workload and keeps what they produced."""

    def __init__(self, workload) -> None:
        self.workload = workload
        self.steps = workload.steps()
        self.attempted = 0
        self.failed = 0
        self.reference: List[object] = [None] * len(self.steps)
        self.digest = hashlib.sha256()
        # label -> inspections of the fully checked repetition
        self.outcome: Dict[str, list] = {}
        self.step_times: Dict[str, List[float]] = {}
        self.walls: List[float] = []
        self.traced_walls: List[float] = []
        self.events: List[int] = []
        self.tracers: list = []

    def _fail(self, label: str, message: str) -> None:
        self.failed += 1
        print(f"FAILED {self.workload.name} {label}: {message}",
              file=sys.stderr)

    def repetition(self, *, full: bool = False, tracer=None) -> None:
        """One repetition. Its outputs are compared with the first
        repetition's fingerprints. A ``full`` repetition is not timed: it
        runs every output check and feeds the digest."""
        rep = len(self.walls) + len(self.traced_walls)
        times: List[float] = []
        events = 0
        for i, (label, fn) in enumerate(self.steps):
            self.attempted += 1
            try:
                if tracer is None:
                    start = perf_counter()
                    output = fn()
                    end = perf_counter()
                else:
                    with tracer.span(f"bench.{label}", f"{rep}:{i}:{label}"):
                        start = perf_counter()
                        output = fn()
                        end = perf_counter()
            except Exception:
                self._fail(label, traceback.format_exc())
                continue
            try:
                ins = self.workload.inspect(
                    label, output, self.digest if full else None)
            except Exception:
                self._fail(label, traceback.format_exc())
                continue
            finally:
                del output
            if self.reference[i] is None:
                self.reference[i] = ins.fingerprint
            elif ins.fingerprint != self.reference[i]:
                ins.failures.append("output differs from the first "
                                    "repetition of the same inputs")
            if ins.failures:
                self._fail(label, "; ".join(ins.failures))
                continue
            if full:
                self.outcome.setdefault(label, []).append(ins)
            times.append(end - start)
            events += ins.events
            if not full and tracer is None:
                self.step_times.setdefault(label, []).append(end - start)
        if full or len(times) != len(self.steps):
            return  # a repetition with a failed step has no comparable time
        if tracer is None:
            self.walls.append(sum(times))
            self.events.append(events)
        else:
            self.traced_walls.append(sum(times))
            self.tracers.append(tracer)

    def measure(self, seconds: float, trace: bool) -> None:
        """Repeat until the next repetition would end past ``seconds``.
        With ``trace``, odd repetitions are traced."""
        from perfbench.spans import Tracer

        start = perf_counter()
        n = 0
        while True:
            rep_start = perf_counter()
            if trace and n % 2 == 1:
                tracer = Tracer()
                with tracer.installed():
                    self.repetition(tracer=tracer)
            else:
                self.repetition()
            n += 1
            now = perf_counter()
            if (now + (now - rep_start) > start + seconds
                    and (not trace or n >= 2)):
                break


def setup_seconds(workload: str, seed: int) -> List[float]:
    """Fresh-interpreter set-up times, one per probe process."""
    times = []
    for _ in range(SETUP_PROBES):
        start = perf_counter()
        subprocess.run([sys.executable, str(HERE / "setup_probe.py"),
                        workload, str(seed)],
                       check=True, stdout=subprocess.DEVNULL)
        times.append(perf_counter() - start)
    return times


def end_to_end(h: Harness, setup: List[float],
               peak_rss: float) -> Dict[str, tuple]:
    """name -> (value, unit, note) for every end-to-end metric; the ones a
    workload does not run (other policies, ``report_s``) are absent."""
    wall = median(h.walls)
    out = {
        "setup_s": (median(setup), "s", f"median of {len(setup)} fresh "
                    "interpreters"),
        "wall_s": (wall, "s", f"median of {len(h.walls)} repetitions"),
    }
    for label, times in h.step_times.items():
        name = "report_s" if label == "report" else f"run_s.{label}"
        out[name] = (median(times), "s", f"median, n={len(times)}")
    rates = [e / w for e, w in zip(h.events, h.walls)]
    out["events_per_s"] = (median(rates), "events/s",
                           f"median of {len(rates)} repetitions")
    out["peak_rss_mib"] = (peak_rss, "MiB", "peak RSS of this process over "
                           "the timed repetitions")
    return out


def per_layer(h: Harness, counts) -> Dict[str, float]:
    """Per-layer metrics: medians over the traced repetitions' spans, exact
    counts from the counting pass."""
    from uplinksim.engine import EVENT_TYPES

    from perfbench.spans import ALLOCATE, self_times
    from perfbench.workloads import POLICIES

    reps: List[Dict[str, float]] = []
    for tracer in h.tracers:
        own = self_times(tracer.spans)
        total: Dict[str, float] = {}
        self_s: Dict[str, float] = {}
        calls: Dict[str, int] = {}
        sizes: Dict[str, float] = {}
        for rec in tracer.spans:
            name, extra = rec[1], rec[6] or {}
            if name.startswith(ALLOCATE):
                name = ALLOCATE + ".s." + name[len(ALLOCATE) + 1:]
                total[name] = total.get(name, 0.0) + extra["busy"]
                for key in ("calls", "grants"):
                    k = f"{name}.{key}"
                    sizes[k] = sizes.get(k, 0) + extra[key]
                continue
            total[name] = total.get(name, 0.0) + rec[3] - rec[2]
            self_s[name] = self_s.get(name, 0.0) + own[rec[0]]
            calls[name] = calls.get(name, 0) + 1
            for key, value in extra.items():
                sizes[key] = sizes.get(key, 0) + value

        def ratio(num: float, den: float, scale: float = 1.0) -> float:
            return num / den * scale if den else 0.0

        m = {
            "cli.load_scenario.calls": calls.get("cli.load_scenario", 0),
            "cli.report.s": total.get("bench.report", 0.0),
            "model.validate_scenario.calls":
                calls.get("model.validate_scenario", 0),
            "model.validate_scenario.s":
                total.get("model.validate_scenario", 0.0),
            "traffic.build_requests.s":
                total.get("traffic.build_requests", 0.0),
            "traffic.requests": sizes.get("requests", 0),
            "traffic.us_per_request": ratio(
                total.get("traffic.build_requests", 0.0),
                sizes.get("requests", 0), 1e6),
            "engine.simulate.s": total.get("engine.simulate", 0.0),
            "engine.simulate.self_s": self_s.get("engine.simulate", 0.0),
            "engine.us_per_cell_frame": ratio(
                total.get("engine.simulate", 0.0),
                sizes.get("cell_frames", 0), 1e6),
            "metrics.compute_metrics.self_s":
                self_s.get("metrics.compute_metrics", 0.0),
            "metrics.compute_starvation_windows.s":
                total.get("metrics.compute_starvation_windows", 0.0),
            "metrics.write_events_csv.s":
                total.get("metrics.write_events_csv", 0.0),
            "metrics.write_events_csv.mb_per_s": ratio(
                sizes.get("bytes", 0),
                total.get("metrics.write_events_csv", 0.0), 1e-6),
            "metrics.load_events_csv.s":
                total.get("metrics.load_events_csv", 0.0),
        }
        alloc_calls = 0
        for policy in POLICIES:
            name = f"{ALLOCATE}.s.{policy}"
            n = sizes.get(f"{name}.calls", 0)
            alloc_calls += n
            m[name] = total.get(name, 0.0)
            m[f"schedulers.grants_per_call.{policy}"] = ratio(
                sizes.get(f"{name}.grants", 0), n)
        m[f"{ALLOCATE}.calls"] = alloc_calls
        reps.append(m)

    out = {name: median([m[name] for m in reps]) for name in reps[0]}
    for kind in EVENT_TYPES:
        out[f"engine.events.{kind}"] = counts.events[kind]
    ranks = counts.calls["schedulers.ssbpf_priority"]
    decisions = counts.calls["schedulers.hedf_decide"]
    out.update({
        "engine.apply_grant.calls": counts.calls["engine.apply_grant"],
        "schedulers.ssbpf_priority.calls": ranks,
        "schedulers.rank_evals_per_cell_frame":
            ranks / counts.ranked_cell_frames if counts.ranked_cell_frames
            else 0.0,
        "schedulers.hedf_decide.calls": decisions,
        "schedulers.hedf_switch_ratio":
            counts.switches / decisions if decisions else 0.0,
        "trace.overhead_s": median(h.traced_walls) - median(h.walls),
    })
    return out


def identity(h: Harness, seed: int) -> List[str]:
    """Simulated-output identity lines: information, not gated."""
    digest = h.digest.hexdigest()
    refs = json.loads((HERE / "digests.json").read_text())
    ref = refs["digests"].get(h.workload.name, {}).get(str(seed))
    if ref is None:
        status = f"no reference digest for seed {seed}"
    elif ref == digest:
        status = f"matches commit {refs['commit']}"
    else:
        status = f"DIFFERS from commit {refs['commit']}"
    lines = [f"  events sha256 {digest} ({status})"]
    for label, inspections in h.outcome.items():
        if label == "report":
            continue
        cs = [i.context_switches for i in inspections]
        miss = [f"{i.miss_ratio:.6f}" for i in inspections]
        lines.append(f"  {label:<9} context switches {cs}, miss ratio "
                     f"{miss}")
    return lines


def main(argv: Optional[List[str]] = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    if not (SRC / "uplinksim" / "__init__.py").is_file():
        print(f"perfbench: no uplinksim sources at {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(ROOT)]
    from perfbench import spans, workloads

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}, expected one "
              f"of {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    setup = [] if args.trace else setup_seconds(args.workload, args.seed)
    SCRATCH.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(dir=SCRATCH)
    try:
        workload = workloads.WORKLOADS[args.workload](args.seed, workdir)
        h = Harness(workload)
        h.measure(args.seconds, bool(args.trace))
        # Read before the checks, which hold their own tables in memory.
        peak_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        # One more repetition, untimed, runs every output check; in the
        # traced run it is also the counting pass.
        counts = spans.Counts()
        with counts.installed() if args.trace else contextlib.nullcontext():
            h.repetition(full=True)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    print(f"workload {args.workload} seed {args.seed}: closed loop, one run "
          "at a time, one process; host time")
    if args.trace:
        values = per_layer(h, counts)
        declared = spec["per_layer"]
        TRACES.mkdir(exist_ok=True)
        trace_path = TRACES / f"{args.workload}-seed{args.seed}.jsonl"
        with open(trace_path, "w") as fh:
            for tracer in h.tracers:
                tracer.write(fh)
        print(f"  spans written to {trace_path}")
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                   for m in declared}
        for name, m in metrics.items():
            print(f"  {name:<40} {m['value']:.6g} {m['unit']}")
    else:
        values = end_to_end(h, setup, peak_rss)
        for name, (value, unit, note) in values.items():
            print(f"  {name:<16} {value:.6g} {unit} ({note})")
        print(f"  {'failed_runs':<16} {h.failed} runs of {h.attempted} "
              "attempted (cli report calls count as runs)")
        metrics = {m["name"]: {"value": values[m["name"]][0],
                               "unit": m["unit"]}
                   for m in spec["end_to_end"]}
    for line in identity(h, args.seed):
        print(line)
    print(json.dumps({"correct": h.failed == 0, "attempted": h.attempted,
                      "failed": h.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
