"""Acceptance suite.

Each test prints one PASS/FAIL line (run with ``pytest -s`` to see them all):

1. edf matches a brute-force schedule-enumeration oracle on small task sets
2. the keep-or-preempt projection is sound under two-task replay
3. hedf cuts context switches vs edf on the canonical scenario, 100 seeds
4. edf starves the best-effort station, ssbpf_edf/hedf bound the starvation
5. conservation suite over the canonical sweep
6. under-load sanity: no misses, tight delay, all five policies
7. byte-identical event CSVs for identical (scenario, policy, seed)
8. fairness-priority formula, scaling invariance, EWMA fixed point
"""

import itertools
import math
import multiprocessing
import os
import random
import statistics
import time

from uplinksim.engine import run, simulate
from uplinksim.metrics import write_events_csv
from uplinksim.model import (Cell, Scenario, ServiceClass, SubscriberStation,
                             TrafficSpec, canonical_scenario, make_request,
                             starvation_scenario)
from uplinksim.schedulers import (Outcome, claim_value, hedf_decide,
                                  ssbpf_priority, update_historical_throughput)
from uplinksim.traffic import build_requests

RTPS = ServiceClass.RTPS


def _verdict(num: int, name: str, ok: bool, detail: str) -> bool:
    print(f"ACCEPTANCE {num} [{name}]: {'PASS' if ok else 'FAIL'} ({detail})")
    return ok


# --- 1. edf vs brute-force enumeration --------------------------------------

ORACLE_CAPACITY = 1000
FRAME_MS = 5.0


def _single_station_scenario(policy: str, capacity: int,
                             frames: int) -> Scenario:
    return Scenario(
        name="tasks",
        cells=[Cell(0, capacity, [0])],
        stations=[SubscriberStation(id=0, cell_id=0, capacity_c=capacity)],
        frame_duration=FRAME_MS,
        total_frames=frames,
        traffic_specs={},
        seed=1,
        scheduler_name=policy,
    )


def _order_feasible(tasks, order, frames) -> bool:
    """Serve pending tasks each frame in one fixed priority order; feasible
    when every task completes by a frame boundary within its deadline."""
    rem = [t[1] for t in tasks]
    for f in range(frames):
        cap = ORACLE_CAPACITY
        boundary = (f + 1) * FRAME_MS
        for i in order:
            if tasks[i][0] <= f and rem[i] > 0 and cap > 0:
                g = rem[i] if rem[i] < cap else cap
                rem[i] -= g
                cap -= g
                if rem[i] == 0 and boundary > tasks[i][2]:
                    return False
        for i, t in enumerate(tasks):
            if rem[i] > 0 and t[0] <= f and boundary > t[2]:
                return False
    return all(r == 0 for r in rem)


def _enumeration_feasible(tasks, frames) -> bool:
    """Brute force over every per-run priority ordering. In this divisible
    frame-capacity model every achievable schedule is reproduced by some
    fixed ordering, so this sweeps the whole schedule space."""
    return any(_order_feasible(tasks, order, frames)
               for order in itertools.permutations(range(len(tasks))))


def _edf_policy_meets_all(tasks, frames) -> bool:
    sc = _single_station_scenario("edf", ORACLE_CAPACITY, frames)
    reqs = []
    for i, (arrival_frame, size, deadline_ms) in enumerate(tasks):
        r = make_request(i, 0, RTPS, arrival_frame * FRAME_MS, size)
        r.deadline = deadline_ms
        reqs.append(r)
    reqs.sort(key=lambda r: (r.arrival_time, r.station_id, r.id))
    log = simulate(sc, reqs)
    return not any(e[2] == "deadline_miss" for e in log.events)


def test_criterion_1_edf_oracle_equivalence():
    rng = random.Random(20240809)
    t0 = time.time()
    counterexamples = 0
    feasible_count = 0
    for _ in range(500):
        n = rng.randint(1, 6)
        tasks = []
        for _ in range(n):
            arrival_frame = rng.randint(0, 8)
            size = rng.randint(300, 2500)
            slack = rng.randint(0, 4)
            deadline_frame = (arrival_frame
                              + math.ceil(size / ORACLE_CAPACITY) + slack)
            tasks.append((arrival_frame, size, deadline_frame * FRAME_MS))
        frames = max(int(t[2] // FRAME_MS) for t in tasks) + 2
        feasible = _enumeration_feasible(tasks, frames)
        edf_ok = _edf_policy_meets_all(tasks, frames)
        feasible_count += feasible
        # Required direction: oracle feasible => edf meets every deadline.
        # The converse also holds and is asserted for free.
        if feasible != edf_ok:
            counterexamples += 1
    elapsed = time.time() - t0
    ok = counterexamples == 0 and elapsed < 60.0
    assert _verdict(
        1, "edf-oracle-equivalence", ok,
        f"{counterexamples} counterexamples over 500 task sets, "
        f"{feasible_count} feasible, {elapsed:.1f}s")


# --- 2. keep-or-preempt soundness --------------------------------------------

def test_criterion_2_hedf_decision_soundness():
    rng = random.Random(424242)
    violations = 0
    continues = 0
    for _ in range(1000):
        total = rng.randint(0, 60)
        elapsed = rng.randint(0, total) if total else 0
        burst = rng.randint(0, 40)
        now = rng.randint(0, 10**6)
        next_deadline = now + rng.randint(-20, 90)
        mu = claim_value(burst, total, elapsed, now)
        decision = hedf_decide(mu, next_deadline)
        # Replay: current runs to completion, then the next task runs.
        current_done = now + (total - elapsed)
        next_done = current_done + burst
        if next_done != mu:
            violations += 1
        if decision.outcome is Outcome.CONTINUE:
            continues += 1
            if next_done > next_deadline:
                violations += 1
    ok = violations == 0
    assert _verdict(
        2, "hedf-decision-soundness", ok,
        f"{violations} violations over 1000 configurations, "
        f"{continues} Continue outcomes, exact comparison")


# --- 3. context-switch reduction ---------------------------------------------

def _context_switch_counts(seed: int):
    counts = []
    for policy in ("edf", "hedf"):
        sc = canonical_scenario(seed=seed, scheduler_name=policy)
        log = simulate(sc, build_requests(sc))
        counts.append(sum(1 for e in log.events if e[2] == "context_switch"))
    return seed, counts[0], counts[1]


def test_criterion_3_context_switch_reduction():
    t0 = time.time()
    seeds = list(range(1, 101))
    procs = min(os.cpu_count() or 1, 4)
    if procs > 1:
        with multiprocessing.Pool(procs) as pool:
            results = pool.map(_context_switch_counts, seeds, chunksize=5)
    else:
        results = [_context_switch_counts(s) for s in seeds]
    results.sort()
    not_worse = sum(1 for _, e, h in results if h <= e)
    reductions = [(e - h) / e if e > 0 else (1.0 if h == 0 else 0.0)
                  for _, e, h in results]
    median_reduction = statistics.median(reductions)
    elapsed = time.time() - t0
    ok = (not_worse >= 95 and median_reduction >= 0.10 and elapsed < 300.0)
    assert _verdict(
        3, "context-switch-reduction", ok,
        f"hedf <= edf on {not_worse}/100 seeds, median reduction "
        f"{median_reduction:.1%}, {elapsed:.0f}s")


# --- 4. starvation: mechanism and remedy -------------------------------------

def test_criterion_4_starvation_bounds():
    frame_ms = 5.0
    windows = {}
    for policy, frames in (("edf", 6000), ("edf", 12000),
                           ("ssbpf_edf", 12000), ("hedf", 12000)):
        sc = starvation_scenario(seed=1, scheduler_name=policy,
                                 total_frames=frames)
        _, rec = run(sc)
        windows[(policy, frames)] = rec.max_starvation_window_ms[1]
    edf30 = windows[("edf", 6000)]
    edf60 = windows[("edf", 12000)]
    ok = (edf60 >= 10 * frame_ms
          and edf60 >= 2 * edf30
          and windows[("ssbpf_edf", 12000)] <= 50 * frame_ms
          and windows[("hedf", 12000)] <= 50 * frame_ms)
    assert _verdict(
        4, "starvation-bounds", ok,
        f"edf window {edf30:.0f}ms@30s -> {edf60:.0f}ms@60s, "
        f"ssbpf_edf {windows[('ssbpf_edf', 12000)]:.0f}ms, "
        f"hedf {windows[('hedf', 12000)]:.0f}ms at 60s")


# --- 5. conservation suite ----------------------------------------------------

SWEEP_POLICIES = ("rr", "wrr", "edf", "ssbpf_edf", "hedf")
SWEEP_SEEDS = (1, 2, 3)


def test_criterion_5_conservation_suite():
    failures = []
    arrivals_by_seed = {}
    for policy in SWEEP_POLICIES:
        for seed in SWEEP_SEEDS:
            sc = canonical_scenario(seed=seed, scheduler_name=policy)
            log, rec = run(sc)
            capacity = {c.id: c.base_station_capacity for c in sc.cells}
            per_frame = {}
            granted_total = 0
            for e in log.events:
                if e[2] == "grant":
                    key = (e[0], e[3])
                    per_frame[key] = per_frame.get(key, 0) + e[6]
                    granted_total += e[6]
            if any(bits > capacity[cell]
                   for (_, cell), bits in per_frame.items()):
                failures.append(f"{policy}/s{seed}: frame capacity exceeded")
            served_total = sum(r.served_bits for r in log.requests.values())
            if granted_total != served_total:
                failures.append(f"{policy}/s{seed}: granted != served")
            if rec.throughput_bps > rec.offered_load_bps:
                failures.append(f"{policy}/s{seed}: throughput > offered")
            arr = [e for e in log.events if e[2] == "arrival"]
            if seed in arrivals_by_seed:
                if arrivals_by_seed[seed] != arr:
                    failures.append(f"{policy}/s{seed}: arrival stream differs")
            else:
                arrivals_by_seed[seed] = arr
    ok = not failures
    assert _verdict(
        5, "conservation-suite", ok,
        failures[0] if failures else
        f"{len(SWEEP_POLICIES) * len(SWEEP_SEEDS)} runs, all exact"), failures


# --- 6. under-load sanity ------------------------------------------------------

def _underload_scenario(policy: str, frames: int = 2000) -> Scenario:
    horizon = frames * 5.0
    stations = [SubscriberStation(id=i, cell_id=0, capacity_c=1600)
                for i in (0, 1)]
    specs = {i: (TrafficSpec(service_class=RTPS, pattern="constant_rate",
                             rate_bits_per_s=64_000.0, packet_size_bits=800,
                             start_time=0.0, stop_time=horizon),)
             for i in (0, 1)}
    return Scenario(name="underload", cells=[Cell(0, 1600, [0, 1])],
                    stations=stations, frame_duration=5.0,
                    total_frames=frames, traffic_specs=specs, seed=1,
                    scheduler_name=policy)


def test_criterion_6_underload_sanity():
    failures = []
    for policy in SWEEP_POLICIES:
        sc = _underload_scenario(policy)
        load = 2 * 64_000.0 / (1600 * (1000.0 / sc.frame_duration))
        assert load <= 0.5
        assert RTPS.deadline_offset_ms >= 4 * sc.frame_duration
        _, rec = run(sc)
        if rec.deadline_miss_ratio != 0.0:
            failures.append(f"{policy}: miss ratio {rec.deadline_miss_ratio}")
        if rec.delay_ms.mean > 2 * sc.frame_duration:
            failures.append(f"{policy}: mean delay {rec.delay_ms.mean}")
    ok = not failures
    assert _verdict(
        6, "underload-sanity", ok,
        failures[0] if failures else
        "all 5 policies: miss ratio 0, mean delay <= 2 frames at 40% load")


# --- 7. determinism -------------------------------------------------------------

def test_criterion_7_determinism_byte_identical(tmp_path):
    blobs = []
    for attempt in (1, 2):
        sc = canonical_scenario(seed=1, scheduler_name="hedf")
        log, _ = run(sc)
        path = str(tmp_path / f"attempt{attempt}.events.csv")
        write_events_csv(log, path)
        with open(path, "rb") as fh:
            blobs.append(fh.read())
    ok = blobs[0] == blobs[1] and len(blobs[0]) > 0
    assert _verdict(
        7, "determinism", ok,
        f"two runs, {len(blobs[0])} bytes each, byte-identical={ok}")


# --- 8. fairness-priority properties --------------------------------------------

def test_criterion_8_ssbpf_properties():
    rng = random.Random(31337)
    failures = 0
    for _ in range(2000):
        c = rng.uniform(0.0, 1e6)
        th = rng.uniform(0.0, 1e6)
        got = ssbpf_priority(c, th)
        want = c / (1.0 + th)
        if want != 0.0 and abs(got - want) / abs(want) > 1e-12:
            failures += 1
        elif want == 0.0 and got != 0.0:
            failures += 1

    # Argmax ordering invariant under uniform capacity scaling.
    order_flips = 0
    for _ in range(500):
        n = rng.randint(2, 8)
        cs = [rng.randint(1, 10**6) for _ in range(n)]
        ths = [rng.randint(0, 10**6) for _ in range(n)]
        k = 2.0 ** rng.randint(-8, 16)
        base = sorted(range(n), key=lambda i: (-ssbpf_priority(cs[i], ths[i]), i))
        scaled = sorted(range(n),
                        key=lambda i: (-ssbpf_priority(k * cs[i], ths[i]), i))
        if base != scaled:
            order_flips += 1

    ewma_breaks = 0
    for _ in range(2000):
        v = rng.uniform(0.0, 1e9)
        alpha = rng.uniform(1e-6, 1.0)
        if update_historical_throughput(v, v, alpha) != v:
            ewma_breaks += 1

    ok = failures == 0 and order_flips == 0 and ewma_breaks == 0
    assert _verdict(
        8, "ssbpf-properties", ok,
        f"formula mismatches {failures}, ordering flips {order_flips}, "
        f"EWMA fixed-point breaks {ewma_breaks}")
