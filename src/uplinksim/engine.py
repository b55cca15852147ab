"""Deterministic frame-stepped simulation loop.

Each frame, in order: (1) hand the arrivals whose time falls inside the
frame to their cell's policy (at the frame start, so a request can be served
in its arrival frame), (2) let every policy grant its cell's capacity as
``(request, bits)`` pairs, (3) apply the grants, (4) record completions and
deadline misses at the closing frame boundary. Step (1) takes one frame's
arrivals at a time from ``_arrivals``, which reads the request list in order
and states the arrival contract. Step (2) calls every cell's policy, idle
cells included, so that a ranking policy steps its stations' smoothed
throughputs every frame (see ``schedulers``). The log's
``final_station_throughput`` merges the ranking policies' end-of-run
throughputs into one fresh dict; it is empty under ``rr``, ``wrr`` and
``edf``.

Frame ``f`` opens at ``f*delta`` and closes at ``frame_close(f, delta)``,
``f*delta + delta``, computed as exactly these float expressions (see
``metrics.load_events_csv``). A run computes its closing boundaries once.

Deadline-miss rule: at the first closing boundary strictly past its
deadline, a request that did not complete at or before the deadline is
logged once as a deadline_miss. A deadline exactly on a boundary is still
pending at that boundary. Missed requests stay queued and are served late,
unless the scenario sets ``drop_on_miss``, which marks them dropped.

The engine needs no completion times for this. At arrival it files each
request under its due frame: the first frame, at or after the arrival frame,
whose closing boundary is past the deadline, found by bisection over the
run's non-decreasing closing boundaries. A deadline at or past the run's
last boundary (infinite and NaN ones included) is never due. When a frame
opens, the engine takes the requests filed under it that are not yet
complete, in (deadline, id) order; after the grants it logs each as a miss
with its remainder. A due request's deadline is not before the frame's
opening boundary, so it met the deadline exactly when it completed before
this frame.

Event records are 7-tuples ``(frame, time_ms, event, cell, station, request,
bits)``. A run's log stores them flat, in ``Events``, and reads them back as
7-tuples of the stored objects, so a record costs seven list slots and no
tuple object. Arrivals carry their true arrival time; grant, completion,
deadline_miss and context_switch records are stamped at the closing boundary
of their frame, which keeps the log time-ordered. The ``bits`` column holds
the request size for arrivals and completions, the granted bits for grants,
the unserved remainder for deadline misses, and 0 for context switches.
Equal values share one int: an untouched request's whole grant and its
completion carry the request's ``size_bits`` object, and equal partial-grant
bit counts and the remainders they leave come from one table per run.

A run never mutates its Scenario, whose values are frozen: the run's state
is the requests, regenerated from the scenario seed, and its policies, so
running the same scenario twice gives byte-identical logs.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from collections import defaultdict
from dataclasses import dataclass, field
from itertools import chain
from operator import attrgetter
from typing import Dict, Iterator, List, Tuple

from .model import ConfigError, Request, Scenario, validate_scenario
from .schedulers import make_policy
from .traffic import build_requests

EVENT_TYPES = ("arrival", "grant", "completion", "deadline_miss",
               "context_switch")


class InvariantError(Exception):
    """An internal consistency check failed; the run is aborted."""


CHUNK_FIELDS = 7 * 1024


def _record(fields) -> tuple:
    """``fields`` as one event record; ValueError unless seven fields, since
    a record of another length would shift every later one in ``Events``."""
    record = tuple(fields)
    if len(record) != 7:
        raise ValueError(f"an event record has 7 fields, got {len(record)}: "
                         f"{record!r}")
    return record


class Events:
    """Event records stored flat: each list in ``chunks`` holds the seven
    fields of whole records in order, and the records read back as 7-tuples
    of the stored objects. ``simulate`` and ``metrics.load_events_csv``
    extend the list that ``writer`` returns, seven fields at a time, and
    call ``writer`` again at each new frame. Readers iterate the records,
    take their ``len`` or read one by int index; ``append`` and item
    assignment refuse a record of another length.

    Chunks of about ``CHUNK_FIELDS`` fields, not one list, because one list
    of millions of slots grows by reallocation, and once a run has freed
    such a buffer the allocator serves the next one's copies from its heap
    and keeps them resident: in a process that simulates canonical (12000
    frames) run after run (CPython 3.11, glibc, 2-CPU Linux VM), one list
    held each run after the first at a peak RSS of 61 MiB, chunks at 49 MiB.
    """

    __slots__ = ("chunks",)

    def __init__(self) -> None:
        self.chunks: List[list] = [[]]

    def writer(self):
        """The ``extend`` of the last chunk, after starting a new chunk if
        the last holds ``CHUNK_FIELDS`` fields or more."""
        chunks = self.chunks
        if len(chunks[-1]) >= CHUNK_FIELDS:
            chunks.append([])
        return chunks[-1].extend

    def __len__(self) -> int:
        return sum(map(len, self.chunks)) // 7

    def __iter__(self):
        return chain.from_iterable(zip(it, it, it, it, it, it, it)
                                   for it in map(iter, self.chunks))

    def _find(self, i: int) -> Tuple[list, int]:
        """The chunk of record ``i``, for ``0 <= i < len(self)``, and the
        index of its first field there."""
        for chunk in self.chunks:
            if 7 * i < len(chunk):
                return chunk, 7 * i
            i -= len(chunk) // 7

    def __getitem__(self, i: int) -> tuple:
        chunk, j = self._find(range(len(self))[i])
        return tuple(chunk[j:j + 7])

    def __setitem__(self, i: int, record) -> None:
        chunk, j = self._find(range(len(self))[i])
        chunk[j:j + 7] = _record(record)

    def append(self, record) -> None:
        self.writer()(_record(record))


@dataclass
class EventLog:
    """Complete, time-ordered record of one run.

    ``events`` is read only by iterating it, taking its ``len`` or indexing
    it, and yields 7-tuples ``(frame, time_ms, event, cell, station,
    request, bits)``: a run's log holds an ``Events``, and a plain list of
    7-tuples serves every reader alike. ``Events`` defines no equality, so
    two logs' records compare as ``list(log.events)``.
    """

    frame_duration_ms: float
    total_frames: int
    drop_on_miss: bool = False
    station_ids: List[int] = field(default_factory=list)  # ascending
    events: Events | List[tuple] = field(default_factory=Events)
    # Request objects by id; for logs reloaded from CSV this holds the
    # lighter ReqInfo view, whose service_class is None (see
    # metrics.load_events_csv).
    requests: Dict[int, object] = field(default_factory=dict)
    # Smoothed per-station throughput at end of run (bits/frame), for the
    # stations of ranking policies only.
    final_station_throughput: Dict[int, float] = field(default_factory=dict)

    @property
    def duration_s(self) -> float:
        return self.total_frames * self.frame_duration_ms / 1000.0


def apply_grant(r: Request, bits: int) -> bool:
    """Advance a request by one grant of ``bits``; True when it completes.

    Over-grants and grants to dropped requests abort the run: a policy that
    emits one is buggy and continuing would corrupt every downstream metric.
    """
    left = r.left_bits
    if bits <= 0 or bits > left:
        raise InvariantError(
            f"grant of {bits} bits to request {r.id} with {left} bits remaining")
    if r.dropped:
        raise InvariantError(f"grant to dropped request {r.id}")
    r.left_bits = left = left - bits
    return not left


def frame_close(f: int, delta: float) -> float:
    """The closing boundary of frame ``f``: the stamp of its non-arrival
    events."""
    return f * delta + delta


def _arrivals(requests: List[Request], delta: float,
              n_frames: int) -> Iterator[Tuple[int, List[Request]]]:
    """Yield ``(frame, its arrivals)`` for each frame of the run that has
    arrivals. Every request is read and checked in list order: a NaN or
    infinite arrival time, or a frame below the previous request's, raises
    ValueError naming it. Requests outside the run's frames are not yielded."""
    last = -math.inf
    batch = []
    for r in requests:
        try:
            a = int(r.arrival_time // delta)
        except (ValueError, OverflowError):
            raise ValueError(f"request {r.id} has arrival time "
                             f"{r.arrival_time}, in no frame") from None
        if a < last:
            raise ValueError(f"request {r.id} arrives in frame {a}, before "
                             f"frame {last} of the request listed before it")
        if a != last:
            if 0 <= last < n_frames:
                yield last, batch
            last, batch = a, []
        batch.append(r)
    if 0 <= last < n_frames:
        yield last, batch


def simulate(scenario: Scenario, requests: List[Request]) -> EventLog:
    """Run the frame loop over a time-ordered request list, read by
    ``_arrivals``, which refuses a request out of list order or with a NaN or
    infinite arrival time."""
    delta = scenario.frame_duration
    n_frames = scenario.total_frames
    stations = scenario.stations
    by_id = {s.id: s for s in stations}
    cells = scenario.cells

    log = EventLog(
        frame_duration_ms=delta,
        total_frames=n_frames,
        drop_on_miss=scenario.drop_on_miss,
        station_ids=sorted(by_id),
    )
    writer = log.events.writer

    policies = {c.id: make_policy(scenario.scheduler_name, c, by_id,
                                  scenario.ewma_alpha, delta)
                for c in cells}
    # Per station: (cell id, the cell policy's on_arrival).
    arrive = {s.id: (s.cell_id, policies[s.cell_id].on_arrival)
              for s in stations}
    # Per cell: [id, capacity, policy, the request its last grant left
    # incomplete or None]; the context-switch rule of
    # metrics.count_context_switches.
    cell_runs = [[c.id, c.base_station_capacity, policies[c.id], None]
                 for c in cells]

    drop = scenario.drop_on_miss
    closes = [frame_close(f, delta) for f in range(n_frames)]
    # Requests by due frame (see the module docstring).
    due: Dict[int, List[Request]] = defaultdict(list)
    by_deadline = attrgetter("deadline", "id")
    # One int per distinct partial-grant or remainder value.
    share = {}.setdefault
    # The next frame with arrivals; the end marker matches no frame.
    arrivals = _arrivals(requests, delta, n_frames)
    end = (n_frames, ())
    a, batch = next(arrivals, end)

    for f in range(n_frames):
        ev = writer()
        now = f * delta
        boundary = closes[f]

        if a == f:
            for r in batch:
                sid = r.station_id
                cid, on_arrival = arrive[sid]
                log.requests[r.id] = r
                on_arrival(r)
                ev((f, r.arrival_time, "arrival", cid, sid, r.id, r.size_bits))
                g = bisect_right(closes, r.deadline, f)
                if g < n_frames:
                    due[g].append(r)
            a, batch = next(arrivals, end)

        late = due.pop(f, ())
        if late:
            late = [r for r in late if r.left_bits]
            late.sort(key=by_deadline)

        for cell_run in cell_runs:
            cid, capacity, policy, open_req = cell_run
            grants = policy.allocate_frame(f, now, capacity)
            if not grants:
                continue
            total = 0
            for r, bits in grants:
                total += bits
                if open_req is not None and open_req is not r:
                    ev((f, boundary, "context_switch", cid,
                        open_req.station_id, open_req.id, 0))
                done = apply_grant(r, bits)
                if not done:
                    bits = share(bits, bits)
                    left = r.left_bits
                    r.left_bits = share(left, left)
                sid = r.station_id
                ev((f, boundary, "grant", cid, sid, r.id, bits))
                if done:
                    open_req = None
                    ev((f, boundary, "completion", cid, sid, r.id,
                        r.size_bits))
                else:
                    open_req = r
            cell_run[3] = open_req
            if total > capacity:
                raise InvariantError(
                    f"cell {cid} granted {total} bits in frame {f}, "
                    f"capacity {capacity}")

        for r in late:
            sid = r.station_id
            rem = r.left_bits
            ev((f, boundary, "deadline_miss", arrive[sid][0], sid, r.id, rem))
            if drop and rem > 0:
                r.dropped = True

    log.final_station_throughput = {
        sid: th for p in policies.values() for sid, th in p.throughput.items()}
    return log


def run(scenario: Scenario):
    """Validate, then simulate a scenario; returns (EventLog, MetricsRecord)."""
    violations = validate_scenario(scenario)
    if violations:
        raise ConfigError(violations)
    requests = build_requests(scenario)
    log = simulate(scenario, requests)
    from .metrics import compute_metrics  # engine <-> metrics one-way at import
    return log, compute_metrics(log)
