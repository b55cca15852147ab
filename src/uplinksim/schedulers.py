"""Uplink scheduling policies.

A policy instance is owned by exactly one cell of one run and owns that
cell's request queues. The engine hands it every arrival through
:meth:`SchedulerPolicy.on_arrival`; each frame, ``allocate_frame`` returns
the grants as ``(request, bits)`` pairs, which the engine applies. A queue
keeps a request until all of its bits are granted, and discards a request
the engine dropped (drop-on-miss) when it next reaches it. Policies never
mutate requests or stations, may keep state across frames, and give a
request at most one grant per frame.

The five policies:

* ``rr``      round robin over stations, one head-of-queue request per visit.
* ``wrr``     weighted round robin; a station may serve up to weight(i)
              requests per cycle, weights default to being proportional to
              station capacity.
* ``edf``     earliest deadline first over the whole cell, fully preemptive
              across frames.
* ``ssbpf_edf``  proportional fairness across stations (priority
              capacity / (1 + smoothed throughput), so a station that has
              been served a lot yields to one that has not), earliest
              deadline first within a station.
* ``hedf``    ssbpf_edf plus a sticky current task: before preempting, the
              scheduler projects when the would-be next task could finish if
              the current one ran to completion first, and switches only if
              that projection overshoots the next task's deadline.
"""

from __future__ import annotations

import heapq
from collections import deque
from dataclasses import dataclass
from enum import Enum
from typing import Deque, Dict, List, Optional, Tuple

from .model import Cell, Request, SubscriberStation


def ssbpf_priority(capacity_c: float, historical_throughput: float) -> float:
    """Proportional-fairness station priority: capacity / (1 + throughput).

    Strictly increasing in capacity, strictly decreasing in the smoothed
    throughput, so lightly served stations win the next frame.
    """
    return capacity_c / (1.0 + historical_throughput)


def update_historical_throughput(th: float, served_this_frame: float,
                                 alpha: float) -> float:
    """One EWMA step, algebraically (1-alpha)*th + alpha*served.

    Written as th + alpha*(served - th) so that served == th is a fixed
    point exactly, with no floating-point drift.
    """
    return th + alpha * (served_this_frame - th)


def claim_value(burst_next: float, total_current: float,
                elapsed_current: float, now: float) -> float:
    """Projected completion time of the next task if the current one finishes
    first: next task's burst + remaining service of the current task + now.
    """
    if elapsed_current > total_current:
        raise ValueError(
            f"elapsed_current {elapsed_current} exceeds total_current {total_current}")
    return burst_next + (total_current - elapsed_current) + now


class Outcome(Enum):
    CONTINUE = "continue"
    SWITCH = "switch"


@dataclass(frozen=True)
class SchedulerDecision:
    """Keep-or-preempt verdict for the heuristic policy."""

    claim_value_mu: float
    next_deadline_dj: float
    outcome: Outcome


def hedf_decide(mu: float, next_deadline: float) -> SchedulerDecision:
    """Continue while the projection meets the next deadline (ties continue);
    switch, i.e. preempt the current task, only when it would not.
    """
    outcome = Outcome.CONTINUE if mu <= next_deadline else Outcome.SWITCH
    return SchedulerDecision(mu, next_deadline, outcome)


# EDF order: earliest deadline first, ties to the earlier arrival, then to
# the lower id. Heap entries are (deadline, arrival_time, id, request);
# unique ids make the tuple ordering total.
_HeapEntry = Tuple[float, float, int, Request]
# allocate_frame's result: (request, granted bits) in grant order.
Grants = List[Tuple[Request, int]]


def _entry(r: Request) -> _HeapEntry:
    return (r.deadline, r.arrival_time, r.id, r)


class SchedulerPolicy:
    """Base class wiring a policy to one cell of one run."""

    name = "base"

    def __init__(self, cell: Cell, stations: Dict[int, SubscriberStation],
                 frame_duration_ms: float):
        self.cell = cell
        self.stations = stations
        self.frame_duration_ms = frame_duration_ms

    def on_arrival(self, request: Request) -> None:
        """Called by the engine when a request of this cell arrives."""

    def allocate_frame(self, frame: int, now: float,
                       capacity: int) -> Grants:
        raise NotImplementedError


class RoundRobinPolicy(SchedulerPolicy):
    """Cycle a station pointer, serving one head-of-queue request per visit."""

    name = "rr"

    def __init__(self, cell, stations, frame_duration_ms):
        super().__init__(cell, stations, frame_duration_ms)
        self._order = list(cell.station_ids)
        self._ptr = 0
        self._queues: Dict[int, Deque[Request]] = {
            sid: deque() for sid in self._order}

    def on_arrival(self, request: Request) -> None:
        self._queues[request.station_id].append(request)

    def _shares(self, sid: int) -> int:
        return 1

    def allocate_frame(self, frame: int, now: float,
                       capacity: int) -> Grants:
        grants: Grants = []
        cap = capacity
        n = len(self._order)
        idle_passes = 0
        while cap > 0 and idle_passes < n:
            sid = self._order[self._ptr]
            queue = self._queues[sid]
            served_any = False
            shares = self._shares(sid)
            while queue and shares and cap:
                r = queue[0]
                if r.dropped:
                    queue.popleft()
                    continue
                rem = r.size_bits - r.served_bits
                g = min(rem, cap)
                grants.append((r, g))
                cap -= g
                served_any = True
                shares -= 1
                if g < rem:
                    # Capacity ran out mid-request: resume here next frame.
                    return grants
                queue.popleft()
            self._ptr = (self._ptr + 1) % n
            idle_passes = 0 if served_any else idle_passes + 1
        return grants


class WeightedRoundRobinPolicy(RoundRobinPolicy):
    """Round robin where station i may serve up to weight(i) requests per
    visit. Explicit weights come from the scenario; by default they are
    proportional to station capacity, rounded to integers >= 1.
    """

    name = "wrr"

    def __init__(self, cell, stations, frame_duration_ms):
        super().__init__(cell, stations, frame_duration_ms)
        min_c = min(stations[sid].capacity_c for sid in self._order)
        self._weights = {}
        for sid in self._order:
            st = stations[sid]
            if st.wrr_weight is not None:
                self._weights[sid] = st.wrr_weight
            else:
                self._weights[sid] = max(1, round(st.capacity_c / min_c))

    def _shares(self, sid: int) -> int:
        return self._weights[sid]


class EarliestDeadlineFirstPolicy(SchedulerPolicy):
    """Pool every request of the cell and serve in deadline order.

    Fully preemptive across frames: a new arrival with an earlier deadline
    is served before a previously started request.
    """

    name = "edf"

    def __init__(self, cell, stations, frame_duration_ms):
        super().__init__(cell, stations, frame_duration_ms)
        self._heap: List[_HeapEntry] = []

    def on_arrival(self, request: Request) -> None:
        heapq.heappush(self._heap, _entry(request))

    def allocate_frame(self, frame: int, now: float,
                       capacity: int) -> Grants:
        grants: Grants = []
        cap = capacity
        heap = self._heap
        while cap > 0 and heap:
            r = heap[0][3]
            rem = r.size_bits - r.served_bits
            if rem <= 0 or r.dropped:
                heapq.heappop(heap)
                continue
            g = min(rem, cap)
            grants.append((r, g))
            cap -= g
            if g == rem:
                heapq.heappop(heap)  # completes once the engine applies it
            # else: capacity exhausted; the partial request stays on top
        return grants


class _StationHeapPolicy(SchedulerPolicy):
    """Shared machinery: one deadline heap per station, stale entries
    (completed or dropped requests) discarded lazily on inspection."""

    def __init__(self, cell, stations, frame_duration_ms):
        super().__init__(cell, stations, frame_duration_ms)
        self._heaps: Dict[int, List[_HeapEntry]] = {
            sid: [] for sid in cell.station_ids}
        # Requests completed by grants of the frame in progress. Their
        # served_bits only advance once the engine applies the grants, so
        # until then they must be ignored here without being popped (they
        # may not sit on top of their heap).
        self._done: set = set()

    def on_arrival(self, request: Request) -> None:
        heapq.heappush(self._heaps[request.station_id], _entry(request))

    def _head(self, sid: int) -> Optional[Request]:
        heap = self._heaps[sid]
        done = self._done
        while heap:
            r = heap[0][3]
            if r.dropped or r.served_bits >= r.size_bits or r.id in done:
                heapq.heappop(heap)
                continue
            return r
        return None

    def _ranked_stations(self) -> List[int]:
        """The cell's stations in descending fairness priority; ties go to
        the lower station id. Priorities only move at frame end (the
        throughput EWMA), so one ranking serves a whole frame; callers skip
        stations whose head is None."""
        ranked = []
        for sid in self.cell.station_ids:
            st = self.stations[sid]
            ranked.append(
                (-ssbpf_priority(st.capacity_c, st.historical_throughput),
                 sid))
        ranked.sort()
        return [sid for _, sid in ranked]

    def _service_ms(self, r: Request) -> float:
        """Remaining service time at the owning station's capacity."""
        rem = r.size_bits - r.served_bits
        c = self.stations[r.station_id].capacity_c
        return rem / c * self.frame_duration_ms


class SsbpfEdfPolicy(_StationHeapPolicy):
    """Visit stations in descending capacity/(1+throughput) priority and
    serve each station's queue in deadline order until capacity runs out.
    The engine's post-frame EWMA update is what steers the priorities.
    """

    name = "ssbpf_edf"

    def allocate_frame(self, frame: int, now: float,
                       capacity: int) -> Grants:
        grants: Grants = []
        cap = capacity
        for sid in self._ranked_stations():
            heap = self._heaps[sid]
            while cap > 0:
                r = self._head(sid)
                if r is None:
                    break
                rem = r.size_bits - r.served_bits
                g = min(rem, cap)
                grants.append((r, g))
                cap -= g
                if g == rem:
                    heapq.heappop(heap)
            if cap == 0:
                break
        return grants


class HeuristicEdfPolicy(_StationHeapPolicy):
    """ssbpf_edf with a sticky current task.

    The current (station, request) persists across frames. Whenever capacity
    remains, the would-be next task is the deadline-first head of the best
    priority station, leaving the current request aside; the scheduler then
    projects the next task's completion time were the current task to finish
    first (claim_value) and preempts only if that projection misses the next
    task's deadline. Completions hand over without a context switch.
    """

    name = "hedf"

    def __init__(self, cell, stations, frame_duration_ms):
        super().__init__(cell, stations, frame_duration_ms)
        self._current: Optional[Request] = None

    def _candidate(self, ranked: List[int],
                   exclude: Optional[Request]) -> Optional[Request]:
        for sid in ranked:
            head = self._head(sid)
            if head is None:
                continue
            if exclude is not None and head.id == exclude.id:
                # Look one past the current task within its own station.
                heap = self._heaps[sid]
                top = heapq.heappop(heap)
                nxt = self._head(sid)
                heapq.heappush(heap, top)
                if nxt is not None:
                    return nxt
                continue
            return head
        return None

    def allocate_frame(self, frame: int, now: float,
                       capacity: int) -> Grants:
        grants: Grants = []
        cap = capacity
        self._done.clear()
        ranked = self._ranked_stations()
        while cap > 0:
            cur = self._current
            if cur is not None and (cur.dropped
                                    or cur.served_bits >= cur.size_bits):
                cur = self._current = None
            if cur is None:
                cur = self._candidate(ranked, None)
                if cur is None:
                    break
                self._current = cur  # succession after completion, no switch
            else:
                cand = self._candidate(ranked, cur)
                if cand is not None:
                    c_cur = self.stations[cur.station_id].capacity_c
                    mu = claim_value(
                        burst_next=self._service_ms(cand),
                        total_current=cur.size_bits / c_cur
                        * self.frame_duration_ms,
                        elapsed_current=cur.served_bits / c_cur
                        * self.frame_duration_ms,
                        now=now,
                    )
                    if hedf_decide(mu, cand.deadline).outcome is Outcome.SWITCH:
                        cur = self._current = cand
            rem = cur.size_bits - cur.served_bits
            g = min(rem, cap)
            grants.append((cur, g))
            cap -= g
            if g == rem:
                self._done.add(cur.id)
                self._current = None
        return grants


POLICIES = {
    cls.name: cls
    for cls in (RoundRobinPolicy, WeightedRoundRobinPolicy,
                EarliestDeadlineFirstPolicy, SsbpfEdfPolicy,
                HeuristicEdfPolicy)
}
POLICY_NAMES = tuple(sorted(POLICIES))


def make_policy(name: str, cell: Cell,
                stations: Dict[int, SubscriberStation],
                frame_duration_ms: float) -> SchedulerPolicy:
    try:
        cls = POLICIES[name]
    except KeyError:
        raise ValueError(f"unknown policy {name!r}; "
                         f"expected one of {POLICY_NAMES}") from None
    return cls(cell, stations, frame_duration_ms)
