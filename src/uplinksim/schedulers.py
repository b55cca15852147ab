"""Uplink scheduling policies.

Each policy maps (frame state, station queues, capacity) to a list of grants.
A policy instance is owned by exactly one cell of one run and may keep state
across frames (round-robin pointers, the sticky current task of the
heuristic policy, per-station deadline heaps). The engine feeds arrivals in
via :meth:`SchedulerPolicy.on_arrival`, applies the returned grants, and
updates the per-station smoothed throughput after every frame.

Policies never mutate requests or stations; they only read them and emit
grants. Within one frame a request receives at most one grant.

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
from dataclasses import dataclass
from enum import Enum
from typing import Dict, List, Optional, Tuple

from .model import Cell, Grant, Request, SubscriberStation


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
        """Called by the engine when a request joins its station queue."""

    def on_drop(self, request: Request) -> None:
        """Called by the engine when a request is dropped (drop-on-miss)."""

    def allocate_frame(self, frame: int, now: float,
                       capacity: int) -> List[Grant]:
        raise NotImplementedError


class RoundRobinPolicy(SchedulerPolicy):
    """Cycle a station pointer, serving one head-of-queue request per visit."""

    name = "rr"

    def __init__(self, cell, stations, frame_duration_ms):
        super().__init__(cell, stations, frame_duration_ms)
        self._order = list(cell.station_ids)
        self._ptr = 0

    def _shares(self, sid: int) -> int:
        return 1

    def allocate_frame(self, frame: int, now: float,
                       capacity: int) -> List[Grant]:
        grants: List[Grant] = []
        cap = capacity
        # Bits already granted this frame, per request id: queues are only
        # updated by the engine after we return.
        local: Dict[int, int] = {}
        n = len(self._order)
        idle_passes = 0
        while cap > 0 and idle_passes < n:
            sid = self._order[self._ptr]
            queue = self.stations[sid].queue
            served_any = False
            interrupted = False
            shares = self._shares(sid)
            for r in queue:
                if shares == 0 or cap == 0:
                    break
                rem = r.size_bits - r.served_bits - local.get(r.id, 0)
                if rem <= 0 or r.dropped:
                    continue
                g = min(rem, cap)
                grants.append(Grant(frame, sid, r.id, g))
                local[r.id] = local.get(r.id, 0) + g
                cap -= g
                served_any = True
                shares -= 1
                if g < rem:
                    interrupted = True
                    break
            if interrupted:
                # Capacity ran out mid-request: resume this station next frame.
                break
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
                       capacity: int) -> List[Grant]:
        grants: List[Grant] = []
        cap = capacity
        heap = self._heap
        while cap > 0 and heap:
            r = heap[0][3]
            rem = r.size_bits - r.served_bits
            if rem <= 0 or r.dropped:
                heapq.heappop(heap)
                continue
            g = min(rem, cap)
            grants.append(Grant(frame, r.station_id, r.id, g))
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
        """Backlogged stations in descending fairness priority; ties go to
        the lower station id. Priority values are constant within a frame
        (the throughput EWMA only moves at frame end), but the backlog
        filter changes as requests drain."""
        ranked = []
        for sid in self.cell.station_ids:
            if self._head(sid) is not None:
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
                       capacity: int) -> List[Grant]:
        grants: List[Grant] = []
        cap = capacity
        for sid in self._ranked_stations():
            heap = self._heaps[sid]
            while cap > 0:
                r = self._head(sid)
                if r is None:
                    break
                rem = r.size_bits - r.served_bits
                g = min(rem, cap)
                grants.append(Grant(frame, sid, r.id, g))
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
                       capacity: int) -> List[Grant]:
        grants: List[Grant] = []
        cap = capacity
        self._done.clear()
        while cap > 0:
            cur = self._current
            if cur is not None and (cur.dropped
                                    or cur.served_bits >= cur.size_bits):
                cur = self._current = None
            ranked = self._ranked_stations()
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
            grants.append(Grant(frame, cur.station_id, cur.id, g))
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
