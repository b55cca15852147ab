"""Uplink scheduling policies.

A policy instance is owned by exactly one cell of one run and owns that
cell's request queues. The engine hands it every arrival through its
``on_arrival``; each frame, ``allocate_frame`` returns the grants as
``(request, bits)`` pairs, which the engine applies after the call
returns. Policies never mutate requests, may keep state across
frames, and hold only live requests: a request leaves its queue when all of
its bits are granted, and a request the engine dropped (drop-on-miss) is
discarded when the policy next reaches it.

Once a request is granted in a frame, the policy does not look at it again
in that frame, so no policy needs to know when the engine applies grants. A
full grant removes the request from the policy's queues; a partial grant
uses the last of the capacity and so ends the frame. A whole grant's bits
are the request's own ``left_bits`` object.

The five policies:

* ``rr``      round robin over stations, one head-of-queue request per visit
              (wrr with every weight 1).
* ``wrr``     weighted round robin; a station may serve up to weight(i)
              requests per cycle, weights default to being proportional to
              station capacity.
* ``edf``     earliest deadline first over the whole cell, fully preemptive
              across frames.
* ``ssbpf_edf``  proportional fairness across stations (priority
              capacity / (1 + smoothed throughput), so a station that has
              been served a lot yields to one that has not), earliest
              deadline first within a station.
* ``hedf``    ssbpf_edf plus at most one keep-or-preempt check per frame, at
              the frame start, for the task the last frame left partly served:
              it projects when the would-be next task could finish if that
              task ran to completion first, and preempts only if the
              projection overshoots the next task's deadline. The rest of
              the frame drains like ssbpf_edf; completions hand over
              without a check.

``ssbpf_edf`` and ``hedf`` rank stations by their smoothed throughputs, and
each keeps them for its own cell's stations: ``throughput``, a
``{station id: bits/frame}`` dict that starts at 0.0. At the end of every
``allocate_frame`` such a policy folds the bits it granted per station in
that frame into it, one ``update_historical_throughput`` step per station
(0 bits for a station it did not serve). The engine calls every cell's
``allocate_frame`` exactly once per frame, idle cells included, so idle
stations decay too. ``rr``, ``wrr`` and ``edf`` rank nothing and keep no
throughputs: their ``throughput`` is empty.
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


def _serve(heap: List[_HeapEntry], cap: int, grants: Grants) -> int:
    """Grant from ``heap`` in EDF order until it empties or ``cap`` runs
    out, discarding dropped requests; returns the capacity left. A partial
    grant leaves its request on top."""
    while cap > 0 and heap:
        r = heap[0][3]
        if r.dropped:
            heapq.heappop(heap)
            continue
        rem = r.left_bits
        g = rem if rem <= cap else cap
        grants.append((r, g))
        cap -= g
        if g == rem:
            heapq.heappop(heap)
    return cap


class SchedulerPolicy:
    """Base class wiring a policy to one cell of one run.

    ``throughput`` holds the smoothed throughputs of the cell's stations
    that a ranking policy keeps; a policy that ranks no stations keeps no
    throughputs, so its dict stays empty.
    """

    def __init__(self, cell: Cell, stations: Dict[int, SubscriberStation],
                 ewma_alpha: float, frame_duration_ms: float):
        self.stations = stations
        self.throughput: Dict[int, float] = {}
        self.frame_duration_ms = frame_duration_ms

    def allocate_frame(self, frame: int, now: float,
                       capacity: int) -> Grants:
        raise NotImplementedError


class RoundRobinPolicy(SchedulerPolicy):
    """Cycle a station pointer, serving one head-of-queue request per visit."""

    name = "rr"

    def __init__(self, cell, stations, ewma_alpha, frame_duration_ms):
        super().__init__(cell, stations, ewma_alpha, frame_duration_ms)
        self._order = list(cell.station_ids)
        self._ptr = 0
        self._queues: Dict[int, Deque[Request]] = {
            sid: deque() for sid in self._order}
        # Requests a station may serve per visit.
        self._weights: Dict[int, int] = {sid: 1 for sid in self._order}

    def on_arrival(self, request: Request) -> None:
        self._queues[request.station_id].append(request)

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
            shares = self._weights[sid]
            while queue and shares and cap:
                r = queue[0]
                if r.dropped:
                    queue.popleft()
                    continue
                rem = r.left_bits
                g = rem if rem <= cap else cap
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

    def __init__(self, cell, stations, ewma_alpha, frame_duration_ms):
        super().__init__(cell, stations, ewma_alpha, frame_duration_ms)
        min_c = min(stations[sid].capacity_c for sid in self._order)
        for sid in self._order:
            st = stations[sid]
            if st.wrr_weight is not None:
                self._weights[sid] = st.wrr_weight
            else:
                self._weights[sid] = max(1, round(st.capacity_c / min_c))


class EarliestDeadlineFirstPolicy(SchedulerPolicy):
    """Pool every request of the cell and serve in deadline order.

    Fully preemptive across frames: a new arrival with an earlier deadline
    is served before a previously started request.
    """

    name = "edf"

    def __init__(self, cell, stations, ewma_alpha, frame_duration_ms):
        super().__init__(cell, stations, ewma_alpha, frame_duration_ms)
        self._heap: List[_HeapEntry] = []

    def on_arrival(self, request: Request) -> None:
        heapq.heappush(self._heap, _entry(request))

    def allocate_frame(self, frame: int, now: float,
                       capacity: int) -> Grants:
        grants: Grants = []
        _serve(self._heap, capacity, grants)
        return grants


class SsbpfEdfPolicy(SchedulerPolicy):
    """Visit stations in descending capacity/(1+throughput) priority and
    serve each station's queue in deadline order until capacity runs out.
    One deadline heap per station; dropped requests are discarded lazily
    when they reach a heap top. The EWMA fold at the end of each frame is
    what steers the priorities.
    """

    name = "ssbpf_edf"

    def __init__(self, cell, stations, ewma_alpha, frame_duration_ms):
        super().__init__(cell, stations, ewma_alpha, frame_duration_ms)
        self._heaps: Dict[int, List[_HeapEntry]] = {
            sid: [] for sid in cell.station_ids}
        self._ids = sorted(cell.station_ids)
        self._alpha = ewma_alpha
        self.throughput = {sid: 0.0 for sid in self._ids}
        # Bits granted per station in the frame ``_fold`` ends. One dict for
        # the whole run: a new one per frame raised dense_overload's peak RSS.
        self._served = {sid: 0 for sid in self._ids}

    def on_arrival(self, request: Request) -> None:
        heapq.heappush(self._heaps[request.station_id], _entry(request))

    def _ranked_stations(self) -> List[int]:
        """The stations whose heap top is live, in descending fairness
        priority, ties to the lower id (a stable sort of ascending ids).
        Dropped tops are discarded on the way, so the first ranked station's
        top is the best station's live EDF head. Priorities only move when
        ``_fold`` ends the frame, so one ranking serves a frame as long as
        no unranked station gains a request."""
        heaps = self._heaps
        ranked = []
        for sid in self._ids:
            heap = heaps[sid]
            while heap and heap[0][3].dropped:
                heapq.heappop(heap)
            if heap:
                ranked.append(sid)
        if len(ranked) > 1:
            st, th = self.stations, self.throughput
            ranked.sort(key=lambda sid: -ssbpf_priority(
                st[sid].capacity_c, th[sid]))
        return ranked

    def _drain(self, ranked: List[int], cap: int, grants: Grants) -> None:
        """``_serve`` each ranked station in turn until ``cap`` runs out."""
        heaps = self._heaps
        for sid in ranked:
            cap = _serve(heaps[sid], cap, grants)
            if cap == 0:
                break

    def _fold(self, grants: Grants) -> None:
        """End the frame: one EWMA step per station of the cell over the
        bits ``grants`` gave it, which then restart from 0."""
        th, alpha, served = self.throughput, self._alpha, self._served
        for r, bits in grants:
            served[r.station_id] += bits
        for sid, bits in served.items():
            th[sid] = update_historical_throughput(th[sid], bits, alpha)
            served[sid] = 0

    def allocate_frame(self, frame: int, now: float,
                       capacity: int) -> Grants:
        grants: Grants = []
        self._drain(self._ranked_stations(), capacity, grants)
        self._fold(grants)
        return grants


class HeuristicEdfPolicy(SsbpfEdfPolicy):
    """ssbpf_edf with a sticky current task.

    The request the last frame left partly served is the current task, held
    outside the station heaps. At the frame start, and only there, it is
    weighed against the live EDF head of the best priority station
    (claim_value, hedf_decide); on SWITCH it goes back to its heap. The
    chosen task is granted first, then the frame drains like ssbpf_edf.
    """

    name = "hedf"

    def __init__(self, cell, stations, ewma_alpha, frame_duration_ms):
        super().__init__(cell, stations, ewma_alpha, frame_duration_ms)
        self._current: Optional[Request] = None

    def _service_ms(self, r: Request) -> float:
        """Remaining service time at the owning station's capacity."""
        c = self.stations[r.station_id].capacity_c
        return r.left_bits / c * self.frame_duration_ms

    def allocate_frame(self, frame: int, now: float,
                       capacity: int) -> Grants:
        grants: Grants = []
        cap = capacity
        cur = self._current
        if cur is not None and cur.dropped:
            cur = None
        ranked = self._ranked_stations()
        if cur is not None:
            if ranked:
                cand = self._heaps[ranked[0]][0][3]
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
                    # Pop before the push: cand may share cur's station.
                    heapq.heappop(self._heaps[cand.station_id])
                    heapq.heappush(self._heaps[cur.station_id], _entry(cur))
                    # cur's station may have had no live top when ranked.
                    if cur.station_id not in ranked:
                        ranked = self._ranked_stations()
                    cur = cand
            # The chosen task is out of its heap; grant it first.
            rem = cur.left_bits
            g = rem if rem <= cap else cap
            grants.append((cur, g))
            cap -= g
        self._drain(ranked, cap, grants)
        # A partial last grant becomes the current task and leaves its heap.
        self._current = None
        if grants:
            last, g = grants[-1]
            if g < last.left_bits:
                if last is not cur:
                    heapq.heappop(self._heaps[last.station_id])
                self._current = last
        self._fold(grants)
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
                ewma_alpha: float,
                frame_duration_ms: float) -> SchedulerPolicy:
    try:
        cls = POLICIES[name]
    except KeyError:
        raise ValueError(f"unknown policy {name!r}; "
                         f"expected one of {POLICY_NAMES}") from None
    return cls(cell, stations, ewma_alpha, frame_duration_ms)
