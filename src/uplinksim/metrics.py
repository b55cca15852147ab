"""Run metrics and CSV export.

Everything here is a pure function of an EventLog, so any number recomputed
from the exported per-event CSV matches the in-memory value (per-class delay
breakdowns excepted: the event schema does not carry service classes, so a
reloaded log has none, and its summary reads 0 in every per-class column).

CSV formats
-----------
Per-event file, one row per event::

    frame,time_ms,event,cell,station,request,bits

Every line, the header included, ends in CRLF. Each row is ``EVENT_ROW``
applied to the event tuple: every field is written with ``%s``, so ints are
decimal and floats are ``repr`` (``str`` and ``repr`` agree on floats), and
nothing is quoted. These are the bytes ``csv.writer`` writes for the same
rows as long as no field needs quoting, and none does: the engine's event
names are ``EVENT_TYPES``, and every other field is a number.
``load_events_csv`` refuses any other event name, so a reloaded log holds
only names that need no quoting either.

Per-run summary file, one row per (scenario, policy, seed). Fixed columns
first, then a delay block (mean/p50/p95/max) per service class in declaration
order, then per-station throughput and longest-starvation columns in station
id order. All floats are written with repr precision so a reload reproduces
the in-memory record exactly.
"""

from __future__ import annotations

import csv
import math
import os
from dataclasses import asdict, dataclass
from itertools import chain
from typing import Dict, Iterable, List, Sequence, Tuple

from .engine import EVENT_TYPES, EventLog, Events, frame_close
from .model import DEFAULT_FRAME_MS, ConfigError, ServiceClass

CLASS_ORDER = [c.value for c in ServiceClass]
EVENT_HEADER = ["frame", "time_ms", "event", "cell", "station", "request",
                "bits"]
EVENT_ROW = "%s,%s,%s,%s,%s,%s,%s\r\n"


@dataclass(frozen=True)
class DelayStats:
    """End-to-end delay aggregate; zeros when nothing completed."""

    mean: float = 0.0
    p50: float = 0.0
    p95: float = 0.0
    max: float = 0.0


@dataclass
class MetricsRecord:
    """Per-run aggregates of the quantities the policies are compared on."""

    throughput_bps: float
    throughput_bps_by_station: Dict[int, float]
    delay_ms: DelayStats
    delay_ms_by_class: Dict[str, DelayStats]
    deadline_miss_ratio: float
    max_starvation_window_ms: Dict[int, float]
    context_switch_count: int
    offered_load_bps: float


def _percentile(sorted_vals: Sequence[float], q: float) -> float:
    """Nearest-rank percentile over an ascending sequence."""
    idx = max(0, math.ceil(q * len(sorted_vals)) - 1)
    return sorted_vals[idx]


def delay_stats(values: Iterable[float]) -> DelayStats:
    vals = sorted(values)
    if not vals:
        return DelayStats()
    return DelayStats(
        mean=sum(vals) / len(vals),
        p50=_percentile(vals, 0.50),
        p95=_percentile(vals, 0.95),
        max=vals[-1],
    )


def compute_starvation_windows(log: EventLog) -> Dict[int, float]:
    """Per station, the longest backlogged interval without a single grant.

    Frame-granular: a frame counts toward a window when the station holds
    unserved bits after that frame's arrivals and ends the frame without a
    single granted bit. Grants and, under ``drop_on_miss``, dropped
    remainders leave the backlog at the end of their frame. Events at
    frames past ``total_frames`` are ignored.

    One pass over the frame-ordered events with O(1) state per station: a
    station's open frame is settled when its next event opens a later one,
    and the frames in between, where it logs nothing, repeat its backlog.
    """
    n = log.total_frames
    drop = log.drop_on_miss
    # Per station: [open frame, backlog after its arrivals, bits it removes,
    # granted in it, current window, longest window], windows in frames.
    state = {sid: [0, 0, 0, False, 0, 0] for sid in log.station_ids}
    # One pseudo-event per station at frame n settles its last frames.
    closing = ((n, 0.0, "", 0, sid, 0, 0) for sid in log.station_ids)
    for frame, _, kind, _, sid, _, bits in chain(log.events, closing):
        if kind == "completion" or kind == "context_switch":
            continue
        s = state[sid]
        if frame != s[0]:
            opened, backlog, removed, granted, current, best = s
            if opened < n:
                if backlog > 0 and not granted:
                    current += 1
                    if current > best:
                        best = current
                else:
                    current = 0
                backlog -= removed
                silent = (frame if frame < n else n) - opened - 1
                if silent > 0:
                    if backlog > 0:
                        current += silent
                        if current > best:
                            best = current
                    else:
                        current = 0
            s[:] = (frame, backlog, 0, False, current, best)
        if kind == "arrival":
            s[1] += bits
        elif kind == "grant":
            s[2] += bits
            s[3] = True
        elif kind == "deadline_miss" and drop and bits > 0:
            s[2] += bits

    delta = log.frame_duration_ms
    return {sid: s[5] * delta for sid, s in state.items()}


def count_context_switches(log: EventLog) -> int:
    """Recount preemptive transitions from the arrival and grant rows alone.

    A transition counts when, within one cell, the granted request changes
    while the previously granted request was still incomplete after its
    grant (its size is its arrival row's bits). Completions therefore never
    count: finishing a request forces a transition no policy could avoid.
    The engine logs context_switch events by this rule as it applies
    grants; the recount is an independent path so the two can be checked
    against each other.
    """
    left: Dict[int, int] = {}  # request -> bits not yet granted
    prev: Dict[int, Tuple[int, bool]] = {}  # cell -> (request, was incomplete)
    count = 0
    for _, _, kind, cell, _, rid, bits in log.events:
        if kind == "arrival":
            left[rid] = bits
        elif kind == "grant":
            left[rid] -= bits
            last = prev.get(cell)
            if last is not None and last[0] != rid and last[1]:
                count += 1
            prev[cell] = (rid, left[rid] > 0)
    return count


def compute_metrics(log: EventLog) -> MetricsRecord:
    """Aggregate one run. Throughput counts completed bits only; delay is
    departure minus arrival over completed requests, so requests still
    incomplete at the end show up in the miss ratio, not in the delay. A
    delay is filed under its request's service class if it has one."""
    duration_s = log.duration_s
    offered_bits = 0
    total_requests = 0
    completed_bits_by_station: Dict[int, int] = {
        sid: 0 for sid in log.station_ids}
    delays: List[float] = []
    delays_by_class: Dict[ServiceClass, List[float]] = {}
    misses = 0
    switches = 0

    requests = log.requests
    for _, t, kind, _, sid, rid, bits in log.events:
        if kind == "arrival":
            offered_bits += bits
            total_requests += 1
        elif kind == "completion":
            completed_bits_by_station[sid] += bits
            info = requests[rid]
            delay = t - info.arrival_time
            delays.append(delay)
            cls = info.service_class
            if cls is not None:
                delays_by_class.setdefault(cls, []).append(delay)
        elif kind == "deadline_miss":
            misses += 1
        elif kind == "context_switch":
            switches += 1

    return MetricsRecord(
        throughput_bps=sum(completed_bits_by_station.values()) / duration_s,
        throughput_bps_by_station={
            sid: bits / duration_s
            for sid, bits in completed_bits_by_station.items()},
        delay_ms=delay_stats(delays),
        delay_ms_by_class=dict(sorted(
            (cls.value, delay_stats(vals))
            for cls, vals in delays_by_class.items())),
        deadline_miss_ratio=(misses / total_requests) if total_requests else 0.0,
        max_starvation_window_ms=compute_starvation_windows(log),
        context_switch_count=switches,
        offered_load_bps=offered_bits / duration_s,
    )


# ---------------------------------------------------------------------------
# CSV export / reload


def _guard(path: str, force: bool) -> None:
    if not force and os.path.exists(path):
        raise FileExistsError(
            f"{path} exists; pass force to overwrite")


def write_events_csv(log: EventLog, path: str, *, force: bool = False) -> str:
    """Write the per-event file in the row format of the module docstring."""
    _guard(path, force)
    with open(path, "w", newline="") as fh:
        fh.write(",".join(EVENT_HEADER) + "\r\n")
        fh.writelines(map(EVENT_ROW.__mod__, log.events))
    return path


def _delay_columns(stats: DelayStats, suffix: str = "") -> Dict[str, float]:
    return {f"delay_{stat}_ms{suffix}": value
            for stat, value in asdict(stats).items()}


def summary_row(scenario: str, policy: str, seed: int, rec: MetricsRecord,
                station_ids: Sequence[int]) -> Dict[str, object]:
    """One summary CSV row as ``{column: value}``, in column order."""
    row: Dict[str, object] = {
        "scenario": scenario, "policy": policy, "seed": seed,
        "offered_load_bps": rec.offered_load_bps,
        "throughput_bps": rec.throughput_bps,
        **_delay_columns(rec.delay_ms),
        "deadline_miss_ratio": rec.deadline_miss_ratio,
        "context_switch_count": rec.context_switch_count}
    for cls in CLASS_ORDER:
        row.update(_delay_columns(
            rec.delay_ms_by_class.get(cls, DelayStats()), f"_{cls}"))
    for sid in station_ids:
        row[f"throughput_bps_station{sid}"] = (
            rec.throughput_bps_by_station.get(sid, 0.0))
    for sid in station_ids:
        row[f"max_starvation_ms_station{sid}"] = (
            rec.max_starvation_window_ms.get(sid, 0.0))
    return row


def write_summary_csv(rows: List[Dict[str, object]], path: str, *,
                      force: bool = False) -> str:
    """Write summary rows under the first row's columns."""
    _guard(path, force)
    with open(path, "w", newline="") as fh:
        w = csv.DictWriter(fh, fieldnames=list(rows[0]))
        w.writeheader()
        w.writerows(rows)
    return path


def parse_summary_csv(path: str) -> List[Dict[str, object]]:
    """Reload a summary file; numeric fields come back as int/float."""
    out: List[Dict[str, object]] = []
    with open(path, newline="") as fh:
        for raw in csv.DictReader(fh):
            row: Dict[str, object] = {}
            for key, val in raw.items():
                if key in ("scenario", "policy"):
                    row[key] = val
                elif key in ("seed", "context_switch_count"):
                    row[key] = int(val)
                else:
                    row[key] = float(val)
            out.append(row)
    return out


@dataclass(slots=True)
class ReqInfo:
    """Minimal request view reconstructed from an arrival row."""

    arrival_time: float
    size_bits: int
    service_class = None  # the arrival row records none


class _Shared(dict):
    """Parses each distinct text once, so equal fields share one object."""

    def __init__(self, parse) -> None:
        super().__init__()
        self.parse = parse

    def __missing__(self, text: str):
        value = self[text] = self.parse(text)
        return value


def load_events_csv(path: str, *, total_frames: int,
                    frame_duration_ms: float = DEFAULT_FRAME_MS) -> EventLog:
    """Rebuild a log from a per-event CSV for re-summarising.

    The file records neither the run's frame duration and horizon, which
    the caller passes, nor its ``station_ids`` and ``drop_on_miss``, which
    the caller sets on the log before ``compute_metrics`` (``report`` takes
    all four from the run's manifest). Every non-arrival row is checked
    against the engine's stamp ``engine.frame_close(frame, delta)`` for
    ``delta = frame_duration_ms``. A mismatch, a malformed file (a NaN or
    infinite time included), an event name outside ``EVENT_TYPES``, a row
    whose frame is lower than the row before it, a run of no frames, or a
    ``total_frames`` that ends at or before the last event's frame raises
    ConfigError. So does the first row that contradicts an earlier row or
    its frame: an arrival outside its frame by the engine's rule
    ``int(t // delta) == frame``, a second arrival row for one request, or
    a non-arrival row before its request's arrival row. That row is named
    once the whole file has parsed, so a stamp mismatch, which a wrong
    ``delta`` makes too, is reported first. Service classes are not part of
    the event schema, so a ``ReqInfo``'s ``service_class`` is None, and
    ``compute_metrics`` gives a reloaded log no per-class delay stats.

    Rows are stored flat in one ``engine.Events``, as the engine's log is,
    with ``writer(frame)`` called once per frame, and share their values as
    it does: one int per frame, one stamp per frame, the engine's event
    names and one int per distinct integer field, each kind from its own
    cache.
    """
    delta = frame_duration_ms
    if not 0 < delta < math.inf:
        raise ConfigError([f"{path}: frame duration must be > 0 and finite, "
                           f"got {delta!r} ms"])
    events = Events()
    writer = events.writer
    requests: Dict[int, ReqInfo] = {}
    frames = _Shared(int)
    ints = _Shared(int)
    kinds = {k: k for k in EVENT_TYPES}
    frame, stamp = -1, None
    bad = None  # the first row that contradicts an earlier row or its frame
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != EVENT_HEADER:
            raise ConfigError([f"{path}: unexpected header {header!r}, "
                               f"expected {EVENT_HEADER!r}"])
        try:
            for row in reader:
                f, t, kind = frames[row[0]], float(row[1]), kinds.get(row[2])
                cell, sid, rid, bits = (ints[row[3]], ints[row[4]],
                                        ints[row[5]], ints[row[6]])
                if kind is None:
                    raise ConfigError([
                        f"{path}:{reader.line_num}: unknown event "
                        f"{row[2]!r}, expected one of {list(EVENT_TYPES)}"])
                if f < 0:
                    raise ValueError(f"negative frame {f}")
                if f != frame:
                    if f < frame:
                        raise ConfigError([
                            f"{path}:{reader.line_num}: frame {f} after "
                            f"frame {frame}; rows must be in frame order"])
                    frame, stamp = f, frame_close(f, delta)
                    ev = writer(f)
                if kind == "arrival":
                    if int(t // delta) != f and bad is None:
                        bad = (f"{path}:{reader.line_num}: arrival at {t!r} "
                               f"ms lies outside frame {f}")
                    elif rid in requests and bad is None:
                        bad = (f"{path}:{reader.line_num}: second arrival "
                               f"row for request {rid}")
                    requests[rid] = ReqInfo(t, bits)
                else:
                    if t != stamp:
                        raise ConfigError([
                            f"{path}: {kind} of frame {f} stamped {t!r} ms "
                            f"implies a frame duration of {t / (f + 1)!r} "
                            f"ms, not {delta!r} ms"])
                    t = stamp
                    if rid not in requests and bad is None:
                        bad = (f"{path}:{reader.line_num}: {kind} of request "
                               f"{rid} has no earlier arrival row")
                ev((t, kind, cell, sid, rid, bits))
        except (ValueError, IndexError, OverflowError) as exc:
            raise ConfigError(
                [f"{path}:{reader.line_num}: malformed row: {exc}"]) from exc
    if bad is not None:
        raise ConfigError([bad])
    if total_frames <= 0:
        raise ConfigError([f"{path}: duration must be > 0 frames, got "
                           f"{total_frames}"])
    if total_frames <= frame:
        raise ConfigError([f"{path}: an event at frame {frame} lies past the "
                           f"horizon of {total_frames} frames"])
    return EventLog(
        frame_duration_ms=delta,
        total_frames=total_frames,
        events=events,
        requests=requests,
    )


def format_table(headers: Sequence[str], rows: Sequence[Sequence]) -> str:
    """Aligned text table for terminal summaries."""
    def fmt(v) -> str:
        if isinstance(v, float):
            return f"{v:.3f}"
        return str(v)

    cells = [[fmt(v) for v in row] for row in rows]
    widths = [max(len(h), *(len(r[i]) for r in cells)) if cells else len(h)
              for i, h in enumerate(headers)]
    line = " | ".join(h.ljust(w) for h, w in zip(headers, widths))
    sep = "-+-".join("-" * w for w in widths)
    body = [" | ".join(c.rjust(w) for c, w in zip(row, widths))
            for row in cells]
    return "\n".join([line, sep] + body)
