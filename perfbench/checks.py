"""Output checks and digests, run outside the timed region.

Every check returns a list of failure messages; an empty list means the run
passed. A run with any failure counts in ``failed_runs``.
"""

from __future__ import annotations

import csv
import io
from typing import Dict, List

from uplinksim.metrics import EVENT_HEADER, count_context_switches

# At most this many messages per check, so a broken run cannot flood stderr.
MAX_MESSAGES = 3


def events_csv_bytes(events) -> bytes:
    """The bytes ``metrics.write_events_csv`` writes for these events, so an
    in-memory log and a written file give the same digest."""
    buf = io.StringIO(newline="")
    w = csv.writer(buf)
    w.writerow(EVENT_HEADER)
    w.writerows(events)
    return buf.getvalue().encode()


def check_log(log, capacity: Dict[int, int], *, in_memory: bool) -> List[str]:
    """Capacity, conservation and context-switch checks on one event log.

    - per (cell, frame), granted bits never exceed the cell capacity;
    - per request, granted bits never exceed its size and reach it exactly
      when a completion is logged; for an in-memory log, the total granted
      equals the total ``served_bits`` of its requests;
    - the engine's context_switch events equal the recount from grants.
    """
    failures: List[str] = []
    per_cell_frame: Dict[tuple, int] = {}
    per_request: Dict[int, int] = {}
    completed = set()
    switches = 0
    for frame, _, kind, cell, _, rid, bits in log.events:
        if kind == "grant":
            key = (cell, frame)
            per_cell_frame[key] = per_cell_frame.get(key, 0) + bits
            per_request[rid] = per_request.get(rid, 0) + bits
        elif kind == "completion":
            completed.add(rid)
        elif kind == "context_switch":
            switches += 1

    over = [(k, b) for k, b in per_cell_frame.items() if b > capacity[k[0]]]
    for (cell, frame), bits in over[:MAX_MESSAGES]:
        failures.append(f"cell {cell} frame {frame}: granted {bits} bits, "
                        f"capacity {capacity[cell]}")

    bad = []
    for rid, bits in per_request.items():
        req = log.requests.get(rid)
        size = req.size_bits if req is not None else 0
        if bits > size or (bits == size) != (rid in completed):
            bad.append(f"request {rid}: granted {bits} of {size} bits, "
                       f"completion logged: {rid in completed}")
    bad.extend(f"request {rid}: completion logged without grants"
               for rid in completed - per_request.keys())
    failures.extend(bad[:MAX_MESSAGES])
    if in_memory:
        granted = sum(per_request.values())
        served = sum(r.served_bits for r in log.requests.values())
        if granted != served:
            failures.append(f"granted {granted} bits but requests record "
                            f"{served} served bits")

    recount = count_context_switches(log)
    if recount != switches:
        failures.append(f"engine logged {switches} context switches, "
                        f"recount from grants gives {recount}")
    return failures


def compare_summaries(in_memory: Dict[str, object],
                      reloaded: Dict[str, object], label: str) -> List[str]:
    """A ``report`` row must reproduce the ``run`` row exactly, apart from
    the identity columns and the per-class delay columns
    (``delay_<stat>_ms_<class>``): a reloaded log has no service classes."""
    failures = []
    for key, value in in_memory.items():
        if (key in ("scenario", "policy", "seed")
                or (key.startswith("delay_") and "_ms_" in key)):
            continue
        if reloaded.get(key) != value:
            failures.append(f"{label}: report gives {key}="
                            f"{reloaded.get(key)!r}, run gave {value!r}")
    return failures[:MAX_MESSAGES]
