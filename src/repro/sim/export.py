"""Exporting simulation results to standard formats.

Downstream analysis (pandas, gnuplot, Chrome's trace viewer) wants flat
files, not Python objects:

* :func:`records_csv` — one row per dispatched chunk with the full
  timeline (the CSV twin of :class:`~repro.core.chunks.DispatchRecord`);
* :func:`result_json` — a self-describing JSON document with platform,
  provenance and records;
* :func:`chrome_trace` — the Chrome/Perfetto ``trace_event`` format
  (open ``chrome://tracing`` and drop the file): one row per worker plus
  one for the master's link, chunks as complete events.
"""

from __future__ import annotations

import dataclasses
import json

from repro.sim.result import SimResult

__all__ = ["records_csv", "result_json", "chrome_trace"]

_CSV_FIELDS = (
    "index",
    "worker",
    "size",
    "send_start",
    "send_end",
    "arrival",
    "comp_start",
    "comp_end",
    "phase",
)


def records_csv(result: SimResult) -> str:
    """One CSV row per dispatched chunk, in dispatch order."""
    lines = [",".join(_CSV_FIELDS)]
    for r in result.records:
        row = [getattr(r, f) for f in _CSV_FIELDS]
        lines.append(
            ",".join(f"{v:.9g}" if isinstance(v, float) else str(v) for v in row)
        )
    return "\n".join(lines) + "\n"


def result_json(result: SimResult, indent: int | None = None) -> str:
    """A self-describing JSON document for one run."""
    doc = {
        "scheduler": result.scheduler_name,
        "total_work": result.total_work,
        "seed": result.seed,
        "makespan": result.makespan,
        "num_chunks": result.num_chunks,
        "utilization": result.utilization(),
        "platform": [dataclasses.asdict(w) for w in result.platform],
        "records": [r._asdict() for r in result.records],
    }
    return json.dumps(doc, indent=indent)


def chrome_trace(result: SimResult) -> str:
    """Chrome ``trace_event`` JSON (load in chrome://tracing or Perfetto).

    Timestamps are microseconds (simulated seconds × 1e6).  The link gets
    tid 0; worker ``i`` gets tid ``i + 1``.  Transfers and computations
    are complete ("X") events named by chunk and phase.
    """
    events = []

    def span(name: str, tid: int, start: float, end: float, **args) -> None:
        events.append(
            {
                "name": name,
                "ph": "X",
                "pid": 1,
                "tid": tid,
                "ts": start * 1e6,
                "dur": max(0.0, (end - start) * 1e6),
                "args": args,
            }
        )

    for r in result.records:
        span(
            f"send #{r.index}",
            0,
            r.send_start,
            r.send_end,
            worker=r.worker,
            size=r.size,
            phase=r.phase,
        )
        span(
            f"compute #{r.index} ({r.phase})" if r.phase else f"compute #{r.index}",
            r.worker + 1,
            r.comp_start,
            r.comp_end,
            size=r.size,
        )
    meta = [
        {
            "name": "thread_name",
            "ph": "M",
            "pid": 1,
            "tid": 0,
            "args": {"name": "master link"},
        }
    ] + [
        {
            "name": "thread_name",
            "ph": "M",
            "pid": 1,
            "tid": w + 1,
            "args": {"name": f"worker {w}"},
        }
        for w in range(result.platform.N)
    ]
    return json.dumps({"traceEvents": meta + events, "displayTimeUnit": "ms"})
