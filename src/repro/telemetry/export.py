"""Trace export: JSONL, CSV, and Chrome trace-event (Perfetto) formats.

Three consumers, three formats:

* :func:`write_jsonl` — one self-describing JSON object per line (header,
  then samples, then events, then a registry footer); the format scripts
  and notebooks should parse (:func:`read_jsonl` round-trips it).
* :func:`write_csv` — the sampled time series flattened to columns for
  spreadsheet / pandas consumption.
* :func:`write_chrome_trace` — the Trace Event Format JSON that
  ``chrome://tracing`` and https://ui.perfetto.dev load directly: sampled
  series become counter tracks, bus spans become duration slices, bus
  instants become instant events, each on its own named thread.

Timestamps: the simulator runs in CPU cycles; trace-event ``ts`` is in
microseconds, so cycles are divided by ``cycles_per_us`` (default: the
paper's 3.2 GHz clock, 3200 cycles/µs).  Wall-clock in Perfetto therefore
reads as *simulated* time.
"""

from __future__ import annotations

import csv
import json
import os
import subprocess
from datetime import datetime, timezone
from typing import TYPE_CHECKING, Any

from repro.metrics.serialize import to_jsonable
from repro.util.units import CPU_FREQ_HZ

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.telemetry.hub import Telemetry
    from repro.telemetry.spans import RequestSpan

__all__ = [
    "FORMAT",
    "run_metadata",
    "write_jsonl",
    "read_jsonl",
    "write_csv",
    "write_chrome_trace",
    "write_spans_jsonl",
]

#: format marker on the JSONL header line
FORMAT = "repro-telemetry-v1"

#: default cycle -> microsecond conversion (3.2 GHz core clock)
DEFAULT_CYCLES_PER_US = CPU_FREQ_HZ / 1e6


# -- run metadata ----------------------------------------------------------------


def _git_rev() -> str | None:
    """Current git revision of the working tree, or None outside a repo."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            capture_output=True, text=True, timeout=5,
            cwd=os.path.dirname(os.path.abspath(__file__)),
        )
    except (OSError, subprocess.TimeoutExpired):  # pragma: no cover - env
        return None
    rev = out.stdout.strip()
    return rev if out.returncode == 0 and rev else None


def run_metadata(telemetry: "Telemetry") -> dict:
    """Self-describing header every exporter embeds.

    Carries the format marker, export wall-clock time, the git revision
    the artifact was produced from, and the run description the runner
    stashed in ``telemetry.meta`` (policy, mix/app, seed, budget and the
    config hash).
    """
    return {
        "format": FORMAT,
        "created": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        "git_rev": _git_rev(),
        "sample_every": telemetry.sample_every,
        "meta": to_jsonable(telemetry.meta),
    }


# -- JSONL ----------------------------------------------------------------------


def write_jsonl(telemetry: "Telemetry", path: str | os.PathLike) -> int:
    """Write the whole hub as line-delimited JSON; returns lines written."""
    n = 0
    with open(path, "w") as f:
        header = {"type": "header"}
        header.update(run_metadata(telemetry))
        f.write(json.dumps(header) + "\n")
        n += 1
        for s in telemetry.samples:
            rec = {"type": "sample"}
            rec.update(to_jsonable(s))
            f.write(json.dumps(rec) + "\n")
            n += 1
        for e in telemetry.bus.events:
            rec = {"type": "event"}
            rec.update(to_jsonable(e))
            f.write(json.dumps(rec) + "\n")
            n += 1
        for rec in _span_records(telemetry):
            f.write(json.dumps(rec) + "\n")
            n += 1
        f.write(
            json.dumps({"type": "registry", "instruments": telemetry.registry.snapshot()})
            + "\n"
        )
        n += 1
    return n


def _span_records(telemetry: "Telemetry") -> list[dict]:
    """Completed request spans as JSONL records, with their attribution."""
    collector = telemetry.spans
    if collector is None or not collector.completed:
        return []
    from repro.telemetry.attribution import decompose, drain_windows

    t_cl = collector.timing.t_cl
    end = max(s.done for s in collector.completed)
    windows = drain_windows(telemetry, end_cycle=end)
    out = []
    for s in collector.completed:
        rec = {
            "type": "span",
            "core": s.core_id,
            "addr": s.addr,
            "kind": s.kind,
            "first_attempt": s.first_attempt,
            "arrival": s.arrival,
            "pick": s.pick,
            "bank_start": s.bank_start,
            "cas": s.cas,
            "data_start": s.data_start,
            "data_end": s.data_end,
            "done": s.done,
            "latency": s.latency,
            "channel": s.channel,
            "bank": s.bank,
            "row": s.row,
            "row_hit": s.row_hit,
            "conflict": s.conflict,
            "merged_waiters": s.merged_waiters,
            "components": decompose(
                s, t_cl, collector.overhead, windows.get(s.track, ())
            ),
        }
        out.append(rec)
    return out


def read_jsonl(path: str | os.PathLike) -> dict[str, Any]:
    """Parse a :func:`write_jsonl` file.

    Returns ``{"header": ..., "samples": [...], "events": [...],
    "spans": [...], "registry": {...}}`` with samples/events/spans as
    plain dicts.  Raises ``ValueError`` for files this library did not
    write.
    """
    out: dict[str, Any] = {
        "header": None, "samples": [], "events": [], "spans": [], "registry": {},
    }
    with open(path) as f:
        for lineno, line in enumerate(f):
            line = line.strip()
            if not line:
                continue
            rec = json.loads(line)
            kind = rec.pop("type", None)
            if lineno == 0:
                if kind != "header" or rec.get("format") != FORMAT:
                    raise ValueError(f"{path}: not a {FORMAT} file")
                out["header"] = rec
            elif kind == "sample":
                out["samples"].append(rec)
            elif kind == "event":
                out["events"].append(rec)
            elif kind == "span":
                out["spans"].append(rec)
            elif kind == "registry":
                out["registry"] = rec.get("instruments", {})
            else:
                raise ValueError(f"{path}:{lineno + 1}: unknown record type {kind!r}")
    if out["header"] is None:
        raise ValueError(f"{path}: empty telemetry file")
    return out


# -- CSV ------------------------------------------------------------------------


def write_csv(telemetry: "Telemetry", path: str | os.PathLike) -> int:
    """Flatten the sampled series to CSV; returns data rows written.

    The file opens with ``#``-prefixed comment lines carrying the run
    metadata (:func:`run_metadata`); pandas reads it with
    ``pd.read_csv(path, comment='#')``.
    """
    samples = telemetry.samples
    with open(path, "w", newline="") as f:
        meta = run_metadata(telemetry)
        run = meta.pop("meta", {}).get("run", {})
        for key, value in {**meta, **run}.items():
            f.write(f"# {key}: {value}\n")
        w = csv.writer(f)
        if not samples:
            w.writerow(["cycle", "span"])
            return 0
        nch = len(samples[0].channels)
        ncore = len(samples[0].cores)
        header = ["cycle", "span", "read_queue", "write_queue", "drain_mode",
                  "events", "clamped_events"]
        for i in range(nch):
            header += [
                f"ch{i}_bytes", f"ch{i}_bw_gbps", f"ch{i}_bus_util",
                f"ch{i}_row_hit_rate", f"ch{i}_reads", f"ch{i}_writes",
            ]
        for i in range(ncore):
            header += [
                f"core{i}_committed", f"core{i}_ipc", f"core{i}_pending_reads",
                f"core{i}_mshr", f"core{i}_rob", f"core{i}_stall_frac",
            ]
        w.writerow(header)
        for s in samples:
            row: list = [s.cycle, s.span, s.read_queue, s.write_queue,
                         int(s.drain_mode), s.events, s.clamped_events]
            for c in s.channels:
                row += [c.bytes, f"{c.bw_gbps:.6g}", f"{c.bus_util:.6g}",
                        f"{c.row_hit_rate:.6g}", c.reads, c.writes]
            for c in s.cores:
                row += [c.committed, f"{c.ipc:.6g}", c.pending_reads,
                        c.mshr_occupancy, c.rob_occupancy,
                        f"{c.rob_stall_frac:.6g}"]
            w.writerow(row)
    return len(samples)


# -- Chrome trace-event format --------------------------------------------------

#: fixed thread ids: controller first, then channels, then cores
_TID_CONTROLLER = 0


def _track_tids(telemetry: "Telemetry") -> dict[str, int]:
    """Stable track-name -> tid mapping covering samples and bus events."""
    tids: dict[str, int] = {"controller": _TID_CONTROLLER}
    if telemetry.samples:
        first = telemetry.samples[0]
        for c in first.channels:
            tids.setdefault(f"ch{c.index}", len(tids))
        for c in first.cores:
            tids.setdefault(f"core{c.index}", len(tids))
    for e in telemetry.bus.events:
        tids.setdefault(e.track, len(tids))
    return tids


def write_chrome_trace(
    telemetry: "Telemetry",
    path: str | os.PathLike,
    cycles_per_us: float = DEFAULT_CYCLES_PER_US,
) -> int:
    """Write a Chrome Trace Event Format file; returns events written.

    Open the result in ``chrome://tracing`` or https://ui.perfetto.dev.
    """
    if cycles_per_us <= 0:
        raise ValueError("cycles_per_us must be positive")
    pid = 1
    tids = _track_tids(telemetry)

    def ts(cycle: int) -> float:
        return cycle / cycles_per_us

    events: list[dict] = [
        {"ph": "M", "pid": pid, "name": "process_name",
         "args": {"name": "repro-sim"}},
    ]
    for track, tid in sorted(tids.items(), key=lambda kv: kv[1]):
        events.append(
            {"ph": "M", "pid": pid, "tid": tid, "name": "thread_name",
             "args": {"name": track}}
        )

    for s in telemetry.samples:
        t = ts(s.cycle)
        events.append(
            {"ph": "C", "pid": pid, "tid": _TID_CONTROLLER, "ts": t,
             "name": "queue depth",
             "args": {"reads": s.read_queue, "writes": s.write_queue}}
        )
        for c in s.channels:
            tid = tids[f"ch{c.index}"]
            events.append(
                {"ph": "C", "pid": pid, "tid": tid, "ts": t,
                 "name": f"ch{c.index} bandwidth (GB/s)",
                 "args": {"GB/s": round(c.bw_gbps, 4)}}
            )
            events.append(
                {"ph": "C", "pid": pid, "tid": tid, "ts": t,
                 "name": f"ch{c.index} bus util",
                 "args": {"util": round(c.bus_util, 4),
                          "row_hit": round(c.row_hit_rate, 4)}}
            )
        for c in s.cores:
            tid = tids[f"core{c.index}"]
            events.append(
                {"ph": "C", "pid": pid, "tid": tid, "ts": t,
                 "name": f"core{c.index} IPC",
                 "args": {"ipc": round(c.ipc, 4)}}
            )
            events.append(
                {"ph": "C", "pid": pid, "tid": tid, "ts": t,
                 "name": f"core{c.index} memory",
                 "args": {"pending_reads": c.pending_reads,
                          "mshr": c.mshr_occupancy,
                          "stall_frac": round(c.rob_stall_frac, 4)}}
            )

    ph_map = {"begin": "B", "end": "E", "instant": "i"}
    for e in telemetry.bus.events:
        rec = {
            "ph": ph_map[e.kind],
            "pid": pid,
            "tid": tids[e.track],
            "ts": ts(e.cycle),
            "name": e.name,
            "cat": "sim",
        }
        if e.kind == "instant":
            rec["s"] = "t"  # thread-scoped instant
        if e.args:
            rec["args"] = to_jsonable(e.args)
        events.append(rec)

    events += _span_slices(telemetry, pid, tids, ts)

    meta = run_metadata(telemetry)
    meta["cycles_per_us"] = cycles_per_us
    doc = {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": meta,
    }
    with open(path, "w") as f:
        json.dump(doc, f)
        f.write("\n")
    return len(events)


#: inner phase boundaries of a span slice, in timeline order
_SPAN_PHASES = (
    ("stall", "first_attempt", "arrival"),
    ("queue", "arrival", "pick"),
    ("bank", "pick", "bank_start"),
    ("row", "bank_start", "cas"),
    ("xfer", "cas", "data_end"),
    ("return", "data_end", "done"),
)


def _span_slices(telemetry: "Telemetry", pid: int, tids: dict[str, int], ts) -> list[dict]:
    """Duration slices for traced request spans, one track per core.

    Concurrent spans of one core spill onto extra lanes (``core0 req``,
    ``core0 req.2``, ...): each span takes the first lane whose previous
    occupant ended at or before the span begins, so slices on a lane
    never overlap and Perfetto renders each as its own row.  Inside the
    outer request slice, the non-empty lifecycle phases nest as
    sequential sub-slices.
    """
    collector = telemetry.spans
    if collector is None or not collector.completed:
        return []
    out: list[dict] = []
    for core_id, spans in sorted(collector.per_core().items()):
        spans = sorted(spans, key=lambda s: (s.first_attempt, s.done))
        lanes: list[int] = []  # per lane: end cycle of its last span
        lane_tids: list[int] = []
        for s in spans:
            for lane, busy_until in enumerate(lanes):
                if busy_until <= s.first_attempt:
                    break
            else:
                lane = len(lanes)
                lanes.append(0)
                name = f"core{core_id} req" + (f".{lane + 1}" if lane else "")
                lane_tids.append(len(tids))
                tids[name] = lane_tids[lane]
                out.append(
                    {"ph": "M", "pid": pid, "tid": lane_tids[lane],
                     "name": "thread_name", "args": {"name": name}}
                )
            lanes[lane] = s.done
            tid = lane_tids[lane]
            label = f"{s.kind} ch{s.channel} bank{s.bank}"
            out.append(
                {"ph": "B", "pid": pid, "tid": tid, "ts": ts(s.first_attempt),
                 "name": label, "cat": "span",
                 "args": {"addr": hex(s.addr), "latency_cycles": s.latency,
                          "row": s.row, "row_hit": s.row_hit,
                          "conflict": s.conflict,
                          "merged_waiters": s.merged_waiters}}
            )
            for phase, b_attr, e_attr in _SPAN_PHASES:
                b, e = getattr(s, b_attr), getattr(s, e_attr)
                if e <= b:
                    continue  # empty phase: skip the zero-width slice
                out.append(
                    {"ph": "B", "pid": pid, "tid": tid, "ts": ts(b),
                     "name": phase, "cat": "span"}
                )
                out.append(
                    {"ph": "E", "pid": pid, "tid": tid, "ts": ts(e),
                     "cat": "span"}
                )
            out.append(
                {"ph": "E", "pid": pid, "tid": tid, "ts": ts(s.done),
                 "cat": "span"}
            )
    return out


def write_spans_jsonl(telemetry: "Telemetry", path: str | os.PathLike) -> int:
    """Write only the traced spans (plus header) as JSONL; returns lines.

    The slim artifact behind ``--spans-out``: one record per traced
    request with every lifecycle stamp and its attribution components,
    without the sampled time series.
    """
    n = 0
    with open(path, "w") as f:
        header = {"type": "header"}
        header.update(run_metadata(telemetry))
        if telemetry.spans is not None:
            header["span_sample_every"] = telemetry.spans.sample_every
            header["spans_offered"] = telemetry.spans.offered
            header["spans_dropped"] = telemetry.spans.dropped
        f.write(json.dumps(header) + "\n")
        n += 1
        for rec in _span_records(telemetry):
            f.write(json.dumps(rec) + "\n")
            n += 1
    return n
