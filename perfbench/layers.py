"""Per-layer accounting for the traced benchmark run.

Two instruments, both driven from the benchmark's own code:

* :class:`Spans` records one span per call the benchmark makes into a
  layer (plan the cells, build the traces, construct the system, run one
  simulation, ...): name, start, end and the span that caused it.  Spans
  stay in memory and are written out once, when the run ends.
* :func:`layer_profile` turns a ``cProfile`` capture of one operation into
  self time and call counts per ``repro.<layer>`` package.  Time spent in
  code outside the package (builtins, numpy, the standard library, the
  benchmark itself) is charged to the nearest ``repro`` caller, split over
  callers in proportion to the time each call edge accounts for.
"""

from __future__ import annotations

import json
import os
import time
from contextlib import contextmanager
from pathlib import Path

#: the simulator's layers, named after the ``repro.*`` packages
LAYERS = ("workloads", "cpu", "cache", "controller", "core", "dram", "sim",
          "experiments")

#: repro code outside the eight layers (config, metrics, util, telemetry)
OTHER = "other"
#: time with no repro frame on the stack: the benchmark's own driver code
BENCH = "bench"


class Spans:
    """In-memory span log; :meth:`write` dumps it as one JSON document."""

    def __init__(self) -> None:
        self.records: list[dict] = []
        self._stack: list[int] = []
        self._t0 = time.perf_counter()

    @contextmanager
    def span(self, name: str):
        idx = len(self.records)
        parent = self._stack[-1] if self._stack else None
        rec = {"id": idx, "name": name, "parent": parent,
               "start_us": (time.perf_counter() - self._t0) * 1e6,
               "end_us": None}
        self.records.append(rec)
        self._stack.append(idx)
        try:
            yield rec
        finally:
            self._stack.pop()
            rec["end_us"] = (time.perf_counter() - self._t0) * 1e6

    def write(self, path: Path, extra: dict) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        doc = dict(extra, spans=self.records)
        path.write_text(json.dumps(doc, indent=1) + "\n")


def _layer_of_file(filename: str, pkg_prefix: str) -> str | None:
    """Layer of a source file, or ``None`` for code outside ``repro``."""
    if not filename.startswith(pkg_prefix):
        return None
    head = filename[len(pkg_prefix):].split(os.sep, 1)[0]
    return head if head in LAYERS else OTHER


def layer_profile(stats: dict, pkg_dir: Path) -> dict[str, dict[str, float]]:
    """Self seconds and call counts per layer from ``pstats.Stats.stats``.

    Returns ``{layer: {"self_s": ..., "calls": ...}}`` for every name in
    :data:`LAYERS` plus ``other`` and ``bench``; the ``self_s`` values sum
    to the total profiled time.
    """
    prefix = str(pkg_dir.resolve()) + os.sep
    memo: dict[tuple, dict[str, float]] = {}

    def shares(func: tuple, visiting: frozenset) -> dict[str, float]:
        """Fractions of ``func``'s own time owed to each layer."""
        hit = memo.get(func)
        if hit is not None:
            return hit
        layer = _layer_of_file(func[0], prefix)
        if layer is not None:
            out = {layer: 1.0}
        else:
            callers = stats[func][4] if func in stats else {}
            weights = {c: edge[2] for c, edge in callers.items()
                       if c not in visiting}
            total = sum(weights.values())
            if total <= 0:
                weights = {c: edge[1] for c, edge in callers.items()
                           if c not in visiting}
                total = sum(weights.values())
            if total <= 0:
                out = {BENCH: 1.0}
            else:
                out = {}
                inner = visiting | {func}
                for caller, w in weights.items():
                    for name, frac in shares(caller, inner).items():
                        out[name] = out.get(name, 0.0) + frac * w / total
        # Memoised even when a recursive cycle was cut short: recursion
        # among non-repro functions is rare and its split stays proportional.
        memo[func] = out
        return out

    result = {name: {"self_s": 0.0, "calls": 0}
              for name in LAYERS + (OTHER, BENCH)}
    for func, (_cc, nc, tt, _ct, _callers) in stats.items():
        for name, frac in shares(func, frozenset()).items():
            result[name]["self_s"] += tt * frac
        layer = _layer_of_file(func[0], prefix)
        if layer is not None:
            result[layer]["calls"] += nc
    return result
