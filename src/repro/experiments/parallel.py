"""Cell scheduling: plan, execute over a process pool, merge bit-identically.

A full regeneration of the paper's figures is embarrassingly parallel:
every simulation cell is a pure function of ``(config, workload, policy,
seed)``.  This module

1. **plans** the exact cell set behind the figure/table harnesses
   (:func:`plan_cells` — eval cells plus the profile / single-core cells
   their outcomes need, built by the context's own cell builders),
2. **schedules** the cells on a :class:`TaskBoard` and executes them
   over ``jobs`` worker processes
   (:func:`run_cells` — with an on-disk :class:`ResultCache` probe, one
   retry per crashed cell, and a broken-pool fallback that finishes the
   board serially instead of hanging), and
3. **merges** the results into an :class:`ExperimentContext`
   (:func:`merge_into` — insertion in canonical cell-key order, never
   completion order).

After the merge, the serial harness code (``run_figure2`` …) runs
unchanged and finds every simulation memoised, so the emitted tables are
*bit-identical* to a serial run by construction: the same code computes
every derived number from the same per-cell results.

ME-family cells consume the profiled ME vector: the board holds them
back until the profile cells they depend on settle, then resolves the
vector and ships it with the cell, so workers never re-profile.  A
profile cell that fails for good does not block its dependents — they
ship unresolved and profile in-process (deterministic, hence still
bit-identical).

Progress: pass a :class:`~repro.telemetry.bus.TelemetryBus` and every
cell completion emits an ``experiment.cell`` instant event (key, status
``hit``/``run``/``retried``/``failed``, seconds); a final
``experiment.cache`` event carries the hit/miss statistics.
"""

from __future__ import annotations

import os
import time
from collections import Counter
from concurrent.futures import (FIRST_COMPLETED, Future,
                                ProcessPoolExecutor, wait)
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field

from repro.experiments.cache import CacheStats, ResultCache
from repro.experiments.cells import ME_FAMILY, Cell, CellKey, execute_cell
from repro.telemetry.bus import TelemetryBus
from repro.workloads.mixes import workload_by_name
from repro.workloads.spec2000 import APPS

__all__ = ["CellFailure", "ParallelReport", "TaskBoard", "TaskState",
           "plan_cells", "run_cells", "merge_into", "default_jobs"]


def default_jobs() -> int:
    """``--jobs 0`` resolution: one worker per available CPU."""
    return os.cpu_count() or 1


@dataclass(frozen=True)
class CellFailure:
    """One cell that failed after its retry."""

    key_str: str
    error: str
    attempts: int


@dataclass
class ParallelReport:
    """Outcome of one :func:`run_cells` invocation."""

    results: dict[CellKey, object] = field(default_factory=dict)
    failures: list[CellFailure] = field(default_factory=list)
    retried: list[str] = field(default_factory=list)
    cache_stats: CacheStats = field(default_factory=CacheStats)
    executed: int = 0
    cache_hits: int = 0
    seconds: float = 0.0
    pool_broken: bool = False

    def summary(self) -> str:
        parts = [
            f"{len(self.results)} cells in {self.seconds:.1f}s",
            f"{self.executed} simulated",
            f"{self.cache_hits} cache hits",
        ]
        if self.retried:
            parts.append(f"{len(self.retried)} retried")
        if self.failures:
            parts.append(f"{len(self.failures)} FAILED")
        if self.pool_broken:
            parts.append("pool broke (finished serially)")
        return ", ".join(parts)

    def failure_report(self) -> str:
        lines = ["parallel runner failures:"]
        for f in self.failures:
            lines.append(f"  {f.key_str}  ({f.attempts} attempts): {f.error}")
        return "\n".join(lines)


# -- the task board ----------------------------------------------------------------
#
# Lifecycle of one cell::
#
#     pending --lease()--> leased --mark_done()--> done
#        ^                   |
#        |                   +-- release() (the attempt raised, or the
#        |                   |   pool broke under it)
#        +-- attempts < max_attempts --+
#                                      |
#                   attempts >= max_attempts --> failed
#
# * Leases: a cell is leased while it is submitted to the pool; at most
#   ``jobs`` cells are leased at once.
# * Retry budget: ``attempts`` counts leases.  A failed attempt requeues
#   the cell until it has been leased ``max_attempts`` times; then it is
#   ``failed`` for good.
# * Dependencies: an ME-family cell without a resolved ME vector is not
#   ready while a profile cell it depends on is pending or leased.  A
#   dependency absent from the board or permanently failed does not block:
#   the cell ships with ``me_values=None`` and profiles in-process.


def _order(key: CellKey) -> tuple[bool, str]:
    """Scheduling order: single-core cells (profile, single) first, then
    multi-core cells, each in canonical key order — so ``--jobs 1`` runs a
    mix's cells back to back while the trace replay cache holds its
    streams."""
    return key.kind not in ("profile", "single"), key.key_str()


@dataclass
class TaskState:
    """One cell's scheduling state on the board."""

    cell: Cell
    digest: str
    status: str = "pending"  # pending | leased | done | failed
    attempts: int = 0  # number of leases handed out so far
    error: str = ""


class TaskBoard:
    """Dedup, readiness, lease and retry bookkeeping for a cell set.

    Pure: no processes and no clocks of its own, so every rule is unit
    testable without a pool.
    """

    def __init__(self, max_attempts: int = 3) -> None:
        if max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        self.max_attempts = max_attempts
        self.tasks: dict[str, TaskState] = {}
        #: payloads of finished cells (profile payloads feed the ME
        #: resolution of dependent cells)
        self.done: dict[str, object] = {}

    def add(self, cell: Cell) -> TaskState:
        """Register a cell (idempotent — one task per cell key),
        returning its state."""
        digest = cell.key.digest()
        state = self.tasks.get(digest)
        if state is None:
            state = TaskState(cell=cell, digest=digest)
            self.tasks[digest] = state
        return state

    def _blocked(self, state: TaskState) -> bool:
        cell = state.cell
        if cell.me_values is not None or cell.key.policy not in ME_FAMILY:
            return False
        for dep_key in cell.me_deps:
            dep = self.tasks.get(dep_key.digest())
            if dep is not None and dep.status in ("pending", "leased"):
                return True
        return False

    def ready(self) -> list[TaskState]:
        """Pending tasks whose dependencies are settled: single-core cells
        first, then multi-core cells, each in canonical key order."""
        out = [s for s in self.tasks.values()
               if s.status == "pending" and not self._blocked(s)]
        out.sort(key=lambda s: _order(s.cell.key))
        return out

    def resolve(self, state: TaskState) -> Cell:
        """The cell to ship: ME vector filled in from finished profiles,
        or the unresolved cell when a dependency is missing or failed."""
        cell = state.cell
        if cell.me_values is not None or cell.key.policy not in ME_FAMILY:
            return cell
        values: list[float] = []
        for dep_key in cell.me_deps:
            payload = self.done.get(dep_key.digest())
            if payload is None:
                return cell
            values.append(payload.me)
        return cell.with_me_values(tuple(values))

    def lease(self, state: TaskState) -> None:
        state.status = "leased"
        state.attempts += 1

    def mark_done(self, digest: str, payload: object) -> None:
        state = self.tasks[digest]
        state.status = "done"
        state.error = ""
        self.done[digest] = payload

    def release(self, state: TaskState, error: str) -> str:
        """One attempt failed; requeue or exhaust.  Returns new status."""
        state.error = error
        state.status = ("failed" if state.attempts >= self.max_attempts
                        else "pending")
        return state.status

    def counts(self) -> dict[str, int]:
        c = Counter(s.status for s in self.tasks.values())
        return {k: c.get(k, 0) for k in ("pending", "leased", "done",
                                         "failed")}


# -- planning --------------------------------------------------------------------


def plan_cells(
    ctx,
    *,
    table2: bool = False,
    figure2: tuple[tuple[int, ...], tuple[str, ...]] | None = None,
    figure3: tuple[str, ...] | None = None,
    figure4: bool = False,
    figure5: bool = False,
    ablations: bool = False,
    arena: tuple[tuple[str, ...], tuple[str, ...] | None] | None = None,
    cloud: tuple[tuple[str, ...], tuple[str, ...] | None] | None = None,
) -> list[Cell]:
    """Enumerate every cell the requested sections will consume.

    Mirrors the figure harnesses exactly (each module exports its own
    ``*_cells`` enumerator, and the context's cell builders are the ones
    its harness methods use); deduplicates across sections the same way
    the context memo would.  ``arena`` is ``(mix_names, policies)`` with
    ``policies=None`` meaning the full registry — matching
    :func:`repro.experiments.arena.run_arena`; ``cloud`` has the same
    shape over cloud mix-set names — matching
    :func:`repro.experiments.cloud.run_cloud_table`.
    """
    from repro.experiments.ablations import ablation_cell_specs
    from repro.experiments.arena import arena_cells
    from repro.experiments.figure2 import figure2_cells
    from repro.experiments.figure3 import figure3_cells
    from repro.experiments.figure4 import figure4_cells
    from repro.experiments.figure5 import figure5_cells

    cells: dict[CellKey, Cell] = {}

    def add(cell: Cell, seed: int, baseline_codes) -> None:
        """The cell, its ME profiles and the single-core baselines its
        section's speedups divide by."""
        cells.setdefault(cell.key, cell)
        for dep in cell.me_deps:
            cells.setdefault(dep, ctx.profile_cell(dep.workload, dep.seed))
        for code in sorted(set(baseline_codes)):
            single = ctx.single_cell(code, seed)
            cells.setdefault(single.key, single)

    def add_pairs(pairs) -> None:
        for mix_name, policy in pairs:
            codes = workload_by_name(mix_name).codes
            for seed in ctx.seeds:
                add(ctx.eval_cell(mix_name, policy, seed), seed, codes)

    if table2:
        for app in APPS:
            add(ctx.profile_cell(app.code, ctx.seeds[0]), ctx.seeds[0], ())
    if figure2 is not None:
        core_counts, groups = figure2
        add_pairs(figure2_cells(core_counts=core_counts, groups=groups))
    if figure3 is not None:
        add_pairs(figure3_cells(groups=figure3))
    if figure4:
        add_pairs(figure4_cells())
    if figure5:
        add_pairs(figure5_cells())
    if arena is not None:
        mix_names, policies = arena
        add_pairs(arena_cells(mix_names, policies))
    if cloud is not None:
        from repro.experiments.cloud import cloud_cells
        from repro.workloads.cloud import cloud_mix_by_name

        mix_names, policies = cloud
        for mix_name, policy in cloud_cells(mix_names, policies):
            codes = [a.code for a in cloud_mix_by_name(mix_name).batch_apps()]
            for seed in ctx.seeds:
                add(ctx.cloud_cell(mix_name, policy, seed), seed, codes)
    if ablations:
        for spec in ablation_cell_specs(ctx):
            cell = ctx.custom_cell(
                spec.workload, spec.policy, spec.seed,
                policy_args=spec.policy_args, config=spec.config,
                lookahead=spec.lookahead,
            )
            add(cell, spec.seed, workload_by_name(spec.workload).codes)
    return sorted(cells.values(), key=lambda c: c.key.key_str())


# -- execution -------------------------------------------------------------------


def _timed_execute(cell: Cell, attempt: int):
    t0 = time.perf_counter()
    payload = execute_cell(cell, attempt)
    return payload, time.perf_counter() - t0


class _InlinePool:
    """Executor stand-in that runs each submission at once, in-parent."""

    def submit(self, fn, *args) -> Future:
        fut: Future = Future()
        try:
            fut.set_result(fn(*args))
        except Exception as exc:
            fut.set_exception(exc)
        return fut

    def shutdown(self, wait: bool = True, cancel_futures: bool = False) -> None:
        pass


class _Progress:
    """Counts completions and forwards them to the telemetry bus."""

    def __init__(self, bus: TelemetryBus | None, total: int) -> None:
        self.bus = bus
        self.total = total
        self.done = 0

    def emit(self, key: CellKey, status: str, seconds: float) -> None:
        self.done += 1
        if self.bus is not None:
            self.bus.emit(
                "experiment.cell", "instant", cycle=self.done,
                track="experiments", key=key.key_str(), status=status,
                seconds=round(seconds, 4), done=self.done, total=self.total,
            )


def run_cells(
    cells,
    *,
    jobs: int = 1,
    cache: ResultCache | None = None,
    bus: TelemetryBus | None = None,
) -> ParallelReport:
    """Execute every cell, keeping at most ``jobs`` worker processes busy.

    Every cell goes on a :class:`TaskBoard` with one retry
    (``max_attempts=2``) and is probed once against ``cache``; the board's
    ready cells are then leased in its order.  Deterministic by
    construction: the returned ``results`` mapping is ordered by
    canonical cell key regardless of completion order, cache hits return
    bit-exact payloads, and ME vectors are resolved from the profile
    cells so workers reproduce the serial numbers exactly.
    """
    t0 = time.perf_counter()
    unique: dict[CellKey, Cell] = {}
    for cell in cells:
        unique.setdefault(cell.key, cell)

    report = ParallelReport()
    progress = _Progress(bus, total=len(unique))

    board = TaskBoard(max_attempts=2)
    for cell in sorted(unique.values(), key=lambda c: _order(c.key)):
        state = board.add(cell)
        hit = cache.get(cell.key) if cache is not None else None
        if hit is not None:
            board.mark_done(state.digest, hit)
            report.cache_hits += 1
            progress.emit(cell.key, "hit", 0.0)

    pending = board.counts()["pending"]
    slots = min(jobs, pending) if jobs > 1 and pending > 1 else 1
    pool = ProcessPoolExecutor(max_workers=slots) if slots > 1 else _InlinePool()
    in_flight: dict[Future, TaskState] = {}

    def fail(state: TaskState, error: str) -> None:
        if board.release(state, error) == "failed":
            progress.emit(state.cell.key, "failed", 0.0)

    try:
        while True:
            try:
                for state in board.ready()[: slots - len(in_flight)]:
                    fut = pool.submit(_timed_execute, board.resolve(state),
                                      state.attempts)
                    board.lease(state)
                    in_flight[fut] = state
                if not in_flight:
                    break
                done, _ = wait(in_flight, return_when=FIRST_COMPLETED)
                for fut in done:
                    exc = fut.exception()
                    if isinstance(exc, BrokenProcessPool):
                        raise exc
                    state = in_flight.pop(fut)
                    if exc is not None:
                        fail(state, repr(exc))
                        continue
                    payload, dt = fut.result()
                    board.mark_done(state.digest, payload)
                    report.executed += 1
                    if cache is not None:
                        cache.put(state.cell.key, payload)
                    progress.emit(state.cell.key,
                                  "retried" if state.attempts > 1 else "run",
                                  dt)
            except BrokenProcessPool:
                # A worker died hard: release its in-flight leases (that
                # was their attempt) and finish the board in-parent — a
                # clear report, never a hung pool.
                pool.shutdown(wait=False, cancel_futures=True)
                for state in in_flight.values():
                    fail(state, "worker process died (pool broken)")
                in_flight.clear()
                pool, slots = _InlinePool(), 1
                report.pool_broken = True
        pool.shutdown(wait=True)
    except (KeyboardInterrupt, SystemExit):
        # Ctrl-C: release the pool without waiting for in-flight cells
        # (the workers share our process group and die on the same
        # SIGINT) and let the caller flush its partial report — never a
        # hung pool, never a traceback dump from inside the executor.
        pool.shutdown(wait=False, cancel_futures=True)
        raise

    states = sorted(board.tasks.values(), key=lambda s: s.cell.key.key_str())
    report.results = {s.cell.key: board.done[s.digest]
                      for s in states if s.status == "done"}
    report.retried = [s.cell.key.key_str() for s in states
                      if s.status == "done" and s.attempts > 1]
    report.failures = [CellFailure(s.cell.key.key_str(), s.error, s.attempts)
                       for s in states if s.status == "failed"]
    report.seconds = time.perf_counter() - t0
    if cache is not None:
        report.cache_stats = cache.stats
    if bus is not None:
        bus.emit("experiment.cache", "instant", cycle=progress.done,
                 track="experiments", **report.cache_stats.as_dict())
    return report


# -- merging ---------------------------------------------------------------------


def merge_into(ctx, report: ParallelReport) -> int:
    """Install a report's results into the context's cell memo.

    Iterates in canonical key order (already how ``report.results`` is
    ordered) — merge order is a function of the cell set, never of
    completion timing.  The memo is keyed on the full :class:`CellKey`,
    so a context only ever looks up a result computed under exactly its
    own determinants; entries it never asks for are inert.  Returns the
    number of entries offered.
    """
    for key, payload in report.results.items():
        ctx._results.setdefault(key, payload)
    return len(report.results)
