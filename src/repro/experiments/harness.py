"""Shared experiment machinery.

:class:`ExperimentContext` owns the knobs every experiment shares — the
instruction budget, warmup, seeds and system configuration — and one
memo of simulation results keyed by :class:`~repro.experiments.cells.CellKey`,
so experiments which share cells (e.g. Figure 2's speedups and Figure 4's
latencies over the same runs, or every mix that profiles application
``b``) never simulate twice.

Every harness method builds its cell with the context's cell builders
(:meth:`ExperimentContext.eval_cell` …) and asks :meth:`ExperimentContext.result`
for it.  The memo is a **read-through layer** over an optional on-disk
:class:`~repro.experiments.cache.ResultCache`: keys include every run
determinant — seed, budgets, warmup, lookahead, config digest, policy
constructor arguments — so a hit is always the result the context would
compute itself.  The parallel runner (:mod:`repro.experiments.parallel`)
plans with the same builders and pre-warms the memo, so the serial
harness code emits bit-identical tables at full speed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Sequence

from repro.config import SystemConfig
from repro.experiments.cells import (
    ME_FAMILY,
    Cell,
    CellKey,
    cloud_cell_key,
    custom_cell_key,
    eval_cell_key,
    execute_cell,
    profile_cell_key,
    single_cell_key,
)
from repro.metrics.speedup import smt_speedup, unfairness
from repro.sim.runner import DEFAULT_WARMUP, RunResult
from repro.workloads.mixes import Mix, workload_by_name
from repro.workloads.spec2000 import AppProfile

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.experiments.cache import ResultCache

__all__ = ["ExperimentContext", "PolicyOutcome", "mean"]


def mean(xs: Sequence[float]) -> float:
    """Arithmetic mean (raises on empty input — a silent 0 would read as
    a real experimental result)."""
    if not xs:
        raise ValueError("mean of empty sequence")
    return sum(xs) / len(xs)


@dataclass(frozen=True)
class PolicyOutcome:
    """One (workload, policy) cell, averaged over the context's seeds."""

    workload: str
    policy: str
    smt_speedup: float
    unfairness: float
    avg_read_latency: float
    per_core_latency: tuple[float, ...]
    per_core_ipc: tuple[float, ...]

    def gain_over(self, baseline: "PolicyOutcome") -> float:
        """Relative SMT-speedup gain vs a baseline outcome (paper's %)."""
        return self.smt_speedup / baseline.smt_speedup - 1.0


@dataclass
class ExperimentContext:
    """Budget/seed/config bundle with run caching.

    Parameters
    ----------
    inst_budget:
        Instructions measured per core (the 100 M-instruction SimPoint
        analogue, scaled down; DESIGN.md §2).
    warmup_insts:
        Warmup before measurement (covers the trace prologue).
    seeds:
        Every cell is averaged over these seeds; more seeds = less noise.
    profile_budget:
        Budget for ME-profiling runs (the paper uses a *shorter* slice for
        profiling than for evaluation: 10 M vs 100 M).
    """

    inst_budget: int = 30_000
    warmup_insts: int = DEFAULT_WARMUP
    seeds: tuple[int, ...] = (1, 2)
    profile_budget: int = 15_000
    config: SystemConfig = field(default_factory=SystemConfig)
    lookahead: int = 256
    cache: "ResultCache | None" = None

    def __post_init__(self) -> None:
        if not self.seeds:
            raise ValueError("need at least one seed")
        self._results: dict[CellKey, object] = {}

    # -- cells ---------------------------------------------------------------------

    def profile_cell(self, code: str, seed: int) -> Cell:
        """ME-profiling run of one application (Table 2, ME vectors)."""
        return Cell(key=profile_cell_key(code, seed, self.profile_budget,
                                         self.config),
                    config=self.config)

    def single_cell(self, code: str, seed: int) -> Cell:
        """Single-core evaluation run (the SMT-speedup denominator)."""
        return Cell(key=single_cell_key(code, seed, self.profile_budget,
                                        self.config),
                    config=self.config)

    def _me_deps(self, codes, seed: int, policy: str) -> tuple[CellKey, ...]:
        """Profile cells behind an ME-family policy's ME vector (always
        on the context's baseline machine)."""
        if policy.upper() not in ME_FAMILY:
            return ()
        return tuple(self.profile_cell(code, seed).key for code in codes)

    def eval_cell(self, workload: str | Mix, policy: str, seed: int) -> Cell:
        """One Table 3 mix under one registered policy."""
        mix = workload_by_name(workload) if isinstance(workload, str) else workload
        key = eval_cell_key(mix.name, policy, seed, self.inst_budget,
                            self.warmup_insts, self.lookahead, self.config,
                            self.profile_budget)
        return Cell(key=key, config=self.config,
                    me_deps=self._me_deps(mix.codes, seed, policy))

    def custom_cell(
        self,
        workload: str | Mix,
        policy: str,
        seed: int,
        *,
        policy_args: tuple = (),
        config: SystemConfig | None = None,
        lookahead: int | None = None,
    ) -> Cell:
        """An ablation run: constructor arguments and/or a non-default
        config or lookahead."""
        mix = workload_by_name(workload) if isinstance(workload, str) else workload
        cfg = config if config is not None else self.config
        la = lookahead if lookahead is not None else self.lookahead
        key = custom_cell_key(
            mix.name, policy, policy_args, seed, self.inst_budget,
            self.warmup_insts, la, cfg, self.profile_budget,
            me_config=self.config if cfg is not self.config else None,
        )
        return Cell(key=key, config=cfg,
                    me_deps=self._me_deps(mix.codes, seed, policy),
                    policy_ctor_args=tuple(policy_args))

    def cloud_cell(self, workload, policy: str, seed: int) -> Cell:
        """One cloud co-run; ME ranks come from the batch cores only
        (service cores carry pinned ranks)."""
        from repro.workloads.cloud import cloud_mix_by_name

        mix = cloud_mix_by_name(workload) if isinstance(workload, str) else workload
        key = cloud_cell_key(mix.name, policy, seed, self.inst_budget,
                             self.warmup_insts, self.lookahead, self.config,
                             self.profile_budget)
        codes = [app.code for app in mix.batch_apps()]
        return Cell(key=key, config=self.config,
                    me_deps=self._me_deps(codes, seed, policy))

    def result(self, cell: Cell):
        """The cell's payload: memo, then disk cache, then simulation.

        An ME-family cell's vector is resolved from its profile cells
        through this same method; a simulated result is written back to
        the cache.
        """
        key = cell.key
        payload = self._results.get(key)
        if payload is not None:
            return payload
        if self.cache is not None:
            payload = self.cache.get(key)
        if payload is None:
            if cell.me_deps and cell.me_values is None:
                cell = cell.with_me_values(tuple(
                    self.result(Cell(key=dep, config=self.config)).me
                    for dep in cell.me_deps
                ))
            payload = execute_cell(cell)
            if self.cache is not None:
                self.cache.put(key, payload)
        self._results[key] = payload
        return payload

    # -- harness views ---------------------------------------------------------------

    def me_values(self, apps: Mix | Sequence[AppProfile],
                  seed: int) -> tuple[float, ...]:
        """Per-core ME vector of a mix (or of a list of applications)."""
        if isinstance(apps, Mix):
            apps = apps.apps()
        return tuple(self.result(self.profile_cell(app.code, seed)).me
                     for app in apps)

    def single_ipcs(self, apps: Mix | Sequence[AppProfile],
                    seed: int) -> tuple[float, ...]:
        """Per-core single-core IPCs of a mix (or of a list of
        applications) — the SMT-speedup denominators."""
        if isinstance(apps, Mix):
            apps = apps.apps()
        return tuple(self.result(self.single_cell(app.code, seed)).ipc
                     for app in apps)

    def run(self, workload: str | Mix, policy: str, seed: int) -> RunResult:
        """One evaluation run (memoised; read-through to the disk cache)."""
        return self.result(self.eval_cell(workload, policy, seed))

    def run_custom(
        self,
        workload: str | Mix,
        policy: str,
        seed: int,
        *,
        policy_args: tuple = (),
        config: SystemConfig | None = None,
        lookahead: int | None = None,
    ) -> RunResult:
        """An ablation run (memoised and disk-cached like :meth:`run`;
        ME-family policies profile on the *context's* baseline machine,
        matching the paper's offline methodology)."""
        return self.result(self.custom_cell(
            workload, policy, seed, policy_args=policy_args, config=config,
            lookahead=lookahead,
        ))

    def cloud_run(self, workload, policy: str, seed: int):
        """One cloud co-run (memoised; read-through to the disk cache).

        ``workload`` is a cloud mix name or :class:`CloudMix`; returns a
        :class:`~repro.experiments.cloud.CloudResult`.
        """
        return self.result(self.cloud_cell(workload, policy, seed))

    def outcome(self, workload: str | Mix, policy: str) -> PolicyOutcome:
        """Seed-averaged metrics for one (workload, policy) cell."""
        mix = workload_by_name(workload) if isinstance(workload, str) else workload
        speedups: list[float] = []
        unfairs: list[float] = []
        lats: list[float] = []
        core_lats = [0.0] * mix.num_cores
        core_ipcs = [0.0] * mix.num_cores
        for seed in self.seeds:
            r = self.run(mix, policy, seed)
            single = self.single_ipcs(mix, seed)
            speedups.append(smt_speedup(r.ipcs(), single))
            unfairs.append(unfairness(r.ipcs(), single))
            lats.append(r.avg_read_latency())
            for i, c in enumerate(r.per_core):
                core_lats[i] += c.avg_read_latency / len(self.seeds)
                core_ipcs[i] += c.ipc / len(self.seeds)
        return PolicyOutcome(
            workload=mix.name,
            policy=policy.upper(),
            smt_speedup=mean(speedups),
            unfairness=mean(unfairs),
            avg_read_latency=mean(lats),
            per_core_latency=tuple(core_lats),
            per_core_ipc=tuple(core_ipcs),
        )
