#!/usr/bin/env python3
"""The repository benchmark: simulator workloads with checked outputs.

Run one workload from the repository root::

    python3 perfbench/run.py --workload mem8-writeback --seed 3 --seconds 20 --trace 0

``--trace 0`` times the workload and prints the end-to-end metrics, with
host time counted in runs of a fixed reference loop (``reference.py``) so
that the host's drifting speed cancels out; ``--trace 1`` also runs one
operation under a profiler and prints the per-layer metrics instead.  The last line of standard output is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.  The exit code is non-zero when any output check or
cross-layer identity fails.  README.md beside this file describes the
workloads and every metric.

The benchmark drives the simulator only through its public entry points
and measures it from outside: it wraps ``MultiCoreSystem.run`` in this
process to read each finished simulation's counters.  A run writes only
under ``.perfbench_out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import cProfile
import gc
import hashlib
import json
import pstats
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

from layers import LAYERS, Spans, layer_profile
from reference import RefClock

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
PKG_DIR = ROOT / "src" / "repro"
#: scratch space inside the checkout (result caches, span dumps); gitignored
OUT_DIR = ROOT / ".perfbench_out"
EXPECTED_PATH = BENCH_DIR / "expected.json"

#: the seed whose per-simulation fingerprints are stored in expected.json
DEFAULT_SEED = 1
#: fresh processes timed for ``setup_s``; the median is reported
SETUP_PROBES = 9

#: Figure 2 panel budget: instructions per core (warm-up 10k on top), as
#: ``repro figure 2 --budget 6000`` runs it
SWEEP_BUDGET = 6000
#: 8-core workload: instructions per core after a 10k warm-up
MIX_BUDGET = 20_000
MIX_WARMUP = 10_000
#: 8-core workload: one operation simulates this many input seeds, so a
#: run's figures average over inputs (one 8-core run's end cycle is the
#: slowest core's, which swings by about 10% from seed to seed)
MIX_SEEDS_PER_OP = 3
#: the shrunk shared L2 that turns 8MEM-1's working set into write-backs
WRITEBACK_L2_BYTES = 512 * 1024


class _SetupReached(BaseException):
    """Raised at the first simulation's start by ``--setup-probe``.

    A ``BaseException`` so the cell runner's retry-on-``Exception`` lets it
    through."""


# -- simulator access ----------------------------------------------------------


def import_simulator() -> None:
    """Put this checkout's ``src`` first on the path and import ``repro``."""
    if not (PKG_DIR / "__init__.py").is_file():
        sys.exit(f"perfbench: simulator sources not found at {PKG_DIR}")
    sys.path.insert(0, str(PKG_DIR.parent))
    import repro

    if Path(repro.__file__).resolve().parent != PKG_DIR.resolve():
        sys.exit(f"perfbench: imported repro from {repro.__file__}, "
                 f"expected {PKG_DIR}")


def sim_record(system) -> dict:
    """Fingerprint and work counters of one finished ``MultiCoreSystem``."""
    stats = system.controller.stats
    dram = system.dram
    hier = system.hierarchy
    cores = system.cores
    windows = [system.window(i) for i in range(len(cores))]
    reads = sum(w.read_count for w in windows)
    latency = sum(w.read_latency_sum for w in windows)
    codes = "".join(core.trace.profile.code for core in cores)
    return {
        "fingerprint": {
            "sim": f"{codes}/{system.policy.name}",
            "end_cycle": system.end_cycle,
            "ipc": [core.ipc().hex() for core in cores],
            "avg_read_latency": (latency / reads if reads else 0.0).hex(),
            "events": system.engine.events_processed,
        },
        "window_reads": reads,
        "window_read_latency": latency,
        "prefetches": sum(stats.prefetch_count),
        "t_burst": system.config.dram_timing.t_burst,
        "counters": {
            "cpu.committed": sum(core.committed for core in cores),
            "cpu.structural_stalls": sum(c.stats.structural_stalls for c in cores),
            "cpu.mem_requests": sum(c.stats.mem_requests for c in cores),
            "cache.l2_hits": hier.l2.stats.hits,
            "cache.l2_misses": hier.l2.stats.misses,
            "cache.writebacks": hier.writebacks,
            "cache.mshr_merges": sum(m.merges for m in hier.mshrs),
            "controller.reads": sum(stats.read_count),
            "controller.writes": sum(stats.write_count),
            "controller.drain_entries": stats.drain_entries,
            "controller.read_row_hits": stats.read_row_hits,
            "dram.transactions": dram.total_transactions,
            "dram.writes": sum(ch.writes for ch in dram.channels),
            "dram.data_cycles": sum(ch.data_cycles for ch in dram.channels),
            "dram.row_hits": dram.total_row_hits,
            "sim.events": system.engine.events_processed,
            "sim.clamped_events": system.engine.clamped_events,
        },
    }


def identity_breaks(rec: dict) -> list[str]:
    """Cross-layer conservation identities that do not hold for one run."""
    c = rec["counters"]
    breaks = []
    issued = c["controller.reads"] + c["controller.writes"] + rec["prefetches"]
    if c["dram.transactions"] != issued:
        breaks.append(f"dram.transactions {c['dram.transactions']} != "
                      f"controller reads+writes+prefetches {issued}")
    if c["dram.writes"] != c["controller.writes"]:
        breaks.append(f"dram.writes {c['dram.writes']} != "
                      f"controller.writes {c['controller.writes']}")
    if c["dram.data_cycles"] != rec["t_burst"] * c["dram.transactions"]:
        breaks.append(f"dram.data_cycles {c['dram.data_cycles']} != "
                      f"{rec['t_burst']} x dram.transactions")
    if c["sim.clamped_events"] != 0:
        breaks.append(f"sim.clamped_events {c['sim.clamped_events']} != 0")
    return breaks


class Recorder:
    """Collects every simulation a workload runs, including the ones the
    cell runner starts internally, by wrapping ``MultiCoreSystem.run``."""

    def __init__(self) -> None:
        from repro import MultiCoreSystem

        self.sims: list[dict] = []
        #: id of each trace generator's RNG stream -> (stream, ops generated
        #: so far); holding the small RNG object keeps its id unique without
        #: keeping the generator's recorded ops alive
        self.streams: dict[int, tuple] = {}
        self.spans = Spans()
        self.probe = False
        original = MultiCoreSystem.run
        recorder = self

        def run(system, *args, **kwargs):
            if recorder.probe:
                raise _SetupReached
            with recorder.spans.span("sim.run") as span:
                original(system, *args, **kwargs)
            record = sim_record(system)
            span["counters"] = record["counters"]
            recorder.sims.append(record)
            for core in system.cores:
                rng = core.trace.rng
                recorder.streams[id(rng)] = (rng, core.trace.ops_generated)

        MultiCoreSystem.run = run

    def take(self) -> tuple[list[dict], int]:
        """This operation's simulations and trace ops generated; resets."""
        sims = self.sims
        generated = sum(count for _rng, count in self.streams.values())
        self.sims, self.streams = [], {}
        return sims, generated


# -- workloads -------------------------------------------------------------------
#
# Each workload function is one operation of a closed loop with one caller.
# It returns extra outputs to check (the rendered figure table) and the
# experiments-layer counters; the simulations themselves reach the Recorder.


def run_mix8(mix_name: str, config, seed: int, spans: Spans) -> None:
    """One 8-core mix under HF-RF, once per input seed derived from ``seed``
    (``seed * MIX_SEEDS_PER_OP + k``), each from an empty trace cache."""
    from repro import MultiCoreSystem, make_policy, workload_by_name
    from repro.workloads.synthetic import clear_trace_cache, make_trace

    mix = workload_by_name(mix_name)
    for k in range(MIX_SEEDS_PER_OP):
        input_seed = seed * MIX_SEEDS_PER_OP + k
        clear_trace_cache()
        with spans.span("workloads.make_trace"):
            traces = [make_trace(app, input_seed, "eval", core_id=i)
                      for i, app in enumerate(mix.apps())]
        with spans.span("sim.MultiCoreSystem"):
            system = MultiCoreSystem(config, make_policy("HF-RF"), traces,
                                     MIX_BUDGET, warmup_insts=MIX_WARMUP,
                                     seed=input_seed)
        system.run()


def mem8_writeback(seed: int, spans: Spans) -> dict:
    """8MEM-1 with the shared L2 shrunk to :data:`WRITEBACK_L2_BYTES`."""
    from repro import SystemConfig

    base = SystemConfig(num_cores=8)
    l2 = replace(base.caches.l2, size_bytes=WRITEBACK_L2_BYTES)
    run_mix8("8MEM-1", replace(base, caches=replace(base.caches, l2=l2)),
             seed, spans)
    return {}


def mix8_ilp(seed: int, spans: Spans) -> dict:
    """8MIX-6 (mostly ILP applications) with the default configuration."""
    from repro import SystemConfig

    run_mix8("8MIX-6", SystemConfig(num_cores=8), seed, spans)
    return {}


def fig2_mem4_sweep(seed: int, spans: Spans) -> dict:
    """``repro figure 2 --cores 4 --groups MEM --budget 6000 --seeds <seed>
    --jobs 1 --resume --cache-dir <fresh temp dir>``, through the library."""
    from repro import SystemConfig
    from repro.experiments import (
        ExperimentContext,
        ResultCache,
        merge_into,
        plan_cells,
        run_cells,
        run_figure2,
    )
    from repro.experiments.figure2 import format_figure2

    OUT_DIR.mkdir(exist_ok=True)
    cache_dir = Path(tempfile.mkdtemp(prefix="result-cache-", dir=OUT_DIR))
    try:
        ctx = ExperimentContext(
            inst_budget=SWEEP_BUDGET, seeds=(seed,),
            profile_budget=max(SWEEP_BUDGET // 2, 5_000),
            config=SystemConfig(),
            cache=ResultCache(root=cache_dir, mode="rw"),
        )
        with spans.span("experiments.plan_cells"):
            cells = plan_cells(ctx, figure2=((4,), ("MEM",)))
        with spans.span("experiments.run_cells"):
            report = run_cells(cells, jobs=1, cache=ctx.cache)
        with spans.span("experiments.merge_into"):
            merge_into(ctx, report)
        with spans.span("experiments.run_figure2"):
            rows = run_figure2(ctx, core_counts=(4,), groups=("MEM",))
            table = format_figure2(rows)
    finally:
        shutil.rmtree(cache_dir, ignore_errors=True)
    return {
        "table": table,
        "experiments.cells": len(cells),
        "experiments.cache_writes": report.cache_stats.writes,
        "raised": len(report.failures) + len(report.retried),
    }


#: BENCHMARK.json and README.md carry the same names
WORKLOADS = {
    "fig2-mem4-sweep": fig2_mem4_sweep,
    "mem8-writeback": mem8_writeback,
    "mix8-ilp": mix8_ilp,
}


# -- one operation ----------------------------------------------------------------


@dataclass
class Op:
    wall_s: float
    #: host time in reference runs (see reference.py); None when traced
    wall_ref: float | None
    sims: list[dict]
    ops_generated: int
    extra: dict = field(default_factory=dict)
    error: str | None = None

    @property
    def fingerprints(self) -> list[dict]:
        return [s["fingerprint"] for s in self.sims]

    def total(self, counter: str) -> int:
        return sum(s["counters"][counter] for s in self.sims)

    @property
    def read_latency(self) -> float:
        reads = sum(s["window_reads"] for s in self.sims)
        return sum(s["window_read_latency"] for s in self.sims) / max(reads, 1)


def run_op(name: str, seed: int, recorder: Recorder,
           profiler: cProfile.Profile | None = None) -> Op:
    """One operation.  Untraced, it is timed by a :class:`RefClock`; under
    the profiler no reference runs, so none is charged to a layer."""
    from repro.workloads.synthetic import clear_trace_cache

    clear_trace_cache()
    gc.collect()
    error, extra = None, {}
    clock = RefClock() if profiler is None else None
    t0 = time.perf_counter()
    if clock is not None:
        clock.start()
    else:
        profiler.enable()
    try:
        extra = WORKLOADS[name](seed, recorder.spans)
    except Exception as exc:  # counted as a failed operation, then reported
        error = f"{type(exc).__name__}: {exc}"
    finally:
        if clock is not None:
            clock.stop()
        else:
            profiler.disable()
    wall = time.perf_counter() - t0 if clock is None else clock.wall_s
    sims, generated = recorder.take()
    return Op(wall, None if clock is None else clock.ref_units, sims,
              generated, extra, error)


# -- checks -----------------------------------------------------------------------


def table_digest(op: Op) -> str | None:
    table = op.extra.get("table")
    return None if table is None else hashlib.sha256(table.encode()).hexdigest()


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)

    def fail(self, message: str, count: int = 1) -> None:
        self.failed += count
        self.problems.append(message)


def check_ops(name: str, seed: int, ops: list[Op]) -> Tally:
    """Count attempted and failed operations over every op of the run.

    An operation is one simulation (one cell in the sweep) plus, for the
    sweep, the rendered figure table.  On the default seed every op must
    match the stored fingerprints; on any seed every op must match the
    first op of the run, and every simulation must keep the identities."""
    tally = Tally()
    ref_sims = ref_table = None
    if seed == DEFAULT_SEED:
        stored = json.loads(EXPECTED_PATH.read_text()).get(name)
        if stored is None:
            tally.attempted += 1
            tally.fail(f"no stored fingerprints for {name} in {EXPECTED_PATH.name}")
        else:
            ref_sims, ref_table = stored["sims"], stored.get("table_sha256")
    for k, op in enumerate(ops):
        if op.error is not None:
            tally.attempted += 1
            tally.fail(f"op {k}: raised {op.error}")
            continue
        if ref_sims is None:
            ref_sims, ref_table = op.fingerprints, table_digest(op)
        tally.attempted += len(op.sims) + ("table" in op.extra)
        if op.extra.get("raised"):
            tally.fail(f"op {k}: {op.extra['raised']} cells raised",
                       op.extra["raised"])
        got = op.fingerprints
        bad = sum(a != b for a, b in zip(ref_sims, got))
        bad += abs(len(ref_sims) - len(got))
        tally.attempted += max(0, len(ref_sims) - len(got))
        if bad:
            first = next((i for i, (a, b) in enumerate(zip(ref_sims, got))
                          if a != b), min(len(ref_sims), len(got)))
            tally.fail(f"op {k}: {bad} simulation fingerprints differ "
                       f"(first at #{first})", bad)
        for i, rec in enumerate(op.sims):
            for message in identity_breaks(rec):
                tally.fail(f"op {k} sim #{i} {rec['fingerprint']['sim']}: "
                           f"{message}")
        if "table" in op.extra and table_digest(op) != ref_table:
            tally.fail(f"op {k}: figure table digest differs")
    tally.failed = min(tally.failed, tally.attempted)
    return tally


# -- setup time -------------------------------------------------------------------


def setup_probe(name: str, seed: int) -> int:
    """Child mode: run up to the first simulation's start, print the clock."""
    recorder = Recorder()
    recorder.probe = True
    try:
        WORKLOADS[name](seed, recorder.spans)
    except _SetupReached:
        print(time.clock_gettime(time.CLOCK_MONOTONIC))
        return 0
    return 1


def measure_setup(name: str, seed: int) -> list[float]:
    """Seconds from spawning a fresh process to its first simulation's
    start: interpreter, imports, inputs, system construction, cell
    planning.  CLOCK_MONOTONIC is system-wide, so the child's reading and
    the parent's spawn time share one time base."""
    samples = []
    for _ in range(SETUP_PROBES):
        t0 = time.clock_gettime(time.CLOCK_MONOTONIC)
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(seed), "--setup-probe"],
            cwd=ROOT, capture_output=True, text=True, timeout=120,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"setup probe failed: {proc.stderr.strip()}")
        samples.append(float(proc.stdout.split()[-1]) - t0)
    return samples


# -- metrics ----------------------------------------------------------------------


def end_to_end(ops: list[Op], setup_samples: list[float]) -> dict:
    good = [op for op in ops if op.error is None and op.sims]
    if not good:
        return {}
    med = statistics.median
    return {
        "wall_ref": (med(op.wall_ref for op in good), "ref"),
        "sim_kinst_per_ref": (med(op.total("cpu.committed") / 1000 / op.wall_ref
                                  for op in good), "kinst/ref"),
        "setup_s": (med(setup_samples), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024, "MB"),
        # simulated: identical in every op of a run (see check_ops)
        "sim_cycles": (sum(f["end_cycle"] for f in good[0].fingerprints),
                       "cycles"),
        "read_latency_cyc": (good[0].read_latency, "cycles"),
    }


def per_layer(ops: list[Op], traced: Op, layers: dict) -> dict:
    good = [op for op in ops if op.error is None and op.sims]
    if traced.error is not None or not traced.sims or not good:
        return {}
    total_s = sum(v["self_s"] for v in layers.values())
    out: dict[str, tuple[float, str]] = {}
    for layer in LAYERS:
        out[f"{layer}.self_s"] = (layers[layer]["self_s"], "s")
        out[f"{layer}.self_share"] = (layers[layer]["self_s"] / total_s, "ratio")
        out[f"{layer}.calls"] = (layers[layer]["calls"], "count")
    counters = traced.sims[0]["counters"].keys()
    sums = {c: traced.total(c) for c in counters}
    out["workloads.ops_generated"] = (traced.ops_generated, "count")
    for c in ("cpu.committed", "cpu.structural_stalls", "cpu.mem_requests",
              "cache.l2_hits", "cache.l2_misses", "cache.writebacks",
              "cache.mshr_merges", "controller.reads", "controller.writes",
              "controller.drain_entries", "controller.read_row_hits",
              "dram.transactions", "dram.writes", "sim.events",
              "sim.clamped_events"):
        out[c] = (sums[c], "count")
    out["dram.data_cycles"] = (sums["dram.data_cycles"], "cycles")
    out["cache.l2_miss_overcount"] = (
        sums["cache.l2_misses"] / max(sums["controller.reads"], 1), "ratio")
    out["dram.row_hit_rate"] = (
        sums["dram.row_hits"] / max(sums["dram.transactions"], 1), "ratio")
    untraced_wall = statistics.median(op.wall_s for op in good)
    out["sim.host_us_per_event"] = (
        untraced_wall / statistics.median(op.total("sim.events") for op in good)
        * 1e6, "us/event")
    out["experiments.cells"] = (traced.extra.get("experiments.cells", 0), "count")
    out["experiments.cache_writes"] = (
        traced.extra.get("experiments.cache_writes", 0), "count")
    out["trace.overhead_ratio"] = (traced.wall_s / untraced_wall, "ratio")
    return out


#: printed with every end-to-end metric: (better, domain)
E2E_NOTES = {
    "wall_ref": ("lower", "host/ref"),
    "sim_kinst_per_ref": ("higher", "host/ref"),
    "wall_s": ("lower", "host"),
    "sim_kips": ("higher", "host"),
    "setup_s": ("lower", "host"),
    "peak_rss_mb": ("lower", "host"),
    "failed_ratio": ("lower", "check"),
    "sim_cycles": ("lower", "simulated"),
    "read_latency_cyc": ("lower", "simulated"),
}


def print_report(name: str, seed: int, ops: list[Op], tally: Tally,
                 metrics: dict, traced: bool) -> None:
    print(f"workload {name}, seed {seed}: {len(ops)} timed operation(s), "
          f"{sum(len(op.sims) for op in ops)} simulation(s)")
    for message in tally.problems:
        print(f"  CHECK FAILED: {message}")
    shown = dict(metrics)
    if not traced:
        shown["failed_ratio"] = (tally.failed / max(tally.attempted, 1), "ratio")
        good = [op for op in ops if op.error is None and op.sims]
        if good:
            # raw host figures: shown, not bounded (they follow host speed)
            shown["wall_s"] = (statistics.median(op.wall_s for op in good), "s")
            shown["sim_kips"] = (statistics.median(
                op.total("cpu.committed") / 1000 / op.wall_s for op in good),
                "kinst/s")
    for key in (E2E_NOTES if not traced else sorted(shown)):
        if key not in shown:
            continue
        value, unit = shown[key]
        better, domain = E2E_NOTES.get(key, ("", ""))
        print(f"  {key:<28} {value:>16.6g} {unit:<9} {better:<7}{domain}")


# -- entry point ------------------------------------------------------------------


def record_expected(name: str, recorder: Recorder) -> int:
    """Store the default seed's fingerprints (after a deliberate model change)."""
    op = run_op(name, DEFAULT_SEED, recorder)
    if op.error is not None:
        print(f"perfbench: {name} raised {op.error}", file=sys.stderr)
        return 1
    data = json.loads(EXPECTED_PATH.read_text()) if EXPECTED_PATH.exists() else {}
    data[name] = {"seed": DEFAULT_SEED, "sims": op.fingerprints}
    if "table" in op.extra:
        data[name]["table_sha256"] = table_digest(op)
    EXPECTED_PATH.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")
    print(f"recorded {len(op.sims)} fingerprints for {name}")
    return 0


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=20.0,
                    help="keep starting operations until this much time "
                         "has passed")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true",
                    help=argparse.SUPPRESS)
    ap.add_argument("--record", action="store_true",
                    help="rewrite this workload's stored fingerprints for "
                         f"seed {DEFAULT_SEED} and exit")
    args = ap.parse_args(argv)

    import_simulator()
    if args.setup_probe:
        return setup_probe(args.workload, args.seed)
    recorder = Recorder()
    if args.record:
        return record_expected(args.workload, recorder)

    # Closed loop, one caller: each operation starts when the previous one
    # ends.  Two at least, so every run repeats its seed once; with
    # --trace 1 the profiled operation is the repeat.
    min_ops = 1 if args.trace else 2
    ops: list[Op] = []
    start = time.perf_counter()
    while len(ops) < min_ops or time.perf_counter() - start < args.seconds:
        ops.append(run_op(args.workload, args.seed, recorder))

    if args.trace:
        recorder.spans = Spans()
        profiler = cProfile.Profile()
        traced = run_op(args.workload, args.seed, recorder, profiler)
        layers = layer_profile(pstats.Stats(profiler).stats, PKG_DIR)
        tally = check_ops(args.workload, args.seed, ops + [traced])
        metrics = per_layer(ops, traced, layers)
        recorder.spans.write(
            OUT_DIR / f"spans-{args.workload}-seed{args.seed}.json",
            {"workload": args.workload, "seed": args.seed, "layers": layers},
        )
    else:
        tally = check_ops(args.workload, args.seed, ops)
        metrics = end_to_end(ops, measure_setup(args.workload, args.seed))

    correct = tally.failed == 0 and bool(metrics)
    print_report(args.workload, args.seed, ops, tally, metrics, bool(args.trace))
    print(json.dumps({
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
