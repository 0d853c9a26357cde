"""Command-line interface: ``python -m repro <command>``.

Subcommands mirror the paper's workflow:

* ``profile``   — single-core ME profiling of one or all applications
                  (Table 2 analogue);
* ``run``       — one multiprogrammed workload under one policy;
* ``figure``    — regenerate a paper figure (2, 3, 4 or 5);
* ``table2``    — regenerate Table 2;
* ``arena``     — rank every registered policy on speedup, fairness and
                  hardware cost over a mix set (docs/POLICIES.md);
* ``cloud``     — tail-latency / SLO table for the open-loop cloud
                  workload family (docs/WORKLOADS.md);
* ``workloads`` — list the Table 3 mixes and the cloud mixes;
* ``policies``  — list the registered scheduling policies.

``figure``, ``table2``, ``arena`` and ``cloud`` accept ``--jobs N`` to run
their simulation cells over N local worker processes, byte-identically
to a serial run (docs/PERFORMANCE.md); ``run`` and ``profile`` accept
``--profile`` to cProfile the engine (docs/OBSERVABILITY.md).
"""

from __future__ import annotations

import argparse
import sys
from typing import Sequence

from repro.config import SystemConfig
from repro.core.registry import available_policies
from repro.experiments import (
    ExperimentContext,
    run_figure2,
    run_figure3,
    run_figure4,
    run_figure5,
    run_table2,
)
from repro.experiments.figure2 import format_figure2
from repro.experiments.figure3 import format_figure3
from repro.experiments.figure4 import format_figure4
from repro.experiments.figure5 import format_figure5
from repro.experiments.table2 import format_table2
from repro.metrics.memory_efficiency import MeProfiler
from repro.metrics.speedup import smt_speedup, unfairness
from repro.sim.runner import run_multicore
from repro.workloads.mixes import WORKLOAD_MIXES, workload_by_name
from repro.workloads.spec2000 import APPS, app_by_name

__all__ = ["main"]


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError("must be a positive integer")
    return value


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--budget", type=int, default=30_000,
                   help="instructions measured per core")
    p.add_argument("--seed", type=int, default=1)


def _add_parallel(p: argparse.ArgumentParser) -> None:
    g = p.add_argument_group("parallel execution (docs/PERFORMANCE.md)")
    g.add_argument("--jobs", type=int, default=1, metavar="N",
                   help="shard simulation cells over N worker processes "
                        "(0 = one per CPU); output stays bit-identical")
    g.add_argument("--resume", action="store_true",
                   help="read/write the on-disk result cache")
    g.add_argument("--cache-dir", default=None, metavar="DIR",
                   help="result cache directory (default: .repro-cache)")


def _engine_profiler(args: argparse.Namespace):
    """``--profile [BASE]`` -> an EngineProfiler, or a no-op context."""
    import contextlib

    if getattr(args, "profile", None) is None:
        return contextlib.nullcontext(None)
    from repro.telemetry import EngineProfiler

    return EngineProfiler(args.profile)


def _report_profile(prof) -> None:
    if prof is None:
        return
    print()
    print(prof.format_top(), end="")
    print(f"profile: {prof.pstats_path} (pstats), "
          f"{prof.folded_path} (collapsed stacks)")


def _cmd_profile(args: argparse.Namespace) -> int:
    prof = MeProfiler(inst_budget=args.budget, seed=args.seed)
    apps = [app_by_name(args.app)] if args.app else list(APPS)
    with _engine_profiler(args) as eng:
        print(f"{'app':<9} {'class':<5} {'IPC':>6} {'BW GB/s':>8} {'ME':>10}")
        for app in apps:
            p = prof.profile(app)
            print(
                f"{p.app:<9} {app.klass:<5} {p.ipc:>6.2f} {p.bw_gbps:>8.3f} "
                f"{p.me:>10.3f}"
            )
    _report_profile(eng)
    return 0


def _make_telemetry(args: argparse.Namespace):
    """Build a Telemetry hub from CLI flags, or None when not requested."""
    spans = bool(args.spans or args.spans_out)
    wants = (
        args.telemetry
        or args.trace_out
        or args.telemetry_out
        or args.telemetry_csv
        or spans
    )
    if not wants:
        return None
    from repro.telemetry import Telemetry

    # The Chrome trace is far richer with the discrete event streams;
    # JSONL/CSV only need the sampled series.
    return Telemetry(
        sample_every=args.sample_every,
        capture_decisions=bool(args.trace_out),
        capture_commands=bool(args.trace_out and args.trace_commands),
        capture_spans=spans,
        span_sample=args.span_sample,
    )


def _export_telemetry(tm, args: argparse.Namespace) -> None:
    from repro.telemetry import (
        attribute,
        format_attribution,
        render_summary,
        write_chrome_trace,
        write_csv,
        write_jsonl,
        write_spans_jsonl,
    )

    print()
    print(render_summary(tm))
    if tm.spans is not None:
        print()
        if tm.spans.completed:
            print(format_attribution(attribute(tm, kind="read")))
        else:
            print("no request spans traced (run too short for the "
                  f"1-in-{tm.spans.sample_every} sample; try --span-sample 1)")
    if args.trace_out:
        n = write_chrome_trace(tm, args.trace_out)
        print(f"chrome trace: {args.trace_out} ({n} events; open in Perfetto)")
    if args.telemetry_out:
        n = write_jsonl(tm, args.telemetry_out)
        print(f"telemetry JSONL: {args.telemetry_out} ({n} lines)")
    if args.telemetry_csv:
        n = write_csv(tm, args.telemetry_csv)
        print(f"telemetry CSV: {args.telemetry_csv} ({n} rows)")
    if args.spans_out:
        n = write_spans_jsonl(tm, args.spans_out)
        print(f"span JSONL: {args.spans_out} ({n} lines)")


def _cmd_run(args: argparse.Namespace) -> int:
    mix = workload_by_name(args.workload)
    prof = MeProfiler(inst_budget=max(args.budget // 2, 5000), seed=args.seed)
    me = prof.me_values(mix)
    single = prof.single_ipcs(mix)
    tm = _make_telemetry(args)
    with _engine_profiler(args) as eng:
        result = run_multicore(
            mix, args.policy, inst_budget=args.budget, seed=args.seed,
            me_values=me, telemetry=tm,
        )
    print(f"workload {mix.name} under {result.policy_name}")
    for c, s in zip(result.per_core, single):
        print(
            f"  core{c.core_id} {c.app:<9} IPC={c.ipc:.3f} "
            f"(solo {s:.3f})  lat={c.avg_read_latency:6.0f}  "
            f"BW={c.bw_gbps:5.2f} GB/s"
        )
    print(f"SMT speedup = {smt_speedup(result.ipcs(), single):.3f}")
    print(f"unfairness  = {unfairness(result.ipcs(), single):.3f}")
    print(f"row-hit rate = {result.row_hit_rate:.1%}")
    if tm is not None:
        _export_telemetry(tm, args)
    _report_profile(eng)
    return 0


def _make_ctx(args: argparse.Namespace) -> ExperimentContext:
    ctx = ExperimentContext(
        inst_budget=args.budget,
        seeds=tuple(args.seeds),
        profile_budget=max(args.budget // 2, 5_000),
        config=SystemConfig(),
    )
    if getattr(args, "resume", False):
        from repro.experiments.cache import DEFAULT_CACHE_DIR, ResultCache

        ctx.cache = ResultCache(root=args.cache_dir or DEFAULT_CACHE_DIR,
                                mode="rw")
    return ctx


def _prewarm(ctx: ExperimentContext, args: argparse.Namespace,
             **plan_kwargs) -> None:
    """Shard the section's cells over ``--jobs`` workers, merge back.

    The figure code below then runs entirely from the memo, emitting
    bit-identical output (the merge is ordered by cell key, never by
    completion order)."""
    from repro.experiments.parallel import (
        default_jobs,
        merge_into,
        plan_cells,
        run_cells,
    )

    jobs = args.jobs if args.jobs > 0 else default_jobs()
    if jobs <= 1 and ctx.cache is None:
        return
    report = run_cells(plan_cells(ctx, **plan_kwargs), jobs=jobs,
                       cache=ctx.cache)
    if report.failures:
        print(report.failure_report(), file=sys.stderr)
    merge_into(ctx, report)
    print(report.summary(), file=sys.stderr)


def _cmd_figure(args: argparse.Namespace) -> int:
    ctx = _make_ctx(args)
    plan_by_number = {
        2: {"figure2": (tuple(args.cores), tuple(args.groups))},
        3: {"figure3": tuple(args.groups)},
        4: {"figure4": True},
        5: {"figure5": True},
    }
    _prewarm(ctx, args, **plan_by_number[args.number])
    if args.number == 2:
        rows = run_figure2(
            ctx, core_counts=tuple(args.cores), groups=tuple(args.groups)
        )
        print(format_figure2(rows))
    elif args.number == 3:
        print(format_figure3(run_figure3(ctx, groups=tuple(args.groups))))
    elif args.number == 4:
        print(format_figure4(run_figure4(ctx)))
    elif args.number == 5:
        print(format_figure5(run_figure5(ctx)))
    else:  # pragma: no cover - argparse choices guard
        raise ValueError(f"no figure {args.number}")
    return 0


def _cmd_table2(args: argparse.Namespace) -> int:
    ctx = _make_ctx(args)
    _prewarm(ctx, args, table2=True)
    print(format_table2(run_table2(ctx)))
    return 0


def _arena_spec(args: argparse.Namespace):
    mixes = tuple(args.mixes)
    policies = (tuple(p.upper() for p in args.policies)
                if args.policies else None)
    return mixes, policies


def _cmd_arena(args: argparse.Namespace) -> int:
    from repro.experiments.arena import (
        arena_anatomy,
        format_arena,
        format_arena_per_mix,
        run_arena,
        run_arena_per_mix,
    )

    mixes, policies = _arena_spec(args)
    ctx = _make_ctx(args)
    _prewarm(ctx, args, arena=(mixes, policies))
    if args.per_mix:
        print(format_arena_per_mix(
            run_arena_per_mix(ctx, mixes=mixes, policies=policies)))
    else:
        print(format_arena(
            run_arena(ctx, mixes=mixes, policies=policies), mixes))
    if args.anatomy:
        print()
        print(arena_anatomy(ctx, mixes=mixes, policies=policies,
                            span_sample=args.span_sample))
    return 0


def _cmd_cloud(args: argparse.Namespace) -> int:
    from repro.experiments.cloud import format_cloud, run_cloud_table

    mixes = tuple(args.mixes)
    policies = (tuple(p.upper() for p in args.policies)
                if args.policies else None)
    ctx = _make_ctx(args)
    _prewarm(ctx, args, cloud=(mixes, policies))
    print(format_cloud(run_cloud_table(ctx, mixes=mixes, policies=policies)))
    return 0


def _cmd_workloads(_args: argparse.Namespace) -> int:
    from repro.workloads.cloud import CLOUD_MIXES, service_by_code

    for m in WORKLOAD_MIXES:
        apps = ", ".join(a.name for a in m.apps())
        print(f"{m.name:<8} [{m.codes}] {apps}")
    for cm in CLOUD_MIXES:
        parts = ", ".join(
            service_by_code(c).name if c.isupper() else
            next(a.name for a in cm.batch_apps() if a.code == c)
            for c in cm.codes
        )
        print(f"{cm.name:<8} [{cm.codes}] {parts}")
    return 0


def _cmd_policies(_args: argparse.Namespace) -> int:
    for name in available_policies():
        print(name)
    return 0


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="repro",
        description="ICPP'08 memory-access-scheduling reproduction",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    def add_engine_profile(p):
        p.add_argument("--profile", nargs="?", const="profile",
                       metavar="BASE",
                       help="cProfile the engine: write BASE.pstats and "
                            "BASE.folded (collapsed stacks) and print the "
                            "top functions by cumulative time "
                            "(default BASE: 'profile')")

    p = sub.add_parser("profile", help="single-core ME profiling")
    _add_common(p)
    p.add_argument("--app", help="benchmark name (default: all 26)")
    add_engine_profile(p)
    p.set_defaults(fn=_cmd_profile)

    p = sub.add_parser("run", help="run one workload under one policy")
    _add_common(p)
    p.add_argument("workload", help="Table 3 mix name, e.g. 4MEM-1")
    p.add_argument("policy", help="policy name, e.g. ME-LREQ")
    g = p.add_argument_group("telemetry (docs/OBSERVABILITY.md)")
    g.add_argument("--telemetry", action="store_true",
                   help="capture the sampled time series and print a summary")
    g.add_argument("--sample-every", type=_positive_int, default=2000,
                   metavar="CYCLES",
                   help="sampler epoch length in cycles (default 2000)")
    g.add_argument("--trace-out", metavar="PATH",
                   help="write a Chrome trace-event file (Perfetto-loadable); "
                        "implies --telemetry and decision capture")
    g.add_argument("--trace-commands", action="store_true",
                   help="with --trace-out, also capture per-DRAM-command events")
    g.add_argument("--telemetry-out", metavar="PATH",
                   help="write the telemetry stream as JSONL; implies --telemetry")
    g.add_argument("--telemetry-csv", metavar="PATH",
                   help="write the sampled series as CSV; implies --telemetry")
    g.add_argument("--spans", action="store_true",
                   help="trace sampled request lifecycles and print the "
                        "per-core latency-attribution table")
    g.add_argument("--span-sample", type=_positive_int, default=64, metavar="N",
                   help="trace every Nth request (default 64; 1 = all)")
    g.add_argument("--spans-out", metavar="PATH",
                   help="write traced spans + attribution as JSONL; "
                        "implies --spans")
    add_engine_profile(p)
    p.set_defaults(fn=_cmd_run)

    p = sub.add_parser("figure", help="regenerate a paper figure")
    _add_common(p)
    p.add_argument("number", type=int, choices=(2, 3, 4, 5))
    p.add_argument("--cores", type=int, nargs="+", default=[4])
    p.add_argument("--groups", nargs="+", default=["MEM"])
    p.add_argument("--seeds", type=int, nargs="+", default=[1])
    _add_parallel(p)
    p.set_defaults(fn=_cmd_figure)

    p = sub.add_parser("table2", help="regenerate Table 2")
    _add_common(p)
    p.add_argument("--seeds", type=int, nargs="+", default=[1])
    _add_parallel(p)
    p.set_defaults(fn=_cmd_table2)

    p = sub.add_parser(
        "arena",
        help="rank every registered policy on speedup, fairness and "
             "hardware cost (docs/POLICIES.md)")
    _add_common(p)
    p.add_argument("--mixes", nargs="+", default=["smoke"],
                   help="mix-set names (smoke, 2core, 4core, 8core, full) "
                        "and/or explicit Table 3 mix names "
                        "(default: smoke)")
    p.add_argument("--policies", nargs="+", default=None, metavar="NAME",
                   help="restrict the field (default: every registered "
                        "policy plus FIX-DESC)")
    p.add_argument("--seeds", type=int, nargs="+", default=[1])
    p.add_argument("--per-mix", action="store_true", dest="per_mix",
                   help="per-mix drill-down table (no averaging over "
                        "mixes) instead of the aggregate ranking")
    p.add_argument("--anatomy", action="store_true",
                   help="append the per-policy stall-attribution breakdown "
                        "on the first mix (rerun with span tracing)")
    p.add_argument("--span-sample", type=_positive_int, default=16,
                   metavar="N",
                   help="with --anatomy, trace every Nth request "
                        "(default 16)")
    _add_parallel(p)
    p.set_defaults(fn=_cmd_arena)

    p = sub.add_parser(
        "cloud",
        help="tail-latency / SLO table for the open-loop cloud workload "
             "family (docs/WORKLOADS.md)")
    _add_common(p)
    p.add_argument("--mixes", nargs="+", default=["smoke"],
                   help="cloud mix-set names (smoke, 2core, 4core, 8core, "
                        "full) and/or explicit cloud mix names "
                        "(default: smoke)")
    p.add_argument("--policies", nargs="+", default=None, metavar="NAME",
                   help="restrict the field (default: every registered "
                        "policy plus FIX-DESC)")
    p.add_argument("--seeds", type=int, nargs="+", default=[1])
    _add_parallel(p)
    p.set_defaults(fn=_cmd_cloud)

    p = sub.add_parser("workloads",
                       help="list Table 3 mixes and cloud mixes")
    p.set_defaults(fn=_cmd_workloads)

    p = sub.add_parser("policies", help="list scheduling policies")
    p.set_defaults(fn=_cmd_policies)

    return ap


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except KeyboardInterrupt:
        # Clean interactive interrupt: run_cells has shut its pool down;
        # completed cells persist in the result cache, so a re-run with
        # --resume picks up there.
        print("\ninterrupted", file=sys.stderr)
        return 130


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
