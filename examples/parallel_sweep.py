#!/usr/bin/env python3
"""Fan a Figure 2 policy sweep out over all CPU cores.

Every (workload, policy, seed) cell of a Figure 2-style sweep is an
independent simulation, so a process pool gives near-linear speedup on a
multicore host — the difference between minutes and tens of minutes for
full-figure regenerations.  The cell planner enumerates the evaluation
cells plus the profiling and single-core cells they depend on, shards
them over worker processes, and merges the results back so the serial
Figure 2 harness finds every simulation memoised.

Run:  python examples/parallel_sweep.py --cores 4 --workers 0
      (--workers 0 = use every host CPU)
"""

import argparse
import os
import time

from repro.experiments import ExperimentContext, run_figure2
from repro.experiments.parallel import merge_into, plan_cells, run_cells

POLICIES = ("HF-RF", "ME", "RR", "LREQ", "ME-LREQ")


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--cores", type=int, default=4, choices=(2, 4, 8))
    ap.add_argument("--group", default="MEM", choices=("MEM", "MIX"))
    ap.add_argument("--budget", type=int, default=20_000)
    ap.add_argument("--seeds", type=int, nargs="+", default=[1])
    ap.add_argument("--workers", type=int, default=0,
                    help="pool size; 0 = all host CPUs, 1 = serial")
    args = ap.parse_args()

    ctx = ExperimentContext(
        inst_budget=args.budget,
        seeds=tuple(args.seeds),
        profile_budget=max(args.budget // 2, 5_000),
    )
    section = ((args.cores,), (args.group,))
    cells = plan_cells(ctx, figure2=section)
    workers = args.workers or (os.cpu_count() or 1)
    print(f"{len(cells)} cells over {workers} workers "
          f"(budget {args.budget} insts/core)")

    t0 = time.time()
    merge_into(ctx, run_cells(cells, jobs=workers))
    wall = time.time() - t0
    rows = run_figure2(
        ctx, core_counts=section[0], groups=section[1], policies=POLICIES
    )

    base = sum(r.speedup("HF-RF") for r in rows) / len(rows)
    print(f"\n{args.cores}-core {args.group} group averages:")
    for p in POLICIES:
        avg = sum(r.speedup(p) for r in rows) / len(rows)
        print(f"  {p:<8} speedup {avg:.3f}  ({avg / base - 1:+.1%} vs HF-RF)")
    print(f"\nwall time {wall:.1f}s "
          f"({len(cells) / wall:.2f} simulations/s)")


if __name__ == "__main__":
    main()
