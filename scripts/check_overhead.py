#!/usr/bin/env python3
"""Telemetry overhead gate.

Runs the same workload three times — telemetry off, sampling telemetry
on, then request-span tracing on — and enforces the subsystem's
promises:

1. results are bit-identical with any capture enabled (telemetry and
   span tracing are pure observers);
2. sampling-telemetry wall-clock overhead stays under its budget
   (default 5 %, override with REPRO_OVERHEAD_BUDGET);
3. span-tracing overhead (1-in-64 sampling) stays under its own budget
   (default 10 %, override with REPRO_SPANS_OVERHEAD_BUDGET).

Exit status 0 on success, 1 on any violation, so CI can gate on it.

Run:  PYTHONPATH=src python scripts/check_overhead.py [--budget N]
"""

import argparse
import os
import sys
import time

from repro import Telemetry, run_multicore, workload_by_name


def timed_run(mix, policy, budget, seed, telemetry=None):
    t0 = time.perf_counter()
    result = run_multicore(
        mix, policy, inst_budget=budget, seed=seed, telemetry=telemetry
    )
    return result, time.perf_counter() - t0


def fingerprint(result):
    return (
        result.end_cycle,
        tuple(result.ipcs()),
        result.row_hit_rate,
        tuple(c.avg_read_latency for c in result.per_core),
        tuple(c.bw_gbps for c in result.per_core),
    )


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", default="4MEM-1")
    ap.add_argument("--policy", default="HF-RF")
    ap.add_argument("--budget", type=int, default=30_000)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--sample-every", type=int, default=2000)
    ap.add_argument("--repeats", type=int, default=3,
                    help="take the best of N timings to damp scheduler noise")
    ap.add_argument(
        "--max-overhead", type=float,
        default=float(os.environ.get("REPRO_OVERHEAD_BUDGET", "0.05")),
        help="allowed fractional slowdown with telemetry on (default 0.05)",
    )
    ap.add_argument("--span-sample", type=int, default=64,
                    help="span tracing rate for the third run (default 1-in-64)")
    ap.add_argument(
        "--max-spans-overhead", type=float,
        default=float(os.environ.get("REPRO_SPANS_OVERHEAD_BUDGET", "0.10")),
        help="allowed fractional slowdown with span tracing on (default 0.10)",
    )
    args = ap.parse_args()

    mix = workload_by_name(args.workload)
    base_times, tele_times, span_times = [], [], []
    base_fp = tele_fp = span_fp = None
    ticks = nspans = 0
    for _ in range(args.repeats):
        result, dt = timed_run(mix, args.policy, args.budget, args.seed)
        base_times.append(dt)
        base_fp = fingerprint(result)

        tm = Telemetry(sample_every=args.sample_every)
        result, dt = timed_run(
            mix, args.policy, args.budget, args.seed, telemetry=tm
        )
        tele_times.append(dt)
        tele_fp = fingerprint(result)
        ticks = len(tm.samples)

        tm = Telemetry(sample_every=args.sample_every,
                       capture_spans=True, span_sample=args.span_sample)
        result, dt = timed_run(
            mix, args.policy, args.budget, args.seed, telemetry=tm
        )
        span_times.append(dt)
        span_fp = fingerprint(result)
        nspans = len(tm.spans.completed)

    base, tele, span = min(base_times), min(tele_times), min(span_times)
    overhead = tele / base - 1.0
    span_overhead = span / base - 1.0
    print(f"workload {mix.name} / {args.policy} @ {args.budget} insts, "
          f"best of {args.repeats}:")
    print(f"  telemetry off : {base * 1e3:8.1f} ms")
    print(f"  telemetry on  : {tele * 1e3:8.1f} ms  ({ticks} samples)")
    print(f"  spans on      : {span * 1e3:8.1f} ms  "
          f"(1-in-{args.span_sample}, {nspans} spans)")
    print(f"  overhead      : {overhead:+8.2%}  (budget {args.max_overhead:.0%})")
    print(f"  span overhead : {span_overhead:+8.2%}  "
          f"(budget {args.max_spans_overhead:.0%})")

    ok = True
    if tele_fp != base_fp:
        print("FAIL: results differ with telemetry enabled")
        print(f"  off: {base_fp}")
        print(f"  on : {tele_fp}")
        ok = False
    else:
        print("  results bit-identical with telemetry on/off: OK")
    if span_fp != base_fp:
        print("FAIL: results differ with span tracing enabled")
        print(f"  off  : {base_fp}")
        print(f"  spans: {span_fp}")
        ok = False
    else:
        print("  results bit-identical with span tracing on/off: OK")
    if overhead > args.max_overhead:
        print(f"FAIL: overhead {overhead:.2%} exceeds budget "
              f"{args.max_overhead:.0%}")
        ok = False
    if span_overhead > args.max_spans_overhead:
        print(f"FAIL: span overhead {span_overhead:.2%} exceeds budget "
              f"{args.max_spans_overhead:.0%}")
        ok = False
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
