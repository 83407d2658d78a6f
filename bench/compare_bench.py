#!/usr/bin/env python3
"""Latency regression gate over google-benchmark JSON reports.

Usage: compare_bench.py BASELINE.json FRESH.json [--threshold 0.15]

Compares per-benchmark timings against a checked-in baseline and fails
(exit 1) when any benchmark regressed more than `threshold`, or when a
baseline benchmark is missing from the fresh report (a silent coverage
loss would otherwise read as "no regression").

A benchmark only counts as regressed when BOTH clocks exceed the
threshold: real_time is what users feel (and the only clock that sees
work done on pool worker threads), but it absorbs co-tenant noise on a
shared CI host; cpu_time is immune to that noise. A genuine slowdown in
the measured code moves both; noise moves only real_time.

A benchmark can appear several times in one report (--benchmark_repetitions
rows); each side is reduced to its best (minimum) time per clock first,
which also damps one noisy run. New benchmarks with no
baseline entry are reported but never fail the gate — they start gating
once the baseline is re-recorded.

The baseline is refreshed deliberately (not on every run) by copying a
fresh report over bench/baselines/BENCH_gen.baseline.json in the same
change that justifies the shift.
"""

import argparse
import json
import sys

_TO_NS = {"ns": 1.0, "us": 1e3, "ms": 1e6, "s": 1e9}


def best_times_ns(path):
    """{name: (min real_time ns, min cpu_time ns)} over the report."""
    with open(path) as f:
        report = json.load(f)
    best = {}
    for bench in report.get("benchmarks", []):
        if bench.get("run_type") == "aggregate":
            continue
        name = bench["name"]
        unit = _TO_NS[bench.get("time_unit", "ns")]
        real = float(bench["real_time"]) * unit
        cpu = float(bench.get("cpu_time", bench["real_time"])) * unit
        if name in best:
            real = min(real, best[name][0])
            cpu = min(cpu, best[name][1])
        best[name] = (real, cpu)
    return best


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("baseline")
    parser.add_argument("fresh")
    parser.add_argument("--threshold", type=float, default=0.15,
                        help="allowed slowdown fraction (default 0.15)")
    args = parser.parse_args()

    baseline = best_times_ns(args.baseline)
    fresh = best_times_ns(args.fresh)
    if not baseline:
        print(f"regression gate: no benchmarks in {args.baseline}")
        return 1

    limit = 1.0 + args.threshold
    failures = []
    width = max(len(n) for n in baseline) + 2
    print(f"regression gate: threshold +{args.threshold:.0%} over "
          f"{args.baseline} (real AND cpu must regress)")
    for name in sorted(baseline):
        base_real, base_cpu = baseline[name]
        if name not in fresh:
            failures.append(f"{name}: missing from fresh report")
            print(f"  {name:<{width}} MISSING (baseline "
                  f"{base_real / 1e6:.3f} ms)")
            continue
        fresh_real, fresh_cpu = fresh[name]
        real_ratio = fresh_real / base_real
        cpu_ratio = fresh_cpu / base_cpu
        verdict = "ok"
        if real_ratio > limit and cpu_ratio > limit:
            verdict = "REGRESSION"
            failures.append(
                f"{name}: real {base_real / 1e6:.3f} -> "
                f"{fresh_real / 1e6:.3f} ms ({real_ratio:.2f}x), cpu "
                f"{base_cpu / 1e6:.3f} -> {fresh_cpu / 1e6:.3f} ms "
                f"({cpu_ratio:.2f}x)")
        print(f"  {name:<{width}} real {base_real / 1e6:9.3f} -> "
              f"{fresh_real / 1e6:9.3f} ms ({real_ratio:5.2f}x)  cpu "
              f"{base_cpu / 1e6:9.3f} -> {fresh_cpu / 1e6:9.3f} ms "
              f"({cpu_ratio:5.2f}x)  {verdict}")
    for name in sorted(set(fresh) - set(baseline)):
        print(f"  {name:<{width}} new: real {fresh[name][0] / 1e6:.3f} ms "
              f"(not gated)")

    if failures:
        print("regression gate FAILED:")
        for failure in failures:
            print(f"  {failure}")
        return 1
    print("regression gate passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
