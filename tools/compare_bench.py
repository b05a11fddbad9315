#!/usr/bin/env python3
"""Compare a fresh BENCH_kernels.json against the checked-in baseline.

Raw GFLOP/s numbers are machine-dependent, so CI cannot diff them across
runner generations.  What IS stable is each SIMD kernel's speedup over the
scalar kernel measured in the same run on the same machine: a code change
that costs 20% of the AVX2 kernel's throughput shows up as a 20% drop in
that ratio no matter how fast the runner is.  This script therefore
normalizes every (kernel, tile) point by the same-run scalar throughput at
that tile and fails when any point's normalized ratio regresses more than
--tolerance (default 15%) below the baseline's.

The "modgemm-*" rows (whole-algorithm throughput per execution strategy,
where "tile" is the problem size) get the same treatment against their own
in-run baseline: "modgemm-packfused" is normalized by the same-run
"modgemm-morton" at the same size, so a change that slows the pack-fused
path relative to the Morton path fails the gate even though both absolute
numbers move with the runner.

Likewise the "batched-*" rows (bench/batched_throughput.cpp, where "tile" is
the batch's per-product n): "batched-serial" and "batched-pool" are
normalized by the same-run "batched-loop" per-item baseline, gating the
amortization and scaling wins of modgemm_batched rather than raw throughput.

Points present in the baseline but missing from the current run (e.g. an
AVX2 kernel on a runner without AVX2) are reported and skipped, never
silently ignored.  Stdlib only.

Usage:
  tools/compare_bench.py --baseline bench/baselines/BENCH_kernels.json \
                         --current build/BENCH_kernels.json [--tolerance 0.15]
"""

import argparse
import json
import sys


def load_points(path):
    """Returns {(kernel, tile): gflops} from a BENCH_kernels.json file."""
    with open(path) as f:
        data = json.load(f)
    points = {}
    for row in data.get("results", []):
        points[(row["kernel"], int(row["tile"]))] = float(row["gflops"])
    return points


# Rows that act as the in-run denominator for a family of points; they are
# never gated themselves.
BASE_KERNELS = ("scalar", "modgemm-morton", "batched-loop")


def base_kernel_for(kernel):
    """The same-run row a point is normalized by."""
    if kernel.startswith("modgemm-"):
        return "modgemm-morton"
    if kernel.startswith("batched-"):
        return "batched-loop"
    return "scalar"


def normalized_ratios(points):
    """Speedup over the point's same-run base kernel at the same tile size."""
    ratios = {}
    for (kernel, tile), gflops in points.items():
        if kernel in BASE_KERNELS:
            continue
        base = points.get((base_kernel_for(kernel), tile))
        if base and base > 0.0:
            ratios[(kernel, tile)] = gflops / base
    return ratios


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--baseline", required=True)
    ap.add_argument("--current", required=True)
    ap.add_argument("--tolerance", type=float, default=0.15,
                    help="maximum allowed relative regression (default 0.15)")
    args = ap.parse_args()

    base = normalized_ratios(load_points(args.baseline))
    cur = normalized_ratios(load_points(args.current))
    if not base:
        print("compare_bench: baseline has no comparable points", file=sys.stderr)
        return 2

    regressions, skipped = [], []
    for key in sorted(base):
        kernel, tile = key
        if key not in cur:
            skipped.append(key)
            continue
        rel = cur[key] / base[key]
        status = "OK"
        if rel < 1.0 - args.tolerance:
            status = "REGRESSION"
            regressions.append(key)
        print(f"{kernel:>12} tile {tile:>3}: baseline x{base[key]:6.2f} "
              f"current x{cur[key]:6.2f}  ({rel * 100.0:6.1f}%)  {status}")
    for kernel, tile in skipped:
        print(f"{kernel:>12} tile {tile:>3}: missing from current run, skipped")
    for key in sorted(set(cur) - set(base)):
        print(f"{key[0]:>12} tile {key[1]:>3}: new point, no baseline")

    if regressions:
        print(f"compare_bench: {len(regressions)} point(s) regressed more "
              f"than {args.tolerance * 100.0:.0f}% vs baseline",
              file=sys.stderr)
        return 1
    compared = len(base) - len(skipped)
    print(f"compare_bench: {compared} point(s) within tolerance "
          f"({len(skipped)} skipped)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
