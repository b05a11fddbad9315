// probes.hpp -- per-layer probes: each layer is timed from outside, by
// calling its public functions at the tiles, quadrant sizes and shapes the
// workload's executed plans use.
#pragma once

#include <map>
#include <string>
#include <tuple>
#include <vector>

#include "bench.hpp"
#include "layout/plan.hpp"

namespace perfbench {

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};
using Metrics = std::vector<Metric>;

// Unit costs the probes measured, for the computed layer model
// (model.attributed_frac).  Times are seconds per call, rates per second.
struct UnitCosts {
  using Tile = std::tuple<int, int, int>;  // (tm, tn, tk)
  std::map<Tile, double> leaf_s, fused_s;
  std::map<Tile, double> stage_s, stage_sum_s;  // pack-fused A+B tile staging
  double leaf_flops_per_s = 0, fused_flops_per_s = 0;
  // Seconds per vadd call by element count, at every quadrant size of the
  // probed plans' recursion levels.
  std::map<std::size_t, double> vadd_s;
  double vadd_bytes_per_s = 0, pack_bytes_per_s = 0;
  double to_morton_bytes_per_s = 0, from_morton_bytes_per_s = 0;
  double blocked_flops_per_s = 0;
  double dispatch_s = 0, plan_s = 0, fork_join7_s = 0;
  std::int64_t copy_array_bytes = 0;  // per array of the mem.copy stream
};

// True when a report's plan describes its leaves: a common depth and
// tile << depth == padded >= logical in all three dimensions.  (Aggregated
// batched reports and family calls carry a sub-product's plan that need not.)
bool plan_consistent(const strassen::layout::GemmPlan& p);

// Element counts of the quadrants one element-wise op touches at recursion
// level l of plan p: A, B and C quadrants.
std::tuple<std::size_t, std::size_t, std::size_t> quadrant_elems(
    const strassen::layout::GemmPlan& p, int level);

// Single-thread FMA rate of this host right now (a benchmark-side loop).
double fma_peak_flops_per_s();

// Runs every probe.  `facts` holds one report per distinct API call of the
// workload (its executed plans); `pool` is the workload's pool or null.
Metrics run_probes(Workload& w, const Warmup& facts,
                   strassen::parallel::ThreadPool* pool, UnitCosts* costs);

}  // namespace perfbench
