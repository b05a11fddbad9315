// ablation_conflict -- the paper's S4.2 ends with "We are currently
// examining ways to eliminate these conflict misses."  This bench evaluates
// this library's answer: conflict-aware tile selection
// (TileOptions::avoid_conflict_cache_bytes), which pays a few extra pad
// elements to keep sibling-quadrant separations off multiples of the cache
// size.
//
// Re-runs the Fig. 9 sweep (16KB direct-mapped, 32B blocks, n = 500..523)
// under the paper's tile window with the avoider on and off.  Expected
// shape: the elevated plateau at n in [505,512] (tile 32, quadrants 16KB
// apart) collapses to the n=513 level, at the cost of <= 4% more padded
// elements per dimension.
#include <cstdio>

#include "core/modgemm.hpp"
#include "layout/plan.hpp"
#include "support/bench_common.hpp"
#include "trace/memmodel.hpp"
#include "trace/presets.hpp"
#include "trace/traced_run.hpp"

using namespace strassen;

namespace {

// trace_multiply with planner options is not exposed; inline the run here.
double miss_ratio(int n, std::size_t avoid_bytes) {
  Rng rng(static_cast<std::uint64_t>(n));
  Matrix<double> A(n, n), B(n, n), C(n, n);
  rng.fill_uniform(A.storage());
  rng.fill_uniform(B.storage());
  trace::CacheHierarchy h = trace::paper_fig9_cache();
  trace::TracingMem mm(h);
  core::ModgemmOptions opt;
  opt.tiles = layout::kPaperTileWindow;
  opt.tiles.avoid_conflict_cache_bytes = avoid_bytes;
  core::modgemm_mm(mm, Op::NoTrans, Op::NoTrans, n, n, n, 1.0, A.data(), n,
                   B.data(), n, 0.0, C.data(), n, opt);
  return h.l1_miss_ratio();
}

}  // namespace

int main(int argc, char** argv) {
  const bench::BenchArgs args = bench::BenchArgs::parse(argc, argv);
  bench::banner("Ablation: conflict-aware tile selection (S4.2 future work)",
                "Fig. 9 sweep with and without quadrant-conflict avoidance "
                "(16KB direct-mapped, 32B blocks)");

  Table table({"n", "miss% (paper planner)", "miss% (conflict-aware)",
               "tile(paper)", "tile(aware)", "padded(aware)"});
  args.maybe_mirror(table, "ablation_conflict");

  layout::TileOptions aware = layout::kPaperTileWindow;
  aware.avoid_conflict_cache_bytes = 16 * 1024;
  const int step = args.quick ? 4 : 1;
  for (int n = 500; n <= 523; n += step) {
    const double base = miss_ratio(n, 0);
    const double avoided = miss_ratio(n, 16 * 1024);
    const layout::DimPlan p0 =
        layout::choose_dim(n, layout::kPaperTileWindow);
    const layout::DimPlan p1 = layout::choose_dim(n, aware);
    table.add_row({Table::num(static_cast<long long>(n)),
                   Table::num(100.0 * base, 3), Table::num(100.0 * avoided, 3),
                   Table::num(static_cast<long long>(p0.tile)),
                   Table::num(static_cast<long long>(p1.tile)),
                   Table::num(static_cast<long long>(p1.padded))});
  }
  table.print();
  std::printf(
      "\nExpected shape: the paper-planner column shows the [505,512] "
      "conflict plateau; the aware\ncolumn is flat at the post-513 level "
      "across the whole sweep.\n");
  return 0;
}
