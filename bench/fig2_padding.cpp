// fig2_padding -- reproduces Figure 2: "Effect of tile size on padding".
//
// The paper plots, against the original matrix size n: the padded size with
// the tile chosen from [16,64] to minimize padding (the paper's window,
// layout::kPaperTileWindow, not the library default), the padded size with a
// fixed tile of 32, and the chosen tile size.  The expected shape: the
// dynamic-T padded size hugs n (pad bounded by a small constant, worst case
// 15), while the fixed-T line is a staircase of power-of-two cliffs reaching
// nearly 2x just past each cliff (513 -> 1024).
#include <algorithm>
#include <cstdio>

#include "layout/plan.hpp"
#include "support/bench_common.hpp"

using namespace strassen;

int main(int argc, char** argv) {
  const bench::BenchArgs args = bench::BenchArgs::parse(argc, argv);
  bench::banner("Figure 2",
                "Padding under dynamic tile selection (T in [16,64]) vs a "
                "fixed T = 32");

  Table table({"n", "padded(minimized)", "pad(min)", "padded(T=32)",
               "pad(T=32)", "chosen T", "depth"});
  args.maybe_mirror(table, "fig2_padding");

  int worst_dynamic_pad = 0;       // over the paper's range (n <= 1024)
  int worst_dynamic_pad_all = 0;   // over the whole sweep
  long long worst_fixed_pad = 0;
  const int step = args.quick ? 16 : 1;
  for (int n = 65; n <= 1200; n += step) {
    const layout::DimPlan dyn =
        layout::choose_dim(n, layout::kPaperTileWindow);
    const layout::DimPlan fixed = layout::fixed_tile_dim(n, 32);
    if (n <= 1024) worst_dynamic_pad = std::max(worst_dynamic_pad, dyn.pad());
    worst_dynamic_pad_all = std::max(worst_dynamic_pad_all, dyn.pad());
    worst_fixed_pad = std::max<long long>(worst_fixed_pad, fixed.pad());
    // Print a readable subset of rows; the CSV mirror gets everything.
    if (n % (args.quick ? 64 : 32) == 1 || dyn.pad() >= 14) {
      table.add_row({Table::num(static_cast<long long>(n)),
                     Table::num(static_cast<long long>(dyn.padded)),
                     Table::num(static_cast<long long>(dyn.pad())),
                     Table::num(static_cast<long long>(fixed.padded)),
                     Table::num(static_cast<long long>(fixed.pad())),
                     Table::num(static_cast<long long>(dyn.tile)),
                     Table::num(static_cast<long long>(dyn.depth))});
    }
  }
  table.print();
  std::printf(
      "\nWorst dynamic-selection pad for n <= 1024: %d elements per "
      "dimension (paper: 15).  The bound is\n2^depth - 1, so it steps to %d "
      "once n exceeds 1024 (depth 5).\n",
      worst_dynamic_pad, worst_dynamic_pad_all);
  std::printf(
      "Worst fixed-T=32 pad over the sweep: %lld elements per dimension "
      "(paper: ~n just past a power of two, e.g. 513 -> 1024).\n",
      worst_fixed_pad);
  const layout::DimPlan p513 =
      layout::choose_dim(513, layout::kPaperTileWindow);
  std::printf(
      "Paper worked example n=513: chosen T=%d depth=%d padded=%d (paper: "
      "T=33, depth 4, padded 528).\n",
      p513.tile, p513.depth, p513.padded);
  return 0;
}
