// ablation_truncation -- isolates the paper's dynamic truncation-point
// selection: MODGEMM with the dynamic planner vs MODGEMM forced to a fixed
// T = 32 (static padding), everything else identical.
//
// Expected shape: near powers of two the two coincide; just past a power of
// two (513, 650, 800...) the fixed-T variant pays for up to 2x padding in
// every dimension (up to ~8x the arithmetic) while dynamic selection stays
// flat.  DESIGN.md calls this ablation out as the heart of the paper's
// contribution.
#include <cstdio>

#include "core/modgemm.hpp"
#include "layout/plan.hpp"
#include "support/bench_common.hpp"

using namespace strassen;

int main(int argc, char** argv) {
  const bench::BenchArgs args = bench::BenchArgs::parse(argc, argv);
  bench::banner("Ablation: truncation point",
                "MODGEMM with dynamic tile selection vs forced fixed T = 32 "
                "(static padding)");

  Table table({"n", "dynamic(s)", "fixed32(s)", "fixed/dynamic",
               "padded(dyn)", "padded(fix)"});
  args.maybe_mirror(table, "ablation_truncation");

  std::vector<int> sizes = args.quick
                               ? std::vector<int>{500, 513, 700}
                               : std::vector<int>{256, 300, 400, 500, 511, 512,
                                                  513, 520, 600, 700, 800};
  for (int n : sizes) {
    bench::Problem p(n, n, n, static_cast<std::uint64_t>(n) * 11);
    const MeasureOptions opt = bench::protocol(args, n);
    // The dynamic arm searches the paper's window, which holds T = 32.
    core::ModgemmOptions dyn;
    dyn.tiles = layout::kPaperTileWindow;
    core::ModgemmOptions fixed;
    fixed.fixed_tile = 32;
    auto run = [&](const core::ModgemmOptions& o) {
      return measure(
          [&] {
            core::modgemm(Op::NoTrans, Op::NoTrans, n, n, n, 1.0, p.A.data(),
                          p.A.ld(), p.B.data(), p.B.ld(), 0.0, p.C.data(),
                          p.C.ld(), o);
          },
          opt);
    };
    const double t_dyn = run(dyn);
    const double t_fix = run(fixed);
    table.add_row(
        {Table::num(static_cast<long long>(n)), Table::num(t_dyn, 4),
         Table::num(t_fix, 4), Table::num(t_fix / t_dyn, 2),
         Table::num(static_cast<long long>(
             layout::choose_dim(n, dyn.tiles).padded)),
         Table::num(static_cast<long long>(layout::fixed_tile_dim(n, 32).padded))});
  }
  table.print();
  std::printf(
      "\nExpected shape: fixed/dynamic ~1.0 at and below powers of two, "
      "jumping sharply just past them\n(513: padded 528 vs 1024).\n");
  return 0;
}
