// Tests for conflict-aware tile selection (the library's completion of the
// paper's S4.2 future work: eliminating the quadrant conflict misses behind
// Fig. 9's elevated ratios at n in [505,512]).
#include <gtest/gtest.h>

#include "blas/gemm.hpp"
#include "common/matrix.hpp"
#include "common/rng.hpp"
#include "core/modgemm.hpp"
#include "layout/plan.hpp"
#include "trace/memmodel.hpp"
#include "trace/presets.hpp"

namespace strassen::layout {
namespace {

// The conflict zone is the paper's story, so these tests plan under its
// window.
TileOptions avoiding_16kb() {
  TileOptions opt = kPaperTileWindow;
  opt.avoid_conflict_cache_bytes = 16 * 1024;
  return opt;
}

TEST(ConflictAvoidance, DisabledByDefault) {
  const TileOptions opt;
  EXPECT_FALSE(opt.tile_conflicts(32));
  // the paper's (conflicting) choice
  EXPECT_EQ(choose_dim(512, kPaperTileWindow).tile, 32);
}

TEST(ConflictAvoidance, FlagsAlignedTiles) {
  const TileOptions opt = avoiding_16kb();
  // 2 * 32^2 * 8 = 16KB: leaf-level alignment.
  EXPECT_TRUE(opt.tile_conflicts(32));
  // 2 * 64^2 * 8 = 64KB: multiple of 16KB.
  EXPECT_TRUE(opt.tile_conflicts(64));
  // Tile 16 aligns one level up (2x2 groups are 16KB apart).
  EXPECT_TRUE(opt.tile_conflicts(16));
  // Odd tiles have odd T^2: separations are never 2^14-divisible at any
  // nearby level.
  EXPECT_FALSE(opt.tile_conflicts(33));
  EXPECT_FALSE(opt.tile_conflicts(17));
  EXPECT_FALSE(opt.tile_conflicts(63));
}

TEST(ConflictAvoidance, BumpsTheTileAtPowersOfTwo) {
  const TileOptions opt = avoiding_16kb();
  // n = 512 naturally wants T=32/padded 512 (all aligned); the avoider pays
  // 16 pad elements for T=33/padded 528 instead.
  const GemmPlan p = plan_gemm(512, 512, 512, opt);
  ASSERT_TRUE(p.feasible);
  EXPECT_FALSE(opt.tile_conflicts(p.m.tile));
  EXPECT_EQ(p.m.tile, 33);
  EXPECT_EQ(p.m.padded, 528);
}

TEST(ConflictAvoidance, LeavesNonConflictingSizesAlone) {
  const TileOptions opt = avoiding_16kb();
  const DimPlan with = choose_dim(513, opt);
  const DimPlan without = choose_dim(513, kPaperTileWindow);
  EXPECT_EQ(with.tile, without.tile);
  EXPECT_EQ(with.padded, without.padded);
}

TEST(ConflictAvoidance, ResultsRemainExact) {
  core::ModgemmOptions opt;
  opt.tiles.avoid_conflict_cache_bytes = 16 * 1024;
  const int n = 512;
  Rng rng(1);
  Matrix<double> A(n, n), B(n, n), C(n, n), Ref(n, n);
  rng.fill_int(A.storage());
  rng.fill_int(B.storage());
  blas::naive_gemm(Op::NoTrans, Op::NoTrans, n, n, n, 1.0, A.data(), n,
                   B.data(), n, 0.0, Ref.data(), n);
  core::modgemm(Op::NoTrans, Op::NoTrans, n, n, n, 1.0, A.data(), n, B.data(),
                n, 0.0, C.data(), n, opt);
  EXPECT_EQ(max_abs_diff<double>(C.view(), Ref.view()), 0.0);
}

TEST(CapacityAwareness, DisabledByDefault) {
  // n = 1000 minimizes padding with T = 63 (padded 1008) -- a 93KB
  // three-tile working set.  The paper's pure-padding objective keeps it.
  const DimPlan p = choose_dim(1000, kPaperTileWindow);
  EXPECT_EQ(p.tile, 63);
  EXPECT_EQ(p.padded, 1008);
}

TEST(CapacityAwareness, PrefersDeeperRecursionOverOversizedTiles) {
  TileOptions opt;
  opt.max_tile_working_set_bytes = 48 * 1024;  // a 48KB L1 budget
  EXPECT_TRUE(opt.tile_oversized(63));   // 3*63^2*8 = 95KB
  EXPECT_FALSE(opt.tile_oversized(32));  // 24KB
  const DimPlan p = choose_dim(1000, opt);
  EXPECT_FALSE(opt.tile_oversized(p.tile));
  EXPECT_EQ(p.tile, 32);  // depth 5, padded 1024: fits the budget
  EXPECT_EQ(p.padded, 1024);
}

TEST(CapacityAwareness, ResultsRemainExactWithBothHeuristics) {
  core::ModgemmOptions opt;
  opt.tiles.avoid_conflict_cache_bytes = 16 * 1024;
  opt.tiles.max_tile_working_set_bytes = 16 * 1024;
  const int n = 1000;
  Rng rng(5);
  Matrix<double> A(n, n), B(n, n), C(n, n), Ref(n, n);
  rng.fill_int(A.storage(), -2, 2);
  rng.fill_int(B.storage(), -2, 2);
  blas::naive_gemm(Op::NoTrans, Op::NoTrans, n, n, n, 1.0, A.data(), n,
                   B.data(), n, 0.0, Ref.data(), n);
  core::modgemm(Op::NoTrans, Op::NoTrans, n, n, n, 1.0, A.data(), n, B.data(),
                n, 0.0, C.data(), n, opt);
  EXPECT_EQ(max_abs_diff<double>(C.view(), Ref.view()), 0.0);
}

TEST(ConflictAvoidance, EliminatesTheFig9ConflictZone) {
  // The payoff: at n = 508 (inside the paper's conflict zone) the avoider's
  // simulated miss ratio must come down to (or below) the n=513 level.
  const int n = 508;
  Rng rng(2);
  Matrix<double> A(n, n), B(n, n), C(n, n);
  rng.fill_uniform(A.storage());
  rng.fill_uniform(B.storage());
  auto run = [&](std::size_t avoid_bytes) {
    trace::CacheHierarchy h = trace::paper_fig9_cache();
    trace::TracingMem mm(h);
    core::ModgemmOptions opt;
    opt.tiles = kPaperTileWindow;
    opt.tiles.avoid_conflict_cache_bytes = avoid_bytes;
    core::modgemm_mm(mm, Op::NoTrans, Op::NoTrans, n, n, n, 1.0, A.data(), n,
                     B.data(), n, 0.0, C.data(), n, opt);
    return h.l1_miss_ratio();
  };
  const double baseline = run(0);
  const double avoided = run(16 * 1024);
  EXPECT_LT(avoided, 0.6 * baseline);
}

}  // namespace
}  // namespace strassen::layout
