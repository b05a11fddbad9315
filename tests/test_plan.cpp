// Unit and property tests for the truncation-point planner (src/layout/plan).
//
// The paper's worked examples (S3.4) are hard requirements under its window
// (kPaperTileWindow, T in [16, 64]):
//   n = 513: T = 33, depth 4, padded 528 (pad 15 -- the worst case for the
//            16..64 range at this scale);
//   n in [505, 512]: padded 512, T = 32, depth 4;
//   fixed T = 32 at n = 513: padded 1024.
#include <gtest/gtest.h>

#include "layout/plan.hpp"

namespace strassen::layout {
namespace {

TEST(ChooseDim, PaperExampleN513) {
  const DimPlan p = choose_dim(513, kPaperTileWindow);
  EXPECT_EQ(p.tile, 33);
  EXPECT_EQ(p.depth, 4);
  EXPECT_EQ(p.padded, 528);
  EXPECT_EQ(p.pad(), 15);
}

TEST(ChooseDim, PaperExample505To512) {
  for (int n = 505; n <= 512; ++n) {
    const DimPlan p = choose_dim(n, kPaperTileWindow);
    EXPECT_EQ(p.padded, 512) << "n=" << n;
    EXPECT_EQ(p.tile, 32) << "n=" << n;
    EXPECT_EQ(p.depth, 4) << "n=" << n;
  }
}

TEST(FixedTile, PaperPathologyN513) {
  const DimPlan p = fixed_tile_dim(513, 32);
  EXPECT_EQ(p.padded, 1024);
  EXPECT_EQ(p.depth, 5);
}

TEST(FixedTile, ExactPowerNeedsNoPad) {
  const DimPlan p = fixed_tile_dim(512, 32);
  EXPECT_EQ(p.padded, 512);
  EXPECT_EQ(p.depth, 4);
  EXPECT_EQ(p.pad(), 0);
}

TEST(FixedTile, SmallMatrixStaysAtDepthZero) {
  const DimPlan p = fixed_tile_dim(20, 32);
  EXPECT_EQ(p.depth, 0);
  EXPECT_EQ(p.padded, 32);
}

TEST(ChooseDim, SmallSizesRunDirect) {
  for (int n : {1, 7, 16, 33, 64}) {
    const DimPlan p = choose_dim(n);
    EXPECT_EQ(p.depth, 0) << "n=" << n;
    EXPECT_EQ(p.pad(), 0) << "n=" << n;
    EXPECT_EQ(p.tile, n) << "n=" << n;
  }
}

// Property sweep over every size the paper's evaluation touches and beyond.
class ChooseDimSweep : public ::testing::TestWithParam<int> {};

TEST_P(ChooseDimSweep, InvariantsHold) {
  const int n = GetParam();
  const TileOptions opt;
  const DimPlan p = choose_dim(n, opt);
  // Padded size covers n and factors exactly as tile * 2^depth.
  EXPECT_GE(p.padded, n);
  EXPECT_EQ(p.padded, p.tile << p.depth);
  if (p.depth > 0) {
    EXPECT_GE(p.tile, opt.min_tile);
    EXPECT_LE(p.tile, opt.max_tile);
    // The paper's bound: with the 16..64 range, padding never exceeds
    // 2^depth - 1 (15 in the worst case for n <= 1024-scale problems).
    EXPECT_LT(p.pad(), 1 << p.depth);
  }
}

TEST_P(ChooseDimSweep, NoFeasibleDepthPadsLess) {
  const int n = GetParam();
  const TileOptions opt;
  const DimPlan best = choose_dim(n, opt);
  if (best.depth == 0) return;
  for (int d : feasible_depths(n, opt)) {
    if (d == 0) continue;
    const DimPlan cand = choose_dim_at_depth(n, d, opt);
    ASSERT_NE(cand.tile, 0);
    EXPECT_GE(cand.pad(), best.pad()) << "depth " << d << " beats the choice";
  }
}

INSTANTIATE_TEST_SUITE_P(PaperRange, ChooseDimSweep,
                         ::testing::Range(65, 1300, 7));
INSTANTIATE_TEST_SUITE_P(Large, ChooseDimSweep,
                         ::testing::Values(2048, 2049, 3000, 4097, 8191));

TEST(ChooseDimAtDepth, InfeasibleWhenTileOutOfRange) {
  // depth 1 for n = 513 would need tile 257 > 64.
  EXPECT_EQ(choose_dim_at_depth(513, 1).tile, 0);
  // depth 6 for n = 513 would need tile 9 < 16.
  EXPECT_EQ(choose_dim_at_depth(513, 6).tile, 0);
  // depth 0 feasible only when n itself fits a "tile".
  EXPECT_EQ(choose_dim_at_depth(513, 0).tile, 0);
  EXPECT_EQ(choose_dim_at_depth(60, 0).tile, 60);
}

TEST(FeasibleDepths, WindowIsContiguousAndCorrect) {
  const auto ds = feasible_depths(513, kPaperTileWindow);
  ASSERT_EQ(ds.size(), 2u);  // depths 4 and 5 (tiles 33 and 17)
  EXPECT_EQ(ds[0], 4);
  EXPECT_EQ(ds[1], 5);
}

// The default window [16, 128], preferred 64, unfolds the perfbench
// squares one level less than the paper's window (d5, T = 32 / 33).
TEST(PlanGemm, DefaultWindowPlansSquaresOneLevelShallower) {
  for (const auto& [n, tile] : {std::pair{1024, 64}, std::pair{1025, 65}}) {
    const GemmPlan p = plan_gemm(n, n, n);
    ASSERT_TRUE(p.feasible) << "n=" << n;
    EXPECT_EQ(p.depth, 4) << "n=" << n;
    EXPECT_EQ(p.m.tile, tile) << "n=" << n;
    EXPECT_EQ(p.k.tile, tile) << "n=" << n;
    EXPECT_EQ(p.n.tile, tile) << "n=" << n;
    EXPECT_EQ(plan_gemm(n, n, n, kPaperTileWindow).depth, 5) << "n=" << n;
  }
}

TEST(FeasibleDepths, EveryListedDepthIsActuallyFeasible) {
  for (int n : {100, 256, 513, 1000, 1024}) {
    for (int d : feasible_depths(n)) {
      EXPECT_NE(choose_dim_at_depth(n, d).tile, 0) << "n=" << n << " d=" << d;
    }
  }
}

TEST(PlanGemm, SquareProblemsUseOneDepth) {
  const GemmPlan p = plan_gemm(700, 700, 700);
  EXPECT_TRUE(p.feasible);
  EXPECT_FALSE(p.direct);
  EXPECT_EQ(p.m.depth, p.k.depth);
  EXPECT_EQ(p.k.depth, p.n.depth);
  EXPECT_EQ(p.m.tile, p.k.tile);
}

TEST(PlanGemm, ThinProblemsGoDirect) {
  EXPECT_TRUE(plan_gemm(1000, 64, 1000).direct);
  EXPECT_TRUE(plan_gemm(10, 10, 10).direct);
  EXPECT_TRUE(plan_gemm(1, 1000, 1000).direct);
}

TEST(PlanGemm, PaperRectangular1024x256IsFeasibleWithFullRange) {
  // The paper's 1024 x 256 example: choosing both tiles independently as 32
  // fails (depths 5 vs 3), but the full 16..64 range admits depth 4 with
  // tiles 64 and 16.
  const GemmPlan p = plan_gemm(1024, 256, 1024);
  EXPECT_TRUE(p.feasible);
  EXPECT_EQ(p.m.depth, p.k.depth);
}

TEST(PlanGemm, ExtremeAspectRatioIsInfeasible) {
  const GemmPlan p = plan_gemm(4096, 256, 4096);
  EXPECT_FALSE(p.direct);
  EXPECT_FALSE(p.feasible);
}

TEST(PlanGemm, MildRectangularSweepSharesDepth) {
  // Dimensions within a factor of two always share a depth.  (A factor of
  // four -- e.g. 150 vs 600 -- can already fall between depth windows, which
  // is exactly what the split path exists for; see test_split.cpp.)
  for (int m : {150, 200, 300}) {
    for (int k : {150, 200, 300}) {
      for (int n : {150, 200, 300}) {
        const GemmPlan p = plan_gemm(m, k, n);
        ASSERT_TRUE(p.feasible || p.direct) << m << "x" << k << "x" << n;
        if (!p.direct) {
          EXPECT_EQ(p.m.depth, p.n.depth);
          EXPECT_GE(p.m.padded, m);
          EXPECT_GE(p.k.padded, k);
          EXPECT_GE(p.n.padded, n);
        }
      }
    }
  }
}

TEST(PlanGemm, FactorOfFourCanStraddleDepthWindows) {
  // Under the paper's window 150 admits depths {2,3} and 600 admits {4,5}:
  // no common depth.  The driver must route such shapes through the
  // splitter.
  const GemmPlan p = plan_gemm(150, 600, 150, kPaperTileWindow);
  EXPECT_FALSE(p.direct);
  EXPECT_FALSE(p.feasible);
}

TEST(ChooseDim, WindowGapFallsBackToDepthZero) {
  // direct_threshold < n < 2*min_tile: no depth >= 1 is feasible (ceil(n/2)
  // undershoots min_tile) yet n is above the direct threshold.  The fallback
  // must return the depth-0 single-tile plan, never a zero tile.
  TileOptions opt;
  opt.min_tile = 12;
  opt.max_tile = 32;
  opt.preferred_tile = 12;
  opt.direct_threshold = 16;
  const DimPlan p = choose_dim(22, opt);
  EXPECT_EQ(p.tile, 22);
  EXPECT_EQ(p.depth, 0);
  EXPECT_EQ(p.padded, 22);
}

TEST(PlanGemm, WindowGapDimsRunDirect) {
  // All three dims fit one tile but 22 sits in the window gap, so no common
  // depth >= 1 exists.  Splitting cannot help (chunks would be no larger),
  // so the plan must degrade to direct -- the autotuner's crossover probe
  // hits exactly this shape when a forced <3,2,3> family ceil-partitions a
  // 64^3 product into 22x22x32 sub-products under tiles {12,32,12,16}.
  TileOptions opt;
  opt.min_tile = 12;
  opt.max_tile = 32;
  opt.preferred_tile = 12;
  opt.direct_threshold = 16;
  const GemmPlan p = plan_gemm(22, 32, 22, opt);
  EXPECT_TRUE(p.direct);
  EXPECT_EQ(p.m.tile, 22);
  EXPECT_EQ(p.k.tile, 32);
  EXPECT_EQ(p.n.tile, 22);
}

TEST(TileOptions, ValidationRejectsDegenerateRanges) {
  TileOptions bad;
  bad.min_tile = 40;
  bad.max_tile = 64;  // less than 2x min: depth windows would not overlap
  EXPECT_THROW(choose_dim(100, bad), std::invalid_argument);
  TileOptions bad2;
  bad2.min_tile = 0;
  EXPECT_THROW(choose_dim(100, bad2), std::invalid_argument);
}

TEST(TileOptions, CustomRangeIsHonored) {
  TileOptions opt;
  opt.min_tile = 8;
  opt.max_tile = 32;
  opt.preferred_tile = 16;
  opt.direct_threshold = 32;
  const DimPlan p = choose_dim(513, opt);
  EXPECT_GE(p.tile, 8);
  EXPECT_LE(p.tile, 32);
  EXPECT_GE(p.padded, 513);
  EXPECT_EQ(p.padded, p.tile << p.depth);
}

TEST(PlanGemm, PaddedElemsCountsAllThreeOperands) {
  GemmPlan p;
  p.m = DimPlan{100, 25, 2, 100};
  p.k = DimPlan{200, 50, 2, 200};
  p.n = DimPlan{300, 75, 2, 300};
  EXPECT_EQ(p.padded_elems(), 100ll * 200 + 200ll * 300 + 100ll * 300);
}

}  // namespace
}  // namespace strassen::layout
