// Tests for the empirical parameter survey (src/tune/autotune).  Timing
// outcomes are machine-dependent, so assertions target structure, bounds,
// and that the tuned configuration remains CORRECT -- not specific winners.
#include <gtest/gtest.h>

#include <algorithm>

#include "blas/gemm.hpp"
#include "common/matrix.hpp"
#include "common/rng.hpp"
#include "core/modgemm.hpp"
#include "tune/autotune.hpp"

namespace strassen::tune {
namespace {

AutotuneOptions cheap() {
  AutotuneOptions opt;
  opt.candidate_tiles = {16, 32, 64, 128};
  opt.crossover_sizes = {64, 128};
  opt.strategy_sizes = {96, 160};
  opt.repetitions = 1;
  return opt;
}

TEST(Autotune, ProducesValidPlannerOptions) {
  const AutotuneResult r = autotune(cheap());
  EXPECT_GE(r.tiles.min_tile, 1);
  EXPECT_GE(r.tiles.max_tile, 2 * r.tiles.min_tile);
  EXPECT_GE(r.tiles.preferred_tile, r.tiles.min_tile);
  EXPECT_LE(r.tiles.preferred_tile, r.tiles.max_tile);
  EXPECT_GE(r.tiles.direct_threshold, r.tiles.max_tile);
  EXPECT_LE(r.tiles.direct_threshold, 512);
}

TEST(Autotune, DefaultCandidatesSpanThePlannerWindow) {
  // A survey that stopped short of the default max_tile would shrink the
  // tuned range below the untuned one.
  const AutotuneOptions opt;
  const layout::TileOptions tiles;
  EXPECT_EQ(*std::min_element(opt.candidate_tiles.begin(),
                              opt.candidate_tiles.end()),
            tiles.min_tile);
  EXPECT_EQ(*std::max_element(opt.candidate_tiles.begin(),
                              opt.candidate_tiles.end()),
            tiles.max_tile);
}

TEST(Autotune, LargeTileSurveyKeepsProbesValid) {
  // A lone candidate of 128 yields the range [64, 128], so the crossover
  // probe plans with min_tile 32, above a quarter of its smallest size (64).
  // Its direct threshold must still satisfy the planner's
  // direct_threshold >= min_tile.
  AutotuneOptions opt = cheap();
  opt.candidate_tiles = {128};
  const AutotuneResult r = autotune(opt);
  EXPECT_EQ(r.tiles.min_tile, 64);
  EXPECT_EQ(r.tiles.max_tile, 128);
  EXPECT_EQ(r.crossover_probe.size(), opt.crossover_sizes.size());
}

TEST(Autotune, SurveyAndProbeArePopulated) {
  const AutotuneOptions opt = cheap();
  const AutotuneResult r = autotune(opt);
  ASSERT_EQ(r.leaf_survey.size(), opt.candidate_tiles.size());
  for (const auto& [tile, rate] : r.leaf_survey) {
    EXPECT_GT(rate, 0.0) << "tile " << tile;
  }
  ASSERT_EQ(r.crossover_probe.size(), opt.crossover_sizes.size());
  for (const auto& p : r.crossover_probe) {
    EXPECT_GT(p.conventional_seconds, 0.0);
    EXPECT_GT(p.strassen_seconds, 0.0);
  }
  ASSERT_EQ(r.strategy_probe.size(), opt.strategy_sizes.size());
  int deepest_win = 0;
  for (const auto& p : r.strategy_probe) {
    EXPECT_GT(p.morton_seconds, 0.0);
    EXPECT_GT(p.packfused_seconds, 0.0);
    EXPECT_GE(p.depth, 1) << "probe " << p.n << " did not recurse";
    if (p.packfused_seconds < p.morton_seconds)
      deepest_win = std::max(deepest_win, p.depth);
  }
  // The tuned cutoff is exactly the deepest probe pack-fused won.
  EXPECT_EQ(r.tiles.packfused_max_depth, deepest_win);
}

TEST(Autotune, StrategySurveyCanBeDisabled) {
  AutotuneOptions opt = cheap();
  opt.survey_strategy = false;
  const AutotuneResult r = autotune(opt);
  EXPECT_TRUE(r.strategy_probe.empty());
  // The planner default is preserved untouched.
  EXPECT_EQ(r.tiles.packfused_max_depth,
            layout::TileOptions{}.packfused_max_depth);
}

TEST(Autotune, TunedOptionsStayExact) {
  const AutotuneResult r = autotune(cheap());
  core::ModgemmOptions opt;
  opt.tiles = r.tiles;
  const int n = 300;
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

TEST(Autotune, RejectsBadOptions) {
  AutotuneOptions opt;
  opt.candidate_tiles.clear();
  EXPECT_THROW(autotune(opt), std::invalid_argument);
  AutotuneOptions opt2;
  opt2.tolerance = 0.0;
  EXPECT_THROW(autotune(opt2), std::invalid_argument);
}

}  // namespace
}  // namespace strassen::tune
