// Unit tests for workspace sizing (src/core/workspace and the baselines').
#include <gtest/gtest.h>

#include "baselines/dgefmm.hpp"
#include "baselines/dgemmw.hpp"
#include "core/workspace.hpp"

namespace strassen {
namespace {

TEST(WinogradWorkspace, DepthZeroNeedsNothing) {
  EXPECT_EQ(core::winograd_workspace_bytes(32, 32, 32, 0, sizeof(double)), 0u);
}

TEST(WinogradWorkspace, OneLevelIsTwoQuadrants) {
  // Depth 1 on t=8: the level's temporaries are (8x8) quadrants, rounded to
  // 64-byte chunks; tS and tP share one buffer, tT has the other.
  const std::size_t bytes =
      core::winograd_workspace_bytes(8, 8, 8, 1, sizeof(double));
  EXPECT_EQ(bytes, 2 * 512u);
}

TEST(WinogradWorkspace, GeometricDecayAcrossLevels) {
  // Each extra level adds temporaries 4x larger at the top; total stays
  // below (mk + kn + mn) * (1/3 geometric bound) + rounding slack.
  const int t = 16, d = 4;
  const std::size_t bytes =
      core::winograd_workspace_bytes(t, t, t, d, sizeof(double));
  const double full = 3.0 * (t << d) * (t << d) * sizeof(double);
  EXPECT_LT(static_cast<double>(bytes), full / 3.0 + 64.0 * 3 * d);
  EXPECT_GT(bytes, 0u);
}

TEST(WinogradWorkspace, MonotoneInDepthAndTiles) {
  std::size_t prev = 0;
  for (int d = 1; d <= 5; ++d) {
    const std::size_t b = core::winograd_workspace_bytes(16, 16, 16, d, 8);
    EXPECT_GT(b, prev);
    prev = b;
  }
  EXPECT_LT(core::winograd_workspace_bytes(16, 16, 16, 3, 8),
            core::winograd_workspace_bytes(32, 16, 16, 3, 8));
}

TEST(WinogradWorkspace, RejectsBadArguments) {
  EXPECT_THROW(core::winograd_workspace_bytes(0, 8, 8, 1, 8),
               std::invalid_argument);
  EXPECT_THROW(core::winograd_workspace_bytes(8, 8, 8, -1, 8),
               std::invalid_argument);
}

TEST(DgefmmWorkspace, ZeroBelowCutoff) {
  EXPECT_EQ(baselines::dgefmm_workspace_bytes(64, 64, 64, 64, 8), 0u);
  EXPECT_EQ(baselines::dgefmm_workspace_bytes(200, 32, 200, 64, 8), 0u);
}

TEST(DgefmmWorkspace, OneLevelAboveCutoff) {
  // 100^3 with cutoff 64 recurses once: temps are 50x50 triples.
  const std::size_t b = baselines::dgefmm_workspace_bytes(100, 100, 100, 64, 8);
  EXPECT_EQ(b, 3 * ((50 * 50 * 8 + 63) / 64) * 64u);
}

TEST(DgefmmWorkspace, HandlesOddChains) {
  // 129 -> even core 128 -> halves 64 (<= cutoff): exactly one level.
  const std::size_t b = baselines::dgefmm_workspace_bytes(129, 129, 129, 64, 8);
  EXPECT_EQ(b, 3 * ((64 * 64 * 8 + 63) / 64) * 64u);
}

TEST(DgemmwWorkspace, FiveTempsPerLevel) {
  // 100^3 with cutoff 64: one level, ceil-halves 50.
  const std::size_t per = ((50 * 50 * 8 + 63) / 64) * 64u;
  EXPECT_EQ(baselines::dgemmw_workspace_bytes(100, 100, 100, 64, 8), 5 * per);
}

TEST(DgemmwWorkspace, CeilHalvingCoversOddDims) {
  // 129 -> ceil half 65 (> cutoff 64!) -> 33: two levels.
  const std::size_t l1 = ((65 * 65 * 8 + 63) / 64) * 64u;
  const std::size_t l2 = ((33 * 33 * 8 + 63) / 64) * 64u;
  EXPECT_EQ(baselines::dgemmw_workspace_bytes(129, 129, 129, 64, 8),
            5 * l1 + 5 * l2);
}

}  // namespace
}  // namespace strassen
