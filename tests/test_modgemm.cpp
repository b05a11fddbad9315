// Integration tests for the MODGEMM public interface (src/core/modgemm).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <tuple>

#include "blas/gemm.hpp"
#include "common/matrix.hpp"
#include "common/rng.hpp"
#include "core/modgemm.hpp"

namespace strassen::core {
namespace {

// Exact check on integer data (Strassen-Winograd is exact over integers in
// double precision, see tests/test_winograd.cpp).
void expect_exact(Op opa, Op opb, int m, int n, int k, double alpha,
                  double beta, const ModgemmOptions& opt = {},
                  int extra_ld = 0) {
  Rng rng(static_cast<std::uint64_t>(m) * 7919 + n * 131 + k);
  const int ar = opa == Op::NoTrans ? m : k;
  const int ac = opa == Op::NoTrans ? k : m;
  const int br = opb == Op::NoTrans ? k : n;
  const int bc = opb == Op::NoTrans ? n : k;
  Matrix<double> A(ar, ac, ar + extra_ld);
  Matrix<double> B(br, bc, br + extra_ld);
  Matrix<double> C(m, n, m + extra_ld);
  Matrix<double> Ref(m, n, m + extra_ld);
  rng.fill_int(A.storage(), -3, 3);
  rng.fill_int(B.storage(), -3, 3);
  rng.fill_int(C.storage(), -3, 3);
  copy_matrix<double>(C.view(), Ref.view());

  blas::naive_gemm(opa, opb, m, n, k, alpha, A.data(), A.ld(), B.data(),
                   B.ld(), beta, Ref.data(), Ref.ld());
  ModgemmReport report;
  modgemm(opa, opb, m, n, k, alpha, A.data(), A.ld(), B.data(), B.ld(), beta,
          C.data(), C.ld(), opt, &report);
  EXPECT_EQ(max_abs_diff<double>(C.view(), Ref.view()), 0.0)
      << m << "x" << n << "x" << k << " op " << op_char(opa) << op_char(opb)
      << " alpha=" << alpha << " beta=" << beta;
}

TEST(Modgemm, PaperShowcaseSize513) {
  expect_exact(Op::NoTrans, Op::NoTrans, 513, 513, 513, 1.0, 0.0);
}

TEST(Modgemm, PowerOfTwo) {
  expect_exact(Op::NoTrans, Op::NoTrans, 256, 256, 256, 1.0, 0.0);
}

TEST(Modgemm, PrimeSize) {
  expect_exact(Op::NoTrans, Op::NoTrans, 211, 211, 211, 1.0, 0.0);
}

TEST(Modgemm, SmallSizesRunDirect) {
  ModgemmReport report;
  Matrix<double> A(40, 40), B(40, 40), C(40, 40);
  Rng rng(1);
  rng.fill_int(A.storage());
  rng.fill_int(B.storage());
  modgemm(Op::NoTrans, Op::NoTrans, 40, 40, 40, 1.0, A.data(), 40, B.data(),
          40, 0.0, C.data(), 40, {}, &report);
  EXPECT_TRUE(report.plan.direct || report.products == 1);
  Matrix<double> Ref(40, 40);
  blas::naive_gemm(Op::NoTrans, Op::NoTrans, 40, 40, 40, 1.0, A.data(), 40,
                   B.data(), 40, 0.0, Ref.data(), 40);
  EXPECT_EQ(max_abs_diff<double>(C.view(), Ref.view()), 0.0);
}

using OpParam = std::tuple<int, int>;
class ModgemmOps : public ::testing::TestWithParam<OpParam> {};

TEST_P(ModgemmOps, AllTransposeCombinations) {
  const auto [oa, ob] = GetParam();
  expect_exact(oa ? Op::Trans : Op::NoTrans, ob ? Op::Trans : Op::NoTrans, 150,
               130, 170, 1.0, 0.0);
}

TEST_P(ModgemmOps, TransposeWithAlphaBeta) {
  const auto [oa, ob] = GetParam();
  expect_exact(oa ? Op::Trans : Op::NoTrans, ob ? Op::Trans : Op::NoTrans, 129,
               142, 155, 2.0, -1.0);
}

INSTANTIATE_TEST_SUITE_P(Ops, ModgemmOps,
                         ::testing::Combine(::testing::Values(0, 1),
                                            ::testing::Values(0, 1)));

class ModgemmAlphaBeta
    : public ::testing::TestWithParam<std::tuple<double, double>> {};

TEST_P(ModgemmAlphaBeta, ScalingIsExact) {
  const auto [alpha, beta] = GetParam();
  expect_exact(Op::NoTrans, Op::NoTrans, 133, 127, 140, alpha, beta);
}

INSTANTIATE_TEST_SUITE_P(
    Scalars, ModgemmAlphaBeta,
    ::testing::Combine(::testing::Values(1.0, 0.0, 2.0, -0.5),
                       ::testing::Values(0.0, 1.0, -2.0)));

class ModgemmSizes : public ::testing::TestWithParam<int> {};

TEST_P(ModgemmSizes, SquareSweepExact) {
  const int n = GetParam();
  expect_exact(Op::NoTrans, Op::NoTrans, n, n, n, 1.0, 0.0);
}

INSTANTIATE_TEST_SUITE_P(PaperSizes, ModgemmSizes,
                         ::testing::Values(65, 100, 127, 128, 129, 150, 192,
                                           200, 255, 257, 300, 384, 500, 511,
                                           512, 513, 528));

class ModgemmRect : public ::testing::TestWithParam<std::tuple<int, int, int>> {
};

TEST_P(ModgemmRect, RectangularExact) {
  const auto [m, n, k] = GetParam();
  expect_exact(Op::NoTrans, Op::NoTrans, m, n, k, 1.0, 0.0);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, ModgemmRect,
    ::testing::Values(std::tuple{150, 300, 220}, std::tuple{300, 150, 100},
                      std::tuple{100, 100, 300}, std::tuple{257, 129, 385},
                      // paper's highly rectangular example
                      std::tuple{1024, 77, 256},
                      // shapes that force the split path
                      std::tuple{1200, 150, 80}, std::tuple{80, 150, 1200},
                      std::tuple{2100, 100, 100}, std::tuple{100, 2100, 100},
                      std::tuple{100, 100, 2100}));

TEST(ModgemmGrid, ExhaustiveSmallRectangularGrid) {
  // Every (m, k, n) combination over a grid straddling the direct threshold,
  // the tile range, odd/even parities, and the power-of-two boundary -- 343
  // exact product checks through the full driver.
  const int dims[] = {1, 7, 16, 33, 64, 65, 100};
  Rng rng(2024);
  for (int m : dims) {
    for (int k : dims) {
      for (int n : dims) {
        Matrix<double> A(m, k), B(k, n), C(m, n), Ref(m, n);
        rng.fill_int(A.storage(), -2, 2);
        rng.fill_int(B.storage(), -2, 2);
        blas::naive_gemm(Op::NoTrans, Op::NoTrans, m, n, k, 1.0, A.data(),
                         A.ld(), B.data(), B.ld(), 0.0, Ref.data(), Ref.ld());
        modgemm(Op::NoTrans, Op::NoTrans, m, n, k, 1.0, A.data(), A.ld(),
                B.data(), B.ld(), 0.0, C.data(), C.ld());
        ASSERT_EQ(max_abs_diff<double>(C.view(), Ref.view()), 0.0)
            << m << "x" << k << "x" << n;
      }
    }
  }
}

TEST(ModgemmSplit, SplitPathIsReportedAndCorrect) {
  // 2100 x 100 x 100 admits no common depth -> must split.
  const int m = 2100, k = 100, n = 100;
  Rng rng(3);
  Matrix<double> A(m, k), B(k, n), C(m, n), Ref(m, n);
  rng.fill_int(A.storage());
  rng.fill_int(B.storage());
  blas::naive_gemm(Op::NoTrans, Op::NoTrans, m, n, k, 1.0, A.data(), A.ld(),
                   B.data(), B.ld(), 0.0, Ref.data(), Ref.ld());
  ModgemmReport report;
  modgemm(Op::NoTrans, Op::NoTrans, m, n, k, 1.0, A.data(), A.ld(), B.data(),
          B.ld(), 0.0, C.data(), C.ld(), {}, &report);
  EXPECT_TRUE(report.split_used);
  EXPECT_GT(report.products, 1);
  EXPECT_EQ(max_abs_diff<double>(C.view(), Ref.view()), 0.0);
}

TEST(ModgemmSplit, SplitWithTransposedOperands) {
  // The split path's block-offset arithmetic must respect op(): stored
  // A is k x m when opa == Trans.
  expect_exact(Op::Trans, Op::NoTrans, 2100, 100, 100, 1.0, 0.0);
  expect_exact(Op::NoTrans, Op::Trans, 100, 2100, 100, 1.0, 0.0);
  expect_exact(Op::Trans, Op::Trans, 100, 100, 2100, 1.0, 0.0);
}

TEST(ModgemmSplit, SplitWithAlphaBetaAccumulatesOnce) {
  // The k-chunk loop must apply beta exactly once per C block.
  const int m = 100, k = 2100, n = 100;
  expect_exact(Op::NoTrans, Op::NoTrans, m, n, k, 3.0, -2.0);
}

TEST(ModgemmSplit, LowMemSplitPeaksAtItsLargestChunkProduct) {
  // A split C block runs its k-chunk products one after another, so a call
  // on the 2-buffer table needs no more workspace than its largest chunk
  // product run on its own.
  const int m = 100, k = 4000, n = 150;
  ModgemmOptions opt;
  Rng rng(5);
  Matrix<double> A(m, k), B(k, n), C(m, n), Cc(m, n);
  rng.fill_uniform(A.storage());
  rng.fill_uniform(B.storage());
  ModgemmReport report;
  modgemm(Op::NoTrans, Op::NoTrans, m, n, k, 1.0, A.data(), A.ld(), B.data(),
          B.ld(), 0.0, C.data(), C.ld(), opt, &report);
  ASSERT_TRUE(report.split_used);

  const layout::SplitPlan split = layout::plan_split(m, k, n, opt.tiles);
  ASSERT_EQ(split.m_chunks.size(), 1u);
  ASSERT_EQ(split.n_chunks.size(), 1u);
  ASSERT_GT(split.k_chunks.size(), 1u);
  std::size_t chunk_peak = 0;
  bool first = true;
  for (const layout::Chunk& ck : split.k_chunks) {
    ModgemmReport sub;
    modgemm(Op::NoTrans, Op::NoTrans, m, n, ck.size, 1.0,
            A.data() + static_cast<std::size_t>(ck.offset) * A.ld(), A.ld(),
            B.data() + ck.offset, B.ld(), first ? 0.0 : 1.0, Cc.data(),
            Cc.ld(), opt, &sub);
    EXPECT_FALSE(sub.split_used);
    chunk_peak = std::max(chunk_peak, sub.workspace_peak_bytes);
    first = false;
  }
  EXPECT_GT(chunk_peak, 0u);
  EXPECT_LE(report.workspace_peak_bytes, chunk_peak);
}

TEST(ModgemmEdge, StridedMatricesWork) {
  expect_exact(Op::NoTrans, Op::NoTrans, 150, 140, 160, 1.0, 1.0, {}, 11);
}

TEST(ModgemmEdge, DegenerateDimensionsFollowBlas) {
  Matrix<double> A(8, 8), B(8, 8), C(8, 8);
  for (auto& x : C.storage()) x = 5.0;
  // k = 0: C *= beta.
  modgemm(Op::NoTrans, Op::NoTrans, 8, 8, 0, 1.0, A.data(), 8, B.data(), 8,
          0.5, C.data(), 8);
  for (const auto& x : C.storage()) EXPECT_EQ(x, 2.5);
  // alpha = 0: likewise.
  modgemm(Op::NoTrans, Op::NoTrans, 8, 8, 8, 0.0, A.data(), 8, B.data(), 8,
          2.0, C.data(), 8);
  for (const auto& x : C.storage()) EXPECT_EQ(x, 5.0);
  // m = 0 / n = 0: nothing at all.
  modgemm(Op::NoTrans, Op::NoTrans, 0, 8, 8, 1.0, A.data(), 8, B.data(), 8,
          0.0, C.data(), 8);
  for (const auto& x : C.storage()) EXPECT_EQ(x, 5.0);
}

TEST(ModgemmEdge, RejectsBadLeadingDimensions) {
  Matrix<double> A(100, 100), B(100, 100), C(100, 100);
  EXPECT_THROW(modgemm(Op::NoTrans, Op::NoTrans, 100, 100, 100, 1.0, A.data(),
                       50, B.data(), 100, 0.0, C.data(), 100),
               std::invalid_argument);
  EXPECT_THROW(modgemm(Op::Trans, Op::NoTrans, 100, 100, 120, 1.0, A.data(),
                       100, B.data(), 120, 0.0, C.data(), 100),
               std::invalid_argument);
}

TEST(ModgemmEdge, AlphaZeroDoesNotReadNaNOperands) {
  // Reference BLAS does not touch A or B when alpha == 0: a NaN there must
  // never reach C, which is only scaled by beta.  Checked on a direct-path
  // size and on a Strassen-planned size.
  const double qnan = std::numeric_limits<double>::quiet_NaN();
  for (int n : {40, 150}) {
    Matrix<double> A(n, n), B(n, n), C(n, n);
    for (auto& x : A.storage()) x = qnan;
    for (auto& x : B.storage()) x = qnan;
    for (auto& x : C.storage()) x = 3.0;
    modgemm(Op::NoTrans, Op::NoTrans, n, n, n, 0.0, A.data(), n, B.data(), n,
            -0.5, C.data(), n);
    for (const auto& x : C.storage()) EXPECT_EQ(x, -1.5) << "n=" << n;
  }
}

TEST(ModgemmEdge, KZeroDoesNotReadNaNOperands) {
  // k == 0 is the same contract: C <- beta*C with A and B unread.
  const double qnan = std::numeric_limits<double>::quiet_NaN();
  const int m = 150, n = 130;
  Matrix<double> A(m, 1), B(1, n), C(m, n);
  for (auto& x : A.storage()) x = qnan;
  for (auto& x : B.storage()) x = qnan;
  for (auto& x : C.storage()) x = 4.0;
  modgemm(Op::NoTrans, Op::NoTrans, m, n, 0, 7.0, A.data(), m, B.data(), 1,
          0.25, C.data(), m);
  for (const auto& x : C.storage()) EXPECT_EQ(x, 1.0);
}

TEST(ModgemmEdge, EmptyMOrNLeavesCStorageUntouched) {
  Matrix<double> A(8, 8), B(8, 8), C(5, 8);
  for (auto& x : C.storage()) x = 9.0;
  modgemm(Op::NoTrans, Op::NoTrans, 0, 8, 8, 1.0, A.data(), 8, B.data(), 8,
          0.0, C.data(), 5);
  for (const auto& x : C.storage()) EXPECT_EQ(x, 9.0);
  modgemm(Op::NoTrans, Op::NoTrans, 5, 0, 8, 1.0, A.data(), 8, B.data(), 8,
          0.0, C.data(), 5);
  for (const auto& x : C.storage()) EXPECT_EQ(x, 9.0);
}

TEST(ModgemmEdge, OversizedLeadingDimensionsStayExact) {
  // Leading dimensions far beyond the row counts (sparse column spacing).
  expect_exact(Op::NoTrans, Op::Trans, 150, 130, 170, 2.0, -1.0, {}, 257);
  expect_exact(Op::Trans, Op::NoTrans, 65, 65, 65, 1.0, 1.0, {}, 512);
}

TEST(ModgemmEdge, RejectionMessagesCarryOffendingValues) {
  Matrix<double> A(100, 100), B(100, 100), C(100, 100);
  try {
    modgemm(Op::NoTrans, Op::NoTrans, 100, 100, 100, 1.0, A.data(), 50,
            B.data(), 100, 0.0, C.data(), 100);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("lda"), std::string::npos) << msg;
    EXPECT_NE(msg.find("50"), std::string::npos) << msg;
    EXPECT_NE(msg.find("100"), std::string::npos) << msg;
  }
  try {
    modgemm(Op::NoTrans, Op::NoTrans, -3, 10, 10, 1.0, A.data(), 100, B.data(),
            100, 0.0, C.data(), 100);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("m=-3"), std::string::npos)
        << e.what();
  }
}

TEST(ModgemmEdge, BetaZeroDoesNotReadC) {
  const int n = 150;
  Matrix<double> A(n, n), B(n, n), C(n, n);
  Rng rng(4);
  rng.fill_int(A.storage());
  rng.fill_int(B.storage());
  for (auto& x : C.storage()) x = std::numeric_limits<double>::quiet_NaN();
  modgemm(Op::NoTrans, Op::NoTrans, n, n, n, 1.0, A.data(), n, B.data(), n,
          0.0, C.data(), n);
  for (const auto& x : C.storage()) EXPECT_FALSE(std::isnan(x));
}

TEST(ModgemmReportTest, TimingBreakdownIsPopulated) {
  const int n = 300;
  Matrix<double> A(n, n), B(n, n), C(n, n);
  Rng rng(5);
  rng.fill_uniform(A.storage());
  rng.fill_uniform(B.storage());
  ModgemmReport report;
  // Asserts Morton-only conversion timers; the per-call pin keeps the test
  // meaningful under a forced STRASSEN_STRATEGY environment.
  ModgemmOptions opt;
  opt.strategy = layout::ExecStrategy::kMorton;
  modgemm(Op::NoTrans, Op::NoTrans, n, n, n, 1.0, A.data(), n, B.data(), n,
          0.0, C.data(), n, opt, &report);
  EXPECT_EQ(report.products, 1);
  EXPECT_FALSE(report.split_used);
  EXPECT_GT(report.compute_seconds, 0.0);
  EXPECT_GT(report.convert_in_seconds, 0.0);
  EXPECT_GE(report.convert_out_seconds, 0.0);
  EXPECT_GT(report.total_seconds(), 0.0);
  EXPECT_GT(report.conversion_fraction(), 0.0);
  EXPECT_LT(report.conversion_fraction(), 1.0);
  EXPECT_TRUE(report.plan.feasible);
  EXPECT_GE(report.plan.depth, 1);
}

TEST(ModgemmFixedTile, AblationModeMatchesNaive) {
  ModgemmOptions opt;
  opt.fixed_tile = 32;
  expect_exact(Op::NoTrans, Op::NoTrans, 200, 200, 200, 1.0, 0.0, opt);
  expect_exact(Op::NoTrans, Op::NoTrans, 513, 513, 513, 1.0, 0.0, opt);
}

TEST(ModgemmFixedTile, ReportsStaticPaddingPlan) {
  ModgemmOptions opt;
  opt.fixed_tile = 32;
  const int n = 513;
  Matrix<double> A(n, n), B(n, n), C(n, n);
  Rng rng(6);
  rng.fill_int(A.storage());
  rng.fill_int(B.storage());
  ModgemmReport report;
  modgemm(Op::NoTrans, Op::NoTrans, n, n, n, 1.0, A.data(), n, B.data(), n,
          0.0, C.data(), n, opt, &report);
  EXPECT_EQ(report.plan.m.padded, 1024);  // the paper's pathology
}

TEST(ModgemmFloat, SinglePrecisionInterface) {
  const int n = 150;
  Matrix<float> A(n, n), B(n, n), C(n, n), Ref(n, n);
  Rng rng(7);
  rng.fill_int(A.storage());
  rng.fill_int(B.storage());
  blas::naive_gemm(Op::NoTrans, Op::NoTrans, n, n, n, 1.0f, A.data(), n,
                   B.data(), n, 0.0f, Ref.data(), n);
  modgemm(Op::NoTrans, Op::NoTrans, n, n, n, 1.0f, A.data(), n, B.data(), n,
          0.0f, C.data(), n);
  EXPECT_EQ(max_abs_diff<float>(C.view(), Ref.view()), 0.0);
}

TEST(ModgemmOptionsTest, CustomTileRangeStillExact) {
  ModgemmOptions opt;
  opt.tiles.min_tile = 8;
  opt.tiles.max_tile = 32;
  opt.tiles.preferred_tile = 16;
  opt.tiles.direct_threshold = 32;
  expect_exact(Op::NoTrans, Op::NoTrans, 217, 190, 233, 1.0, 0.0, opt);
}

}  // namespace
}  // namespace strassen::core
