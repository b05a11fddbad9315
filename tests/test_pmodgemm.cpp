// Tests for the task-parallel MODGEMM (src/parallel/pmodgemm).
//
// The central property: pmodgemm performs the SAME floating-point operations
// as the serial core::modgemm (the spawn-level combination is commutatively
// identical and the sub-recursions are the serial code), so results must be
// BIT-IDENTICAL for every thread count and spawn depth -- on real data, not
// just integers.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstring>
#include <limits>
#include <memory>
#include <stdexcept>
#include <tuple>

#include "common/matrix.hpp"
#include "common/rng.hpp"
#include "core/modgemm.hpp"
#include "layout/morton.hpp"
#include "obs/report.hpp"
#include "parallel/pmodgemm.hpp"

namespace strassen::parallel {
namespace {

// Pooled result against the serial one for an n x n x n product: bit
// identical.
void expect_matches_serial(const Matrix<double>& serial,
                           const Matrix<double>& pooled) {
  ASSERT_EQ(serial.storage().size(), pooled.storage().size());
  EXPECT_EQ(std::memcmp(serial.data(), pooled.data(),
                        serial.storage().size() * sizeof(double)),
            0);
}

using Param = std::tuple<int, int, int>;  // n, threads, spawn_levels
class Pmodgemm : public ::testing::TestWithParam<Param> {};

TEST_P(Pmodgemm, BitIdenticalToSerial) {
  const auto [n, threads, spawn] = GetParam();
  Rng rng(static_cast<std::uint64_t>(n) * 31 + threads);
  Matrix<double> A(n, n), B(n, n), Cs(n, n), Cp(n, n);
  rng.fill_uniform(A.storage());
  rng.fill_uniform(B.storage());

  core::modgemm(Op::NoTrans, Op::NoTrans, n, n, n, 1.0, A.data(), n, B.data(),
                n, 0.0, Cs.data(), n);
  ThreadPool pool(threads);
  ParallelOptions opt;
  opt.spawn_levels = spawn;
  pmodgemm(&pool, Op::NoTrans, Op::NoTrans, n, n, n, 1.0, A.data(), n,
           B.data(), n, 0.0, Cp.data(), n, opt);
  expect_matches_serial(Cs, Cp);
}

INSTANTIATE_TEST_SUITE_P(
    ThreadsAndSpawn, Pmodgemm,
    ::testing::Combine(::testing::Values(150, 257, 513),
                       ::testing::Values(1, 2, 4),
                       ::testing::Values(kSpawnAuto, 0, 1, 2)));

TEST(PmodgemmDeepSpawn, ForkingEveryLevelStaysBitIdentical) {
  // spawn_levels = the plan depth forks the 7 sub-products at EVERY
  // recursion level -- the deepest possible task tree, maximum
  // steal/continuation traffic -- and the result must still be bit-identical.
  const int n = 320;
  Rng rng(7);
  Matrix<double> A(n, n), B(n, n), Cs(n, n), Cp(n, n);
  rng.fill_uniform(A.storage());
  rng.fill_uniform(B.storage());
  core::modgemm(Op::NoTrans, Op::NoTrans, n, n, n, 1.0, A.data(), n, B.data(),
                n, 0.0, Cs.data(), n);
  ThreadPool pool(4);
  ParallelOptions opt;
  opt.spawn_levels = layout::plan_gemm(n, n, n, opt.tiles).depth;
  ASSERT_GE(opt.spawn_levels, 2);
  pmodgemm(&pool, Op::NoTrans, Op::NoTrans, n, n, n, 1.0, A.data(), n,
           B.data(), n, 0.0, Cp.data(), n, opt);
  expect_matches_serial(Cs, Cp);
}

TEST(PmodgemmDeepSpawn, RejectsInvalidPolicyValues) {
  ThreadPool pool(2);
  Matrix<double> A(64, 64), B(64, 64), C(64, 64);
  ParallelOptions opt;
  opt.spawn_levels = -2;  // only kSpawnAuto (-1) and N >= 0 are meaningful
  EXPECT_THROW(pmodgemm(&pool, Op::NoTrans, Op::NoTrans, 64, 64, 64, 1.0,
                        A.data(), 64, B.data(), 64, 0.0, C.data(), 64, opt),
               std::invalid_argument);
  opt.spawn_levels = kSpawnAuto;
  opt.min_task_flops = 0;
  EXPECT_THROW(pmodgemm(&pool, Op::NoTrans, Op::NoTrans, 64, 64, 64, 1.0,
                        A.data(), 64, B.data(), 64, 0.0, C.data(), 64, opt),
               std::invalid_argument);
}

TEST(PmodgemmSemantics, NullPoolMatchesSerial) {
  const int n = 300;
  Rng rng(1);
  Matrix<double> A(n, n), B(n, n), Cs(n, n), Cp(n, n);
  rng.fill_uniform(A.storage());
  rng.fill_uniform(B.storage());
  core::modgemm(Op::NoTrans, Op::NoTrans, n, n, n, 1.0, A.data(), n, B.data(),
                n, 0.0, Cs.data(), n);
  pmodgemm(nullptr, Op::NoTrans, Op::NoTrans, n, n, n, 1.0, A.data(), n,
           B.data(), n, 0.0, Cp.data(), n);
  EXPECT_EQ(max_abs_diff<double>(Cs.view(), Cp.view()), 0.0);
}

TEST(PmodgemmSemantics, FullDgemmInterface) {
  // op(), alpha/beta, strided C -- all must match the serial driver exactly.
  const int m = 143, n = 157, k = 131;
  Rng rng(2);
  Matrix<double> A(k, m), B(k, n), Cs(m, n, m + 5), Cp(m, n, m + 5);
  rng.fill_uniform(A.storage());
  rng.fill_uniform(B.storage());
  Matrix<double> C0(m, n, m + 5);
  rng.fill_uniform(C0.storage());
  copy_matrix<double>(C0.view(), Cs.view());
  copy_matrix<double>(C0.view(), Cp.view());

  core::modgemm(Op::Trans, Op::NoTrans, m, n, k, 2.0, A.data(), A.ld(),
                B.data(), B.ld(), -1.0, Cs.data(), Cs.ld());
  ThreadPool pool(3);
  pmodgemm(&pool, Op::Trans, Op::NoTrans, m, n, k, 2.0, A.data(), A.ld(),
           B.data(), B.ld(), -1.0, Cp.data(), Cp.ld());
  EXPECT_EQ(max_abs_diff<double>(Cs.view(), Cp.view()), 0.0);
}

TEST(PmodgemmSemantics, SplitShapesFallBackCorrectly) {
  // Highly rectangular: the split decomposition, with each C-block running
  // as its own pool task (the k-chain within a block stays sequential).
  const int m = 2100, k = 100, n = 100;
  Rng rng(3);
  Matrix<double> A(m, k), B(k, n), Cs(m, n), Cp(m, n);
  rng.fill_int(A.storage());
  rng.fill_int(B.storage());
  core::modgemm(Op::NoTrans, Op::NoTrans, m, n, k, 1.0, A.data(), m, B.data(),
                k, 0.0, Cs.data(), m);
  ThreadPool pool(2);
  pmodgemm(&pool, Op::NoTrans, Op::NoTrans, m, n, k, 1.0, A.data(), m,
           B.data(), k, 0.0, Cp.data(), m, {});
  EXPECT_EQ(max_abs_diff<double>(Cs.view(), Cp.view()), 0.0);
}

// The parallel split path must be bit-identical to the serial splitter for
// every orientation of the long dimension, under transposes, with alpha/beta
// accumulation into strided C, across pool widths.
using SplitParam = std::tuple<std::tuple<int, int, int>, int>;  // (m,n,k), thr
class PmodgemmSplitPath : public ::testing::TestWithParam<SplitParam> {};

TEST_P(PmodgemmSplitPath, BitIdenticalToSerialSplitter) {
  const auto [shape, threads] = GetParam();
  const auto [m, n, k] = shape;
  Rng rng(static_cast<std::uint64_t>(m) * 7 + n * 3 + k + threads);
  // op(A) is m x k with A stored transposed (k x m); op(B) is k x n with B
  // stored transposed (n x k) -- exercises the block pointer arithmetic for
  // both transpose flags at once.
  Matrix<double> A(k, m), B(n, k);
  Matrix<double> Cs(m, n, m + 3), Cp(m, n, m + 3), C0(m, n, m + 3);
  rng.fill_uniform(A.storage());
  rng.fill_uniform(B.storage());
  rng.fill_uniform(C0.storage());
  copy_matrix<double>(C0.view(), Cs.view());
  copy_matrix<double>(C0.view(), Cp.view());

  core::modgemm(Op::Trans, Op::Trans, m, n, k, 1.5, A.data(), A.ld(),
                B.data(), B.ld(), -0.5, Cs.data(), Cs.ld());
  ThreadPool pool(threads);
  obs::GemmReport report;
  ParallelOptions opt;
  opt.report = &report;
  pmodgemm(&pool, Op::Trans, Op::Trans, m, n, k, 1.5, A.data(), A.ld(),
           B.data(), B.ld(), -0.5, Cp.data(), Cp.ld(), opt);
  EXPECT_EQ(max_abs_diff<double>(Cs.view(), Cp.view()), 0.0);

  // The report must show the split path actually ran in the pool.
  EXPECT_TRUE(report.split_used);
  EXPECT_TRUE(report.parallel);
  EXPECT_EQ(report.threads, threads);
  EXPECT_GT(report.products, 1);
  EXPECT_GE(report.tasks_executed, 1u);
}

INSTANTIATE_TEST_SUITE_P(
    LongDimensions, PmodgemmSplitPath,
    ::testing::Combine(::testing::Values(std::tuple<int, int, int>{2100, 100,
                                                                   100},
                                         std::tuple<int, int, int>{100, 2100,
                                                                   100},
                                         std::tuple<int, int, int>{100, 100,
                                                                   2100}),
                       ::testing::Values(2, 4)));

// Deterministic mid-submission failure: the pool's submit gate (the OOM
// point where building a task object throws) denies every third submission.
// TaskGroup::run must roll its pending count back on the failed submission
// so the drivers' bad_alloc catches reach their serial fallbacks instead of
// deadlocking in join() -- and the fallback output must stay bit-identical.
struct ScopedFlakySubmits {
  ScopedFlakySubmits() { ThreadPool::set_submit_gate(&gate, &count); }
  ~ScopedFlakySubmits() { ThreadPool::set_submit_gate(nullptr, nullptr); }
  static bool gate(void* user) {
    auto* n = static_cast<std::atomic<std::uint64_t>*>(user);
    return n->fetch_add(1, std::memory_order_relaxed) % 3 != 2;
  }
  std::atomic<std::uint64_t> count{0};
};

TEST(PmodgemmDegradation, SquarePathSurvivesSubmissionFailures) {
  const int n = 320;
  Rng rng(11);
  Matrix<double> A(n, n), B(n, n), Cs(n, n), Cp(n, n);
  rng.fill_uniform(A.storage());
  rng.fill_uniform(B.storage());
  core::modgemm(Op::NoTrans, Op::NoTrans, n, n, n, 1.0, A.data(), n, B.data(),
                n, 0.0, Cs.data(), n);
  ThreadPool pool(4);
  ParallelOptions opt;
  // Deepest spawn tree (every level forks): maximum submissions to fail.
  opt.spawn_levels = layout::plan_gemm(n, n, n, opt.tiles).depth;
  ASSERT_GE(opt.spawn_levels, 2);
  ScopedFlakySubmits flaky;
  pmodgemm(&pool, Op::NoTrans, Op::NoTrans, n, n, n, 1.0, A.data(), n,
           B.data(), n, 0.0, Cp.data(), n, opt);
  EXPECT_GE(flaky.count.load(), 3u);  // the gate actually denied something
  EXPECT_EQ(max_abs_diff<double>(Cs.view(), Cp.view()), 0.0);
}

TEST(PmodgemmDegradation, SplitPathFinishesBlocksAfterSubmissionFailure) {
  const int m = 2100, k = 100, n = 100;
  Rng rng(13);
  Matrix<double> A(m, k), B(k, n), Cs(m, n), Cp(m, n);
  rng.fill_uniform(A.storage());
  rng.fill_uniform(B.storage());
  core::modgemm(Op::NoTrans, Op::NoTrans, m, n, k, 1.0, A.data(), m, B.data(),
                k, 0.0, Cs.data(), m);
  ThreadPool pool(2);
  ScopedFlakySubmits flaky;
  pmodgemm(&pool, Op::NoTrans, Op::NoTrans, m, n, k, 1.0, A.data(), m,
           B.data(), k, 0.0, Cp.data(), m, {});
  EXPECT_GE(flaky.count.load(), 3u);
  EXPECT_EQ(max_abs_diff<double>(Cs.view(), Cp.view()), 0.0);
}

TEST(PmodgemmDegradation, ConvertOutSubmissionFailureKeepsBetaExact) {
  // The convert-out phase applies beta to C exactly once per tile.  A
  // submission failure there must NOT hand the multiply to the from-scratch
  // serial rerun (tiles already converted would get beta applied twice);
  // the driver finishes the missing chunks inline instead.  Submission
  // counts are schedule-independent, so a counting dry run tells us the
  // total, and denying the LAST submission deterministically lands the
  // failure inside convert-out -- after earlier chunks were accepted.
  struct CountingGate {
    std::atomic<std::uint64_t> count{0};
    std::uint64_t deny_from = ~std::uint64_t{0};
    static bool allow(void* user) {
      auto* g = static_cast<CountingGate*>(user);
      return g->count.fetch_add(1, std::memory_order_relaxed) < g->deny_from;
    }
  };
  const int n = 320;
  Rng rng(17);
  Matrix<double> A(n, n), B(n, n), C0(n, n), Cs(n, n), Cp(n, n);
  rng.fill_uniform(A.storage());
  rng.fill_uniform(B.storage());
  rng.fill_uniform(C0.storage());
  copy_matrix<double>(C0.view(), Cs.view());
  core::modgemm(Op::NoTrans, Op::NoTrans, n, n, n, 1.0, A.data(), n, B.data(),
                n, 0.5, Cs.data(), n);

  ThreadPool pool(4);
  ParallelOptions opt;
  opt.spawn_levels = 0;  // every submission is a conversion chunk
  CountingGate dry;
  ThreadPool::set_submit_gate(&CountingGate::allow, &dry);
  copy_matrix<double>(C0.view(), Cp.view());
  pmodgemm(&pool, Op::NoTrans, Op::NoTrans, n, n, n, 1.0, A.data(), n,
           B.data(), n, 0.5, Cp.data(), n, opt);
  ThreadPool::set_submit_gate(nullptr, nullptr);
  ASSERT_GE(dry.count.load(), 1u);

  CountingGate deny;
  deny.deny_from = dry.count.load() - 1;  // the last convert-out submission
  ThreadPool::set_submit_gate(&CountingGate::allow, &deny);
  copy_matrix<double>(C0.view(), Cp.view());
  pmodgemm(&pool, Op::NoTrans, Op::NoTrans, n, n, n, 1.0, A.data(), n,
           B.data(), n, 0.5, Cp.data(), n, opt);
  ThreadPool::set_submit_gate(nullptr, nullptr);
  EXPECT_GT(deny.count.load(), deny.deny_from);  // the denial really fired
  EXPECT_EQ(max_abs_diff<double>(Cs.view(), Cp.view()), 0.0);
}

TEST(PmodgemmSemantics, DegenerateDimensions) {
  ThreadPool pool(2);
  Matrix<double> A(8, 8), B(8, 8), C(8, 8);
  for (auto& x : C.storage()) x = 4.0;
  pmodgemm(&pool, Op::NoTrans, Op::NoTrans, 8, 8, 0, 1.0, A.data(), 8,
           B.data(), 8, 0.5, C.data(), 8);
  for (const auto& x : C.storage()) EXPECT_EQ(x, 2.0);
}

TEST(PmodgemmSemantics, RejectsBadArgumentsLikeSerial) {
  // The parallel driver validates with the same checks (and messages) as the
  // serial entry point -- before any buffer is allocated or task spawned.
  ThreadPool pool(2);
  Matrix<double> A(100, 100), B(100, 100), C(100, 100);
  EXPECT_THROW(pmodgemm(&pool, Op::NoTrans, Op::NoTrans, 100, 100, 100, 1.0,
                        A.data(), 50, B.data(), 100, 0.0, C.data(), 100),
               std::invalid_argument);
  EXPECT_THROW(pmodgemm(&pool, Op::Trans, Op::NoTrans, 100, 100, 120, 1.0,
                        A.data(), 100, B.data(), 120, 0.0, C.data(), 100),
               std::invalid_argument);
  EXPECT_THROW(pmodgemm(&pool, Op::NoTrans, Op::NoTrans, -1, 100, 100, 1.0,
                        A.data(), 100, B.data(), 100, 0.0, C.data(), 100),
               std::invalid_argument);
  EXPECT_THROW(pmodgemm(&pool, Op::NoTrans, Op::NoTrans, 100, 100, 100, 1.0,
                        A.data(), 100, B.data(), 100, 0.0, C.data(), 10),
               std::invalid_argument);
}

TEST(PmodgemmSemantics, AlphaZeroDoesNotReadNaNOperands) {
  const double qnan = std::numeric_limits<double>::quiet_NaN();
  const int n = 150;
  ThreadPool pool(3);
  Matrix<double> A(n, n), B(n, n), C(n, n);
  for (auto& x : A.storage()) x = qnan;
  for (auto& x : B.storage()) x = qnan;
  for (auto& x : C.storage()) x = 2.0;
  pmodgemm(&pool, Op::NoTrans, Op::NoTrans, n, n, n, 0.0, A.data(), n,
           B.data(), n, 0.5, C.data(), n);
  for (const auto& x : C.storage()) EXPECT_EQ(x, 1.0);
}

TEST(PmodgemmSemantics, EmptyDimensionsLeaveCUntouched) {
  ThreadPool pool(2);
  Matrix<double> A(8, 8), B(8, 8), C(5, 8);
  for (auto& x : C.storage()) x = 6.0;
  pmodgemm(&pool, Op::NoTrans, Op::NoTrans, 0, 8, 8, 1.0, A.data(), 8,
           B.data(), 8, 0.0, C.data(), 5);
  pmodgemm(&pool, Op::NoTrans, Op::NoTrans, 5, 0, 8, 1.0, A.data(), 8,
           B.data(), 8, 0.0, C.data(), 5);
  for (const auto& x : C.storage()) EXPECT_EQ(x, 6.0);
}

TEST(PmodgemmSemantics, OversizedLeadingDimsMatchSerial) {
  const int m = 150, n = 140, k = 160, slack = 300;
  Rng rng(5);
  Matrix<double> A(m, k, m + slack), B(k, n, k + slack);
  Matrix<double> Cs(m, n, m + slack), Cp(m, n, m + slack);
  rng.fill_int(A.storage());
  rng.fill_int(B.storage());
  core::modgemm(Op::NoTrans, Op::NoTrans, m, n, k, 1.0, A.data(), A.ld(),
                B.data(), B.ld(), 0.0, Cs.data(), Cs.ld());
  ThreadPool pool(4);
  pmodgemm(&pool, Op::NoTrans, Op::NoTrans, m, n, k, 1.0, A.data(), A.ld(),
           B.data(), B.ld(), 0.0, Cp.data(), Cp.ld());
  EXPECT_EQ(max_abs_diff<double>(Cs.view(), Cp.view()), 0.0);
}

TEST(PmodgemmWorkspace, SpawnLevelsGrowTheFootprint) {
  const std::size_t serial = pmodgemm_workspace_bytes(32, 32, 32, 4, 0, 8);
  const std::size_t one = pmodgemm_workspace_bytes(32, 32, 32, 4, 1, 8);
  const std::size_t two = pmodgemm_workspace_bytes(32, 32, 32, 4, 2, 8);
  EXPECT_LT(serial, one);
  EXPECT_LT(one, two);
}

// Kreczmar's table declares no temporaries: under kInPlace a product's
// arenas hold its spawn levels' temporaries alone.
TEST(PmodgemmWorkspace, InPlaceFamilyNeedsOnlySpawnTemporaries) {
  const auto inplace = [](int spawn) {
    return pmodgemm_workspace_bytes(64, 64, 64, 4, spawn, 8,
                                    analysis::ScheduleFamily::kInPlace);
  };
  const auto spawn_level = [](int d1) {
    return core::level_temp_bytes(analysis::kWinogradSpawn, 64, 64, 64, d1,
                                  8);
  };
  EXPECT_EQ(inplace(0), 0u);
  EXPECT_EQ(inplace(1), spawn_level(3));
  EXPECT_EQ(inplace(2), spawn_level(3) + 7 * spawn_level(2));
}

// A serial square Morton product whose budget holds only the three Morton
// buffers runs Kreczmar's table: it requests those buffers and no arena byte
// beyond them, and matches the default table bit for bit.
TEST(PmodgemmWorkspace, SerialInPlaceRequestsOnlyTheMortonBuffers) {
  for (const int n : {512, 1024}) {
    SCOPED_TRACE(n);
    Rng rng(static_cast<std::uint64_t>(n) + 5);
    Matrix<double> A(n, n), B(n, n), C(n, n), Cdef(n, n);
    rng.fill_uniform(A.storage());
    rng.fill_uniform(B.storage());
    core::ModgemmOptions opt;
    opt.strategy = layout::ExecStrategy::kMorton;
    core::modgemm(Op::NoTrans, Op::NoTrans, n, n, n, 1.0, A.data(), n,
                  B.data(), n, 0.0, Cdef.data(), n, opt);
    opt.max_workspace_bytes = core::modgemm_conversion_bytes(
        layout::plan_gemm(n, n, n, opt.tiles), sizeof(double));
    obs::GemmReport report;
    core::modgemm(Op::NoTrans, Op::NoTrans, n, n, n, 1.0, A.data(), n,
                  B.data(), n, 0.0, C.data(), n, opt, &report);
    ASSERT_TRUE(report.plan.feasible && !report.plan.direct);
    EXPECT_EQ(report.fallback_reason, obs::FallbackReason::kScheduleSwap);
    EXPECT_STREQ(report.schedule, "winograd-inplace");
    EXPECT_EQ(report.workspace_requested_bytes,
              core::modgemm_conversion_bytes(report.plan, sizeof(double)));
    EXPECT_EQ(std::memcmp(C.data(), Cdef.data(),
                          C.storage().size() * sizeof(double)),
              0);
  }
}

// Kreczmar's table needs square tiles: a non-square plan whose budget cannot
// hold the default arena gives depth back instead, and runs and reports the
// 2-buffer table, sized exactly as modgemm_workspace_bytes says.
TEST(PmodgemmWorkspace, NonSquareInPlacePlanRunsLowMem) {
  const int m = 512, k = 384, n = 512;
  Rng rng(31);
  Matrix<double> A(m, k), B(k, n), C(m, n);
  rng.fill_uniform(A.storage());
  rng.fill_uniform(B.storage());
  core::ModgemmOptions opt;
  opt.strategy = layout::ExecStrategy::kMorton;
  opt.max_workspace_bytes =
      core::modgemm_workspace_bytes(layout::plan_gemm(m, k, n, opt.tiles),
                                    sizeof(double)) -
      1;
  obs::GemmReport report;
  core::modgemm(Op::NoTrans, Op::NoTrans, m, n, k, 1.0, A.data(), m,
                B.data(), k, 0.0, C.data(), m, opt, &report);
  ASSERT_TRUE(report.plan.feasible && !report.plan.direct);
  ASSERT_NE(report.plan.m.tile, report.plan.k.tile);
  EXPECT_EQ(report.fallback_reason, obs::FallbackReason::kDepthReduced);
  EXPECT_STREQ(report.schedule, "winograd-lowmem");
  EXPECT_EQ(report.workspace_requested_bytes,
            core::modgemm_workspace_bytes(report.plan, sizeof(double)));
}

// Pool width of a sizing case, as the ThreadPool worker count.  An enum
// (printed as its byte) keeps the registered names of the instances.
enum class Workers : std::uint8_t { kOne = 1, kTwo = 2, kThree = 3 };

// The public sizing is the arithmetic of what runs: the three Morton
// buffers plus pmodgemm_workspace_bytes at the reported spawn depth and
// executed family equal every byte the call requested, for auto and
// explicit spawn depths on pools of 1-3 workers (the auto depth follows the
// width).
using SizingParam = std::tuple<int, int, Workers>;
class PmodgemmSizing : public ::testing::TestWithParam<SizingParam> {};

TEST_P(PmodgemmSizing, WorkspaceBytesMatchExecution) {
  const auto [n, spawn, workers] = GetParam();
  Rng rng(static_cast<std::uint64_t>(n) + 3);
  Matrix<double> A(n, n), B(n, n), C(n, n);
  rng.fill_uniform(A.storage());
  rng.fill_uniform(B.storage());
  ThreadPool pool(static_cast<int>(workers));
  ParallelOptions opt;
  opt.spawn_levels = spawn;
  obs::GemmReport report;
  opt.report = &report;
  pmodgemm(&pool, Op::NoTrans, Op::NoTrans, n, n, n, 1.0, A.data(), n,
           B.data(), n, 0.0, C.data(), n, opt);
  const layout::GemmPlan& plan = report.plan;
  ASSERT_TRUE(plan.feasible && !plan.direct && !report.split_used);
  ASSERT_EQ(report.fallback_reason, obs::FallbackReason::kNone);
  if (spawn != kSpawnAuto) {
    EXPECT_EQ(report.spawn_levels, spawn);
  }
  EXPECT_EQ(plan.schedule, analysis::ScheduleFamily::kLowMem);
  std::size_t morton = 0;
  for (const layout::MortonLayout& l :
       {layout::MortonLayout{n, n, plan.m.tile, plan.k.tile, plan.depth},
        layout::MortonLayout{n, n, plan.k.tile, plan.n.tile, plan.depth},
        layout::MortonLayout{n, n, plan.m.tile, plan.n.tile, plan.depth}})
    morton += layout::buffer_bytes(l, sizeof(double));
  EXPECT_EQ(morton + pmodgemm_workspace_bytes(plan.m.tile, plan.k.tile,
                                              plan.n.tile, plan.depth,
                                              report.spawn_levels, 8,
                                              plan.schedule),
            report.workspace_requested_bytes)
      << "n=" << n << " spawn=" << spawn << " depth=" << plan.depth
      << " spawn_levels=" << report.spawn_levels;
}

INSTANTIATE_TEST_SUITE_P(
    SpawnAndFamily, PmodgemmSizing,
    ::testing::Combine(::testing::Values(256, 260, 1025),
                       ::testing::Values(kSpawnAuto, 0, 1, 2),
                       ::testing::Values(Workers::kOne, Workers::kTwo,
                                         Workers::kThree)));

// The auto fork depth follows pool width: the fewest levels L with
// 7^L >= 8 * (workers + 1), never past a level whose children fall below
// min_task_flops.  On the n = 1025 plan under the paper's window (tile 33,
// depth 5) the children of the top three levels reach 2^21 of padded volume
// and the fourth's do not.
TEST(PmodgemmForkDepth, FollowsPoolWidth) {
  const int n = 1025;
  Rng rng(29);
  Matrix<double> A(n, n), B(n, n), C(n, n);
  rng.fill_uniform(A.storage());
  rng.fill_uniform(B.storage());
  struct Width {
    int workers;  // 0 = null pool
    int levels;
  };
  for (const Width w : {Width{0, 0}, Width{1, 2}, Width{3, 2}, Width{8, 3}}) {
    SCOPED_TRACE(::testing::Message() << "workers=" << w.workers);
    std::unique_ptr<ThreadPool> pool;
    if (w.workers > 0) pool = std::make_unique<ThreadPool>(w.workers);
    ParallelOptions opt;
    opt.tiles = layout::kPaperTileWindow;
    obs::GemmReport report;
    opt.report = &report;
    pmodgemm(pool.get(), Op::NoTrans, Op::NoTrans, n, n, n, 1.0, A.data(), n,
             B.data(), n, 0.0, C.data(), n, opt);
    const layout::GemmPlan& plan = report.plan;
    ASSERT_EQ(report.fallback_reason, obs::FallbackReason::kNone);
    ASSERT_EQ(plan.m.tile, 33);
    ASSERT_EQ(plan.depth, 5);
    EXPECT_EQ(fork_levels(pool.get(), 33, 33, 33, 5, opt.min_task_flops),
              w.levels);
    EXPECT_EQ(report.spawn_levels, w.levels);
    if (!pool) {
      // No pool: pmodgemm is modgemm, planned strategy included.
      core::ModgemmOptions sopt;
      sopt.tiles = opt.tiles;
      obs::GemmReport serial;
      core::modgemm(Op::NoTrans, Op::NoTrans, n, n, n, 1.0, A.data(), n,
                    B.data(), n, 0.0, C.data(), n, sopt, &serial);
      EXPECT_EQ(serial.workspace_requested_bytes,
                report.workspace_requested_bytes);
      continue;
    }
    std::size_t morton = 0;
    for (const layout::MortonLayout& l :
         {layout::MortonLayout{n, n, plan.m.tile, plan.k.tile, plan.depth},
          layout::MortonLayout{n, n, plan.k.tile, plan.n.tile, plan.depth},
          layout::MortonLayout{n, n, plan.m.tile, plan.n.tile, plan.depth}})
      morton += layout::buffer_bytes(l, sizeof(double));
    EXPECT_EQ(morton + pmodgemm_workspace_bytes(33, 33, 33, 5, w.levels, 8),
              report.workspace_requested_bytes);
  }
}

TEST(PmodgemmForkDepth, StopsAtTaskFloorAndPlanDepth) {
  ThreadPool pool(8);  // width alone asks for 3 levels (7^3 >= 72)
  const std::int64_t floor = std::int64_t{1} << 21;
  EXPECT_EQ(fork_levels(&pool, 33, 33, 33, 5, floor), 3);
  // A coarser floor stops above the first level whose children miss it:
  // 33^3 * 8^2 ~ 2.3M < 2^24 <= 33^3 * 8^3.
  EXPECT_EQ(fork_levels(&pool, 33, 33, 33, 5, std::int64_t{1} << 24), 2);
  // No floor: the plan depth caps the count.
  EXPECT_EQ(fork_levels(&pool, 33, 33, 33, 2, 1), 2);
  // The Winograd-layer plan (256x200x256: tiles 32x25x32, depth 3): even
  // the top level's children (1.6M) miss the floor, so nothing forks.
  EXPECT_EQ(fork_levels(&pool, 32, 25, 32, 3, floor), 0);
  EXPECT_EQ(fork_levels(nullptr, 33, 33, 33, 5, 1), 0);
}

TEST(PmodgemmRepeatability, SameResultAcrossRuns) {
  // Scheduling nondeterminism must not leak into results.
  const int n = 260;
  Rng rng(4);
  Matrix<double> A(n, n), B(n, n), C1(n, n), C2(n, n);
  rng.fill_uniform(A.storage());
  rng.fill_uniform(B.storage());
  ThreadPool pool(4);
  ParallelOptions opt;
  opt.spawn_levels = 2;
  for (Matrix<double>* out : {&C1, &C2}) {
    pmodgemm(&pool, Op::NoTrans, Op::NoTrans, n, n, n, 1.0, A.data(), n,
             B.data(), n, 0.0, out->data(), n, opt);
  }
  EXPECT_EQ(max_abs_diff<double>(C1.view(), C2.view()), 0.0);
}

}  // namespace
}  // namespace strassen::parallel
