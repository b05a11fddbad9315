// Degradation-ladder invariants (core::detail::apply_workspace_budget +
// record_fallback).
//
// The ladder's contract, from least to most severe:
//   kNone -> kScheduleSwap -> kDepthReduced -> kBudgetDirect
// with the allocation-failure rungs (kAllocDirect, kAllocStrided) beyond
// those.  Invariants pinned here:
//   * a budget that holds the Morton buffers but not the default 2-buffer
//     arena is satisfied at FULL planned depth by Kreczmar's zero-workspace
//     table (the swap rung) on a square Morton plan,
//   * a plan Kreczmar's table cannot run (non-square tiles) gives depth back
//     instead, still on the default table,
//   * whatever rung is taken, the executed arena peak stays within the
//     budget,
//   * record_fallback only ever escalates (split products report the worst
//     rung any sub-product took),
//   * every allocation-failure point on the default table, the Kreczmar
//     rung and the swap ladder still leaves either the exact product or an
//     untouched C.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <new>
#include <vector>

#include "analysis/schedule.hpp"
#include "blas/gemm.hpp"
#include "common/matrix.hpp"
#include "common/rng.hpp"
#include "core/modgemm.hpp"
#include "core/workspace.hpp"
#include "layout/plan.hpp"
#include "testing/fault_injection.hpp"

namespace strassen {
namespace {

namespace ft = ::strassen::testing;
using analysis::ScheduleFamily;
using core::FallbackReason;
using core::ModgemmOptions;
using core::ModgemmReport;

// The workspace a given (depth, family) Morton candidate would need for an
// m x k x n product, or 0 when no tiling exists at that depth.
std::size_t candidate_workspace(int m, int k, int n, int depth,
                                ScheduleFamily family) {
  layout::GemmPlan cand;
  cand.depth = depth;
  cand.m = layout::choose_dim_at_depth(m, depth, {});
  cand.k = layout::choose_dim_at_depth(k, depth, {});
  cand.n = layout::choose_dim_at_depth(n, depth, {});
  cand.feasible = true;
  cand.schedule = family;
  if (cand.m.tile == 0 || cand.k.tile == 0 || cand.n.tile == 0) return 0;
  return core::modgemm_workspace_bytes(cand, sizeof(double));
}

std::size_t candidate_workspace(int n, int depth, ScheduleFamily family) {
  return candidate_workspace(n, n, n, depth, family);
}

// ---------------------------------------------------------------------------
// Rung 1: the schedule swap.
// ---------------------------------------------------------------------------

TEST(LadderInvariants, BudgetForcesScheduleSwapNotDepthReduction) {
  const int n = 512;
  const layout::GemmPlan planned = layout::plan_gemm(n, n, n, {});
  ASSERT_TRUE(planned.feasible);
  ASSERT_GE(planned.depth, 2);

  // A budget that holds the three Morton buffers and nothing more: the
  // full-depth Kreczmar plan needs exactly that, every plan on the default
  // table needs an arena on top, so the planner must keep the planned depth
  // and swap tables.
  const std::size_t budget =
      candidate_workspace(n, planned.depth, ScheduleFamily::kInPlace);
  ASSERT_NE(budget, 0u);
  ASSERT_EQ(budget, core::modgemm_conversion_bytes(planned, sizeof(double)));
  ASSERT_LT(budget, core::modgemm_workspace_bytes(planned, sizeof(double)));

  Rng rng(21);
  Matrix<double> A(n, n), B(n, n), C(n, n), Ref(n, n);
  rng.fill_int(A.storage(), -2, 2);
  rng.fill_int(B.storage(), -2, 2);
  blas::naive_gemm(Op::NoTrans, Op::NoTrans, n, n, n, 1.0, A.data(), n,
                   B.data(), n, 0.0, Ref.data(), n);

  ModgemmOptions opt;
  opt.max_workspace_bytes = budget;
  // Pin Morton: Kreczmar's table runs only on the Morton copies.
  opt.strategy = layout::ExecStrategy::kMorton;
  ModgemmReport report;
  core::modgemm(Op::NoTrans, Op::NoTrans, n, n, n, 1.0, A.data(), n, B.data(),
                n, 0.0, C.data(), n, opt, &report);

  EXPECT_EQ(max_abs_diff<double>(C.view(), Ref.view()), 0.0);
  EXPECT_EQ(report.fallback_reason, FallbackReason::kScheduleSwap);
  // Full planned depth was kept -- only the schedule changed.
  EXPECT_EQ(report.plan.depth, planned.depth);
  EXPECT_EQ(report.planned_depth, planned.depth);
  EXPECT_STREQ(report.schedule, "winograd-inplace");
  // The swap is a real saving and a real bound.
  EXPECT_GT(report.workspace_saved_bytes, 0u);
  EXPECT_GT(report.workspace_peak_bytes, 0u);
  EXPECT_LE(report.workspace_peak_bytes, budget);
}

TEST(LadderInvariants, EveryRungRespectsItsBudget) {
  const int n = 512;
  const layout::GemmPlan planned = layout::plan_gemm(n, n, n, {});
  ASSERT_TRUE(planned.feasible);

  // Budgets sized to each candidate the ladder can land on, descending, plus
  // a bottom rung no Strassen depth fits.  Tightening the budget must never
  // make the recorded degradation LESS severe, and the executed peak must
  // stay within the budget at every rung.
  std::vector<std::size_t> budgets;
  for (int d = planned.depth; d >= 1; --d)
    for (ScheduleFamily f :
         {ScheduleFamily::kLowMem, ScheduleFamily::kInPlace}) {
      const std::size_t w = candidate_workspace(n, d, f);
      if (w != 0) budgets.push_back(w);
    }
  std::sort(budgets.begin(), budgets.end(), std::greater<std::size_t>());
  budgets.push_back(1024);

  Rng rng(22);
  Matrix<double> A(n, n), B(n, n), C(n, n), Ref(n, n);
  rng.fill_int(A.storage(), -2, 2);
  rng.fill_int(B.storage(), -2, 2);
  blas::naive_gemm(Op::NoTrans, Op::NoTrans, n, n, n, 1.0, A.data(), n,
                   B.data(), n, 0.0, Ref.data(), n);

  FallbackReason worst = FallbackReason::kNone;
  for (const std::size_t budget : budgets) {
    SCOPED_TRACE(::testing::Message() << "budget=" << budget);
    ModgemmOptions opt;
    opt.max_workspace_bytes = budget;
    ModgemmReport report;
    core::modgemm(Op::NoTrans, Op::NoTrans, n, n, n, 1.0, A.data(), n,
                  B.data(), n, 0.0, C.data(), n, opt, &report);
    EXPECT_EQ(max_abs_diff<double>(C.view(), Ref.view()), 0.0);
    EXPECT_LE(report.workspace_peak_bytes, budget);
    // Rung shape: a swap keeps the planned depth; depth reduction gives
    // levels back; direct runs without a plan at all.
    switch (report.fallback_reason) {
      case FallbackReason::kNone:
        EXPECT_EQ(report.plan.depth, planned.depth);
        break;
      case FallbackReason::kScheduleSwap:
        EXPECT_EQ(report.plan.depth, planned.depth);
        EXPECT_STREQ(report.schedule, "winograd-inplace");
        EXPECT_GT(report.workspace_saved_bytes, 0u);
        break;
      case FallbackReason::kDepthReduced:
        EXPECT_LT(report.plan.depth, planned.depth);
        EXPECT_GE(report.plan.depth, 1);
        break;
      case FallbackReason::kBudgetDirect:
        EXPECT_TRUE(report.plan.direct);
        EXPECT_EQ(report.workspace_peak_bytes, 0u);
        break;
      default:
        FAIL() << "unexpected fallback "
               << core::fallback_reason_name(report.fallback_reason);
    }
    // Monotone: a smaller budget never reports a milder degradation.
    EXPECT_GE(static_cast<int>(report.fallback_reason),
              static_cast<int>(worst));
    if (static_cast<int>(report.fallback_reason) > static_cast<int>(worst))
      worst = report.fallback_reason;
  }
  // The sweep actually exercised the whole ladder down to direct.
  EXPECT_EQ(worst, FallbackReason::kBudgetDirect);
}

// ---------------------------------------------------------------------------
// record_fallback: only ever escalates.
// ---------------------------------------------------------------------------

TEST(LadderInvariants, RecordFallbackIsMonotone) {
  using core::detail::record_fallback;
  ModgemmReport report;
  EXPECT_EQ(report.fallback_reason, FallbackReason::kNone);

  record_fallback(&report, FallbackReason::kScheduleSwap);
  EXPECT_EQ(report.fallback_reason, FallbackReason::kScheduleSwap);
  // A later, milder rung must not mask the recorded degradation.
  record_fallback(&report, FallbackReason::kNone);
  EXPECT_EQ(report.fallback_reason, FallbackReason::kScheduleSwap);

  record_fallback(&report, FallbackReason::kDepthReduced);
  EXPECT_EQ(report.fallback_reason, FallbackReason::kDepthReduced);
  record_fallback(&report, FallbackReason::kScheduleSwap);
  EXPECT_EQ(report.fallback_reason, FallbackReason::kDepthReduced);

  record_fallback(&report, FallbackReason::kAllocStrided);
  EXPECT_EQ(report.fallback_reason, FallbackReason::kAllocStrided);
  record_fallback(&report, FallbackReason::kBudgetDirect);
  EXPECT_EQ(report.fallback_reason, FallbackReason::kAllocStrided);

  // Null report is a no-op, not a crash.
  record_fallback(nullptr, FallbackReason::kBudgetDirect);
}

// ---------------------------------------------------------------------------
// Plans Kreczmar's table cannot run.
// ---------------------------------------------------------------------------

TEST(LadderInvariants, NonSquareDepthReducesWithinTheDefaultFamily) {
  const int m = 512, k = 384, n = 512;
  const layout::GemmPlan planned = layout::plan_gemm(m, k, n, {});
  ASSERT_TRUE(planned.feasible);
  ASSERT_GE(planned.depth, 2);
  ASSERT_NE(planned.m.tile, planned.k.tile);

  // Budget below the default table's full-depth need but above the Morton
  // buffers: on these non-square tiles the swap rung is unavailable, so the
  // ladder must give depth back and stay on the 2-buffer table.
  const std::size_t budget = candidate_workspace(
      m, k, n, planned.depth - 1, ScheduleFamily::kLowMem);
  ASSERT_NE(budget, 0u);
  ASSERT_LT(budget, candidate_workspace(m, k, n, planned.depth,
                                        ScheduleFamily::kLowMem));
  ASSERT_GE(budget, candidate_workspace(m, k, n, planned.depth,
                                        ScheduleFamily::kInPlace));

  Rng rng(23);
  Matrix<double> A(m, k), B(k, n), C(m, n), Ref(m, n);
  rng.fill_int(A.storage(), -2, 2);
  rng.fill_int(B.storage(), -2, 2);
  blas::naive_gemm(Op::NoTrans, Op::NoTrans, m, n, k, 1.0, A.data(), m,
                   B.data(), k, 0.0, Ref.data(), m);

  ModgemmOptions opt;
  opt.max_workspace_bytes = budget;
  opt.strategy = layout::ExecStrategy::kMorton;
  ModgemmReport report;
  core::modgemm(Op::NoTrans, Op::NoTrans, m, n, k, 1.0, A.data(), m, B.data(),
                k, 0.0, C.data(), m, opt, &report);

  EXPECT_EQ(max_abs_diff<double>(C.view(), Ref.view()), 0.0);
  EXPECT_EQ(report.fallback_reason, FallbackReason::kDepthReduced);
  EXPECT_LT(report.plan.depth, planned.depth);
  EXPECT_STREQ(report.schedule, "winograd-lowmem");
  EXPECT_LE(report.workspace_peak_bytes, budget);
}

// ---------------------------------------------------------------------------
// Fault sweeps over the new schedule paths: correct product or untouched C.
// ---------------------------------------------------------------------------

// Counts the allocation sites of an un-faulted run under `opt`, then fails
// each site in turn (transient spike) and checks the contract against the
// naive oracle.  Mirrors test_fault_injection.cpp's sweep, parameterised by
// options so the Morton rung of the default table, the Kreczmar rung and
// the budget ladder get the same exhaustive treatment as the default path.
void sweep_with_options(int n, const ModgemmOptions& opt,
                        std::uint64_t seed) {
  Rng rng(seed);
  Matrix<double> A(n, n), B(n, n), C0(n, n), Ref(n, n), C(n, n);
  rng.fill_int(A.storage(), -3, 3);
  rng.fill_int(B.storage(), -3, 3);
  rng.fill_int(C0.storage(), -3, 3);
  copy_matrix<double>(C0.view(), Ref.view());
  blas::naive_gemm(Op::NoTrans, Op::NoTrans, n, n, n, 2.0, A.data(), n,
                   B.data(), n, -1.0, Ref.data(), n);

  std::uint64_t sites = 0;
  {
    ft::FaultInjector counter;
    copy_matrix<double>(C0.view(), C.view());
    core::modgemm(Op::NoTrans, Op::NoTrans, n, n, n, 2.0, A.data(), n,
                  B.data(), n, -1.0, C.data(), n, opt);
    sites = counter.allocations();
    ASSERT_EQ(counter.failures(), 0u);
    ASSERT_EQ(max_abs_diff<double>(C.view(), Ref.view()), 0.0);
  }
  ASSERT_GE(sites, 1u);

  for (std::uint64_t at = 1; at <= sites; ++at) {
    SCOPED_TRACE(::testing::Message() << "fail_at=" << at << "/" << sites);
    ft::FaultInjector inj(ft::FaultMode::kFailOnce, at);
    copy_matrix<double>(C0.view(), C.view());
    ModgemmReport report;
    try {
      core::modgemm(Op::NoTrans, Op::NoTrans, n, n, n, 2.0, A.data(), n,
                    B.data(), n, -1.0, C.data(), n, opt, &report);
      EXPECT_EQ(max_abs_diff<double>(C.view(), Ref.view()), 0.0);
      if (inj.failures() > 0) {
        EXPECT_NE(report.fallback_reason, FallbackReason::kNone);
      }
    } catch (const std::bad_alloc&) {
      EXPECT_EQ(max_abs_diff<double>(C.view(), C0.view()), 0.0);
    }
    EXPECT_GE(inj.failures(), 1u);
  }
}

TEST(LadderInvariants, FaultSweepLowMemSchedule) {
  // The default 2-buffer table on the Morton rung, whatever the planner
  // would pick for this shape.
  ModgemmOptions opt;
  opt.strategy = layout::ExecStrategy::kMorton;
  sweep_with_options(256, opt, 31);
}

TEST(LadderInvariants, FaultSweepInPlaceSchedule) {
  // A budget of exactly the Morton buffers: every run in the sweep starts on
  // Kreczmar's table at full depth, over padded tiles (300 = 75 << 2).
  const int n = 300;
  const layout::GemmPlan planned = layout::plan_gemm(n, n, n, {});
  ASSERT_TRUE(planned.feasible);
  ModgemmOptions opt;
  opt.strategy = layout::ExecStrategy::kMorton;
  opt.max_workspace_bytes =
      candidate_workspace(n, planned.depth, ScheduleFamily::kInPlace);
  ModgemmReport report;
  Matrix<double> A(n, n), B(n, n), C(n, n);
  core::modgemm(Op::NoTrans, Op::NoTrans, n, n, n, 1.0, A.data(), n,
                B.data(), n, 0.0, C.data(), n, opt, &report);
  ASSERT_EQ(report.fallback_reason, FallbackReason::kScheduleSwap);
  sweep_with_options(n, opt, 32);
}

TEST(LadderInvariants, FaultSweepScheduleSwapRung) {
  // A budget one byte short of the default plan, under the planner's own
  // strategy: the swap rung where Kreczmar's table can run, depth reduction
  // where it cannot.  Any injected failure must still end in the exact
  // product or an untouched C.
  const int n = 256;
  const layout::GemmPlan planned = layout::plan_gemm(n, n, n, {});
  ASSERT_TRUE(planned.feasible);
  const std::size_t budget =
      candidate_workspace(n, planned.depth, ScheduleFamily::kLowMem) - 1;
  ASSERT_GT(budget,
            candidate_workspace(n, planned.depth, ScheduleFamily::kInPlace));
  ModgemmOptions opt;
  opt.max_workspace_bytes = budget;
  sweep_with_options(n, opt, 33);
}

}  // namespace
}  // namespace strassen
