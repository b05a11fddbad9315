// Degradation-ladder invariants (core::detail::apply_workspace_budget +
// record_fallback).
//
// The ladder's contract, from least to most severe:
//   kNone -> kScheduleSwap -> kDepthReduced -> kBudgetDirect
// with the allocation-failure rungs (kAllocDirect, kAllocStrided) beyond
// those.  Invariants pinned here:
//   * a budget that once forced depth reduction is now satisfied at FULL
//     planned depth by a lower-footprint schedule family (the swap rung),
//   * whatever rung is taken, the executed arena peak stays within the
//     budget,
//   * record_fallback only ever escalates (split products report the worst
//     rung any sub-product took),
//   * pinning a family disables the swap rung but keeps depth reduction
//     within that family,
//   * every allocation-failure point on the new schedule paths still leaves
//     either the exact product or an untouched C.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <functional>
#include <new>
#include <string>
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

// The swap-rung tests need the planner unpinned: a surrounding
// STRASSEN_SCHEDULE (the chaos CI job exports one) would disable the very
// rung under test.  Clears it for the test's scope, restoring on exit.
class UnpinnedScheduleEnv {
 public:
  UnpinnedScheduleEnv() {
    const char* old = std::getenv("STRASSEN_SCHEDULE");
    had_ = old != nullptr;
    if (had_) {
      saved_ = old;
      ::unsetenv("STRASSEN_SCHEDULE");
    }
  }
  ~UnpinnedScheduleEnv() {
    if (had_) ::setenv("STRASSEN_SCHEDULE", saved_.c_str(), 1);
  }

 private:
  bool had_ = false;
  std::string saved_;
};

// The workspace a given (depth, family) candidate would need for an n^3
// product, or 0 when no tiling exists at that depth.
std::size_t candidate_workspace(int n, int depth, ScheduleFamily family) {
  layout::GemmPlan cand;
  cand.depth = depth;
  cand.m = layout::choose_dim_at_depth(n, depth, {});
  cand.k = cand.m;
  cand.n = cand.m;
  cand.feasible = true;
  cand.schedule = family;
  if (cand.m.tile == 0) return 0;
  return core::modgemm_workspace_bytes(cand, sizeof(double));
}

// ---------------------------------------------------------------------------
// Rung 1: the schedule swap.
// ---------------------------------------------------------------------------

TEST(LadderInvariants, BudgetForcesScheduleSwapNotDepthReduction) {
  UnpinnedScheduleEnv unpinned;
  const int n = 512;
  const layout::GemmPlan planned = layout::plan_gemm(n, n, n, {});
  ASSERT_TRUE(planned.feasible);
  ASSERT_GE(planned.depth, 2);

  // The budget that test_fault_injection.cpp uses to force depth reduction
  // under a pinned default family: the workspace of the next-shallower
  // default plan.  The full-depth low-memory schedule fits under it, so the
  // un-pinned planner must keep the planned depth and swap families instead.
  const std::size_t budget =
      candidate_workspace(n, planned.depth - 1, ScheduleFamily::kWinograd);
  ASSERT_NE(budget, 0u);
  ASSERT_LT(budget, core::modgemm_workspace_bytes(planned, sizeof(double)));
  ASSERT_LE(candidate_workspace(n, planned.depth, ScheduleFamily::kLowMem),
            budget);

  Rng rng(21);
  Matrix<double> A(n, n), B(n, n), C(n, n), Ref(n, n);
  rng.fill_int(A.storage(), -2, 2);
  rng.fill_int(B.storage(), -2, 2);
  blas::naive_gemm(Op::NoTrans, Op::NoTrans, n, n, n, 1.0, A.data(), n,
                   B.data(), n, 0.0, Ref.data(), n);

  ModgemmOptions opt;
  opt.max_workspace_bytes = budget;
  // Pin <2,2,2>: the budget arithmetic above prices <2,2,2> plans, and a
  // forced STRASSEN_ALGO family would intercept the ladder (pin > env).
  opt.algo = analysis::AlgoFamily::k222;
  ModgemmReport report;
  core::modgemm(Op::NoTrans, Op::NoTrans, n, n, n, 1.0, A.data(), n, B.data(),
                n, 0.0, C.data(), n, opt, &report);

  EXPECT_EQ(max_abs_diff<double>(C.view(), Ref.view()), 0.0);
  EXPECT_EQ(report.fallback_reason, FallbackReason::kScheduleSwap);
  // Full planned depth was kept -- only the schedule changed.
  EXPECT_EQ(report.plan.depth, planned.depth);
  EXPECT_EQ(report.planned_depth, planned.depth);
  EXPECT_STREQ(report.schedule, "winograd-lowmem");
  // The swap is a real saving and a real bound.
  EXPECT_GT(report.workspace_saved_bytes, 0u);
  EXPECT_GT(report.workspace_peak_bytes, 0u);
  EXPECT_LE(report.workspace_peak_bytes, budget);
}

TEST(LadderInvariants, EveryRungRespectsItsBudget) {
  UnpinnedScheduleEnv unpinned;
  const int n = 512;
  const layout::GemmPlan planned = layout::plan_gemm(n, n, n, {});
  ASSERT_TRUE(planned.feasible);

  // Budgets sized to each candidate the ladder can land on, descending, plus
  // a bottom rung no Strassen depth fits.  Tightening the budget must never
  // make the recorded degradation LESS severe, and the executed peak must
  // stay within the budget at every rung.
  std::vector<std::size_t> budgets;
  for (int d = planned.depth; d >= 1; --d)
    for (ScheduleFamily f : {ScheduleFamily::kWinograd, ScheduleFamily::kLowMem,
                             ScheduleFamily::kInPlace}) {
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
    // Pin <2,2,2>: the rung shapes below describe the <2,2,2> ladder
    // (pin > a forced STRASSEN_ALGO environment).
    opt.algo = analysis::AlgoFamily::k222;
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
        EXPECT_STRNE(report.schedule, "winograd");
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
// Pinned families and the ladder.
// ---------------------------------------------------------------------------

TEST(LadderInvariants, PinnedFamilyDepthReducesWithinThatFamily) {
  const int n = 512;
  const layout::GemmPlan planned = layout::plan_gemm(n, n, n, {});
  ASSERT_TRUE(planned.feasible);
  ASSERT_GE(planned.depth, 2);

  // Budget below the pinned family's full-depth need: the swap rung is
  // unavailable (the pin already priced the family in), so the ladder must
  // give depth back WITHOUT abandoning the pinned schedule.
  const std::size_t budget =
      candidate_workspace(n, planned.depth - 1, ScheduleFamily::kLowMem);
  ASSERT_NE(budget, 0u);
  ASSERT_LT(budget,
            candidate_workspace(n, planned.depth, ScheduleFamily::kLowMem));

  Rng rng(23);
  Matrix<double> A(n, n), B(n, n), C(n, n), Ref(n, n);
  rng.fill_int(A.storage(), -2, 2);
  rng.fill_int(B.storage(), -2, 2);
  blas::naive_gemm(Op::NoTrans, Op::NoTrans, n, n, n, 1.0, A.data(), n,
                   B.data(), n, 0.0, Ref.data(), n);

  ModgemmOptions opt;
  opt.max_workspace_bytes = budget;
  opt.schedule = ScheduleFamily::kLowMem;
  // Pin <2,2,2>: same reason as above -- the budget prices <2,2,2> plans.
  opt.algo = analysis::AlgoFamily::k222;
  ModgemmReport report;
  core::modgemm(Op::NoTrans, Op::NoTrans, n, n, n, 1.0, A.data(), n, B.data(),
                n, 0.0, C.data(), n, opt, &report);

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
// options so the low-memory schedules and the swap rung get the same
// exhaustive treatment as the default path.
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
  ModgemmOptions opt;
  opt.schedule = ScheduleFamily::kLowMem;
  sweep_with_options(256, opt, 31);
}

TEST(LadderInvariants, FaultSweepInPlaceSchedule) {
  ModgemmOptions opt;
  opt.schedule = ScheduleFamily::kInPlace;
  sweep_with_options(256, opt, 32);
}

TEST(LadderInvariants, FaultSweepScheduleSwapRung) {
  // A budget that admits full depth only on a low-memory family: every run
  // in the sweep starts from the swap rung, and any injected failure must
  // still end in the exact product or an untouched C.
  UnpinnedScheduleEnv unpinned;
  const int n = 256;
  const layout::GemmPlan planned = layout::plan_gemm(n, n, n, {});
  ASSERT_TRUE(planned.feasible);
  const std::size_t budget =
      candidate_workspace(n, planned.depth, ScheduleFamily::kLowMem);
  ASSERT_NE(budget, 0u);
  ASSERT_LT(budget, core::modgemm_workspace_bytes(planned, sizeof(double)));
  ModgemmOptions opt;
  opt.max_workspace_bytes = budget;
  sweep_with_options(n, opt, 33);
}

}  // namespace
}  // namespace strassen
