// Resilience tests (src/testing/fault_injection + the degradation ladder).
//
// The central contract under test: for EVERY allocation the library attempts
// during a modgemm call, failing that allocation must leave the caller with
// either the correct product (the ladder recovered on a cheaper path) or a
// clean std::bad_alloc with C untouched -- never a partially updated C.  The
// counted fault injector makes the sweep exhaustive: a count-only pass
// numbers the allocation sites, then each index is failed in turn, both as a
// transient spike (kFailOnce) and as a hard ceiling (kFailFrom).
//
// Also covered here: the workspace budget knob (planned depth -> reduced
// depth -> conventional, with Arena::peak() proving the bound is real),
// exception-safe fork/join under pmodgemm, and the nothrow try_modgemm
// entry point.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <new>
#include <stdexcept>

#include "blas/gemm.hpp"
#include "common/aligned_buffer.hpp"
#include "common/matrix.hpp"
#include "common/rng.hpp"
#include "common/status.hpp"
#include "core/modgemm.hpp"
#include "layout/plan.hpp"
#include "parallel/pmodgemm.hpp"
#include "parallel/thread_pool.hpp"
#include "testing/fault_injection.hpp"

namespace strassen {
namespace {

namespace ft = ::strassen::testing;
using core::FallbackReason;
using core::ModgemmOptions;
using core::ModgemmReport;

// ---------------------------------------------------------------------------
// The injector itself.
// ---------------------------------------------------------------------------

TEST(FaultInjector, CountsRefusesAndRestores) {
  {
    ft::FaultInjector counter;  // kCountOnly: observe, never fail
    AlignedBuffer a(128);
    AlignedBuffer b(64);
    EXPECT_EQ(counter.allocations(), 2u);
    EXPECT_EQ(counter.failures(), 0u);
  }
  {
    ft::FaultInjector inj(ft::FaultMode::kFailOnce, 2);
    AlignedBuffer first(64);
    EXPECT_THROW(AlignedBuffer second(64), std::bad_alloc);
    AlignedBuffer third(64);  // only the chosen index fails
    EXPECT_EQ(inj.failures(), 1u);
  }
  {
    ft::FaultInjector inj(ft::FaultMode::kFailFrom, 1);
    EXPECT_THROW(AlignedBuffer any(64), std::bad_alloc);
    EXPECT_THROW(AlignedBuffer again(64), std::bad_alloc);
    EXPECT_EQ(inj.failures(), 2u);
  }
  // Destructor restored the default gate: allocation works again.
  AlignedBuffer fine(256);
  EXPECT_EQ(fine.size_bytes(), 256u);
}

TEST(FaultInjector, RejectsZeroFailIndexAndDoubleInstall) {
  EXPECT_THROW(ft::FaultInjector(ft::FaultMode::kFailOnce, 0),
               std::invalid_argument);
  ft::FaultInjector outer;
  EXPECT_THROW(ft::FaultInjector inner, std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Exhaustive sweep over the serial driver.
// ---------------------------------------------------------------------------

struct Shape {
  Op opa, opb;
  int m, n, k;
  double alpha, beta;
};

// Counts the allocation sites of an un-faulted run, then fails each index in
// turn and checks the correct-product-or-untouched-C contract against the
// naive oracle.  Integer data keeps every comparison exact.
void sweep_serial(const Shape& s, ft::FaultMode mode) {
  Rng rng(static_cast<std::uint64_t>(s.m) * 7919 + s.n * 131 + s.k);
  const int ar = s.opa == Op::NoTrans ? s.m : s.k;
  const int ac = s.opa == Op::NoTrans ? s.k : s.m;
  const int br = s.opb == Op::NoTrans ? s.k : s.n;
  const int bc = s.opb == Op::NoTrans ? s.n : s.k;
  // All matrices are built BEFORE any injector is active -- the harness's
  // own buffers must not be counted or failed.
  Matrix<double> A(ar, ac), B(br, bc), C0(s.m, s.n), Ref(s.m, s.n),
      C(s.m, s.n);
  rng.fill_int(A.storage(), -3, 3);
  rng.fill_int(B.storage(), -3, 3);
  rng.fill_int(C0.storage(), -3, 3);
  copy_matrix<double>(C0.view(), Ref.view());
  blas::naive_gemm(s.opa, s.opb, s.m, s.n, s.k, s.alpha, A.data(), A.ld(),
                   B.data(), B.ld(), s.beta, Ref.data(), Ref.ld());

  std::uint64_t sites = 0;
  {
    ft::FaultInjector counter;
    copy_matrix<double>(C0.view(), C.view());
    core::modgemm(s.opa, s.opb, s.m, s.n, s.k, s.alpha, A.data(), A.ld(),
                  B.data(), B.ld(), s.beta, C.data(), C.ld());
    sites = counter.allocations();
    ASSERT_EQ(counter.failures(), 0u);
    ASSERT_EQ(max_abs_diff<double>(C.view(), Ref.view()), 0.0);
  }
  ASSERT_GE(sites, 1u);  // these shapes all take an allocating path

  for (std::uint64_t at = 1; at <= sites; ++at) {
    SCOPED_TRACE(::testing::Message()
                 << "fail_at=" << at << "/" << sites << " mode="
                 << (mode == ft::FaultMode::kFailOnce ? "once" : "from"));
    ft::FaultInjector inj(mode, at);
    copy_matrix<double>(C0.view(), C.view());
    ModgemmReport report;
    try {
      core::modgemm(s.opa, s.opb, s.m, s.n, s.k, s.alpha, A.data(), A.ld(),
                    B.data(), B.ld(), s.beta, C.data(), C.ld(), {}, &report);
      EXPECT_EQ(max_abs_diff<double>(C.view(), Ref.view()), 0.0);
      // A run that really lost an allocation must say how it degraded.
      if (inj.failures() > 0) {
        EXPECT_NE(report.fallback_reason, FallbackReason::kNone);
      }
    } catch (const std::bad_alloc&) {
      // The other permitted outcome: a clean rejection, C untouched.
      EXPECT_EQ(max_abs_diff<double>(C.view(), C0.view()), 0.0);
    }
    // The sweep actually reached and failed the chosen site: the execution
    // prefix before the first failure is identical to the counted run.
    EXPECT_GE(inj.failures(), 1u);
  }
}

TEST(FaultInjectionSerial, SquareStrassenFailOnce) {
  sweep_serial({Op::NoTrans, Op::NoTrans, 256, 256, 256, 2.0, -1.0},
               ft::FaultMode::kFailOnce);
}

TEST(FaultInjectionSerial, SquareStrassenFailFrom) {
  sweep_serial({Op::NoTrans, Op::NoTrans, 256, 256, 256, 2.0, -1.0},
               ft::FaultMode::kFailFrom);
}

TEST(FaultInjectionSerial, TransposedFailOnce) {
  sweep_serial({Op::Trans, Op::Trans, 200, 190, 210, 1.0, 0.0},
               ft::FaultMode::kFailOnce);
}

TEST(FaultInjectionSerial, TransposedFailFrom) {
  // kFailFrom with transposed operands exercises the bottom rung: the
  // Strassen arena fails, then gemm_blocked's transpose staging fails, and
  // the allocation-free gemm_strided must still produce the exact product.
  sweep_serial({Op::Trans, Op::Trans, 200, 190, 210, 1.0, 0.0},
               ft::FaultMode::kFailFrom);
}

TEST(FaultInjectionSerial, SplitShapeFailOnce) {
  // 300 x 300 x 70 admits no common depth -> the split path runs several
  // sub-products; each has its own allocation sites.
  sweep_serial({Op::NoTrans, Op::NoTrans, 300, 300, 70, 3.0, 1.0},
               ft::FaultMode::kFailOnce);
}

TEST(FaultInjectionSerial, SplitShapeFailFrom) {
  sweep_serial({Op::NoTrans, Op::NoTrans, 300, 300, 70, 3.0, 1.0},
               ft::FaultMode::kFailFrom);
}

TEST(FaultInjectionSerial, LadderRungsAreReported) {
  const int n = 256;
  Rng rng(9);
  Matrix<double> A(n, n), B(n, n), C(n, n), Ref(n, n);
  rng.fill_int(A.storage(), -3, 3);
  rng.fill_int(B.storage(), -3, 3);
  blas::naive_gemm(Op::NoTrans, Op::NoTrans, n, n, n, 1.0, A.data(), n,
                   B.data(), n, 0.0, Ref.data(), n);

  {
    // NoTrans under total exhaustion: the Strassen arena dies, and the
    // conventional path needs no staging -> alloc-direct.
    ft::FaultInjector inj(ft::FaultMode::kFailFrom, 1);
    ModgemmReport report;
    core::modgemm(Op::NoTrans, Op::NoTrans, n, n, n, 1.0, A.data(), n,
                  B.data(), n, 0.0, C.data(), n, {}, &report);
    EXPECT_EQ(report.fallback_reason, FallbackReason::kAllocDirect);
    EXPECT_EQ(max_abs_diff<double>(C.view(), Ref.view()), 0.0);
  }
  {
    // Trans under total exhaustion: even the staging buffer dies -> the
    // strided rung, still exact.
    Matrix<double> RefT(n, n);
    blas::naive_gemm(Op::Trans, Op::NoTrans, n, n, n, 1.0, A.data(), n,
                     B.data(), n, 0.0, RefT.data(), n);
    ft::FaultInjector inj(ft::FaultMode::kFailFrom, 1);
    ModgemmReport report;
    core::modgemm(Op::Trans, Op::NoTrans, n, n, n, 1.0, A.data(), n, B.data(),
                  n, 0.0, C.data(), n, {}, &report);
    EXPECT_EQ(report.fallback_reason, FallbackReason::kAllocStrided);
    EXPECT_EQ(max_abs_diff<double>(C.view(), RefT.view()), 0.0);
  }
}

// ---------------------------------------------------------------------------
// Workspace budget: proactive degradation.
// ---------------------------------------------------------------------------

TEST(WorkspaceBudget, DepthReductionStaysUnderBudgetAndExact) {
  // Non-square tiles: Kreczmar's table cannot run, so the ladder's first
  // rung that can hold a tighter budget is depth reduction.
  const int m = 512, k = 448, n = 512;
  const layout::GemmPlan planned = layout::plan_gemm(m, k, n, {});
  ASSERT_TRUE(planned.feasible);
  ASSERT_GE(planned.depth, 2);
  ASSERT_NE(planned.m.tile, planned.k.tile);

  // Budget exactly the Morton workspace of the next-shallower feasible plan
  // (the strategy pinned below): the driver must give up one recursion
  // level, no more.
  layout::GemmPlan shallower;
  shallower.depth = planned.depth - 1;
  shallower.m = layout::choose_dim_at_depth(m, shallower.depth, {});
  shallower.k = layout::choose_dim_at_depth(k, shallower.depth, {});
  shallower.n = layout::choose_dim_at_depth(n, shallower.depth, {});
  shallower.feasible = true;
  ASSERT_NE(shallower.m.tile, 0);
  ASSERT_NE(shallower.k.tile, 0);
  ASSERT_NE(shallower.n.tile, 0);
  const std::size_t budget =
      core::modgemm_workspace_bytes(shallower, sizeof(double));
  ASSERT_LT(budget, core::modgemm_workspace_bytes(planned, sizeof(double)));

  Rng rng(10);
  Matrix<double> A(m, k), B(k, n), C(m, n), Ref(m, n);
  rng.fill_int(A.storage(), -2, 2);
  rng.fill_int(B.storage(), -2, 2);
  blas::naive_gemm(Op::NoTrans, Op::NoTrans, m, n, k, 1.0, A.data(), m,
                   B.data(), k, 0.0, Ref.data(), m);

  ModgemmOptions opt;
  opt.max_workspace_bytes = budget;
  // Pin Morton: an unpinned call would instead run pack-fused at full
  // depth, which this budget also holds.
  opt.strategy = layout::ExecStrategy::kMorton;
  ModgemmReport report;
  core::modgemm(Op::NoTrans, Op::NoTrans, m, n, k, 1.0, A.data(), m, B.data(),
                k, 0.0, C.data(), m, opt, &report);

  EXPECT_EQ(max_abs_diff<double>(C.view(), Ref.view()), 0.0);
  EXPECT_EQ(report.fallback_reason, FallbackReason::kDepthReduced);
  EXPECT_EQ(report.planned_depth, planned.depth);
  EXPECT_LT(report.plan.depth, planned.depth);
  EXPECT_GE(report.plan.depth, 1);
  // The budget is a real bound on temporary memory: the executed arena's
  // high-water mark (Arena::peak(), surfaced as workspace_peak_bytes)
  // stayed within it.
  EXPECT_GT(report.workspace_peak_bytes, 0u);
  EXPECT_LE(report.workspace_peak_bytes, budget);
}

TEST(WorkspaceBudget, TinyBudgetFallsBackToDirect) {
  const int n = 300;
  Rng rng(11);
  Matrix<double> A(n, n), B(n, n), C(n, n), Ref(n, n);
  rng.fill_int(A.storage(), -3, 3);
  rng.fill_int(B.storage(), -3, 3);
  blas::naive_gemm(Op::NoTrans, Op::NoTrans, n, n, n, 1.0, A.data(), n,
                   B.data(), n, 0.0, Ref.data(), n);

  ModgemmOptions opt;
  opt.max_workspace_bytes = 1024;  // no Strassen depth can fit this
  ModgemmReport report;
  core::modgemm(Op::NoTrans, Op::NoTrans, n, n, n, 1.0, A.data(), n, B.data(),
                n, 0.0, C.data(), n, opt, &report);

  EXPECT_EQ(max_abs_diff<double>(C.view(), Ref.view()), 0.0);
  EXPECT_EQ(report.fallback_reason, FallbackReason::kBudgetDirect);
  EXPECT_TRUE(report.plan.direct);
  EXPECT_EQ(report.workspace_peak_bytes, 0u);  // no arena was built at all
}

TEST(WorkspaceBudget, GenerousBudgetChangesNothing) {
  const int n = 256;
  const layout::GemmPlan planned = layout::plan_gemm(n, n, n, {});
  ASSERT_TRUE(planned.feasible);
  Rng rng(12);
  Matrix<double> A(n, n), B(n, n), C(n, n), Ref(n, n);
  rng.fill_int(A.storage(), -3, 3);
  rng.fill_int(B.storage(), -3, 3);
  blas::naive_gemm(Op::NoTrans, Op::NoTrans, n, n, n, 1.0, A.data(), n,
                   B.data(), n, 0.0, Ref.data(), n);

  ModgemmOptions opt;
  opt.max_workspace_bytes =
      core::modgemm_workspace_bytes(planned, sizeof(double));
  ModgemmReport report;
  core::modgemm(Op::NoTrans, Op::NoTrans, n, n, n, 1.0, A.data(), n, B.data(),
                n, 0.0, C.data(), n, opt, &report);

  EXPECT_EQ(max_abs_diff<double>(C.view(), Ref.view()), 0.0);
  EXPECT_EQ(report.fallback_reason, FallbackReason::kNone);
  EXPECT_EQ(report.plan.depth, planned.depth);
  EXPECT_LE(report.workspace_peak_bytes, opt.max_workspace_bytes);
}

TEST(WorkspaceBudget, BudgetAppliesToEverySplitSubProduct) {
  // Split-path shape (under the paper's window) with a tiny budget: every
  // sub-product must run direct, and the result must still be exact.
  const int m = 300, n = 300, k = 70;
  Rng rng(13);
  Matrix<double> A(m, k), B(k, n), C(m, n), Ref(m, n);
  rng.fill_int(A.storage(), -3, 3);
  rng.fill_int(B.storage(), -3, 3);
  blas::naive_gemm(Op::NoTrans, Op::NoTrans, m, n, k, 1.0, A.data(), m,
                   B.data(), k, 0.0, Ref.data(), m);

  ModgemmOptions opt;
  opt.tiles = layout::kPaperTileWindow;
  opt.max_workspace_bytes = 1024;
  ModgemmReport report;
  core::modgemm(Op::NoTrans, Op::NoTrans, m, n, k, 1.0, A.data(), m, B.data(),
                k, 0.0, C.data(), m, opt, &report);

  EXPECT_EQ(max_abs_diff<double>(C.view(), Ref.view()), 0.0);
  EXPECT_TRUE(report.split_used);
  EXPECT_EQ(report.fallback_reason, FallbackReason::kBudgetDirect);
  EXPECT_EQ(report.workspace_peak_bytes, 0u);
}

// ---------------------------------------------------------------------------
// The parallel driver under injection.
// ---------------------------------------------------------------------------

TEST(FaultInjectionParallel, SweepFailOnceEveryAllocationSite) {
  const int n = 257;
  Rng rng(14);
  Matrix<double> A(n, n), B(n, n), C(n, n), Ref(n, n);
  rng.fill_int(A.storage(), -3, 3);
  rng.fill_int(B.storage(), -3, 3);
  blas::naive_gemm(Op::NoTrans, Op::NoTrans, n, n, n, 1.0, A.data(), n,
                   B.data(), n, 0.0, Ref.data(), n);

  parallel::ThreadPool pool(4);
  parallel::ParallelOptions popt;
  popt.spawn_levels = 1;

  std::uint64_t sites = 0;
  {
    ft::FaultInjector counter;
    parallel::pmodgemm(&pool, Op::NoTrans, Op::NoTrans, n, n, n, 1.0, A.data(),
                       n, B.data(), n, 0.0, C.data(), n, popt);
    sites = counter.allocations();
    ASSERT_EQ(max_abs_diff<double>(C.view(), Ref.view()), 0.0);
  }
  // At least the three Morton buffers plus one per-task arena.
  ASSERT_GE(sites, 4u);

  for (std::uint64_t at = 1; at <= sites; ++at) {
    SCOPED_TRACE(::testing::Message() << "fail_at=" << at << "/" << sites);
    ft::FaultInjector inj(ft::FaultMode::kFailOnce, at);
    // Poison C: with beta == 0 a correct call must overwrite every element,
    // so a partial write (or a skipped fallback) cannot hide.
    for (auto& x : C.storage()) x = -7.0;
    // A failing task's bad_alloc surfaces at TaskGroup::wait() (after its
    // siblings joined, so the process must NOT terminate), pmodgemm catches
    // it and re-runs on the serial ladder.
    parallel::pmodgemm(&pool, Op::NoTrans, Op::NoTrans, n, n, n, 1.0, A.data(),
                       n, B.data(), n, 0.0, C.data(), n, popt);
    EXPECT_EQ(max_abs_diff<double>(C.view(), Ref.view()), 0.0);
    EXPECT_GE(inj.failures(), 1u);
  }

  // The pool survived every injected failure and is still fully usable.
  for (auto& x : C.storage()) x = -7.0;
  parallel::pmodgemm(&pool, Op::NoTrans, Op::NoTrans, n, n, n, 1.0, A.data(),
                     n, B.data(), n, 0.0, C.data(), n, popt);
  EXPECT_EQ(max_abs_diff<double>(C.view(), Ref.view()), 0.0);
}

TEST(FaultInjectionParallel, TotalExhaustionStillExact) {
  // Every library allocation refused for the whole call: the parallel
  // buffers die immediately, the serial retry's arena dies, and the
  // allocation-free rung still delivers the product.
  const int n = 150;
  Rng rng(15);
  Matrix<double> A(n, n), B(n, n), C(n, n), Ref(n, n);
  rng.fill_int(A.storage(), -3, 3);
  rng.fill_int(B.storage(), -3, 3);
  blas::naive_gemm(Op::NoTrans, Op::NoTrans, n, n, n, 1.0, A.data(), n,
                   B.data(), n, 0.0, Ref.data(), n);
  parallel::ThreadPool pool(2);
  ft::FaultInjector inj(ft::FaultMode::kFailFrom, 1);
  parallel::pmodgemm(&pool, Op::NoTrans, Op::NoTrans, n, n, n, 1.0, A.data(),
                     n, B.data(), n, 0.0, C.data(), n);
  EXPECT_EQ(max_abs_diff<double>(C.view(), Ref.view()), 0.0);
  EXPECT_GE(inj.failures(), 1u);
}

TEST(FaultInjectionParallel, ThrowingTaskSurfacesAtWaitPoolReusable) {
  // The acceptance property stated directly on the primitives: a throwing
  // task inside a fork/join group surfaces at wait() -- after every sibling
  // finished -- without terminating the process, and the pool is reusable.
  parallel::ThreadPool pool(2);
  std::atomic<int> siblings{0};
  {
    parallel::TaskGroup group(&pool);
    for (int i = 0; i < 8; ++i) {
      group.run([&siblings, i] {
        if (i == 3) throw std::runtime_error("injected task failure");
        ++siblings;
      });
    }
    EXPECT_THROW(group.wait(), std::runtime_error);
    EXPECT_EQ(siblings.load(), 7);  // all non-throwing siblings completed
  }
  std::atomic<int> count{0};
  parallel::TaskGroup again(&pool);
  for (int i = 0; i < 100; ++i) again.run([&count] { ++count; });
  again.wait();
  EXPECT_EQ(count.load(), 100);
}

// ---------------------------------------------------------------------------
// The nothrow entry point.
// ---------------------------------------------------------------------------

TEST(TryModgemm, OkAndExactOnValidArguments) {
  const int n = 150;
  Rng rng(16);
  Matrix<double> A(n, n), B(n, n), C(n, n), Ref(n, n);
  rng.fill_int(A.storage(), -3, 3);
  rng.fill_int(B.storage(), -3, 3);
  blas::naive_gemm(Op::NoTrans, Op::NoTrans, n, n, n, 1.0, A.data(), n,
                   B.data(), n, 0.0, Ref.data(), n);
  const Status st = core::try_modgemm(Op::NoTrans, Op::NoTrans, n, n, n, 1.0,
                                      A.data(), n, B.data(), n, 0.0, C.data(),
                                      n);
  EXPECT_EQ(st, Status::kOk);
  EXPECT_TRUE(ok(st));
  EXPECT_EQ(max_abs_diff<double>(C.view(), Ref.view()), 0.0);
}

TEST(TryModgemm, ArgumentErrorsMapToBlasInfoCodes) {
  Matrix<double> A(100, 100), B(100, 100), C0(100, 100), C(100, 100);
  Rng rng(17);
  rng.fill_int(C0.storage());
  copy_matrix<double>(C0.view(), C.view());
  auto call = [&](Op opa, Op opb, int m, int n, int k, int lda, int ldb,
                  int ldc) {
    return core::try_modgemm(opa, opb, m, n, k, 1.0, A.data(), lda, B.data(),
                             ldb, 0.0, C.data(), ldc);
  };
  EXPECT_EQ(call(Op::NoTrans, Op::NoTrans, -1, 10, 10, 100, 100, 100),
            Status::kBadM);
  EXPECT_EQ(call(Op::NoTrans, Op::NoTrans, 10, -1, 10, 100, 100, 100),
            Status::kBadN);
  EXPECT_EQ(call(Op::NoTrans, Op::NoTrans, 10, 10, -1, 100, 100, 100),
            Status::kBadK);
  EXPECT_EQ(call(Op::NoTrans, Op::NoTrans, 100, 100, 100, 50, 100, 100),
            Status::kBadLda);
  EXPECT_EQ(call(Op::Trans, Op::NoTrans, 100, 100, 120, 100, 120, 100),
            Status::kBadLda);  // op(A) stored k x m needs lda >= k
  EXPECT_EQ(call(Op::NoTrans, Op::NoTrans, 100, 100, 100, 100, 50, 100),
            Status::kBadLdb);
  EXPECT_EQ(call(Op::NoTrans, Op::NoTrans, 100, 100, 100, 100, 100, 50),
            Status::kBadLdc);
  // The info codes are the BLAS xerbla argument positions.
  EXPECT_EQ(static_cast<int>(Status::kBadM), 3);
  EXPECT_EQ(static_cast<int>(Status::kBadLda), 8);
  EXPECT_EQ(static_cast<int>(Status::kBadLdc), 13);
  // No rejected call touched C.
  EXPECT_EQ(max_abs_diff<double>(C.view(), C0.view()), 0.0);
}

TEST(TryModgemm, NoThrowEvenUnderTotalExhaustion) {
  const int n = 256;
  Rng rng(18);
  Matrix<double> A(n, n), B(n, n), C(n, n), Ref(n, n);
  rng.fill_int(A.storage(), -3, 3);
  rng.fill_int(B.storage(), -3, 3);
  blas::naive_gemm(Op::NoTrans, Op::NoTrans, n, n, n, 1.0, A.data(), n,
                   B.data(), n, 0.0, Ref.data(), n);
  ft::FaultInjector inj(ft::FaultMode::kFailFrom, 1);
  ModgemmReport report;
  const Status st =
      core::try_modgemm(Op::NoTrans, Op::NoTrans, n, n, n, 1.0, A.data(), n,
                        B.data(), n, 0.0, C.data(), n, {}, &report);
  // The ladder bottoms out allocation-free, so even total exhaustion yields
  // the product, not kOutOfMemory.
  EXPECT_EQ(st, Status::kOk);
  EXPECT_EQ(max_abs_diff<double>(C.view(), Ref.view()), 0.0);
  EXPECT_NE(report.fallback_reason, FallbackReason::kNone);
  EXPECT_GE(inj.failures(), 1u);
}

}  // namespace
}  // namespace strassen
