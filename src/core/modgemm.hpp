// modgemm.hpp -- MODGEMM: the paper's memory-friendly Strassen-Winograd GEMM.
//
// Public semantics are exactly Level 3 BLAS dgemm (paper S2.1):
//
//     C <- alpha * op(A) . op(B) + beta * C
//
// with column-major A, B, C and leading dimensions; op(X) is X or X^T.
//
// Pipeline for one product (paper S3.5):
//   1. plan     -- choose the per-dimension truncation tiles and the common
//                  recursion depth that minimize padding (layout/plan).
//   2. convert  -- copy op(A), op(B) into zero-padded Morton buffers; the
//                  transposition is folded into this gather.
//   3. recurse  -- Strassen-Winograd over the Morton blocks (core/winograd),
//                  producing D = op(A).op(B) in Morton order.
//   4. convert  -- write C <- alpha*D + beta*C while converting back to
//                  column-major (the alpha/beta work is fused here, so the
//                  common alpha=1, beta=0 case costs nothing extra).
//
// Highly rectangular inputs that admit no common recursion depth are first
// decomposed by layout/split and reconstructed as sums of sub-products
// (paper Fig. 4); thin problems (min dimension <= direct_threshold) skip
// Strassen and run the conventional blocked algorithm.
#pragma once

#include <algorithm>
#include <cstdint>
#include <new>
#include <optional>
#include <type_traits>

#include "blas/gemm.hpp"
#include "blas/kernels/registry.hpp"
#include "common/arena.hpp"
#include "common/check.hpp"
#include "common/matrix.hpp"
#include "common/memmodel.hpp"
#include "common/status.hpp"
#include "common/timer.hpp"
#include "core/family.hpp"
#include "core/packfused.hpp"
#include "core/winograd.hpp"
#include "core/workspace.hpp"
#include "layout/convert.hpp"
#include "layout/plan.hpp"
#include "layout/split.hpp"
#include "obs/report.hpp"

namespace strassen::core {

// The per-call report and fallback ladder live in obs/ (shared with the
// parallel driver and the env sink); core keeps its historical names as
// aliases so existing embedders compile unchanged.
using FallbackReason = obs::FallbackReason;
using ModgemmReport = obs::GemmReport;
using obs::fallback_reason_name;

// Tuning knobs for the MODGEMM driver.
struct ModgemmOptions {
  layout::TileOptions tiles{};
  // Ablation switch: force a fixed truncation tile (static padding, the
  // paper's strawman).  0 = dynamic selection (the paper's contribution).
  int fixed_tile = 0;
  // Workspace budget in bytes for the Morton buffers plus the recursion
  // arena of each planned product (0 = unlimited).  When the planned depth
  // needs more than this, the driver degrades gracefully: it re-plans at a
  // shallower recursion depth (less temporary space, per Boyer et al.'s
  // depth/space trade-off) and, when no Strassen depth fits, falls back to
  // the workspace-free conventional gemm_blocked path.  The chosen
  // degradation is recorded in ModgemmReport::fallback_reason.
  std::size_t max_workspace_bytes = 0;
  // Leaf-kernel pin for this call.  kAuto (the default) leaves the engine's
  // active kernel alone (environment / CPU probe / autotuner selection); any
  // other value is installed for the duration of the call and restored on
  // return.  The active kernel is process-global (kernels/registry.hpp), so
  // concurrent calls pinning different kernels race -- pin at startup or via
  // STRASSEN_KERNEL for multi-threaded embedders.  Only the production
  // (RawMem, double) instantiation consults the engine; traced executions
  // always run the scalar path.
  blas::kernels::Kind kernel = blas::kernels::Kind::kAuto;
  blas::kernels::Avx2Variant avx2_variant = blas::kernels::Avx2Variant::kAuto;
  // Schedule-family pin for this call (analysis/schedule.hpp).  kAuto (the
  // default) defers to the STRASSEN_SCHEDULE environment override and then
  // to the planner, which runs the seed-exact 3-temporary family and swaps
  // to the low-memory families only when max_workspace_bytes forces it
  // (recorded as FallbackReason::kScheduleSwap).  Pinning kLowMem/kInPlace
  // runs that family unconditionally; pinning kWinograd disables the
  // schedule-swap rung (the ladder then degrades by depth as before).
  analysis::ScheduleFamily schedule = analysis::ScheduleFamily::kAuto;
  // Execution-strategy pin for this call (layout/plan.hpp).  kAuto (the
  // default) defers to the STRASSEN_STRATEGY environment override and then
  // to the planner heuristic (layout::choose_exec_strategy): pack-fused for
  // one-shot / rectangular / shallow-recursion shapes, Morton for deep
  // square recursions.  Pinning kMorton or kPackFused runs that strategy for
  // every Strassen product of the call regardless of the environment.  Both
  // strategies are bit-identical for all alpha/beta; non-Strassen (direct)
  // products and traced/non-RawMem instantiations always execute kMorton.
  layout::ExecStrategy strategy = layout::ExecStrategy::kAuto;
  // <m,k,n> algorithm-family pin for this call (analysis/algo_family.hpp).
  // kAuto (the default) defers to the STRASSEN_ALGO environment override and
  // then to the planner heuristic (layout::choose_algo), which keeps every
  // square / deep problem on the seed-exact <2,2,2> path and switches to a
  // shape-matched table (<3,2,3>, <2,3,4>, <3,3,3>) only on a clear modeled
  // win.  Pinning k222 disables the families outright; pinning any other
  // value runs one level of that coefficient table unconditionally, with
  // every sub-product recursing through the plain <2,2,2> driver.  A pinned
  // family that cannot run (its ceil-partitioned sub-products would sit at
  // or below the direct threshold, its staging exceeds max_workspace_bytes,
  // or its up-front allocation fails) degrades to <2,2,2>, recorded as
  // FallbackReason::kAlgoFallback.  The fixed_tile ablation studies <2,2,2>
  // padding and never runs a family.
  analysis::AlgoFamily algo = analysis::AlgoFamily::kAuto;
  // Per-call observability: when non-null, the call fills *report with phase
  // timers, plan/padding data, workspace accounting, kernel telemetry and
  // (for pmodgemm) parallel stats -- see obs/report.hpp.  Null (the default)
  // keeps the whole subsystem off: no clocks, no counters, no allocations.
  // Equivalent to the trailing `report` parameter, which takes precedence
  // when both are set.
  obs::GemmReport* report = nullptr;
};

// dgemm-convention argument validation shared by every entry point (serial,
// parallel, nothrow, Fortran compat), so they all reject identically.
// Returns kOk or the Status naming the first bad argument.
inline Status validate_gemm_args(Op opa, Op opb, int m, int n, int k, int lda,
                                 int ldb, int ldc) noexcept {
  if (m < 0) return Status::kBadM;
  if (n < 0) return Status::kBadN;
  if (k < 0) return Status::kBadK;
  if (lda < std::max(1, opa == Op::NoTrans ? m : k)) return Status::kBadLda;
  if (ldb < std::max(1, opb == Op::NoTrans ? k : n)) return Status::kBadLdb;
  if (ldc < std::max(1, m)) return Status::kBadLdc;
  return Status::kOk;
}

// Throwing flavor: rejects with the offending values in the message.
inline void require_gemm_args(Op opa, Op opb, int m, int n, int k, int lda,
                              int ldb, int ldc) {
  STRASSEN_REQUIRE(m >= 0 && n >= 0 && k >= 0,
                   "negative dimension: m=" << m << " n=" << n << " k=" << k);
  STRASSEN_REQUIRE(lda >= std::max(1, opa == Op::NoTrans ? m : k),
                   "lda too small: lda=" << lda << " op(A)=" << op_char(opa)
                                         << " m=" << m << " k=" << k);
  STRASSEN_REQUIRE(ldb >= std::max(1, opb == Op::NoTrans ? k : n),
                   "ldb too small: ldb=" << ldb << " op(B)=" << op_char(opb)
                                         << " k=" << k << " n=" << n);
  STRASSEN_REQUIRE(ldc >= std::max(1, m),
                   "ldc too small: ldc=" << ldc << " m=" << m);
}

// Peak temporary bytes modgemm needs for one product under this plan: the
// three Morton buffers plus the Winograd recursion arena (sized for the
// plan's schedule family), including the per-allocation 64-byte rounding.
// Direct plans need none (gemm_blocked streams from the operands).
// Overflow-checked; public so embedders can size
// ModgemmOptions::max_workspace_bytes.
inline std::size_t modgemm_workspace_bytes(const layout::GemmPlan& plan,
                                           std::size_t elem_size) {
  if (plan.direct || !plan.feasible) return 0;
  return checked_add(modgemm_conversion_bytes(plan, elem_size),
                     winograd_workspace_bytes(plan.m.tile, plan.k.tile,
                                              plan.n.tile, plan.depth,
                                              elem_size, plan.schedule));
}

// Forward declaration (defined below): the family engine's sub-products
// recurse through the full driver with the algorithm pinned to <2,2,2>.
template <class MM, class T>
void modgemm_mm(MM& mm, Op opa, Op opb, int m, int n, int k, T alpha,
                const T* A, int lda, const T* B, int ldb, T beta, T* C,
                int ldc, const ModgemmOptions& opt = {},
                ModgemmReport* report = nullptr);

namespace detail {

// Parses a STRASSEN_SCHEDULE value ("auto", "winograd", "winograd-lowmem",
// "winograd-inplace"); throws via STRASSEN_REQUIRE naming the offending
// value on anything else.  Implemented in modgemm.cpp.
analysis::ScheduleFamily parse_schedule_family(const char* value);

// The STRASSEN_SCHEDULE environment override, re-read per call (value
// grammar follows the STRASSEN_KERNEL idiom).  Unset or "auto" -> kAuto;
// malformed values throw.
analysis::ScheduleFamily env_schedule_family();

// The schedule family this call runs: the per-call pin wins, then the
// environment override, then kAuto (planner's choice).
inline analysis::ScheduleFamily resolve_schedule_family(
    const ModgemmOptions& opt) {
  if (opt.schedule != analysis::ScheduleFamily::kAuto) return opt.schedule;
  return env_schedule_family();
}

// Parses a STRASSEN_STRATEGY value ("auto", "morton", "packfused"); throws
// via STRASSEN_REQUIRE naming the offending value on anything else.
// Implemented in modgemm.cpp.
layout::ExecStrategy parse_exec_strategy(const char* value);

// The STRASSEN_STRATEGY environment override, re-read per call (same
// grammar discipline as STRASSEN_SCHEDULE).  Unset or "auto" -> kAuto;
// malformed values throw.
layout::ExecStrategy env_exec_strategy();

// The strategy this call resolved from its pin and environment (the per-call
// pin wins, so tests pinning kMorton hold even under a forced
// STRASSEN_STRATEGY).  kAuto defers the final choice to the per-plan
// heuristic below.
inline layout::ExecStrategy resolve_exec_strategy(const ModgemmOptions& opt) {
  if (opt.strategy != layout::ExecStrategy::kAuto) return opt.strategy;
  return env_exec_strategy();
}

// Parses a STRASSEN_ALGO value ("auto", "222", "323", "234", "333"); throws
// via STRASSEN_REQUIRE naming the offending value on anything else.
// Implemented in modgemm.cpp.
analysis::AlgoFamily parse_algo_family(const char* value);

// The STRASSEN_ALGO environment override, re-read per call (same grammar
// discipline as STRASSEN_SCHEDULE).  Unset or "auto" -> kAuto; malformed
// values throw.
analysis::AlgoFamily env_algo_family();

// The <m,k,n> family this call resolved from its pin and environment (the
// per-call pin wins, so the family engine's own <2,2,2>-pinned sub-products
// hold even under a forced STRASSEN_ALGO).  kAuto defers the final choice to
// layout::choose_algo.
inline analysis::AlgoFamily resolve_algo_family(const ModgemmOptions& opt) {
  if (opt.algo != analysis::AlgoFamily::kAuto) return opt.algo;
  return env_algo_family();
}

// The strategy one PLANNED product executes: non-Strassen plans always run
// kMorton (there is nothing to fuse), an explicit pin/env choice sticks, and
// kAuto consults the planner heuristic.
inline layout::ExecStrategy plan_exec_strategy(layout::ExecStrategy resolved,
                                               const layout::GemmPlan& plan,
                                               int m, int k, int n,
                                               const layout::TileOptions& tiles) {
  if (plan.direct || !plan.feasible || plan.depth < 1)
    return layout::ExecStrategy::kMorton;
  if (resolved != layout::ExecStrategy::kAuto) return resolved;
  return layout::choose_exec_strategy(plan, m, k, n, tiles);
}

// Escalates the recorded fallback to the worse of the two (split calls run
// several products; the report keeps the most severe degradation).
inline void record_fallback(ModgemmReport* report, FallbackReason r) {
  if (report && static_cast<int>(r) > static_cast<int>(report->fallback_reason))
    report->fallback_reason = r;
}

// Degrades a feasible plan until its workspace fits opt.max_workspace_bytes.
// The ladder, from least to most severe:
//   1. schedule swap -- keep the planned depth but run a lower-footprint
//      schedule family (kLowMem saves ~1/3 of each level's temporaries,
//      kInPlace additionally drops the top level to a single C-shaped
//      buffer).  Recorded as kScheduleSwap.  Skipped when `resolved` pins a
//      family (the pinned family was already priced in).
//   2. depth reduction -- re-plan at shallower recursion depths (each level
//      removed drops that level's quadrant temporaries -- Boyer et al.'s
//      space/depth trade), trying the family candidates at each depth.
//      Recorded as kDepthReduced.
//   3. direct -- no Strassen depth fits; the workspace-free conventional
//      path.  Recorded as kBudgetDirect.
// `resolved` != kAuto pins plan.schedule to that family throughout.
inline layout::GemmPlan apply_workspace_budget(
    layout::GemmPlan plan, int m, int k, int n, const ModgemmOptions& opt,
    std::size_t elem_size, ModgemmReport* report,
    analysis::ScheduleFamily resolved = analysis::ScheduleFamily::kAuto) {
  using analysis::ScheduleFamily;
  if (resolved != ScheduleFamily::kAuto) plan.schedule = resolved;
  if (opt.max_workspace_bytes == 0 || plan.direct || !plan.feasible)
    return plan;
  if (modgemm_workspace_bytes(plan, elem_size) <= opt.max_workspace_bytes)
    return plan;
  // Family candidates in decreasing footprint order.  Pinned calls get only
  // the pinned family (already checked above at full depth -> only the depth
  // loop below can save them).
  const ScheduleFamily ladder[] = {ScheduleFamily::kWinograd,
                                   ScheduleFamily::kLowMem,
                                   ScheduleFamily::kInPlace};
  const ScheduleFamily pinned[] = {plan.schedule};
  const ScheduleFamily* fams = resolved == ScheduleFamily::kAuto ? ladder
                                                                 : pinned;
  const int nfams = resolved == ScheduleFamily::kAuto ? 3 : 1;
  // Rung 1: full planned depth, lower-footprint family.
  for (int f = 0; f < nfams; ++f) {
    if (fams[f] == plan.schedule) continue;  // priced already
    layout::GemmPlan cand = plan;
    cand.schedule = fams[f];
    if (modgemm_workspace_bytes(cand, elem_size) <= opt.max_workspace_bytes) {
      record_fallback(report, FallbackReason::kScheduleSwap);
      return cand;
    }
  }
  // Rung 2: shallower depths, cheapest-first over the family candidates so
  // each depth is exhausted before giving up another recursion level.
  for (int d = plan.depth - 1; d >= 1; --d) {
    const layout::DimPlan dm = layout::choose_dim_at_depth(m, d, opt.tiles);
    const layout::DimPlan dk = layout::choose_dim_at_depth(k, d, opt.tiles);
    const layout::DimPlan dn = layout::choose_dim_at_depth(n, d, opt.tiles);
    if (dm.tile == 0 || dk.tile == 0 || dn.tile == 0) continue;
    for (int f = 0; f < nfams; ++f) {
      layout::GemmPlan cand;
      cand.depth = d;
      cand.m = dm;
      cand.k = dk;
      cand.n = dn;
      cand.feasible = true;
      cand.schedule = fams[f];
      if (modgemm_workspace_bytes(cand, elem_size) <=
          opt.max_workspace_bytes) {
        record_fallback(report, FallbackReason::kDepthReduced);
        return cand;
      }
    }
  }
  layout::GemmPlan direct;
  direct.direct = true;
  direct.m = layout::DimPlan{m, m, 0, m};
  direct.k = layout::DimPlan{k, k, 0, k};
  direct.n = layout::DimPlan{n, n, 0, n};
  record_fallback(report, FallbackReason::kBudgetDirect);
  return direct;
}

// The planned Strassen-Winograd path for one product, over a CALLER-OWNED
// arena sized to at least modgemm_workspace_bytes(plan, sizeof(T)).  All
// arena pushes (the Morton buffers and the recursion temporaries) happen
// before any arithmetic, and C is written only by the final from_morton
// conversion, which does not allocate -- so a std::bad_alloc from this
// function guarantees C was never touched, and the caller may retry on a
// cheaper path.  Workspace accounting (requested bytes / allocation count)
// is the caller's business: the serial wrapper below books its own arena,
// while the batched driver (core/batched.cpp) acquires through the
// per-thread ScratchArena cache, whose collector note already covers the
// acquisition.
template <class MM, class T>
void modgemm_strassen_arena(MM& mm, Op opa, Op opb, int m, int n, int k,
                            T alpha, const T* A, int lda, const T* B, int ldb,
                            T beta, T* C, int ldc,
                            const layout::GemmPlan& plan, Arena& arena,
                            ModgemmReport* report) {
  STRASSEN_ASSERT(plan.feasible && plan.depth >= 1);
  const layout::MortonLayout la{m, k, plan.m.tile, plan.k.tile, plan.depth};
  const layout::MortonLayout lb{k, n, plan.k.tile, plan.n.tile, plan.depth};
  const layout::MortonLayout lc{m, n, plan.m.tile, plan.n.tile, plan.depth};

  T* Am = arena.push<T>(static_cast<std::size_t>(la.elems()));
  T* Bm = arena.push<T>(static_cast<std::size_t>(lb.elems()));
  T* Cm = arena.push<T>(static_cast<std::size_t>(lc.elems()));
  // Alignment contract the SIMD leaf kernels build on: every Morton buffer
  // starts on a cache-line boundary (Arena::kChunkAlignment).
  STRASSEN_ASSERT(arena.alignment() >= Arena::kChunkAlignment);
  STRASSEN_ASSERT(reinterpret_cast<std::uintptr_t>(Am) %
                      Arena::kChunkAlignment == 0);
  STRASSEN_ASSERT(reinterpret_cast<std::uintptr_t>(Bm) %
                      Arena::kChunkAlignment == 0);
  STRASSEN_ASSERT(reinterpret_cast<std::uintptr_t>(Cm) %
                      Arena::kChunkAlignment == 0);

  WallTimer t;
  layout::to_morton(mm, la, Am, opa, A, lda);
  layout::to_morton(mm, lb, Bm, opb, B, ldb);
  const double t_in = t.seconds();

  t.restart();
  // The in-place family overwrites its operands -- safe here because Am/Bm
  // are this call's own Morton staging copies, consumed by nothing after the
  // recursion.
  winograd_recurse(mm, Cm, Am, Bm, plan.m.tile, plan.k.tile, plan.n.tile,
                   plan.depth, arena, plan.schedule);
  const double t_mul = t.seconds();

  t.restart();
  layout::from_morton(mm, lc, Cm, alpha, C, ldc, beta);
  const double t_out = t.seconds();

  if (report) {
    report->convert_in_seconds += t_in;
    report->compute_seconds += t_mul;
    report->convert_out_seconds += t_out;
    report->plan = plan;
    report->plan.strategy = layout::ExecStrategy::kMorton;
    report->strategy = layout::strategy_name(layout::ExecStrategy::kMorton);
    // kAuto means the planner kept the default family: report what ran.
    report->schedule = analysis::family_name(
        plan.schedule == analysis::ScheduleFamily::kAuto
            ? analysis::ScheduleFamily::kWinograd
            : plan.schedule);
    if (plan.schedule != analysis::ScheduleFamily::kWinograd &&
        plan.schedule != analysis::ScheduleFamily::kAuto) {
      // Arena bytes the default 3-temporary family would have needed minus
      // what this family's recursion actually reserved.
      const std::size_t def = winograd_workspace_bytes(
          plan.m.tile, plan.k.tile, plan.n.tile, plan.depth, sizeof(T));
      const std::size_t got = winograd_workspace_bytes(
          plan.m.tile, plan.k.tile, plan.n.tile, plan.depth, sizeof(T),
          plan.schedule);
      if (def > got) report->workspace_saved_bytes += def - got;
    }
    ++report->products;
    report->workspace_peak_bytes =
        std::max(report->workspace_peak_bytes, arena.peak());
  }
}

// The self-allocating wrapper: sizes and owns the arena for one product
// (historical entry used by the serial ladder), keeping the per-call
// workspace accounting it always had.
template <class MM, class T>
void modgemm_strassen(MM& mm, Op opa, Op opb, int m, int n, int k, T alpha,
                      const T* A, int lda, const T* B, int ldb, T beta, T* C,
                      int ldc, const layout::GemmPlan& plan,
                      ModgemmReport* report) {
  const std::size_t workspace_bytes = modgemm_workspace_bytes(plan, sizeof(T));
  Arena arena(workspace_bytes);
  modgemm_strassen_arena(mm, opa, opb, m, n, k, alpha, A, lda, B, ldb, beta,
                         C, ldc, plan, arena, report);
  if (report) {
    report->workspace_requested_bytes += workspace_bytes;
    ++report->workspace_allocations;
  }
}

// The conventional path with its own last rung: gemm_blocked stages a
// transposed operand through a buffer, and if even that allocation fails,
// the allocation-free strided loop runs instead.  Either way the product
// completes; gemm_blocked too performs all allocation before its first
// write to C.
template <class MM, class T>
void modgemm_direct(MM& mm, Op opa, Op opb, int m, int n, int k, T alpha,
                    const T* A, int lda, const T* B, int ldb, T beta, T* C,
                    int ldc, ModgemmReport* report) {
  WallTimer t;
  try {
    blas::gemm_blocked(mm, opa, opb, m, n, k, alpha, A, lda, B, ldb, beta, C,
                       ldc);
  } catch (const std::bad_alloc&) {
    record_fallback(report, FallbackReason::kAllocStrided);
    blas::gemm_strided(mm, opa, opb, m, n, k, alpha, A, lda, B, ldb, beta, C,
                       ldc);
  }
  if (report) {
    report->compute_seconds += t.seconds();
    ++report->products;
  }
}

// One planned product: C(m x n) {<-,+=} alpha * op(A).op(B) + beta * C.
// Requires plan.feasible or plan.direct.  Degradation ladder: planned
// Strassen execution (Morton or pack-fused per plan.strategy) ->
// conventional blocked gemm (if workspace allocation fails) ->
// allocation-free strided gemm (if even staging fails).  Every rung computes
// the same correct product, so a valid call never leaves C partially
// updated.  A failed pack-fused acquisition degrades straight to the
// conventional path -- the Morton strategy needs strictly MORE memory, so
// retrying it could only fail again.
template <class MM, class T>
void modgemm_single(MM& mm, Op opa, Op opb, int m, int n, int k, T alpha,
                    const T* A, int lda, const T* B, int ldb, T beta, T* C,
                    int ldc, const layout::GemmPlan& plan,
                    ModgemmReport* report) {
  // Record the plan this product EXECUTES (budget degradation included), so
  // report->plan.direct is accurate even when no Strassen path runs.
  if (report) report->plan = plan;
  if (!plan.direct) {
    bool try_morton = true;
    if constexpr (std::is_same_v<MM, RawMem>) {
      if (plan.strategy == layout::ExecStrategy::kPackFused) {
        try_morton = false;
        try {
          modgemm_packfused(opa, opb, m, n, k, alpha, A, lda, B, ldb, beta, C,
                            ldc, plan, report);
          return;
        } catch (const std::bad_alloc&) {
          // The single up-front arena acquisition failed; C is untouched
          // (see modgemm_packfused).
          record_fallback(report, FallbackReason::kAllocDirect);
        }
      }
    }
    if (try_morton) {
      try {
        modgemm_strassen(mm, opa, opb, m, n, k, alpha, A, lda, B, ldb, beta,
                         C, ldc, plan, report);
        return;
      } catch (const std::bad_alloc&) {
        // Workspace allocation failed under real memory pressure (or a fault
        // injector).  C is untouched (see modgemm_strassen); degrade to the
        // conventional path, which needs no recursion workspace.
        record_fallback(report, FallbackReason::kAllocDirect);
      }
    }
  }
  modgemm_direct(mm, opa, opb, m, n, k, alpha, A, lda, B, ldb, beta, C, ldc,
                 report);
}

// Fused evaluation of one C block of a split product using the accumulating
// schedule: all k-chunks share a single Morton C buffer -- chunk 0 runs the
// overwriting recursion, later chunks run kWinogradAccum on top of it,
// and ONE from_morton applies alpha/beta at the end.  Compared to the
// per-chunk loop this removes n_k - 1 round trips of C through from_morton /
// to-column-major accumulation.  Only attempted for the low-memory families
// (the default family stays bit-identical to the per-chunk path).  Returns
// false -- with C untouched -- when the chunk geometries disagree, the fused
// workspace exceeds the budget, or allocation fails; the caller then runs
// the per-chunk loop.
template <class MM, class T>
bool modgemm_split_block_fused(MM& mm, Op opa, Op opb, const layout::Chunk& cm,
                               const layout::Chunk& cn,
                               const std::vector<layout::Chunk>& k_chunks,
                               T alpha, const T* A, int lda, const T* B,
                               int ldb, T beta, T* C, int ldc,
                               const ModgemmOptions& opt,
                               analysis::ScheduleFamily resolved,
                               ModgemmReport* report) {
  using analysis::ScheduleFamily;
  if (resolved != ScheduleFamily::kLowMem &&
      resolved != ScheduleFamily::kInPlace)
    return false;
  const int nk = static_cast<int>(k_chunks.size());
  if (nk < 2) return false;
  // Every k-chunk sub-plan must be a feasible Strassen plan agreeing on the
  // C-facing geometry (m/n tiles and depth) so the chunks can share one
  // Morton C buffer.
  std::vector<layout::GemmPlan> subs;
  subs.reserve(static_cast<std::size_t>(nk));
  for (const auto& ck : k_chunks) {
    layout::GemmPlan sub =
        layout::plan_gemm(cm.size, ck.size, cn.size, opt.tiles);
    sub = apply_workspace_budget(sub, cm.size, ck.size, cn.size, opt,
                                 sizeof(T), report, resolved);
    if (sub.direct || !sub.feasible) return false;
    if (!subs.empty() &&
        (sub.m.tile != subs[0].m.tile || sub.n.tile != subs[0].n.tile ||
         sub.depth != subs[0].depth))
      return false;
    subs.push_back(sub);
  }
  const int depth = subs[0].depth;
  const layout::MortonLayout lc{cm.size, cn.size, subs[0].m.tile,
                                subs[0].n.tile, depth};
  auto r64 = [](std::size_t b) { return checked_add(b, 63) / 64 * 64; };
  // Accumulating chunks recurse their sub-products with the low-mem table
  // (the in-place table runs only where the recursion owns the operands,
  // i.e. chunk 0's top level).
  const ScheduleFamily acc_fam = analysis::child_family(resolved);
  std::size_t total = r64(layout::buffer_bytes(lc, sizeof(T)));
  std::size_t chunk_peak = 0;
  std::size_t saved = 0;
  for (int i = 0; i < nk; ++i) {
    const layout::GemmPlan& sub = subs[i];
    const layout::MortonLayout la{cm.size, k_chunks[i].size, sub.m.tile,
                                  sub.k.tile, depth};
    const layout::MortonLayout lb{k_chunks[i].size, cn.size, sub.k.tile,
                                  sub.n.tile, depth};
    const std::size_t ov = winograd_workspace_bytes(
        sub.m.tile, sub.k.tile, sub.n.tile, depth, sizeof(T), resolved);
    const std::size_t ac =
        winograd_workspace_bytes(sub.m.tile, sub.k.tile, sub.n.tile, depth,
                                 sizeof(T), acc_fam, &analysis::kWinogradAccum);
    const std::size_t w = checked_add(
        checked_add(r64(layout::buffer_bytes(la, sizeof(T))),
                    r64(layout::buffer_bytes(lb, sizeof(T)))),
        std::max(ov, ac));
    chunk_peak = std::max(chunk_peak, w);
    const std::size_t def = winograd_workspace_bytes(
        sub.m.tile, sub.k.tile, sub.n.tile, depth, sizeof(T));
    if (def > ov) saved += def - ov;
  }
  total = checked_add(total, chunk_peak);
  // The budget bounds the call's live temporary set; the fused block holds
  // Cm across all chunks, so its peak must fit as a whole.
  if (opt.max_workspace_bytes != 0 && total > opt.max_workspace_bytes)
    return false;
  try {
    Arena arena(total);
    T* Cm = arena.push<T>(static_cast<std::size_t>(lc.elems()));
    WallTimer t;
    double t_in = 0;
    double t_mul = 0;
    for (int i = 0; i < nk; ++i) {
      const auto& ck = k_chunks[i];
      const layout::GemmPlan& sub = subs[i];
      const T* Ablk =
          opa == Op::NoTrans
              ? A + static_cast<std::size_t>(ck.offset) * lda + cm.offset
              : A + static_cast<std::size_t>(cm.offset) * lda + ck.offset;
      const T* Bblk =
          opb == Op::NoTrans
              ? B + static_cast<std::size_t>(cn.offset) * ldb + ck.offset
              : B + static_cast<std::size_t>(ck.offset) * ldb + cn.offset;
      const layout::MortonLayout la{cm.size, ck.size, sub.m.tile, sub.k.tile,
                                    depth};
      const layout::MortonLayout lb{ck.size, cn.size, sub.k.tile, sub.n.tile,
                                    depth};
      Arena::Frame frame(arena);
      T* Am = arena.push<T>(static_cast<std::size_t>(la.elems()));
      T* Bm = arena.push<T>(static_cast<std::size_t>(lb.elems()));
      t.restart();
      layout::to_morton(mm, la, Am, opa, Ablk, lda);
      layout::to_morton(mm, lb, Bm, opb, Bblk, ldb);
      t_in += t.seconds();
      t.restart();
      if (i == 0)
        winograd_recurse(mm, Cm, Am, Bm, sub.m.tile, sub.k.tile, sub.n.tile,
                         depth, arena, resolved);
      else
        winograd_recurse(mm, Cm, Am, Bm, sub.m.tile, sub.k.tile, sub.n.tile,
                         depth, arena, acc_fam, &analysis::kWinogradAccum);
      t_mul += t.seconds();
    }
    t.restart();
    T* Cblk = C + static_cast<std::size_t>(cn.offset) * ldc + cm.offset;
    layout::from_morton(mm, lc, Cm, alpha, Cblk, ldc, beta);
    const double t_out = t.seconds();
    if (report) {
      report->convert_in_seconds += t_in;
      report->compute_seconds += t_mul;
      report->convert_out_seconds += t_out;
      report->plan = subs[0];
      report->plan.strategy = layout::ExecStrategy::kMorton;
      report->strategy = layout::strategy_name(layout::ExecStrategy::kMorton);
      report->schedule = analysis::family_name(resolved);
      report->workspace_saved_bytes += saved;
      report->products += nk;
      report->workspace_requested_bytes += total;
      ++report->workspace_allocations;
      report->workspace_peak_bytes =
          std::max(report->workspace_peak_bytes, arena.peak());
    }
    return true;
  } catch (const std::bad_alloc&) {
    // All allocation happens before the single from_morton write-back, so C
    // is untouched; the per-chunk ladder takes over.
    return false;
  }
}

// One level of a non-<2,2,2> coefficient table (core/family.hpp), with every
// sub-product recursing through modgemm_mm pinned to <2,2,2> -- so each of
// the rank products gets the planner, the workspace ladder, the strategy
// heuristic and the SIMD kernels exactly as a top-level call would.  Returns
// false -- with C untouched and FallbackReason::kAlgoFallback recorded --
// when the family cannot run: its staging buffers alone would reach
// max_workspace_bytes, or their up-front allocation fails.  The caller then
// continues on the plain <2,2,2> path.
template <class MM, class T>
bool modgemm_family(MM& mm, Op opa, Op opb, int m, int n, int k, T alpha,
                    const T* A, int lda, const T* B, int ldb, T beta, T* C,
                    int ldc, analysis::AlgoFamily algo,
                    const ModgemmOptions& opt, ModgemmReport* report) {
  const analysis::FamilyTable& t = analysis::family_table(algo);
  const std::size_t staging = family_workspace_bytes(t, m, k, n, sizeof(T));
  if (opt.max_workspace_bytes != 0 && staging >= opt.max_workspace_bytes) {
    record_fallback(report, FallbackReason::kAlgoFallback);
    return false;
  }
  ModgemmOptions sub_opt = opt;
  // One level only: sub-products run the plain <2,2,2> driver (the pin wins
  // over STRASSEN_ALGO, so a forced environment cannot recurse the family),
  // inside whatever budget the staging buffers left.
  sub_opt.algo = analysis::AlgoFamily::k222;
  sub_opt.report = nullptr;
  if (opt.max_workspace_bytes != 0)
    sub_opt.max_workspace_bytes = opt.max_workspace_bytes - staging;
  // Sub-products report into a scratch struct so their executed
  // schedule/strategy and any degradation surface in the caller's report
  // without double-counting this call's wall clock (WallStamp accumulates).
  obs::GemmReport subrep;
  obs::GemmReport* subrep_ptr = report ? &subrep : nullptr;
  try {
    Arena arena(staging);
    modgemm_family_arena(
        mm, opa, opb, m, n, k, alpha, A, lda, B, ldb, beta, C, ldc, t, arena,
        [&](int m2, int n2, int k2, const T* A2, int lda2, const T* B2,
            int ldb2, T* C2, int ldc2) {
          modgemm_mm(mm, Op::NoTrans, Op::NoTrans, m2, n2, k2, T{1}, A2, lda2,
                     B2, ldb2, T{0}, C2, ldc2, sub_opt, subrep_ptr);
        },
        report);
    if (report) {
      // modgemm_family_arena already booked the sub-products' time and count.
      obs::merge_sub_report(*report, subrep, /*timed_by_parent=*/true);
      report->workspace_requested_bytes += staging;
      ++report->workspace_allocations;
      // True peak: the staging buffers stay live across every sub-product,
      // so the call's high-water mark is theirs plus the largest sub-peak.
      report->workspace_peak_bytes =
          std::max(report->workspace_peak_bytes,
                   arena.peak() + subrep.workspace_peak_bytes);
      report->plan = family_plan(t, algo, m, k, n);
      report->plan.schedule = subrep.plan.schedule;
      report->plan.strategy = subrep.plan.strategy;
      report->planned_depth = 1;
      report->algo = analysis::algo_name(algo);
    }
    return true;
  } catch (const std::bad_alloc&) {
    // The staging arena is fully pushed before any arithmetic and C is
    // written only by the final merge (core/family.hpp), so C is untouched;
    // sub-products own their ladders and leave C2 (a temporary) aside.
    record_fallback(report, FallbackReason::kAlgoFallback);
    return false;
  }
}

}  // namespace detail

// The full MODGEMM entry point, templated on the memory model so complete
// executions can be cache-simulated (paper Fig. 9).  Dimensions follow the
// dgemm convention: op(A) is m x k, op(B) is k x n, C is m x n.
template <class MM, class T>
void modgemm_mm(MM& mm, Op opa, Op opb, int m, int n, int k, T alpha,
                const T* A, int lda, const T* B, int ldb, T beta, T* C,
                int ldc, const ModgemmOptions& opt, ModgemmReport* report) {
  require_gemm_args(opa, opb, m, n, k, lda, ldb, ldc);
  // A typo'd STRASSEN_KERNEL fails the call here, loudly, instead of
  // silently dispatching the scalar table (the noexcept registry chain's
  // degrade-to-scalar remains as the crash-free backstop).
  blas::kernels::require_valid_kernel_env();
  std::optional<blas::kernels::ScopedKernel> kernel_pin;
  if (opt.kernel != blas::kernels::Kind::kAuto)
    kernel_pin.emplace(opt.kernel, opt.avx2_variant);
  if (report == nullptr) report = opt.report;
  obs::WallStamp wall(report);
  if (report) {
    report->m = m;
    report->n = n;
    report->k = k;
    // Stamped here, while the per-call pin (if any) is still installed.
    if constexpr (std::is_same_v<MM, RawMem> && std::is_same_v<T, double>) {
      report->kernel = blas::kernels::kind_name(blas::kernels::active_kernel());
      report->kernel_variant =
          blas::kernels::variant_name(blas::kernels::avx2_variant());
    } else {
      // Traced / non-double executions always run the generic scalar path.
      report->kernel = "generic";
      report->kernel_variant = "none";
    }
  }
  if (m == 0 || n == 0) return;
  if (alpha == T{0} || k == 0) {
    blas::scale_view(mm, m, n, C, ldc, beta);
    return;
  }

  // Resolve the schedule family once per call (pin, then STRASSEN_SCHEDULE,
  // then auto).  A malformed environment value throws here, before any write
  // to C.
  const analysis::ScheduleFamily resolved =
      detail::resolve_schedule_family(opt);

  // Resolve the execution strategy once per call (pin, then
  // STRASSEN_STRATEGY, then auto -- the per-plan heuristic decides kAuto
  // below).  Same loud-throw discipline for malformed environment values.
  // Traced / non-RawMem executions dereference operands through the memory
  // model, which the pack-fused leaf path bypasses, so they always run
  // kMorton (and skip the env read entirely, like their kernel stamping).
  layout::ExecStrategy strat = layout::ExecStrategy::kMorton;
  if constexpr (std::is_same_v<MM, RawMem>)
    strat = detail::resolve_exec_strategy(opt);

  // Resolve the <m,k,n> algorithm family once per call (pin, then
  // STRASSEN_ALGO, then the planner heuristic).  A non-<2,2,2> family runs
  // one level of its coefficient table with every sub-product recursing
  // through this driver pinned to <2,2,2>; when it cannot run (workspace
  // budget, allocation failure) the call continues below on the plain path
  // with FallbackReason::kAlgoFallback recorded.  The fixed-tile ablation
  // studies <2,2,2> static padding and never runs a family.
  analysis::AlgoFamily algo = analysis::AlgoFamily::k222;
  if (opt.fixed_tile == 0) {
    algo = detail::resolve_algo_family(opt);
    if (algo == analysis::AlgoFamily::kAuto)
      algo = layout::choose_algo(m, k, n, opt.tiles);
  }
  if (algo != analysis::AlgoFamily::k222) {
    // Shape gate, applied to pins and STRASSEN_ALGO alike: when the family's
    // ceil-partitioned sub-products sit at or below the direct threshold
    // they would all run conventional, so one family level multiplies
    // staging traffic by `rank` for nothing (the same rule choose_algo
    // prices in).  Such shapes degrade to the <2,2,2> ladder up front.
    const analysis::FamilyTable& t = analysis::family_table(algo);
    if (std::min({family_partition(m, t.bm),
                  family_partition(k, t.bk),
                  family_partition(n, t.bn)}) <=
        opt.tiles.direct_threshold) {
      detail::record_fallback(report, FallbackReason::kAlgoFallback);
      algo = analysis::AlgoFamily::k222;
    }
  }
  if (report) report->algo = analysis::algo_name(algo);
  if (algo != analysis::AlgoFamily::k222) {
    if (detail::modgemm_family(mm, opa, opb, m, n, k, alpha, A, lda, B, ldb,
                               beta, C, ldc, algo, opt, report))
      return;
    // The family could not run; everything below is the plain <2,2,2> path.
    if (report) report->algo = analysis::algo_name(analysis::AlgoFamily::k222);
  }

  if (opt.fixed_tile > 0) {
    // Ablation: static padding with a fixed truncation point.  The three
    // dimensions must then share a depth naturally, which holds for the
    // square problems this mode is meant for; otherwise we fall back to the
    // largest common depth.
    layout::GemmPlan plan;
    plan.m = layout::fixed_tile_dim(m, opt.fixed_tile);
    plan.k = layout::fixed_tile_dim(k, opt.fixed_tile);
    plan.n = layout::fixed_tile_dim(n, opt.fixed_tile);
    plan.depth =
        std::max({plan.m.depth, plan.k.depth, plan.n.depth});
    // Re-derive padded sizes at the common depth (tile stays fixed; shallower
    // dimensions get extra padding, exactly the static-padding cost).
    auto lift = [&](layout::DimPlan& d) {
      d.depth = plan.depth;
      d.padded = opt.fixed_tile << plan.depth;
      d.tile = opt.fixed_tile;
    };
    lift(plan.m);
    lift(plan.k);
    lift(plan.n);
    plan.feasible = true;
    plan.direct = plan.depth == 0;
    if (resolved != analysis::ScheduleFamily::kAuto) plan.schedule = resolved;
    plan.strategy = detail::plan_exec_strategy(strat, plan, m, k, n, opt.tiles);
    detail::modgemm_single(mm, opa, opb, m, n, k, alpha, A, lda, B, ldb, beta,
                           C, ldc, plan, report);
    return;
  }

  const layout::GemmPlan planned = layout::plan_gemm(m, k, n, opt.tiles);
  if (report) report->planned_depth = planned.depth;
  if (planned.direct || planned.feasible) {
    layout::GemmPlan plan = detail::apply_workspace_budget(
        planned, m, k, n, opt, sizeof(T), report, resolved);
    plan.strategy = detail::plan_exec_strategy(strat, plan, m, k, n, opt.tiles);
    detail::modgemm_single(mm, opa, opb, m, n, k, alpha, A, lda, B, ldb, beta,
                           C, ldc, plan, report);
    return;
  }

  // Highly rectangular: decompose into same-depth sub-products (paper Fig. 4)
  // and reconstruct C[i][j] = sum_r A[i][r] . B[r][j].
  const layout::SplitPlan split = layout::plan_split(m, k, n, opt.tiles);
  if (report) report->split_used = true;
  for (const auto& cm : split.m_chunks) {
    for (const auto& cn : split.n_chunks) {
      // Low-memory families first try the fused accumulating evaluation of
      // this block (one shared Morton C, a single alpha/beta write-back) --
      // a Morton-strategy optimization, so a pack-fused pin/env skips it in
      // favor of the per-chunk loop below.
      if (strat != layout::ExecStrategy::kPackFused &&
          detail::modgemm_split_block_fused(mm, opa, opb, cm, cn,
                                            split.k_chunks, alpha, A, lda, B,
                                            ldb, beta, C, ldc, opt, resolved,
                                            report))
        continue;
      bool first = true;
      for (const auto& ck : split.k_chunks) {
        // Locate the stored sub-blocks of op(A) and op(B).
        const T* Ablk =
            opa == Op::NoTrans
                ? A + static_cast<std::size_t>(ck.offset) * lda + cm.offset
                : A + static_cast<std::size_t>(cm.offset) * lda + ck.offset;
        const T* Bblk =
            opb == Op::NoTrans
                ? B + static_cast<std::size_t>(cn.offset) * ldb + ck.offset
                : B + static_cast<std::size_t>(ck.offset) * ldb + cn.offset;
        T* Cblk = C + static_cast<std::size_t>(cn.offset) * ldc + cm.offset;
        layout::GemmPlan sub =
            layout::plan_gemm(cm.size, ck.size, cn.size, opt.tiles);
        STRASSEN_ASSERT(sub.direct || sub.feasible);
        // The budget bounds the workspace of each sub-product (they run
        // sequentially, so the per-product peak is the call's peak).
        sub = detail::apply_workspace_budget(sub, cm.size, ck.size, cn.size,
                                             opt, sizeof(T), report, resolved);
        sub.strategy = detail::plan_exec_strategy(strat, sub, cm.size, ck.size,
                                                  cn.size, opt.tiles);
        detail::modgemm_single(mm, opa, opb, cm.size, cn.size, ck.size, alpha,
                               Ablk, lda, Bblk, ldb, first ? beta : T{1}, Cblk,
                               ldc, sub, report);
        first = false;
      }
    }
  }
}

// Production entry points (RawMem).
void modgemm(Op opa, Op opb, int m, int n, int k, double alpha,
             const double* A, int lda, const double* B, int ldb, double beta,
             double* C, int ldc, const ModgemmOptions& opt = {},
             ModgemmReport* report = nullptr);
void modgemm(Op opa, Op opb, int m, int n, int k, float alpha, const float* A,
             int lda, const float* B, int ldb, float beta, float* C, int ldc,
             const ModgemmOptions& opt = {}, ModgemmReport* report = nullptr);

// Nothrow entry points for embedders that cannot unwind (C/Fortran callers,
// exception-free services): identical semantics to modgemm, but argument
// errors and runtime failures come back as a strassen::Status instead of an
// exception.  On an argument-error status C is untouched.  Note that thanks
// to the degradation ladder, kOutOfMemory is only returned when even the
// allocation-free fallback could not be reached.
Status try_modgemm(Op opa, Op opb, int m, int n, int k, double alpha,
                   const double* A, int lda, const double* B, int ldb,
                   double beta, double* C, int ldc,
                   const ModgemmOptions& opt = {},
                   ModgemmReport* report = nullptr) noexcept;
Status try_modgemm(Op opa, Op opb, int m, int n, int k, float alpha,
                   const float* A, int lda, const float* B, int ldb,
                   float beta, float* C, int ldc,
                   const ModgemmOptions& opt = {},
                   ModgemmReport* report = nullptr) noexcept;

}  // namespace strassen::core
