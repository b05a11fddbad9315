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
//
// The three entry points (modgemm_mm, parallel::pmodgemm, modgemm_batched)
// dispatch through one pipeline, and every product it runs is the <2,2,2>
// Strassen-Winograd recursion:
//   resolve -- resolve_config turns the call's strategy pin and
//              STRASSEN_STRATEGY into one ExecConfig, once per top-level
//              call.  Every nested product (split chunks, a forked
//              product's serial rerun, batched items) gets that config.
//   plan    -- detail::plan_product plans the tiles, picks the strategy and
//              applies the workspace budget.
//   run     -- detail::run_product, the only router: the split loop runs
//              each C block (detail::run_split_block) as one task, and
//              detail::run_ladder runs one planned product: pack-fused or
//              Morton, then the conventional path if allocation fails.
//              Its optional detail::Fork (null = serial) runs the products
//              on a pool: split blocks become pool tasks, and the ladder
//              runs the Morton rung with its conversions fanned out and
//              its top levels forked.
//   report  -- detail::stamp_call fills a call's header, and
//              detail::stamp_product the fields of each executed product.
#pragma once

#include <algorithm>
#include <cstdint>
#include <new>
#include <optional>
#include <type_traits>
#include <vector>

#include "blas/gemm.hpp"
#include "blas/kernels/registry.hpp"
#include "common/arena.hpp"
#include "common/check.hpp"
#include "common/matrix.hpp"
#include "common/memmodel.hpp"
#include "common/status.hpp"
#include "common/timer.hpp"
#include "core/packfused.hpp"
#include "core/winograd.hpp"
#include "core/workspace.hpp"
#include "layout/convert.hpp"
#include "layout/plan.hpp"
#include "layout/split.hpp"
#include "obs/report.hpp"
#include "parallel/arena_pool.hpp"
#include "parallel/thread_pool.hpp"

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
  // Execution-strategy pin for this call (layout/plan.hpp).  kAuto (the
  // default) defers to the STRASSEN_STRATEGY environment override and then
  // to the planner (detail::plan_exec_strategy): Morton when both operands
  // are transposed, else the heuristic layout::choose_exec_strategy --
  // pack-fused for one-shot / rectangular / shallow-recursion shapes, Morton
  // for deep square recursions.  Pinning kMorton or kPackFused runs that
  // strategy for every Strassen product of the call regardless of the
  // environment.  Both strategies are bit-identical for all alpha/beta;
  // non-Strassen (direct) products and traced/non-RawMem instantiations
  // always execute kMorton.
  layout::ExecStrategy strategy = layout::ExecStrategy::kAuto;
  // Per-call observability: when non-null, the call fills *report with phase
  // timers, plan/padding data, workspace accounting, kernel telemetry and
  // (for pmodgemm) parallel stats -- see obs/report.hpp.  Null (the default)
  // keeps the whole subsystem off: no clocks, no counters, no allocations.
  // Equivalent to the trailing `report` parameter, which takes precedence
  // when both are set.
  obs::GemmReport* report = nullptr;
};

// The execution choice of one call after pin and environment: kAuto leaves
// the strategy to plan_product's per-product heuristic.  The schedule
// family is not a choice: every product runs the 2-buffer table unless the
// workspace budget moves it to Kreczmar's (apply_workspace_budget).
struct ExecConfig {
  layout::ExecStrategy strategy = layout::ExecStrategy::kAuto;
};

// Resolves one top-level call's config: a pinned (non-kAuto) strategy wins,
// an unpinned one takes STRASSEN_STRATEGY, else stays kAuto.  The only
// place the library reads that variable; nested products receive the
// caller's resolved config.  A malformed value throws before any write to
// C.  Implemented in modgemm.cpp.
ExecConfig resolve_config(ExecConfig pins);

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

namespace detail {

// Parse a STRASSEN_STRATEGY value ("auto" -> kAuto); anything else throws
// via STRASSEN_REQUIRE naming the variable and the offending value.
// Implemented in modgemm.cpp.
layout::ExecStrategy parse_exec_strategy(const char* value);

// The strategy one PLANNED product executes: non-Strassen plans always run
// kMorton (there is nothing to fuse), an explicit pin/env choice sticks, an
// unpinned product with both operands transposed runs kMorton (pack-fused
// would copy both at entry, which costs more memory and time than the Morton
// conversion that folds the transposes in), and any other kAuto product
// consults the planner heuristic.
inline layout::ExecStrategy plan_exec_strategy(layout::ExecStrategy resolved,
                                               const layout::GemmPlan& plan,
                                               Op opa, Op opb, int m, int k,
                                               int n,
                                               const layout::TileOptions& tiles) {
  if (plan.direct || !plan.feasible || plan.depth < 1)
    return layout::ExecStrategy::kMorton;
  if (resolved != layout::ExecStrategy::kAuto) return resolved;
  if (opa == Op::Trans && opb == Op::Trans)
    return layout::ExecStrategy::kMorton;
  return layout::choose_exec_strategy(plan, m, k, n, tiles);
}

// The workspace the budget ladder charges a Strassen plan that runs as
// plan.strategy: the bytes that strategy allocates, pack-fused priced with
// its C scratch since beta is not known here.  A budgeted pack-fused plan
// always runs pack-fused: the pooled Morton rung is reached only by
// unbudgeted pmodgemm calls and by the batched driver's Morton-strategy
// deep classes.
inline std::size_t budget_bytes(const layout::GemmPlan& plan, Op opa, Op opb,
                                std::size_t elem_size) {
  if (plan.strategy != layout::ExecStrategy::kPackFused)
    return modgemm_workspace_bytes(plan, elem_size);
  return packfused_workspace_bytes(plan, opa, opb, elem_size,
                                   /*c_scratch=*/true);
}

// Escalates the recorded fallback to the worse of the two (split calls run
// several products; the report keeps the most severe degradation).
inline void record_fallback(ModgemmReport* report, FallbackReason r) {
  if (report && static_cast<int>(r) > static_cast<int>(report->fallback_reason))
    report->fallback_reason = r;
}

// The pool a product runs on and its fork policy (parallel::pmodgemm's
// ParallelOptions, or the batched driver's deep products), passed down the
// pipeline as one optional parameter: null means serial.
struct Fork {
  parallel::ThreadPool* pool;
  int spawn_levels;  // parallel::kSpawnAuto, or an explicit level count
  std::int64_t min_task_flops;
  // The fork depth of one planned product: parallel::fork_levels under
  // kSpawnAuto, else the explicit count capped at the plan depth.  Defined
  // beside fork_levels in parallel/pmodgemm.cpp.
  int levels(const layout::GemmPlan& plan) const;
};

// Marks a product that ran on fork.pool.
inline void stamp_pool(ModgemmReport* report, const Fork& fork) {
  if (report == nullptr) return;
  report->parallel = true;
  report->threads = fork.pool->thread_count();
}

// The family a Strassen plan runs when `family` is asked for: the one rule
// of the in-place family.  Kreczmar's table destroys its operands and moves
// values between the quadrants of A, B and C, so it runs only on the Morton
// copies the library owns (pack-fused recurses on the caller's matrices)
// and only with square tiles (tm == tk == tn).  Any other plan runs
// kLowMem.
inline analysis::ScheduleFamily runnable_family(
    const layout::GemmPlan& plan, analysis::ScheduleFamily family) {
  const bool square =
      plan.m.tile == plan.k.tile && plan.k.tile == plan.n.tile;
  if (family == analysis::ScheduleFamily::kInPlace &&
      (plan.strategy != layout::ExecStrategy::kMorton || !square))
    return analysis::ScheduleFamily::kLowMem;
  return family;
}

// Settles a plan under cfg and degrades a feasible one until its workspace
// fits `budget` bytes (0 = unlimited).  Every plan and candidate gets the
// strategy it runs (plan_exec_strategy), the family that strategy can run
// (runnable_family) and is priced with both (budget_bytes).  An unpinned
// (kAuto) candidate the heuristic sent to Morton that does not fit runs
// pack-fused instead when that fits: the same product in fewer bytes, so no
// rung is recorded.  A plan runs kLowMem unless the budget cannot hold it;
// the ladder, from least to most severe:
//   1. schedule swap -- keep the planned depth but run Kreczmar's table
//      (kInPlace), which needs no arena at all, where runnable_family lets
//      it run.  Recorded as kScheduleSwap.
//   2. depth reduction -- re-plan at shallower recursion depths (each level
//      removed drops that level's quadrant temporaries -- Boyer et al.'s
//      space/depth trade), trying kLowMem and then kInPlace at each depth.
//      Recorded as kDepthReduced.
//   3. direct -- no Strassen depth fits; the workspace-free conventional
//      path.  Recorded as kBudgetDirect.
inline layout::GemmPlan apply_workspace_budget(
    layout::GemmPlan plan, Op opa, Op opb, int m, int k, int n,
    const layout::TileOptions& tiles, std::size_t budget,
    std::size_t elem_size, ModgemmReport* report, const ExecConfig& cfg) {
  using analysis::ScheduleFamily;
  // Settles cand to run `family` and reports whether it fits the budget.
  const auto fits = [&](layout::GemmPlan& cand, ScheduleFamily family) {
    const auto settle = [&](layout::ExecStrategy strategy) {
      cand.strategy = strategy;
      if (!cand.direct) cand.schedule = runnable_family(cand, family);
      return budget == 0 || budget_bytes(cand, opa, opb, elem_size) <= budget;
    };
    const layout::ExecStrategy planned =
        plan_exec_strategy(cfg.strategy, cand, opa, opb, m, k, n, tiles);
    if (settle(planned)) return true;
    return cfg.strategy == layout::ExecStrategy::kAuto &&
           planned == layout::ExecStrategy::kMorton &&
           settle(layout::ExecStrategy::kPackFused);
  };
  // Direct and infeasible (split) plans need no workspace, so they fit.
  if (fits(plan, ScheduleFamily::kLowMem)) return plan;
  // Rung 1: full planned depth, Kreczmar's table.  A plan it cannot run
  // stays kLowMem, priced as above, so it does not fit here either.
  layout::GemmPlan swap = plan;
  if (fits(swap, ScheduleFamily::kInPlace)) {
    record_fallback(report, FallbackReason::kScheduleSwap);
    return swap;
  }
  // Rung 2: shallower depths, cheapest-first over both families so each
  // depth is exhausted before giving up another recursion level.
  for (int d = plan.depth - 1; d >= 1; --d) {
    const layout::DimPlan dm = layout::choose_dim_at_depth(m, d, tiles);
    const layout::DimPlan dk = layout::choose_dim_at_depth(k, d, tiles);
    const layout::DimPlan dn = layout::choose_dim_at_depth(n, d, tiles);
    if (dm.tile == 0 || dk.tile == 0 || dn.tile == 0) continue;
    for (const ScheduleFamily f :
         {ScheduleFamily::kLowMem, ScheduleFamily::kInPlace}) {
      layout::GemmPlan cand;
      cand.depth = d;
      cand.m = dm;
      cand.k = dk;
      cand.n = dn;
      cand.feasible = true;
      if (fits(cand, f)) {
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

// Plans one product (m, k, n >= 1) of op(A) . op(B) under a resolved
// config: the tile plan, the execution strategy, the schedule family that
// strategy can run and the workspace budget (apply_workspace_budget).  An
// infeasible plan means the product must be split.  Records the planned
// depth and any budget rung in *report.
template <class T>
layout::GemmPlan plan_product(Op opa, Op opb, int m, int k, int n,
                              const ExecConfig& cfg,
                              const layout::TileOptions& tiles,
                              std::size_t budget, ModgemmReport* report) {
  const layout::GemmPlan planned = layout::plan_gemm(m, k, n, tiles);
  if (report) report->planned_depth = planned.depth;
  if (!planned.direct && !planned.feasible) return planned;
  return apply_workspace_budget(planned, opa, opb, m, k, n, tiles, budget,
                                sizeof(T), report, cfg);
}

// The header of one call's report: its shape and the leaf kernel it runs
// under.  Traced / non-double executions always run the generic scalar path.
template <class MM, class T>
void stamp_call(ModgemmReport* report, int m, int n, int k) {
  if (report == nullptr) return;
  report->m = m;
  report->n = n;
  report->k = k;
  if constexpr (std::is_same_v<MM, RawMem> && std::is_same_v<T, double>) {
    namespace ker = blas::kernels;
    report->kernel = ker::kind_name(ker::active_kernel());
    report->kernel_variant = ker::active_kernel() == ker::Kind::kAvx2
                                 ? ker::variant_name(ker::avx2_variant())
                                 : "none";
  } else {
    report->kernel = "generic";
    report->kernel_variant = "none";
  }
}

// The fields of one executed Strassen product: the plan as it ran (its
// strategy and the schedule family it executed), the bytes that family saved
// against the default 2-buffer table (non-zero only on the Kreczmar rung),
// the product count and the arena high-water mark.  `forked` top levels ran
// as parallel spawn levels, whose temporaries are family-independent: the
// saving is that of the 7^forked serial subtrees below them.
inline void stamp_product(ModgemmReport* report, layout::GemmPlan plan,
                          layout::ExecStrategy strategy, std::size_t elem_size,
                          std::size_t peak, int forked = 0) {
  if (report == nullptr) return;
  plan.strategy = strategy;
  report->plan = plan;
  report->strategy = layout::strategy_name(strategy);
  report->schedule = analysis::family_name(plan.schedule);
  const int d = plan.depth - forked;
  const std::size_t def = winograd_workspace_bytes(
      plan.m.tile, plan.k.tile, plan.n.tile, d, elem_size);
  const std::size_t got = winograd_workspace_bytes(
      plan.m.tile, plan.k.tile, plan.n.tile, d, elem_size, plan.schedule);
  if (def > got) {
    std::size_t saved = def - got;
    for (int i = 0; i < forked; ++i) saved = checked_mul(saved, 7);
    report->workspace_saved_bytes += saved;
  }
  ++report->products;
  report->workspace_peak_bytes = std::max(report->workspace_peak_bytes, peak);
}

// Handles the products that need no multiplication: an empty C, or
// alpha == 0 / k == 0 (C <- beta * C).  Returns true when it did.
template <class MM, class T>
bool trivial_product(MM& mm, int m, int n, int k, T alpha, T beta, T* C,
                     int ldc) {
  if (m == 0 || n == 0) return true;
  if (alpha != T{0} && k != 0) return false;
  blas::scale_view(mm, m, n, C, ldc, beta);
  return true;
}

// Stored address of element (r0, c0) of op(X) for column-major X.
template <class T>
T* op_block(T* X, Op op, int ld, int r0, int c0) {
  return op == Op::NoTrans ? X + static_cast<std::size_t>(c0) * ld + r0
                           : X + static_cast<std::size_t>(r0) * ld + c0;
}

// The recursion of a forked Morton product; `spawn` counts the fork levels
// left.  A spawn level runs the verified analysis::kWinogradSpawn table: its
// operand sums and U-chain execute on this task, and its one concurrent
// group of seven products is forked -- on a pool worker the children land
// on ITS deque bottom (depth-first, cache-hot), idle workers steal whole
// subtrees from the top, and the U-chain is the continuation this task runs
// after the join.  Every level acquires an arena of its own (a task that
// help-runs others while blocked in wait() never interleaves frames with
// them).  Once `spawn` reaches 0 this is winograd_recurse in the plan's
// `family`, so the product is bit-identical to the serial rung.  Below a
// spawn level that includes Kreczmar's destructive table: the spawn table
// never reads an operand after the product that consumes it (verified).
template <class T>
void fork_recurse(parallel::ThreadPool* pool, int spawn, T* C, const T* A,
                  const T* B, int tm, int tk, int tn, int depth,
                  analysis::ScheduleFamily family) {
  RawMem mm;
  if (spawn == 0) {
    parallel::ScratchArena scratch(
        winograd_workspace_bytes(tm, tk, tn, depth, sizeof(T), family));
    winograd_recurse(mm, C, A, B, tm, tk, tn, depth, scratch.arena(), family);
    return;
  }
  const int d1 = depth - 1;
  const analysis::Schedule& sched = analysis::kWinogradSpawn;
  parallel::ScratchArena scratch(
      level_temp_bytes(sched, tm, tk, tn, d1, sizeof(T)));
  using Storage = MortonStorage<RawMem, T>;
  using analysis::Shape;
  Storage st{{tm, tk, tn}, mm};
  ScheduleInterpreter<Storage> level(
      st, sched, st.operand(C, Shape::kC, depth),
      st.operand(A, Shape::kA, depth), st.operand(B, Shape::kB, depth), d1,
      scratch.arena(), family);
  level.run([&](const Product<typename Storage::Ref>* products, int count) {
    parallel::TaskGroup group(pool);
    for (int i = 0; i < count; ++i)
      group.run([=, p = products[i]] {
        fork_recurse(pool, spawn - 1, p.dst.p, p.a.p, p.b.p, tm, tk, tn, d1,
                     family);
      });
    group.wait();
  });
}

// The Morton rung: the planned Strassen-Winograd product over an arena from
// this thread's ScratchArena cache (so repeated products of a shape reuse
// warm memory; the acquisition notes its bytes on the call's collector).
// With a pool, both conversions fan out over Morton tile ranges and the top
// `spawn` levels fork (fork_recurse), whose subtrees acquire their own
// arenas -- this one then holds just the three Morton buffers.  With no
// pool the conversions are plain to_morton / from_morton, so traced memory
// models keep their address stream and a serial call builds no tasks.  All
// arena pushes (the Morton buffers and the recursion temporaries) happen
// before any arithmetic, and C is written only by the final conversion,
// which does not allocate and finishes inline any chunk that fails to
// submit (beta must reach each tile exactly once) -- so a std::bad_alloc
// from this function guarantees C was never touched, and the ladder may
// retry on a cheaper path.  Books its phases in *report and
// returns the arena high-water mark, like modgemm_packfused.
template <class MM, class T>
std::size_t modgemm_morton(MM& mm, Op opa, Op opb, int m, int n, int k,
                           T alpha, const T* A, int lda, const T* B, int ldb,
                           T beta, T* C, int ldc,
                           const layout::GemmPlan& plan,
                           parallel::ThreadPool* pool, int spawn,
                           ModgemmReport* report) {
  STRASSEN_ASSERT(plan.feasible && plan.depth >= 1);
  parallel::ScratchArena scratch(
      spawn == 0 ? modgemm_workspace_bytes(plan, sizeof(T))
                 : modgemm_conversion_bytes(plan, sizeof(T)));
  Arena& arena = scratch.arena();
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
  const auto tiles = [](const layout::MortonLayout& l) {
    return static_cast<std::int64_t>(l.tiles_per_side()) * l.tiles_per_side();
  };

  WallTimer t;
  const auto convert_in = [&](const layout::MortonLayout& l, T* dst, Op op,
                              const T* src, int ld) {
    if (pool == nullptr) {
      layout::to_morton(mm, l, dst, op, src, ld);
      return;
    }
    parallel::parallel_for(pool, 0, tiles(l), /*min_grain=*/8,
                           [&](std::int64_t t0, std::int64_t t1) {
                             layout::to_morton_range(
                                 mm, l, dst, op, src, ld,
                                 static_cast<int>(t0), static_cast<int>(t1));
                           });
  };
  convert_in(la, Am, opa, A, lda);
  convert_in(lb, Bm, opb, B, ldb);
  const double t_in = t.seconds();

  t.restart();
  // The in-place family overwrites its operands -- safe here because Am/Bm
  // are this call's own Morton staging copies, consumed by nothing after the
  // recursion.
  if (spawn == 0)
    winograd_recurse(mm, Cm, Am, Bm, plan.m.tile, plan.k.tile, plan.n.tile,
                     plan.depth, arena, plan.schedule);
  else
    fork_recurse(pool, spawn, Cm, Am, Bm, plan.m.tile, plan.k.tile,
                 plan.n.tile, plan.depth, plan.schedule);
  const double t_mul = t.seconds();

  t.restart();
  if (pool == nullptr) {
    layout::from_morton(mm, lc, Cm, alpha, C, ldc, beta);
  } else {
    const std::int64_t ctiles = tiles(lc);
    // One chunk per worker plus one for this thread, which runs chunks
    // while it joins.
    const std::int64_t chunks = std::max<std::int64_t>(
        1, std::min<std::int64_t>(pool->thread_count() + 1, (ctiles + 7) / 8));
    const std::int64_t per = (ctiles + chunks - 1) / chunks;
    if (parallel::fan_out(
            pool, static_cast<std::size_t>((ctiles + per - 1) / per),
            [&](std::size_t i) {
              const std::int64_t lo = static_cast<std::int64_t>(i) * per;
              layout::from_morton_range(
                  mm, lc, Cm, alpha, C, ldc, beta, static_cast<int>(lo),
                  static_cast<int>(std::min(ctiles, lo + per)));
            }))
      record_fallback(report, FallbackReason::kAllocDirect);
  }
  const double t_out = t.seconds();

  if (report) {
    report->convert_in_seconds += t_in;
    report->compute_seconds += t_mul;
    report->convert_out_seconds += t_out;
  }
  return arena.peak();
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

// The product ladder: one planned <2,2,2> product (plan.feasible or
// plan.direct), C(m x n) {<-,+=} alpha * op(A).op(B) + beta * C.  Planned
// Strassen execution (pack-fused or Morton per plan.strategy) ->
// conventional blocked gemm (if its workspace acquisition fails) ->
// allocation-free strided gemm (if even staging fails).  Every rung computes
// the same correct product, so a valid call never leaves C partially
// updated.  A failed pack-fused acquisition degrades straight to the
// conventional path: the Morton strategy needs more memory for every
// product pack-fused runs unpinned, so retrying it would fail again, and a
// pinned strategy is not swapped behind the caller's back.  A pool (`fork`)
// runs the Morton rung whatever plan.strategy says, forking
// fork->levels(plan) top levels, and adds one rung on top: if anything it
// allocates fails -- a buffer, or an arena inside a task, whose exception
// surfaces at the join after every sibling finished -- the fork is dropped
// and the same plan reruns on the serial rungs (C is untouched, as above).
template <class MM, class T>
void run_ladder(MM& mm, Op opa, Op opb, int m, int n, int k, T alpha,
                const T* A, int lda, const T* B, int ldb, T beta, T* C,
                int ldc, const layout::GemmPlan& plan,
                ModgemmReport* report, const Fork* fork = nullptr) {
  // Record the plan this product EXECUTES (budget degradation included), so
  // report->plan.direct is accurate even when no Strassen path runs.
  if (report) report->plan = plan;
  if (!plan.direct) {
    try {
      if (fork == nullptr &&
          plan.strategy == layout::ExecStrategy::kPackFused) {
        const std::size_t peak = modgemm_packfused(
            opa, opb, m, n, k, alpha, A, lda, B, ldb, beta, C, ldc, plan,
            report);
        stamp_product(report, plan, layout::ExecStrategy::kPackFused,
                      sizeof(T), peak);
      } else {
        const int spawn = fork == nullptr ? 0 : fork->levels(plan);
        if (fork != nullptr) {
          stamp_pool(report, *fork);
          if (report) report->spawn_levels = spawn;
        }
        const std::size_t peak = modgemm_morton(
            mm, opa, opb, m, n, k, alpha, A, lda, B, ldb, beta, C, ldc, plan,
            fork == nullptr ? nullptr : fork->pool, spawn, report);
        stamp_product(report, plan, layout::ExecStrategy::kMorton,
                      sizeof(T), peak, spawn);
      }
      return;
    } catch (const std::bad_alloc&) {
      // The up-front arena acquisition (or a forked task's) failed under
      // real memory pressure or a fault injector; C is untouched.
      record_fallback(report, FallbackReason::kAllocDirect);
      if (fork != nullptr) {
        // The caller's idle arena cache is released first, so the serial
        // rerun has every reusable byte back.
        parallel::purge_thread_arena_cache();
        run_ladder(mm, opa, opb, m, n, k, alpha, A, lda, B, ldb, beta, C, ldc,
                   plan, report);
        return;
      }
    }
  }
  modgemm_direct(mm, opa, opb, m, n, k, alpha, A, lda, B, ldb, beta, C, ldc,
                 report);
}

// One (cm x cn) block of C for a split product (paper Fig. 4):
// C[i][j] = sum_r A[i][r] . B[r][j] over the k-chunks.  Each k-chunk runs the
// ladder in chunk order, the first with beta and the rest accumulating, so
// the block's peak workspace is that of its largest chunk product.
// run_product runs each block as one task (inline without a pool), so the
// result does not depend on the pool.
template <class MM, class T>
void run_split_block(MM& mm, Op opa, Op opb, const layout::Chunk& cm,
                     const layout::Chunk& cn,
                     const std::vector<layout::Chunk>& k_chunks, T alpha,
                     const T* A, int lda, const T* B, int ldb, T beta, T* C,
                     int ldc, const ExecConfig& cfg,
                     const layout::TileOptions& tiles, std::size_t budget,
                     ModgemmReport* report) {
  bool first = true;
  for (const auto& ck : k_chunks) {
    // The budget bounds the workspace of each sub-product (they run
    // sequentially, so the per-product peak is the call's peak).
    const layout::GemmPlan sub = plan_product<T>(
        opa, opb, cm.size, ck.size, cn.size, cfg, tiles, budget, report);
    STRASSEN_ASSERT(sub.direct || sub.feasible);
    run_ladder(mm, opa, opb, cm.size, cn.size, ck.size, alpha,
               op_block(A, opa, lda, cm.offset, ck.offset), lda,
               op_block(B, opb, ldb, ck.offset, cn.offset), ldb,
               first ? beta : T{1},
               op_block(C, Op::NoTrans, ldc, cm.offset, cn.offset), ldc, sub,
               report);
    first = false;
  }
}

// The pipeline for one planned call (plan from plan_product under cfg): one
// ladder product, or the split decomposition.  Every entry point ends here:
// modgemm and pmodgemm on their one call, the batched driver on each item.
// `fork` (null = serial) reaches the ladder; split blocks run as one task
// each and fork no further.
template <class MM, class T>
void run_product(MM& mm, Op opa, Op opb, int m, int n, int k, T alpha,
                 const T* A, int lda, const T* B, int ldb, T beta, T* C,
                 int ldc, const layout::GemmPlan& plan, const ExecConfig& cfg,
                 const layout::TileOptions& tiles, std::size_t budget,
                 ModgemmReport* report, const Fork* fork = nullptr) {
  if (report) report->algo = "222";
  if (plan.direct || plan.feasible) {
    run_ladder(mm, opa, opb, m, n, k, alpha, A, lda, B, ldb, beta, C, ldc,
               plan, report, fork);
    return;
  }
  // The split decomposition (paper Fig. 4): each (m_chunk x n_chunk) block
  // of C is one task running its k-chain in chunk order.  Blocks write
  // disjoint parts of C and report into local reports (GemmReport is not
  // thread-safe), merged after the join; each degrades on its own through
  // the ladder.
  const layout::SplitPlan split = layout::plan_split(m, k, n, tiles);
  if (report) report->split_used = true;
  if (fork != nullptr) stamp_pool(report, *fork);
  const std::size_t cols = split.n_chunks.size();
  std::vector<ModgemmReport> locals(
      report != nullptr ? split.m_chunks.size() * cols : 0);
  if (parallel::fan_out(
          fork == nullptr ? nullptr : fork->pool,
          split.m_chunks.size() * cols, [&](std::size_t i) {
            run_split_block(mm, opa, opb, split.m_chunks[i / cols],
                            split.n_chunks[i % cols], split.k_chunks, alpha, A,
                            lda, B, ldb, beta, C, ldc, cfg, tiles, budget,
                            locals.empty() ? nullptr : &locals[i]);
          })) {
    record_fallback(report, FallbackReason::kAllocDirect);
    parallel::purge_thread_arena_cache();
  }
  for (const ModgemmReport& local : locals)
    obs::merge_sub_report(*report, local);
}

}  // namespace detail

// The full MODGEMM entry point, templated on the memory model so complete
// executions can be cache-simulated (paper Fig. 9).  Dimensions follow the
// dgemm convention: op(A) is m x k, op(B) is k x n, C is m x n.
template <class MM, class T>
void modgemm_mm(MM& mm, Op opa, Op opb, int m, int n, int k, T alpha,
                const T* A, int lda, const T* B, int ldb, T beta, T* C,
                int ldc, const ModgemmOptions& opt = {},
                ModgemmReport* report = nullptr) {
  require_gemm_args(opa, opb, m, n, k, lda, ldb, ldc);
  // A typo'd STRASSEN_KERNEL fails the call here, loudly, instead of
  // silently dispatching the scalar table (the noexcept registry chain's
  // degrade-to-scalar remains as the crash-free backstop).
  blas::kernels::require_valid_kernel_env();
  std::optional<blas::kernels::ScopedKernel> kernel_pin;
  if (opt.kernel != blas::kernels::Kind::kAuto)
    kernel_pin.emplace(opt.kernel);
  if (report == nullptr) report = opt.report;
  obs::WallStamp wall(report);
  // Stamped here, while the per-call pin (if any) is still installed.
  detail::stamp_call<MM, T>(report, m, n, k);
  if (detail::trivial_product(mm, m, n, k, alpha, beta, C, ldc)) return;

  // Traced / non-RawMem executions dereference operands through the memory
  // model, which the pack-fused leaf path bypasses, so they always run
  // kMorton.  Pinning it keeps resolve_config from reading the environment.
  ExecConfig pins{opt.strategy};
  if constexpr (!std::is_same_v<MM, RawMem>)
    pins.strategy = layout::ExecStrategy::kMorton;
  const ExecConfig cfg = resolve_config(pins);

  if (opt.fixed_tile == 0) {
    detail::run_product(
        mm, opa, opb, m, n, k, alpha, A, lda, B, ldb, beta, C, ldc,
        detail::plan_product<T>(opa, opb, m, k, n, cfg, opt.tiles,
                                opt.max_workspace_bytes, report),
        cfg, opt.tiles, opt.max_workspace_bytes, report);
    return;
  }
  // Ablation: static padding with a fixed truncation point.  The three
  // dimensions must then share a depth naturally, which holds for the square
  // problems this mode is meant for; otherwise we fall back to the largest
  // common depth.
  layout::GemmPlan plan;
  plan.m = layout::fixed_tile_dim(m, opt.fixed_tile);
  plan.k = layout::fixed_tile_dim(k, opt.fixed_tile);
  plan.n = layout::fixed_tile_dim(n, opt.fixed_tile);
  plan.depth = std::max({plan.m.depth, plan.k.depth, plan.n.depth});
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
  plan.strategy = detail::plan_exec_strategy(cfg.strategy, plan, opa, opb,
                                             m, k, n, opt.tiles);
  detail::run_product(mm, opa, opb, m, n, k, alpha, A, lda, B, ldb, beta, C,
                      ldc, plan, cfg, opt.tiles, opt.max_workspace_bytes,
                      report);
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
