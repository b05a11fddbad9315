#include "parallel/pmodgemm.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <memory>
#include <new>
#include <vector>

#include "blas/level1.hpp"
#include "common/aligned_buffer.hpp"
#include "common/arena.hpp"
#include "common/check.hpp"
#include "common/timer.hpp"
#include "core/winograd.hpp"
#include "core/workspace.hpp"
#include "layout/convert.hpp"
#include "layout/split.hpp"
#include "obs/scope.hpp"
#include "parallel/arena_pool.hpp"

namespace strassen::parallel {

namespace {

// Options for the serial driver wherever pmodgemm hands work to it.  The
// family decision was made (or declined) at this call's top level, so serial
// products stay on the plain <2,2,2> driver.
core::ModgemmOptions serial_options(const ParallelOptions& opt) {
  core::ModgemmOptions serial;
  serial.tiles = opt.tiles;
  serial.schedule = opt.schedule;
  serial.algo = analysis::AlgoFamily::k222;
  return serial;
}

// Tasks per thread the auto fork depth aims for.  The top L levels fork
// 7^L leaf tasks; 8 per thread (workers + the joining caller) is enough to
// even out stealing while keeping the spawn temporaries, which every forked
// level adds on top of the serial arenas, as shallow as the pool allows.
// Measured on perfbench's parallel-square (n = 1024/1025, 1-worker pool,
// 4-vCPU AVX2 host, 10 alternating pairs of 50 s runs): forking 2 levels
// instead of every level down to min_task_flops (3) cut workspace_peak_mb
// from 214.28 to 121.14 and the median rss_peak_mb from 365 to 321, with
// no loss of speed (median gflops 30.1 -> 30.7).
constexpr std::int64_t kTasksPerThread = 8;

// The parallel recursion; `spawn` counts the fork levels left.  Once it
// reaches 0 this is exactly core::winograd_recurse, so results are
// bit-identical to the serial code (when `family` is the default; the
// low-memory families trade that identity for a smaller per-task arena
// within the numeric bounds).  A spawn level
// runs the verified analysis::kWinogradSpawn table: its operand sums and
// U-chain execute on this task, and its one concurrent group of seven
// products is forked -- when this runs on a pool worker, the children land
// on ITS deque bottom (depth-first, cache-hot), idle workers steal whole
// subtrees from the top, and the U-chain is the continuation this task runs
// once the join counter drains.
void recurse(ThreadPool* pool, int spawn, double* C, const double* A,
             const double* B, int tm, int tk, int tn, int depth,
             analysis::ScheduleFamily family) {
  RawMem mm;
  if (spawn == 0) {
    ScratchArena scratch(core::winograd_workspace_bytes(
        tm, tk, tn, depth, sizeof(double), family));
    core::winograd_recurse(mm, C, A, B, tm, tk, tn, depth, scratch.arena(),
                           family);
    return;
  }
  const int d1 = depth - 1;
  const analysis::Schedule& sched = analysis::kWinogradSpawn;
  // Each ScratchArena is an independent buffer, so a task that help-runs
  // other tasks while blocked in wait() below never interleaves frames with
  // them.
  ScratchArena scratch(
      core::level_temp_bytes(sched, tm, tk, tn, d1, sizeof(double)));
  core::detail::ScheduleInterpreter<RawMem, double> level(
      mm, sched, C, A, B, tm, tk, tn, d1, scratch.arena(), family);
  level.run([&](const core::detail::Product<double>* products, int count) {
    TaskGroup group(pool);
    for (int i = 0; i < count; ++i) {
      group.run([=, p = products[i]] {
        recurse(pool, spawn - 1, p.dst, p.a, p.b, tm, tk, tn, d1, family);
      });
    }
    group.wait();
  });
}

// The split decomposition (paper Fig. 4), parallel over C-blocks: each
// (m_chunk x n_chunk) block of C is one pool task running its k-chain of
// sub-products SEQUENTIALLY in chunk order with the serial driver --
// first ? beta : 1 accumulation exactly like core::modgemm_mm.  Blocks write
// disjoint parts of C and the within-block order is unchanged, so the result
// is bit-identical to the serial splitter.  Each task degrades independently
// through the serial ladder (bad_alloc never escapes a task); if task SETUP
// fails mid-submission, the blocks that never completed are finished
// serially on the caller.
void split_parallel(ThreadPool* pool, Op opa, Op opb, int m, int n, int k,
                    double alpha, const double* A, int lda, const double* B,
                    int ldb, double beta, double* C, int ldc,
                    const ParallelOptions& opt, obs::GemmReport* rep) {
  const layout::SplitPlan split = layout::plan_split(m, k, n, opt.tiles);
  if (rep) {
    rep->split_used = true;
    rep->parallel = true;
    rep->threads = pool != nullptr ? pool->thread_count() : 0;
  }
  const std::size_t blocks = split.m_chunks.size() * split.n_chunks.size();
  // Everything a task touches is allocated before the first submission:
  // local reports (merged after the join -- GemmReport is not thread-safe)
  // and per-block completion flags for the setup-failure path.
  std::vector<obs::GemmReport> locals(rep != nullptr ? blocks : 0);
  const std::unique_ptr<std::atomic<bool>[]> done(
      new std::atomic<bool>[blocks]());

  const core::ModgemmOptions serial = serial_options(opt);
  const auto run_block = [&](std::size_t index, const layout::Chunk& cm,
                             const layout::Chunk& cn) {
    obs::GemmReport* local = locals.empty() ? nullptr : &locals[index];
    bool first = true;
    for (const layout::Chunk& ck : split.k_chunks) {
      const double* Ablk =
          opa == Op::NoTrans
              ? A + static_cast<std::size_t>(ck.offset) * lda + cm.offset
              : A + static_cast<std::size_t>(cm.offset) * lda + ck.offset;
      const double* Bblk =
          opb == Op::NoTrans
              ? B + static_cast<std::size_t>(cn.offset) * ldb + ck.offset
              : B + static_cast<std::size_t>(ck.offset) * ldb + cn.offset;
      double* Cblk = C + static_cast<std::size_t>(cn.offset) * ldc + cm.offset;
      // The serial entry point: plans the chunk (feasible or direct by
      // plan_split's guarantee), runs its full degradation ladder, and --
      // executing under this call's collector, installed by the pool --
      // nests its CallScope so kernel counters flow to this call while the
      // phase/workspace numbers land in `local`.
      core::modgemm(opa, opb, cm.size, cn.size, ck.size, alpha, Ablk, lda,
                    Bblk, ldb, first ? beta : 1.0, Cblk, ldc, serial, local);
      first = false;
    }
    done[index].store(true, std::memory_order_release);
  };

  try {
    TaskGroup group(pool);
    std::size_t index = 0;
    for (const layout::Chunk& cm : split.m_chunks)
      for (const layout::Chunk& cn : split.n_chunks) {
        const std::size_t i = index++;
        group.run([&run_block, &cm, &cn, i] { run_block(i, cm, cn); });
      }
    group.wait();
  } catch (const std::bad_alloc&) {
    // Task-setup allocation failed part way (the tasks themselves absorb
    // bad_alloc in the serial ladder and complete their block).  ~TaskGroup
    // already joined everything in flight; finish the untouched blocks on
    // this thread.
    core::detail::record_fallback(rep, core::FallbackReason::kAllocDirect);
    purge_thread_arena_cache();
    std::size_t index = 0;
    for (const layout::Chunk& cm : split.m_chunks)
      for (const layout::Chunk& cn : split.n_chunks) {
        const std::size_t i = index++;
        if (!done[i].load(std::memory_order_acquire)) run_block(i, cm, cn);
      }
  }
  if (rep)
    for (const obs::GemmReport& local : locals)
      obs::merge_sub_report(*rep, local);
}

// One level of a non-<2,2,2> coefficient table (core/family.hpp) on the
// parallel driver: the O(n^2) staging/scatter traffic runs serially on the
// caller, and each of the rank block products is a full parallel product
// over the pool (the whole pool works one product at a time -- products are
// big by construction, so the fan-out inside each one saturates the
// workers).  Sub-products pin <2,2,2>.  Returns false -- with C untouched
// and kAlgoFallback recorded -- when the staging allocation fails.
bool family_parallel(ThreadPool* pool, Op opa, Op opb, int m, int n, int k,
                     double alpha, const double* A, int lda, const double* B,
                     int ldb, double beta, double* C, int ldc,
                     analysis::AlgoFamily algo,
                     analysis::ScheduleFamily family,
                     const ParallelOptions& opt, obs::GemmReport* rep) {
  const analysis::FamilyTable& t = analysis::family_table(algo);
  const std::size_t staging =
      core::family_workspace_bytes(t, m, k, n, sizeof(double));
  ParallelOptions sub_opt = opt;
  sub_opt.algo = analysis::AlgoFamily::k222;  // one level only
  sub_opt.report = nullptr;
  try {
    Arena arena(staging);
    RawMem mm;
    core::detail::modgemm_family_arena(
        mm, opa, opb, m, n, k, alpha, A, lda, B, ldb, beta, C, ldc, t, arena,
        [&](int m2, int n2, int k2, const double* A2, int lda2,
            const double* B2, int ldb2, double* C2, int ldc2) {
          pmodgemm(pool, Op::NoTrans, Op::NoTrans, m2, n2, k2, 1.0, A2, lda2,
                   B2, ldb2, 0.0, C2, ldc2, sub_opt);
        },
        rep);
    if (rep) {
      rep->parallel = true;
      rep->threads = pool != nullptr ? pool->thread_count() : 0;
      rep->workspace_requested_bytes += staging;
      ++rep->workspace_allocations;
      rep->plan = core::family_plan(t, algo, m, k, n);
      rep->plan.schedule = family;
      rep->planned_depth = 1;
      rep->schedule = analysis::family_name(family);
      rep->algo = analysis::algo_name(algo);
    }
    return true;
  } catch (const std::bad_alloc&) {
    // The staging arena is pushed before any arithmetic and C is written
    // only by the final merge, so C is untouched; the plain path takes over.
    core::detail::record_fallback(rep, core::FallbackReason::kAlgoFallback);
    return false;
  }
}

}  // namespace

int fork_levels(const ThreadPool* pool, int tm, int tk, int tn, int depth,
                std::int64_t min_task_flops) {
  if (pool == nullptr) return 0;
  const std::int64_t threads = pool->thread_count();
  if (threads == 0) return 0;
  const std::int64_t wanted = kTasksPerThread * (threads + 1);
  int levels = 0;
  for (std::int64_t tasks = 1; tasks < wanted && levels < depth; tasks *= 7) {
    // Padded volume of one child of this level: (tm*tk*tn) << 3*(d-1) at
    // remaining depth d.  Computed in double to sidestep overflow for deep
    // plans.
    const double child_volume = std::ldexp(static_cast<double>(tm) * tk * tn,
                                           3 * (depth - levels - 1));
    if (child_volume < static_cast<double>(min_task_flops)) break;
    ++levels;
  }
  return levels;
}

std::size_t pmodgemm_workspace_bytes(int tm, int tk, int tn, int depth,
                                     int spawn_levels, std::size_t elem_size,
                                     analysis::ScheduleFamily family) {
  STRASSEN_REQUIRE(tm >= 1 && tk >= 1 && tn >= 1 && depth >= 0 &&
                       spawn_levels >= 0,
                   "bad workspace request");
  // The driver runs kInPlace subtrees as kLowMem (no owned operand copies to
  // overwrite below a spawn level); size what actually executes.
  family = analysis::child_family(family);
  if (spawn_levels == 0 || depth == 0)
    return core::winograd_workspace_bytes(tm, tk, tn, depth, elem_size,
                                          family);
  // All 7 child arenas can be live at once.  A spawn level's own
  // temporaries are family-independent.
  return checked_add(
      core::level_temp_bytes(analysis::kWinogradSpawn, tm, tk, tn, depth - 1,
                             elem_size),
      checked_mul(7, pmodgemm_workspace_bytes(tm, tk, tn, depth - 1,
                                              spawn_levels - 1, elem_size,
                                              family)));
}

void pmodgemm(ThreadPool* pool, Op opa, Op opb, int m, int n, int k,
              double alpha, const double* A, int lda, const double* B, int ldb,
              double beta, double* C, int ldc, const ParallelOptions& opt) {
  // Reject bad inputs identically to the serial entry point.
  core::require_gemm_args(opa, opb, m, n, k, lda, ldb, ldc);
  blas::kernels::require_valid_kernel_env();
  STRASSEN_REQUIRE(opt.spawn_levels >= kSpawnAuto,
                   "bad spawn_levels: " << opt.spawn_levels);
  STRASSEN_REQUIRE(opt.min_task_flops >= 1,
                   "min_task_flops must be positive: " << opt.min_task_flops);
  obs::CallScope scope("pmodgemm", opt.report);
  obs::GemmReport* rep = scope.report();
  obs::WallStamp wall(rep);
  if (rep) {
    rep->m = m;
    rep->n = n;
    rep->k = k;
    rep->kernel =
        blas::kernels::kind_name(blas::kernels::active_kernel());
    rep->kernel_variant =
        blas::kernels::variant_name(blas::kernels::avx2_variant());
  }
  if (m == 0 || n == 0) return;
  if (alpha == 0.0 || k == 0) {
    RawMem mm;
    blas::scale_view(mm, m, n, C, ldc, beta);
    return;
  }
  // Resolve the schedule family once per call (pin, then STRASSEN_SCHEDULE).
  // The parallel recursion never owns throwaway operand copies below a spawn
  // level, so the in-place family degenerates to the low-mem one here.
  analysis::ScheduleFamily family =
      opt.schedule != analysis::ScheduleFamily::kAuto
          ? opt.schedule
          : core::detail::env_schedule_family();
  if (family == analysis::ScheduleFamily::kAuto)
    family = analysis::ScheduleFamily::kWinograd;
  family = analysis::child_family(family);
  // Resolve the <m,k,n> algorithm family (pin, then STRASSEN_ALGO, then the
  // planner heuristic -- same layering as the serial driver).  A non-<2,2,2>
  // family runs one table level with each block product as a full parallel
  // product; if it cannot run, the plain path below takes over.
  analysis::AlgoFamily algo =
      opt.algo != analysis::AlgoFamily::kAuto ? opt.algo
                                              : core::detail::env_algo_family();
  if (algo == analysis::AlgoFamily::kAuto)
    algo = layout::choose_algo(m, k, n, opt.tiles);
  if (algo != analysis::AlgoFamily::k222) {
    // Same shape gate as the serial driver: sub-products at or below the
    // direct threshold would all run conventional, so a family level only
    // multiplies staging traffic by its rank.
    const analysis::FamilyTable& t = analysis::family_table(algo);
    if (std::min({core::family_partition(m, t.bm),
                  core::family_partition(k, t.bk),
                  core::family_partition(n, t.bn)}) <=
        opt.tiles.direct_threshold) {
      if (rep)
        core::detail::record_fallback(rep,
                                      core::FallbackReason::kAlgoFallback);
      algo = analysis::AlgoFamily::k222;
    }
  }
  if (rep) rep->algo = analysis::algo_name(algo);
  if (algo != analysis::AlgoFamily::k222) {
    if (family_parallel(pool, opa, opb, m, n, k, alpha, A, lda, B, ldb, beta,
                        C, ldc, algo, family, opt, rep))
      return;
    if (rep) rep->algo = analysis::algo_name(analysis::AlgoFamily::k222);
  }
  layout::GemmPlan plan = layout::plan_gemm(m, k, n, opt.tiles);
  plan.schedule = family;
  if (rep) rep->planned_depth = plan.depth;
  if (plan.direct) {
    // Thin shapes: one conventional product; nothing to fan out.  The
    // report (if any) is handed down, so its phases/plan reflect the serial
    // execution while entry stays "pmodgemm".
    core::modgemm(opa, opb, m, n, k, alpha, A, lda, B, ldb, beta, C, ldc,
                  serial_options(opt), rep);
    return;
  }
  if (!plan.feasible) {
    // Highly rectangular: the split decomposition, C-blocks as pool tasks.
    split_parallel(pool, opa, opb, m, n, k, alpha, A, lda, B, ldb, beta, C,
                   ldc, opt, rep);
    return;
  }

  // Fork depth, resolved once: the auto rule or the explicit count, capped
  // at the plan depth.  The recursion counts it down level by level.
  const int spawn =
      opt.spawn_levels == kSpawnAuto
          ? fork_levels(pool, plan.m.tile, plan.k.tile, plan.n.tile,
                        plan.depth, opt.min_task_flops)
          : std::min(opt.spawn_levels, plan.depth);
  try {
    const layout::MortonLayout la{m, k, plan.m.tile, plan.k.tile, plan.depth};
    const layout::MortonLayout lb{k, n, plan.k.tile, plan.n.tile, plan.depth};
    const layout::MortonLayout lc{m, n, plan.m.tile, plan.n.tile, plan.depth};
    const std::size_t abytes = layout::buffer_bytes(la, sizeof(double));
    const std::size_t bbytes = layout::buffer_bytes(lb, sizeof(double));
    const std::size_t cbytes = layout::buffer_bytes(lc, sizeof(double));
    AlignedBuffer abuf(abytes);
    AlignedBuffer bbuf(bbytes);
    AlignedBuffer cbuf(cbytes);
    double* Am = abuf.as<double>();
    double* Bm = bbuf.as<double>();
    double* Cm = cbuf.as<double>();

    if (rep) {
      rep->parallel = true;
      rep->threads = pool != nullptr ? pool->thread_count() : 0;
      rep->spawn_levels = spawn;
      rep->plan = plan;
      rep->plan.strategy = layout::ExecStrategy::kMorton;
      rep->strategy = layout::strategy_name(layout::ExecStrategy::kMorton);
      rep->schedule = analysis::family_name(family);
      ++rep->products;
      rep->workspace_requested_bytes += abytes + bbytes + cbytes;
      rep->workspace_allocations += 3;
    }

    // Parallel conversions: fan out over Morton tile ranges.
    WallTimer t;
    const auto convert_in = [&](const layout::MortonLayout& l, double* dst,
                                Op op, const double* src, int ld) {
      const std::int64_t tiles =
          static_cast<std::int64_t>(l.tiles_per_side()) * l.tiles_per_side();
      parallel_for(pool, 0, tiles, /*min_grain=*/8,
                   [&](std::int64_t t0, std::int64_t t1) {
                     RawMem mm;
                     layout::to_morton_range(mm, l, dst, op, src, ld,
                                             static_cast<int>(t0),
                                             static_cast<int>(t1));
                   });
    };
    convert_in(la, Am, opa, A, lda);
    convert_in(lb, Bm, opb, B, ldb);
    if (rep) rep->convert_in_seconds += t.seconds();

    t.restart();
    recurse(pool, spawn, Cm, Am, Bm, plan.m.tile, plan.k.tile, plan.n.tile,
            plan.depth, family);
    if (rep) rep->compute_seconds += t.seconds();

    t.restart();
    // Convert-out applies beta to C exactly once per tile, so unlike the
    // phases above it is NOT safe to abandon to the from-scratch serial
    // rerun: a chunk that already ran would get beta applied twice.  The
    // conversion itself never allocates (RawMem), but SUBMITTING a chunk
    // can throw bad_alloc (building the task object), so chunks record
    // completion and the catch finishes only the missing ones inline --
    // same idiom as split_parallel's setup-failure path.
    const std::int64_t ctiles =
        static_cast<std::int64_t>(lc.tiles_per_side()) * lc.tiles_per_side();
    const int width = pool != nullptr ? pool->thread_count() : 1;
    const std::int64_t chunks = std::max<std::int64_t>(
        1, std::min<std::int64_t>(width, (ctiles + 7) / 8));
    const std::int64_t per = (ctiles + chunks - 1) / chunks;
    const std::size_t nchunks =
        static_cast<std::size_t>((ctiles + per - 1) / per);
    const std::unique_ptr<std::atomic<bool>[]> done(
        new std::atomic<bool>[nchunks]());
    const auto convert_chunk = [&](std::size_t ci, std::int64_t lo,
                                   std::int64_t hi) {
      RawMem mm;
      layout::from_morton_range(mm, lc, Cm, alpha, C, ldc, beta,
                                static_cast<int>(lo), static_cast<int>(hi));
      done[ci].store(true, std::memory_order_release);
    };
    try {
      TaskGroup group(pool);
      std::size_t ci = 0;
      for (std::int64_t c = 0; c < ctiles; c += per, ++ci) {
        const std::int64_t hi = std::min(ctiles, c + per);
        group.run([&convert_chunk, ci, c, hi] { convert_chunk(ci, c, hi); });
      }
      group.wait();
    } catch (const std::bad_alloc&) {
      // ~TaskGroup joined everything in flight, so the flags are final and
      // no chunk is mid-write.
      core::detail::record_fallback(rep, core::FallbackReason::kAllocDirect);
      std::size_t ci = 0;
      for (std::int64_t c = 0; c < ctiles; c += per, ++ci) {
        if (done[ci].load(std::memory_order_acquire)) continue;
        convert_chunk(ci, c, std::min(ctiles, c + per));
      }
    }
    if (rep) rep->convert_out_seconds += t.seconds();
  } catch (const std::bad_alloc&) {
    // A Morton buffer or a task's arena failed to allocate.  Exceptions from
    // tasks surface at TaskGroup::wait(), after every sibling task joined,
    // so nothing still references the spawn-level temporaries being unwound
    // here.  C has not been touched (the final conversion above completes
    // even under submission failure and lets no bad_alloc escape), so the
    // serial driver -- with its full degradation ladder down to the
    // allocation-free path -- can produce the product from scratch.  The
    // caller's idle arena cache is released first so the retry runs with
    // every reusable byte returned.
    core::detail::record_fallback(rep, core::FallbackReason::kAllocDirect);
    purge_thread_arena_cache();
    core::modgemm(opa, opb, m, n, k, alpha, A, lda, B, ldb, beta, C, ldc,
                  serial_options(opt), rep);
  }
}

}  // namespace strassen::parallel
