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
  using Storage = core::detail::MortonStorage<RawMem, double>;
  using analysis::Shape;
  Storage st{{tm, tk, tn}, mm};
  core::detail::ScheduleInterpreter<Storage> level(
      st, sched, st.operand(C, Shape::kC, depth),
      st.operand(A, Shape::kA, depth), st.operand(B, Shape::kB, depth), d1,
      scratch.arena(), family);
  level.run([&](const core::detail::Product<Storage::Ref>* products,
                int count) {
    TaskGroup group(pool);
    for (int i = 0; i < count; ++i) {
      group.run([=, p = products[i]] {
        recurse(pool, spawn - 1, p.dst.p, p.a.p, p.b.p, tm, tk, tn, d1,
                family);
      });
    }
    group.wait();
  });
}

// The split decomposition (paper Fig. 4), parallel over C-blocks: each
// (m_chunk x n_chunk) block of C is one pool task running the serial
// splitter's own block code (core::detail::run_split_block: its k-chain in
// chunk order, each chunk through the serial ladder).  Blocks write disjoint
// parts of C, so the result is bit-identical to the serial splitter.  Each
// task degrades independently through the serial ladder (bad_alloc never
// escapes a task); if task SETUP fails mid-submission, the blocks that never
// completed are finished serially on the caller.
void split_parallel(ThreadPool* pool, Op opa, Op opb, int m, int n, int k,
                    double alpha, const double* A, int lda, const double* B,
                    int ldb, double beta, double* C, int ldc,
                    const core::ExecConfig& cfg,
                    const layout::TileOptions& tiles, obs::GemmReport* rep) {
  const layout::SplitPlan split = layout::plan_split(m, k, n, tiles);
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

  const auto run_block = [&](std::size_t index, const layout::Chunk& cm,
                             const layout::Chunk& cn) {
    // Runs under this call's collector, installed by the pool, so kernel
    // counters flow to this call while phases and workspace land in the
    // block's local report.
    RawMem mm;
    core::detail::run_split_block(
        mm, opa, opb, cm, cn, split.k_chunks, alpha, A, lda, B, ldb, beta, C,
        ldc, cfg, tiles, 0, locals.empty() ? nullptr : &locals[index]);
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

// The parallel execution of one planned <2,2,2> Strassen product
// (plan.feasible, !plan.direct): Morton conversions fanned out over tile
// ranges, the top fork levels forked, the conversion back.  If an
// allocation fails, the serial ladder reruns the same plan.
void run_planned(ThreadPool* pool, Op opa, Op opb, int m, int n, int k,
                 double alpha, const double* A, int lda, const double* B,
                 int ldb, double beta, double* C, int ldc,
                 const layout::GemmPlan& plan, const ParallelOptions& opt,
                 obs::GemmReport* rep) {
  // The parallel recursion never owns throwaway operand copies below a spawn
  // level, so the in-place family runs as the low-memory one here.
  const analysis::ScheduleFamily family = analysis::child_family(plan.schedule);
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
    // The peak is the call's: the collecting CallScope lifts it to every
    // byte requested (spawn temporaries and child arenas are live together).
    core::detail::stamp_product(rep, plan, layout::ExecStrategy::kMorton,
                                family, sizeof(double), 0, spawn);
  } catch (const std::bad_alloc&) {
    // A Morton buffer or a task's arena failed to allocate.  Exceptions from
    // tasks surface at TaskGroup::wait(), after every sibling task joined,
    // so nothing still references the spawn-level temporaries being unwound
    // here.  C has not been touched (the final conversion above completes
    // even under submission failure and lets no bad_alloc escape), so the
    // serial ladder -- down to the allocation-free path -- can produce the
    // same plan's product from scratch.  The caller's idle arena cache is
    // released first so the retry runs with every reusable byte returned.
    core::detail::record_fallback(rep, core::FallbackReason::kAllocDirect);
    purge_thread_arena_cache();
    RawMem mm;
    core::detail::run_ladder(mm, opa, opb, m, n, k, alpha, A, lda, B, ldb,
                             beta, C, ldc, plan, rep);
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
  core::detail::stamp_call<RawMem, double>(rep, m, n, k);
  RawMem mm;
  if (core::detail::trivial_product(mm, m, n, k, alpha, beta, C, ldc)) return;
  // pmodgemm runs the Morton strategy; the resolved strategy reaches only
  // the products it hands to the serial ladder.
  const core::ExecConfig cfg = core::resolve_config(
      {opt.schedule, layout::ExecStrategy::kAuto, opt.algo});
  detail::run_product(
      pool, opa, opb, m, n, k, alpha, A, lda, B, ldb, beta, C, ldc,
      core::detail::plan_product<double>(m, k, n, cfg, opt.tiles, 0, rep), cfg,
      opt, rep);
}

void detail::run_product(ThreadPool* pool, Op opa, Op opb, int m, int n,
                         int k, double alpha, const double* A, int lda,
                         const double* B, int ldb, double beta, double* C,
                         int ldc, const layout::GemmPlan& plan,
                         core::ExecConfig cfg, const ParallelOptions& opt,
                         obs::GemmReport* rep) {
  RawMem mm;
  if (rep) rep->algo = analysis::algo_name(plan.algo);
  cfg.algo = analysis::AlgoFamily::k222;
  if (plan.algo != analysis::AlgoFamily::k222) {
    // The family level stages its combinations serially on the caller; each
    // of its rank block products is a full parallel product over the pool
    // (the whole pool works one product at a time -- products are big by
    // construction, so the fan-out inside each one saturates the workers).
    if (core::detail::run_family(
            mm, opa, opb, m, n, k, alpha, A, lda, B, ldb, beta, C, ldc, plan,
            [&](int m2, int n2, int k2, const double* A2, int lda2,
                const double* B2, int ldb2, double* C2, int ldc2,
                obs::GemmReport* sub) {
              run_product(pool, Op::NoTrans, Op::NoTrans, m2, n2, k2, 1.0, A2,
                          lda2, B2, ldb2, 0.0, C2, ldc2,
                          core::detail::plan_product<double>(
                              m2, k2, n2, cfg, opt.tiles, 0, sub),
                          cfg, opt, sub);
            },
            rep)) {
      if (rep) {
        rep->parallel = true;
        rep->threads = pool != nullptr ? pool->thread_count() : 0;
      }
      return;
    }
    run_product(pool, opa, opb, m, n, k, alpha, A, lda, B, ldb, beta, C, ldc,
                core::detail::plan_product<double>(m, k, n, cfg, opt.tiles, 0,
                                                   rep),
                cfg, opt, rep);
  } else if (plan.direct) {
    // Thin shapes: one conventional product; nothing to fan out.
    core::detail::run_ladder(mm, opa, opb, m, n, k, alpha, A, lda, B, ldb,
                             beta, C, ldc, plan, rep);
  } else if (!plan.feasible) {
    split_parallel(pool, opa, opb, m, n, k, alpha, A, lda, B, ldb, beta, C,
                   ldc, cfg, opt.tiles, rep);
  } else {
    run_planned(pool, opa, opb, m, n, k, alpha, A, lda, B, ldb, beta, C, ldc,
                plan, opt, rep);
  }
}

}  // namespace strassen::parallel
