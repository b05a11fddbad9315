#include "parallel/pmodgemm.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>

#include "common/check.hpp"
#include "core/workspace.hpp"
#include "obs/scope.hpp"

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
  const core::ExecConfig cfg = core::resolve_config({});
  const core::detail::Fork fork{pool, opt.spawn_levels, opt.min_task_flops};
  core::detail::run_product(
      mm, opa, opb, m, n, k, alpha, A, lda, B, ldb, beta, C, ldc,
      core::detail::plan_product<double>(opa, opb, m, k, n, beta != 0.0, cfg,
                                         opt.tiles, 0, rep),
      cfg, opt.tiles, 0, rep, pool == nullptr ? nullptr : &fork);
}

}  // namespace strassen::parallel

int strassen::core::detail::Fork::levels(const layout::GemmPlan& plan) const {
  if (spawn_levels != parallel::kSpawnAuto)
    return std::min(spawn_levels, plan.depth);
  return parallel::fork_levels(pool, plan.m.tile, plan.k.tile, plan.n.tile,
                               plan.depth, min_task_flops);
}
