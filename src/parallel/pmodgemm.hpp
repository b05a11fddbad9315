// pmodgemm.hpp -- task-parallel MODGEMM on the work-stealing pool.
//
// pmodgemm is the serial pipeline (core/modgemm.hpp: resolve, plan,
// core::detail::run_product) run with a pool; parallelism changes only how
// a product executes, never what it computes.  The seven Strassen-Winograd
// products of one recursion level are mutually independent: they read the
// input quadrants and the S/T operand sums, and only the U-chain
// combination afterwards has cross-product dependencies.  With a pool:
//
//   * every planned product runs the Morton rung, whatever strategy the
//     planner picked, and each of its top fork levels (see spawn_levels and
//     fork_levels below) runs the verified spawn table
//     analysis::kWinogradSpawn: the 8 operand sums are formed into dedicated
//     temporaries (S1..S4, T1..T4), the table's one concurrent group of 7
//     products is submitted to the work-stealing pool (each recursing
//     independently, with its own scratch arena from the per-thread cache),
//     and the U-chain runs as the spawning task's continuation after the
//     join;
//   * below the fork levels each task runs the serial Morton recursion of
//     core/winograd.hpp unchanged -- so the arithmetic performed (and hence
//     the result, bit for bit) is IDENTICAL to the serial algorithm;
//   * the layout conversions fan out over Morton tile ranges (each tile is
//     written independently);
//   * highly rectangular shapes that need the split decomposition (paper
//     Fig. 4) run each C-block's chain of sub-products as its own pool task:
//     the k-chain within a block stays sequential in chunk order and the
//     blocks write disjoint parts of C, so the result is bit-identical to
//     the serial splitter.
//
// Without a pool, pmodgemm is core::modgemm.
//
// A pooled call is unbudgeted: ParallelOptions has no max_workspace_bytes,
// so the workspace budget rungs (Kreczmar's schedule swap, depth reduction,
// budget-direct) are reached only from core::modgemm and
// core::modgemm_batched.
//
// Memory: a spawn level keeps 11 temporaries live at once (4 A-quadrants +
// 4 B-quadrants + 3 C-quadrants, ~2.75x the quadrant set of the serial
// schedule; P2..P5 land directly in C's quadrants) -- the classic
// space-for-parallelism trade, bounded per worker by the depth of its active
// path (Boyer et al.).  That is why the auto policy forks only as many levels
// as the pool needs to stay busy, never every level it could; and if an
// allocation fails, the product drops the fork and reruns on the serial
// ladder.  Scratch comes from a per-thread arena cache
// (parallel/arena_pool.hpp), so a worker's temporaries are first-touched
// locally; STRASSEN_NUMA=1 additionally pins workers to CPUs
// (thread_pool.hpp) to keep that locality stable on multi-socket hosts.
//
// Restrictions: RawMem only (the cache simulator is not thread-safe by
// design -- a traced run must be a deterministic serial address stream).
#pragma once

#include <cstdint>

#include "common/matrix.hpp"
#include "core/modgemm.hpp"
#include "parallel/thread_pool.hpp"

namespace strassen::parallel {

// spawn_levels value selecting the auto policy: fork the top fork_levels()
// levels (below).
inline constexpr int kSpawnAuto = -1;

struct ParallelOptions {
  layout::TileOptions tiles{};
  // Recursion levels that fork, counted from the top.  kSpawnAuto (default)
  // resolves once per call to fork_levels(): just deep enough that the pool
  // has ~8 tasks per thread, since every forked level adds its 11 spawn
  // temporaries per active task.  Explicit values: 0 = fully serial compute,
  // N > 0 = fork the top N levels (capped at the plan depth) and serialize
  // each task's subtree.
  int spawn_levels = kSpawnAuto;
  // Auto-policy granularity floor: a level whose sub-products' padded volume
  // (m_pad * k_pad * n_pad, ~ half their flop count) falls below this never
  // forks, however wide the pool.  The default (2^21 ~ 2M, a ~128^3
  // product, a few hundred microseconds of leaf work) keeps task overhead
  // well under 1%.  Ignored when spawn_levels >= 0.
  std::int64_t min_task_flops = std::int64_t{1} << 21;
  // Per-call observability (obs/report.hpp): phase timers, workspace
  // accounting, kernel telemetry plus the parallel section (tasks executed,
  // per-thread distribution, steal count, pool utilization).  Null =
  // subsystem off.
  obs::GemmReport* report = nullptr;
};

// The auto fork depth for a tm x tk x tn tile plan of `depth` levels on
// `pool`: the fewest top levels L with 7^L >= 8 * (pool workers + 1) tasks,
// stopping early -- at the plan depth, or above the first level whose
// sub-products fall below min_task_flops of padded volume.  A null or
// worker-less pool forks nothing.  This is the single meaning of "deep"
// shared by pmodgemm (kSpawnAuto) and the batched driver, which forks a
// product across the pool exactly when this is >= 1.
int fork_levels(const ThreadPool* pool, int tm, int tk, int tn, int depth,
                std::int64_t min_task_flops);

// Bytes of spawn-level temporaries + per-task arenas a pooled product needs
// beyond the Morton buffers themselves (informational; allocation is
// internal) -- the sum of every arena the call acquires, so the Morton
// buffers plus this equal GemmReport::workspace_requested_bytes.  Takes an
// explicit spawn_levels >= 0; for the auto policy, pass fork_levels() (also
// reported in GemmReport::spawn_levels).  `family` is the plan's executed
// family (GemmReport::schedule) and sizes the serial arenas below the spawn
// levels, which are family-independent (kWinogradSpawn's 11 temporaries).
std::size_t pmodgemm_workspace_bytes(
    int tm, int tk, int tn, int depth, int spawn_levels, std::size_t elem_size,
    analysis::ScheduleFamily family = analysis::ScheduleFamily::kLowMem);

// C <- alpha * op(A).op(B) + beta * C, using `pool` for parallelism.
// pool == nullptr is core::modgemm (same plan, strategy and report fields).
// Bit-for-bit identical to core::modgemm for every input.  Arguments are
// validated exactly like the serial entry point (same STRASSEN_REQUIRE
// checks and messages); if an allocation fails mid-call -- a buffer or an
// arena inside a task, whose exception surfaces at TaskGroup::wait() -- the
// product drops its fork and reruns on the serial degradation ladder, so
// the call still returns a correct C without partial writes.
void pmodgemm(ThreadPool* pool, Op opa, Op opb, int m, int n, int k,
              double alpha, const double* A, int lda, const double* B, int ldb,
              double beta, double* C, int ldc,
              const ParallelOptions& opt = {});

}  // namespace strassen::parallel
