// obs/report.hpp -- the per-call GemmReport and its stable JSON form.
//
// The paper's argument is built on introspection: where the time goes
// (conversion vs multiply, Fig. 7), how much padding the plan pays (Fig. 2),
// and how much temporary memory the schedule keeps live (S5.1, and Boyer et
// al.'s memory-efficient schedules in the follow-on literature).  GemmReport
// makes the library report those quantities about ITS OWN execution:
//
//   phases     -- conversion in, recursion/compute, conversion out, plus the
//                 time spent inside leaf kernels and the whole-call wall time
//   plan       -- the executed plan (tiles, depth, padding), the depth the
//                 planner originally wanted, split/product accounting
//   workspace  -- bytes requested, the arena high-water mark, and which rung
//                 of the PR-1 degradation ladder the call took, if any
//   kernels    -- active engine kernel/variant and leaf / fused-leaf /
//                 element-wise invocation counts
//   parallel   -- thread count, tasks executed (total and per worker), tasks
//                 migrated between workers by stealing, task busy time, and
//                 pool utilization
//
// A report is requested per call (ModgemmOptions::report /
// ParallelOptions::report, or the legacy trailing parameter) and costs
// nothing when absent: the struct lives on the caller's stack and the
// library takes a null-check before every piece of bookkeeping.  Setting
// STRASSEN_OBS=json[:path] makes every production call emit its report as
// one JSON line even when the caller asked for none (obs/env_sink.hpp).
//
// Timers accumulate (+=) so one report can aggregate a measurement loop of
// identical calls, as bench/fig7 does; ratios like conversion_fraction()
// are invariant to the repetition count.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "layout/plan.hpp"

namespace strassen::obs {

// How (if at all) a call degraded from the planned Strassen execution.
// Ordered by severity so multi-product (split) calls can report the worst
// rung taken.  (Moved here from core/modgemm.hpp; core aliases it.)
enum class FallbackReason {
  kNone = 0,        // planned path ran unmodified
  kScheduleSwap,    // workspace budget: planned depth kept, but
                    // Kreczmar's zero-workspace table ran instead of the
                    // default 2-buffer table
  kDepthReduced,    // workspace budget: shallower recursion chosen
  kBudgetDirect,    // workspace budget: no depth fit; conventional gemm
  kAllocDirect,     // an allocation failed mid-call; conventional retry
  kAllocStrided,    // even the conventional path's staging buffer failed;
                    // allocation-free strided gemm ran instead
};

const char* fallback_reason_name(FallbackReason r);

// Everything the library can tell you about one gemm call.  Field semantics
// are specified in docs/OBSERVABILITY.md together with the JSON schema
// (strassen.gemm_report.v6) that to_json() emits.
struct GemmReport {
  // --- call identity -------------------------------------------------------
  // "modgemm" | "pmodgemm" | "modgemm_batched" (static strings)
  const char* entry = "";
  int m = 0, n = 0, k = 0;

  // --- phase timers (seconds; += across invocations) -----------------------
  double convert_in_seconds = 0.0;   // col-major -> Morton, incl. pad zeroing
  double compute_seconds = 0.0;      // recursion + leaf products
  double convert_out_seconds = 0.0;  // Morton -> col-major + alpha/beta merge
  double leaf_seconds = 0.0;         // inside leaf kernels (subset of compute)
  double wall_seconds = 0.0;         // whole call, validation to return

  // --- plan / padding ------------------------------------------------------
  layout::GemmPlan plan{};  // plan of the (last) single product executed
  bool split_used = false;  // highly-rectangular decomposition taken
  int products = 0;         // sub-products executed (1 if no split)
  int planned_depth = 0;    // depth the planner wanted before any budget
  // Schedule family the (last) Strassen product executed
  // (analysis::family_name); "" until a Strassen path runs (direct-only
  // calls never set it).
  const char* schedule = "";
  // Execution strategy the (last) Strassen product ran
  // (layout::strategy_name: "morton" or "packfused"); "" until a Strassen
  // path runs, serialized as "none" like schedule.
  const char* strategy = "";
  // <m,k,n> algorithm of the call: always "222" (the Strassen-Winograd
  // recursion) once a product is dispatched; "" on zero-dim early returns,
  // serialized as "none" like schedule.  Kept so the v6 schema is unchanged.
  const char* algo = "";

  // --- resilience / workspace ----------------------------------------------
  FallbackReason fallback_reason = FallbackReason::kNone;  // worst rung taken
  std::size_t workspace_requested_bytes = 0;  // arenas + Morton buffers sized
  std::size_t workspace_peak_bytes = 0;       // high-water mark reached
  int workspace_allocations = 0;              // arenas/buffers created
  // Recursion-arena bytes Kreczmar's table avoided relative to the default
  // 2-buffer table (summed across products; non-zero only on the
  // kScheduleSwap rung or a depth-reduced Kreczmar plan).
  std::size_t workspace_saved_bytes = 0;
  // Morton staging-buffer bytes the pack-fused strategy did NOT allocate
  // (summed across pack-fused products; 0 when every product ran kMorton).
  std::size_t conversion_saved_bytes = 0;

  // --- kernel telemetry (production double-precision path) -----------------
  const char* kernel = "";          // active engine kernel at call time
  const char* kernel_variant = "";  // AVX2 register-block variant
  std::uint64_t leaf_calls = 0;         // plain leaf products
  // Always 0: no schedule runs fused leaves.  Kept for the v1 JSON schema
  // and its readers; it leaves with the next schema bump.
  std::uint64_t fused_calls = 0;
  std::uint64_t elementwise_calls = 0;  // quadrant vadd/vsub kernel calls

  // --- parallel stats ------------------------------------------------------
  bool parallel = false;  // went through parallel::pmodgemm
  int threads = 0;        // pool width (0 = inline/serial)
  // Spawn depth the call actually used: the value of
  // ParallelOptions::spawn_levels when set explicitly (>= 0, capped at the
  // plan depth), or the depth the auto policy (kSpawnAuto) resolved to:
  // parallel::fork_levels for this plan and pool.
  int spawn_levels = 0;
  std::uint64_t tasks_executed = 0;
  // Tasks that migrated from the worker that spawned them to another thread
  // via a work-steal (0 when inline or when every task ran where it was
  // queued).  A high steal share with low utilization points at tasks too
  // fine for the pool; near-zero steals at low utilization points at too few
  // tasks.
  std::uint64_t steals = 0;
  // Sum of EXCLUSIVE task execution times: a task help-running other tasks
  // while blocked in a join does not count their time as its own, so this
  // sums to real busy time even for deeply nested spawn trees.
  double task_busy_seconds = 0.0;
  // Tasks per thread: index 0 is the calling thread (inline execution and
  // TaskGroup help-first draining), index i >= 1 is pool worker i - 1.
  // Empty until a parallel call populates it.
  std::vector<std::uint64_t> per_thread_tasks;

  // --- batched execution (core/batched.hpp; all zero/"" outside it) --------
  int batch_count = 0;    // products in the batch (0 = not a batched call)
  int batch_classes = 0;  // distinct plan-equivalence classes in the batch
  // Plan-cache outcome per class: hits were served by the process-wide cache
  // (tune/plan_cache.hpp), misses were planned fresh this call (and
  // published).  hits + misses == batch_classes when the cache is on.
  std::uint64_t batch_plan_cache_hits = 0;
  std::uint64_t batch_plan_cache_misses = 0;
  // Scratch acquisitions across the batch's tasks (one per product needing
  // workspace) and the subset that missed the per-thread arena cache and
  // allocated cold.  Amortization target: cold allocs <= pool width + 1 for
  // a single-class batch, independent of batch size.
  std::uint64_t batch_workspace_acquisitions = 0;
  std::uint64_t batch_workspace_cold_allocs = 0;
  // Persistent tune-cache outcome for the batch: "off" (BatchedOptions::tune
  // unset), "cold" (surveyed fresh), "warm" (memo or STRASSEN_TUNE_CACHE
  // file skipped the survey), "rejected" (corrupt/foreign file forced a
  // re-survey).  Serialized "off" while empty.
  const char* tune_cache = "";

  // --- derived -------------------------------------------------------------
  double total_seconds() const {
    return convert_in_seconds + compute_seconds + convert_out_seconds;
  }
  double conversion_fraction() const {
    const double t = total_seconds();
    return t > 0 ? (convert_in_seconds + convert_out_seconds) / t : 0.0;
  }
  // Fraction of the pool's capacity the call kept busy, in [0, 1]:
  // task_busy_seconds / ((threads + 1) * wall_seconds), since the calling
  // thread runs tasks too while it joins.  0 when serial.
  double pool_utilization() const {
    if (threads <= 0 || wall_seconds <= 0.0) return 0.0;
    return task_busy_seconds /
           (static_cast<double>(threads + 1) * wall_seconds);
  }
  // Total pad elements of the (last) executed plan across A, B and C.
  long long pad_elems() const;
};

// Accumulates the enclosing scope's wall time into r->wall_seconds on
// destruction.  Null report -> no clock is ever read (the disabled path pays
// one pointer test).
class WallStamp {
 public:
  explicit WallStamp(GemmReport* r) noexcept
      : r_(r),
        t0_(r ? std::chrono::steady_clock::now()
              : std::chrono::steady_clock::time_point{}) {}
  ~WallStamp() {
    if (r_ == nullptr) return;
    r_->wall_seconds +=
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0_)
            .count();
  }
  WallStamp(const WallStamp&) = delete;
  WallStamp& operator=(const WallStamp&) = delete;

 private:
  GemmReport* r_;
  std::chrono::steady_clock::time_point t0_;
};

// Folds the report of a sub-call (a split block or a batch item) into its
// parent's report `into`: phase timers, products, workspace and batch
// counters are summed, the peak and the fallback rung take the worse of the
// two, split_used is or-ed, and the last executed plan, schedule, strategy
// and algo (when set) win.  The one merge every multi-product path shares,
// so no field is dropped.
void merge_sub_report(GemmReport& into, const GemmReport& sub);

// Serializes `r` as one line of schema-stable JSON (schema id
// "strassen.gemm_report.v6"; see docs/OBSERVABILITY.md for the contract).
// Key set and nesting never change within a schema version -- consumers may
// index fields unconditionally.
std::string to_json(const GemmReport& r);
void write_json(std::ostream& os, const GemmReport& r);

}  // namespace strassen::obs
