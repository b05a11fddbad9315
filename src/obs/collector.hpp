// obs/collector.hpp -- the hot-path side of the observability subsystem.
//
// A Collector is a block of relaxed atomic counters that the library's
// kernels feed while a report-enabled call is in flight: leaf kernel
// invocations and their time, element-wise quadrant kernel invocations,
// workspace allocations noted by the parallel driver, and per-thread task
// accounting from the thread pool.
//
// Activation is a thread-local pointer: the production drivers install a
// Collector for the duration of one reported call (obs::ScopedCollector) and
// the thread pool re-installs the submitting thread's collector inside each
// task, so counts from pool workers land in the same block.  When no report
// was requested the pointer is null and every hook is a single thread-local
// load and a branch -- no clock reads, no atomics, no allocations.
//
// This header is deliberately include-light (it is pulled in by the leaf
// kernel headers, which everything compiles against): <atomic>, <chrono> and
// the integer headers only, no library types.
#pragma once

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>

namespace strassen::obs {

// Monotonic nanosecond clock for kernel/task timing.  Only called on the
// enabled path.
inline std::uint64_t now_nanos() noexcept {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

// Shared counter block for one observed call.  All counters are relaxed
// atomics: pool workers increment concurrently, and the only reader
// (CallScope finalization) runs after every task joined.
struct Collector {
  // Slot 0 is the calling (non-pool) thread; pool worker i uses slot i + 1.
  // Pools wider than the table fold their overflow into the last slot.
  static constexpr int kMaxThreadSlots = 65;

  // --- kernel telemetry ---
  std::atomic<std::uint64_t> leaf_calls{0};
  std::atomic<std::uint64_t> leaf_nanos{0};
  std::atomic<std::uint64_t> elementwise_calls{0};

  // --- workspace accounting (parallel driver; the serial driver writes its
  // --- single arena's numbers into the report directly) ---
  std::atomic<std::uint64_t> workspace_noted_bytes{0};
  std::atomic<std::uint64_t> workspace_allocations{0};

  // --- parallel stats ---
  std::atomic<std::uint64_t> tasks_executed{0};
  std::atomic<std::uint64_t> task_nanos{0};
  std::atomic<std::uint64_t> steals{0};  // tasks migrated between workers
  std::atomic<std::uint64_t> per_thread_tasks[kMaxThreadSlots]{};

  void note_leaf(std::uint64_t nanos) noexcept {
    leaf_calls.fetch_add(1, std::memory_order_relaxed);
    leaf_nanos.fetch_add(nanos, std::memory_order_relaxed);
  }
  void note_elementwise() noexcept {
    elementwise_calls.fetch_add(1, std::memory_order_relaxed);
  }
  void note_workspace(std::size_t bytes) noexcept {
    workspace_noted_bytes.fetch_add(bytes, std::memory_order_relaxed);
    workspace_allocations.fetch_add(1, std::memory_order_relaxed);
  }
  // One task of this call migrated from the deque of the worker that spawned
  // it to another thread by a steal.  Called by the work-stealing scheduler
  // at steal time (thief thread, collector not necessarily installed there --
  // the pointer travels with the task).
  void note_steal() noexcept {
    steals.fetch_add(1, std::memory_order_relaxed);
  }
  // worker_index: -1 for the calling thread, otherwise the pool worker index.
  void note_task(int worker_index, std::uint64_t nanos) noexcept {
    tasks_executed.fetch_add(1, std::memory_order_relaxed);
    task_nanos.fetch_add(nanos, std::memory_order_relaxed);
    int slot = worker_index + 1;
    if (slot < 0) slot = 0;
    if (slot >= kMaxThreadSlots) slot = kMaxThreadSlots - 1;
    per_thread_tasks[slot].fetch_add(1, std::memory_order_relaxed);
  }
};

namespace detail {
// The active collector of the current thread (null = observability off).
// extern so the hot-path check inlines to one TLS load.
extern thread_local Collector* tl_collector;
}  // namespace detail

// Collector observing the current thread, or null when no reported call is
// in flight here.  THE hot-path check: every kernel hook starts with this.
inline Collector* current() noexcept { return detail::tl_collector; }

// RAII installation of a collector on the current thread, restoring the
// previous one on destruction (nesting = inner call contributes to the
// outer collector).
class ScopedCollector {
 public:
  explicit ScopedCollector(Collector* c) noexcept
      : prev_(detail::tl_collector) {
    detail::tl_collector = c;
  }
  ~ScopedCollector() { detail::tl_collector = prev_; }
  ScopedCollector(const ScopedCollector&) = delete;
  ScopedCollector& operator=(const ScopedCollector&) = delete;

 private:
  Collector* prev_;
};

// Times one leaf product into the current collector; a no-op without one.
// Used by the production gemm_leaf dispatch.
class LeafTimer {
 public:
  LeafTimer() noexcept
      : c_(current()), t0_(c_ != nullptr ? now_nanos() : 0) {}
  ~LeafTimer() {
    if (c_ != nullptr) c_->note_leaf(now_nanos() - t0_);
  }
  LeafTimer(const LeafTimer&) = delete;
  LeafTimer& operator=(const LeafTimer&) = delete;

 private:
  Collector* c_;
  std::uint64_t t0_;
};

}  // namespace strassen::obs
