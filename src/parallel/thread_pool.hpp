// thread_pool.hpp -- work-stealing worker pool for task parallelism.
//
// The paper's future work asks for further performance on top of the
// memory-friendly algorithm; the natural next step on a multicore host is to
// run the seven independent Strassen-Winograd products concurrently (they
// only synchronize at the U-chain combination).  pmodgemm
// (parallel/pmodgemm.hpp) forks the 7 sub-products at enough top levels to
// give every thread ~8 tasks, so the pool schedules dozens to hundreds of
// coarse tasks per multiply and keeping them balanced matters.
//
// Scheduling: each worker owns a WorkDeque (work_deque.hpp).  A worker that
// spawns tasks pushes them to the BOTTOM of its own deque and pops from the
// bottom too, so it executes its own subtree depth-first and cache-hot.  An
// idle worker steals from the TOP of a victim's deque -- the oldest entry,
// i.e. the largest pending subtree -- taking half the deque per grab
// (steal-half), which amortizes synchronization and spreads whole subtrees
// across the machine in O(log tasks) steals.  Threads that are not pool
// workers submit into a shared injection queue that workers drain FIFO with
// the same stealing machinery.
//
// Environment knobs (read when a pool is constructed with threads <= 0 /
// at construction respectively):
//   STRASSEN_THREADS=N  pool width when the constructor argument is 0
//                       (otherwise hardware_concurrency)
//   STRASSEN_NUMA=1     pin worker i to CPU (i mod cpus).  Combined with the
//                       per-thread arena cache (arena_pool.hpp) this keeps a
//                       worker's scratch memory first-touched on -- and
//                       therefore resident at -- its own NUMA node.  Off by
//                       default; accepts 1/on/true/yes.
//
// Exception safety (unchanged contract from the FIFO pool this replaces):
// tasks may throw.  A TaskGroup captures the first exception any of its
// tasks raises and rethrows it from wait(), after every task in the group
// has finished -- so no task can outlive the state it captured by reference,
// and the pool remains fully usable afterwards.  Every task reaches the pool
// through a TaskGroup (directly or via parallel_for / fan_out), so every
// task has a join point.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "parallel/work_deque.hpp"

namespace strassen::parallel {

class ThreadPool {
 public:
  // Spawns `threads` workers (<= 0 = default_thread_count()).
  explicit ThreadPool(int threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  int thread_count() const { return static_cast<int>(workers_.size()); }

  // Pool width used when the constructor argument is <= 0: STRASSEN_THREADS
  // when set, otherwise hardware_concurrency (min 1).  A malformed
  // STRASSEN_THREADS value throws via parse_thread_count below -- it does
  // NOT silently fall back to hardware concurrency.
  static int default_thread_count();

  // Parses a STRASSEN_THREADS-style value: a decimal integer in [1, 4096]
  // with no trailing junk.  Anything else (negative, zero, non-numeric,
  // "8abc", out of range) throws std::invalid_argument naming the offending
  // value.
  static int parse_thread_count(const char* value);

  // Index of the pool worker running the current thread, or -1 when called
  // from outside any pool (observability maps -1 to per-thread slot 0).
  static int current_worker_index() noexcept;

  // Finds one task -- own deque, then injection queue, then stealing from
  // the other workers -- and runs it on the CALLING thread; returns false if
  // no task was found.  TaskGroup::wait() uses this to "help" instead of
  // blocking, which makes nested fork/join deadlock-free even on a
  // single-thread pool.
  bool try_run_one();

  // Gate consulted by the enqueue path (TaskGroup::run) before
  // a task is queued, for ALL pools; returning false makes the submission
  // throw std::bad_alloc -- exactly what an OOM building the task object
  // looks like to callers.  Test hook (mirrors
  // AlignedBuffer::set_allocation_gate) for exercising mid-submission
  // failure: TaskGroup must roll its pending count back and the serial
  // fallbacks must finish the work inline.  The gate runs concurrently from
  // pool workers, so it must be thread-safe.  Pass nullptr to restore the
  // default (always allow).
  using SubmitGate = bool (*)(void* user);
  static void set_submit_gate(SubmitGate gate, void* user) noexcept;

  // --- scheduler telemetry (monotonic since construction) -------------------
  // Tasks that migrated from the deque of the worker that spawned them to
  // another thread by a steal.  Injection-queue work is never a steal: it
  // has no owning worker, and it stays exempt even after a grab parks it on
  // some worker's deque and another worker takes it from there.
  std::uint64_t steal_count() const {
    return steals_.load(std::memory_order_relaxed);
  }
  // Tasks executed by the pool's scheduling machinery (workers and helping
  // external threads combined).
  std::uint64_t tasks_executed() const {
    return executed_.load(std::memory_order_relaxed);
  }
  // Whether STRASSEN_NUMA pinned the workers at construction.
  bool numa_pinned() const { return numa_pinned_; }

 private:
  friend class TaskGroup;  // uses enqueue() to ship its collector with tasks

  // The enqueue path behind TaskGroup::run: routes the task
  // to the calling worker's deque or the injection queue (tagging it
  // `injected` there) and wakes an idle worker.  May throw bad_alloc from
  // the deque push; the task is then not enqueued.
  void enqueue(PoolTask task);
  // Locates a runnable task for the calling thread (`me` = its worker index
  // in this pool, -1 for external helpers).  Steal-half batches park their
  // surplus on the thief's own deque; externals take single tasks.
  bool find_task(int me, PoolTask& out);
  // Runs one task with its collector installed.
  void execute(PoolTask& task);
  void worker_loop(int me);

  std::vector<std::unique_ptr<WorkDeque>> deques_;  // one per worker
  WorkDeque inject_;  // submissions from non-worker threads
  std::vector<std::thread> workers_;

  std::mutex mutex_;  // sleep coordination
  std::condition_variable cv_;
  std::atomic<bool> stopping_{false};
  std::atomic<int> idle_{0};  // workers currently in a timed wait

  std::atomic<std::uint64_t> steals_{0};
  std::atomic<std::uint64_t> executed_{0};
  bool numa_pinned_ = false;
};

// Fork/join helper: run() submits to the pool (or runs inline if no pool),
// wait() blocks until every task launched through this group finished.
class TaskGroup {
 public:
  // pool == nullptr makes run() execute inline -- callers can treat the
  // serial and parallel paths uniformly (including exception capture: an
  // inline task's exception also surfaces at wait(), not at run()).
  explicit TaskGroup(ThreadPool* pool) : pool_(pool) {}
  // Joins outstanding tasks.  An exception the caller never collected via
  // wait() is dropped here: destructors must not throw.
  ~TaskGroup() { join(); }

  TaskGroup(const TaskGroup&) = delete;
  TaskGroup& operator=(const TaskGroup&) = delete;

  // Launches a task through the group.  A failure to ENQUEUE (bad_alloc
  // building the pool task) throws here, with the group's pending count
  // rolled back -- wait()/the destructor still terminate, so callers can
  // catch and fall back to running the remaining work serially.
  void run(std::function<void()> task);
  // Blocks until every task launched through this group finished, then
  // rethrows the first exception any of them threw (if any).  The group and
  // the pool stay usable after a rethrow.
  void wait();

 private:
  // The join loop of wait(), without the rethrow.
  void join();

  ThreadPool* pool_;
  std::mutex mutex_;
  std::condition_variable cv_;
  std::size_t pending_ = 0;
  std::exception_ptr error_;  // first exception from any task in this group
};

// Splits [begin, end) into at most thread_count() + 1 chunks -- the pool's
// workers plus the caller, which runs chunks while it waits -- and applies
// fn(chunk_begin, chunk_end) in parallel.  Runs inline when pool is null or
// when the range is no larger than min_grain.  Rethrows the first exception
// a chunk raised, after all chunks finished.
void parallel_for(ThreadPool* pool, std::int64_t begin, std::int64_t end,
                  std::int64_t min_grain,
                  const std::function<void(std::int64_t, std::int64_t)>& fn);

// Runs fn(i) for every i in [0, n): one pool task per item, submitted in
// order, or all inline on the caller when pool is null.  Submitting a task
// (or joining) can throw std::bad_alloc part way; the items that never
// finished then run inline after the join, so every item runs to completion
// exactly once -- which keeps non-idempotent items (an alpha/beta write-back,
// a block accumulating into C) exact.  Returns whether any item had to be
// finished that way, so the caller can record the fallback and release its
// idle arena cache.  Other exceptions propagate after the join.
// Precondition: fn must not throw std::bad_alloc after it has written any
// output (absorb it, e.g. through the product ladder, or throw before the
// first write).  The recovery cannot tell a failed submission or join from
// an item that failed part way, and reruns both -- which would apply an
// item's update twice.
bool fan_out(ThreadPool* pool, std::size_t n,
             const std::function<void(std::size_t)>& fn);

}  // namespace strassen::parallel
