#include "parallel/thread_pool.hpp"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <new>
#include <utility>

#if defined(__linux__)
#include <pthread.h>
#include <sched.h>
#endif

#include "common/check.hpp"
#include "obs/collector.hpp"

namespace strassen::parallel {

namespace {
// Worker identity of the current thread: index within -- and owning pool of
// -- the worker running here; (-1, nullptr) outside any pool.  The index
// feeds per-thread task telemetry; the pool pointer routes an enqueue from a
// worker onto its own deque (and only for its own pool -- a worker
// enqueueing into a DIFFERENT pool goes through that pool's inject queue).
thread_local int tl_worker_index = -1;
thread_local ThreadPool* tl_worker_pool = nullptr;

// Installed submit gate and its user pointer, read under a mutex so an
// install never races a concurrent submission into a torn (gate, user) pair
// (same scheme as AlignedBuffer's allocation gate).  Unlike allocations --
// a handful per multiply -- submissions number in the thousands with deep
// spawning, so the common no-gate case is a single relaxed atomic load and
// the mutex is only touched while a gate is installed (tests).
std::atomic<bool> g_submit_gate_active{false};
std::mutex g_submit_gate_mutex;
ThreadPool::SubmitGate g_submit_gate = nullptr;
void* g_submit_gate_user = nullptr;

bool submit_gate_allows() {
  if (!g_submit_gate_active.load(std::memory_order_acquire)) return true;
  ThreadPool::SubmitGate gate;
  void* user;
  {
    std::lock_guard<std::mutex> lock(g_submit_gate_mutex);
    gate = g_submit_gate;
    user = g_submit_gate_user;
  }
  return gate == nullptr || gate(user);
}

bool env_flag_enabled(const char* name) {
  const char* v = std::getenv(name);
  if (v == nullptr) return false;
  return std::strcmp(v, "1") == 0 || std::strcmp(v, "on") == 0 ||
         std::strcmp(v, "true") == 0 || std::strcmp(v, "yes") == 0;
}

// Nanoseconds spent in observed tasks nested inside the currently-running
// observed task on THIS thread.  Help-first joins make nesting routine: a
// task blocked in TaskGroup::wait() runs other tasks inline, and its own
// elapsed time contains theirs.  Each task therefore reports EXCLUSIVE time
// (elapsed minus nested), so task_busy_seconds sums to real busy time
// instead of multiply counting every level of the spawn tree.
thread_local std::uint64_t tl_nested_nanos = 0;

// Observed TaskGroup frames currently on this thread's stack.  Nonzero means
// an enclosing task is timing itself, so even an UNOBSERVED nested task must
// charge its elapsed time upward -- otherwise an observed task that
// help-runs a task from an unobserved call would absorb that task's time
// into its own exclusive time and inflate task_busy_seconds.
thread_local int tl_observed_depth = 0;

// Runs `task`, timing its exclusive execution into `col` when an observed
// call is in flight.  Used by every TaskGroup execution path (inline and
// pooled -- the pool wrapper calls this with the submit-time collector
// re-installed).  A throwing task still charges its elapsed time to the
// enclosing task, but notes nothing itself (it did not complete).
void run_observed(const std::function<void()>& task, obs::Collector* col) {
  if (col == nullptr) {
    if (tl_observed_depth == 0) {
      task();
      return;
    }
    // Unobserved task inside an observed frame: note nothing, but run the
    // same save/zero/restore dance so observed tasks nested in THIS one are
    // not double counted into the enclosing frame's nested time.
    const std::uint64_t saved = tl_nested_nanos;
    tl_nested_nanos = 0;
    const std::uint64_t t0 = obs::now_nanos();
    try {
      task();
    } catch (...) {
      tl_nested_nanos = saved + (obs::now_nanos() - t0);
      throw;
    }
    tl_nested_nanos = saved + (obs::now_nanos() - t0);
    return;
  }
  obs::ScopedCollector install(col);
  const std::uint64_t saved = tl_nested_nanos;
  tl_nested_nanos = 0;
  ++tl_observed_depth;
  const std::uint64_t t0 = obs::now_nanos();
  try {
    task();
  } catch (...) {
    --tl_observed_depth;
    tl_nested_nanos = saved + (obs::now_nanos() - t0);
    throw;
  }
  --tl_observed_depth;
  const std::uint64_t elapsed = obs::now_nanos() - t0;
  const std::uint64_t nested = std::min(tl_nested_nanos, elapsed);
  tl_nested_nanos = saved + elapsed;
  col->note_task(ThreadPool::current_worker_index(), elapsed - nested);
}
}  // namespace

int ThreadPool::current_worker_index() noexcept { return tl_worker_index; }

int ThreadPool::parse_thread_count(const char* value) {
  STRASSEN_REQUIRE(value != nullptr && *value != '\0',
                   "STRASSEN_THREADS: empty value");
  char* end = nullptr;
  errno = 0;
  const long v = std::strtol(value, &end, 10);
  STRASSEN_REQUIRE(end != value && *end == '\0',
                   "STRASSEN_THREADS: not an integer: \"" << value << "\"");
  STRASSEN_REQUIRE(errno != ERANGE && v >= 1 && v <= 4096,
                   "STRASSEN_THREADS: out of range [1, 4096]: \"" << value
                                                                  << "\"");
  return static_cast<int>(v);
}

int ThreadPool::default_thread_count() {
  if (const char* env = std::getenv("STRASSEN_THREADS")) {
    // Set but malformed is a loud error: a typo'd width must not silently
    // run at hardware concurrency.  Empty means unset.
    if (*env != '\0') return parse_thread_count(env);
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw > 0 ? static_cast<int>(hw) : 1;
}

ThreadPool::ThreadPool(int threads) {
  if (threads <= 0) threads = default_thread_count();
  deques_.reserve(static_cast<std::size_t>(threads));
  for (int i = 0; i < threads; ++i)
    deques_.push_back(std::make_unique<WorkDeque>());
  const bool pin = env_flag_enabled("STRASSEN_NUMA");
  workers_.reserve(static_cast<std::size_t>(threads));
  for (int i = 0; i < threads; ++i) {
    workers_.emplace_back([this, i] {
      tl_worker_index = i;
      tl_worker_pool = this;
      worker_loop(i);
    });
#if defined(__linux__)
    if (pin) {
      // Round-robin CPU pinning.  With first-touch allocation and the
      // per-thread arena cache, this binds each worker's scratch memory to
      // its own NUMA node for the pool's lifetime.  Best effort: pinning may
      // fail under restrictive cpusets, in which case the scheduler places
      // the thread as usual.
      const unsigned cpus = std::max(1u, std::thread::hardware_concurrency());
      cpu_set_t set;
      CPU_ZERO(&set);
      CPU_SET(static_cast<unsigned>(i) % cpus, &set);
      if (pthread_setaffinity_np(workers_.back().native_handle(), sizeof(set),
                                 &set) == 0)
        numa_pinned_ = true;
    }
#else
    (void)pin;
#endif
  }
}

ThreadPool::~ThreadPool() {
  stopping_.store(true, std::memory_order_release);
  cv_.notify_all();
  for (auto& w : workers_) w.join();
}

void ThreadPool::set_submit_gate(SubmitGate gate, void* user) noexcept {
  {
    std::lock_guard<std::mutex> lock(g_submit_gate_mutex);
    g_submit_gate = gate;
    g_submit_gate_user = user;
  }
  // Published AFTER the pair is consistent; a concurrent submission that
  // still sees the flag set after an uninstall reads (nullptr, _) under the
  // mutex and allows.
  g_submit_gate_active.store(gate != nullptr, std::memory_order_release);
}

void ThreadPool::enqueue(PoolTask t) {
  if (!submit_gate_allows()) throw std::bad_alloc();
  if (tl_worker_pool == this && tl_worker_index >= 0 &&
      tl_worker_index < static_cast<int>(deques_.size())) {
    deques_[static_cast<std::size_t>(tl_worker_index)]->push_bottom(
        std::move(t));
  } else {
    t.injected = true;
    inject_.push_bottom(std::move(t));
  }
  // Lockless peek: a worker between its idle_ increment and the timed wait
  // can miss this notify, but the 1ms bounded wait covers that race.
  if (idle_.load(std::memory_order_relaxed) > 0) cv_.notify_one();
}

bool ThreadPool::find_task(int me, PoolTask& out) {
  const int n = static_cast<int>(deques_.size());
  if (me >= 0 && me < n) {
    // 1. Own deque, newest first: depth-first on our own subtree.
    if (deques_[static_cast<std::size_t>(me)]->pop_bottom(out)) return true;
    // 2. Injection queue, then victims round-robin from our right neighbor;
    //    steal-half moves a batch, we run its oldest entry and park the rest
    //    on our own deque (where other thieves can sub-steal them).
    std::vector<PoolTask> batch;
    for (int i = 0; i <= n; ++i) {
      WorkDeque& victim =
          i == 0 ? inject_ : *deques_[static_cast<std::size_t>((me + i) % n)];
      if (i != 0 && (me + i) % n == me) continue;
      const std::size_t got = victim.steal_top_half(batch);
      if (got == 0) continue;
      if (i != 0) {
        // A real worker-to-worker migration.  Injection-queue work parked
        // on the victim's deque by an earlier grab keeps its exemption: it
        // never had an owning worker, so moving it again is not a steal.
        std::size_t stolen = 0;
        for (PoolTask& pt : batch) {
          if (pt.injected) continue;
          ++stolen;
          if (pt.col != nullptr) pt.col->note_steal();
        }
        if (stolen > 0) steals_.fetch_add(stolen, std::memory_order_relaxed);
      }
      out = std::move(batch.front());
      for (std::size_t j = 1; j < batch.size(); ++j)
        deques_[static_cast<std::size_t>(me)]->push_bottom(
            std::move(batch[j]));
      if (batch.size() > 1 && idle_.load(std::memory_order_relaxed) > 0)
        cv_.notify_one();
      return true;
    }
    return false;
  }
  // External helper (TaskGroup::wait on a non-worker thread): no deque to
  // park surplus on, so take single tasks -- injection queue first.
  if (inject_.steal_top(out)) return true;
  for (int v = 0; v < n; ++v) {
    if (deques_[static_cast<std::size_t>(v)]->steal_top(out)) {
      if (!out.injected) {
        steals_.fetch_add(1, std::memory_order_relaxed);
        if (out.col != nullptr) out.col->note_steal();
      }
      return true;
    }
  }
  return false;
}

// Runs one scheduled task on the current thread.  Re-installs the collector
// captured at enqueue so kernel hooks inside the task attribute to the call
// that spawned it.  Task timing/counting happens INSIDE the task body
// (TaskGroup wraps with run_observed), not here: the group's pending count
// only drops after the note lands, so a collector is never touched after
// its call returned.  The TaskGroup wrapper catches its task's exception
// for wait(), so nothing escapes here.
void ThreadPool::execute(PoolTask& task) {
  executed_.fetch_add(1, std::memory_order_relaxed);
  obs::ScopedCollector install(task.col);
  task.fn();
}

bool ThreadPool::try_run_one() {
  const int me = tl_worker_pool == this ? tl_worker_index : -1;
  PoolTask task;
  if (!find_task(me, task)) return false;
  execute(task);
  return true;
}

void ThreadPool::worker_loop(int me) {
  for (;;) {
    PoolTask task;
    if (find_task(me, task)) {
      execute(task);
      continue;
    }
    if (stopping_.load(std::memory_order_acquire)) return;
    std::unique_lock<std::mutex> lock(mutex_);
    idle_.fetch_add(1, std::memory_order_relaxed);
    // Timed wait: an enqueue racing our idle_ increment may skip the
    // notify, so never sleep unboundedly on the condition alone.
    cv_.wait_for(lock, std::chrono::milliseconds(1));
    idle_.fetch_sub(1, std::memory_order_relaxed);
  }
}

void TaskGroup::run(std::function<void()> task) {
  if (pool_ == nullptr) {
    // Inline execution still defers the exception to wait(), so callers see
    // one surfacing point regardless of whether a pool is attached.
    try {
      run_observed(task, obs::current());
    } catch (...) {
      std::lock_guard<std::mutex> lock(mutex_);
      if (!error_) error_ = std::current_exception();
    }
    return;
  }
  {
    std::lock_guard<std::mutex> lock(mutex_);
    ++pending_;
  }
  // The pool re-installs the collector captured here before running this
  // wrapper, so run_observed sees it via obs::current() and notes the task
  // BEFORE pending_ drops -- a joined group therefore never leaves a note
  // racing the caller's report finalization.  The collector is safe to ship
  // because wait()/~TaskGroup keep the call -- and its collector -- alive
  // until every task finished.
  try {
    pool_->enqueue(PoolTask{[this, task = std::move(task)] {
                              std::exception_ptr err;
                              try {
                                run_observed(task, obs::current());
                              } catch (...) {
                                err = std::current_exception();
                              }
                              std::lock_guard<std::mutex> lock(mutex_);
                              if (err && !error_) error_ = err;
                              --pending_;
                              if (pending_ == 0) cv_.notify_all();
                            },
                            obs::current(), false});
  } catch (...) {
    // bad_alloc building the std::function or pushing onto the deque: the
    // task was never enqueued, so roll the count back or join()/~TaskGroup
    // would spin forever -- deadlocking the very serial fallbacks (fan_out,
    // the forked Morton rung) that catch this rethrow to finish the work
    // inline.
    std::lock_guard<std::mutex> lock(mutex_);
    --pending_;
    if (pending_ == 0) cv_.notify_all();
    throw;
  }
}

void TaskGroup::join() {
  for (;;) {
    // Help-first: drain runnable work on this thread before blocking, so a
    // worker waiting on its children never starves them of a thread.  With
    // work stealing this also lets the waiting thread pick up its own
    // children even after a thief moved them.
    if (pool_ != nullptr) {
      while (pool_->try_run_one()) {
      }
    }
    std::unique_lock<std::mutex> lock(mutex_);
    if (pending_ == 0) return;
    // Our tasks may be in flight on other workers (nothing runnable here,
    // pending nonzero); bounded wait covers the race with new arrivals.
    cv_.wait_for(lock, std::chrono::milliseconds(1),
                 [this] { return pending_ == 0; });
    if (pending_ == 0) return;
  }
}

void TaskGroup::wait() {
  join();
  std::exception_ptr err;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    err = std::exchange(error_, nullptr);
  }
  if (err) std::rethrow_exception(err);
}

void parallel_for(ThreadPool* pool, std::int64_t begin, std::int64_t end,
                  std::int64_t min_grain,
                  const std::function<void(std::int64_t, std::int64_t)>& fn) {
  STRASSEN_REQUIRE(min_grain >= 1, "grain must be positive: " << min_grain);
  const std::int64_t count = end - begin;
  if (count <= 0) return;
  // The caller helps run the chunks while it waits, so a pool of w workers
  // runs w + 1 chunks at once.
  const int width = pool ? pool->thread_count() + 1 : 1;
  if (width <= 1 || count <= min_grain) {
    fn(begin, end);
    return;
  }
  const std::int64_t chunks =
      std::min<std::int64_t>(width, (count + min_grain - 1) / min_grain);
  const std::int64_t per = (count + chunks - 1) / chunks;
  TaskGroup group(pool);
  for (std::int64_t c = begin; c < end; c += per) {
    const std::int64_t hi = std::min(end, c + per);
    group.run([&fn, c, hi] { fn(c, hi); });
  }
  group.wait();
}

bool fan_out(ThreadPool* pool, std::size_t n,
             const std::function<void(std::size_t)>& fn) {
  if (pool == nullptr) {
    for (std::size_t i = 0; i < n; ++i) fn(i);
    return false;
  }
  // Allocated before the first submission: the completion flags are the
  // recovery state of the catch below.
  const std::unique_ptr<std::atomic<bool>[]> done(new std::atomic<bool>[n]());
  try {
    TaskGroup group(pool);
    for (std::size_t i = 0; i < n; ++i)
      group.run([&fn, &done, i] {
        fn(i);
        done[i].store(true, std::memory_order_release);
      });
    group.wait();
    return false;
  } catch (const std::bad_alloc&) {
    // ~TaskGroup joined everything in flight, so the flags are final and no
    // item is mid-run.
    for (std::size_t i = 0; i < n; ++i)
      if (!done[i].load(std::memory_order_acquire)) fn(i);
    return true;
  }
}

}  // namespace strassen::parallel
