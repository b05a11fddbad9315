// Unit tests for the thread pool and fork/join primitives (src/parallel).
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <exception>
#include <numeric>
#include <stdexcept>
#include <vector>

#include "parallel/thread_pool.hpp"

namespace strassen::parallel {
namespace {

TEST(ThreadPool, RunsSubmittedTasks) {
  ThreadPool pool(2);
  std::atomic<int> count{0};
  TaskGroup group(&pool);
  for (int i = 0; i < 100; ++i) group.run([&] { ++count; });
  group.wait();
  EXPECT_EQ(count.load(), 100);
}

TEST(ThreadPool, SingleThreadPoolStillCompletes) {
  ThreadPool pool(1);
  std::atomic<int> count{0};
  TaskGroup group(&pool);
  for (int i = 0; i < 20; ++i) group.run([&] { ++count; });
  group.wait();
  EXPECT_EQ(count.load(), 20);
}

TEST(ThreadPool, NullPoolRunsInline) {
  std::atomic<int> count{0};
  TaskGroup group(nullptr);
  group.run([&] { ++count; });
  EXPECT_EQ(count.load(), 1);  // already done: inline execution
  group.wait();
}

TEST(ThreadPool, NestedForkJoinDoesNotDeadlock) {
  // Each outer task forks inner tasks and waits -- the pattern of
  // spawn_levels >= 2.  Must complete even on a 1-thread pool thanks to the
  // help-first wait.
  ThreadPool pool(1);
  std::atomic<int> leaves{0};
  TaskGroup outer(&pool);
  for (int i = 0; i < 7; ++i) {
    outer.run([&] {
      TaskGroup inner(&pool);
      for (int j = 0; j < 7; ++j) inner.run([&] { ++leaves; });
      inner.wait();
    });
  }
  outer.wait();
  EXPECT_EQ(leaves.load(), 49);
}

TEST(ThreadPool, TryRunOneDrainsQueue) {
  ThreadPool pool(1);
  // Saturate the single worker with a task that spins until released, then
  // queue more work and drain it from this thread.  Wait for the worker to
  // actually START the blocker first -- otherwise try_run_one() below could
  // pop the blocker itself and spin this thread forever.
  std::atomic<bool> started{false};
  std::atomic<bool> release{false};
  std::atomic<int> count{0};
  TaskGroup group(&pool);
  group.run([&] {
    started = true;
    while (!release.load()) std::this_thread::yield();
  });
  while (!started.load()) std::this_thread::yield();
  for (int i = 0; i < 5; ++i) group.run([&] { ++count; });
  while (pool.try_run_one()) {
  }
  EXPECT_EQ(count.load(), 5);
  release = true;
  group.wait();
}

TEST(ThreadPool, DestructorJoinsCleanly) {
  std::atomic<int> count{0};
  {
    ThreadPool pool(3);
    TaskGroup group(&pool);
    for (int i = 0; i < 50; ++i) group.run([&] { ++count; });
    group.wait();
  }  // pool destroyed here
  EXPECT_EQ(count.load(), 50);
}

TEST(ThreadPool, ZeroMeansHardwareConcurrency) {
  ThreadPool pool(0);
  EXPECT_GE(pool.thread_count(), 1);
}

TEST(ParallelFor, CoversRangeExactlyOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(1000);
  parallel_for(&pool, 0, 1000, 16, [&](std::int64_t lo, std::int64_t hi) {
    for (std::int64_t i = lo; i < hi; ++i) ++hits[static_cast<size_t>(i)];
  });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ParallelFor, EmptyAndTinyRanges) {
  ThreadPool pool(2);
  int calls = 0;
  parallel_for(&pool, 5, 5, 1, [&](std::int64_t, std::int64_t) { ++calls; });
  EXPECT_EQ(calls, 0);
  // A below-grain range runs inline as one chunk.
  std::atomic<int> sum{0};
  parallel_for(&pool, 0, 4, 100, [&](std::int64_t lo, std::int64_t hi) {
    sum += static_cast<int>(hi - lo);
  });
  EXPECT_EQ(sum.load(), 4);
}

TEST(ParallelFor, OneWorkerPoolSplitsWithTheCaller) {
  // The caller runs chunks while it waits, so a 1-worker pool is two-wide:
  // a range of at least twice the grain runs as at least two chunks.
  ThreadPool pool(1);
  std::vector<std::atomic<int>> hits(64);
  std::atomic<int> chunks{0};
  parallel_for(&pool, 0, 64, 16, [&](std::int64_t lo, std::int64_t hi) {
    ++chunks;
    for (std::int64_t i = lo; i < hi; ++i) ++hits[static_cast<size_t>(i)];
  });
  EXPECT_GE(chunks.load(), 2);
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ParallelFor, NullPoolIsSerial) {
  std::vector<int> hits(64, 0);
  parallel_for(nullptr, 0, 64, 4, [&](std::int64_t lo, std::int64_t hi) {
    for (std::int64_t i = lo; i < hi; ++i) ++hits[static_cast<size_t>(i)];
  });
  EXPECT_EQ(std::accumulate(hits.begin(), hits.end(), 0), 64);
}

TEST(ParallelFor, RejectsBadGrain) {
  EXPECT_THROW(
      parallel_for(nullptr, 0, 10, 0, [](std::int64_t, std::int64_t) {}),
      std::invalid_argument);
}

TEST(ThreadPoolErrors, TaskExceptionSurfacesAtWait) {
  ThreadPool pool(2);
  TaskGroup group(&pool);
  group.run([] { throw std::runtime_error("task failed"); });
  try {
    group.wait();
    FAIL() << "wait() must rethrow the task's exception";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "task failed");
  }
}

TEST(ThreadPoolErrors, AllSiblingsFinishBeforeRethrow) {
  // wait() may only rethrow after every task in the group has completed --
  // otherwise a task could still be running while the caller unwinds the
  // state it references.
  ThreadPool pool(4);
  std::atomic<int> done{0};
  TaskGroup group(&pool);
  for (int i = 0; i < 32; ++i) {
    group.run([&done, i] {
      if (i == 0) throw std::runtime_error("early failure");
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
      ++done;
    });
  }
  EXPECT_THROW(group.wait(), std::runtime_error);
  EXPECT_EQ(done.load(), 31);
}

TEST(ThreadPoolErrors, PoolAndGroupUsableAfterException) {
  ThreadPool pool(2);
  {
    TaskGroup group(&pool);
    group.run([] { throw std::runtime_error("boom"); });
    EXPECT_THROW(group.wait(), std::runtime_error);
    group.wait();  // the error was collected; a second wait is clean
  }
  std::atomic<int> count{0};
  TaskGroup again(&pool);
  for (int i = 0; i < 50; ++i) again.run([&count] { ++count; });
  again.wait();
  EXPECT_EQ(count.load(), 50);
}

TEST(ThreadPoolErrors, OnlyFirstExceptionIsRethrown) {
  ThreadPool pool(2);
  TaskGroup group(&pool);
  for (int i = 0; i < 5; ++i)
    group.run([] { throw std::runtime_error("one of many"); });
  EXPECT_THROW(group.wait(), std::runtime_error);
  group.wait();  // the other four were dropped, not queued up
}

TEST(ThreadPoolErrors, InlineGroupDefersExceptionToWait) {
  // Null-pool groups run tasks inline but must keep the same contract:
  // run() returns normally, wait() rethrows.
  TaskGroup group(nullptr);
  group.run([] { throw std::logic_error("inline"); });
  EXPECT_THROW(group.wait(), std::logic_error);
}

TEST(ThreadPoolErrors, DestructorDropsUncollectedException) {
  ThreadPool pool(2);
  {
    TaskGroup group(&pool);
    group.run([] { throw std::runtime_error("never collected"); });
  }  // ~TaskGroup joins and swallows -- must not terminate the process
  SUCCEED();
}

// RAII submit-gate install so a failing EXPECT cannot leak a gate into the
// next test.
struct ScopedSubmitGate {
  explicit ScopedSubmitGate(ThreadPool::SubmitGate gate, void* user) {
    ThreadPool::set_submit_gate(gate, user);
  }
  ~ScopedSubmitGate() { ThreadPool::set_submit_gate(nullptr, nullptr); }
};

bool deny_all_submissions(void*) { return false; }

TEST(ThreadPoolErrors, FailedSubmissionRollsBackPendingCount) {
  // A submission that throws (OOM building the task object) must leave the
  // group's pending count untouched: wait()/~TaskGroup would otherwise spin
  // forever, deadlocking the serial fallbacks that catch the rethrow to
  // finish the work inline.
  ThreadPool pool(2);
  TaskGroup group(&pool);
  std::atomic<int> ran{0};
  group.run([&ran] { ++ran; });
  {
    ScopedSubmitGate deny(&deny_all_submissions, nullptr);
    EXPECT_THROW(group.run([&ran] { ++ran; }), std::bad_alloc);
  }
  group.wait();  // must terminate, and only the first task ran
  EXPECT_EQ(ran.load(), 1);
  // Group and pool both stay usable after the failure.
  group.run([&ran] { ++ran; });
  group.wait();
  EXPECT_EQ(ran.load(), 2);
}

TEST(ThreadPoolSteals, BlockedOwnerForcesASteal) {
  // Deterministic steal: the task below runs on one of the two workers,
  // pushes children onto that worker's OWN deque, then holds the worker
  // hostage until a child has run.  The only agent that can run a child is
  // the other worker -- and its only source is stealing from the hostage's
  // deque (the injection queue is empty) -- so steal_count must advance.
  ThreadPool pool(2);
  std::atomic<int> ran{0};
  std::atomic<bool> owner_started{false};
  TaskGroup group(&pool);
  group.run([&] {
    owner_started = true;
    TaskGroup inner(&pool);
    for (int i = 0; i < 8; ++i) inner.run([&ran] { ++ran; });
    while (ran.load() == 0) std::this_thread::yield();
    inner.wait();
  });
  // Spin (don't help) until a WORKER owns the outer task -- group.wait()'s
  // help-first draining would otherwise run it on this thread, where the
  // children go through the injection queue instead of a worker deque.
  while (!owner_started.load()) std::this_thread::yield();
  group.wait();
  EXPECT_EQ(ran.load(), 8);
  EXPECT_GE(pool.steal_count(), 1u);
  EXPECT_GE(pool.tasks_executed(), 9u);  // the outer task + its children
}

TEST(ThreadPoolStress, OversubscribedNestedForkJoin) {
  // More threads than this host has cores (CI runs this leg under TSan with
  // STRASSEN_THREADS > nproc on top): three levels of nested fork/join keep
  // steal-half, sub-stealing of parked batches, and help-first waits all
  // active at once.
  ThreadPool pool(8);
  std::atomic<long> sum{0};
  TaskGroup outer(&pool);
  for (int i = 0; i < 16; ++i) {
    outer.run([&] {
      TaskGroup mid(&pool);
      for (int j = 0; j < 8; ++j) {
        mid.run([&] {
          TaskGroup inner(&pool);
          for (int l = 0; l < 4; ++l) inner.run([&] { ++sum; });
          inner.wait();
        });
      }
      mid.wait();
    });
  }
  outer.wait();
  EXPECT_EQ(sum.load(), 16 * 8 * 4);
}

TEST(ThreadPoolEnv, StrassenThreadsControlsDefaultWidth) {
  ASSERT_EQ(setenv("STRASSEN_THREADS", "3", 1), 0);
  EXPECT_EQ(ThreadPool::default_thread_count(), 3);
  {
    ThreadPool pool(0);
    EXPECT_EQ(pool.thread_count(), 3);
  }
  // Unparseable or out-of-range values are rejected loudly -- a typo'd
  // width must not silently run at hardware concurrency.
  ASSERT_EQ(setenv("STRASSEN_THREADS", "not-a-number", 1), 0);
  EXPECT_THROW(ThreadPool::default_thread_count(), std::invalid_argument);
  ASSERT_EQ(setenv("STRASSEN_THREADS", "-2", 1), 0);
  EXPECT_THROW(ThreadPool::default_thread_count(), std::invalid_argument);
  // Empty means unset.
  ASSERT_EQ(setenv("STRASSEN_THREADS", "", 1), 0);
  EXPECT_GE(ThreadPool::default_thread_count(), 1);
  unsetenv("STRASSEN_THREADS");
}

TEST(ThreadPoolEnv, NumaPinningIsBestEffortAndHarmless) {
  // Pinning may fail under restrictive cpusets; the contract is only that
  // the pool still works and the flag reflects what actually happened.
  ASSERT_EQ(setenv("STRASSEN_NUMA", "1", 1), 0);
  {
    ThreadPool pool(2);
    std::atomic<int> n{0};
    TaskGroup group(&pool);
    for (int i = 0; i < 10; ++i) group.run([&] { ++n; });
    group.wait();
    EXPECT_EQ(n.load(), 10);
    (void)pool.numa_pinned();
  }
  unsetenv("STRASSEN_NUMA");
  ThreadPool unpinned(2);
  EXPECT_FALSE(unpinned.numa_pinned());
}

TEST(ParallelForErrors, ChunkExceptionPropagatesPoolSurvives) {
  ThreadPool pool(4);
  EXPECT_THROW(parallel_for(&pool, 0, 1000, 8,
                            [](std::int64_t lo, std::int64_t) {
                              if (lo == 0) throw std::runtime_error("chunk");
                            }),
               std::runtime_error);
  std::atomic<int> covered{0};
  parallel_for(&pool, 0, 100, 8, [&](std::int64_t lo, std::int64_t hi) {
    covered += static_cast<int>(hi - lo);
  });
  EXPECT_EQ(covered.load(), 100);
}

}  // namespace
}  // namespace strassen::parallel
