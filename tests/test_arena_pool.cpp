// Tests for the per-thread scratch-arena cache (src/parallel/arena_pool).
//
// The cache exists so a worker's recursion temporaries are allocated once,
// first-touched on that worker, and reused across tasks.  Two contracts
// matter beyond plain reuse:
//
//   * the fault-injection gate sees every ACQUISITION, not every system
//     allocation -- a cached arena that would have been refused by the gate
//     must still throw bad_alloc, or OOM sweeps would silently skip the
//     pooled path;
//   * the cache is strictly thread-local (no locks, no sharing), so stats
//     observed on this thread are exact.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <thread>

#include "common/matrix.hpp"
#include "common/rng.hpp"
#include "core/modgemm.hpp"
#include "parallel/arena_pool.hpp"
#include "testing/fault_injection.hpp"

namespace strassen::parallel {
namespace {

namespace ft = ::strassen::testing;

TEST(ArenaPool, SecondAcquisitionReusesTheFirstArena) {
  purge_thread_arena_cache();
  const ArenaCacheStats before = thread_arena_cache_stats();
  ft::FaultInjector counter;  // kCountOnly: numbers gated acquisitions
  { ScratchArena a(1 << 16); }
  EXPECT_EQ(counter.allocations(), 1u);
  // The second acquisition is served from the cache -- the gate still sees
  // it (acquisition #2), but the hit counter proves no cold allocation ran.
  { ScratchArena b(1 << 16); }
  EXPECT_EQ(counter.allocations(), 2u);
  const ArenaCacheStats after = thread_arena_cache_stats();
  EXPECT_EQ(after.misses, before.misses + 1);
  EXPECT_EQ(after.hits, before.hits + 1);
  EXPECT_GE(after.cached_arenas, 1u);
  EXPECT_GE(after.cached_bytes, std::size_t{1} << 16);
}

TEST(ArenaPool, SmallerRequestFitsInCachedArena) {
  purge_thread_arena_cache();
  { ScratchArena a(1 << 16); }
  const ArenaCacheStats before = thread_arena_cache_stats();
  { ScratchArena b(1 << 12); }  // smaller than the cached capacity
  EXPECT_EQ(thread_arena_cache_stats().hits, before.hits + 1);
}

TEST(ArenaPool, ZeroByteRequestBypassesCacheAndGate) {
  purge_thread_arena_cache();
  const ArenaCacheStats before = thread_arena_cache_stats();
  ft::FaultInjector counter;
  { ScratchArena a(0); }
  EXPECT_EQ(counter.allocations(), 0u);
  const ArenaCacheStats after = thread_arena_cache_stats();
  EXPECT_EQ(after.hits, before.hits);
  EXPECT_EQ(after.misses, before.misses);
}

TEST(ArenaPool, CacheHitStillConsultsTheAllocationGate) {
  purge_thread_arena_cache();
  { ScratchArena warm(1 << 16); }  // populate the cache
  // The NEXT gated acquisition must fail -- even though no system allocation
  // would happen, the cached reuse path consults the same gate.
  ft::FaultInjector inject(ft::FaultMode::kFailOnce, 1);
  EXPECT_THROW(ScratchArena hit(1 << 16), std::bad_alloc);
  EXPECT_EQ(inject.failures(), 1u);
  // The refusal is not sticky: with the transient spike over, reuse works.
  ScratchArena again(1 << 16);
  EXPECT_GE(again.arena().capacity(), std::size_t{1} << 16);
}

TEST(ArenaPool, PurgeEmptiesTheCache) {
  { ScratchArena a(1 << 14); }
  ASSERT_GE(thread_arena_cache_stats().cached_arenas, 1u);
  purge_thread_arena_cache();
  const ArenaCacheStats after = thread_arena_cache_stats();
  EXPECT_EQ(after.cached_arenas, 0u);
  EXPECT_EQ(after.cached_bytes, 0u);
}

TEST(ArenaPool, CacheIsPerThread) {
  purge_thread_arena_cache();
  { ScratchArena a(1 << 16); }
  const ArenaCacheStats mine = thread_arena_cache_stats();
  ASSERT_GE(mine.cached_arenas, 1u);
  // A fresh thread starts with an empty cache and its own counters.
  ArenaCacheStats theirs{};
  std::thread peer([&theirs] {
    { ScratchArena b(1 << 10); }
    theirs = thread_arena_cache_stats();
    purge_thread_arena_cache();
  });
  peer.join();
  EXPECT_EQ(theirs.hits, 0u);
  EXPECT_EQ(theirs.misses, 1u);
  // The peer's activity did not disturb this thread's cache.
  EXPECT_EQ(thread_arena_cache_stats().cached_arenas, mine.cached_arenas);
  purge_thread_arena_cache();
}

// The serial driver's Morton rung draws its arena from this cache too: a
// repeated product of one shape is a cache hit on every call after the
// first.
TEST(ArenaPool, SerialMortonReusesTheThreadArena) {
  const int n = 200;
  Matrix<double> A(n, n), B(n, n), C(n, n);
  Rng rng(3);
  rng.fill_uniform(A.storage());
  rng.fill_uniform(B.storage());
  core::ModgemmOptions opt;
  opt.tiles.direct_threshold = 32;  // force a Strassen execution
  opt.strategy = layout::ExecStrategy::kMorton;
  const auto run = [&] {
    core::modgemm(Op::NoTrans, Op::NoTrans, n, n, n, 1.0, A.data(), n,
                  B.data(), n, 0.0, C.data(), n, opt);
  };
  run();
  const ArenaCacheStats first = thread_arena_cache_stats();
  for (std::uint64_t i = 1; i <= 3; ++i) {
    run();
    const ArenaCacheStats now = thread_arena_cache_stats();
    EXPECT_EQ(now.hits, first.hits + i);
    EXPECT_EQ(now.misses, first.misses);
  }
}

}  // namespace
}  // namespace strassen::parallel
