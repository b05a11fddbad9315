// Tests for plan memoization and the persistent autotune cache
// (src/tune/plan_cache).
//
// PlanCache: lock-free-read correctness (concurrent readers during inserts),
// key discrimination, stats accounting, full-table rejection.  Tune cache:
// file round trip, loud rejection of corrupt/truncated/foreign files,
// autotune_cached's cold -> warm -> memo source transitions.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "tune/plan_cache.hpp"

namespace strassen::tune {
namespace {

PlanKey key_for(int m, int k, int n) {
  PlanKey key;
  key.m = m;
  key.k = k;
  key.n = n;
  key.elem_size = sizeof(double);
  const layout::TileOptions tiles;
  key.min_tile = tiles.min_tile;
  key.max_tile = tiles.max_tile;
  key.preferred_tile = tiles.preferred_tile;
  key.direct_threshold = tiles.direct_threshold;
  key.packfused_max_depth = tiles.packfused_max_depth;
  return key;
}

CachedPlan plan_for(int m, int k, int n) {
  CachedPlan value;
  value.plan = layout::plan_gemm(m, k, n, layout::TileOptions{});
  value.planned_depth = value.plan.depth;
  return value;
}

TEST(PlanCache, InsertThenLookupRoundTrips) {
  PlanCache cache;
  const PlanKey key = key_for(256, 256, 256);
  EXPECT_EQ(cache.lookup(key), nullptr);
  const CachedPlan value = plan_for(256, 256, 256);
  const CachedPlan* stored = cache.insert(key, value);
  ASSERT_NE(stored, nullptr);
  const CachedPlan* found = cache.lookup(key);
  ASSERT_NE(found, nullptr);
  EXPECT_EQ(found, stored);
  EXPECT_EQ(found->plan.depth, value.plan.depth);
  EXPECT_EQ(found->plan.m.tile, value.plan.m.tile);
  EXPECT_EQ(found->planned_depth, value.planned_depth);

  const PlanCache::Stats stats = cache.stats();
  EXPECT_EQ(stats.entries, 1u);
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.rejected, 0u);
}

TEST(PlanCache, DiscriminatesEveryKeyField) {
  PlanCache cache;
  const PlanKey base = key_for(256, 256, 256);
  cache.insert(base, plan_for(256, 256, 256));
  ASSERT_NE(cache.lookup(base), nullptr);

  // Mutating any single field must miss: the cached plan is exact for its
  // planning inputs, never a heuristic for nearby ones.
  std::vector<PlanKey> variants(13, base);
  variants[0].m = 257;
  variants[1].k = 257;
  variants[2].n = 257;
  variants[3].opa = 1;
  variants[4].opb = 1;
  variants[5].schedule = 1;
  variants[6].strategy = 1;
  variants[7].max_workspace_bytes = 1 << 20;
  variants[8].min_tile = 8;
  variants[9].preferred_tile = base.preferred_tile / 2;
  variants[10].direct_threshold = 128;
  variants[11].packfused_max_depth = 0;
  variants[12].beta_zero = !base.beta_zero;
  for (std::size_t i = 0; i < variants.size(); ++i)
    EXPECT_EQ(cache.lookup(variants[i]), nullptr) << "variant " << i;
}

TEST(PlanCache, FirstInsertWinsForEqualKeys) {
  PlanCache cache;
  const PlanKey key = key_for(128, 128, 128);
  const CachedPlan* first = cache.insert(key, plan_for(128, 128, 128));
  const CachedPlan* second = cache.insert(key, plan_for(128, 128, 128));
  EXPECT_EQ(first, second);
  EXPECT_EQ(cache.stats().entries, 1u);
}

TEST(PlanCache, ConcurrentReadersDuringInsertsSeeConsistentEntries) {
  PlanCache cache;
  constexpr int kKeys = 64;
  std::atomic<bool> stop{false};
  std::atomic<int> published{0};

  // Readers hammer lookups of all keys while the writer publishes them one
  // by one.  A reader must only ever see null or a fully constructed entry
  // whose plan matches its key.
  std::vector<std::thread> readers;
  for (int t = 0; t < 4; ++t) {
    readers.emplace_back([&] {
      while (!stop.load(std::memory_order_acquire)) {
        for (int i = 0; i < kKeys; ++i) {
          const int n = 64 + 8 * i;
          const CachedPlan* e = cache.lookup(key_for(n, n, n));
          if (e != nullptr) {
            // The entry is immutable once visible: its content must agree
            // with an independent planning pass for the same key.
            const layout::GemmPlan fresh =
                layout::plan_gemm(n, n, n, layout::TileOptions{});
            EXPECT_EQ(e->plan.depth, fresh.depth);
            EXPECT_EQ(e->plan.m.padded, fresh.m.padded);
          }
        }
      }
    });
  }
  for (int i = 0; i < kKeys; ++i) {
    const int n = 64 + 8 * i;
    cache.insert(key_for(n, n, n), plan_for(n, n, n));
    published.fetch_add(1, std::memory_order_release);
  }
  stop.store(true, std::memory_order_release);
  for (std::thread& t : readers) t.join();

  EXPECT_EQ(cache.stats().entries, static_cast<std::uint64_t>(kKeys));
  for (int i = 0; i < kKeys; ++i) {
    const int n = 64 + 8 * i;
    EXPECT_NE(cache.lookup(key_for(n, n, n)), nullptr);
  }
}

TEST(PlanCache, ClearEmptiesTheTable) {
  PlanCache cache;
  cache.insert(key_for(96, 96, 96), plan_for(96, 96, 96));
  ASSERT_NE(cache.lookup(key_for(96, 96, 96)), nullptr);
  cache.clear();
  EXPECT_EQ(cache.lookup(key_for(96, 96, 96)), nullptr);
  EXPECT_EQ(cache.stats().entries, 0u);
}

// ---------------------------------------------------------------------------
// Persistent tune cache.
// ---------------------------------------------------------------------------

class TuneCacheFile : public ::testing::Test {
 protected:
  // Per-test file name: ctest -j runs each test as its own process in a
  // shared working directory, so a fixed name would let parallel tests
  // clobber each other's cache files.
  TuneCacheFile()
      : path_(std::string("tune_cache_test_") +
              ::testing::UnitTest::GetInstance()->current_test_info()->name() +
              ".txt") {}
  void SetUp() override { std::remove(path_.c_str()); }
  void TearDown() override {
    std::remove(path_.c_str());
    reset_autotune_memo();
  }
  const std::string path_;
};

TuneCacheEntry sample_entry() {
  TuneCacheEntry entry;
  entry.tiles.min_tile = 8;
  entry.tiles.max_tile = 128;
  entry.tiles.preferred_tile = 48;
  entry.tiles.direct_threshold = 96;
  entry.tiles.packfused_max_depth = 3;
  entry.kernel = blas::kernels::Kind::kScalar;
  return entry;
}

TEST_F(TuneCacheFile, SaveThenLoadRoundTrips) {
  std::string error;
  ASSERT_TRUE(save_tune_cache(path_, sample_entry(), &error)) << error;
  TuneCacheEntry loaded;
  ASSERT_EQ(load_tune_cache(path_, &loaded, &error), TuneCacheStatus::kOk)
      << error;
  EXPECT_EQ(loaded.tiles.min_tile, 8);
  EXPECT_EQ(loaded.tiles.max_tile, 128);
  EXPECT_EQ(loaded.tiles.preferred_tile, 48);
  EXPECT_EQ(loaded.tiles.direct_threshold, 96);
  EXPECT_EQ(loaded.tiles.packfused_max_depth, 3);
  EXPECT_EQ(loaded.kernel, blas::kernels::Kind::kScalar);
}

TEST_F(TuneCacheFile, MissingFileIsACleanColdStart) {
  TuneCacheEntry out;
  std::string error;
  EXPECT_EQ(load_tune_cache(path_, &out, &error), TuneCacheStatus::kMissing);
  EXPECT_FALSE(error.empty());
}

// A file this build wrote, with its "kernel" line naming `kernel` instead:
// the deleted AVX2 block suffixes make an otherwise valid file stale.
std::string cache_text_with_kernel(const std::string& path,
                                   const std::string& kernel) {
  std::string error;
  EXPECT_TRUE(save_tune_cache(path, sample_entry(), &error)) << error;
  std::ifstream in(path);
  std::string text((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  const std::string line = "kernel scalar\n";
  const std::string::size_type at = text.find(line);
  EXPECT_NE(at, std::string::npos) << text;
  if (at != std::string::npos)
    text.replace(at, line.size(), "kernel " + kernel + "\n");
  return text;
}

// Unreadable files, and caches naming a kernel this build no longer has.
std::vector<std::string> corrupt_cache_texts(const std::string& path) {
  return {"not a tune cache at all\n",
          cache_text_with_kernel(path, "avx2-4x8"),
          cache_text_with_kernel(path, "avx2-8x6")};
}

TEST_F(TuneCacheFile, CorruptFileIsRejectedWithReason) {
  for (const std::string& text : corrupt_cache_texts(path_)) {
    {
      std::ofstream f(path_, std::ios::trunc);
      f << text;
    }
    TuneCacheEntry out;
    out.tiles.preferred_tile = -7;  // sentinel: must stay untouched
    std::string error;
    EXPECT_EQ(load_tune_cache(path_, &out, &error), TuneCacheStatus::kCorrupt)
        << text;
    EXPECT_FALSE(error.empty());
    EXPECT_EQ(out.tiles.preferred_tile, -7);
  }
}

TEST_F(TuneCacheFile, TruncatedFileIsRejected) {
  // A valid file cut before the "end" marker (the crash-mid-write case).
  std::string error;
  ASSERT_TRUE(save_tune_cache(path_, sample_entry(), &error)) << error;
  std::ifstream in(path_);
  std::string text((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  in.close();
  ASSERT_NE(text.find("end"), std::string::npos);
  {
    std::ofstream f(path_, std::ios::trunc);
    f << text.substr(0, text.find("end"));
  }
  TuneCacheEntry out;
  EXPECT_EQ(load_tune_cache(path_, &out, &error), TuneCacheStatus::kCorrupt);
  EXPECT_NE(error.find("truncated"), std::string::npos) << error;
}

TEST_F(TuneCacheFile, ForeignFingerprintIsRejected) {
  std::string error;
  ASSERT_TRUE(save_tune_cache(path_, sample_entry(), &error)) << error;
  // Rewrite the fingerprint line: a cache written by a different kernel
  // build or host must not be trusted.
  std::ifstream in(path_);
  std::string text((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  in.close();
  const std::string::size_type at = text.find("fingerprint ");
  ASSERT_NE(at, std::string::npos);
  const std::string::size_type eol = text.find('\n', at);
  text.replace(at, eol - at, "fingerprint v1;compiled=elsewhere");
  {
    std::ofstream f(path_, std::ios::trunc);
    f << text;
  }
  TuneCacheEntry out;
  EXPECT_EQ(load_tune_cache(path_, &out, &error),
            TuneCacheStatus::kFingerprintMismatch);
  EXPECT_FALSE(error.empty());
}

TEST_F(TuneCacheFile, InconsistentTilesAreRejected) {
  TuneCacheEntry bad = sample_entry();
  bad.tiles.preferred_tile = 256;  // outside [min_tile, max_tile]
  std::string error;
  ASSERT_TRUE(save_tune_cache(path_, bad, &error)) << error;
  TuneCacheEntry out;
  EXPECT_EQ(load_tune_cache(path_, &out, &error), TuneCacheStatus::kCorrupt);
  EXPECT_FALSE(error.empty());
}

// ---------------------------------------------------------------------------
// autotune_cached source transitions.
// ---------------------------------------------------------------------------

AutotuneOptions cheap_survey() {
  AutotuneOptions opt;
  opt.candidate_tiles = {16, 32};
  opt.crossover_sizes = {64};
  opt.strategy_sizes = {96};
  opt.repetitions = 1;
  // Never mutate the process-global kernel from these tests.
  opt.apply_best_kernel = false;
  return opt;
}

TEST_F(TuneCacheFile, ColdSurveyWritesTheCacheFile) {
  reset_autotune_memo();
  const CachedAutotune cold = autotune_cached(cheap_survey(), path_.c_str());
  EXPECT_EQ(cold.source, TuneSource::kFreshSurvey);
  EXPECT_FALSE(cold.result.leaf_survey.empty());
  TuneCacheEntry persisted;
  std::string error;
  ASSERT_EQ(load_tune_cache(path_, &persisted, &error), TuneCacheStatus::kOk)
      << error;
  EXPECT_EQ(persisted.tiles.min_tile, cold.result.tiles.min_tile);
  EXPECT_EQ(persisted.tiles.preferred_tile, cold.result.tiles.preferred_tile);
}

TEST_F(TuneCacheFile, WarmProcessSkipsTheSurvey) {
  reset_autotune_memo();
  const CachedAutotune cold = autotune_cached(cheap_survey(), path_.c_str());
  ASSERT_EQ(cold.source, TuneSource::kFreshSurvey);

  // Same process, second call: the memo answers (the PR-9 warm-start
  // bugfix -- one survey per process).
  const CachedAutotune memo = autotune_cached(cheap_survey(), path_.c_str());
  EXPECT_EQ(memo.source, TuneSource::kProcessMemo);
  EXPECT_EQ(memo.result.tiles.preferred_tile,
            cold.result.tiles.preferred_tile);
  EXPECT_TRUE(memo.result.leaf_survey.empty());  // nothing was measured

  // "New process" (memo dropped): the disk cache answers and the knobs
  // round-trip exactly.
  reset_autotune_memo();
  const CachedAutotune warm = autotune_cached(cheap_survey(), path_.c_str());
  EXPECT_EQ(warm.source, TuneSource::kDiskCache);
  EXPECT_EQ(warm.result.tiles.min_tile, cold.result.tiles.min_tile);
  EXPECT_EQ(warm.result.tiles.max_tile, cold.result.tiles.max_tile);
  EXPECT_EQ(warm.result.tiles.preferred_tile,
            cold.result.tiles.preferred_tile);
  EXPECT_EQ(warm.result.tiles.direct_threshold,
            cold.result.tiles.direct_threshold);
  EXPECT_EQ(warm.result.tiles.packfused_max_depth,
            cold.result.tiles.packfused_max_depth);
  EXPECT_EQ(warm.result.best_kernel, cold.result.best_kernel);
  EXPECT_TRUE(warm.result.leaf_survey.empty());
}

TEST_F(TuneCacheFile, CorruptCacheForcesResurveyAndRewrite) {
  std::vector<std::string> texts = corrupt_cache_texts(path_);
  texts.push_back("strassen.tune_cache.v1\ngarbage\n");
  for (const std::string& text : texts) {
    {
      std::ofstream f(path_, std::ios::trunc);
      f << text;
    }
    reset_autotune_memo();
    const CachedAutotune rejected = autotune_cached(cheap_survey(),
                                                    path_.c_str());
    EXPECT_EQ(rejected.source, TuneSource::kRejectedCache) << text;
    EXPECT_FALSE(rejected.result.leaf_survey.empty());  // it really surveyed
    // The bad file was overwritten with this process's outcome.
    TuneCacheEntry repaired;
    std::string error;
    EXPECT_EQ(load_tune_cache(path_, &repaired, &error), TuneCacheStatus::kOk)
        << error;
  }
}

TEST_F(TuneCacheFile, NoPathMeansMemoOnly) {
  reset_autotune_memo();
  const CachedAutotune first = autotune_cached(cheap_survey(), nullptr);
  EXPECT_EQ(first.source, TuneSource::kFreshSurvey);
  const CachedAutotune second = autotune_cached(cheap_survey(), nullptr);
  EXPECT_EQ(second.source, TuneSource::kProcessMemo);
}

TEST(TuneCacheFingerprint, IsStableWithinAProcess) {
  const std::string a = tune_cache_fingerprint();
  const std::string b = tune_cache_fingerprint();
  EXPECT_EQ(a, b);
  EXPECT_NE(a.find("compiled="), std::string::npos);
  EXPECT_NE(a.find("elem="), std::string::npos);
}

}  // namespace
}  // namespace strassen::tune
