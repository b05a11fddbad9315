// tune/plan_cache.hpp -- plan memoization and the persistent autotune cache.
//
// The batched service loop (core/batched.hpp) multiplies torrents of
// small/medium products whose planning inputs repeat endlessly: the same
// (shape, op, strategy, budget, planner knobs) class shows up for
// every convolution of every inference.  Planning one product is cheap;
// planning it a million times per second is not -- and the autotune survey
// (tune/autotune.hpp), which prices tiles and kernels EMPIRICALLY, costs a
// visible fraction of a second that today every process pays again.
//
// Two caches fix the two recomputation costs:
//
//   * PlanCache -- an in-process, insert-only map from plan-equivalence
//     class to the fully degraded/resolved GemmPlan.  Reads are lock-free
//     (a fixed open-addressed table of atomic pointers, acquire loads, no
//     reader-side synchronization of any kind); writers serialize on one
//     mutex and publish entries with release stores.  Entries are never
//     mutated or freed while the cache is live, so a reader can hold a
//     returned pointer for as long as the process runs.  A full table stops
//     accepting inserts (counted, loud in stats) rather than evicting --
//     eviction would break the reader contract.
//
//   * The tune cache -- the autotune survey's outcome (planner tile knobs +
//     winning kernel), serialized to the file named by STRASSEN_TUNE_CACHE.
//     A warm process loads it and skips the survey entirely
//     (autotune_cached); a cold process surveys once and writes it for the
//     next process.  Entries carry a fingerprint of the kernel build and
//     host capability set: a cache written by a different binary or machine
//     is IGNORED LOUDLY (one stderr line naming the file and reason) and
//     overwritten by a fresh survey -- stale machine parameters are worse
//     than no parameters, per the paper's whole premise that these constants
//     are machine properties.
#pragma once

#include <atomic>
#include <array>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <string>

#include "layout/plan.hpp"
#include "obs/report.hpp"
#include "tune/autotune.hpp"

namespace strassen::tune {

// ---- in-process plan cache --------------------------------------------------

// Everything that influences core::detail::plan_product for one product.
// Two calls with equal keys execute the same plan, so the cached result is
// exact, not heuristic.
struct PlanKey {
  int m = 0, k = 0, n = 0;
  std::uint8_t opa = 0, opb = 0;      // Op, as ordinal
  bool beta_zero = false;             // prices pack-fused's C scratch
  // The call's core::ExecConfig, as ordinals (kAuto = decided per product).
  std::uint8_t strategy = 0;          // layout::ExecStrategy
  // Always 0 in library keys (a call's config has neither a schedule family
  // nor an <m,k,n> algorithm); kept because the benchmark's plan-cache probe
  // sets them.
  std::uint8_t schedule = 0;
  std::uint8_t algo = 0;              // analysis::AlgoFamily
  std::uint32_t elem_size = 0;
  std::uint64_t max_workspace_bytes = 0;
  // Planner knobs (layout::TileOptions), field by field.
  int min_tile = 0, max_tile = 0, preferred_tile = 0;
  int direct_threshold = 0, packfused_max_depth = 0;
  std::uint64_t avoid_conflict_cache_bytes = 0;
  std::uint64_t conflict_elem_bytes = 0;
  std::uint64_t max_tile_working_set_bytes = 0;

  bool operator==(const PlanKey&) const = default;
};

std::uint64_t hash_plan_key(const PlanKey& key) noexcept;

// The memoized planning outcome: the plan as it would EXECUTE (budget
// degradation and strategy resolution applied), the depth the planner wanted
// before the budget (report field), and the budget rung taken so cache hits
// report the same fallback the original planning pass did.
struct CachedPlan {
  layout::GemmPlan plan{};
  int planned_depth = 0;
  obs::FallbackReason fallback = obs::FallbackReason::kNone;
};

// Insert-only concurrent map.  lookup() is wait-free and never blocks on
// writers; insert() serializes writers on a mutex.  Capacity is fixed: when
// the probe sequence finds no free slot the insert is dropped and counted
// (stats().rejected) -- callers keep their locally computed plan.
class PlanCache {
 public:
  PlanCache() = default;
  ~PlanCache();
  PlanCache(const PlanCache&) = delete;
  PlanCache& operator=(const PlanCache&) = delete;

  // Lock-free read: returns the published entry for `key`, or null.  The
  // pointer stays valid until clear() (which tests call with no concurrent
  // readers; production never does).
  const CachedPlan* lookup(const PlanKey& key) const noexcept;

  // Publishes `value` for `key`.  Returns the stored entry: the new one, the
  // pre-existing one when another writer won the race (first insert wins --
  // equal keys compute equal plans, so which copy survives is immaterial),
  // or null when the table is full.
  const CachedPlan* insert(const PlanKey& key, const CachedPlan& value);

  struct Stats {
    std::uint64_t hits = 0;      // lookups that returned an entry
    std::uint64_t misses = 0;    // lookups that returned null
    std::uint64_t entries = 0;   // entries currently published
    std::uint64_t rejected = 0;  // inserts dropped because the table is full
  };
  Stats stats() const noexcept;

  // Frees every entry and zeroes the stats.  NOT safe against concurrent
  // readers (their pointers would dangle) -- test fixture use only.
  void clear() noexcept;

 private:
  struct Entry {
    PlanKey key;
    CachedPlan value;
  };
  static constexpr std::size_t kSlots = 4096;  // power of two
  static constexpr std::size_t kMaxProbe = 64;

  std::array<std::atomic<Entry*>, kSlots> slots_{};
  mutable std::atomic<std::uint64_t> hits_{0};
  mutable std::atomic<std::uint64_t> misses_{0};
  std::atomic<std::uint64_t> entries_{0};
  std::atomic<std::uint64_t> rejected_{0};
  std::mutex write_mutex_;
};

// The process-wide instance every entry point shares (function-local static,
// constructed on first use, never destroyed -- readers may race exit).
PlanCache& global_plan_cache();

// ---- persistent tune cache (STRASSEN_TUNE_CACHE) ----------------------------

// What the survey learned, shorn of diagnostics: the planner knobs that came
// out of the tile/crossover/strategy probes plus the winning leaf kernel.
struct TuneCacheEntry {
  layout::TileOptions tiles{};
  blas::kernels::Kind kernel = blas::kernels::Kind::kScalar;
};

enum class TuneCacheStatus {
  kOk = 0,               // loaded, fingerprint matched
  kMissing,              // file does not exist (a normal cold start)
  kCorrupt,              // unreadable, truncated, or malformed
  kFingerprintMismatch,  // written by a different build or host
};
const char* tune_cache_status_name(TuneCacheStatus s) noexcept;

// Identity of the kernel build + host capability set this process would
// survey: compiled kernel tables (with register blocks) and the subset the
// CPU can run.  Two processes with equal fingerprints would reach the same
// survey outcome, so their caches are interchangeable; anything else is
// foreign and must be re-surveyed.
std::string tune_cache_fingerprint();

// Reads `path`.  On kOk fills *out; on any other status *out is untouched
// and *error (when non-null) gets a one-line human-readable reason.
TuneCacheStatus load_tune_cache(const std::string& path, TuneCacheEntry* out,
                                std::string* error = nullptr);

// Atomically (write-temp + rename) persists `entry` with the current
// fingerprint.  False + *error on I/O failure.
bool save_tune_cache(const std::string& path, const TuneCacheEntry& entry,
                     std::string* error = nullptr);

// $STRASSEN_TUNE_CACHE, or null when unset/empty.
const char* tune_cache_env() noexcept;

// Where autotune_cached's result came from -- the report's batch.tune_cache
// field serializes this ("cold" for a fresh survey, "warm" for memo/disk,
// "rejected" when a foreign/corrupt file forced a re-survey).
enum class TuneSource {
  kFreshSurvey = 0,  // surveyed (no cache configured, or cache was cold)
  kProcessMemo,      // this process already surveyed or loaded
  kDiskCache,        // loaded from STRASSEN_TUNE_CACHE
  kRejectedCache,    // surveyed because the file was corrupt/foreign
};
const char* tune_source_name(TuneSource s) noexcept;

struct CachedAutotune {
  AutotuneResult result;
  TuneSource source = TuneSource::kFreshSurvey;
};

// The warm-startable autotune entry point.  Consults, in order: the
// process-wide memo (one survey per process, the PR-9 bugfix -- repeated
// single-call tuning used to re-survey every time), then the
// STRASSEN_TUNE_CACHE file, then runs the real survey and persists the
// outcome for the next process.  Memo/disk hits return tiles + kernel with
// empty diagnostics vectors (nothing was measured); the winning kernel is
// installed when opt.apply_best_kernel, exactly as a fresh survey would.
// A corrupt or foreign cache file is reported on stderr, ignored, and
// overwritten by this process's fresh survey.
CachedAutotune autotune_cached(const AutotuneOptions& opt = {});
// Same, with an explicit cache path (null/empty = no file; tests use this
// to exercise cold/warm/rejected transitions without touching the
// environment).
CachedAutotune autotune_cached(const AutotuneOptions& opt, const char* path);

// Drops the process memo so the next autotune_cached consults the file /
// surveys again.  Test hook (simulates a fresh process).
void reset_autotune_memo() noexcept;

}  // namespace strassen::tune
