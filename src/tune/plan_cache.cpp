#include "tune/plan_cache.hpp"

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "blas/kernels/registry.hpp"

namespace strassen::tune {

// ---- PlanCache --------------------------------------------------------------

std::uint64_t hash_plan_key(const PlanKey& key) noexcept {
  // FNV-1a over the fields (not the raw bytes: padding would poison it).
  std::uint64_t h = 1469598103934665603ull;
  const auto mix = [&h](std::uint64_t v) {
    h ^= v;
    h *= 1099511628211ull;
  };
  mix(static_cast<std::uint64_t>(static_cast<std::uint32_t>(key.m)));
  mix(static_cast<std::uint64_t>(static_cast<std::uint32_t>(key.k)));
  mix(static_cast<std::uint64_t>(static_cast<std::uint32_t>(key.n)));
  mix(key.opa);
  mix(key.opb);
  mix(key.beta_zero);
  mix(key.schedule);
  mix(key.strategy);
  mix(key.algo);
  mix(key.elem_size);
  mix(key.max_workspace_bytes);
  mix(static_cast<std::uint64_t>(static_cast<std::uint32_t>(key.min_tile)));
  mix(static_cast<std::uint64_t>(static_cast<std::uint32_t>(key.max_tile)));
  mix(static_cast<std::uint64_t>(
      static_cast<std::uint32_t>(key.preferred_tile)));
  mix(static_cast<std::uint64_t>(
      static_cast<std::uint32_t>(key.direct_threshold)));
  mix(static_cast<std::uint64_t>(
      static_cast<std::uint32_t>(key.packfused_max_depth)));
  mix(key.avoid_conflict_cache_bytes);
  mix(key.conflict_elem_bytes);
  mix(key.max_tile_working_set_bytes);
  return h;
}

PlanCache::~PlanCache() { clear(); }

const CachedPlan* PlanCache::lookup(const PlanKey& key) const noexcept {
  std::size_t idx = hash_plan_key(key) & (kSlots - 1);
  for (std::size_t probe = 0; probe < kMaxProbe; ++probe) {
    const Entry* e = slots_[idx].load(std::memory_order_acquire);
    if (e == nullptr) break;  // never published past this point
    if (e->key == key) {
      hits_.fetch_add(1, std::memory_order_relaxed);
      return &e->value;
    }
    idx = (idx + 1) & (kSlots - 1);
  }
  misses_.fetch_add(1, std::memory_order_relaxed);
  return nullptr;
}

const CachedPlan* PlanCache::insert(const PlanKey& key,
                                    const CachedPlan& value) {
  std::lock_guard<std::mutex> lock(write_mutex_);
  std::size_t idx = hash_plan_key(key) & (kSlots - 1);
  for (std::size_t probe = 0; probe < kMaxProbe; ++probe) {
    Entry* e = slots_[idx].load(std::memory_order_relaxed);
    if (e == nullptr) {
      Entry* fresh = new Entry{key, value};
      // The release store is the publication point: a reader that acquires
      // this pointer sees the fully constructed entry.
      slots_[idx].store(fresh, std::memory_order_release);
      entries_.fetch_add(1, std::memory_order_relaxed);
      return &fresh->value;
    }
    if (e->key == key) return &e->value;  // racing writer got here first
    idx = (idx + 1) & (kSlots - 1);
  }
  rejected_.fetch_add(1, std::memory_order_relaxed);
  return nullptr;
}

PlanCache::Stats PlanCache::stats() const noexcept {
  Stats s;
  s.hits = hits_.load(std::memory_order_relaxed);
  s.misses = misses_.load(std::memory_order_relaxed);
  s.entries = entries_.load(std::memory_order_relaxed);
  s.rejected = rejected_.load(std::memory_order_relaxed);
  return s;
}

void PlanCache::clear() noexcept {
  std::lock_guard<std::mutex> lock(write_mutex_);
  for (auto& slot : slots_) {
    delete slot.load(std::memory_order_relaxed);
    slot.store(nullptr, std::memory_order_relaxed);
  }
  hits_.store(0, std::memory_order_relaxed);
  misses_.store(0, std::memory_order_relaxed);
  entries_.store(0, std::memory_order_relaxed);
  rejected_.store(0, std::memory_order_relaxed);
}

PlanCache& global_plan_cache() {
  // Leaked on purpose: batched calls may race process teardown, and a
  // destructed cache would dangle their reads.
  static PlanCache* cache = new PlanCache();
  return *cache;
}

// ---- tune cache file --------------------------------------------------------

namespace {

constexpr const char* kTuneCacheMagic = "strassen.tune_cache.v1";

void set_error(std::string* error, const std::string& msg) {
  if (error != nullptr) *error = msg;
}

}  // namespace

const char* tune_cache_status_name(TuneCacheStatus s) noexcept {
  switch (s) {
    case TuneCacheStatus::kOk: return "ok";
    case TuneCacheStatus::kMissing: return "missing";
    case TuneCacheStatus::kCorrupt: return "corrupt";
    case TuneCacheStatus::kFingerprintMismatch: return "fingerprint-mismatch";
  }
  return "unknown";
}

std::string tune_cache_fingerprint() {
  using blas::kernels::Kind;
  std::ostringstream os;
  os << "v1;compiled=";
  bool first = true;
  for (Kind k : blas::kernels::compiled_kernels()) {
    os << (first ? "" : ",") << blas::kernels::kind_name(k);
    if (const blas::kernels::LeafKernels* t = blas::kernels::kernel_table(k))
      os << ':' << t->mr << 'x' << t->nr;
    first = false;
  }
  os << ";available=";
  first = true;
  for (Kind k : blas::kernels::available_kernels()) {
    os << (first ? "" : ",") << blas::kernels::kind_name(k);
    first = false;
  }
  os << ";elem=" << sizeof(double);
  return os.str();
}

TuneCacheStatus load_tune_cache(const std::string& path, TuneCacheEntry* out,
                                std::string* error) {
  std::ifstream in(path);
  if (!in.is_open()) {
    set_error(error, "cannot open " + path);
    return TuneCacheStatus::kMissing;
  }
  std::string line;
  if (!std::getline(in, line) || line != kTuneCacheMagic) {
    set_error(error, "bad magic line (expected " +
                         std::string(kTuneCacheMagic) + ")");
    return TuneCacheStatus::kCorrupt;
  }
  if (!std::getline(in, line) || line.rfind("fingerprint ", 0) != 0) {
    set_error(error, "missing fingerprint line");
    return TuneCacheStatus::kCorrupt;
  }
  const std::string fp = line.substr(12);
  const std::string want = tune_cache_fingerprint();
  if (fp != want) {
    set_error(error, "fingerprint \"" + fp + "\" does not match this host \"" +
                         want + "\"");
    return TuneCacheStatus::kFingerprintMismatch;
  }

  TuneCacheEntry entry;
  bool saw_end = false;
  // Which of the required keys have been seen (order-independent).
  bool seen[6] = {false, false, false, false, false, false};
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    if (line == "end") {
      saw_end = true;
      break;
    }
    std::istringstream ls(line);
    std::string key, value, extra;
    if (!(ls >> key >> value) || (ls >> extra)) {
      set_error(error, "malformed line \"" + line + "\"");
      return TuneCacheStatus::kCorrupt;
    }
    const auto as_int = [&](int lo, int hi, bool* ok) {
      char* end = nullptr;
      const long v = std::strtol(value.c_str(), &end, 10);
      *ok = end != nullptr && *end == '\0' && v >= lo && v <= hi;
      return static_cast<int>(v);
    };
    bool ok = true;
    if (key == "min_tile") {
      entry.tiles.min_tile = as_int(1, 4096, &ok);
      seen[0] = true;
    } else if (key == "max_tile") {
      entry.tiles.max_tile = as_int(1, 4096, &ok);
      seen[1] = true;
    } else if (key == "preferred_tile") {
      entry.tiles.preferred_tile = as_int(1, 4096, &ok);
      seen[2] = true;
    } else if (key == "direct_threshold") {
      entry.tiles.direct_threshold = as_int(0, 1 << 20, &ok);
      seen[3] = true;
    } else if (key == "packfused_max_depth") {
      entry.tiles.packfused_max_depth = as_int(0, 64, &ok);
      seen[4] = true;
    } else if (key == "kernel") {
      try {
        entry.kernel = blas::kernels::parse_kernel_name(value.c_str());
      } catch (const std::invalid_argument&) {
        ok = false;
      }
      seen[5] = true;
    } else {
      set_error(error, "unknown key \"" + key + "\"");
      return TuneCacheStatus::kCorrupt;
    }
    if (!ok) {
      set_error(error, "bad value for " + key + ": \"" + value + "\"");
      return TuneCacheStatus::kCorrupt;
    }
  }
  for (bool s : seen) {
    if (!s) {
      set_error(error, "truncated file (missing keys)");
      return TuneCacheStatus::kCorrupt;
    }
  }
  if (!saw_end) {
    set_error(error, "truncated file (missing end marker)");
    return TuneCacheStatus::kCorrupt;
  }
  if (entry.tiles.min_tile > entry.tiles.max_tile ||
      entry.tiles.preferred_tile < entry.tiles.min_tile ||
      entry.tiles.preferred_tile > entry.tiles.max_tile) {
    set_error(error, "inconsistent tile range");
    return TuneCacheStatus::kCorrupt;
  }
  *out = entry;
  set_error(error, "");
  return TuneCacheStatus::kOk;
}

bool save_tune_cache(const std::string& path, const TuneCacheEntry& entry,
                     std::string* error) {
  const std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::trunc);
    if (!out.is_open()) {
      set_error(error, "cannot write " + tmp);
      return false;
    }
    out << kTuneCacheMagic << '\n';
    out << "fingerprint " << tune_cache_fingerprint() << '\n';
    out << "min_tile " << entry.tiles.min_tile << '\n';
    out << "max_tile " << entry.tiles.max_tile << '\n';
    out << "preferred_tile " << entry.tiles.preferred_tile << '\n';
    out << "direct_threshold " << entry.tiles.direct_threshold << '\n';
    out << "packfused_max_depth " << entry.tiles.packfused_max_depth << '\n';
    out << "kernel " << blas::kernels::kind_name(entry.kernel) << '\n';
    out << "end\n";
    out.flush();
    if (!out.good()) {
      set_error(error, "write to " + tmp + " failed");
      return false;
    }
  }
  // Rename-over so a concurrent reader sees either the old complete file or
  // the new complete file, never a torn one.
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    set_error(error, "rename " + tmp + " -> " + path + " failed");
    std::remove(tmp.c_str());
    return false;
  }
  set_error(error, "");
  return true;
}

const char* tune_cache_env() noexcept {
  const char* v = std::getenv("STRASSEN_TUNE_CACHE");
  return (v != nullptr && v[0] != '\0') ? v : nullptr;
}

// ---- autotune_cached --------------------------------------------------------

const char* tune_source_name(TuneSource s) noexcept {
  switch (s) {
    case TuneSource::kFreshSurvey: return "fresh-survey";
    case TuneSource::kProcessMemo: return "process-memo";
    case TuneSource::kDiskCache: return "disk-cache";
    case TuneSource::kRejectedCache: return "rejected-cache";
  }
  return "unknown";
}

namespace {

struct AutotuneMemo {
  bool valid = false;
  TuneCacheEntry entry;
};

std::mutex g_memo_mutex;
AutotuneMemo g_memo;

AutotuneResult result_from_entry(const TuneCacheEntry& entry,
                                 const AutotuneOptions& opt) {
  AutotuneResult r;
  r.tiles = entry.tiles;
  r.best_kernel = entry.kernel;
  if (opt.apply_best_kernel) blas::kernels::set_active_kernel(entry.kernel);
  return r;
}

}  // namespace

CachedAutotune autotune_cached(const AutotuneOptions& opt, const char* path) {
  {
    std::lock_guard<std::mutex> lock(g_memo_mutex);
    if (g_memo.valid) {
      CachedAutotune out;
      out.result = result_from_entry(g_memo.entry, opt);
      out.source = TuneSource::kProcessMemo;
      return out;
    }
  }
  bool rejected = false;
  if (path != nullptr && path[0] != '\0') {
    TuneCacheEntry entry;
    std::string err;
    const TuneCacheStatus st = load_tune_cache(path, &entry, &err);
    if (st == TuneCacheStatus::kOk) {
      std::lock_guard<std::mutex> lock(g_memo_mutex);
      g_memo.valid = true;
      g_memo.entry = entry;
      CachedAutotune out;
      out.result = result_from_entry(entry, opt);
      out.source = TuneSource::kDiskCache;
      return out;
    }
    if (st != TuneCacheStatus::kMissing) {
      rejected = true;
      std::fprintf(stderr,
                   "strassen: STRASSEN_TUNE_CACHE %s ignored (%s): %s; "
                   "running a fresh survey\n",
                   path, tune_cache_status_name(st), err.c_str());
    }
  }
  CachedAutotune out;
  out.result = autotune(opt);
  out.source = rejected ? TuneSource::kRejectedCache : TuneSource::kFreshSurvey;
  TuneCacheEntry entry;
  entry.tiles = out.result.tiles;
  entry.kernel = out.result.best_kernel;
  if (path != nullptr && path[0] != '\0') {
    std::string err;
    if (!save_tune_cache(path, entry, &err))
      std::fprintf(stderr, "strassen: could not persist tune cache: %s\n",
                   err.c_str());
  }
  std::lock_guard<std::mutex> lock(g_memo_mutex);
  g_memo.valid = true;
  g_memo.entry = entry;
  return out;
}

CachedAutotune autotune_cached(const AutotuneOptions& opt) {
  return autotune_cached(opt, tune_cache_env());
}

void reset_autotune_memo() noexcept {
  std::lock_guard<std::mutex> lock(g_memo_mutex);
  g_memo.valid = false;
}

}  // namespace strassen::tune
