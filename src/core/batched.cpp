#include "core/batched.hpp"

#include <algorithm>
#include <optional>
#include <unordered_map>
#include <vector>

#include "obs/scope.hpp"
#include "parallel/arena_pool.hpp"
#include "parallel/pmodgemm.hpp"
#include "tune/plan_cache.hpp"

namespace strassen::core {

namespace {

// One plan-equivalence class of the batch: every member item shares shape,
// ops, and (by construction of the batch-level options) budget, knobs and
// resolved config -- hence exactly one plan.
struct PlanClass {
  layout::GemmPlan plan{};
  int planned_depth = 0;
  obs::FallbackReason fallback = obs::FallbackReason::kNone;
  bool deep = false;  // runs as a parallel product of its own
};

struct ClassKey {
  int m, n, k;
  std::uint8_t opa, opb;
  bool operator==(const ClassKey&) const = default;
};

struct ClassKeyHash {
  std::size_t operator()(const ClassKey& c) const noexcept {
    std::uint64_t h = 1469598103934665603ull;
    const auto mix = [&h](std::uint64_t v) {
      h ^= v;
      h *= 1099511628211ull;
    };
    mix(static_cast<std::uint32_t>(c.m));
    mix(static_cast<std::uint32_t>(c.n));
    mix(static_cast<std::uint32_t>(c.k));
    mix(c.opa);
    mix(c.opb);
    return static_cast<std::size_t>(h);
  }
};

tune::PlanKey make_plan_key(const ClassKey& c, const BatchedOptions& opt,
                            const ExecConfig& cfg,
                            const layout::TileOptions& tiles) {
  tune::PlanKey key;
  key.m = c.m;
  key.k = c.k;
  key.n = c.n;
  key.opa = c.opa;
  key.opb = c.opb;
  key.strategy = static_cast<std::uint8_t>(cfg.strategy);
  key.elem_size = sizeof(double);
  key.max_workspace_bytes = opt.max_workspace_bytes;
  key.min_tile = tiles.min_tile;
  key.max_tile = tiles.max_tile;
  key.preferred_tile = tiles.preferred_tile;
  key.direct_threshold = tiles.direct_threshold;
  key.packfused_max_depth = tiles.packfused_max_depth;
  key.avoid_conflict_cache_bytes = tiles.avoid_conflict_cache_bytes;
  key.conflict_elem_bytes = tiles.conflict_elem_bytes;
  key.max_tile_working_set_bytes = tiles.max_tile_working_set_bytes;
  return key;
}

const char* tune_state_name(tune::TuneSource source) {
  switch (source) {
    case tune::TuneSource::kFreshSurvey: return "cold";
    case tune::TuneSource::kProcessMemo:
    case tune::TuneSource::kDiskCache: return "warm";
    case tune::TuneSource::kRejectedCache: return "rejected";
  }
  return "off";
}

}  // namespace

void modgemm_batched(parallel::ThreadPool* pool, const BatchItem* items,
                     int count, const BatchedOptions& opt,
                     obs::GemmReport* report) {
  STRASSEN_REQUIRE(count >= 0, "negative batch count: " << count);
  STRASSEN_REQUIRE(items != nullptr || count == 0,
                   "null items with count=" << count);
  STRASSEN_REQUIRE(opt.min_task_flops >= 1,
                   "min_task_flops must be >= 1, got " << opt.min_task_flops);
  // The whole batch is validated before ANY C is touched: a bad item rejects
  // everything, exactly like a bad argument to the serial entry point.
  for (int i = 0; i < count; ++i) {
    const BatchItem& it = items[i];
    require_gemm_args(it.opa, it.opb, it.m, it.n, it.k, it.lda, it.ldb,
                      it.ldc);
    STRASSEN_REQUIRE(it.m == 0 || it.n == 0 || it.C != nullptr,
                     "null C in batch item " << i);
  }
  blas::kernels::require_valid_kernel_env();
  // One pin for the whole batch (vs one install/restore per product in the
  // naive loop).
  std::optional<blas::kernels::ScopedKernel> kernel_pin;
  if (opt.kernel != blas::kernels::Kind::kAuto)
    kernel_pin.emplace(opt.kernel);

  if (report == nullptr) report = opt.report;
  obs::CallScope scope("modgemm_batched", report);
  obs::GemmReport* rep = scope.report();
  obs::WallStamp wall(rep);

  // Tile knobs: the caller's, or (opt.tune) the warm-startable autotune
  // outcome -- a file read when STRASSEN_TUNE_CACHE is warm, a survey once
  // per process otherwise.
  layout::TileOptions tiles = opt.tiles;
  const char* tune_state = "off";
  if (opt.tune) {
    const tune::CachedAutotune tuned = tune::autotune_cached();
    tiles = tuned.result.tiles;
    tune_state = tune_state_name(tuned.source);
  }

  if (rep) {
    rep->batch_count = count;
    rep->tune_cache = tune_state;
    rep->parallel = pool != nullptr && count > 0;
    rep->threads = pool != nullptr ? pool->thread_count() : 0;
  }
  const BatchItem first = count > 0 ? items[0] : BatchItem{};
  detail::stamp_call<RawMem, double>(rep, first.m, first.n, first.k);
  if (count == 0) return;

  // Resolved ONCE for the batch -- the per-product env reads are one of the
  // loop costs this entry point exists to remove.  Malformed env values
  // throw here, before any write to C.
  const ExecConfig cfg = resolve_config({opt.strategy});

  // ---- plan once per equivalence class -------------------------------------
  std::vector<PlanClass> classes;
  std::vector<int> cls_of(static_cast<std::size_t>(count), 0);
  {
    std::unordered_map<ClassKey, int, ClassKeyHash> index;
    index.reserve(static_cast<std::size_t>(count));
    std::uint64_t cache_hits = 0, cache_misses = 0;
    for (int i = 0; i < count; ++i) {
      const BatchItem& it = items[i];
      const ClassKey ck{it.m, it.n, it.k, static_cast<std::uint8_t>(it.opa),
                        static_cast<std::uint8_t>(it.opb)};
      auto [pos, fresh] =
          index.emplace(ck, static_cast<int>(classes.size()));
      if (fresh) {
        PlanClass cls;
        const tune::PlanKey pkey = make_plan_key(ck, opt, cfg, tiles);
        const tune::CachedPlan* cached =
            opt.use_plan_cache ? tune::global_plan_cache().lookup(pkey)
                               : nullptr;
        if (ck.m < 1 || ck.k < 1 || ck.n < 1) {
          // Degenerate product (empty C or rank-0 update): every item of the
          // class is a trivial product, so there is nothing to plan or cache.
          cls.plan.feasible = false;
        } else if (cached != nullptr) {
          cls.plan = cached->plan;
          cls.planned_depth = cached->planned_depth;
          cls.fallback = cached->fallback;
          ++cache_hits;
        } else {
          // Scratch report: captures the planned depth and any budget rung so
          // plan-cache hits replay what this planning pass records.
          obs::GemmReport plan_rep;
          cls.plan = detail::plan_product<double>(
              it.opa, it.opb, ck.m, ck.k, ck.n, cfg, tiles,
              opt.max_workspace_bytes, &plan_rep);
          cls.planned_depth = plan_rep.planned_depth;
          cls.fallback = plan_rep.fallback_reason;
          ++cache_misses;
          if (opt.use_plan_cache)
            tune::global_plan_cache().insert(
                pkey, tune::CachedPlan{cls.plan, cls.planned_depth,
                                       cls.fallback});
        }
        // A product whose plan's top level would fork on the pool
        // (parallel::fork_levels, the one definition of "deep") runs as a
        // forked product of its own instead of one task.  Pack-fused plans
        // stay single-task: a forked product runs the Morton rung, and
        // honoring the strategy outweighs intra-product parallelism.
        const layout::GemmPlan& p = cls.plan;
        cls.deep = p.strategy != layout::ExecStrategy::kPackFused &&
                   p.feasible && !p.direct &&
                   parallel::fork_levels(pool, p.m.tile, p.k.tile, p.n.tile,
                                         p.depth, opt.min_task_flops) >= 1;
        detail::record_fallback(rep, cls.fallback);
        classes.push_back(cls);
      }
      cls_of[static_cast<std::size_t>(i)] = pos->second;
    }
    if (rep) {
      rep->batch_classes = static_cast<int>(classes.size());
      rep->batch_plan_cache_hits = cache_hits;
      rep->batch_plan_cache_misses = cache_misses;
      rep->planned_depth = classes[static_cast<std::size_t>(cls_of[0])]
                               .planned_depth;
    }
  }

  // ---- execute: one task per product ---------------------------------------
  // Pre-allocated before the first submission: local reports (GemmReport is
  // not thread-safe) and the shallow items' indices.
  std::vector<obs::GemmReport> locals(
      rep != nullptr ? static_cast<std::size_t>(count) : 0);
  const auto class_of = [&](int i) -> const PlanClass& {
    return classes[static_cast<std::size_t>(
        cls_of[static_cast<std::size_t>(i)])];
  };
  const auto local_of = [&](int i) {
    return locals.empty() ? nullptr : &locals[static_cast<std::size_t>(i)];
  };
  std::vector<int> shallow;
  shallow.reserve(static_cast<std::size_t>(count));
  for (int i = 0; i < count; ++i)
    if (!class_of(i).deep) shallow.push_back(i);

  RawMem mm;
  // Every product runs the pipeline on its class's plan: the ladder, or the
  // split decomposition for an infeasible plan.
  // `fork` (deep products only) forks it across the pool.  Its Morton and
  // pack-fused rungs draw their arenas from this thread's cache, so every
  // product of a class after the first reuses warm memory; the acquisition
  // notes itself on the batch collector (bytes + count) and the cache
  // hit/cold telemetry is tallied from the per-thread stats delta.
  const auto run_item = [&](int i, const detail::Fork* fork) {
    const BatchItem& it = items[i];
    if (detail::trivial_product(mm, it.m, it.n, it.k, it.alpha, it.beta, it.C,
                                it.ldc))
      return;
    detail::run_product(mm, it.opa, it.opb, it.m, it.n, it.k, it.alpha, it.A,
                        it.lda, it.B, it.ldb, it.beta, it.C, it.ldc,
                        class_of(i).plan, cfg, tiles, opt.max_workspace_bytes,
                        local_of(i), fork);
  };

  // Shallow products: one task each.  A product absorbs its own bad_alloc
  // in the ladder; a failed submission finishes the rest inline.
  if (parallel::fan_out(pool, shallow.size(), [&](std::size_t s) {
        const int i = shallow[s];
        obs::GemmReport* local = local_of(i);
        if (local == nullptr) {
          run_item(i, nullptr);
          return;
        }
        const parallel::ArenaCacheStats before =
            parallel::thread_arena_cache_stats();
        run_item(i, nullptr);
        const parallel::ArenaCacheStats after =
            parallel::thread_arena_cache_stats();
        local->batch_workspace_acquisitions +=
            (after.hits - before.hits) + (after.misses - before.misses);
        local->batch_workspace_cold_allocs += after.misses - before.misses;
      })) {
    detail::record_fallback(rep, FallbackReason::kAllocDirect);
    parallel::purge_thread_arena_cache();
  }

  // Deep products: one at a time, each forking across the whole pool
  // (running them concurrently would oversubscribe it).
  const detail::Fork fork{pool, parallel::kSpawnAuto, opt.min_task_flops};
  for (int i = 0; i < count; ++i)
    if (class_of(i).deep) run_item(i, &fork);

  for (const obs::GemmReport& local : locals)
    obs::merge_sub_report(*rep, local);
}

void modgemm_strided_batched(parallel::ThreadPool* pool, Op opa, Op opb,
                             int m, int n, int k, double alpha,
                             const double* A, int lda, std::int64_t stride_a,
                             const double* B, int ldb, std::int64_t stride_b,
                             double beta, double* C, int ldc,
                             std::int64_t stride_c, int batch,
                             const BatchedOptions& opt,
                             obs::GemmReport* report) {
  STRASSEN_REQUIRE(batch >= 0, "negative batch count: " << batch);
  require_gemm_args(opa, opb, m, n, k, lda, ldb, ldc);
  STRASSEN_REQUIRE(stride_a >= 0, "negative stride_a: " << stride_a);
  STRASSEN_REQUIRE(stride_b >= 0, "negative stride_b: " << stride_b);
  if (batch > 1 && m > 0 && n > 0)
    STRASSEN_REQUIRE(stride_c >= static_cast<std::int64_t>(ldc) * n,
                     "stride_c=" << stride_c << " smaller than one C"
                                 << " footprint (ldc*n=" << ldc << "*" << n
                                 << "); outputs would alias");
  // Materialized before any write to C (a bad_alloc here leaves every C
  // untouched), then delegated: one shape + one op pair means exactly one
  // plan class.
  std::vector<BatchItem> items(static_cast<std::size_t>(batch));
  for (int i = 0; i < batch; ++i) {
    BatchItem& it = items[static_cast<std::size_t>(i)];
    it.opa = opa;
    it.opb = opb;
    it.m = m;
    it.n = n;
    it.k = k;
    it.alpha = alpha;
    it.A = A + static_cast<std::int64_t>(i) * stride_a;
    it.lda = lda;
    it.B = B + static_cast<std::int64_t>(i) * stride_b;
    it.ldb = ldb;
    it.beta = beta;
    it.C = C + static_cast<std::int64_t>(i) * stride_c;
    it.ldc = ldc;
  }
  modgemm_batched(pool, items.data(), batch, opt, report);
}

Status try_modgemm_batched(parallel::ThreadPool* pool, const BatchItem* items,
                           int count, const BatchedOptions& opt,
                           obs::GemmReport* report) noexcept {
  // Pre-validate so argument errors surface as precise Status codes with no
  // C touched; count/null-items errors map to kBadM (no dedicated code).
  if (count < 0 || (items == nullptr && count > 0) || opt.min_task_flops < 1)
    return Status::kBadM;
  for (int i = 0; i < count; ++i) {
    const BatchItem& it = items[i];
    const Status s = validate_gemm_args(it.opa, it.opb, it.m, it.n, it.k,
                                        it.lda, it.ldb, it.ldc);
    if (!ok(s)) return s;
    if (it.m > 0 && it.n > 0 && it.C == nullptr) return Status::kBadLdc;
  }
  try {
    modgemm_batched(pool, items, count, opt, report);
    return Status::kOk;
  } catch (const std::bad_alloc&) {
    return Status::kOutOfMemory;
  } catch (...) {
    return Status::kInternalError;
  }
}

Status try_modgemm_strided_batched(parallel::ThreadPool* pool, Op opa, Op opb,
                                   int m, int n, int k, double alpha,
                                   const double* A, int lda,
                                   std::int64_t stride_a, const double* B,
                                   int ldb, std::int64_t stride_b, double beta,
                                   double* C, int ldc, std::int64_t stride_c,
                                   int batch, const BatchedOptions& opt,
                                   obs::GemmReport* report) noexcept {
  if (batch < 0 || opt.min_task_flops < 1) return Status::kBadM;
  const Status s = validate_gemm_args(opa, opb, m, n, k, lda, ldb, ldc);
  if (!ok(s)) return s;
  if (stride_a < 0) return Status::kBadLda;
  if (stride_b < 0) return Status::kBadLdb;
  if (batch > 1 && m > 0 && n > 0 &&
      stride_c < static_cast<std::int64_t>(ldc) * n)
    return Status::kBadLdc;
  try {
    modgemm_strided_batched(pool, opa, opb, m, n, k, alpha, A, lda, stride_a,
                            B, ldb, stride_b, beta, C, ldc, stride_c, batch,
                            opt, report);
    return Status::kOk;
  } catch (const std::bad_alloc&) {
    return Status::kOutOfMemory;
  } catch (...) {
    return Status::kInternalError;
  }
}

}  // namespace strassen::core
