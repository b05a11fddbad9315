// probes.cpp -- the per-layer probes (see probes.hpp).
#include "probes.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <functional>
#include <set>

#if defined(__AVX2__) && defined(__FMA__)
#include <immintrin.h>
#endif

#include "baselines/dgefmm.hpp"
#include "blas/gemm.hpp"
#include "blas/kernels/registry.hpp"
#include "blas/pack.hpp"
#include "common/rng.hpp"
#include "layout/convert.hpp"
#include "layout/plan.hpp"
#include "tune/plan_cache.hpp"

namespace perfbench {

namespace kernels = strassen::blas::kernels;
namespace layout = strassen::layout;
using strassen::blas::LeafMode;

namespace {

volatile double g_sink = 0;

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// Median seconds per call of f(), over `batches` batches each at least
// `batch_s` long.
double per_call_seconds(const std::function<void()>& f, double batch_s = 2e-3,
                        int batches = 5) {
  long reps = 1;
  for (;;) {
    const std::int64_t t0 = now_ns();
    for (long i = 0; i < reps; ++i) f();
    const double dt = (now_ns() - t0) * 1e-9;
    if (dt >= batch_s) break;
    reps = dt <= 0 ? reps * 16
                   : std::max(reps * 2,
                              static_cast<long>(reps * 1.2 * batch_s / dt));
  }
  std::vector<double> t;
  for (int b = 0; b < batches; ++b) {
    const std::int64_t t0 = now_ns();
    for (long i = 0; i < reps; ++i) f();
    t.push_back((now_ns() - t0) * 1e-9 / static_cast<double>(reps));
  }
  return median(t);
}

std::vector<double> random_vec(std::size_t n, std::uint64_t seed) {
  std::vector<double> v(n);
  strassen::Rng rng(seed);
  rng.fill_uniform(v);
  return v;
}

}  // namespace

// Single-thread FMA peak: 12 independent 4-wide accumulators, enough to
// cover the FMA latency on two ports.  Scalar fallback without AVX2/FMA.
double fma_peak_flops_per_s() {
  constexpr long kIters = 1 << 16;
#if defined(__AVX2__) && defined(__FMA__)
  auto body = [] {
    __m256d acc[12];
    for (int i = 0; i < 12; ++i) acc[i] = _mm256_set1_pd(1.0 + i * 1e-3);
    const __m256d a = _mm256_set1_pd(0.999999), b = _mm256_set1_pd(1e-7);
    for (long it = 0; it < kIters; ++it)
      for (int i = 0; i < 12; ++i) acc[i] = _mm256_fmadd_pd(acc[i], a, b);
    double out[4];
    __m256d s = acc[0];
    for (int i = 1; i < 12; ++i) s = _mm256_add_pd(s, acc[i]);
    _mm256_storeu_pd(out, s);
    g_sink = g_sink + out[0];
  };
  const double flops = 2.0 * 4 * 12 * kIters;
#else
  auto body = [] {
    double acc[8];
    for (int i = 0; i < 8; ++i) acc[i] = 1.0 + i * 1e-3;
    for (long it = 0; it < kIters; ++it)
      for (int i = 0; i < 8; ++i) acc[i] = acc[i] * 0.999999 + 1e-7;
    g_sink = g_sink + acc[0] + acc[7];
  };
  const double flops = 2.0 * 8 * kIters;
#endif
  return flops / per_call_seconds(body, 5e-3, 7);
}

namespace {

// Bench-side memory stream: memcpy between two arrays of `bytes` each.
// Bytes moved count the read and the write.
double copy_bytes_per_s(std::int64_t bytes) {
  const std::size_t n = static_cast<std::size_t>(bytes) / sizeof(double);
  std::vector<double> src(n, 1.0), dst(n, 0.0);
  std::vector<double> t;
  for (int rep = 0; rep < 5; ++rep) {
    const std::int64_t t0 = now_ns();
    std::memcpy(dst.data(), src.data(), n * sizeof(double));
    t.push_back((now_ns() - t0) * 1e-9);
    src[rep] = dst[n - 1 - rep];
  }
  return 2.0 * static_cast<double>(n * sizeof(double)) / median(t);
}

// Plans the workload actually executed: one per distinct API call, from
// its warm-up report (the plan of the call's last product).
struct PlanUse {
  layout::GemmPlan plan;
  bool packfused = false;
};

// At most kMaxPlans distinct plans, in stream order, keep the probes short
// on workloads with many shapes.
constexpr std::size_t kMaxPlans = 12;

std::vector<PlanUse> strassen_plans(const Warmup& facts) {
  std::vector<PlanUse> out;
  std::set<std::tuple<int, int, int, int, int, int, int, bool>> seen;
  for (const auto& r : facts.reports) {
    const layout::GemmPlan& p = r.plan;
    // Family calls leave the top-level plan's tile fields undefined.
    if (!plan_consistent(p)) continue;
    const bool pf = std::strcmp(r.strategy, "packfused") == 0;
    if (!seen.insert({p.m.n, p.k.n, p.n.n, p.m.tile, p.k.tile, p.n.tile,
                      p.depth, pf})
             .second)
      continue;
    out.push_back({p, pf});
    if (out.size() == kMaxPlans) break;
  }
  return out;
}

// The workload's distinct product shapes (m, k, n), in stream order, at
// most 256.
std::vector<std::tuple<int, int, int>> product_shapes(const Workload& w) {
  std::set<std::tuple<int, int, int>> seen;
  std::vector<std::tuple<int, int, int>> v;
  auto add = [&](int m, int k, int n) {
    if (v.size() < 256 && seen.insert({m, k, n}).second) v.push_back({m, k, n});
  };
  for (const Item& it : w.items)
    for (const ApiCall& c : it.calls) {
      if (c.entry == Entry::kBatched)
        for (const auto& b : c.items) add(b.m, b.k, b.n);
      else
        add(c.m, c.k, c.n);
    }
  return v;
}

}  // namespace

bool plan_consistent(const layout::GemmPlan& p) {
  auto ok = [&](const layout::DimPlan& d) {
    return d.tile > 0 && d.depth == p.depth &&
           d.padded == (d.tile << p.depth) && d.padded >= d.n;
  };
  return !p.direct && p.feasible && p.depth > 0 && ok(p.m) && ok(p.k) &&
         ok(p.n);
}

std::tuple<std::size_t, std::size_t, std::size_t> quadrant_elems(
    const layout::GemmPlan& p, int level) {
  const std::size_t s = std::size_t{1} << (2 * (p.depth - 1 - level));
  return {s * p.m.tile * p.k.tile, s * p.k.tile * p.n.tile,
          s * p.m.tile * p.n.tile};
}

Metrics run_probes(Workload& w, const Warmup& facts,
                   strassen::parallel::ThreadPool* pool, UnitCosts* costs) {
  Metrics out;
  auto put = [&](const std::string& name, double v, const char* unit) {
    out.push_back({name, v, unit});
  };
  const kernels::LeafKernels& K = kernels::active();
  std::vector<PlanUse> plans = strassen_plans(facts);
  // A workload whose calls all ran direct still gets its layers probed.
  if (plans.empty()) plans.push_back({layout::plan_gemm(256, 256, 256), false});

  // ---- leaf kernel at the executed tiles --------------------------------
  std::set<UnitCosts::Tile> tiles;
  for (const PlanUse& p : plans)
    tiles.insert({p.plan.m.tile, p.plan.n.tile, p.plan.k.tile});
  double lf = 0, lt = 0, ff = 0, ft = 0;
  for (const auto& [tm, tn, tk] : tiles) {
    const auto a = random_vec(std::size_t(tm) * tk, 1),
               a2 = random_vec(std::size_t(tm) * tk, 2),
               b = random_vec(std::size_t(tk) * tn, 3),
               b2 = random_vec(std::size_t(tk) * tn, 4);
    std::vector<double> c(std::size_t(tm) * tn);
    const double flops = 2.0 * tm * tn * tk;
    const double s = per_call_seconds([&] {
      K.gemm(tm, tn, tk, a.data(), tm, b.data(), tk, c.data(), tm,
             LeafMode::Overwrite, 1.0);
    });
    const double sf = per_call_seconds([&] {
      K.gemm_fused_ab(tm, tn, tk, a.data(), a2.data(), kernels::FusedOp::kAdd,
                      tm, b.data(), b2.data(), kernels::FusedOp::kSub, tk,
                      c.data(), tm);
    });
    costs->leaf_s[{tm, tn, tk}] = s;
    costs->fused_s[{tm, tn, tk}] = sf;
    // Pack-fused leaves stage their A and B tiles from column-major panels
    // inside larger operands: a copy, or a sum of two for fused leaves.
    {
      using strassen::blas::PackSrc;
      const auto sa = random_vec(std::size_t(2 * tm) * tk, 14),
                 sb = random_vec(std::size_t(2 * tk) * tn, 15);
      std::vector<double> pa(std::size_t(tm) * tk), pb(std::size_t(tk) * tn);
      const PackSrc<double> a0{sa.data(), 2 * tm, false, tm, tk},
          a1{sa.data() + tm, 2 * tm, false, tm, tk},
          b0{sb.data(), 2 * tk, false, tk, tn},
          b1{sb.data() + tk, 2 * tk, false, tk, tn};
      costs->stage_s[{tm, tn, tk}] = per_call_seconds([&] {
        strassen::blas::pack_panel(pa.data(), tm, tk, a0);
        strassen::blas::pack_panel(pb.data(), tk, tn, b0);
      });
      costs->stage_sum_s[{tm, tn, tk}] = per_call_seconds([&] {
        strassen::blas::pack_panel_sum(pa.data(), tm, tk, a0,
                                       strassen::analysis::Sign::kPlus, a1);
        strassen::blas::pack_panel_sum(pb.data(), tk, tn, b0,
                                       strassen::analysis::Sign::kMinus, b1);
      });
    }
    lf += flops;
    lt += s;
    ff += flops;
    ft += sf;
  }
  costs->leaf_flops_per_s = lf / lt;
  costs->fused_flops_per_s = ff / ft;
  const double peak = fma_peak_flops_per_s();
  double lo = 1e300, hi = 0;
  for (int t = 16; t <= 64; ++t) {
    const auto a = random_vec(std::size_t(t) * t, 5),
               b = random_vec(std::size_t(t) * t, 6);
    std::vector<double> c(std::size_t(t) * t);
    const double s = per_call_seconds(
        [&] {
          K.gemm(t, t, t, a.data(), t, b.data(), t, c.data(), t,
                 LeafMode::Overwrite, 1.0);
        },
        1e-3, 3);
    const double r = 2.0 * t * t * t / s;
    lo = std::min(lo, r);
    hi = std::max(hi, r);
  }
  put("blas.leaf_gflops", costs->leaf_flops_per_s * 1e-9, "GF/s");
  put("blas.fused_leaf_gflops", costs->fused_flops_per_s * 1e-9, "GF/s");
  put("blas.fma_peak_gflops", peak * 1e-9, "GF/s");
  put("blas.leaf_peak_frac", costs->leaf_flops_per_s / peak, "frac");
  put("blas.leaf_tile_spread", lo / hi, "frac");

  // ---- memory stream, element-wise add, packing ----------------------------
  // Arrays of 4x the LLC, capped at 128 MiB each to keep the probe small.
  costs->copy_array_bytes =
      std::min<std::int64_t>(4 * llc_bytes(), std::int64_t{128} << 20);
  const double copy = copy_bytes_per_s(costs->copy_array_bytes);
  std::set<std::size_t> quads;
  for (const PlanUse& p : plans)
    for (int l = 0; l < p.plan.depth; ++l) {
      const auto [qa, qb, qc] = quadrant_elems(p.plan, l);
      quads.insert({qa, qb, qc});
    }
  double vb = 0, vt = 0;
  for (std::size_t q : quads) {
    const auto a = random_vec(q, 7), b = random_vec(q, 8);
    std::vector<double> d(q);
    const double t =
        per_call_seconds([&] { K.vadd(q, d.data(), a.data(), b.data()); });
    costs->vadd_s[q] = t;
    vt += t;
    vb += 24.0 * q;
  }
  costs->vadd_bytes_per_s = vb / vt;
  double pb = 0, pt = 0;
  {
    std::vector<const PlanUse*> pf;
    for (const PlanUse& p : plans)
      if (p.packfused) pf.push_back(&p);
    if (pf.empty())
      for (const PlanUse& p : plans) pf.push_back(&p);
    for (const PlanUse* p : pf) {
      const int m = p->plan.m.n, k = p->plan.k.n;
      const int pr = p->plan.m.padded / 2, pc = p->plan.k.padded / 2;
      const auto s1 = random_vec(std::size_t(m) * k, 9),
                 s2 = random_vec(std::size_t(m) * k, 10);
      std::vector<double> dst(std::size_t(pr) * pc);
      const strassen::blas::PackSrc<double> a{s1.data(), m, false,
                                              std::min(pr, m), std::min(pc, k)};
      const strassen::blas::PackSrc<double> b{s2.data(), m, false,
                                              std::min(pr, m), std::min(pc, k)};
      pt += per_call_seconds([&] {
        strassen::blas::pack_panel_sum(dst.data(), pr, pc, a,
                                       strassen::analysis::Sign::kMinus, b);
      });
      pb += 24.0 * pr * pc;
    }
  }
  put("mem.copy_gbps", copy * 1e-9, "GB/s");
  put("blas.vadd_gbps", costs->vadd_bytes_per_s * 1e-9, "GB/s");
  put("blas.vadd_bw_frac", costs->vadd_bytes_per_s / copy, "frac");
  costs->pack_bytes_per_s = pb / pt;
  put("blas.pack_sum_gbps", costs->pack_bytes_per_s * 1e-9, "GB/s");

  // ---- layout conversion ---------------------------------------------------
  double bytes[4] = {0, 0, 0, 0}, secs[4] = {0, 0, 0, 0};
  for (const PlanUse& p : plans) {
    const int m = p.plan.m.n, k = p.plan.k.n, n = p.plan.n.n;
    layout::MortonLayout la{m, k, p.plan.m.tile, p.plan.k.tile, p.plan.depth};
    layout::MortonLayout lc{m, n, p.plan.m.tile, p.plan.n.tile, p.plan.depth};
    const auto src = random_vec(std::size_t(m) * k, 10);
    std::vector<double> mort(static_cast<std::size_t>(
        std::max(la.elems(), lc.elems())));
    std::vector<double> c = random_vec(std::size_t(m) * n, 11);
    const double in_b = 8.0 * (double(m) * k + double(la.elems()));
    secs[0] += per_call_seconds(
        [&] {
          layout::to_morton(la, mort.data(), Op::NoTrans, src.data(), m);
        });
    secs[1] += per_call_seconds(
        [&] { layout::to_morton(la, mort.data(), Op::Trans, src.data(), k); });
    bytes[0] += in_b;
    bytes[1] += in_b;
    secs[2] += per_call_seconds([&] {
      layout::from_morton(lc, mort.data(), 1.0, c.data(), m, 0.0);
    });
    secs[3] += per_call_seconds([&] {
      layout::from_morton(lc, mort.data(), 1.0, c.data(), m, 0.5);
    });
    bytes[2] += 16.0 * m * n;
    bytes[3] += 24.0 * m * n;
  }
  double rate[4];
  for (int i = 0; i < 4; ++i) rate[i] = secs[i] > 0 ? bytes[i] / secs[i] : 0;
  costs->to_morton_bytes_per_s = rate[0];
  costs->from_morton_bytes_per_s = rate[2];
  const double conv_all =
      secs[0] > 0 ? (bytes[0] + bytes[1] + bytes[2] + bytes[3]) /
                        (secs[0] + secs[1] + secs[2] + secs[3])
                  : 0;
  put("layout.to_morton_n_gbps", rate[0] * 1e-9, "GB/s");
  put("layout.to_morton_t_gbps", rate[1] * 1e-9, "GB/s");
  put("layout.from_morton_b0_gbps", rate[2] * 1e-9, "GB/s");
  put("layout.from_morton_b1_gbps", rate[3] * 1e-9, "GB/s");
  put("layout.convert_bw_frac", conv_all / copy, "frac");

  // ---- planning and dispatch ----------------------------------------------
  const auto shapes = product_shapes(w);
  const double ns_per = 1e9 / static_cast<double>(shapes.size());
  const double plan_s = per_call_seconds([&] {
    long acc = 0;
    for (const auto& [m, k, n] : shapes)
      acc += layout::plan_gemm(m, k, n).depth;
    g_sink = g_sink + acc;
  });
  const double algo_s = per_call_seconds([&] {
    long acc = 0;
    for (const auto& [m, k, n] : shapes)
      acc += static_cast<int>(layout::choose_algo(m, k, n));
    g_sink = g_sink + acc;
  });
  std::vector<layout::GemmPlan> planned;
  for (const auto& [m, k, n] : shapes)
    planned.push_back(layout::plan_gemm(m, k, n));
  const double strat_s = per_call_seconds([&] {
    long acc = 0;
    for (std::size_t i = 0; i < shapes.size(); ++i) {
      const auto& [m, k, n] = shapes[i];
      acc += static_cast<int>(
          layout::choose_exec_strategy(planned[i], m, k, n));
    }
    g_sink = g_sink + acc;
  });
  std::vector<strassen::tune::PlanKey> keys;
  for (const auto& [m, k, n] : shapes) {
    strassen::tune::PlanKey key;
    const layout::TileOptions t{};
    key.m = m;
    key.k = k;
    key.n = n;
    key.algo = static_cast<std::uint8_t>(layout::choose_algo(m, k, n));
    key.schedule = static_cast<std::uint8_t>(
        strassen::analysis::ScheduleFamily::kAuto);
    key.strategy = static_cast<std::uint8_t>(layout::ExecStrategy::kAuto);
    key.elem_size = sizeof(double);
    key.min_tile = t.min_tile;
    key.max_tile = t.max_tile;
    key.preferred_tile = t.preferred_tile;
    key.direct_threshold = t.direct_threshold;
    key.packfused_max_depth = t.packfused_max_depth;
    key.avoid_conflict_cache_bytes = t.avoid_conflict_cache_bytes;
    key.conflict_elem_bytes = t.conflict_elem_bytes;
    key.max_tile_working_set_bytes = t.max_tile_working_set_bytes;
    keys.push_back(key);
  }
  strassen::tune::PlanCache& cache = strassen::tune::global_plan_cache();
  const double lookup_s = per_call_seconds([&] {
    long acc = 0;
    for (const auto& key : keys) acc += cache.lookup(key) != nullptr;
    g_sink = g_sink + acc;
  });
  {
    // Direct-path shape (min dimension below the direct threshold).
    constexpr int d = 32;
    const auto a = random_vec(d * d, 12), b = random_vec(d * d, 13);
    std::vector<double> c(d * d);
    auto mod = [&] {
      strassen::core::modgemm(Op::NoTrans, Op::NoTrans, d, d, d, 1.0, a.data(),
                              d, b.data(), d, 0.0, c.data(), d);
    };
    auto direct = [&] {
      strassen::blas::gemm(Op::NoTrans, Op::NoTrans, d, d, d, 1.0, a.data(), d,
                           b.data(), d, 0.0, c.data(), d);
    };
    // Alternating pairs; the median difference resists drift.
    std::vector<double> diff;
    for (int i = 0; i < 9; ++i)
      diff.push_back(per_call_seconds(mod, 2e-3, 3) -
                     per_call_seconds(direct, 2e-3, 3));
    costs->dispatch_s = median(diff);
  }
  costs->plan_s = plan_s / static_cast<double>(shapes.size());
  put("layout.plan_ns", plan_s * ns_per, "ns");
  put("layout.choose_algo_ns", algo_s * ns_per, "ns");
  put("layout.choose_strategy_ns", strat_s * ns_per, "ns");
  put("core.dispatch_ns", costs->dispatch_s * 1e9, "ns");
  put("tune.plan_cache_lookup_ns", lookup_s * ns_per, "ns");

  // ---- task scheduling ----------------------------------------------------
  if (pool != nullptr) {
    costs->fork_join7_s = per_call_seconds([&] {
      strassen::parallel::TaskGroup g(pool);
      for (int i = 0; i < 7; ++i) g.run([] {});
      g.wait();
    });
  }
  put("parallel.fork_join7_us", costs->fork_join7_s * 1e6, "us");

  // ---- in-repo baselines on the workload's own shapes ----------------------
  {
    double fl = 0, tb = 0, td = 0;
    std::set<std::tuple<int, int, int>> done;
    for (const Item& it : w.items)
      for (const ApiCall& call : it.calls) {
        const bool batched = call.entry == Entry::kBatched;
        const Op opa = batched ? call.items[0].opa : call.opa;
        const Op opb = batched ? call.items[0].opb : call.opb;
        const int m = batched ? call.items[0].m : call.m;
        const int n = batched ? call.items[0].n : call.n;
        const int k = batched ? call.items[0].k : call.k;
        if (done.size() >= 64 || !done.insert({m, n, k}).second) continue;
        const double* A = batched ? call.items[0].A : call.A;
        const double* B = batched ? call.items[0].B : call.B;
        const int lda = batched ? call.items[0].lda : call.lda;
        const int ldb = batched ? call.items[0].ldb : call.ldb;
        std::vector<double> c(std::size_t(m) * n);
        std::int64_t t0 = now_ns();
        strassen::blas::gemm(opa, opb, m, n, k, 1.0, A, lda, B, ldb, 0.0,
                             c.data(), m);
        tb += (now_ns() - t0) * 1e-9;
        t0 = now_ns();
        strassen::baselines::dgefmm(opa, opb, m, n, k, 1.0, A, lda, B, ldb, 0.0,
                                    c.data(), m);
        td += (now_ns() - t0) * 1e-9;
        fl += 2.0 * m * n * k;
      }
    costs->blocked_flops_per_s = fl / tb;
    put("ref.blocked_gflops", fl / tb * 1e-9, "GF/s");
    put("ref.dgefmm_gflops", fl / td * 1e-9, "GF/s");
  }
  return out;
}

}  // namespace perfbench
