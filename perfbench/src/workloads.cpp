// workloads.cpp -- the four seeded workloads, their references and checks.
#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <map>
#include <numeric>
#include <sstream>
#include <stdexcept>

#include <sched.h>
#include <unistd.h>

#include "bench.hpp"
#include "blas/gemm.hpp"
#include "common/rng.hpp"
#include "layout/plan.hpp"
#include "parallel/pmodgemm.hpp"

namespace perfbench {

using strassen::Rng;
namespace core = strassen::core;
namespace obs = strassen::obs;

int ApiCall::products() const {
  switch (entry) {
    case Entry::kBatched: return static_cast<int>(items.size());
    case Entry::kStridedBatched: return batch;
    default: return 1;
  }
}

double ApiCall::flops() const {
  if (entry == Entry::kBatched) {
    double f = 0;
    for (const auto& it : items) f += 2.0 * it.m * it.n * it.k;
    return f;
  }
  return 2.0 * m * n * k * products();
}

double Item::flops() const {
  double f = 0;
  for (const auto& c : calls) f += c.flops();
  return f;
}

double* Workload::alloc(std::size_t n) {
  storage.push_back(std::make_unique<double[]>(n));
  return storage.back().get();
}

namespace {

const char* entry_name(Entry e) {
  switch (e) {
    case Entry::kModgemm: return "modgemm";
    case Entry::kPmodgemm: return "pmodgemm";
    case Entry::kBatched: return "modgemm_batched";
    case Entry::kStridedBatched: return "modgemm_strided_batched";
  }
  return "?";
}

double* random_buffer(Workload& w, Rng& rng, std::size_t n) {
  double* p = w.alloc(n);
  rng.fill_uniform({p, n});
  return p;
}

// A region of C (m x n, leading dim ldc) restored from a window of `c0`.
CheckRegion region(Workload& w, double* c, int ldc, const double* c0, int ld0,
                   int m, int n) {
  CheckRegion r;
  r.c = c;
  r.ldc = ldc;
  r.c0 = c0;
  r.ld0 = ld0;
  r.m = m;
  r.n = n;
  r.ref = w.alloc(static_cast<std::size_t>(m) * n);
  return r;
}

// A single-product call C(m x n) <- alpha op(A) op(B) + beta C with fresh
// random operands of exactly the stored size.
ApiCall square_call(Workload& w, Rng& rng, Entry e, int n, const double* c0,
                    int ld0) {
  ApiCall c;
  c.entry = e;
  c.label = entry_name(e);
  c.m = c.n = c.k = n;
  const std::size_t nn = static_cast<std::size_t>(n) * n;
  c.A = random_buffer(w, rng, nn);
  c.B = random_buffer(w, rng, nn);
  c.C = w.alloc(nn);
  c.lda = c.ldb = c.ldc = n;
  c.regions.push_back(region(w, c.C, n, c0, ld0, n, n));
  return c;
}

Workload paper_square(std::uint64_t seed) {
  // The paper's Fig. 5 range: both sides of the padding cliffs at 256 and
  // 512, and sizes whose plans pick different leaf tiles.
  const int sizes[] = {150, 255, 257, 400, 511, 513, 700, 1000, 1024};
  Workload w;
  w.name = "paper-square";
  Rng rng(seed);
  const int ld0 = 1024;
  const double* c0 = random_buffer(w, rng, std::size_t{1024} * 1024);
  // Calls per size per round: equal flops per size, so each size takes a
  // similar share of the wall time.  The round interleaves the sizes evenly
  // in a fixed order (the seed sets the values): the process's peak RSS
  // depends on the order of allocations, so a seeded order would make
  // rss_peak_mb a property of the seed.
  std::vector<std::pair<double, Item>> slots;
  int cls = 0;
  for (int n : sizes) {
    Item proto;
    proto.cls = cls++;
    proto.calls.push_back(square_call(w, rng, Entry::kModgemm, n, c0, ld0));
    w.class_names.push_back(std::to_string(n));
    const double r = 1024.0 / n;
    const int count = std::max(1, static_cast<int>(std::lround(r * r * r)));
    for (int i = 0; i < count; ++i) slots.push_back({(i + 0.5) / count, proto});
  }
  w.classes = cls;
  std::stable_sort(slots.begin(), slots.end(),
                   [](const auto& a, const auto& b) {
                     return a.first < b.first;
                   });
  for (auto& s : slots) w.items.push_back(std::move(s.second));
  return w;
}

Workload parallel_square(std::uint64_t seed) {
  Workload w;
  w.name = "parallel-square";
  w.pooled = true;
  Rng rng(seed);
  const int ld0 = 1025;
  const double* c0 = random_buffer(w, rng, std::size_t{1025} * 1025);
  int cls = 0;
  for (int n : {1024, 1025}) {
    Item proto;
    proto.cls = cls++;
    proto.calls.push_back(square_call(w, rng, Entry::kPmodgemm, n, c0, ld0));
    w.class_names.push_back(std::to_string(n));
    w.items.push_back(proto);
  }
  w.classes = cls;
  return w;
}

// One Go-engine forward step for 8 boards of 19x19 with 256 channels.
Workload sayuri_serve(std::uint64_t seed) {
  constexpr int kBoards = 8, kCh = 256, kHW = 19 * 19;
  constexpr int kWinoTiles = 36;             // F(4x4, 3x3): 6x6 domain
  constexpr int kWinoP = kBoards * 5 * 5;    // 4x4 output tiles per board
  Workload w;
  w.name = "sayuri-serve";
  w.pooled = true;
  Rng rng(seed);
  const int ld0 = kCh + 8;
  const double* c0 = random_buffer(w, rng, std::size_t{ld0} * kHW);
  Item req;
  req.cls = 0;
  w.class_names.push_back("request");

  // 3x3 convolution as im2col: C_b(256 x 361) = W(256 x 2304) X_b(2304 x 361),
  // the weights shared by every board.
  auto conv = [&](const char* label, int k) {
    ApiCall c;
    c.entry = Entry::kBatched;
    c.label = label;
    const double* W = random_buffer(w, rng, static_cast<std::size_t>(kCh) * k);
    for (int b = 0; b < kBoards; ++b) {
      core::BatchItem it;
      it.m = kCh;
      it.n = kHW;
      it.k = k;
      it.A = W;
      it.lda = kCh;
      it.B = random_buffer(w, rng, static_cast<std::size_t>(k) * kHW);
      it.ldb = k;
      it.C = w.alloc(std::size_t{kCh} * kHW);
      it.ldc = kCh;
      c.items.push_back(it);
      c.regions.push_back(region(w, it.C, kCh, c0, ld0, kCh, kHW));
    }
    req.calls.push_back(std::move(c));
  };
  conv("conv3x3", 9 * kCh);
  conv("conv1x1", kCh);

  // Winograd-domain products, as in WinogradSgemm: 36 products of
  // op(A) = T, with every product's U and V an offset sub-block of one
  // matrix whose leading dimension exceeds the block's rows.
  {
    ApiCall c;
    c.entry = Entry::kStridedBatched;
    c.label = "winograd";
    c.opa = Op::Trans;
    c.m = kCh;
    c.n = kWinoP;
    c.k = kCh;
    c.batch = kWinoTiles;
    c.lda = kWinoTiles * kCh;
    c.stride_a = kCh;
    c.A = random_buffer(w, rng, std::size_t{kWinoTiles} * kCh * kCh);
    c.ldb = kWinoTiles * kCh;
    c.stride_b = kCh;
    c.B = random_buffer(w, rng, std::size_t{kWinoTiles} * kCh * kWinoP);
    c.ldc = kCh + 8;
    c.stride_c = std::int64_t{c.ldc} * kWinoP;
    c.C = w.alloc(static_cast<std::size_t>(c.stride_c) * kWinoTiles);
    for (int b = 0; b < kWinoTiles; ++b)
      c.regions.push_back(region(w, c.C + b * c.stride_c, c.ldc, c0, ld0,
                                 kCh, kWinoP));
    req.calls.push_back(std::move(c));
  }
  w.items.push_back(std::move(req));
  w.classes = 1;
  return w;
}

// Which planner route a small product takes, from the public planner
// functions: the shape classes of small-mixed.
int small_route(int m, int n, int k) {
  namespace layout = strassen::layout;
  if (layout::choose_algo(m, k, n) != strassen::analysis::AlgoFamily::k222)
    return 4;
  const layout::GemmPlan p = layout::plan_gemm(m, k, n);
  if (p.direct) return 0;
  if (!p.feasible) return 1;
  return p.depth <= 2 ? 2 : 3;
}

Workload small_mixed(std::uint64_t seed) {
  constexpr int kItems = 1024, kLo = 8, kHi = 320, kPad = 7;
  static const char* const kRoutes[] = {"direct", "split", "shallow", "deep",
                                        "family"};
  Workload w;
  w.name = "small-mixed";
  Rng rng(seed);
  // Shapes: a rank-1 lattice (generator 1, 397, 937 mod 1024) over
  // log-uniform strata of [8, 320], with a seeded shift per dimension and a
  // seeded jitter inside each stratum.  Every dimension's marginal covers the
  // range evenly and the three are paired evenly, so seeds differ in which
  // shapes are drawn, not in their distribution.
  const int gen[3] = {1, 397, 937};
  int shift[3];
  for (int& sh : shift) sh = rng.uniform_int(0, kItems - 1);
  const double lo = std::log(kLo), hi = std::log(kHi);
  auto size = [&](int i, int d) {
    const int stratum =
        static_cast<int>((std::int64_t{i} * gen[d] + shift[d]) % kItems);
    const double u = (stratum + rng.uniform(0.0, 1.0)) / kItems;
    const int v = static_cast<int>(std::lround(std::exp(lo + u * (hi - lo))));
    return std::clamp(v, kLo, kHi);
  };
  // The 36 (op(A), op(B), alpha, beta) combinations and the 8 ld paddings
  // are dealt in equal shares, in a seeded order.
  std::vector<int> combo(36), pad(kPad + 1);
  std::iota(combo.begin(), combo.end(), 0);
  std::iota(pad.begin(), pad.end(), 0);
  std::shuffle(combo.begin(), combo.end(), rng.engine());
  std::shuffle(pad.begin(), pad.end(), rng.engine());
  const int big = kHi + kPad;
  const std::size_t pool_elems = std::size_t{big} * big;
  const double* A = random_buffer(w, rng, pool_elems);
  const double* B = random_buffer(w, rng, pool_elems);
  const double* c0 = random_buffer(w, rng, pool_elems);
  double* C = w.alloc(pool_elems);
  const double alphas[] = {1.0, -1.0, 0.5};
  const double betas[] = {0.0, 1.0, -0.5};
  int route_index[5] = {-1, -1, -1, -1, -1};
  for (int i = 0; i < kItems; ++i) {
    ApiCall c;
    c.entry = Entry::kModgemm;
    c.label = "modgemm";
    c.m = size(i, 0);
    c.n = size(i, 1);
    c.k = size(i, 2);
    // The range's corner is always drawn, so workspace_peak_mb is the
    // range's peak rather than the draw's.
    if (i == 0) c.m = c.n = c.k = kHi;
    const int cb = combo[i % 36];
    c.opa = cb & 1 ? Op::Trans : Op::NoTrans;
    c.opb = cb & 2 ? Op::Trans : Op::NoTrans;
    c.alpha = alphas[(cb / 4) % 3];
    c.beta = betas[cb / 12];
    c.A = A;
    c.lda = (c.opa == Op::NoTrans ? c.m : c.k) + pad[i % 8];
    c.B = B;
    c.ldb = (c.opb == Op::NoTrans ? c.k : c.n) + pad[(i / 8) % 8];
    c.C = C;
    c.ldc = c.m + pad[(i / 64) % 8];
    c.regions.push_back(region(w, C, c.ldc, c0, big, c.m, c.n));
    Item it;
    const int route = small_route(c.m, c.n, c.k);
    if (route_index[route] < 0) {
      route_index[route] = w.classes++;
      w.class_names.push_back(kRoutes[route]);
    }
    it.cls = route_index[route];
    it.calls.push_back(std::move(c));
    w.items.push_back(std::move(it));
  }
  std::shuffle(w.items.begin(), w.items.end(), rng.engine());
  return w;
}

// max |x| over an r x c column-major window.
double window_max(const double* p, int ld, int r, int c) {
  double mx = 0;
  for (int j = 0; j < c; ++j)
    for (int i = 0; i < r; ++i)
      mx = std::max(mx, std::fabs(p[static_cast<std::size_t>(j) * ld + i]));
  return mx;
}

void copy_window(const double* src, int lds, double* dst, int ldd, int m,
                 int n) {
  for (int j = 0; j < n; ++j)
    std::memcpy(dst + static_cast<std::size_t>(j) * ldd,
                src + static_cast<std::size_t>(j) * lds,
                sizeof(double) * static_cast<std::size_t>(m));
}

struct Product {
  Op opa, opb;
  int m, n, k;
  double alpha, beta;
  const double *A, *B;
  int lda, ldb;
};

// The products of a call, one per region, in region order.
std::vector<Product> products_of(const ApiCall& c) {
  std::vector<Product> out;
  if (c.entry == Entry::kBatched) {
    for (const auto& it : c.items)
      out.push_back({it.opa, it.opb, it.m, it.n, it.k, it.alpha, it.beta, it.A,
                     it.B, it.lda, it.ldb});
    return out;
  }
  for (int b = 0; b < c.products(); ++b)
    out.push_back({c.opa, c.opb, c.m, c.n, c.k, c.alpha, c.beta,
                   c.A + b * c.stride_a, c.B + b * c.stride_b, c.lda, c.ldb});
  return out;
}

double error_bound(int k, int depth, double alpha_ab, double beta_c0) {
  constexpr double u = std::numeric_limits<double>::epsilon() / 2;
  return 64.0 * u * k * std::pow(3.0, depth) * alpha_ab + 4.0 * u * beta_c0;
}

std::uint64_t fnv(const void* p, std::size_t bytes, std::uint64_t h) {
  const auto* b = static_cast<const unsigned char*>(p);
  for (std::size_t i = 0; i < bytes; ++i) h = (h ^ b[i]) * 0x100000001b3ull;
  return h;
}

}  // namespace

Workload make_workload(const std::string& name, std::uint64_t seed) {
  // Mix the workload's name into the seed so workloads never share inputs.
  const std::uint64_t s =
      fnv(name.data(), name.size(), 0xcbf29ce484222325ull) ^
      (seed * 0x9E3779B97F4A7C15ull);
  if (name == "paper-square") return paper_square(s);
  if (name == "parallel-square") return parallel_square(s);
  if (name == "sayuri-serve") return sayuri_serve(s);
  if (name == "small-mixed") return small_mixed(s);
  throw std::invalid_argument("unknown workload '" + name + "'");
}

Warmup compute_references(Workload& w,
                              strassen::parallel::ThreadPool* pool) {
  Warmup facts;
  std::map<const double*, double> tol_of;  // by region ref
  for (Item& item : w.items) {
    for (ApiCall& call : item.calls) {
      if (tol_of.count(call.regions.front().ref)) continue;
      const std::vector<Product> prods = products_of(call);
      for (std::size_t i = 0; i < prods.size(); ++i) {
        const Product& p = prods[i];
        CheckRegion& r = call.regions[i];
        copy_window(r.c0, r.ld0, r.ref, r.m, r.m, r.n);
        strassen::blas::gemm(p.opa, p.opb, p.m, p.n, p.k, p.alpha, p.A, p.lda,
                             p.B, p.ldb, p.beta, r.ref, r.m);
      }
      // One reported run per distinct call: its depth sets the bound.
      for (auto& r : call.regions)
        copy_window(r.c0, r.ld0, r.c, r.ldc, r.m, r.n);
      obs::GemmReport rep;
      execute(pool, call, &rep);
      const bool family = rep.algo[0] != '\0' && std::strcmp(rep.algo, "222");
      const int depth = rep.plan.depth + (family ? 1 : 0);
      for (std::size_t i = 0; i < prods.size(); ++i) {
        const Product& p = prods[i];
        CheckRegion& r = call.regions[i];
        const int ar = p.opa == Op::NoTrans ? p.m : p.k;
        const int ac = p.opa == Op::NoTrans ? p.k : p.m;
        const int br = p.opb == Op::NoTrans ? p.k : p.n;
        const int bc = p.opb == Op::NoTrans ? p.n : p.k;
        const double ab = std::fabs(p.alpha) * window_max(p.A, p.lda, ar, ac) *
                          window_max(p.B, p.ldb, br, bc);
        const double bc0 =
            p.beta == 0.0 ? 0.0
                          : std::fabs(p.beta) *
                                window_max(r.c0, r.ld0, r.m, r.n);
        r.tol = error_bound(p.k, depth, ab, bc0);
        tol_of[r.ref] = r.tol;
      }
      facts.workspace_peak_bytes =
          std::max(facts.workspace_peak_bytes, rep.workspace_peak_bytes);
      facts.reports.push_back(rep);
    }
  }
  // Items of one class are copies of one prototype: share its bounds.
  for (Item& item : w.items)
    for (ApiCall& call : item.calls)
      for (CheckRegion& r : call.regions) r.tol = tol_of.at(r.ref);
  return facts;
}

void restore(Item& item) {
  for (ApiCall& call : item.calls)
    for (CheckRegion& r : call.regions)
      copy_window(r.c0, r.ld0, r.c, r.ldc, r.m, r.n);
}

double check(const Item& item) {
  double worst = 0;
  for (const ApiCall& call : item.calls) {
    for (const CheckRegion& r : call.regions) {
      for (int j = 0; j < r.n; ++j) {
        const double* c = r.c + static_cast<std::size_t>(j) * r.ldc;
        const double* ref = r.ref + static_cast<std::size_t>(j) * r.m;
        for (int i = 0; i < r.m; ++i) {
          const double e = std::fabs(c[i] - ref[i]) / r.tol;
          if (std::isnan(e)) return e;
          worst = std::max(worst, e);
        }
      }
    }
  }
  return worst;
}

obs::GemmReport* ReportSink::fresh() {
  reports.emplace_back();
  return &reports.back();
}

bool execute(strassen::parallel::ThreadPool* pool, ApiCall& c,
             obs::GemmReport* report) {
  switch (c.entry) {
    case Entry::kModgemm: {
      core::ModgemmOptions opt;
      opt.report = report;
      core::modgemm(c.opa, c.opb, c.m, c.n, c.k, c.alpha, c.A, c.lda, c.B,
                    c.ldb, c.beta, c.C, c.ldc, opt);
      return true;
    }
    case Entry::kPmodgemm: {
      strassen::parallel::ParallelOptions opt;
      opt.report = report;
      strassen::parallel::pmodgemm(pool, c.opa, c.opb, c.m, c.n, c.k, c.alpha,
                                   c.A, c.lda, c.B, c.ldb, c.beta, c.C, c.ldc,
                                   opt);
      return true;
    }
    case Entry::kBatched: {
      core::BatchedOptions opt;
      opt.report = report;
      return strassen::ok(core::try_modgemm_batched(
          pool, c.items.data(), static_cast<int>(c.items.size()), opt));
    }
    case Entry::kStridedBatched: {
      core::BatchedOptions opt;
      opt.report = report;
      return strassen::ok(core::try_modgemm_strided_batched(
          pool, c.opa, c.opb, c.m, c.n, c.k, c.alpha, c.A, c.lda, c.stride_a,
          c.B, c.ldb, c.stride_b, c.beta, c.C, c.ldc, c.stride_c, c.batch,
          opt));
    }
  }
  return false;
}

bool execute(strassen::parallel::ThreadPool* pool, Item& item,
             ReportSink* sink) {
  bool ok = true;
  for (ApiCall& call : item.calls) {
    if (sink == nullptr) {
      ok = execute(pool, call, nullptr) && ok;
      continue;
    }
    obs::GemmReport* rep = sink->fresh();
    sink->start_ns.push_back(now_ns());
    ok = execute(pool, call, rep) && ok;
    sink->end_ns.push_back(now_ns());
  }
  return ok;
}

std::string describe(const Item& item) {
  std::ostringstream os;
  for (const ApiCall& c : item.calls) {
    const std::vector<Product> prods = products_of(c);
    std::uint64_t h = 0xcbf29ce484222325ull;
    for (const Product& p : prods) {
      h = fnv(p.A, 8 * sizeof(double), h);
      h = fnv(p.B, 8 * sizeof(double), h);
    }
    const Product& p = prods.front();
    os << c.label << ':' << prods.size() << 'x' << p.m << 'x' << p.n << 'x'
       << p.k << ' ' << strassen::op_char(p.opa) << strassen::op_char(p.opb)
       << " a=" << p.alpha << " b=" << p.beta << " ld=" << p.lda << ','
       << p.ldb << ',' << c.regions.front().ldc << " s=" << c.stride_a << ','
       << c.stride_b << ',' << c.stride_c << " h=" << std::hex << h
       << std::dec << ';';
  }
  return os.str();
}

int nproc() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0)
    return std::max(1, CPU_COUNT(&set));
  return std::max(1L, sysconf(_SC_NPROCESSORS_ONLN));
}

std::int64_t llc_bytes() {
  // glibc answers from cpuid, the same source lscpu summarizes.
  long bytes = sysconf(_SC_LEVEL3_CACHE_SIZE);
  if (bytes <= 0) bytes = sysconf(_SC_LEVEL2_CACHE_SIZE);
  return bytes > 0 ? bytes : (std::int64_t{8} << 20);
}

}  // namespace perfbench
