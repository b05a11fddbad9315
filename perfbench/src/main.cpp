// mgbench -- the MODGEMM benchmark binary.
//
//   mgbench run    --workload W --seed N --seconds S --trace 0|1 [--spans F]
//   mgbench setup  --workload W --seed N     cold set-up time of one process
//   mgbench stream --workload W --seed N     the seeded call stream
//   mgbench selftest                          the benchmark's own checks
//
// `run` prints one JSON object as its last line; perfbench/run.py wraps it
// (build, repeated set-up, provenance) into the benchmark's result line.
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <iomanip>
#include <iostream>
#include <map>
#include <sstream>
#include <stdexcept>
#include <string>

#include "bench.hpp"
#include "blas/kernels/registry.hpp"
#include "probes.hpp"
#include "spans.hpp"
#include "tune/plan_cache.hpp"

namespace perfbench {
namespace {

namespace obs = strassen::obs;
using strassen::parallel::ThreadPool;

struct Args {
  std::string mode, workload, spans;
  std::uint64_t seed = 1;
  double seconds = 10;
  int trace = 0;
};

Args parse(int argc, char** argv) {
  if (argc < 2) throw std::invalid_argument("usage: mgbench MODE [options]");
  Args a;
  a.mode = argv[1];
  for (int i = 2; i < argc; ++i) {
    const std::string key = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument("missing value for " + key);
    const std::string val = argv[++i];
    if (key == "--workload") a.workload = val;
    else if (key == "--seed") a.seed = std::stoull(val);
    else if (key == "--seconds") a.seconds = std::stod(val);
    else if (key == "--trace") a.trace = std::stoi(val);
    else if (key == "--spans") a.spans = val;
    else throw std::invalid_argument("unknown option " + key);
  }
  return a;
}

std::unique_ptr<ThreadPool> make_pool(const Workload& w) {
  // With the helping caller, at most half of nproc threads run (at least
  // two): on a shared host, a pool as wide as the machine measures the
  // neighbours' load as much as the library.
  if (!w.pooled) return nullptr;
  return std::make_unique<ThreadPool>(std::max(1, nproc() / 2 - 1));
}

std::string num(double v) {
  std::ostringstream os;
  if (!std::isfinite(v)) return "null";
  os << std::setprecision(17) << v;
  return os.str();
}

std::string quote(const std::string& s) { return '"' + s + '"'; }

// ---- the timed loop --------------------------------------------------------

// Per-call records of one loop.  Storage is reserved up front so the timed
// loop allocates nothing itself: the process's peak RSS then depends on the
// library's allocations alone.
struct LoopStats {
  static constexpr std::size_t kReserve = std::size_t{1} << 22;
  explicit LoopStats(const Workload& w)
      : pos_flops(w.items.size()), per_class(w.classes, 0) {
    for (std::size_t i = 0; i < w.items.size(); ++i)
      pos_flops[i] = w.items[i].flops();
    secs.reserve(kReserve);
    pos.reserve(kReserve);
  }
  std::vector<double> secs;        // per call
  std::vector<std::uint32_t> pos;  // per call: its position in the round
  std::vector<double> pos_flops;   // per position
  long attempted = 0, failed = 0;
  std::vector<long> per_class;

  // Sum of flops over timed calls / sum of call times, with each call's time
  // taken as the median over the rounds of its position in the stream: a
  // call delayed by an outside interruption does not move the rate.
  double gflops() const {
    std::vector<std::vector<double>> by_pos(pos_flops.size());
    for (std::size_t i = 0; i < secs.size(); ++i)
      by_pos[pos[i]].push_back(secs[i]);
    double f = 0, t = 0;
    for (std::size_t p = 0; p < by_pos.size(); ++p) {
      std::vector<double>& v = by_pos[p];
      if (v.empty()) continue;
      std::nth_element(v.begin(), v.begin() + v.size() / 2, v.end());
      f += pos_flops[p] * v.size();
      t += v[v.size() / 2] * v.size();
    }
    return t > 0 ? f / t * 1e-9 : 0;
  }
};

// Restores, runs and checks one item.  Only the entry-point call is timed.
std::pair<std::int64_t, std::int64_t> run_item(ThreadPool* pool, Item& item,
                                               std::size_t pos, LoopStats& st,
                                               ReportSink* sink) {
  restore(item);
  bool ok = false;
  const std::int64_t t0 = now_ns();
  try {
    ok = execute(pool, item, sink);
  } catch (const std::exception& e) {
    std::cerr << "call threw: " << e.what() << "\n";
  }
  const std::int64_t t1 = now_ns();
  const double err = check(item);
  ++st.attempted;
  if (!ok || !(err <= 1.0)) {
    ++st.failed;
    std::cerr << "call failed: " << describe(item) << " error/bound=" << err
              << "\n";
  }
  st.secs.push_back((t1 - t0) * 1e-9);
  st.pos.push_back(static_cast<std::uint32_t>(pos));
  ++st.per_class[item.cls];
  return {t0, t1};
}

// Nearest-rank percentile.
double percentile(std::vector<double> v, double q) {
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(std::ceil(q * v.size()));
  return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
}

// ---- traced-run aggregation -------------------------------------------------

const char* path_of(const obs::GemmReport& r) {
  if (r.algo[0] != '\0' && std::strcmp(r.algo, "222") != 0) return "family";
  if (r.split_used) return "split";
  if (r.plan.direct || r.plan.depth <= 0) return "direct";
  if (std::strcmp(r.strategy, "packfused") == 0) return "packfused";
  return "morton";
}

int threads_of(const obs::GemmReport& r) {
  return r.parallel ? r.threads + 1 : 1;
}

// Factor from a report's phase timers to wall time.  A pooled batch sums
// its products' phases over the tasks that ran them; pmodgemm and serial
// calls time phases on the caller.
double phase_scale(const obs::GemmReport& r) {
  return r.batch_count > 0 && r.parallel ? 1.0 / threads_of(r) : 1.0;
}

// Seconds of one vadd over q elements: probed at that size, or at the
// probes' mean rate.
double vadd_seconds(const UnitCosts& c, std::size_t q) {
  const auto it = c.vadd_s.find(q);
  return it != c.vadd_s.end() ? it->second : 24.0 * q / c.vadd_bytes_per_s;
}

// Mean seconds per element-wise kernel call of a consistent Strassen plan.
// Per recursion node the Winograd schedule runs 4 sums on A quadrants, 4 on
// B and 7 combinations on C; 7^l nodes sit at level l.  With fused leaves
// the bottom level's A and B sums happen inside the leaf kernel, and
// pack-fused plans form every A and B sum while packing, so only the C
// combinations remain there.
double ew_seconds_per_op(const strassen::layout::GemmPlan& p,
                         bool fused_leaves, bool packfused,
                         const UnitCosts& c) {
  double t = 0, ops = 0;
  for (int l = 0; l < p.depth; ++l) {
    const double nodes = std::pow(7.0, l);
    const auto [qa, qb, qc] = quadrant_elems(p, l);
    const bool ab = !packfused && !(fused_leaves && l == p.depth - 1);
    t += nodes * ((ab ? 4 * vadd_seconds(c, qa) + 4 * vadd_seconds(c, qb) : 0) +
                  7 * vadd_seconds(c, qc));
    ops += nodes * (ab ? 15 : 7);
  }
  return ops > 0 ? t / ops : 0;
}

// Computed layer model of API calls: probe unit cost x the report's counts,
// per layer, in seconds of wall (work divided over the call's threads).
struct ModelParts {
  double leaf = 0, elementwise = 0, convert = 0, pack = 0, direct = 0;
  double dispatch = 0, tasks = 0;
  double total() const {
    return leaf + elementwise + convert + pack + direct + dispatch + tasks;
  }

  void add(const obs::GemmReport& r, const ApiCall& call, const UnitCosts& c) {
    const strassen::layout::GemmPlan& p = r.plan;
    const double thr = threads_of(r);
    dispatch += c.dispatch_s + c.plan_s;
    tasks += double(r.tasks_executed) * c.fork_join7_s / 7.0 / thr;
    if (p.direct || !p.feasible || p.depth <= 0) {
      direct += call.flops() / c.blocked_flops_per_s / thr;
      return;
    }
    if (!plan_consistent(p)) {
      // The report's plan does not describe the leaves (a batch or family
      // aggregate): leaf flops from the call's flops at the plan's depth,
      // element-wise calls at the probes' mean cost.
      double mean_vadd = 0;
      for (const auto& [q, t] : c.vadd_s) mean_vadd += t;
      mean_vadd /= std::max<std::size_t>(1, c.vadd_s.size());
      leaf += call.flops() * std::pow(7.0 / 8.0, p.depth) /
              c.leaf_flops_per_s / thr;
      elementwise += double(r.elementwise_calls) * mean_vadd / thr;
      return;
    }
    const UnitCosts::Tile t{p.m.tile, p.n.tile, p.k.tile};
    const double tf = 2.0 * p.m.tile * p.n.tile * p.k.tile;
    const auto li = c.leaf_s.find(t), fi = c.fused_s.find(t);
    const double leaf_s =
        li != c.leaf_s.end() ? li->second : tf / c.leaf_flops_per_s;
    const double fused_s =
        fi != c.fused_s.end() ? fi->second : tf / c.fused_flops_per_s;
    leaf += (double(r.leaf_calls) * leaf_s + double(r.fused_calls) * fused_s) /
            thr;
    const bool pf = std::strcmp(r.strategy, "packfused") == 0;
    elementwise += double(r.elementwise_calls) *
                   ew_seconds_per_op(p, r.fused_calls > 0, pf, c) / thr;
    if (pf) {
      // Every leaf stages its A and B tiles: a copy, or a sum of two.
      const auto si = c.stage_s.find(t), ssi = c.stage_sum_s.find(t);
      const double tiles_ab =
          double(p.m.tile) * p.k.tile + double(p.k.tile) * p.n.tile;
      const double stage =
          si != c.stage_s.end() ? si->second
                                : 16.0 * tiles_ab / c.pack_bytes_per_s;
      const double stage_sum = ssi != c.stage_sum_s.end()
                                   ? ssi->second
                                   : 24.0 * tiles_ab / c.pack_bytes_per_s;
      pack += (double(r.leaf_calls) * stage +
               double(r.fused_calls) * stage_sum) /
              thr;
    } else if (c.to_morton_bytes_per_s > 0) {
      const double m = p.m.n, k = p.k.n, n = p.n.n;
      const double in = 8.0 * (m * k + double(p.m.padded) * p.k.padded +
                               k * n + double(p.k.padded) * p.n.padded);
      const double out = 8.0 * m * n * (call.beta != 0.0 ? 3 : 2);
      convert += std::max(1, r.products) *
                 (in / c.to_morton_bytes_per_s +
                  out / c.from_morton_bytes_per_s) /
                 thr;
    }
  }
};

struct TraceAgg {
  double wall = 0, conv = 0, compute = 0, leaf_thread = 0, leaf = 0;
  double phases = 0, pad = 0, padded = 0, util_wall = 0, par_wall = 0;
  double leaf_calls = 0, ew_calls = 0, tasks = 0, steals = 0, cold = 0;
  double hits = 0, lookups = 0, api_calls = 0;
  std::map<std::string, double> paths;
  ModelParts model;

  void add(const obs::GemmReport& r, const ApiCall& call, const UnitCosts& c) {
    const int thr = threads_of(r);
    const double ps = phase_scale(r);
    wall += r.wall_seconds;
    conv += (r.convert_in_seconds + r.convert_out_seconds) * ps;
    compute += r.compute_seconds * ps;
    leaf += r.leaf_seconds;
    leaf_thread += r.wall_seconds * thr;
    phases += r.total_seconds() * ps;
    leaf_calls += double(r.leaf_calls + r.fused_calls);
    ew_calls += double(r.elementwise_calls);
    tasks += double(r.tasks_executed);
    steals += double(r.steals);
    cold += double(r.batch_workspace_cold_allocs);
    hits += double(r.batch_plan_cache_hits);
    lookups += double(r.batch_plan_cache_hits + r.batch_plan_cache_misses);
    if (r.parallel) {
      util_wall += r.pool_utilization() * r.wall_seconds;
      par_wall += r.wall_seconds;
    }
    if (!r.plan.direct && r.plan.feasible) {
      pad += double(r.pad_elems());
      padded += double(r.plan.padded_elems());
    }
    paths[path_of(r)] += 1;
    api_calls += 1;
    model.add(r, call, c);
  }
};

// ---- modes -----------------------------------------------------------------

void print_metrics(std::ostream& os, const Metrics& m) {
  os << '{';
  for (std::size_t i = 0; i < m.size(); ++i)
    os << (i ? ", " : "") << quote(m[i].name) << ": {\"value\": "
       << num(m[i].value) << ", \"unit\": " << quote(m[i].unit) << '}';
  os << '}';
}

int run(const Args& a) {
  Workload w = make_workload(a.workload, a.seed);
  const std::int64_t gen_end = now_ns();
  auto pool = make_pool(w);
  const Warmup facts = compute_references(w, pool.get());
  const double prep_s = (now_ns() - gen_end) * 1e-9;
  Metrics metrics;
  auto put = [&](const std::string& n, double v, const char* u) {
    metrics.push_back({n, v, u});
  };
  LoopStats plain(w), traced(w);
  UnitCosts costs;
  SpanLog spans;
  TraceAgg agg;
  // The host's FMA rate before and after the loop, for the provenance: on a
  // shared host it tells which speed a run saw.
  double host_fma[2] = {fma_peak_flops_per_s() * 1e-9, 0};
  const std::int64_t start = now_ns();
  auto elapsed = [&] { return (now_ns() - start) * 1e-9; };
  if (a.trace == 0) {
    do {
      for (std::size_t i = 0; i < w.items.size(); ++i)
        run_item(pool.get(), w.items[i], i, plain, nullptr);
    } while (elapsed() < a.seconds);
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    put("gflops", plain.gflops(), "GF/s");
    put("call_p50_ms", percentile(plain.secs, 0.5) * 1e3, "ms");
    put("call_p90_ms", percentile(plain.secs, 0.9) * 1e3, "ms");
    put("workspace_peak_mb", facts.workspace_peak_bytes * 1e-6, "MB");
    put("rss_peak_mb", ru.ru_maxrss * 1024.0 * 1e-6, "MB");
  } else {
    metrics = run_probes(w, facts, pool.get(), &costs);
    const std::int64_t loop_start = now_ns();
    // Untraced and traced rounds alternate, so drift hits both alike.
    do {
      for (std::size_t i = 0; i < w.items.size(); ++i)
        run_item(pool.get(), w.items[i], i, plain, nullptr);
      const std::int64_t ws = spans.add("workload", -1, -1, now_ns(), 0);
      for (std::size_t pos = 0; pos < w.items.size(); ++pos) {
        Item& item = w.items[pos];
        ReportSink sink;
        const auto [t0, t1] = run_item(pool.get(), item, pos, traced, &sink);
        const std::int64_t call = static_cast<std::int64_t>(spans.size());
        const std::int64_t cs = spans.add("call", ws, call, t0, t1);
        for (std::size_t i = 0; i < sink.reports.size(); ++i) {
          const obs::GemmReport& r = sink.reports[i];
          const std::int64_t s = sink.start_ns[i];
          const std::int64_t as =
              spans.add(item.calls[i].label, cs, call, s, sink.end_ns[i]);
          const double ns = phase_scale(r) * 1e9;
          const auto ci = static_cast<std::int64_t>(r.convert_in_seconds * ns);
          const auto cp = static_cast<std::int64_t>(r.compute_seconds * ns);
          const auto co = static_cast<std::int64_t>(r.convert_out_seconds * ns);
          const auto lf = std::min<std::int64_t>(
              cp, static_cast<std::int64_t>(r.leaf_seconds / threads_of(r) *
                                            1e9));
          spans.add("convert_in", as, call, s, s + ci, true);
          const std::int64_t ps =
              spans.add("compute", as, call, s + ci, s + ci + cp, true);
          spans.add("leaf", ps, call, s + ci, s + ci + lf, true);
          spans.add("convert_out", as, call, s + ci + cp, s + ci + cp + co,
                    true);
          agg.add(r, item.calls[i], costs);
        }
      }
      spans.set_end(ws, now_ns());
    } while ((now_ns() - loop_start) * 1e-9 < a.seconds);
    const double items = static_cast<double>(traced.attempted);
    double traced_wall = 0;
    for (double s : traced.secs) traced_wall += s;
    auto frac = [](double x, double y) { return y > 0 ? x / y : 0.0; };
    put("trace.convert_frac", frac(agg.conv, agg.wall), "frac");
    put("trace.compute_frac", frac(agg.compute, agg.wall), "frac");
    put("trace.leaf_frac", frac(agg.leaf, agg.leaf_thread), "frac");
    put("trace.unattributed_frac", 1.0 - frac(agg.phases, agg.wall), "frac");
    put("trace.leaf_calls", agg.leaf_calls / items, "count/call");
    put("trace.elementwise_calls", agg.ew_calls / items, "count/call");
    put("trace.pad_frac", frac(agg.pad, agg.padded), "frac");
    for (const char* p : {"direct", "morton", "packfused", "split", "family"})
      put(std::string("trace.calls_") + p, frac(agg.paths[p], agg.api_calls),
          "frac");
    put("trace.tasks", agg.tasks / items, "count/call");
    put("trace.steals", agg.steals / items, "count/call");
    put("trace.pool_utilization", frac(agg.util_wall, agg.par_wall), "frac");
    put("trace.plan_cache_hit_frac", frac(agg.hits, agg.lookups), "frac");
    put("trace.cold_allocs", agg.cold / items, "count/call");
    put("trace.overhead_frac", plain.gflops() / traced.gflops() - 1.0, "frac");
    // Computed, not measured: probe unit costs x traced counts, over the
    // measured wall time of the traced calls.
    put("model.attributed_frac", frac(agg.model.total(), traced_wall), "frac");
    put("model.leaf_frac", frac(agg.model.leaf, traced_wall), "frac");
    put("model.elementwise_frac", frac(agg.model.elementwise, traced_wall),
        "frac");
    put("model.convert_frac", frac(agg.model.convert, traced_wall), "frac");
    put("model.pack_frac", frac(agg.model.pack, traced_wall), "frac");
    put("model.direct_frac", frac(agg.model.direct, traced_wall), "frac");
    put("model.dispatch_frac",
        frac(agg.model.dispatch + agg.model.tasks, traced_wall), "frac");
    if (!a.spans.empty() && !spans.write(a.spans))
      std::cerr << "cannot write spans to " << a.spans << "\n";
    for (const auto& [name, sec] : spans.self_seconds())
      std::cout << "self_time " << name << " " << num(sec) << " s\n";
  }
  host_fma[1] = fma_peak_flops_per_s() * 1e-9;
  const long attempted = plain.attempted + traced.attempted;
  const long failed = plain.failed + traced.failed;
  std::vector<long> per_class(w.classes, 0);
  for (int c = 0; c < w.classes; ++c)
    per_class[c] = plain.per_class[c] + traced.per_class[c];

  std::ostringstream os;
  os << "{\"correct\": " << (failed == 0 ? "true" : "false")
     << ", \"attempted\": " << attempted << ", \"failed\": " << failed
     << ", \"metrics\": ";
  print_metrics(os, metrics);
  os << ", \"provenance\": {\"workload\": " << quote(w.name)
     << ", \"seed\": " << a.seed << ", \"trace\": " << a.trace
     << ", \"fingerprint\": " << quote(strassen::tune::tune_cache_fingerprint())
     << ", \"kernel\": "
     << quote(strassen::blas::kernels::kind_name(
            strassen::blas::kernels::active_kernel()))
     << ", \"avx2_variant\": "
     << quote(strassen::blas::kernels::variant_name(
            strassen::blas::kernels::avx2_variant()))
     << ", \"register_block\": \""
     << strassen::blas::kernels::active().mr << 'x'
     << strassen::blas::kernels::active().nr << '"'
     << ", \"nproc\": " << nproc()
     << ", \"pool_width\": " << (pool ? pool->thread_count() : 0)
     << ", \"llc_bytes\": " << llc_bytes()
     << ", \"timed_samples\": " << plain.secs.size()
     << ", \"p90_tail_samples\": "
     << (plain.secs.size() -
         static_cast<std::size_t>(std::ceil(0.9 * plain.secs.size())))
     << ", \"prep_s\": " << num(prep_s) << ", \"host_fma_gflops\": ["
     << num(host_fma[0]) << ", " << num(host_fma[1])
     << "], \"calls_per_class\": {";
  for (int c = 0; c < w.classes; ++c)
    os << (c ? ", " : "") << quote(w.class_names[c]) << ": " << per_class[c];
  os << '}';
  if (a.trace) {
    os << ", \"traced_samples\": " << traced.secs.size()
       << ", \"copy_array_bytes\": " << costs.copy_array_bytes
       << ", \"spans\": " << spans.size();
  }
  os << "}}";
  std::cout << os.str() << std::endl;
  return 0;
}

int setup(const Args& a) {
  Workload w = make_workload(a.workload, a.seed);
  // Set-up starts after input generation: pool start, kernel probe, arena
  // first touch and plan-cache fill, up to the end of the first call of
  // every shape class.
  const std::int64_t t0 = now_ns();
  auto pool = make_pool(w);
  // Each class opens with its largest call, so the work set-up does is the
  // same on every seed (classes whose calls differ in shape: small-mixed).
  std::vector<Item*> first(w.classes, nullptr);
  for (Item& item : w.items)
    if (!first[item.cls] || item.flops() > first[item.cls]->flops())
      first[item.cls] = &item;
  for (Item* item : first) execute(pool.get(), *item, nullptr);
  const double s = (now_ns() - t0) * 1e-9;
  std::cout << "{\"setup_s\": " << num(s) << "}" << std::endl;
  return 0;
}

int stream(const Args& a) {
  const Workload w = make_workload(a.workload, a.seed);
  for (const Item& item : w.items)
    std::cout << w.class_names[item.cls] << ' ' << describe(item) << '\n';
  return 0;
}

// The benchmark's own checks: a perturbed C is caught, and reports are fresh
// per call.
int selftest() {
  int bad = 0;
  auto expect = [&](bool ok, const std::string& what) {
    std::cout << (ok ? "PASS " : "FAIL ") << what << "\n";
    if (!ok) ++bad;
  };
  Workload w = make_workload("small-mixed", 7);
  compute_references(w, nullptr);
  // The first item of the stream and its largest (a Strassen product).
  Item* item = &w.items.front();
  for (Item& it : w.items)
    if (it.flops() > item->flops()) item = &it;
  for (Item* it : {&w.items.front(), item}) {
    restore(*it);
    execute(nullptr, *it, nullptr);
    expect(check(*it) <= 1.0, "unperturbed C passes: " + describe(*it));
    CheckRegion& r = it->calls[0].regions[0];
    double& c = r.c[(r.n / 2) * r.ldc + r.m / 2];
    const double keep = c;
    c += 2 * r.tol;
    expect(check(*it) > 1.0, "C element moved by twice the bound is caught");
    c = std::nan("");
    expect(std::isnan(check(*it)), "NaN in C is caught");
    c = keep;
  }

  // Three calls through one sink: each report must describe one call only.
  // (One report reused across calls would accumulate: timers use +=.)
  Item& big = *item;
  ReportSink sink;
  for (int i = 0; i < 3; ++i) {
    restore(big);
    execute(nullptr, big, &sink);
  }
  bool fresh = sink.reports.size() == 3;
  for (std::size_t i = 0; fresh && i < 3; ++i) {
    const double call_s = (sink.end_ns[i] - sink.start_ns[i]) * 1e-9;
    fresh = sink.reports[i].wall_seconds <= call_s &&
            sink.reports[i].workspace_peak_bytes ==
                sink.reports[0].workspace_peak_bytes &&
            sink.reports[i].leaf_calls == sink.reports[0].leaf_calls;
  }
  expect(fresh, "a fresh GemmReport per call: wall <= call time, equal counts");
  obs::GemmReport shared;
  for (int i = 0; i < 3; ++i) {
    restore(big);
    execute(nullptr, big.calls[0], &shared);
  }
  expect(shared.leaf_calls == 3 * sink.reports[0].leaf_calls,
         "a reused report accumulates (3 calls, 3x the leaf calls)");
  return bad == 0 ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    const perfbench::Args a = perfbench::parse(argc, argv);
    if (a.mode == "run") return perfbench::run(a);
    if (a.mode == "setup") return perfbench::setup(a);
    if (a.mode == "stream") return perfbench::stream(a);
    if (a.mode == "selftest") return perfbench::selftest();
    std::cerr << "unknown mode " << a.mode << "\n";
  } catch (const std::exception& e) {
    std::cerr << "mgbench: " << e.what() << "\n";
  }
  return 2;
}
