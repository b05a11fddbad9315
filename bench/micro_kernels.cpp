// micro_kernels -- google-benchmark microbenchmarks for the library's hot
// kernels: the leaf gemm across the paper's tile range (contiguous vs
// strided) for every runnable engine kernel, the single-loop Morton quadrant
// additions vs two-loop view additions, and the layout conversions.
//
// These are the building blocks whose behaviour the paper's Fig. 3 argument
// rests on; this binary gives per-kernel numbers (ns/op, effective FLOPS)
// rather than whole-algorithm comparisons.
//
// Besides the normal google-benchmark CLI, two extra flags drive the
// engine's regression baseline:
//
//   --kernels_json=PATH   skip google-benchmark; sweep every available
//                         kernel x tile configuration and write the results
//                         as JSON (the BENCH_kernels.json artifact).  Each
//                         tile measures every kernel in alternating rounds
//                         before the next tile, so host drift enters both
//                         sides of each speedup-over-scalar ratio.
//   --check_speedup=X     with --kernels_json: exit non-zero unless the best
//                         SIMD kernel reaches X times the scalar GFLOP/s at
//                         every tile in {16, 32, 64}.  No-op when only the
//                         scalar kernel can run (portability guard for CI).
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <map>
#include <string>
#include <vector>

#include "blas/kernels.hpp"
#include "blas/kernels/registry.hpp"
#include "blas/level1.hpp"
#include "blas/view_ops.hpp"
#include "common/matrix.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "common/timer.hpp"
#include "core/modgemm.hpp"
#include "layout/convert.hpp"
#include "layout/plan.hpp"
#include "obs/report.hpp"

namespace {

using namespace strassen;

void BM_LeafGemmContiguous(benchmark::State& state) {
  const int t = static_cast<int>(state.range(0));
  Matrix<double> A(t, t), B(t, t), C(t, t);
  Rng rng(1);
  rng.fill_uniform(A.storage());
  rng.fill_uniform(B.storage());
  for (auto _ : state) {
    blas::gemm_leaf(t, t, t, A.data(), t, B.data(), t, C.data(), t,
                    blas::LeafMode::Overwrite);
    benchmark::DoNotOptimize(C.data());
  }
  state.counters["FLOPS"] = benchmark::Counter(
      2.0 * t * t * t, benchmark::Counter::kIsIterationInvariantRate);
}
BENCHMARK(BM_LeafGemmContiguous)->Arg(16)->Arg(24)->Arg(32)->Arg(33)->Arg(48)->Arg(64);

void BM_LeafGemmStrided(benchmark::State& state) {
  const int t = 32;
  const int ld = static_cast<int>(state.range(0));
  Matrix<double> M(ld, 3 * t);
  Rng rng(2);
  rng.fill_uniform(M.storage());
  const double* A = M.data();
  const double* B = M.data() + static_cast<std::size_t>(t) * ld + t;
  double* C = M.data() + static_cast<std::size_t>(2 * t) * ld + 2 * t;
  for (auto _ : state) {
    blas::gemm_leaf(t, t, t, A, ld, B, ld, C, ld, blas::LeafMode::Overwrite);
    benchmark::DoNotOptimize(C);
  }
  state.counters["FLOPS"] = benchmark::Counter(
      2.0 * t * t * t, benchmark::Counter::kIsIterationInvariantRate);
}
BENCHMARK(BM_LeafGemmStrided)->Arg(96)->Arg(128)->Arg(250)->Arg(256)->Arg(512);

// The paper's S3.3 point: Morton quadrant additions are ONE loop over
// contiguous memory...
void BM_QuadrantAddContiguous(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  std::vector<double> a(n, 1.0), b(n, 2.0), d(n);
  for (auto _ : state) {
    blas::vadd(n, d.data(), a.data(), b.data());
    benchmark::DoNotOptimize(d.data());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) * n *
                          3 * sizeof(double));
}
BENCHMARK(BM_QuadrantAddContiguous)->Arg(64 * 64)->Arg(256 * 256);

// ...while column-major quadrant additions need two nested loops over
// strided views (the DGEFMM situation).
void BM_QuadrantAddStrided(benchmark::State& state) {
  const int side = static_cast<int>(state.range(0));
  RawMem mm;
  Matrix<double> A(2 * side, 2 * side), B(2 * side, 2 * side),
      D(2 * side, 2 * side);
  Rng rng(3);
  rng.fill_uniform(A.storage());
  rng.fill_uniform(B.storage());
  for (auto _ : state) {
    blas::view_add(mm, side, side, D.data(), D.ld(), A.data(), A.ld(),
                   B.data(), B.ld());
    benchmark::DoNotOptimize(D.data());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          side * side * 3 * sizeof(double));
}
BENCHMARK(BM_QuadrantAddStrided)->Arg(64)->Arg(256);

void BM_ToMorton(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const layout::DimPlan plan = layout::choose_dim(n);
  const layout::MortonLayout l{n, n, plan.tile, plan.tile, plan.depth};
  Matrix<double> src(n, n);
  Rng rng(4);
  rng.fill_uniform(src.storage());
  std::vector<double> dst(static_cast<std::size_t>(l.elems()));
  for (auto _ : state) {
    layout::to_morton(l, dst.data(), Op::NoTrans, src.data(), src.ld());
    benchmark::DoNotOptimize(dst.data());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          l.elems() * 2 * sizeof(double));
}
BENCHMARK(BM_ToMorton)->Arg(256)->Arg(513)->Arg(1024);

void BM_FromMorton(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const layout::DimPlan plan = layout::choose_dim(n);
  const layout::MortonLayout l{n, n, plan.tile, plan.tile, plan.depth};
  Matrix<double> dst(n, n);
  std::vector<double> src(static_cast<std::size_t>(l.elems()), 1.0);
  for (auto _ : state) {
    layout::from_morton(l, src.data(), 1.0, dst.data(), dst.ld(), 0.0);
    benchmark::DoNotOptimize(dst.data());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          l.elems() * 2 * sizeof(double));
}
BENCHMARK(BM_FromMorton)->Arg(256)->Arg(513)->Arg(1024);

void BM_ToMortonTransposed(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const layout::DimPlan plan = layout::choose_dim(n);
  const layout::MortonLayout l{n, n, plan.tile, plan.tile, plan.depth};
  Matrix<double> src(n, n);
  Rng rng(5);
  rng.fill_uniform(src.storage());
  std::vector<double> dst(static_cast<std::size_t>(l.elems()));
  for (auto _ : state) {
    layout::to_morton(l, dst.data(), Op::Trans, src.data(), src.ld());
    benchmark::DoNotOptimize(dst.data());
  }
}
BENCHMARK(BM_ToMortonTransposed)->Arg(256)->Arg(513);

// ---- engine sweep: every runnable kernel configuration --------------------

namespace ker = strassen::blas::kernels;

struct KernelConfig {
  ker::Kind kind;
  std::string name;  // "scalar", "avx2-8x6", "avx512-24x8", "neon"
};

// The x86 rows are labelled with their register block ("avx2-8x6", as in
// the checked-in baseline, and "avx512-24x8").
std::vector<KernelConfig> kernel_configs() {
  std::vector<KernelConfig> out;
  for (ker::Kind kind : ker::available_kernels()) {
    std::string name = ker::kind_name(kind);
    if (kind == ker::Kind::kAvx2 || kind == ker::Kind::kAvx512) {
      const ker::LeafKernels* t = ker::kernel_table(kind);
      name += '-';
      name += std::to_string(t->mr);
      name += 'x';
      name += std::to_string(t->nr);
    }
    out.push_back({kind, name});
  }
  return out;
}

void BM_LeafGemmKernel(benchmark::State& state, KernelConfig cfg, int t) {
  ker::ScopedKernel pin(cfg.kind);
  Matrix<double> A(t, t), B(t, t), C(t, t);
  Rng rng(7);
  rng.fill_uniform(A.storage());
  rng.fill_uniform(B.storage());
  for (auto _ : state) {
    blas::gemm_leaf(t, t, t, A.data(), t, B.data(), t, C.data(), t,
                    blas::LeafMode::Overwrite);
    benchmark::DoNotOptimize(C.data());
  }
  state.counters["FLOPS"] = benchmark::Counter(
      2.0 * t * t * t, benchmark::Counter::kIsIterationInvariantRate);
}

void register_kernel_benchmarks() {
  for (const KernelConfig& cfg : kernel_configs()) {
    for (int t : {16, 24, 32, 48, 64}) {
      benchmark::RegisterBenchmark(
          ("BM_LeafGemmKernel/" + cfg.name + "/" + std::to_string(t)).c_str(),
          [cfg, t](benchmark::State& s) { BM_LeafGemmKernel(s, cfg, t); });
    }
  }
}

// ---- --kernels_json sweep (the BENCH_kernels.json regression baseline) ----

// GFLOP/s of the contiguous T x T leaf multiply under the active kernel:
// min over outer reps of the average time.
double leaf_gflops(int t, int reps) {
  Rng rng(static_cast<std::uint64_t>(t) * 11 + 5);
  Matrix<double> A(t, t), B(t, t), C(t, t);
  rng.fill_uniform(A.storage());
  rng.fill_uniform(B.storage());
  const double flops = static_cast<double>(gemm_flops(t, t, t));
  MeasureOptions opt;
  opt.outer_reps = reps;
  opt.inner_reps = std::max(1, static_cast<int>(4e6 / flops));
  const double secs = measure(
      [&] {
        blas::gemm_leaf(t, t, t, A.data(), t, B.data(), t, C.data(), t,
                        blas::LeafMode::Overwrite);
      },
      opt);
  return flops / secs * 1e-9;
}

int run_kernel_sweep(const std::string& json_path, double check_speedup) {
  // 33 and 47 are off-multiple tiles the planner picks (513 -> T = 33):
  // they run the edge blocks, which no multiple of 8 exercises.
  const std::vector<int> tiles{8, 16, 24, 32, 33, 47, 48, 64, 96};
  const std::vector<int> check_tiles{16, 32, 64};
  const std::vector<KernelConfig> configs = kernel_configs();

  // config name -> tile -> GFLOP/s, the best of kRounds alternating
  // rounds: every configuration runs once per round at one tile before the
  // next round, and all rounds of a tile finish before the next tile.
  constexpr int kRounds = 5;
  std::map<std::string, std::map<int, double>> results;
  for (int t : tiles) {
    for (int round = 0; round < kRounds; ++round) {
      for (const KernelConfig& cfg : configs) {
        ker::ScopedKernel pin(cfg.kind);
        double& best = results[cfg.name][t];
        best = std::max(best, leaf_gflops(t, /*reps=*/1));
      }
    }
  }
  // config name -> one observed modgemm call's GemmReport (JSON), giving
  // each configuration's leaf counts and phase split at n = 256.
  std::map<std::string, std::string> modgemm_reports;
  for (const KernelConfig& cfg : configs) {
    ker::ScopedKernel pin(cfg.kind);
    const int n = 256;
    Rng rng(static_cast<std::uint64_t>(n));
    Matrix<double> A(n, n), B(n, n), C(n, n);
    rng.fill_uniform(A.storage());
    rng.fill_uniform(B.storage());
    core::ModgemmOptions mo;
    mo.tiles.direct_threshold = 64;  // guarantee a Strassen execution
    obs::GemmReport report;
    core::modgemm(Op::NoTrans, Op::NoTrans, n, n, n, 1.0, A.data(), A.ld(),
                  B.data(), B.ld(), 0.0, C.data(), C.ld(), mo, &report);
    modgemm_reports[cfg.name] = obs::to_json(report);
  }

  // ---- execution-strategy sweep: MODGEMM end-to-end per strategy ---------
  // Effective GFLOP/s of the full product through the public API with the
  // execution strategy pinned; the "tile" key of these rows is the problem
  // size.  The packfused/morton ratio measured in the same run is machine-
  // stable, so compare_bench.py gates it exactly like the SIMD/scalar
  // leaf-kernel ratios.
  std::map<std::string, std::map<int, double>> strategy_results;
  for (int n : {256, 513}) {
    Rng rng(static_cast<std::uint64_t>(n) * 13 + 1);
    Matrix<double> A(n, n), B(n, n), C(n, n);
    rng.fill_uniform(A.storage());
    rng.fill_uniform(B.storage());
    const double flops = static_cast<double>(gemm_flops(n, n, n));
    MeasureOptions mopt;
    mopt.outer_reps = 3;
    mopt.inner_reps = n < 500 ? 3 : 1;
    mopt.warmup = 1;
    for (layout::ExecStrategy strat :
         {layout::ExecStrategy::kMorton, layout::ExecStrategy::kPackFused}) {
      core::ModgemmOptions mo;
      mo.strategy = strat;
      const double secs = measure(
          [&] {
            core::modgemm(Op::NoTrans, Op::NoTrans, n, n, n, 1.0, A.data(),
                          A.ld(), B.data(), B.ld(), 0.0, C.data(), C.ld(),
                          mo);
          },
          mopt);
      strategy_results[std::string("modgemm-") +
                       layout::strategy_name(strat)][n] = flops / secs * 1e-9;
    }
  }

  std::ofstream os(json_path);
  if (!os) {
    std::cerr << "micro_kernels: cannot write " << json_path << "\n";
    return 1;
  }
  os << "{\n  \"benchmark\": \"leaf_gemm_kernel_sweep\",\n";
  os << "  \"active_default\": \"" << ker::kind_name(ker::active_kernel())
     << "\",\n";
  os << "  \"compiled\": [";
  {
    bool first = true;
    for (ker::Kind k : ker::compiled_kernels()) {
      os << (first ? "" : ", ") << '"' << ker::kind_name(k) << '"';
      first = false;
    }
  }
  os << "],\n  \"results\": [\n";
  bool first_row = true;
  for (const auto& [name, per_tile] : results) {
    for (const auto& [t, gflops] : per_tile) {
      os << (first_row ? "" : ",\n") << "    {\"kernel\": \"" << name
         << "\", \"tile\": " << t << ", \"gflops\": " << gflops << "}";
      first_row = false;
    }
  }
  for (const auto& [name, per_size] : strategy_results) {
    for (const auto& [n, gflops] : per_size) {
      os << (first_row ? "" : ",\n") << "    {\"kernel\": \"" << name
         << "\", \"tile\": " << n << ", \"gflops\": " << gflops << "}";
      first_row = false;
    }
  }
  os << "\n  ],\n";
  os << "  \"modgemm_reports\": {\n";
  {
    bool first = true;
    for (const auto& [name, json] : modgemm_reports) {
      os << (first ? "" : ",\n") << "    \"" << name << "\": " << json;
      first = false;
    }
  }
  os << "\n  },\n";
  // Speedup of the best non-scalar configuration over scalar, per tile.
  os << "  \"best_simd_speedup_vs_scalar\": {";
  bool first_t = true;
  bool check_failed = false;
  for (int t : tiles) {
    double best_simd = 0.0;
    for (const auto& [name, per_tile] : results)
      if (name != "scalar") best_simd = std::max(best_simd, per_tile.at(t));
    const double scalar = results.at("scalar").at(t);
    const double speedup = scalar > 0.0 && best_simd > 0.0
                               ? best_simd / scalar
                               : 0.0;
    os << (first_t ? "" : ", ") << '"' << t << "\": "
       << (results.size() > 1 ? speedup : 1.0);
    first_t = false;
    if (check_speedup > 0.0 && results.size() > 1 &&
        std::find(check_tiles.begin(), check_tiles.end(), t) !=
            check_tiles.end() &&
        speedup < check_speedup) {
      std::cerr << "micro_kernels: speedup check FAILED at T=" << t << ": "
                << speedup << "x < " << check_speedup << "x\n";
      check_failed = true;
    }
  }
  os << "}\n}\n";
  os.close();
  std::cout << "wrote " << json_path << "\n";
  for (const auto& [name, per_tile] : results) {
    std::cout << "  " << name << ":";
    for (const auto& [t, gflops] : per_tile)
      std::cout << "  T=" << t << " " << gflops << " GF/s";
    std::cout << "\n";
  }
  for (const auto& [name, per_size] : strategy_results) {
    std::cout << "  " << name << ":";
    for (const auto& [n, gflops] : per_size)
      std::cout << "  n=" << n << " " << gflops << " GF/s";
    std::cout << "\n";
  }
  if (check_speedup > 0.0 && results.size() == 1)
    std::cout << "speedup check skipped: only the scalar kernel is available\n";
  return check_failed ? 1 : 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::string json_path;
  double check_speedup = 0.0;
  // Strip our flags before handing argv to google-benchmark.
  int out = 1;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--kernels_json=", 0) == 0) {
      json_path = arg.substr(15);
    } else if (arg.rfind("--check_speedup=", 0) == 0) {
      check_speedup = std::atof(arg.c_str() + 16);
    } else {
      argv[out++] = argv[i];
    }
  }
  argc = out;
  if (!json_path.empty()) return run_kernel_sweep(json_path, check_speedup);

  register_kernel_benchmarks();
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
