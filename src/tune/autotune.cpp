#include "tune/autotune.hpp"

#include <algorithm>

#include "blas/gemm.hpp"
#include "blas/kernels.hpp"
#include "common/check.hpp"
#include "common/matrix.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "common/timer.hpp"
#include "core/modgemm.hpp"

namespace strassen::tune {

namespace {

// MFLOPS of the contiguous T x T leaf multiply.
double leaf_mflops(int tile, int reps) {
  Rng rng(static_cast<std::uint64_t>(tile));
  Matrix<double> A(tile, tile), B(tile, tile), C(tile, tile);
  rng.fill_uniform(A.storage());
  rng.fill_uniform(B.storage());
  MeasureOptions opt;
  opt.outer_reps = reps;
  // Aim for ~1ms of work per repetition.
  opt.inner_reps = std::max(
      1, static_cast<int>(2e6 / static_cast<double>(gemm_flops(tile, tile,
                                                               tile))));
  const double secs = measure(
      [&] {
        blas::gemm_leaf(tile, tile, tile, A.data(), A.ld(), B.data(), B.ld(),
                        C.data(), C.ld(), blas::LeafMode::Overwrite);
      },
      opt);
  return static_cast<double>(gemm_flops(tile, tile, tile)) / secs * 1e-6;
}

}  // namespace

AutotuneResult autotune(const AutotuneOptions& opt) {
  STRASSEN_REQUIRE(!opt.candidate_tiles.empty(), "no candidate tiles");
  STRASSEN_REQUIRE(opt.tolerance > 0.0 && opt.tolerance <= 1.0,
                   "tolerance must be in (0, 1]");
  AutotuneResult result;

  // --- kernel survey ----------------------------------------------------
  // Rank every runnable engine kernel by aggregate leaf throughput over the
  // candidate tiles, then (optionally) install the winner so the tile
  // survey below measures the kernel that will actually run.
  namespace ker = blas::kernels;
  if (opt.survey_kernels) {
    double best_total = 0.0;
    for (ker::Kind kind : ker::available_kernels()) {
      ker::ScopedKernel pin(kind);
      double total = 0.0;
      for (int tile : opt.candidate_tiles) {
        const double rate = leaf_mflops(tile, opt.repetitions);
        result.kernel_survey.push_back({kind, tile, rate});
        total += rate;
      }
      if (total > best_total) {
        best_total = total;
        result.best_kernel = kind;
      }
      if (opt.collect_reports) {
        // One observed, forced-recursion call per kernel: its report
        // carries the leaf counts and phase times behind the ranking.
        const int n = std::max(64, opt.report_problem_size);
        Rng rng(static_cast<std::uint64_t>(n));
        Matrix<double> A(n, n), B(n, n), C(n, n);
        rng.fill_uniform(A.storage());
        rng.fill_uniform(B.storage());
        core::ModgemmOptions mo;
        mo.kernel = kind;
        mo.tiles.direct_threshold = std::max(8, n / 4);
        obs::GemmReport report;
        core::modgemm(Op::NoTrans, Op::NoTrans, n, n, n, 1.0, A.data(), A.ld(),
                      B.data(), B.ld(), 0.0, C.data(), C.ld(), mo, &report);
        result.config_reports.push_back(report);
      }
    }
    if (opt.apply_best_kernel) ker::set_active_kernel(result.best_kernel);
  }

  // --- leaf survey ----------------------------------------------------
  double best_rate = 0.0;
  int best_tile = opt.candidate_tiles.front();
  for (int tile : opt.candidate_tiles) {
    const double rate = leaf_mflops(tile, opt.repetitions);
    result.leaf_survey.emplace_back(tile, rate);
    if (rate > best_rate) {
      best_rate = rate;
      best_tile = tile;
    }
  }
  // Range = candidates whose rate is within tolerance of the best; Morton
  // contiguity is what keeps this window wide (paper Fig. 3).
  int lo = best_tile, hi = best_tile;
  for (const auto& [tile, rate] : result.leaf_survey) {
    if (rate >= opt.tolerance * best_rate) {
      lo = std::min(lo, tile);
      hi = std::max(hi, tile);
    }
  }
  // The planner needs max >= 2*min so consecutive depth windows overlap.
  if (hi < 2 * lo) lo = std::max(1, hi / 2);

  result.tiles.min_tile = lo;
  result.tiles.max_tile = hi;
  result.tiles.preferred_tile = best_tile;

  // --- crossover probe --------------------------------------------------
  // Force at least one Strassen level with a permissive threshold and find
  // where it starts paying.
  int crossover = 0;
  for (int n : opt.crossover_sizes) {
    Rng rng(static_cast<std::uint64_t>(n) * 3 + 1);
    Matrix<double> A(n, n), B(n, n), C(n, n);
    rng.fill_uniform(A.storage());
    rng.fill_uniform(B.storage());
    MeasureOptions mopt;
    mopt.outer_reps = opt.repetitions;
    mopt.inner_reps = n <= 128 ? 10 : 3;
    const double t_conv = measure(
        [&] {
          blas::gemm(Op::NoTrans, Op::NoTrans, n, n, n, 1.0, A.data(), A.ld(),
                     B.data(), B.ld(), 0.0, C.data(), C.ld());
        },
        mopt);
    core::ModgemmOptions forced;
    forced.tiles.min_tile = std::max(8, lo / 2);
    forced.tiles.max_tile = hi;
    forced.tiles.preferred_tile = best_tile;
    forced.tiles.direct_threshold =
        std::max({8, n / 4, forced.tiles.min_tile});  // force recursion
    const double t_str = measure(
        [&] {
          core::modgemm(Op::NoTrans, Op::NoTrans, n, n, n, 1.0, A.data(),
                        A.ld(), B.data(), B.ld(), 0.0, C.data(), C.ld(),
                        forced);
        },
        mopt);
    result.crossover_probe.push_back({n, t_conv, t_str});
    if (crossover == 0 && t_str < t_conv) crossover = n;
  }
  // Below the crossover, Strassen loses: run those sizes direct.  Clamp to
  // sane bounds; default to the paper's 64 when the probe never crossed.
  if (crossover == 0) crossover = 2 * opt.crossover_sizes.back();
  result.tiles.direct_threshold =
      std::clamp(crossover / 2, result.tiles.max_tile, 512);

  // --- strategy probe ---------------------------------------------------
  // One-shot Morton vs pack-fused at increasing recursion depth.  Each call
  // stages (or avoids) its conversion from cold operands, which is exactly
  // the regime choose_exec_strategy's depth cutoff covers.  The deepest
  // probe where pack-fused won becomes packfused_max_depth; if pack-fused
  // never wins the cutoff drops to 0 and only the rectangular-shape rule
  // can select it.
  if (opt.survey_strategy) {
    int max_winning_depth = 0;
    for (int n : opt.strategy_sizes) {
      core::ModgemmOptions probe;
      probe.tiles = result.tiles;
      probe.tiles.min_tile = std::max(8, result.tiles.min_tile / 2);
      probe.tiles.direct_threshold =
          std::max({8, n / 4, probe.tiles.min_tile});  // force recursion
      Rng rng(static_cast<std::uint64_t>(n) * 5 + 3);
      Matrix<double> A(n, n), B(n, n), C(n, n);
      rng.fill_uniform(A.storage());
      rng.fill_uniform(B.storage());
      MeasureOptions mopt;
      mopt.outer_reps = opt.repetitions;
      mopt.inner_reps = n <= 192 ? 5 : 2;
      obs::GemmReport report;
      probe.strategy = layout::ExecStrategy::kMorton;
      const double t_morton = measure(
          [&] {
            core::modgemm(Op::NoTrans, Op::NoTrans, n, n, n, 1.0, A.data(),
                          A.ld(), B.data(), B.ld(), 0.0, C.data(), C.ld(),
                          probe, &report);
          },
          mopt);
      probe.strategy = layout::ExecStrategy::kPackFused;
      const double t_packed = measure(
          [&] {
            core::modgemm(Op::NoTrans, Op::NoTrans, n, n, n, 1.0, A.data(),
                          A.ld(), B.data(), B.ld(), 0.0, C.data(), C.ld(),
                          probe);
          },
          mopt);
      const int depth = report.plan.depth;
      result.strategy_probe.push_back({n, depth, t_morton, t_packed});
      if (t_packed < t_morton) max_winning_depth = std::max(max_winning_depth, depth);
    }
    result.tiles.packfused_max_depth = max_winning_depth;
  }

  return result;
}

}  // namespace strassen::tune
