// autotune.hpp -- empirical selection of the planner's machine parameters.
//
// The paper observes (S3.1) that every Strassen implementation uses an
// EMPIRICALLY chosen recursion truncation point -- an order of magnitude
// above the ~16 that operation counting predicts, because the real constant
// is memory behaviour.  The paper hard-codes the values for its two machines
// (tile range 16..64, DGEFMM cutoff 64).  This module measures them on the
// host instead:
//
//   * leaf survey   -- MFLOPS of the contiguous leaf kernel across candidate
//                      tile sizes; the best becomes preferred_tile, and the
//                      range is clipped to tiles within `tolerance` of the
//                      best (Morton storage is what makes this a RANGE
//                      rather than a point, per Fig. 3);
//   * crossover     -- smallest problem size where one Strassen level beats
//                      the conventional blocked algorithm; sizes below it
//                      run direct (direct_threshold);
//   * strategy      -- one-shot Morton vs pack-fused timings across probe
//                      sizes of increasing recursion depth; the deepest
//                      recursion where pack-fused still wins becomes the
//                      planner's packfused_max_depth (the Morton conversion
//                      amortizes over 7^depth leaf products, so the
//                      crossover is a DEPTH, not a size).
//
// Measurement noise makes this advisory: results are clamped to sane bounds
// and the defaults are used where the survey is inconclusive.
#pragma once

#include <utility>
#include <vector>

#include "blas/kernels/registry.hpp"
#include "layout/plan.hpp"
#include "obs/report.hpp"

namespace strassen::tune {

struct AutotuneOptions {
  // Spans the planner's default window [16, 128], so a tuned range can keep
  // the large leaves the default plans use.
  std::vector<int> candidate_tiles{16, 24, 32, 40, 48, 56,
                                  64, 80, 96, 112, 128};
  // Tiles within this factor of the best tile's MFLOPS stay in the range.
  double tolerance = 0.85;
  // Problem sizes probed for the Strassen/conventional crossover.
  std::vector<int> crossover_sizes{64, 96, 128, 160, 192, 256};
  // Probe the Morton/pack-fused execution-strategy crossover
  // (layout::TileOptions::packfused_max_depth) with one-shot square
  // problems at these sizes.  Disable to keep the planner default.
  bool survey_strategy = true;
  std::vector<int> strategy_sizes{160, 288, 544};
  int repetitions = 3;  // timing repetitions per probe
  // Survey every available leaf-kernel implementation across the candidate
  // tiles before the tile survey, so the tile range is chosen for the
  // kernel that will run.
  bool survey_kernels = true;
  // Install the winning kernel as the engine's active kernel (a
  // process-global setting, see kernels/registry.hpp).
  bool apply_best_kernel = true;
  // Attach a full GemmReport (obs/report.hpp) for one representative
  // modgemm call per surveyed kernel configuration, so tuning runs can
  // explain WHY a configuration won (leaf time and counts, phase
  // split) instead of reporting a bare MFLOPS number.
  bool collect_reports = false;
  // Problem size of that representative call.
  int report_problem_size = 256;
};

struct AutotuneResult {
  layout::TileOptions tiles;  // ready to drop into ModgemmOptions
  // Winning leaf kernel (ready to drop into ModgemmOptions::kernel); scalar
  // when the survey is off.
  blas::kernels::Kind best_kernel = blas::kernels::Kind::kScalar;
  // Diagnostics: leaf MFLOPS per (kernel, tile) probe.
  struct KernelSurveyPoint {
    blas::kernels::Kind kind;
    int tile;
    double mflops;
  };
  std::vector<KernelSurveyPoint> kernel_survey;
  // One report per surveyed kernel (same order as the distinct kinds of
  // kernel_survey); empty unless AutotuneOptions::collect_reports.
  std::vector<obs::GemmReport> config_reports;
  // Diagnostics: (tile, MFLOPS) pairs from the leaf survey.
  std::vector<std::pair<int, double>> leaf_survey;
  // (n, conventional seconds, strassen seconds) from the crossover probe.
  struct CrossoverPoint {
    int n;
    double conventional_seconds;
    double strassen_seconds;
  };
  std::vector<CrossoverPoint> crossover_probe;
  // Diagnostics from the execution-strategy probe: one-shot timings of the
  // same planned problem pinned to each strategy.  `depth` is the executed
  // recursion depth of the probe (the axis the tuned packfused_max_depth
  // lives on).  Empty unless AutotuneOptions::survey_strategy.
  struct StrategyPoint {
    int n;
    int depth;
    double morton_seconds;
    double packfused_seconds;
  };
  std::vector<StrategyPoint> strategy_probe;
};

// Runs the survey.  Costs a fraction of a second of measurement.
AutotuneResult autotune(const AutotuneOptions& opt = {});

}  // namespace strassen::tune
