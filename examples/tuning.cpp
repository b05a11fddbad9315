// tuning -- exploring the planner's tuning knobs (TileOptions).
//
// The paper fixes the tile range to [16, 64] for its machines' caches; the
// library defaults to [16, 128], preferring 64, for its SIMD leaf.  This
// example shows how the knobs interact for a problem size of your choice:
// for several tile ranges it prints the chosen plan (tile, depth, padding),
// the arithmetic implied by that plan, and the measured time.
//
// Usage: ./tuning [n]
#include <cstdio>
#include <cstdlib>

#include "common/rng.hpp"
#include "common/stats.hpp"
#include "common/timer.hpp"
#include "core/modgemm.hpp"
#include "tune/plan_cache.hpp"

using namespace strassen;

int main(int argc, char** argv) {
  const int n = argc > 1 ? std::atoi(argv[1]) : 513;
  std::printf("Planner tuning exploration at n = %d\n\n", n);

  struct Config {
    const char* name;
    layout::TileOptions tiles;
  };
  const Config configs[] = {
      {"library default[16,128] pref 64", layout::TileOptions{}},
      {"paper          [16,64] pref 32", layout::kPaperTileWindow},
      {"small tiles    [8,32]  pref 16", {8, 32, 16, 32}},
      {"large tiles    [32,128] pref 64", {32, 128, 64, 128}},
      {"prefer largest [16,64] pref 64", {16, 64, 64, 64}},
      {"prefer smallest[16,64] pref 16", {16, 64, 16, 64}},
  };

  Matrix<double> A(n, n), B(n, n), C(n, n);
  Rng rng(1);
  rng.fill_uniform(A.storage());
  rng.fill_uniform(B.storage());

  std::printf("%-34s %6s %6s %7s %5s %12s %9s\n", "config", "tile", "depth",
              "padded", "pad", "strassen-flops", "time(ms)");
  for (const Config& cfg : configs) {
    const layout::DimPlan plan = layout::choose_dim(n, cfg.tiles);
    core::ModgemmOptions opt;
    opt.tiles = cfg.tiles;
    const double secs = measure(
        [&] {
          core::modgemm(Op::NoTrans, Op::NoTrans, n, n, n, 1.0, A.data(),
                        A.ld(), B.data(), B.ld(), 0.0, C.data(), C.ld(), opt);
        },
        MeasureOptions{2, n < 500 ? 3 : 1, 1});
    std::printf("%-34s %6d %6d %7d %5d %12llu %9.1f\n", cfg.name, plan.tile,
                plan.depth, plan.padded, plan.pad(),
                static_cast<unsigned long long>(
                    winograd_flops(plan.padded, plan.depth)),
                1e3 * secs);
  }
  std::printf(
      "\nReading the table: deeper recursion cuts Strassen flops (x7/8 per "
      "level) but adds 15 quadrant\npasses per level and shrinks the leaves; "
      "the paper's [16,64] range with preferred tile 32\nkept leaves "
      "cache-sized for its 1998 caches, while the default [16,128] with "
      "preferred 64\nkeeps this library's SIMD leaf at full speed.  Every "
      "range keeps padding small (the\npaper's central contribution).\n");

  // Let the auto-tuner measure this host's parameters (the paper picked its
  // values empirically per machine; src/tune automates that survey).  Going
  // through autotune_cached means a process that already surveyed -- or a
  // previous process that left a warm STRASSEN_TUNE_CACHE file -- skips the
  // measurement entirely.
  std::printf("\nAuto-tuner survey of this host:\n");
  const tune::CachedAutotune cached = tune::autotune_cached();
  const tune::AutotuneResult& tuned = cached.result;
  std::printf("  source: %s\n", tune::tune_source_name(cached.source));
  if (!tuned.leaf_survey.empty()) {
    std::printf("  leaf kernel: ");
    for (const auto& [tile, mflops] : tuned.leaf_survey)
      std::printf("T=%d:%.0f  ", tile, mflops);
    std::printf("MFLOPS\n");
  }
  std::printf(
      "  chosen: tiles [%d,%d], preferred %d, direct threshold %d\n",
      tuned.tiles.min_tile, tuned.tiles.max_tile, tuned.tiles.preferred_tile,
      tuned.tiles.direct_threshold);
  return 0;
}
