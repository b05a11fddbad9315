// plan.hpp -- dynamic selection of the recursion truncation point.
//
// The paper's central planning idea (S3.4): the truncation tile size T and
// the recursion depth d jointly determine the padded size n' = T * 2^d >= n.
// Because Morton layout makes leaf performance insensitive to T across a
// range (16..64 in the paper, Fig. 2/3), T can be chosen PER PROBLEM SIZE to
// minimize padding -- bounding the pad by a small constant (worst case 15 for
// the paper's range) where a fixed T pads by up to ~n.
//
// Worked examples from the paper that this module reproduces under the
// paper's window kPaperTileWindow (T in [16, 64], preferred 32):
//   n = 513          -> T = 33, d = 4, n' = 528 (pad 15)
//   n in [505, 512]  -> T = 32, d = 4, n' = 512
//   n = 513, fixed T=32 -> n' = 1024 (the pathological case motivating all
//                          of this)
// The library's default window is T in [16, 128], preferred 64: this
// library's leaf is not flat across the paper's range (T = 16-23 runs well
// below T >= 36), and each level it saves also saves that level's 15
// memory-bound quadrant additions.  Under it, 513 plans T = 65, d = 3
// (n' = 520) and 1024 plans T = 64, d = 4.
#pragma once

#include <cstdint>
#include <vector>

#include "analysis/schedule.hpp"

namespace strassen::layout {

// How a planned Strassen product executes (strategy selection lives in the
// planner because it is a per-plan property, like the schedule family):
//
//   kMorton     stage op(A), op(B) into zero-padded Morton buffers, recurse
//               over contiguous tiles, convert back with the alpha/beta merge
//               (the paper's design; conversion costs 5-15% of the call,
//               Fig. 7).
//   kPackFused  run the same schedule tables directly from the caller's
//               column-major storage: boundary zero padding folds into leaf
//               packing (blas/pack.hpp), a transposed operand is copied once
//               at entry, and the schedule's output combinations accumulate
//               C +-= P in place -- no Morton buffers exist at all (Huang et
//               al., BLIS-style).
//   kAuto       (options/env only) defer: per-call pin, then the
//               STRASSEN_STRATEGY env override, then the planner heuristic
//               (layout::choose_exec_strategy).
//
// Both strategies execute the same verified schedules with the same leaf
// kernels and are bit-identical for all alpha/beta (docs/DESIGN.md).
enum class ExecStrategy : std::uint8_t {
  kAuto = 0,
  kMorton,
  kPackFused,
};

constexpr const char* strategy_name(ExecStrategy s) {
  switch (s) {
    case ExecStrategy::kAuto: return "auto";
    case ExecStrategy::kMorton: return "morton";
    case ExecStrategy::kPackFused: return "packfused";
  }
  return "unknown";
}

// Tuning knobs for the planner.  The tile window defaults to [16, 128]; the
// paper's is kPaperTileWindow below.
struct TileOptions {
  int min_tile = 16;        // smallest leaf tile considered
  int max_tile = 128;       // largest leaf tile considered
  int preferred_tile = 64;  // tie-break target, inside the tiles (T >= 36)
                            // where the SIMD leaf runs at full speed; it
                            // measured T = 16-23 well below that
  int direct_threshold = 64;  // problems with min-dimension <= this skip
                              // Strassen entirely (depth 0)
  // Conflict-aware selection (this library's completion of the paper's S4.2
  // future work).  The paper found that when sibling Morton quadrants are
  // separated by a multiple of the cache size -- tile 32 with 8-byte
  // elements puts the NW and SW quadrants of a 64x64 block exactly 16KB
  // apart -- they thrash a direct-mapped cache, causing the elevated miss
  // ratios at n in [505,512] (Fig. 9).  When avoid_conflict_cache_bytes is
  // nonzero, the planner treats tiles whose sibling-quadrant separation
  // (2 * T^2 * elem bytes) is a multiple of that cache size as
  // last-resort choices, eliminating the alignment at the cost of a few
  // extra pad elements.  0 (the default, and the paper's behaviour)
  // disables the heuristic.
  std::size_t avoid_conflict_cache_bytes = 0;
  std::size_t conflict_elem_bytes = 8;  // element size the heuristic assumes

  // Capacity-aware selection: the paper's PRIMARY condition on T (S3.3) is
  // that tiles fit the first-level cache; minimizing padding alone can pick
  // e.g. T = 63 (three-tile working set 3*63^2*8 = 93KB) where a deeper
  // recursion with T = 32 (24KB) would stream from L1.  When nonzero, tiles
  // whose three-operand working set exceeds this many bytes are last-resort
  // choices, like conflicting tiles.  0 (default) keeps the paper's pure
  // padding objective.
  std::size_t max_tile_working_set_bytes = 0;

  // Strategy heuristic knob (choose_exec_strategy): plans at most this deep
  // prefer the pack-fused strategy when the caller pins nothing -- shallow
  // recursions amortize the Morton conversion over few products, so skipping
  // it wins.  Deeper square recursions reuse each converted tile across many
  // products and keep the Morton strategy.  The autotuner's strategy
  // crossover probe (tune/autotune.hpp) measures and overrides this per
  // machine.
  int packfused_max_depth = 2;

  // True if a leaf tile of side `tile` aligns sibling quadrants at a
  // multiple of the configured cache size at the leaf level or within the
  // next two levels of the quadtree (separations scale by 4x per level, so
  // an alignment can first appear above the leaves -- e.g. tile 16 is clean
  // at the leaf but its 2x2 groups land 16KB apart).
  bool tile_conflicts(int tile) const {
    if (avoid_conflict_cache_bytes == 0) return false;
    std::size_t sep =
        2 * static_cast<std::size_t>(tile) * tile * conflict_elem_bytes;
    for (int level = 0; level < 3; ++level, sep *= 4) {
      if (sep % avoid_conflict_cache_bytes == 0) return true;
    }
    return false;
  }

  // True if the leaf multiply's three-tile working set overflows the
  // configured cache budget.
  bool tile_oversized(int tile) const {
    if (max_tile_working_set_bytes == 0) return false;
    return 3 * static_cast<std::size_t>(tile) * tile * conflict_elem_bytes >
           max_tile_working_set_bytes;
  }

  // Combined penalty used by the planner's comparators.
  int tile_penalty(int tile) const {
    return static_cast<int>(tile_conflicts(tile)) +
           static_cast<int>(tile_oversized(tile));
  }
};

// The paper's window (S3.3-3.4): T in [16, 64], preferred 32 (the tile that
// fits its 8KB direct-mapped L1).  Its worked examples, Fig. 2's padding
// curves and Fig. 9's conflict zone are stated under this window.
inline constexpr TileOptions kPaperTileWindow{16, 64, 32};

// Plan for one matrix dimension.
struct DimPlan {
  int n = 0;       // logical size
  int tile = 0;    // leaf tile extent in this dimension (T)
  int depth = 0;   // recursion depth (d)
  int padded = 0;  // n' = tile << depth
  int pad() const { return padded - n; }
};

// Chooses (tile, depth) minimizing padding over all feasible depths, with the
// paper's range [opt.min_tile, opt.max_tile].  Ties are broken toward the
// tile closest to opt.preferred_tile, then toward the larger tile.
// For n <= opt.direct_threshold the result has depth 0 and tile n (no pad).
DimPlan choose_dim(int n, const TileOptions& opt = {});

// Same minimization but with the recursion depth fixed (used to force the
// three dimensions of a product onto a common depth).  Returns a plan with
// tile == 0 if no tile in range can cover n at this depth.
DimPlan choose_dim_at_depth(int n, int depth, const TileOptions& opt = {});

// The static-padding strawman: fixed tile size, depth grows until the padded
// size covers n.  This is what Fig. 2's "fixed T = 32" line plots.
DimPlan fixed_tile_dim(int n, int tile);

// Plan for a full (possibly rectangular) product C(m x n) = A(m x k) B(k x n).
// All three dimensions share one recursion depth; each dimension gets its own
// tile extent (paper S3.5).
struct GemmPlan {
  bool direct = false;  // true: skip Strassen, use conventional gemm
  bool feasible = true; // false: dimensions too disparate; caller must split
  int depth = 0;
  // Schedule family the recursion executes (analysis/schedule.hpp): the
  // 2-buffer table, or Kreczmar's where the degradation ladder
  // (core/modgemm.hpp) swaps to it before reducing depth because
  // max_workspace_bytes cannot hold the arena.
  analysis::ScheduleFamily schedule = analysis::ScheduleFamily::kLowMem;
  // Execution strategy the product runs (never kAuto in an executed plan:
  // core/modgemm.hpp resolves pin -> STRASSEN_STRATEGY -> the
  // choose_exec_strategy heuristic before dispatch).  Traced/counted memory
  // models and non-Strassen plans always execute kMorton.
  ExecStrategy strategy = ExecStrategy::kMorton;
  DimPlan m, k, n;
  // Total padded elements across the three operands (planner's objective).
  long long padded_elems() const;
};

// Plans a single Strassen-Winograd product.  feasible == false signals a
// highly rectangular problem (paper S3.5) that must go through
// layout/split.hpp first.
GemmPlan plan_gemm(int m, int k, int n, const TileOptions& opt = {});

// All depths at which a dimension of size n has a feasible tile in range.
std::vector<int> feasible_depths(int n, const TileOptions& opt = {});

// The planner's strategy heuristic, consulted when neither the per-call pin
// nor STRASSEN_STRATEGY decides (ExecStrategy::kAuto).  Pack-fused wins for
// the shapes where Morton conversion is pure overhead:
//
//   * one-shot / shallow plans (depth <= opt.packfused_max_depth): few
//     recursive products amortize the three conversions poorly, and
//   * highly rectangular problems (max dim >= 2x min dim): the split path
//     runs many small sub-products, each of which would pay its own
//     conversion round trip.
//
// Deep square recursions keep kMorton: each converted tile is reused across
// many products, which is exactly the case the paper's layout optimizes.
// Direct and infeasible plans are always kMorton (there is nothing to fuse).
ExecStrategy choose_exec_strategy(const GemmPlan& plan, int m, int k, int n,
                                  const TileOptions& opt = {});

}  // namespace strassen::layout

namespace strassen::analysis {

// Every product runs the <2,2,2> Strassen-Winograd recursion.  The enum and
// choose_algo below stay only for the benchmark's planner probes
// (perfbench/); no library code reads them.
enum class AlgoFamily : std::uint8_t { kAuto = 0, k222 };

}  // namespace strassen::analysis

namespace strassen::layout {

inline analysis::AlgoFamily choose_algo(int, int, int) {
  return analysis::AlgoFamily::k222;
}

}  // namespace strassen::layout
