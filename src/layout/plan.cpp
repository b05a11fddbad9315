#include "layout/plan.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdlib>

#include "common/check.hpp"

namespace strassen::layout {

namespace {

// ceil(n / 2^d)
int ceil_shift(int n, int d) {
  return static_cast<int>((n + (1LL << d) - 1) >> d);
}

void validate(const TileOptions& opt) {
  STRASSEN_REQUIRE(opt.min_tile >= 1 && opt.max_tile >= opt.min_tile,
                   "bad tile range");
  STRASSEN_REQUIRE(opt.max_tile >= 2 * opt.min_tile,
                   "tile range must span at least a factor of two so every "
                   "depth window overlaps the next");
  STRASSEN_REQUIRE(opt.direct_threshold >= opt.min_tile,
                   "direct threshold below the minimum tile");
}

// true if `a` is a better (tile, pad) choice than `b` under the paper's
// objective: least padding, then tile nearest preferred, then larger tile.
// With conflict avoidance enabled, cache-aligned tiles lose to any
// non-aligned alternative regardless of padding (S4.2 future work).
bool better(const DimPlan& a, const DimPlan& b, const TileOptions& opt) {
  const int pa = opt.tile_penalty(a.tile);
  const int pb = opt.tile_penalty(b.tile);
  if (pa != pb) return pa < pb;
  if (a.pad() != b.pad()) return a.pad() < b.pad();
  const int da = std::abs(a.tile - opt.preferred_tile);
  const int db = std::abs(b.tile - opt.preferred_tile);
  if (da != db) return da < db;
  return a.tile > b.tile;
}

// The depths d >= 1 at which n has a tile in range, min_tile <=
// ceil(n / 2^d) <= max_tile: [lo, hi], empty when lo > hi.  The natural
// tile only shrinks with depth, so the window is contiguous.
struct DepthWindow {
  int lo = 1, hi = 0;
};

DepthWindow depth_window(int n, const TileOptions& opt) {
  DepthWindow w;
  while (w.lo < 30 && ceil_shift(n, w.lo) > opt.max_tile) ++w.lo;
  w.hi = w.lo - 1;
  while (w.hi < 30 && ceil_shift(n, w.hi + 1) >= opt.min_tile) ++w.hi;
  return w;
}

// choose_dim_at_depth without the argument checks, for the planner's own
// loops (their callers validated once).
DimPlan dim_at_depth(int n, int depth, const TileOptions& opt) {
  DimPlan plan;
  plan.n = n;
  plan.depth = depth;
  if (depth == 0) {
    // No recursion: the "tile" is the matrix itself.
    if (n > opt.max_tile) return plan;  // infeasible (tile == 0)
    plan.tile = n;
    plan.padded = n;
    return plan;
  }
  int t = ceil_shift(n, depth);
  if (t < opt.min_tile || t > opt.max_tile) return plan;  // infeasible
  if (opt.tile_penalty(t) > 0) {
    // Conflict/capacity-aware mode: pad a little further to the nearest tile
    // with a smaller penalty (S3.3's fit-the-cache condition, S4.2's
    // conflict-avoidance future work).  Bumping only grows the tile, so an
    // OVERSIZED tile usually keeps its penalty and the remedy is a deeper
    // depth -- which the cross-depth comparison handles.
    int best = t;
    for (int bumped = t + 1; bumped <= opt.max_tile; ++bumped) {
      if (opt.tile_penalty(bumped) < opt.tile_penalty(best)) best = bumped;
      if (opt.tile_penalty(best) == 0) break;
    }
    t = best;
  }
  plan.tile = t;
  plan.padded = t << depth;
  return plan;
}

}  // namespace

DimPlan choose_dim_at_depth(int n, int depth, const TileOptions& opt) {
  validate(opt);
  STRASSEN_REQUIRE(n >= 1 && depth >= 0, "bad dimension or depth");
  return dim_at_depth(n, depth, opt);
}

DimPlan choose_dim(int n, const TileOptions& opt) {
  validate(opt);
  STRASSEN_REQUIRE(n >= 1, "dimension must be positive");
  if (n <= opt.direct_threshold) {
    DimPlan plan;
    plan.n = n;
    plan.tile = n;
    plan.depth = 0;
    plan.padded = n;
    return plan;
  }
  DimPlan best;
  best.n = n;
  const DepthWindow w = depth_window(n, opt);
  for (int d = w.lo; d <= w.hi; ++d) {
    const DimPlan cand = dim_at_depth(n, d, opt);
    if (best.tile == 0 || better(cand, best, opt)) best = cand;
  }
  if (best.tile == 0) {
    // Window gap: direct_threshold < n < 2*min_tile leaves no feasible depth
    // >= 1 (ceil(n/2) already undershoots min_tile).  The gap implies
    // n < 2*min_tile <= max_tile (validate() enforces the latter), so the
    // depth-0 plan always fits -- treat the dimension as a single tile.
    STRASSEN_ASSERT(n <= opt.max_tile);
    best.tile = n;
    best.depth = 0;
    best.padded = n;
  }
  return best;
}

DimPlan fixed_tile_dim(int n, int tile) {
  STRASSEN_REQUIRE(n >= 1 && tile >= 1, "bad dimension or tile");
  DimPlan plan;
  plan.n = n;
  plan.tile = tile;
  plan.depth = 0;
  long long padded = tile;
  while (padded < n) {
    padded *= 2;
    ++plan.depth;
  }
  STRASSEN_REQUIRE(padded <= INT32_MAX, "fixed-tile padded size overflows int: n="
                                            << n << " tile=" << tile
                                            << " padded=" << padded);
  plan.padded = static_cast<int>(padded);
  return plan;
}

std::vector<int> feasible_depths(int n, const TileOptions& opt) {
  validate(opt);
  STRASSEN_REQUIRE(n >= 1, "dimension must be positive");
  std::vector<int> out;
  if (n <= opt.max_tile) out.push_back(0);  // the matrix is one tile
  const DepthWindow w = depth_window(n, opt);
  for (int d = w.lo; d <= w.hi; ++d) out.push_back(d);
  return out;
}

long long GemmPlan::padded_elems() const {
  const long long pm = m.padded, pk = k.padded, pn = n.padded;
  return pm * pk + pk * pn + pm * pn;
}

GemmPlan plan_gemm(int m, int k, int n, const TileOptions& opt) {
  validate(opt);
  STRASSEN_REQUIRE(m >= 1 && k >= 1 && n >= 1, "bad gemm dimensions");
  GemmPlan plan;
  const int min_dim = std::min(m, std::min(k, n));
  if (min_dim <= opt.direct_threshold) {
    // A thin product gains nothing from Strassen; run conventional gemm.
    plan.direct = true;
    plan.m = DimPlan{m, m, 0, m};
    plan.k = DimPlan{k, k, 0, k};
    plan.n = DimPlan{n, n, 0, n};
    return plan;
  }
  // Intersect the feasible depth windows of the three dimensions.
  const DepthWindow wm = depth_window(m, opt);
  const DepthWindow wk = depth_window(k, opt);
  const DepthWindow wn = depth_window(n, opt);
  GemmPlan best;
  best.feasible = false;
  for (int d = std::max({wm.lo, wk.lo, wn.lo});
       d <= std::min({wm.hi, wk.hi, wn.hi}); ++d) {
    GemmPlan cand;
    cand.depth = d;
    cand.m = dim_at_depth(m, d, opt);
    cand.k = dim_at_depth(k, d, opt);
    cand.n = dim_at_depth(n, d, opt);
    auto conflicts = [&](const GemmPlan& p) {
      return opt.tile_penalty(p.m.tile) + opt.tile_penalty(p.k.tile) +
             opt.tile_penalty(p.n.tile);
    };
    auto pref_dist = [&](const GemmPlan& p) {
      return std::abs(p.m.tile - opt.preferred_tile) +
             std::abs(p.k.tile - opt.preferred_tile) +
             std::abs(p.n.tile - opt.preferred_tile);
    };
    if (!best.feasible || conflicts(cand) < conflicts(best) ||
        (conflicts(cand) == conflicts(best) &&
         (cand.padded_elems() < best.padded_elems() ||
          (cand.padded_elems() == best.padded_elems() &&
           pref_dist(cand) < pref_dist(best))))) {
      best = cand;
      best.feasible = true;
    }
  }
  if (!best.feasible) {
    if (m <= opt.max_tile && k <= opt.max_tile && n <= opt.max_tile) {
      // No common depth, yet every dimension already fits one tile.  For a
      // dim <= max_tile the feasible window is either empty or starts at
      // d=1, so "infeasible" here means some window is empty (the
      // direct_threshold < dim < 2*min_tile gap) -- splitting cannot
      // manufacture a feasible sub-plan from chunks no larger than these,
      // so the only sound execution is the conventional kernel.
      best.direct = true;
      best.m = DimPlan{m, m, 0, m};
      best.k = DimPlan{k, k, 0, k};
      best.n = DimPlan{n, n, 0, n};
      return best;
    }
    // Highly rectangular: no common depth.  Caller must split (paper S3.5).
    best.m = choose_dim(m, opt);
    best.k = choose_dim(k, opt);
    best.n = choose_dim(n, opt);
    return best;
  }
  return best;
}

ExecStrategy choose_exec_strategy(const GemmPlan& plan, int m, int k, int n,
                                  const TileOptions& opt) {
  if (plan.direct || !plan.feasible || plan.depth < 1)
    return ExecStrategy::kMorton;
  const int mx = std::max({m, k, n});
  const int mn = std::min({m, k, n});
  // Rectangular shape classes reach here per split chunk; the 2x aspect test
  // also catches the chunks plan_split leaves moderately oblong.
  if (mn > 0 && mx >= 2 * mn) return ExecStrategy::kPackFused;
  if (plan.depth <= opt.packfused_max_depth) return ExecStrategy::kPackFused;
  return ExecStrategy::kMorton;
}

}  // namespace strassen::layout
