#include "layout/split.hpp"

#include <algorithm>

#include "common/check.hpp"

namespace strassen::layout {

Shape classify(int rows, int cols, double desired_ratio) {
  STRASSEN_REQUIRE(rows >= 1 && cols >= 1, "bad matrix shape");
  STRASSEN_REQUIRE(desired_ratio >= 1.0, "ratio must be >= 1");
  if (static_cast<double>(cols) > desired_ratio * rows) return Shape::Wide;
  if (static_cast<double>(rows) > desired_ratio * cols) return Shape::Lean;
  return Shape::WellBehaved;
}

std::vector<Chunk> balanced_chunks(int dim, int max_chunk) {
  STRASSEN_REQUIRE(dim >= 1 && max_chunk >= 1, "bad chunking request");
  const int parts = (dim + max_chunk - 1) / max_chunk;
  // Sizes differ by at most one: the first `rem` chunks get an extra element.
  const int base = dim / parts;
  const int rem = dim % parts;
  std::vector<Chunk> out;
  out.reserve(parts);
  int offset = 0;
  for (int p = 0; p < parts; ++p) {
    const int size = base + (p < rem ? 1 : 0);
    out.push_back({offset, size});
    offset += size;
  }
  STRASSEN_ASSERT(offset == dim);
  return out;
}

SplitPlan plan_split(int m, int k, int n, const TileOptions& opt) {
  SplitPlan plan;
  const GemmPlan whole = plan_gemm(m, k, n, opt);
  if (whole.direct || whole.feasible) {
    plan.needed = false;
    plan.depth = whole.depth;
    plan.m_chunks = {{0, m}};
    plan.k_chunks = {{0, k}};
    plan.n_chunks = {{0, n}};
    return plan;
  }
  // Unify on the depth the smallest dimension prefers; chunk every dimension
  // down to at most max_tile << depth.  Balanced chunking keeps each chunk
  // at least half that bound, i.e. >= min_tile << depth whenever
  // max_tile >= 2 * min_tile, so every chunk is feasible at `depth`.
  // An infeasible plan carries each dimension's own choose_dim plan.
  const DimPlan* anchor = &whole.m;
  if (whole.k.n < anchor->n) anchor = &whole.k;
  if (whole.n.n < anchor->n) anchor = &whole.n;
  plan.needed = true;
  plan.depth = anchor->depth;
  const int cap = opt.max_tile << plan.depth;
  plan.m_chunks = balanced_chunks(m, cap);
  plan.k_chunks = balanced_chunks(k, cap);
  plan.n_chunks = balanced_chunks(n, cap);
  return plan;
}

}  // namespace strassen::layout
