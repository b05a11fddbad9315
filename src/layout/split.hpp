// split.hpp -- decomposition of highly rectangular products (paper S3.5).
//
// Each dimension's tile is chosen independently, but all three dimensions
// must unfold the recursion to the SAME depth.  With the tile range
// [min_tile, max_tile] a common depth exists only while the dimensions stay
// within roughly a factor of max_tile/min_tile of each other.  The paper's
// example: 1024 x 256 wants depth 5 for the rows but depth 3 for the
// columns.  The fix: divide the matrix into submatrices that all admit the
// same unfolding depth and reconstruct C from submatrix products
//
//     C[i][j] = sum_r  A[i][r] * B[r][j]
//
// (paper Fig. 4 shows the wide / lean cases of this reconstruction).
#pragma once

#include <utility>
#include <vector>

#include "layout/plan.hpp"

namespace strassen::layout {

// Paper terminology for a matrix's aspect (S3.5): `wide` when cols/rows
// exceeds the desired ratio, `lean` when rows/cols exceeds it.
enum class Shape { WellBehaved, Wide, Lean };

Shape classify(int rows, int cols, double desired_ratio = 4.0);

// A half-open [offset, offset+size) chunk of one dimension.
struct Chunk {
  int offset = 0;
  int size = 0;
};

// Near-equal chunks covering [0, dim), each of size <= max_chunk.
std::vector<Chunk> balanced_chunks(int dim, int max_chunk);

// Decomposition of C(m x n) = A(m x k) B(k x n) into sub-products that each
// admit a common recursion depth.
struct SplitPlan {
  bool needed = false;  // false: the whole product plans at one depth
  int depth = 0;        // unified depth the chunks are sized for
  std::vector<Chunk> m_chunks;
  std::vector<Chunk> k_chunks;
  std::vector<Chunk> n_chunks;
  std::size_t products() const {
    return m_chunks.size() * k_chunks.size() * n_chunks.size();
  }
};

// Builds the split plan.  Guarantees that plan_gemm on every resulting
// (m_chunk, k_chunk, n_chunk) triple is feasible (single-depth) or direct
// (the latter only when the anchor dimension sits in the window gap
// direct_threshold < n < 2*min_tile), which the property tests verify
// exhaustively.
SplitPlan plan_split(int m, int k, int n, const TileOptions& opt = {});

}  // namespace strassen::layout
