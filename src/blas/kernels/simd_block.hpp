// kernels/simd_block.hpp -- the register-blocked leaf kernel of the x86 SIMD
// tables, written once over a vector-traits type V.
//
// V names the vector and the handful of operations the block needs:
//
//   vec, mask, kLanes                       the vector, its lane mask, width
//   load / maskload / store / maskstore     unaligned, masked lanes untouched
//   fmadd(a, b, c) = a * b + c, mul, set1, zero
//   row_mask(r)                             lanes of the first r (1..kLanes)
//                                           rows
//
// avx2.cpp instantiates it with ymm traits (4 lanes), avx512.cpp with zmm
// traits (8 lanes and k-mask edges).  Included only by those kernel TUs,
// each compiled with its own ISA flags.  Everything here sits in an unnamed
// namespace, so every TU keeps its own copy: a helper compiled with
// -mavx512f can never be the copy the linker keeps for the AVX2 table, which
// would die with SIGILL on an AVX2-only host.
//
// Columns are contiguous in column-major storage, so A loads are plain
// unaligned vector loads for ANY leading dimension; Morton leaf operands are
// additionally contiguous (ld == rows) and 64-byte aligned, which is the
// fast case the engine is built around.
//
// Edges keep a full register block, as in BLIS.  The m % MR rows run the
// same block with its last vector masked (A loads, and C under Accumulate,
// read only the live lanes; C stores write only them).  The n % NR columns
// run narrower instantiations of that block, made taller so each keeps at
// least eight independent accumulators: a column pays FMA latency, not just
// throughput, once fewer chains are in flight.
//
// Every element of C is one FMA chain over p = 0..k-1 starting from zero;
// Overwrite stores alpha * acc, Accumulate stores fma(alpha, acc, C).  Block
// shape, vector width, masking and loaders change which instructions run,
// never this arithmetic, so every table built on this block is bit-identical
// to every other (KernelBitExactness.EveryElementIsOneFmaChain,
// CrossKernelBitIdentity).
#pragma once

#include <cstddef>

#include "blas/kernels.hpp"

namespace strassen::blas::kernels {
namespace {

inline std::size_t off(int ld, int col) {
  return static_cast<std::size_t>(ld) * col;
}

// ---- operand loaders ------------------------------------------------------
// A loaders give kLanes rows of column p starting at row i; the masked form
// reads only the `live` lanes.  B loaders hand the blocks one k x w column
// panel at a time: panel(j, w, k) returns a loader whose at(p, jj) reads
// element (p, j + jj).

template <class V>
struct APlain {
  const double* a;
  int lda;
  typename V::vec load(int i, int p) const {
    return V::load(a + off(lda, p) + i);
  }
  typename V::vec load(int i, int p, typename V::mask live) const {
    return V::maskload(a + off(lda, p) + i, live);
  }
};

struct BPlain {
  const double* b;
  int ldb;
  double at(int p, int j) const { return b[off(ldb, j) + p]; }
  BPlain panel(int j, int /*w*/, int /*k*/) const {
    return {b + off(ldb, j), ldb};
  }
};

// ---- kernel blocks --------------------------------------------------------

// One (kLanes * MV) x NR register block at row i of a column panel:
// C {=, +=} alpha * A.B.  With kMask the last vector holds only the `live`
// rows; its A and C lanes outside them are never touched.  Always inlined
// into its row loop: out of line, the call and a stack round trip of the
// accumulators cost as much as a small tile's whole k loop.
template <class V, int MV, int NR, bool kMask, class AL, class BL>
[[gnu::always_inline]] inline void block(const AL& A, const BL& B, int k,
                                         double* C, int ldc, LeafMode mode,
                                         double alpha, int i,
                                         typename V::mask live) {
  using vec = typename V::vec;
  constexpr int L = V::kLanes;
  // The unroll pragmas keep every acc[][] index a constant, so the array
  // lives in registers; without them GCC stores the masked blocks'
  // accumulators back to the stack on every k step.
  vec acc[NR][MV];
#pragma GCC unroll 8
  for (int jj = 0; jj < NR; ++jj)
#pragma GCC unroll 8
    for (int v = 0; v < MV; ++v) acc[jj][v] = V::zero();
  for (int p = 0; p < k; ++p) {
    vec a[MV];
#pragma GCC unroll 8
    for (int v = 0; v < MV; ++v)
      a[v] = kMask && v == MV - 1 ? A.load(i + L * v, p, live)
                                  : A.load(i + L * v, p);
#pragma GCC unroll 16
    for (int jj = 0; jj < NR; ++jj) {
      const vec b = V::set1(B.at(p, jj));
#pragma GCC unroll 8
      for (int v = 0; v < MV; ++v) acc[jj][v] = V::fmadd(a[v], b, acc[jj][v]);
    }
  }
  const vec va = V::set1(alpha);
#pragma GCC unroll 16
  for (int jj = 0; jj < NR; ++jj) {
    double* c = C + off(ldc, jj) + i;
#pragma GCC unroll 8
    for (int v = 0; v < MV; ++v) {
      double* cv = c + L * v;
      const bool part = kMask && v == MV - 1;
      vec r;
      if (mode == LeafMode::Accumulate)
        r = V::fmadd(va, acc[jj][v],
                     part ? V::maskload(cv, live) : V::load(cv));
      else
        r = V::mul(va, acc[jj][v]);
      if (part)
        V::maskstore(cv, live, r);
      else
        V::store(cv, r);
    }
  }
}

// Rows [i, i + r) of a column panel, 0 < r < kLanes * MV: the fewest vectors
// that cover them, the last one masked.  Out of line for the same reason as
// panel().
template <class V, int MV, int NR, class AL, class BL>
[[gnu::noinline]] void row_tail(const AL& A, const BL& B, int k, double* C,
                                int ldc, LeafMode mode, double alpha, int i,
                                int r) {
  constexpr int L = V::kLanes;
  if constexpr (MV > 1) {
    if (r <= L * (MV - 1))
      return row_tail<V, MV - 1, NR>(A, B, k, C, ldc, mode, alpha, i, r);
  }
  block<V, MV, NR, true>(A, B, k, C, ldc, mode, alpha, i,
                         V::row_mask(r - L * (MV - 1)));
}

// One leaf call: C(m x n) {=, +=} alpha * A(m x k) . B(k x n).
template <class AL, class BL>
struct Leaf {
  int m, k;
  const AL& A;
  const BL& B;
  double* C;
  int ldc;
  LeafMode mode;
  double alpha;
};

// Columns [j, j + NR) over all m rows in (kLanes * MV)-row blocks; returns
// the next column.  Kept out of line: inlined into the column loop, the NR
// column offsets of B no longer fit the general registers and the inner
// loop spills them.
template <class V, int MV, int NR, class AL, class BL>
[[gnu::noinline]] int panel(const Leaf<AL, BL>& L, int j) {
  constexpr int rows = V::kLanes * MV;
  const auto B = L.B.panel(j, NR, L.k);
  double* C = L.C + off(L.ldc, j);
  int i = 0;
  for (; i + rows <= L.m; i += rows)
    block<V, MV, NR, false>(L.A, B, L.k, C, L.ldc, L.mode, L.alpha, i,
                            typename V::mask{});
  if (i < L.m)
    row_tail<V, MV, NR>(L.A, B, L.k, C, L.ldc, L.mode, L.alpha, i, L.m - i);
  return j + NR;
}

// Vectors per column of a w-column tail panel: the main block's MV, or
// ceil(8 / w) when that keeps more chains in flight, so every tail block
// holds at least eight accumulators.
constexpr int tail_vectors(int mv, int w) {
  const int need = (8 + w - 1) / w;
  return need > mv ? need : mv;
}

// The last w (0 <= w <= W) columns, starting at column j.
template <class V, int MV, int W, class AL, class BL>
void col_tail(const Leaf<AL, BL>& L, int j, int w) {
  if constexpr (W > 0) {
    if (w == W)
      panel<V, tail_vectors(MV, W), W>(L, j);
    else
      col_tail<V, MV, W - 1>(L, j, w);
  }
}

// Full (kLanes * MV) x NR panels, then the column tail.
template <class V, int MV, int NR, class AL, class BL>
void gemm_dispatch(int m, int n, int k, const AL& A, const BL& B, double* C,
                   int ldc, LeafMode mode, double alpha) {
  const Leaf<AL, BL> L{m, k, A, B, C, ldc, mode, alpha};
  int j = 0;
  while (n - j >= NR) j = panel<V, MV, NR>(L, j);
  col_tail<V, MV, NR - 1>(L, j, n - j);
}

}  // namespace
}  // namespace strassen::blas::kernels
