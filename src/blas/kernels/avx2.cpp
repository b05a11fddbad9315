// kernels/avx2.cpp -- AVX2+FMA micro-kernels for double.
//
// Compiled with per-file -mavx2 -mfma (see src/CMakeLists.txt) so the rest
// of the library keeps its portable -march; the registry only routes here
// when cpuid reports AVX2+FMA at runtime.
//
// The register block is 8x6: 12 ymm accumulators + 2 A vectors + 1 B
// broadcast = 15 of 16 ymm, the classic double-precision blocking for
// 16-register AVX2.  With edges at full speed it beat a 4x8 block by 8-35%
// on every square tile measured between 16 and 64, the power-of-two ones
// included (4-vCPU AVX2 host), so it is the only block.
//
// Operand loaders abstract A and B access so the same blocks serve the plain
// kernel and gemm_fused_ab, which forms (A1 +/- A2) and (B1 +/- B2) on the
// fly instead of reading materialized temporaries -- the BLIS-Strassen trick
// of fusing the quadrant sums into the kernel pass.
//
// Columns are contiguous in column-major storage, so A loads are plain
// unaligned vector loads for ANY leading dimension; Morton leaf operands are
// additionally contiguous (ld == rows) and 64-byte aligned, which is the
// fast case the engine is built around.
//
// Edges keep a full register block, as in BLIS.  The m % MR rows run the
// same block with its last vector masked (_mm256_maskload_pd for A and for
// C under Accumulate, _mm256_maskstore_pd for C).  The n % NR columns run
// narrower instantiations of that block, made taller so each keeps at least
// eight independent accumulators: a column pays FMA latency, not just
// throughput, once fewer chains are in flight.
//
// gemm_fused_ab forms B1 +/- B2 once per k x NR column panel into a stack
// panel and then reads it like a plain B; only calls deeper than the panel
// (k > kPanelK) form each sum on every read.
//
// Every element of C is one FMA chain over p = 0..k-1 starting from zero;
// Overwrite stores alpha * acc, Accumulate stores fma(alpha, acc, C).  Block
// shape, masking and loaders change which instructions run, never this
// arithmetic (KernelBitExactness.EveryElementIsOneFmaChain).
#include "blas/kernels/registry.hpp"

#if defined(__AVX2__) && defined(__FMA__)

#include <immintrin.h>

namespace strassen::blas::kernels {

namespace {

// Deepest k whose fused-B sums are staged on the stack, and the widest
// column panel (the block's NR).
constexpr int kPanelK = 128;
constexpr int kPanelNR = 6;

inline std::size_t off(int ld, int col) {
  return static_cast<std::size_t>(ld) * col;
}

// Lanes of a four-row vector that hold the first r (1..4) rows.
inline __m256i row_mask(int r) {
  return _mm256_cmpgt_epi64(_mm256_set1_epi64x(r),
                            _mm256_setr_epi64x(0, 1, 2, 3));
}

template <bool kSub>
__m256d combine(__m256d x, __m256d y) {
  return kSub ? _mm256_sub_pd(x, y) : _mm256_add_pd(x, y);
}

// ---- operand loaders ------------------------------------------------------
// A loaders give four rows of column p starting at row i; the masked form
// reads only the `live` lanes.

struct APlain {
  const double* a;
  int lda;
  __m256d load4(int i, int p) const {
    return _mm256_loadu_pd(a + off(lda, p) + i);
  }
  __m256d load4(int i, int p, __m256i live) const {
    return _mm256_maskload_pd(a + off(lda, p) + i, live);
  }
};

template <bool kSub>
struct AFused {
  const double* a1;
  const double* a2;
  int lda;
  __m256d load4(int i, int p) const {
    return combine<kSub>(_mm256_loadu_pd(a1 + off(lda, p) + i),
                         _mm256_loadu_pd(a2 + off(lda, p) + i));
  }
  __m256d load4(int i, int p, __m256i live) const {
    return combine<kSub>(_mm256_maskload_pd(a1 + off(lda, p) + i, live),
                         _mm256_maskload_pd(a2 + off(lda, p) + i, live));
  }
};

// B loaders hand the blocks one k x w column panel at a time: panel(j, w, k)
// returns a loader whose at(p, jj) reads element (p, j + jj).

struct BPlain {
  const double* b;
  int ldb;
  double at(int p, int j) const { return b[off(ldb, j) + p]; }
  BPlain panel(int j, int /*w*/, int /*k*/) const {
    return {b + off(ldb, j), ldb};
  }
};

// B1 +/- B2 formed on every read, once per row block.  Serves only fused
// calls deeper than the stack panel.
template <bool kSub>
struct BFused {
  const double* b1;
  const double* b2;
  int ldb;
  double at(int p, int j) const {
    return kSub ? b1[off(ldb, j) + p] - b2[off(ldb, j) + p]
                : b1[off(ldb, j) + p] + b2[off(ldb, j) + p];
  }
  BFused panel(int j, int /*w*/, int /*k*/) const {
    return {b1 + off(ldb, j), b2 + off(ldb, j), ldb};
  }
};

// B1 +/- B2 formed once per column panel into `sums` (k <= kPanelK, at most
// kPanelNR columns), which the blocks then read like a plain B.
template <bool kSub>
struct BSumPanel {
  const double* b1;
  const double* b2;
  int ldb;
  double* sums;
  BPlain panel(int j, int w, int k) const {
    for (int jj = 0; jj < w; ++jj) {
      const double* x = b1 + off(ldb, j + jj);
      const double* y = b2 + off(ldb, j + jj);
      double* d = sums + off(k, jj);
      int p = 0;
      for (; p + 4 <= k; p += 4)
        _mm256_storeu_pd(d + p, combine<kSub>(_mm256_loadu_pd(x + p),
                                              _mm256_loadu_pd(y + p)));
      for (; p < k; ++p) d[p] = kSub ? x[p] - y[p] : x[p] + y[p];
    }
    return {sums, k};
  }
};

// ---- kernel blocks --------------------------------------------------------

// One (4 * MV) x NR register block at row i of a column panel:
// C {=, +=} alpha * A.B.  With kMask the last vector holds only the `live`
// rows; its A and C lanes outside them are never touched.  Always inlined
// into its row loop: out of line, the call and a stack round trip of the
// accumulators cost as much as a small tile's whole k loop.
template <int MV, int NR, bool kMask, class AL, class BL>
[[gnu::always_inline]] inline void block(const AL& A, const BL& B, int k,
                                         double* C, int ldc, LeafMode mode,
                                         double alpha, int i, __m256i live) {
  // The unroll pragmas keep every acc[][] index a constant, so the array
  // lives in registers; without them GCC stores the masked blocks'
  // accumulators back to the stack on every k step.
  __m256d acc[NR][MV];
#pragma GCC unroll 8
  for (int jj = 0; jj < NR; ++jj)
#pragma GCC unroll 8
    for (int v = 0; v < MV; ++v) acc[jj][v] = _mm256_setzero_pd();
  for (int p = 0; p < k; ++p) {
    __m256d a[MV];
#pragma GCC unroll 8
    for (int v = 0; v < MV; ++v)
      a[v] = kMask && v == MV - 1 ? A.load4(i + 4 * v, p, live)
                                  : A.load4(i + 4 * v, p);
#pragma GCC unroll 8
    for (int jj = 0; jj < NR; ++jj) {
      const __m256d b = _mm256_set1_pd(B.at(p, jj));
#pragma GCC unroll 8
      for (int v = 0; v < MV; ++v)
        acc[jj][v] = _mm256_fmadd_pd(a[v], b, acc[jj][v]);
    }
  }
  const __m256d va = _mm256_set1_pd(alpha);
#pragma GCC unroll 8
  for (int jj = 0; jj < NR; ++jj) {
    double* c = C + off(ldc, jj) + i;
#pragma GCC unroll 8
    for (int v = 0; v < MV; ++v) {
      double* cv = c + 4 * v;
      const bool part = kMask && v == MV - 1;
      __m256d r;
      if (mode == LeafMode::Accumulate)
        r = _mm256_fmadd_pd(va, acc[jj][v],
                            part ? _mm256_maskload_pd(cv, live)
                                 : _mm256_loadu_pd(cv));
      else
        r = _mm256_mul_pd(va, acc[jj][v]);
      if (part)
        _mm256_maskstore_pd(cv, live, r);
      else
        _mm256_storeu_pd(cv, r);
    }
  }
}

// Rows [i, i + r) of a column panel, 0 < r < 4 * MV: the fewest vectors that
// cover them, the last one masked.  Out of line for the same reason as
// panel().
template <int MV, int NR, class AL, class BL>
[[gnu::noinline]] void row_tail(const AL& A, const BL& B, int k, double* C,
                                int ldc, LeafMode mode, double alpha, int i,
                                int r) {
  if constexpr (MV > 1) {
    if (r <= 4 * (MV - 1))
      return row_tail<MV - 1, NR>(A, B, k, C, ldc, mode, alpha, i, r);
  }
  block<MV, NR, true>(A, B, k, C, ldc, mode, alpha, i,
                      row_mask(r - 4 * (MV - 1)));
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

// Columns [j, j + NR) over all m rows in (4 * MV)-row blocks; returns the
// next column.  Kept out of line: inlined into the column loop, the NR
// column offsets of B no longer fit the general registers and the inner
// loop spills them.
template <int MV, int NR, class AL, class BL>
[[gnu::noinline]] int panel(const Leaf<AL, BL>& L, int j) {
  const auto B = L.B.panel(j, NR, L.k);
  double* C = L.C + off(L.ldc, j);
  int i = 0;
  for (; i + 4 * MV <= L.m; i += 4 * MV)
    block<MV, NR, false>(L.A, B, L.k, C, L.ldc, L.mode, L.alpha, i,
                         _mm256_setzero_si256());
  if (i < L.m)
    row_tail<MV, NR>(L.A, B, L.k, C, L.ldc, L.mode, L.alpha, i, L.m - i);
  return j + NR;
}

// Full 8x6 panels, then the column tail.  A w-column tail panel runs
// ceil(8 / w) vectors per column for w <= 3 and two for w = 4, 5, so every
// tail block keeps at least eight accumulators.
template <class AL, class BL>
void gemm_dispatch(int m, int n, int k, const AL& A, const BL& B, double* C,
                   int ldc, LeafMode mode, double alpha) {
  const Leaf<AL, BL> L{m, k, A, B, C, ldc, mode, alpha};
  int j = 0;
  while (n - j >= kPanelNR) j = panel<2, kPanelNR>(L, j);
  switch (n - j) {
    case 5: panel<2, 5>(L, j); break;
    case 4: panel<2, 4>(L, j); break;
    case 3: panel<3, 3>(L, j); break;
    case 2: panel<4, 2>(L, j); break;
    case 1: panel<8, 1>(L, j); break;
    default: break;
  }
}

// Calls f with the loader for A1 op A2.
template <class F>
void with_fused_a(const double* A1, const double* A2, FusedOp opa, int lda,
                  F&& f) {
  if (opa == FusedOp::kSub)
    f(AFused<true>{A1, A2, lda});
  else
    f(AFused<false>{A1, A2, lda});
}

// Calls f with the loader for B1 op B2: staged once per column panel on the
// stack when k fits the panel, else formed on every read.
template <class F>
void with_fused_b(int k, const double* B1, const double* B2, FusedOp opb,
                  int ldb, F&& f) {
  if (k <= kPanelK) {
    alignas(32) double sums[kPanelK * kPanelNR];
    if (opb == FusedOp::kSub)
      f(BSumPanel<true>{B1, B2, ldb, sums});
    else
      f(BSumPanel<false>{B1, B2, ldb, sums});
  } else if (opb == FusedOp::kSub) {
    f(BFused<true>{B1, B2, ldb});
  } else {
    f(BFused<false>{B1, B2, ldb});
  }
}

// ---- table entries --------------------------------------------------------

void avx2_gemm(int m, int n, int k, const double* A, int lda, const double* B,
               int ldb, double* C, int ldc, LeafMode mode, double alpha) {
  gemm_dispatch(m, n, k, APlain{A, lda}, BPlain{B, ldb}, C, ldc, mode, alpha);
}

void avx2_gemm_fused_ab(int m, int n, int k, const double* A1,
                        const double* A2, FusedOp opa, int lda,
                        const double* B1, const double* B2, FusedOp opb,
                        int ldb, double* C, int ldc) {
  with_fused_a(A1, A2, opa, lda, [&](const auto& a) {
    with_fused_b(k, B1, B2, opb, ldb, [&](const auto& b) {
      gemm_dispatch(m, n, k, a, b, C, ldc, LeafMode::Overwrite, 1.0);
    });
  });
}

// ---- element-wise quadrant kernels ---------------------------------------
// Exact aliasing (dst == a or dst == b) is safe: each vector is fully loaded
// before its lane range is stored.

void avx2_vadd(std::size_t n, double* dst, const double* a, const double* b) {
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4)
    _mm256_storeu_pd(dst + i, _mm256_add_pd(_mm256_loadu_pd(a + i),
                                            _mm256_loadu_pd(b + i)));
  for (; i < n; ++i) dst[i] = a[i] + b[i];
}

void avx2_vsub(std::size_t n, double* dst, const double* a, const double* b) {
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4)
    _mm256_storeu_pd(dst + i, _mm256_sub_pd(_mm256_loadu_pd(a + i),
                                            _mm256_loadu_pd(b + i)));
  for (; i < n; ++i) dst[i] = a[i] - b[i];
}

void avx2_vadd_inplace(std::size_t n, double* dst, const double* a) {
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4)
    _mm256_storeu_pd(dst + i, _mm256_add_pd(_mm256_loadu_pd(dst + i),
                                            _mm256_loadu_pd(a + i)));
  for (; i < n; ++i) dst[i] += a[i];
}

void avx2_vsub_inplace(std::size_t n, double* dst, const double* a) {
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4)
    _mm256_storeu_pd(dst + i, _mm256_sub_pd(_mm256_loadu_pd(dst + i),
                                            _mm256_loadu_pd(a + i)));
  for (; i < n; ++i) dst[i] -= a[i];
}

constexpr LeafKernels kTable = {
    Kind::kAvx2,
    "avx2",
    /*mr=*/8,
    /*nr=*/6,
    avx2_gemm,
    avx2_gemm_fused_ab,
    avx2_vadd,
    avx2_vsub,
    avx2_vadd_inplace,
    avx2_vsub_inplace,
};

}  // namespace

namespace detail {
const LeafKernels* avx2_table() noexcept { return &kTable; }
}  // namespace detail

}  // namespace strassen::blas::kernels

#else  // !(__AVX2__ && __FMA__)

namespace strassen::blas::kernels::detail {
// This build's compiler flags could not enable AVX2+FMA for this TU; the
// registry treats the kind as not compiled in.
const LeafKernels* avx2_table() noexcept { return nullptr; }
}  // namespace strassen::blas::kernels::detail

#endif
