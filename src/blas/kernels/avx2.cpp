// kernels/avx2.cpp -- AVX2+FMA micro-kernels for double.
//
// Compiled with per-file -mavx2 -mfma (see src/CMakeLists.txt) so the rest
// of the library keeps its portable -march; the registry only routes here
// when cpuid reports AVX2+FMA at runtime.  On hosts with AVX-512F the probe
// prefers the avx512 table (avx512.cpp), which runs the same block at twice
// the width and shares this TU's element-wise and fused entries.
//
// The leaf is simd_block.hpp's register block instantiated with ymm traits.
// The block is 8x6: 12 ymm accumulators + 2 A vectors + 1 B broadcast = 15
// of 16 ymm, the classic double-precision blocking for 16-register AVX2.
// With edges at full speed it beat a 4x8 block by 8-35% on every square
// tile measured between 16 and 64, the power-of-two ones included (4-vCPU
// AVX2 host), so it is the only AVX2 block.  Row edges mask with
// _mm256_maskload_pd / _mm256_maskstore_pd.
//
// Operand loaders abstract A and B access so the same blocks serve the plain
// kernel and gemm_fused_ab, which forms (A1 +/- A2) and (B1 +/- B2) on the
// fly instead of reading materialized temporaries -- the BLIS-Strassen trick
// of fusing the quadrant sums into the kernel pass.  gemm_fused_ab forms
// B1 +/- B2 once per k x NR column panel into a stack panel and then reads
// it like a plain B; only calls deeper than the panel (k > kPanelK) form
// each sum on every read.
#include "blas/kernels/registry.hpp"

#if defined(__AVX2__) && defined(__FMA__)

#include <immintrin.h>

#include "blas/kernels/simd_block.hpp"

namespace strassen::blas::kernels {

namespace {

struct Ymm {
  using vec = __m256d;
  using mask = __m256i;
  static constexpr int kLanes = 4;
  static vec load(const double* p) { return _mm256_loadu_pd(p); }
  static vec maskload(const double* p, mask m) {
    return _mm256_maskload_pd(p, m);
  }
  static void store(double* p, vec v) { _mm256_storeu_pd(p, v); }
  static void maskstore(double* p, mask m, vec v) {
    _mm256_maskstore_pd(p, m, v);
  }
  static vec fmadd(vec a, vec b, vec c) { return _mm256_fmadd_pd(a, b, c); }
  static vec mul(vec a, vec b) { return _mm256_mul_pd(a, b); }
  static vec set1(double x) { return _mm256_set1_pd(x); }
  static vec zero() { return _mm256_setzero_pd(); }
  static mask row_mask(int r) {
    return _mm256_cmpgt_epi64(_mm256_set1_epi64x(r),
                              _mm256_setr_epi64x(0, 1, 2, 3));
  }
};

// The 8x6 block: two vectors by six columns.
constexpr int kMV = 2;
constexpr int kNR = 6;

// Deepest k whose fused-B sums are staged on the stack.
constexpr int kPanelK = 128;

template <bool kSub>
__m256d combine(__m256d x, __m256d y) {
  return kSub ? _mm256_sub_pd(x, y) : _mm256_add_pd(x, y);
}

// ---- fused operand loaders ------------------------------------------------

template <bool kSub>
struct AFused {
  const double* a1;
  const double* a2;
  int lda;
  __m256d load(int i, int p) const {
    return combine<kSub>(_mm256_loadu_pd(a1 + off(lda, p) + i),
                         _mm256_loadu_pd(a2 + off(lda, p) + i));
  }
  __m256d load(int i, int p, __m256i live) const {
    return combine<kSub>(_mm256_maskload_pd(a1 + off(lda, p) + i, live),
                         _mm256_maskload_pd(a2 + off(lda, p) + i, live));
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
// kNR columns), which the blocks then read like a plain B.
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
    alignas(32) double sums[kPanelK * kNR];
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

void avx2_gemm(int m, int n, int k, const double* A, int lda, const double* B,
               int ldb, double* C, int ldc, LeafMode mode, double alpha) {
  gemm_dispatch<Ymm, kMV, kNR>(m, n, k, APlain<Ymm>{A, lda}, BPlain{B, ldb},
                               C, ldc, mode, alpha);
}

}  // namespace

// ---- entries shared with the avx512 table ---------------------------------

namespace detail {

void avx2_gemm_fused_ab(int m, int n, int k, const double* A1,
                        const double* A2, FusedOp opa, int lda,
                        const double* B1, const double* B2, FusedOp opb,
                        int ldb, double* C, int ldc) {
  with_fused_a(A1, A2, opa, lda, [&](const auto& a) {
    with_fused_b(k, B1, B2, opb, ldb, [&](const auto& b) {
      gemm_dispatch<Ymm, kMV, kNR>(m, n, k, a, b, C, ldc, LeafMode::Overwrite,
                                   1.0);
    });
  });
}

// Element-wise quadrant kernels.  Exact aliasing (dst == a or dst == b) is
// safe: each vector is fully loaded before its lane range is stored.

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

namespace {
constexpr LeafKernels kTable = {
    Kind::kAvx2,
    "avx2",
    /*mr=*/kMV * Ymm::kLanes,
    /*nr=*/kNR,
    avx2_gemm,
    avx2_gemm_fused_ab,
    avx2_vadd,
    avx2_vsub,
    avx2_vadd_inplace,
    avx2_vsub_inplace,
};
}  // namespace

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
