// kernels/avx512.cpp -- AVX-512F micro-kernel for double.
//
// Compiled with per-file -mavx512f (see src/CMakeLists.txt) so the rest of
// the library keeps its portable -march; the registry only routes here when
// cpuid reports AVX-512F (and AVX2+FMA, for the shared entries below) and
// the OS saves the zmm state.
//
// The leaf is simd_block.hpp's register block instantiated with zmm traits;
// row edges mask with k-registers (_mm512_maskz_loadu_pd /
// _mm512_mask_storeu_pd).  The block is 24x8: 24 zmm accumulators + 3 A
// vectors + 1 B broadcast = 28 of 32 zmm.  Each element of C is the same
// FMA chain the AVX2 block computes, so C is bit-identical to the avx2
// table's on every call.
//
// The element-wise entries are the AVX2 ones: the quadrant additions are
// memory-bound, so wider vectors buy nothing there.  gemm_fused_ab is the
// AVX2 entry too; only the benchmark's fused-leaf probe calls it.
#include "blas/kernels/registry.hpp"

#if defined(__AVX512F__)

#include <immintrin.h>

#include "blas/kernels/simd_block.hpp"

namespace strassen::blas::kernels {

namespace {

struct Zmm {
  using vec = __m512d;
  using mask = __mmask8;
  static constexpr int kLanes = 8;
  static vec load(const double* p) { return _mm512_loadu_pd(p); }
  static vec maskload(const double* p, mask m) {
    return _mm512_maskz_loadu_pd(m, p);
  }
  static void store(double* p, vec v) { _mm512_storeu_pd(p, v); }
  static void maskstore(double* p, mask m, vec v) {
    _mm512_mask_storeu_pd(p, m, v);
  }
  static vec fmadd(vec a, vec b, vec c) { return _mm512_fmadd_pd(a, b, c); }
  static vec mul(vec a, vec b) { return _mm512_mul_pd(a, b); }
  static vec set1(double x) { return _mm512_set1_pd(x); }
  static vec zero() { return _mm512_setzero_pd(); }
  static mask row_mask(int r) { return static_cast<mask>((1u << r) - 1u); }
};

// The 24x8 block: three vectors by eight columns.
constexpr int kMV = 3;
constexpr int kNR = 8;

void avx512_gemm(int m, int n, int k, const double* A, int lda,
                 const double* B, int ldb, double* C, int ldc, LeafMode mode,
                 double alpha) {
  gemm_dispatch<Zmm, kMV, kNR>(m, n, k, APlain<Zmm>{A, lda}, BPlain{B, ldb},
                               C, ldc, mode, alpha);
}

constexpr LeafKernels kTable = {
    Kind::kAvx512,
    "avx512",
    /*mr=*/kMV * Zmm::kLanes,
    /*nr=*/kNR,
    avx512_gemm,
    detail::avx2_gemm_fused_ab,
    detail::avx2_vadd,
    detail::avx2_vsub,
    detail::avx2_vadd_inplace,
    detail::avx2_vsub_inplace,
};

}  // namespace

namespace detail {
const LeafKernels* avx512_table() noexcept { return &kTable; }
}  // namespace detail

}  // namespace strassen::blas::kernels

#else  // !__AVX512F__

namespace strassen::blas::kernels::detail {
// This build's compiler flags could not enable AVX-512F for this TU; the
// registry treats the kind as not compiled in.
const LeafKernels* avx512_table() noexcept { return nullptr; }
}  // namespace strassen::blas::kernels::detail

#endif
