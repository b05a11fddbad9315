// kernels/neon.cpp -- Advanced SIMD (NEON) micro-kernels for double.
//
// Double-precision NEON vectors (float64x2_t) exist only on AArch64, where
// Advanced SIMD is architecturally mandatory -- so "compiled in" implies
// "runnable" and no HWCAP probe is needed here (32-bit ARM NEON has no
// float64x2 and compiles the stub below; the registry then reports the kind
// as not compiled in).
//
// The kernel is a 4x4 register block (8 q-register accumulators + 2 A
// vectors + broadcast), the direct NEON analogue of the scalar kernel's
// blocking, with a column-strip edge path (one column at a time, scalar row
// tail).  The AVX2 TU's masked and narrow edge blocks are not ported here.
#include "blas/kernels/registry.hpp"

#if defined(__aarch64__) && defined(__ARM_NEON)

#include <arm_neon.h>

namespace strassen::blas::kernels {

namespace {

inline std::size_t off(int ld, int col) {
  return static_cast<std::size_t>(ld) * col;
}

struct APlain {
  const double* a;
  int lda;
  float64x2_t load2(int i, int p) const { return vld1q_f64(a + off(lda, p) + i); }
  double at(int i, int p) const { return a[off(lda, p) + i]; }
};

template <bool kSub>
struct AFused {
  const double* a1;
  const double* a2;
  int lda;
  float64x2_t load2(int i, int p) const {
    const float64x2_t x = vld1q_f64(a1 + off(lda, p) + i);
    const float64x2_t y = vld1q_f64(a2 + off(lda, p) + i);
    return kSub ? vsubq_f64(x, y) : vaddq_f64(x, y);
  }
  double at(int i, int p) const {
    return kSub ? a1[off(lda, p) + i] - a2[off(lda, p) + i]
                : a1[off(lda, p) + i] + a2[off(lda, p) + i];
  }
};

struct BPlain {
  const double* b;
  int ldb;
  double at(int p, int j) const { return b[off(ldb, j) + p]; }
};

template <bool kSub>
struct BFused {
  const double* b1;
  const double* b2;
  int ldb;
  double at(int p, int j) const {
    return kSub ? b1[off(ldb, j) + p] - b2[off(ldb, j) + p]
                : b1[off(ldb, j) + p] + b2[off(ldb, j) + p];
  }
};

// One 4x4 block at (i, j): 8 accumulators of 2 lanes.
template <class AL, class BL>
void block_4x4(const AL& A, const BL& B, int k, double* C, int ldc,
               LeafMode mode, double alpha, int i, int j) {
  float64x2_t acc[4][2];
  for (int jj = 0; jj < 4; ++jj)
    for (int v = 0; v < 2; ++v) acc[jj][v] = vdupq_n_f64(0.0);
  for (int p = 0; p < k; ++p) {
    float64x2_t a[2];
    a[0] = A.load2(i, p);
    a[1] = A.load2(i + 2, p);
    for (int jj = 0; jj < 4; ++jj) {
      const float64x2_t b = vdupq_n_f64(B.at(p, j + jj));
      acc[jj][0] = vfmaq_f64(acc[jj][0], a[0], b);
      acc[jj][1] = vfmaq_f64(acc[jj][1], a[1], b);
    }
  }
  const float64x2_t va = vdupq_n_f64(alpha);
  for (int jj = 0; jj < 4; ++jj) {
    double* c = C + off(ldc, j + jj) + i;
    for (int v = 0; v < 2; ++v) {
      float64x2_t r = vmulq_f64(va, acc[jj][v]);
      if (mode == LeafMode::Accumulate) r = vaddq_f64(vld1q_f64(c + 2 * v), r);
      vst1q_f64(c + 2 * v, r);
    }
  }
}

// Edge path: one column at a time, two-row vectors, scalar tail.
template <class AL, class BL>
void strip_cols(const AL& A, const BL& B, int k, double* C, int ldc, int i0,
                int i1, int j0, int j1, LeafMode mode, double alpha) {
  for (int j = j0; j < j1; ++j) {
    double* c = C + off(ldc, j);
    int i = i0;
    for (; i + 2 <= i1; i += 2) {
      float64x2_t acc = vdupq_n_f64(0.0);
      for (int p = 0; p < k; ++p)
        acc = vfmaq_f64(acc, A.load2(i, p), vdupq_n_f64(B.at(p, j)));
      float64x2_t r = vmulq_f64(vdupq_n_f64(alpha), acc);
      if (mode == LeafMode::Accumulate) r = vaddq_f64(vld1q_f64(c + i), r);
      vst1q_f64(c + i, r);
    }
    for (; i < i1; ++i) {
      double acc = 0.0;
      for (int p = 0; p < k; ++p) acc += A.at(i, p) * B.at(p, j);
      const double v = alpha * acc;
      c[i] = mode == LeafMode::Overwrite ? v : c[i] + v;
    }
  }
}

template <class AL, class BL>
void gemm_main(int m, int n, int k, const AL& A, const BL& B, double* C,
               int ldc, LeafMode mode, double alpha) {
  const int m4 = m - m % 4;
  const int n4 = n - n % 4;
  for (int j = 0; j < n4; j += 4)
    for (int i = 0; i < m4; i += 4)
      block_4x4(A, B, k, C, ldc, mode, alpha, i, j);
  if (m4 < m) strip_cols(A, B, k, C, ldc, m4, m, 0, n4, mode, alpha);
  if (n4 < n) strip_cols(A, B, k, C, ldc, 0, m, n4, n, mode, alpha);
}

void neon_gemm(int m, int n, int k, const double* A, int lda, const double* B,
               int ldb, double* C, int ldc, LeafMode mode, double alpha) {
  gemm_main(m, n, k, APlain{A, lda}, BPlain{B, ldb}, C, ldc, mode, alpha);
}

void neon_gemm_fused_ab(int m, int n, int k, const double* A1,
                        const double* A2, FusedOp opa, int lda,
                        const double* B1, const double* B2, FusedOp opb,
                        int ldb, double* C, int ldc) {
  auto run = [&](auto a, auto b) {
    gemm_main(m, n, k, a, b, C, ldc, LeafMode::Overwrite, 1.0);
  };
  if (opa == FusedOp::kSub) {
    if (opb == FusedOp::kSub)
      run(AFused<true>{A1, A2, lda}, BFused<true>{B1, B2, ldb});
    else
      run(AFused<true>{A1, A2, lda}, BFused<false>{B1, B2, ldb});
  } else {
    if (opb == FusedOp::kSub)
      run(AFused<false>{A1, A2, lda}, BFused<true>{B1, B2, ldb});
    else
      run(AFused<false>{A1, A2, lda}, BFused<false>{B1, B2, ldb});
  }
}

void neon_vadd(std::size_t n, double* dst, const double* a, const double* b) {
  std::size_t i = 0;
  for (; i + 2 <= n; i += 2)
    vst1q_f64(dst + i, vaddq_f64(vld1q_f64(a + i), vld1q_f64(b + i)));
  for (; i < n; ++i) dst[i] = a[i] + b[i];
}

void neon_vsub(std::size_t n, double* dst, const double* a, const double* b) {
  std::size_t i = 0;
  for (; i + 2 <= n; i += 2)
    vst1q_f64(dst + i, vsubq_f64(vld1q_f64(a + i), vld1q_f64(b + i)));
  for (; i < n; ++i) dst[i] = a[i] - b[i];
}

void neon_vadd_inplace(std::size_t n, double* dst, const double* a) {
  std::size_t i = 0;
  for (; i + 2 <= n; i += 2)
    vst1q_f64(dst + i, vaddq_f64(vld1q_f64(dst + i), vld1q_f64(a + i)));
  for (; i < n; ++i) dst[i] += a[i];
}

void neon_vsub_inplace(std::size_t n, double* dst, const double* a) {
  std::size_t i = 0;
  for (; i + 2 <= n; i += 2)
    vst1q_f64(dst + i, vsubq_f64(vld1q_f64(dst + i), vld1q_f64(a + i)));
  for (; i < n; ++i) dst[i] -= a[i];
}

constexpr LeafKernels kTable = {
    Kind::kNeon,
    "neon",
    /*mr=*/4,
    /*nr=*/4,
    neon_gemm,
    neon_gemm_fused_ab,
    neon_vadd,
    neon_vsub,
    neon_vadd_inplace,
    neon_vsub_inplace,
};

}  // namespace

namespace detail {
const LeafKernels* neon_table() noexcept { return &kTable; }
}  // namespace detail

}  // namespace strassen::blas::kernels

#else  // !(__aarch64__ && __ARM_NEON)

namespace strassen::blas::kernels::detail {
// No double-precision Advanced SIMD on this target (or NEON disabled); the
// registry treats the kind as not compiled in.
const LeafKernels* neon_table() noexcept { return nullptr; }
}  // namespace strassen::blas::kernels::detail

#endif
