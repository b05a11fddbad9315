// kernels/scalar.cpp -- the portable kernel table.
//
// The gemm entry is exactly the generic 4x4 register-blocked template
// instantiated on RawMem, so STRASSEN_KERNEL=scalar reproduces the seed
// library bit for bit (and matches what TracingMem executions compute).
// For the same reason the fused entries are null: with the scalar table
// active, the Winograd recursion materializes its operand sums through the
// level-1 kernels exactly as the seed schedule did.
//
// The element-wise kernels branch on the exact-alias contract (dst == a or
// dst == b is allowed) and run restrict-qualified std::size_t loops on the
// disjoint common case, so GCC auto-vectorizes them without emitting runtime
// overlap checks (verify with -fopt-info-vec).
#include "blas/kernels/registry.hpp"

namespace strassen::blas::kernels {

namespace {

void scalar_gemm(int m, int n, int k, const double* A, int lda,
                 const double* B, int ldb, double* C, int ldc, LeafMode mode,
                 double alpha) {
  RawMem raw;
  gemm_leaf_generic(raw, m, n, k, A, lda, B, ldb, C, ldc, mode, alpha);
}

void scalar_vadd(std::size_t n, double* dst, const double* a,
                 const double* b) {
  if (dst != a && dst != b) {
    double* __restrict d = dst;
    const double* __restrict x = a;
    const double* __restrict y = b;
    for (std::size_t i = 0; i < n; ++i) d[i] = x[i] + y[i];
  } else {
    for (std::size_t i = 0; i < n; ++i) dst[i] = a[i] + b[i];
  }
}

void scalar_vsub(std::size_t n, double* dst, const double* a,
                 const double* b) {
  if (dst != a && dst != b) {
    double* __restrict d = dst;
    const double* __restrict x = a;
    const double* __restrict y = b;
    for (std::size_t i = 0; i < n; ++i) d[i] = x[i] - y[i];
  } else {
    for (std::size_t i = 0; i < n; ++i) dst[i] = a[i] - b[i];
  }
}

void scalar_vadd_inplace(std::size_t n, double* dst, const double* a) {
  if (dst != a) {
    double* __restrict d = dst;
    const double* __restrict x = a;
    for (std::size_t i = 0; i < n; ++i) d[i] += x[i];
  } else {
    for (std::size_t i = 0; i < n; ++i) dst[i] += dst[i];
  }
}

void scalar_vsub_inplace(std::size_t n, double* dst, const double* a) {
  if (dst != a) {
    double* __restrict d = dst;
    const double* __restrict x = a;
    for (std::size_t i = 0; i < n; ++i) d[i] -= x[i];
  } else {
    for (std::size_t i = 0; i < n; ++i) dst[i] = 0.0;
  }
}

constexpr LeafKernels kTable = {
    Kind::kScalar,
    "scalar",
    /*mr=*/4,
    /*nr=*/4,
    scalar_gemm,
    /*gemm_fused_ab=*/nullptr,
    scalar_vadd,
    scalar_vsub,
    scalar_vadd_inplace,
    scalar_vsub_inplace,
};

}  // namespace

namespace detail {
const LeafKernels& scalar_table() noexcept { return kTable; }
}  // namespace detail

}  // namespace strassen::blas::kernels
