// kernels.hpp -- the register-blocked leaf GEMM microkernel.
//
// This is the routine that runs when the Strassen-Winograd recursion
// truncates: a column-major multiply of small matrices (tiles of side 16..64
// in MODGEMM; blocks up to the cutoff in the baselines).  Its cache behaviour
// -- contiguous tile (ld == rows) versus strided submatrix (ld == base
// matrix) -- is precisely what the paper's Fig. 3 measures.
//
// Two layers:
//
//   * gemm_leaf_generic -- the MemModel-templated 4x4 register-blocked
//     kernel (k-loop innermost; at -O2+ with RawMem the accumulators live in
//     vector registers and GCC emits FMAs).  Every memory model other than
//     RawMem runs this code, so traced/counted executions have a single
//     deterministic address stream.
//   * gemm_leaf -- the dispatching wrapper.  For the production (RawMem,
//     double) instantiation it routes to the kernel engine
//     (blas/kernels/registry.hpp) when a SIMD kernel is active: explicit
//     micro-kernels (AVX-512F 24x8, AVX2+FMA 8x6, NEON 4x4) selected by a
//     runtime CPU probe.  With the scalar kernel active it compiles the local
//     gemm_leaf_generic instantiation instead -- the identical per-TU code
//     the pre-engine library ran -- so STRASSEN_KERNEL=scalar reproduces the
//     seed bit for bit.
//
// Edges (m or n not multiples of the register block) fall back to a scalar
// path in every implementation.
#pragma once

#include <cstddef>
#include <type_traits>

#include "common/memmodel.hpp"
#include "obs/collector.hpp"

namespace strassen::blas {

// Whether the leaf multiply overwrites C or accumulates into it.
enum class LeafMode { Overwrite, Accumulate };

namespace kernels {
// Implemented in kernels/registry.cpp: invokes the active engine kernel.
// Declared here (rather than via registry.hpp) to keep this header free of
// the engine types it is included by.
void dispatch_gemm_leaf(int m, int n, int k, const double* A, int lda,
                        const double* B, int ldb, double* C, int ldc,
                        LeafMode mode, double alpha) noexcept;
// True when the active kernel is a SIMD table (not scalar).  gemm_leaf only
// crosses into the engine when this holds; with the scalar kernel active it
// falls through to the caller's own gemm_leaf_generic instantiation instead,
// so STRASSEN_KERNEL=scalar executes exactly the per-TU code the pre-engine
// library compiled (out-of-line instantiations of the same template can
// contract FMAs differently, which would break seed bit-exactness).
bool simd_gemm_active() noexcept;
}  // namespace kernels

namespace detail {

// Scalar edge path: C(i0..i0+mr, j0..j0+nr) {=, +=} alpha * A*B.
template <class MM, class T>
void gemm_edge(MM& mm, int i0, int mr, int j0, int nr, int k, const T* A,
               int lda, const T* B, int ldb, T* C, int ldc, LeafMode mode,
               T alpha) {
  for (int j = j0; j < j0 + nr; ++j) {
    for (int i = i0; i < i0 + mr; ++i) {
      T acc{0};
      for (int p = 0; p < k; ++p)
        acc += mm.load(A + static_cast<std::size_t>(p) * lda + i) *
               mm.load(B + static_cast<std::size_t>(j) * ldb + p);
      T* c = C + static_cast<std::size_t>(j) * ldc + i;
      const T v = alpha * acc;
      mm.store(c, mode == LeafMode::Overwrite ? v
                                              : static_cast<T>(mm.load(c) + v));
    }
  }
}

}  // namespace detail

// C(m x n) {=, +=} alpha * A(m x k) * B(k x n); all column-major.  The
// portable 4x4 register-blocked kernel, templated over the memory model.
template <class MM, class T>
void gemm_leaf_generic(MM& mm, int m, int n, int k, const T* A, int lda,
                       const T* B, int ldb, T* C, int ldc, LeafMode mode,
                       T alpha = T{1}) {
  constexpr int MR = 4;
  constexpr int NR = 4;
  const int m4 = m - m % MR;
  const int n4 = n - n % NR;

  for (int j = 0; j < n4; j += NR) {
    const T* Bj0 = B + static_cast<std::size_t>(j + 0) * ldb;
    const T* Bj1 = B + static_cast<std::size_t>(j + 1) * ldb;
    const T* Bj2 = B + static_cast<std::size_t>(j + 2) * ldb;
    const T* Bj3 = B + static_cast<std::size_t>(j + 3) * ldb;
    for (int i = 0; i < m4; i += MR) {
      T c00{0}, c10{0}, c20{0}, c30{0};
      T c01{0}, c11{0}, c21{0}, c31{0};
      T c02{0}, c12{0}, c22{0}, c32{0};
      T c03{0}, c13{0}, c23{0}, c33{0};
      const T* Ap = A + i;
      for (int p = 0; p < k; ++p, Ap += lda) {
        const T a0 = mm.load(Ap + 0);
        const T a1 = mm.load(Ap + 1);
        const T a2 = mm.load(Ap + 2);
        const T a3 = mm.load(Ap + 3);
        const T b0 = mm.load(Bj0 + p);
        const T b1 = mm.load(Bj1 + p);
        const T b2 = mm.load(Bj2 + p);
        const T b3 = mm.load(Bj3 + p);
        c00 += a0 * b0; c10 += a1 * b0; c20 += a2 * b0; c30 += a3 * b0;
        c01 += a0 * b1; c11 += a1 * b1; c21 += a2 * b1; c31 += a3 * b1;
        c02 += a0 * b2; c12 += a1 * b2; c22 += a2 * b2; c32 += a3 * b2;
        c03 += a0 * b3; c13 += a1 * b3; c23 += a2 * b3; c33 += a3 * b3;
      }
      T* Cj = C + static_cast<std::size_t>(j) * ldc + i;
      auto out = [&](T* c, T acc) {
        const T v = alpha * acc;
        mm.store(c, mode == LeafMode::Overwrite
                        ? v
                        : static_cast<T>(mm.load(c) + v));
      };
      out(Cj + 0, c00); out(Cj + 1, c10); out(Cj + 2, c20); out(Cj + 3, c30);
      Cj += ldc;
      out(Cj + 0, c01); out(Cj + 1, c11); out(Cj + 2, c21); out(Cj + 3, c31);
      Cj += ldc;
      out(Cj + 0, c02); out(Cj + 1, c12); out(Cj + 2, c22); out(Cj + 3, c32);
      Cj += ldc;
      out(Cj + 0, c03); out(Cj + 1, c13); out(Cj + 2, c23); out(Cj + 3, c33);
    }
    if (m4 < m)
      detail::gemm_edge(mm, m4, m - m4, j, NR, k, A, lda, B, ldb, C, ldc, mode,
                        alpha);
  }
  if (n4 < n)
    detail::gemm_edge(mm, 0, m, n4, n - n4, k, A, lda, B, ldb, C, ldc, mode,
                      alpha);
}

// C(m x n) {=, +=} alpha * A(m x k) * B(k x n); all column-major.  The
// production (RawMem, double) instantiation runs the engine's active SIMD
// kernel; every other memory model / element type compiles the generic
// template, so traced and float executions are engine-independent.
template <class MM, class T>
void gemm_leaf(MM& mm, int m, int n, int k, const T* A, int lda, const T* B,
               int ldb, T* C, int ldc, LeafMode mode, T alpha = T{1}) {
  if constexpr (std::is_same_v<MM, RawMem> && std::is_same_v<T, double>) {
    // Counted/timed whether the engine dispatches SIMD or falls through to
    // the generic template: LeafTimer is a pointer test when unobserved.
    obs::LeafTimer lt;
    if (kernels::simd_gemm_active()) {
      kernels::dispatch_gemm_leaf(m, n, k, A, lda, B, ldb, C, ldc, mode,
                                  alpha);
      return;
    }
    gemm_leaf_generic(mm, m, n, k, A, lda, B, ldb, C, ldc, mode, alpha);
    return;
  }
  gemm_leaf_generic(mm, m, n, k, A, lda, B, ldb, C, ldc, mode, alpha);
}

// Convenience overload on the production model.
void gemm_leaf(int m, int n, int k, const double* A, int lda, const double* B,
               int ldb, double* C, int ldc, LeafMode mode, double alpha = 1.0);

}  // namespace strassen::blas
