// family.hpp -- one-level interpreter for <m,k,n> fast-algorithm tables.
//
// Executes ONE level of a coefficient table (analysis/algo_family.hpp) over
// the column-major operands and hands every block product to a sub-GEMM
// callback -- in production the full <2,2,2> MODGEMM driver (so each product
// gets the planner's Morton-vs-pack-fused choice, the workspace ladder and
// the SIMD kernels for free), in the parallel driver a pmodgemm product.
// This is the one-level-of-X-then-Winograd hybrid: a 384x256x384 problem
// under <3,2,3> becomes 17 Winograd-friendly 128x128x128 products instead of
// one heavily padded 2x2x2 recursion or a split-path reconstruction.
//
// Per product r the driver stages
//
//     Asum = sum_{i,l} a[r][i,l] * op(A)_il      (pm x pk, zero-clipped)
//     Bsum = sum_{l,j} b[r][l,j] * op(B)_lj      (pk x pn, zero-clipped)
//     P    = Asum . Bsum                         (sub-GEMM)
//
// and scatters c[i,j][r] * P into the (i,j) blocks of a dense accumulator;
// a single axpby merge applies alpha/beta at the end.  Partition sizes are
// pm = ceil(m/bm) etc.; edge blocks smaller than the partition read as zero
// (the staging buffers are zero-filled first), which is exact -- no padding
// of the operands themselves is ever materialized.
//
// Exception safety follows the modgemm contract: the arena is fully pushed
// before any arithmetic and C is written only by the final merge, so any
// std::bad_alloc out of this driver (or its sub-products) leaves C
// untouched and the caller may retry on the plain <2,2,2> path.
#pragma once

#include <algorithm>
#include <cstddef>

#include "analysis/algo_family.hpp"
#include "blas/gemm.hpp"
#include "blas/view_ops.hpp"
#include "common/arena.hpp"
#include "common/check.hpp"
#include "common/matrix.hpp"
#include "common/timer.hpp"
#include "obs/report.hpp"

namespace strassen::core {

// Ceiling partition width of one dimension under a block count.
constexpr int family_partition(int dim, int blocks) {
  return (dim + blocks - 1) / blocks;
}

// The plan a family call reports: one table level over ceil partitions.
// Its tile/depth fields describe the partition grid, not a <2,2,2>
// recursion (layout/plan.hpp documents this).
inline layout::GemmPlan family_plan(const analysis::FamilyTable& t,
                                    analysis::AlgoFamily algo, int m, int k,
                                    int n) {
  layout::GemmPlan fam;
  fam.feasible = true;
  fam.depth = 1;
  fam.algo = algo;
  const int pm = family_partition(m, t.bm);
  const int pk = family_partition(k, t.bk);
  const int pn = family_partition(n, t.bn);
  fam.m = layout::DimPlan{m, pm, 1, pm * t.bm};
  fam.k = layout::DimPlan{k, pk, 1, pk * t.bk};
  fam.n = layout::DimPlan{n, pn, 1, pn * t.bn};
  return fam;
}

// Peak temporary bytes the one-level interpreter needs for C <- op(A).op(B)
// under this table: the three staging buffers plus the dense C accumulator,
// with the arena's per-allocation 64-byte rounding.  The sub-products'
// workspace is NOT included -- each sub-GEMM books its own (sequentially,
// so the call's true peak is this plus one sub-product's workspace).
inline std::size_t family_workspace_bytes(const analysis::FamilyTable& t,
                                          int m, int k, int n,
                                          std::size_t elem_size) {
  const std::size_t pm = static_cast<std::size_t>(family_partition(m, t.bm));
  const std::size_t pk = static_cast<std::size_t>(family_partition(k, t.bk));
  const std::size_t pn = static_cast<std::size_t>(family_partition(n, t.bn));
  auto r64 = [](std::size_t b) { return checked_add(b, 63) / 64 * 64; };
  std::size_t total = r64(checked_mul(checked_mul(pm, pk), elem_size));
  total = checked_add(total, r64(checked_mul(checked_mul(pk, pn), elem_size)));
  total = checked_add(total, r64(checked_mul(checked_mul(pm, pn), elem_size)));
  total = checked_add(
      total, r64(checked_mul(checked_mul(static_cast<std::size_t>(m),
                                         static_cast<std::size_t>(n)),
                             elem_size)));
  return total;
}

namespace detail {

// dst (rows x cols sub-view of a pr-ld buffer) +-= the clipped (row0, col0)
// block of op(X).  op(X)(r, c) = X(c, r) for the transposed case, i.e. the
// element lives at X[r * ldx + c] -- a column-strided read view_ops cannot
// express, hence the explicit loop.
template <class MM, class T>
void family_accum_block(MM& mm, T* dst, int ld, int sign, Op opx, const T* X,
                        int ldx, int row0, int rows, int col0, int cols) {
  if (opx == Op::NoTrans) {
    const T* src = X + static_cast<std::size_t>(col0) * ldx + row0;
    if (sign > 0)
      blas::view_add_inplace(mm, rows, cols, dst, ld, src, ldx);
    else
      blas::view_sub_inplace(mm, rows, cols, dst, ld, src, ldx);
    return;
  }
  for (int j = 0; j < cols; ++j) {
    T* d = dst + static_cast<std::size_t>(j) * ld;
    for (int i = 0; i < rows; ++i) {
      const T v =
          mm.load(X + static_cast<std::size_t>(row0 + i) * ldx + (col0 + j));
      mm.store(d + i, static_cast<T>(sign > 0 ? mm.load(d + i) + v
                                              : mm.load(d + i) - v));
    }
  }
}

// One-level family execution over a CALLER-OWNED arena sized to at least
// family_workspace_bytes.  `sub(m2, n2, k2, A2, lda2, B2, ldb2, C2, ldc2)`
// must compute C2 <- A2 . B2 (alpha 1, beta 0, NoTrans) and may throw; C is
// untouched until every product has completed.  Phase accounting: staging
// and scatter/merge go to the conversion timers, the sub-products (whose
// own conversion the callback hides) to the compute timer.
template <class MM, class T, class SubGemm>
void modgemm_family_arena(MM& mm, Op opa, Op opb, int m, int n, int k,
                          T alpha, const T* A, int lda, const T* B, int ldb,
                          T beta, T* C, int ldc,
                          const analysis::FamilyTable& t, Arena& arena,
                          SubGemm&& sub, obs::GemmReport* report) {
  const int pm = family_partition(m, t.bm);
  const int pk = family_partition(k, t.bk);
  const int pn = family_partition(n, t.bn);
  T* Asum = arena.push<T>(checked_mul(static_cast<std::size_t>(pm),
                                      static_cast<std::size_t>(pk)));
  T* Bsum = arena.push<T>(checked_mul(static_cast<std::size_t>(pk),
                                      static_cast<std::size_t>(pn)));
  T* P = arena.push<T>(checked_mul(static_cast<std::size_t>(pm),
                                   static_cast<std::size_t>(pn)));
  T* Cacc = arena.push<T>(checked_mul(static_cast<std::size_t>(m),
                                      static_cast<std::size_t>(n)));
  double t_stage = 0, t_mul = 0, t_scatter = 0;
  WallTimer timer;
  blas::scale_view(mm, m, n, Cacc, m, T{0});
  t_scatter += timer.seconds();
  // Clipped extent of partition slot `s` (0 when the slot is entirely
  // outside the real dimension, e.g. m < bm).
  auto clip = [](int dim, int part, int s) {
    const int lo = s * part;
    const int sz = dim - lo;
    return sz < 0 ? 0 : (sz > part ? part : sz);
  };
  for (int r = 0; r < t.rank; ++r) {
    timer.restart();
    blas::scale_view(mm, pm, pk, Asum, pm, T{0});
    for (int i = 0; i < t.bm; ++i) {
      for (int l = 0; l < t.bk; ++l) {
        const int coef = t.a_coef(r, i, l);
        if (coef == 0) continue;
        const int rows = clip(m, pm, i);
        const int cols = clip(k, pk, l);
        if (rows == 0 || cols == 0) continue;
        family_accum_block(mm, Asum, pm, coef, opa, A, lda, i * pm, rows,
                           l * pk, cols);
      }
    }
    blas::scale_view(mm, pk, pn, Bsum, pk, T{0});
    for (int l = 0; l < t.bk; ++l) {
      for (int j = 0; j < t.bn; ++j) {
        const int coef = t.b_coef(r, l, j);
        if (coef == 0) continue;
        const int rows = clip(k, pk, l);
        const int cols = clip(n, pn, j);
        if (rows == 0 || cols == 0) continue;
        family_accum_block(mm, Bsum, pk, coef, opb, B, ldb, l * pk, rows,
                           j * pn, cols);
      }
    }
    t_stage += timer.seconds();
    timer.restart();
    sub(pm, pn, pk, static_cast<const T*>(Asum), pm,
        static_cast<const T*>(Bsum), pk, P, pm);
    t_mul += timer.seconds();
    timer.restart();
    for (int i = 0; i < t.bm; ++i) {
      for (int j = 0; j < t.bn; ++j) {
        const int g = t.c_coef(i, j, r);
        if (g == 0) continue;
        const int rows = clip(m, pm, i);
        const int cols = clip(n, pn, j);
        if (rows == 0 || cols == 0) continue;
        T* dst = Cacc + static_cast<std::size_t>(j) * pn * m + i * pm;
        if (g > 0)
          blas::view_add_inplace(mm, rows, cols, dst, m, P, pm);
        else
          blas::view_sub_inplace(mm, rows, cols, dst, m, P, pm);
      }
    }
    t_scatter += timer.seconds();
  }
  timer.restart();
  blas::axpby_view(mm, m, n, C, ldc, alpha, static_cast<const T*>(Cacc), m,
                   beta);
  t_scatter += timer.seconds();
  if (report) {
    report->convert_in_seconds += t_stage;
    report->compute_seconds += t_mul;
    report->convert_out_seconds += t_scatter;
    report->products += t.rank;
    report->workspace_peak_bytes =
        std::max(report->workspace_peak_bytes, arena.peak());
  }
}

}  // namespace detail
}  // namespace strassen::core
