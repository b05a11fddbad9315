// strassen_classic.hpp -- Strassen's ORIGINAL 1969 construction.
//
// The paper (S2) presents the original seven products P1..P7 before
// introducing Winograd's variant; the difference is the number of quadrant
// additions (Winograd's 15 is the minimum; the original needs 18, and the
// straightforward product-at-a-time scheduling below performs 22 including
// the three initializing copies).  Running this schedule over the same
// Morton machinery as MODGEMM isolates the schedule choice as an ablation:
// layout, planner, conversions and leaf kernel are all shared.
//
//   P1 = (A11+A22)(B11+B22)      C11 = P1 + P4 - P5 + P7
//   P2 = (A21+A22) B11           C12 = P3 + P5
//   P3 = A11 (B12-B22)           C21 = P2 + P4
//   P4 = A22 (B21-B11)           C22 = P1 - P2 + P3 + P6
//   P5 = (A11+A12) B22
//   P6 = (A21-A11)(B11+B12)
//   P7 = (A12-A22)(B21+B22)
#pragma once

#include "blas/kernels.hpp"
#include "blas/level1.hpp"
#include "common/arena.hpp"
#include "common/matrix.hpp"
#include "common/memmodel.hpp"
#include "core/modgemm.hpp"

namespace strassen::baselines {

namespace detail {

// C = A * B on Morton blocks; same contract as core::winograd_recurse.
// Temporaries per level: tA (A-quadrant shaped), tB (B-quadrant), tP
// (C-quadrant) -- the paper's 3-temporary footprint
// (classic_workspace_bytes), one buffer more than the library's Winograd
// table needs.
template <class MM, class T>
void classic_recurse(MM& mm, T* C, const T* A, const T* B, int tm, int tk,
                     int tn, int depth, Arena& arena) {
  if (depth == 0) {
    blas::gemm_leaf(mm, tm, tn, tk, A, tm, B, tk, C, tm,
                    blas::LeafMode::Overwrite);
    return;
  }
  const int d1 = depth - 1;
  const std::size_t scale = std::size_t{1} << (2 * d1);
  const std::size_t qa = static_cast<std::size_t>(tm) * tk * scale;
  const std::size_t qb = static_cast<std::size_t>(tk) * tn * scale;
  const std::size_t qc = static_cast<std::size_t>(tm) * tn * scale;

  const T* A11 = A;
  const T* A12 = A + qa;
  const T* A21 = A + 2 * qa;
  const T* A22 = A + 3 * qa;
  const T* B11 = B;
  const T* B12 = B + qb;
  const T* B21 = B + 2 * qb;
  const T* B22 = B + 3 * qb;
  T* C11 = C;
  T* C12 = C + qc;
  T* C21 = C + 2 * qc;
  T* C22 = C + 3 * qc;

  Arena::Frame frame(arena);
  T* tA = arena.push<T>(qa);
  T* tB = arena.push<T>(qb);
  T* tP = arena.push<T>(qc);

  auto mul = [&](T* dst, const T* a, const T* b) {
    classic_recurse(mm, dst, a, b, tm, tk, tn, d1, arena);
  };

  blas::vadd(mm, qa, tA, A11, A22);
  blas::vadd(mm, qb, tB, B11, B22);
  mul(tP, tA, tB);                       // P1
  blas::vcopy(mm, qc, C11, tP);
  blas::vcopy(mm, qc, C22, tP);
  blas::vadd(mm, qa, tA, A21, A22);
  mul(tP, tA, B11);                      // P2
  blas::vcopy(mm, qc, C21, tP);
  blas::vsub_inplace(mm, qc, C22, tP);
  blas::vsub(mm, qb, tB, B12, B22);
  mul(tP, A11, tB);                      // P3
  blas::vcopy(mm, qc, C12, tP);
  blas::vadd_inplace(mm, qc, C22, tP);
  blas::vsub(mm, qb, tB, B21, B11);
  mul(tP, A22, tB);                      // P4
  blas::vadd_inplace(mm, qc, C11, tP);
  blas::vadd_inplace(mm, qc, C21, tP);
  blas::vadd(mm, qa, tA, A11, A12);
  mul(tP, tA, B22);                      // P5
  blas::vadd_inplace(mm, qc, C12, tP);
  blas::vsub_inplace(mm, qc, C11, tP);
  blas::vsub(mm, qa, tA, A21, A11);
  blas::vadd(mm, qb, tB, B11, B12);
  mul(tP, tA, tB);                       // P6
  blas::vadd_inplace(mm, qc, C22, tP);
  blas::vsub(mm, qa, tA, A12, A22);
  blas::vadd(mm, qb, tB, B21, B22);
  mul(tP, tA, tB);                       // P7
  blas::vadd_inplace(mm, qc, C11, tP);
}

// Arena bytes classic_recurse pushes: tA, tB and tP at every level, each
// rounded to the arena's 64-byte granularity.
inline std::size_t classic_workspace_bytes(int tm, int tk, int tn, int depth,
                                           std::size_t elem_size) {
  std::size_t total = 0;
  for (int d1 = depth - 1; d1 >= 0; --d1) {
    const std::size_t scale = std::size_t{1} << (2 * d1);
    for (const int e : {tm * tk, tk * tn, tm * tn})
      total = checked_add(
          total,
          checked_add(checked_mul(static_cast<std::size_t>(e) * scale,
                                  elem_size),
                      63) /
              64 * 64);
  }
  return total;
}

}  // namespace detail

// Full dgemm semantics via the MODGEMM pipeline (plan, convert, recurse,
// fused convert-back) but with the classic schedule at every level.
// Shapes must plan at a single depth (square and mildly rectangular); this
// baseline does not implement the highly-rectangular split.
template <class MM, class T>
void strassen_classic_mm(MM& mm, Op opa, Op opb, int m, int n, int k, T alpha,
                         const T* A, int lda, const T* B, int ldb, T beta,
                         T* C, int ldc,
                         const core::ModgemmOptions& opt = {}) {
  STRASSEN_REQUIRE(m >= 0 && n >= 0 && k >= 0, "negative dimension");
  if (m == 0 || n == 0) return;
  if (alpha == T{0} || k == 0) {
    blas::scale_view(mm, m, n, C, ldc, beta);
    return;
  }
  const layout::GemmPlan plan = layout::plan_gemm(m, k, n, opt.tiles);
  if (plan.direct) {
    blas::gemm_blocked(mm, opa, opb, m, n, k, alpha, A, lda, B, ldb, beta, C,
                       ldc);
    return;
  }
  STRASSEN_REQUIRE(plan.feasible,
                   "strassen_classic does not split highly rectangular "
                   "problems; use core::modgemm");
  const layout::MortonLayout la{m, k, plan.m.tile, plan.k.tile, plan.depth};
  const layout::MortonLayout lb{k, n, plan.k.tile, plan.n.tile, plan.depth};
  const layout::MortonLayout lc{m, n, plan.m.tile, plan.n.tile, plan.depth};
  Arena arena(
      static_cast<std::size_t>(la.elems() + lb.elems() + lc.elems()) *
          sizeof(T) +
      3 * 64 +
      detail::classic_workspace_bytes(plan.m.tile, plan.k.tile, plan.n.tile,
                                      plan.depth, sizeof(T)));
  T* Am = arena.push<T>(static_cast<std::size_t>(la.elems()));
  T* Bm = arena.push<T>(static_cast<std::size_t>(lb.elems()));
  T* Cm = arena.push<T>(static_cast<std::size_t>(lc.elems()));
  layout::to_morton(mm, la, Am, opa, A, lda);
  layout::to_morton(mm, lb, Bm, opb, B, ldb);
  detail::classic_recurse(mm, Cm, Am, Bm, plan.m.tile, plan.k.tile,
                          plan.n.tile, plan.depth, arena);
  layout::from_morton(mm, lc, Cm, alpha, C, ldc, beta);
}

// Production entry point.
void strassen_classic(Op opa, Op opb, int m, int n, int k, double alpha,
                      const double* A, int lda, const double* B, int ldb,
                      double beta, double* C, int ldc,
                      const core::ModgemmOptions& opt = {});

}  // namespace strassen::baselines
