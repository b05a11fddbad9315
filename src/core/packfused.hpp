// packfused.hpp -- the pack-fused (no-conversion) execution strategy.
//
// The Morton strategy (core/modgemm.hpp) pays three layout conversions per
// product -- 5-15% of the call (paper Fig. 7), pure overhead for one-shot,
// low-reuse and rectangular problems.  This strategy runs the SAME verified
// schedule tables on the SAME interpreter (core::detail::ScheduleInterpreter,
// core/winograd.hpp) as Morton, with a different operand storage: the
// caller's column-major matrices, BLIS-Strassen style (Huang, Smith, Henry &
// van de Geijn).  This file holds that storage (ViewStorage), the
// workspace sizing and the modgemm_packfused rung:
//
//   * a transposed operand is copied once, at entry, into the product's
//     arena (blas::transpose), so the recursion only ever sees untransposed
//     views; the copy is booked as convert_in_seconds;
//   * every recursion operand is a clipped VIEW (blas::PackSrc) of the user
//     matrix (or its entry copy), a recursion temporary, or a C-quadrant
//     window; zero padding is a property of the view (reads outside the
//     stored extent return 0, stores outside it are dropped), never a
//     materialized buffer;
//   * at the leaves (ViewStorage::leaf), operands the kernels cannot
//     consume in place -- boundary tiles needing zero fill, wide-strided
//     views -- are gathered by blas/pack.hpp into dense 64-byte-aligned
//     panels in this call's arena; interior views pass straight through
//     (the kernels take a leading dimension), so packing traffic
//     concentrates at the boundary;
//   * the schedule's output combinations (the U-chain add/sub-in-place
//     steps) accumulate C +-= P exactly as they do over Morton storage, so
//     the "unpack" is the table itself.
//
// Bit-exactness contract (tested in tests/test_packfused.cpp): for every
// alpha/beta and kernel, the pack-fused strategy produces BIT-IDENTICAL
// results to the Morton strategy.  The table sequence and temporaries are
// the interpreter's, so they are shared by construction; what this storage
// must keep is (1) every element-wise step performs the same single +/- per
// element on the same values, (2) every leaf invokes the same kernel on the
// same tile values (a packed
// panel replicates the Morton tile bit-for-bit; a pass-through view feeds
// the kernel the same values through a different leading dimension, which
// does not change its FMA order), and (3) the alpha/beta epilogue applies
// the exact per-element expression of layout::from_morton (via
// blas::scale_view / blas::axpby_view).
//
// Dropped C stores are sound for the same reason Morton's clipped
// write-back is: every C-shaped intermediate is a +-combination of products
// of zero-padded operands, so its values outside the real extent are exact
// zeros.
//
// Workspace: the recursion temporaries are sized exactly as the Morton
// strategy's (core/workspace.hpp), plus one leaf frame, the entry copy of
// each transposed operand and -- for beta != 0 or a padded shape -- one
// padded product scratch.  No Morton buffers exist; the bytes they would
// have cost, less the entry copies, are reported as
// GemmReport::conversion_saved_bytes.  All arena memory comes from the
// per-thread pool (parallel/arena_pool.hpp) in ONE up-front acquisition, so
// a refusal throws std::bad_alloc into the degradation ladder before any
// write to C.
#pragma once

#include <algorithm>
#include <cstddef>
#include <functional>

#include "analysis/schedule.hpp"
#include "blas/gemm.hpp"
#include "blas/kernels.hpp"
#include "blas/pack.hpp"
#include "blas/transpose.hpp"
#include "common/arena.hpp"
#include "common/check.hpp"
#include "common/matrix.hpp"
#include "common/memmodel.hpp"
#include "common/timer.hpp"
#include "core/winograd.hpp"
#include "core/workspace.hpp"
#include "layout/morton.hpp"
#include "layout/plan.hpp"
#include "obs/collector.hpp"
#include "obs/report.hpp"
#include "parallel/arena_pool.hpp"

namespace strassen::core {

// Bytes the Morton strategy would spend on the three Morton staging buffers
// for this plan (the conversion workspace a pack-fused execution avoids).
// Shared by modgemm_workspace_bytes and the conversion_saved_bytes report
// field.
inline std::size_t modgemm_conversion_bytes(const layout::GemmPlan& plan,
                                            std::size_t elem_size) {
  if (plan.direct || !plan.feasible) return 0;
  auto buf = [&](int rows_tile, int cols_tile) {
    const layout::MortonLayout l{0, 0, rows_tile, cols_tile, plan.depth};
    return checked_add(layout::buffer_bytes(l, elem_size), 63) / 64 * 64;
  };
  std::size_t total = buf(plan.m.tile, plan.k.tile);
  total = checked_add(total, buf(plan.k.tile, plan.n.tile));
  return checked_add(total, buf(plan.m.tile, plan.n.tile));
}

namespace packfused {

using blas::PackSrc;

// Clipped quadrant of an untransposed view at logical offset (r0, c0),
// extent at most hr x hc.  The pointer is only advanced when the clipped
// extent is non-empty (an all-pad quadrant must not form an out-of-bounds
// address).
template <class T>
inline PackSrc<T> quad(const PackSrc<T>& v, int r0, int c0, int hr, int hc) {
  STRASSEN_ASSERT(!v.trans);
  PackSrc<T> q;
  q.ld = v.ld;
  q.rows = std::clamp(v.rows - r0, 0, hr);
  q.cols = std::clamp(v.cols - c0, 0, hc);
  q.ptr = v.ptr;
  if (q.rows > 0 && q.cols > 0)
    q.ptr = v.ptr + static_cast<std::size_t>(c0) * v.ld + r0;
  return q;
}

namespace detail {

// d = op(x, y) over d's extent.  Source reads clip to exact zeros -- the
// values to_morton would have staged there -- and the clipped contribution
// is still COMPUTED (e.g. dj + 0), not skipped, so zero signs match the
// Morton strategy bit-for-bit.  Columns split into a dense in-bounds run
// (tight, vectorizable) and a clipped tail.
template <class T, class Op>
void combine(const PackSrc<T>& d, const PackSrc<T>& x, const PackSrc<T>& y,
             Op op) {
  STRASSEN_ASSERT(!x.trans && !y.trans);
  T* dst = const_cast<T*>(d.ptr);
  const int rows = d.rows;
  for (int j = 0; j < d.cols; ++j) {
    T* dj = dst + static_cast<std::size_t>(j) * d.ld;
    const T* xj =
        j < x.cols ? x.ptr + static_cast<std::size_t>(j) * x.ld : nullptr;
    const T* yj =
        j < y.cols ? y.ptr + static_cast<std::size_t>(j) * y.ld : nullptr;
    const int xr = xj != nullptr ? std::min(x.rows, rows) : 0;
    const int yr = yj != nullptr ? std::min(y.rows, rows) : 0;
    const int dense = std::min(xr, yr);
    for (int i = 0; i < dense; ++i) dj[i] = op(xj[i], yj[i]);
    for (int i = dense; i < rows; ++i)
      dj[i] = op(i < xr ? xj[i] : T{0}, i < yr ? yj[i] : T{0});
  }
}

// One pr x pc leaf operand as the kernel reads it: the view itself when the
// kernel can read it in place, else a panel packed into `arena` holding
// exactly the values the Morton conversion would have staged.  Wide-strided
// covering views are packed anyway: with ld > 2*pr each cache line fetched
// for a panel column carries under half useful data, so a kernel reading
// the view in place more than doubles its working set versus a contiguous
// panel (immediate-level temps have ld == 2*pr exactly and stay cheap to
// read in place; user-matrix and top-level temp reads with ld of several
// multiples of pr do not).  One packing pass pays that cost once instead of
// on every kernel sweep.
template <class T>
PackSrc<T> stage(const PackSrc<T>& s, int pr, int pc, Arena& arena) {
  if (s.covers(pr, pc) && s.ld <= 2 * pr) return s;
  T* panel = arena.push<T>(static_cast<std::size_t>(pr) * pc);
  blas::pack_panel(panel, pr, pc, s);
  return {panel, pr, false, pr, pc};
}

}  // namespace detail

// View storage for core::detail::ScheduleInterpreter: an operand of depth d
// is a clipped column-major view of a zero-padded (rows << d) x (cols << d)
// operand -- the user matrix, a C-quadrant window or an arena temporary
// (the padding is implicit, see the file comment).  No view is transposed
// (modgemm_packfused copies transposed operands at entry), and a writable
// slot's view ld doubles as the store leading dimension.  Leaves stage their panels in the recursion arena
// (sized by packfused_workspace_bytes).
template <class T>
struct ViewStorage : core::detail::LeafTiles {
  using Elem = T;
  using Ref = PackSrc<T>;

  // The full `s`-shaped operand of `depth` levels stored densely at p.
  Ref operand(const T* p, analysis::Shape s, int depth) const {
    const int r = rows(s) << depth;
    return {p, r, false, r, cols(s) << depth};
  }
  Ref quadrant(const Ref& whole, analysis::Shape s, int q, int d1) const {
    const int hr = rows(s) << d1;
    const int hc = cols(s) << d1;
    return quad(whole, (q >> 1) * hr, (q & 1) * hc, hr, hc);
  }
  // dst = x (+/-) *y, or dst (+/-)= x when y is null (run as
  // dst = dst (+/-) x: the same single operation per element).  Counted like
  // one blas::vadd/vsub call so kernel telemetry matches the Morton storage.
  void elementwise(const Ref& dst, const Ref& x, const Ref* y,
                   analysis::Sign sign) const {
    if (obs::Collector* c = obs::current()) c->note_elementwise();
    const Ref& a = y != nullptr ? x : dst;
    const Ref& b = y != nullptr ? *y : x;
    if (sign == analysis::Sign::kPlus)
      detail::combine(dst, a, b, std::plus<T>{});
    else
      detail::combine(dst, a, b, std::minus<T>{});
  }
  // C = A . B on one leaf tile.  A clipped C (a boundary tile) takes the
  // product in an arena panel and keeps its real window; the dropped values
  // are exact zeros (the padding invariant).
  void leaf(const Ref& C, const Ref& A, const Ref& B, Arena& arena) const {
    Arena::Frame frame(arena);
    const Ref a = detail::stage(A, tm, tk, arena);
    const Ref b = detail::stage(B, tk, tn, arena);
    T* out = const_cast<T*>(C.ptr);
    const bool clipped = C.rows < tm || C.cols < tn;
    T* c = clipped ? arena.push<T>(static_cast<std::size_t>(tm) * tn) : out;
    const int ldc = clipped ? tm : C.ld;
    RawMem raw;
    blas::gemm_leaf(raw, tm, tn, tk, a.ptr, a.ld, b.ptr, b.ld, c, ldc,
                    blas::LeafMode::Overwrite);
    if (!clipped) return;
    for (int j = 0; j < C.cols; ++j) {
      const T* pj = c + static_cast<std::size_t>(j) * tm;
      T* oj = out + static_cast<std::size_t>(j) * C.ld;
      for (int i = 0; i < C.rows; ++i) oj[i] = pj[i];
    }
  }
};

}  // namespace packfused

// True when a pack-fused execution of `plan` must route the product through
// a full padded C scratch instead of the caller's C: the schedule tables use
// C quadrant slots as scratch for U-chain intermediates whose values in the
// PAD region are nonzero and are read across quadrants, so the recursion
// destination must hold the full padded extent (exactly like the Morton
// strategy's C buffer) -- and beta != 0 additionally requires the original C
// to survive until the final merge.
inline bool packfused_needs_c_scratch(const layout::GemmPlan& plan, int m,
                                      int n, bool beta_nonzero) {
  return beta_nonzero || m < plan.m.padded || n < plan.n.padded;
}

// Arena bytes of the entry copies of a pack-fused product's transposed
// operands: op(A) is copied as a dense m x k matrix when opa == Trans, op(B)
// as a dense k x n one when opb == Trans.
inline std::size_t packfused_copy_bytes(const layout::GemmPlan& plan, Op opa,
                                        Op opb, std::size_t elem_size) {
  auto copy = [&](Op op, int rows, int cols) -> std::size_t {
    if (op == Op::NoTrans) return 0;
    const std::size_t elems = checked_mul(static_cast<std::size_t>(rows),
                                          static_cast<std::size_t>(cols));
    return checked_add(checked_mul(elems, elem_size), 63) / 64 * 64;
  };
  return checked_add(copy(opa, plan.m.n, plan.k.n),
                     copy(opb, plan.k.n, plan.n.n));
}

// Peak arena bytes one pack-fused product needs under `plan`: the Morton
// strategy's recursion-temporary peak for the same tables, plus one
// leaf frame (live only inside a leaf's arena frame), plus the entry copy
// of each transposed operand, plus -- when the padding or beta requires
// it -- the padded C scratch the epilogue merges into C.  With at most one
// operand transposed this stays within modgemm_workspace_bytes for the same
// plan (the A and B Morton buffers hold the copy and dwarf the leaf frame);
// with both transposed it can exceed it.  The budget ladder prices a
// pack-fused candidate at this figure (detail::budget_bytes in
// core/modgemm.hpp).
inline std::size_t packfused_workspace_bytes(const layout::GemmPlan& plan,
                                             Op opa, Op opb,
                                             std::size_t elem_size,
                                             bool c_scratch) {
  if (plan.direct || !plan.feasible) return 0;
  auto r64 = [](std::size_t b) { return checked_add(b, 63) / 64 * 64; };
  std::size_t total =
      winograd_workspace_bytes(plan.m.tile, plan.k.tile, plan.n.tile,
                               plan.depth, elem_size, plan.schedule);
  const std::size_t tm = static_cast<std::size_t>(plan.m.tile);
  const std::size_t tk = static_cast<std::size_t>(plan.k.tile);
  const std::size_t tn = static_cast<std::size_t>(plan.n.tile);
  // Worst-case leaf frame: the A panel, the B panel and a clipped
  // destination's panel.
  total = checked_add(total, r64(checked_mul(tm, tk) * elem_size));
  total = checked_add(total, r64(checked_mul(tk, tn) * elem_size));
  total = checked_add(total, r64(checked_mul(tm, tn) * elem_size));
  total = checked_add(total, packfused_copy_bytes(plan, opa, opb, elem_size));
  if (c_scratch) {
    const std::size_t pmn = checked_mul(static_cast<std::size_t>(plan.m.padded),
                                        static_cast<std::size_t>(plan.n.padded));
    total = checked_add(total, r64(checked_mul(pmn, elem_size)));
  }
  return total;
}

// The pack-fused Strassen-Winograd path for one planned product, with the
// same exactness-or-untouched-C contract as the Morton rung: the single
// arena acquisition happens before any write to C, nothing after it can
// fail, so std::bad_alloc guarantees C is untouched.  Books its phases and
// conversion savings in *report and returns the arena high-water mark; the
// ladder (core/modgemm.hpp) stamps the product's remaining fields.
//
// The recursion destination is always the FULL padded pm x pn extent: the
// schedule's U-chain parks intermediates in C quadrant slots and reads them
// across quadrants, and those intermediates are NOT zero in the pad region
// (only the final quadrant values are), so clipping C mid-recursion would
// lose live values.  When the caller's C is already full-extent (no padding)
// and beta == 0, the recursion writes C directly; otherwise it runs in a
// padded arena scratch -- the exact analogue of the Morton strategy's C
// buffer -- and the epilogue merges the real region.
//
// alpha/beta handling preserves the Morton strategy's exact rounding: the
// recursion computes the UNSCALED product, then one pass applies the
// per-element expression of layout::from_morton (plain copy when alpha == 1
// and beta == 0, alpha*p when beta == 0, alpha*p + beta*c otherwise).
template <class T>
std::size_t modgemm_packfused(Op opa, Op opb, int m, int n, int k, T alpha,
                              const T* A, int lda, const T* B, int ldb,
                              T beta, T* C, int ldc,
                              const layout::GemmPlan& plan,
                              obs::GemmReport* report) {
  STRASSEN_ASSERT(plan.feasible && !plan.direct && plan.depth >= 1);
  STRASSEN_ASSERT(plan.m.n == m && plan.k.n == k && plan.n.n == n);
  // Kreczmar's table would destroy the CALLER's matrices here; the planner
  // (detail::runnable_family) never gives a pack-fused plan kInPlace.
  STRASSEN_REQUIRE(plan.schedule != analysis::ScheduleFamily::kInPlace,
                   "pack-fused cannot run the in-place family");
  const bool c_scratch = packfused_needs_c_scratch(plan, m, n, beta != T{0});
  const std::size_t workspace_bytes =
      packfused_workspace_bytes(plan, opa, opb, sizeof(T), c_scratch);
  parallel::ScratchArena scratch(workspace_bytes);
  Arena& arena = scratch.arena();
  const int pm = plan.m.padded;
  const int pn = plan.n.padded;
  T* P = C;
  int ldp = ldc;
  if (c_scratch) {
    P = arena.push<T>(static_cast<std::size_t>(pm) * pn);
    ldp = pm;
  }

  // The one inbound pass: a transposed operand is copied into the arena, so
  // the recursion reads untransposed views only.
  WallTimer t;
  RawMem raw;
  const auto untransposed = [&](Op op, const T* X, int ld, int rows,
                                int cols) -> blas::PackSrc<T> {
    if (op == Op::NoTrans) return {X, ld, false, rows, cols};
    T* copy = arena.push<T>(static_cast<std::size_t>(rows) * cols);
    blas::transpose(raw, cols, rows, X, ld, copy, rows);
    return {copy, rows, false, rows, cols};
  };
  const blas::PackSrc<T> av = untransposed(opa, A, lda, m, k);
  const blas::PackSrc<T> bv = untransposed(opb, B, ldb, k, n);
  const double t_in =
      opa == Op::Trans || opb == Op::Trans ? t.seconds() : 0.0;

  t.restart();
  using Storage = packfused::ViewStorage<T>;
  Storage st{{plan.m.tile, plan.k.tile, plan.n.tile}};
  core::detail::ScheduleInterpreter<Storage>::recurse(
      st, blas::PackSrc<T>{P, ldp, false, pm, pn}, av, bv, plan.depth, arena,
      plan.schedule);
  const double t_mul = t.seconds();

  // The alpha/beta merge -- the only work the Morton strategy's outbound
  // conversion still has to do here (per-element expression identical to
  // layout::from_morton).
  t.restart();
  if (c_scratch) {
    if (alpha == T{1} && beta == T{0}) {
      for (int j = 0; j < n; ++j) {
        const T* pj = P + static_cast<std::size_t>(j) * ldp;
        T* cj = C + static_cast<std::size_t>(j) * ldc;
        for (int i = 0; i < m; ++i) cj[i] = pj[i];
      }
    } else {
      blas::axpby_view(raw, m, n, C, ldc, alpha, static_cast<const T*>(P),
                       ldp, beta);
    }
  } else if (alpha != T{1}) {
    blas::scale_view(raw, m, n, C, ldc, alpha);
  }
  const double t_out = t.seconds();

  if (report) {
    report->convert_in_seconds += t_in;
    report->compute_seconds += t_mul;
    report->convert_out_seconds += t_out;
    report->conversion_saved_bytes +=
        modgemm_conversion_bytes(plan, sizeof(T)) -
        packfused_copy_bytes(plan, opa, opb, sizeof(T));
  }
  // ScratchArena already noted the acquisition (bytes + count) into the
  // call's collector; only the high-water mark comes from the arena.
  return arena.peak();
}

}  // namespace strassen::core
