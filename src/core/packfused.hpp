// packfused.hpp -- the pack-fused (no-conversion) execution strategy.
//
// The Morton strategy (core/modgemm.hpp) pays three layout conversions per
// product -- 5-15% of the call (paper Fig. 7), pure overhead for one-shot,
// low-reuse and rectangular problems.  This strategy runs the SAME verified
// schedule tables (analysis/schedule.hpp) directly over the caller's
// column-major storage, BLIS-Strassen style (Huang, Smith, Henry & van de
// Geijn):
//
//   * every recursion operand is a clipped VIEW (blas::PackSrc) of the user
//     matrix, a recursion temporary, or a C-quadrant window; zero padding is
//     a property of the view (reads outside the stored extent return 0,
//     stores outside it are dropped), never a materialized buffer;
//   * at the leaves, operands the kernels cannot consume in place --
//     transposed sources, boundary tiles needing zero fill, Winograd operand
//     sums (A_i +- A_j) -- are gathered by blas/pack.hpp into dense
//     64-byte-aligned panels drawn from the per-thread arena pool; interior
//     untransposed views pass straight through (the kernels take a leading
//     dimension), so packing traffic concentrates at the boundary;
//   * the schedule's output combinations (the U-chain add/sub-in-place
//     steps) accumulate C +-= P exactly as they do over Morton storage, so
//     the "unpack" is the table itself.
//
// Bit-exactness contract (tested in tests/test_packfused.cpp): for every
// alpha/beta and kernel, the pack-fused strategy produces BIT-IDENTICAL
// results to the Morton strategy.  This holds because (1) both strategies
// select tables by analysis::level_schedule, (2) every element-wise
// step performs the same single +/- per element on the same values, (3)
// every leaf invokes the same kernel entry on the same tile values (a packed
// panel replicates the Morton tile bit-for-bit; a pass-through view feeds
// the kernel the same values through a different leading dimension, which
// does not change its FMA order), and (4) the alpha/beta epilogue applies
// the exact per-element expression of layout::from_morton (via
// blas::scale_view / blas::axpby_view).
//
// Dropped C stores are sound for the same reason Morton's clipped
// write-back is: every C-shaped intermediate is a +-combination of products
// of zero-padded operands, so its values outside the real extent are exact
// zeros.
//
// Workspace: the recursion temporaries are sized exactly as the Morton
// strategy's (core/workspace.hpp), plus one leaf panel set and -- for
// beta != 0 -- one m x n product scratch.  No Morton buffers exist; the
// bytes they would have cost are reported as
// GemmReport::conversion_saved_bytes.  All arena memory comes from the
// per-thread pool (parallel/arena_pool.hpp) in ONE up-front acquisition, so
// a refusal throws std::bad_alloc into the degradation ladder before any
// write to C.
#pragma once

#include <algorithm>
#include <cstddef>
#include <type_traits>

#include "analysis/schedule.hpp"
#include "blas/gemm.hpp"
#include "blas/kernels.hpp"
#include "blas/kernels/registry.hpp"
#include "blas/pack.hpp"
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

// The schedule family a pack-fused execution actually runs.  kInPlace is
// mapped to kLowMem: the in-place table overwrites its A/B operand slots,
// which over Morton storage are the call's own staging copies but here would
// be the USER's matrices.  kLowMem is the closest verified schedule with the
// same products.
inline analysis::ScheduleFamily executed_family(analysis::ScheduleFamily f) {
  if (f == analysis::ScheduleFamily::kAuto)
    return analysis::ScheduleFamily::kWinograd;
  if (f == analysis::ScheduleFamily::kInPlace)
    return analysis::ScheduleFamily::kLowMem;
  return f;
}

// Clipped quadrant of a read view at logical offset (r0, c0), extent at most
// hr x hc.  The pointer is only advanced when the clipped extent is
// non-empty (an all-pad quadrant must not form an out-of-bounds address).
template <class T>
inline PackSrc<T> quad(const PackSrc<T>& v, int r0, int c0, int hr, int hc) {
  PackSrc<T> q;
  q.ld = v.ld;
  q.trans = v.trans;
  q.rows = std::clamp(v.rows - r0, 0, hr);
  q.cols = std::clamp(v.cols - c0, 0, hc);
  q.ptr = v.ptr;
  if (q.rows > 0 && q.cols > 0)
    q.ptr = v.trans ? v.ptr + static_cast<std::size_t>(r0) * v.ld + c0
                    : v.ptr + static_cast<std::size_t>(c0) * v.ld + r0;
  return q;
}

namespace detail {

using core::detail::fused_op;

// One side of a leaf product, presented the way the kernel entries expect:
// source pointer(s) sharing one leading dimension.  Views the kernels can
// read in place pass through; everything else is packed into arena panels
// holding exactly the values the Morton conversion would have staged.
template <class T>
struct LeafSide {
  const T* p0 = nullptr;
  const T* p1 = nullptr;
  int ld = 0;
};

template <class T>
LeafSide<T> stage_side(const PackSrc<T>& s0, const PackSrc<T>* s1, int pr,
                       int pc, Arena& arena) {
  // Wide-strided covering views are packed anyway: with ld > 2*pr each
  // cache line fetched for a panel column carries under half useful data,
  // so a kernel reading the view in place more than doubles its working
  // set versus a contiguous panel (immediate-level temps have ld == 2*pr
  // exactly and stay cheap to read in place; user-matrix and top-level
  // temp reads with ld of several multiples of pr do not).  One packing
  // pass pays that cost once instead of on every kernel sweep.
  auto wide = [&](const PackSrc<T>& s) { return s.ld > 2 * pr; };
  LeafSide<T> out;
  const bool in_place =
      s1 == nullptr ? (s0.covers(pr, pc) && !wide(s0))
                    : (s0.covers(pr, pc) && s1->covers(pr, pc) &&
                       !s0.trans && !s1->trans && s0.ld == s1->ld &&
                       !wide(s0) && !wide(*s1));
  if (in_place) {
    out.p0 = s0.ptr;
    out.p1 = s1 != nullptr ? s1->ptr : nullptr;
    out.ld = s0.ld;
    return out;
  }
  T* panel0 = arena.push<T>(static_cast<std::size_t>(pr) * pc);
  blas::pack_panel(panel0, pr, pc, s0);
  out.p0 = panel0;
  out.ld = pr;
  if (s1 != nullptr) {
    T* panel1 = arena.push<T>(static_cast<std::size_t>(pr) * pc);
    blas::pack_panel(panel1, pr, pc, *s1);
    out.p1 = panel1;
  }
  return out;
}

// One leaf product: dst(real dr x dc window of the tm x tn tile, leading
// dimension ldd) = (a0 [asign a1]) . (b0 [bsign b1]).  Fused partners are
// only ever present when the caller selected the fused-L1 table, i.e. when
// `fused` points at a kernel table publishing the fused entries.  Values the
// clipped destination drops are exact zeros (padding invariant).
template <class T>
void leaf_product(T* dst, int ldd, int dr, int dc, const PackSrc<T>& a0,
                  const PackSrc<T>* a1, analysis::Sign asign,
                  const PackSrc<T>& b0, const PackSrc<T>* b1,
                  analysis::Sign bsign, int tm, int tk, int tn, Arena& arena,
                  const blas::kernels::LeafKernels* fused) {
  Arena::Frame frame(arena);
  const LeafSide<T> a = stage_side(a0, a1, tm, tk, arena);
  const LeafSide<T> b = stage_side(b0, b1, tk, tn, arena);
  T* cptr = dst;
  int ldc = ldd;
  const bool clipped = dr < tm || dc < tn;
  if (clipped) {
    cptr = arena.push<T>(static_cast<std::size_t>(tm) * tn);
    ldc = tm;
  }
  if (a1 != nullptr || b1 != nullptr) {
    if constexpr (std::is_same_v<T, double>) {
      STRASSEN_REQUIRE(fused != nullptr,
                       "fused leaf product without a fused kernel table");
      obs::LeafTimer lt(/*fused=*/true);
      if (a1 != nullptr && b1 != nullptr) {
        fused->gemm_fused_ab(tm, tn, tk, a.p0, a.p1, fused_op(asign), a.ld,
                             b.p0, b.p1, fused_op(bsign), b.ld, cptr, ldc);
      } else if (a1 != nullptr) {
        fused->gemm_fused_a(tm, tn, tk, a.p0, a.p1, fused_op(asign), a.ld,
                            b.p0, b.ld, cptr, ldc);
      } else {
        fused->gemm_fused_b(tm, tn, tk, a.p0, a.ld, b.p0, b.p1,
                            fused_op(bsign), b.ld, cptr, ldc);
      }
    } else {
      STRASSEN_REQUIRE(false,
                       "fused leaf product in a non-double instantiation");
    }
  } else {
    RawMem raw;
    blas::gemm_leaf(raw, tm, tn, tk, a.p0, a.ld, b.p0, b.ld, cptr, ldc,
                    blas::LeafMode::Overwrite);
  }
  if (clipped) {
    // Unpack: the real window takes the product; the padded remainder holds
    // exact zeros and is dropped.
    for (int j = 0; j < dc; ++j) {
      const T* pj = cptr + static_cast<std::size_t>(j) * tm;
      T* oj = dst + static_cast<std::size_t>(j) * ldd;
      for (int i = 0; i < dr; ++i) oj[i] = pj[i];
    }
  }
}

}  // namespace detail

// C-view (real crows x ccols window of the padded (tm<<depth) x (tn<<depth)
// product, leading dimension ldc) = A-view . B-view, by the `family`
// schedule tables.  Mirrors core::winograd_recurse level for level: same
// table selection, same temporary sizes and push order, same step sequence.
template <class T>
void recurse(T* C, int ldc, int crows, int ccols, const PackSrc<T>& A,
             const PackSrc<T>& B, int tm, int tk, int tn, int depth,
             Arena& arena, analysis::ScheduleFamily family) {
  using analysis::Operand;
  using analysis::StepKind;
  if (depth == 0) {
    detail::leaf_product<T>(C, ldc, crows, ccols, A, nullptr,
                            analysis::Sign::kPlus, B, nullptr,
                            analysis::Sign::kPlus, tm, tk, tn, arena, nullptr);
    return;
  }
  const int d1 = depth - 1;
  const int hm = tm << d1;
  const int hk = tk << d1;
  const int hn = tn << d1;

  // Table selection and temporary layout: the Morton recursion's own rules
  // (analysis::level_schedule, core::push_temps), so both strategies run the
  // same tables with the same arena peak.
  const blas::kernels::LeafKernels* fused_tab =
      core::detail::fused_kernels<RawMem, T>(d1);
  const analysis::Schedule* sched =
      &analysis::level_schedule(family, d1, fused_tab != nullptr);
  if (!sched->uses_fused_kernels) fused_tab = nullptr;

  // Operand slot tables: a read view per slot, a writable base for C
  // quadrants and temporaries.  Writable slots are never transposed and
  // their view ld doubles as the store leading dimension.
  PackSrc<T> rd[analysis::kOperandCount] = {};
  T* wr[analysis::kOperandCount] = {};
  auto idx = [](Operand op) { return static_cast<int>(op); };

  rd[idx(Operand::kA11)] = quad(A, 0, 0, hm, hk);
  rd[idx(Operand::kA12)] = quad(A, 0, hk, hm, hk);
  rd[idx(Operand::kA21)] = quad(A, hm, 0, hm, hk);
  rd[idx(Operand::kA22)] = quad(A, hm, hk, hm, hk);
  rd[idx(Operand::kB11)] = quad(B, 0, 0, hk, hn);
  rd[idx(Operand::kB12)] = quad(B, 0, hn, hk, hn);
  rd[idx(Operand::kB21)] = quad(B, hk, 0, hk, hn);
  rd[idx(Operand::kB22)] = quad(B, hk, hn, hk, hn);

  PackSrc<T> cview{C, ldc, false, crows, ccols};
  const Operand cquads[] = {Operand::kC11, Operand::kC12, Operand::kC21,
                            Operand::kC22};
  const int coff[][2] = {{0, 0}, {0, hn}, {hm, 0}, {hm, hn}};
  for (int q = 0; q < 4; ++q) {
    PackSrc<T> v = quad(cview, coff[q][0], coff[q][1], hm, hn);
    rd[idx(cquads[q])] = v;
    wr[idx(cquads[q])] = const_cast<T*>(v.ptr);
  }

  Arena::Frame frame(arena);
  push_temps<T>(*sched, arena, static_cast<std::size_t>(hm) * hk,
                static_cast<std::size_t>(hk) * hn,
                static_cast<std::size_t>(hm) * hn,
                [&](Operand t, T* base, std::size_t) {
                  const analysis::Shape s = analysis::shape_of(t);
                  const int rows = s == analysis::Shape::kB ? hk : hm;
                  const int cols = s == analysis::Shape::kA ? hk : hn;
                  rd[idx(t)] = PackSrc<T>{base, rows, false, rows, cols};
                  wr[idx(t)] = base;
                });

  // Element-wise step over the destination's extent; source reads clip to
  // exact zeros -- the values to_morton would have staged there -- and the
  // clipped contribution is still COMPUTED (e.g. dj + 0), not skipped, so
  // zero signs match the Morton strategy bit-for-bit.  Counted like one
  // blas::vadd/vsub call so kernel telemetry matches the Morton strategy.
  // Columns split into a dense in-bounds run (tight, vectorizable) and a
  // clipped tail; transposed user operands take the generic gather.
  auto elementwise = [&](const analysis::Step& s) {
    T* dst = wr[idx(s.dst)];
    STRASSEN_REQUIRE(dst != nullptr, "schedule step writes read-only operand "
                                         << analysis::operand_name(s.dst));
    const PackSrc<T>& dv = rd[idx(s.dst)];
    const PackSrc<T>& x = rd[idx(s.a0)];
    const bool binary =
        s.kind == StepKind::kAdd || s.kind == StepKind::kSub;
    const PackSrc<T>& y = rd[idx(binary ? s.a1 : s.a0)];
    if (obs::Collector* c = obs::current()) c->note_elementwise();
    const int rows = dv.rows;
    if (x.trans || (binary && y.trans)) {
      for (int j = 0; j < dv.cols; ++j) {
        T* dj = dst + static_cast<std::size_t>(j) * dv.ld;
        for (int i = 0; i < rows; ++i) {
          switch (s.kind) {
            case StepKind::kAdd:
              dj[i] = static_cast<T>(x.at(i, j) + y.at(i, j));
              break;
            case StepKind::kSub:
              dj[i] = static_cast<T>(x.at(i, j) - y.at(i, j));
              break;
            case StepKind::kAddInplace:
              dj[i] = static_cast<T>(dj[i] + x.at(i, j));
              break;
            default:  // kSubInplace
              dj[i] = static_cast<T>(dj[i] - x.at(i, j));
              break;
          }
        }
      }
      return;
    }
    for (int j = 0; j < dv.cols; ++j) {
      T* dj = dst + static_cast<std::size_t>(j) * dv.ld;
      const T* xj =
          j < x.cols ? x.ptr + static_cast<std::size_t>(j) * x.ld : nullptr;
      const int xr = xj != nullptr ? std::min(x.rows, rows) : 0;
      switch (s.kind) {
        case StepKind::kAdd:
        case StepKind::kSub: {
          const T* yj = j < y.cols
                            ? y.ptr + static_cast<std::size_t>(j) * y.ld
                            : nullptr;
          const int yr = yj != nullptr ? std::min(y.rows, rows) : 0;
          const int dense = std::min(xr, yr);
          if (s.kind == StepKind::kAdd) {
            for (int i = 0; i < dense; ++i)
              dj[i] = static_cast<T>(xj[i] + yj[i]);
            for (int i = dense; i < rows; ++i)
              dj[i] = static_cast<T>((i < xr ? xj[i] : T{0}) +
                                     (i < yr ? yj[i] : T{0}));
          } else {
            for (int i = 0; i < dense; ++i)
              dj[i] = static_cast<T>(xj[i] - yj[i]);
            for (int i = dense; i < rows; ++i)
              dj[i] = static_cast<T>((i < xr ? xj[i] : T{0}) -
                                     (i < yr ? yj[i] : T{0}));
          }
          break;
        }
        case StepKind::kAddInplace:
          for (int i = 0; i < xr; ++i) dj[i] = static_cast<T>(dj[i] + xj[i]);
          for (int i = xr; i < rows; ++i) dj[i] = static_cast<T>(dj[i] + T{0});
          break;
        default:  // kSubInplace
          for (int i = 0; i < xr; ++i) dj[i] = static_cast<T>(dj[i] - xj[i]);
          for (int i = xr; i < rows; ++i) dj[i] = static_cast<T>(dj[i] - T{0});
          break;
      }
    }
  };

  for (int i = 0; i < sched->step_count; ++i) {
    const analysis::Step& s = sched->steps[i];
    switch (s.kind) {
      case StepKind::kAdd:
      case StepKind::kSub:
      case StepKind::kAddInplace:
      case StepKind::kSubInplace:
        elementwise(s);
        break;
      case StepKind::kMul: {
        T* dst = wr[idx(s.dst)];
        STRASSEN_REQUIRE(dst != nullptr, "schedule product writes read-only "
                                             << analysis::operand_name(s.dst));
        const PackSrc<T>& dv = rd[idx(s.dst)];
        if (d1 == 0) {
          detail::leaf_product<T>(dst, dv.ld, dv.rows, dv.cols, rd[idx(s.a0)],
                                  nullptr, s.asign, rd[idx(s.b0)], nullptr,
                                  s.bsign, tm, tk, tn, arena, fused_tab);
        } else {
          recurse(dst, dv.ld, dv.rows, dv.cols, rd[idx(s.a0)], rd[idx(s.b0)],
                  tm, tk, tn, d1, arena, family);
        }
        break;
      }
      case StepKind::kMulFusedA:
      case StepKind::kMulFusedB:
      case StepKind::kMulFusedAB: {
        T* dst = wr[idx(s.dst)];
        STRASSEN_REQUIRE(dst != nullptr && d1 == 0,
                         "fused schedule step outside a fused-capable level");
        const PackSrc<T>& dv = rd[idx(s.dst)];
        const PackSrc<T>* a1 =
            s.kind != StepKind::kMulFusedB ? &rd[idx(s.a1)] : nullptr;
        const PackSrc<T>* b1 =
            s.kind != StepKind::kMulFusedA ? &rd[idx(s.b1)] : nullptr;
        detail::leaf_product(dst, dv.ld, dv.rows, dv.cols, rd[idx(s.a0)], a1,
                             s.asign, rd[idx(s.b0)], b1, s.bsign, tm, tk, tn,
                             arena, fused_tab);
        break;
      }
    }
  }
}

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

// Peak arena bytes one pack-fused product needs under `plan` (after the
// executed_family mapping): the Morton strategy's recursion-temporary peak
// for the same tables, plus one leaf panel set (live only inside a leaf's
// arena frame), plus -- when the padding or beta requires it -- the padded
// C scratch the epilogue merges into C.  Always at most
// modgemm_workspace_bytes for the same plan (the A and B Morton buffers
// dwarf the panel set), which is why the workspace-budget ladder prices
// plans with the Morton figure for both strategies.
inline std::size_t packfused_workspace_bytes(const layout::GemmPlan& plan,
                                             std::size_t elem_size,
                                             bool c_scratch) {
  if (plan.direct || !plan.feasible) return 0;
  const analysis::ScheduleFamily fam = packfused::executed_family(plan.schedule);
  auto r64 = [](std::size_t b) { return checked_add(b, 63) / 64 * 64; };
  std::size_t total = winograd_workspace_bytes(
      plan.m.tile, plan.k.tile, plan.n.tile, plan.depth, elem_size, fam);
  const std::size_t tm = static_cast<std::size_t>(plan.m.tile);
  const std::size_t tk = static_cast<std::size_t>(plan.k.tile);
  const std::size_t tn = static_cast<std::size_t>(plan.n.tile);
  // Worst-case leaf frame: both A sources packed, both B sources packed, and
  // a clipped destination staging panel.
  total = checked_add(total, 2 * r64(checked_mul(tm, tk) * elem_size));
  total = checked_add(total, 2 * r64(checked_mul(tk, tn) * elem_size));
  total = checked_add(total, r64(checked_mul(tm, tn) * elem_size));
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
  const analysis::ScheduleFamily family =
      packfused::executed_family(plan.schedule);
  const bool c_scratch = packfused_needs_c_scratch(plan, m, n, beta != T{0});
  const std::size_t workspace_bytes =
      packfused_workspace_bytes(plan, sizeof(T), c_scratch);
  parallel::ScratchArena scratch(workspace_bytes);
  Arena& arena = scratch.arena();

  const blas::PackSrc<T> av{A, lda, opa == Op::Trans, m, k};
  const blas::PackSrc<T> bv{B, ldb, opb == Op::Trans, k, n};
  const int pm = plan.m.padded;
  const int pn = plan.n.padded;

  WallTimer t;
  T* P = C;
  int ldp = ldc;
  if (c_scratch) {
    P = arena.push<T>(static_cast<std::size_t>(pm) * pn);
    ldp = pm;
  }
  packfused::recurse(P, ldp, pm, pn, av, bv, plan.m.tile, plan.k.tile,
                     plan.n.tile, plan.depth, arena, family);
  const double t_mul = t.seconds();

  // The alpha/beta merge -- the only work the Morton strategy's outbound
  // conversion still has to do here (per-element expression identical to
  // layout::from_morton).
  t.restart();
  RawMem raw;
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
    report->compute_seconds += t_mul;
    report->convert_out_seconds += t_out;
    report->conversion_saved_bytes += modgemm_conversion_bytes(plan, sizeof(T));
  }
  // ScratchArena already noted the acquisition (bytes + count) into the
  // call's collector; only the high-water mark comes from the arena.
  return arena.peak();
}

}  // namespace strassen::core
