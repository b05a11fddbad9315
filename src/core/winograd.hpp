// winograd.hpp -- the one schedule interpreter and its Morton storage.
//
// The SCHEDULE of a Strassen-Winograd level -- which quadrant addition or
// recursive product runs when, and which temporaries (tS over A-quadrants,
// tT over B-quadrants, tP over C-quadrants) hold what -- is data, not code:
// analysis/schedule.hpp declares it as constexpr step tables
// (analysis::kWinograd, 7 recursive products + 15 additions -- the minimum
// for quadrant-based recursion, as the paper notes -- with C's quadrants
// doubling as scratch so only three temporaries are live per level), and
// detail::ScheduleInterpreter below is the only code that walks them.  The
// verifier (analysis/schedule_verify.hpp) symbolically proves every shipped
// table correct at compile time: product identity, no use of clobbered
// values, and the temporary liveness peak.  See docs/ANALYSIS.md for the
// table format and the exact guarantees.
//
// The interpreter owns table selection (analysis::level_schedule), the
// fused-kernel gate, the binding of quadrants and temporaries
// (core::push_temps), the step switch and its read-only-slot checks, the
// concurrent-group callback and the recursion into the child family.  What
// differs between execution strategies is only the STORAGE of the operands,
// a policy class (deriving LeafTiles for the tile extents) that supplies:
//
//   Model, Elem                  memory model and element type (they gate
//                                the fused kernels, see fused_kernels);
//   Ref                          an operand handle;
//   operand(p, shape, depth)     a dense operand at p (arena temporaries);
//   quadrant(ref, shape, q, d1)  quadrant q in memory order 11, 12, 21, 22;
//   elementwise(dst, x, y, sign) one add/sub step (y null: dst +-= x);
//   leaf(C, A, B, arena)         a plain leaf product, C = A . B;
//   view(ref, shape)             a leaf tile as the fused leaf's input;
//   kStagesLeaves                whether its workspace sizes leaf panels.
//
//   * MortonStorage (here): a Morton block of depth d is four contiguous
//     sub-blocks (NW=11, NE=12, SW=21, SE=22) each of depth d-1, so a
//     quadrant is base + q * quadrant_elems and each of the 15 quadrant
//     additions is one contiguous blas::vadd/vsub call (paper S3.3);
//   * packfused::ViewStorage (core/packfused.hpp): clipped column-major
//     views of the caller's matrices, so the pack-fused strategy runs the
//     same tables with no layout conversion.
//
// Both storages therefore run the same tables in the same order with the
// same temporaries and the same leaf routine; core/packfused.hpp states what
// its storage must add for the two strategies to stay bit-identical.
// The parallel driver's spawn level (analysis::kWinogradSpawn) runs here
// too: a table's concurrent product group goes to a caller-supplied
// callback, so forking and its allocations stay in core/modgemm.hpp
// (detail::fork_recurse).
//
// At the last level before the leaves, the production engine can fuse the
// operand combinations that feed exactly one product into the product
// itself (S3/T3 into P5, -T4 into P7, S4 into P6), saving four full passes
// over quadrant-sized temporaries per level-1 node; that variant is its own
// verified table (analysis::kWinogradFusedL1), and both storages run its
// fused steps through the one leaf routine, detail::leaf_product.  The
// scalar table publishes no fused entries, so STRASSEN_KERNEL=scalar (and
// every traced MemModel) runs the materialized schedule with its exact
// rounding and address stream -- bit-identical to the seed library.
#pragma once

#include <cstdint>
#include <optional>
#include <type_traits>

#include "analysis/schedule.hpp"
#include "blas/kernels.hpp"
#include "blas/kernels/registry.hpp"
#include "blas/level1.hpp"
#include "blas/pack.hpp"
#include "common/arena.hpp"
#include "common/check.hpp"
#include "common/memmodel.hpp"
#include "core/workspace.hpp"
#include "obs/collector.hpp"

namespace strassen::core {

namespace detail {

using blas::PackSrc;

constexpr blas::kernels::FusedOp fused_op(analysis::Sign s) {
  return s == analysis::Sign::kMinus ? blas::kernels::FusedOp::kSub
                                     : blas::kernels::FusedOp::kAdd;
}

// The kernel table whose fused entries a last-before-leaves level may use:
// only the production (RawMem, double) instantiation, and only when the
// active kernel publishes all three entries (scalar does not, by design: the
// materialized table is the seed-exact path).  Null otherwise.
template <class MM, class T>
const blas::kernels::LeafKernels* fused_kernels(int d1) {
  if constexpr (std::is_same_v<MM, RawMem> && std::is_same_v<T, double>) {
    if (d1 == 0) {
      const blas::kernels::LeafKernels& tab = blas::kernels::active();
      if (tab.gemm_fused_a != nullptr && tab.gemm_fused_b != nullptr &&
          tab.gemm_fused_ab != nullptr)
        return &tab;
    }
  }
  return nullptr;
}

// One side of a leaf product, presented the way the kernel entries expect:
// source pointer(s) sharing one leading dimension.
template <class T>
struct LeafSide {
  const T* p0 = nullptr;
  const T* p1 = nullptr;
  int ld = 0;
};

// Views the kernels can read in place pass through; everything else is
// packed into `staging` panels holding exactly the values the Morton
// conversion would have staged.  A Morton leaf tile is a full, untransposed
// view with ld == its row count, so it always passes through: Morton
// storage supplies no staging arena (its workspace sizes none).
template <class T>
LeafSide<T> stage_side(const PackSrc<T>& s0, const PackSrc<T>* s1, int pr,
                       int pc, Arena* staging) {
  // Wide-strided covering views are packed anyway: with ld > 2*pr each
  // cache line fetched for a panel column carries under half useful data,
  // so a kernel reading the view in place more than doubles its working
  // set versus a contiguous panel (immediate-level temps have ld == 2*pr
  // exactly and stay cheap to read in place; user-matrix and top-level
  // temp reads with ld of several multiples of pr do not).  One packing
  // pass pays that cost once instead of on every kernel sweep.
  auto wide = [&](const PackSrc<T>& s) { return s.ld > 2 * pr; };
  const bool in_place =
      s1 == nullptr ? (s0.covers(pr, pc) && !wide(s0))
                    : (s0.covers(pr, pc) && s1->covers(pr, pc) &&
                       !s0.trans && !s1->trans && s0.ld == s1->ld &&
                       !wide(s0) && !wide(*s1));
  if (in_place) return {s0.ptr, s1 != nullptr ? s1->ptr : nullptr, s0.ld};
  STRASSEN_REQUIRE(staging != nullptr,
                   "leaf operand needs a staging panel its storage never "
                   "sized");
  auto pack = [&](const PackSrc<T>& s) {
    T* panel = staging->push<T>(static_cast<std::size_t>(pr) * pc);
    blas::pack_panel(panel, pr, pc, s);
    return static_cast<const T*>(panel);
  };
  return {pack(s0), s1 != nullptr ? pack(*s1) : nullptr, pr};
}

// The one leaf product of both storages: dst (a view of the tm x tn tile,
// possibly clipped) = (a0 [asign a1]) . (b0 [bsign b1]).  Fused partners are
// only ever present when the level runs the fused-L1 table, i.e. when
// `fused` points at a kernel table publishing the fused entries.  Panels and
// a clipped destination's scratch come from `staging` (null: nothing may be
// staged).  Values a clipped destination drops are exact zeros (padding
// invariant).
template <class T>
void leaf_product(const PackSrc<T>& dst, const PackSrc<T>& a0,
                  const PackSrc<T>* a1, analysis::Sign asign,
                  const PackSrc<T>& b0, const PackSrc<T>* b1,
                  analysis::Sign bsign, int tm, int tk, int tn,
                  Arena* staging, const blas::kernels::LeafKernels* fused) {
  std::optional<Arena::Frame> frame;
  if (staging != nullptr) frame.emplace(*staging);
  const LeafSide<T> a = stage_side(a0, a1, tm, tk, staging);
  const LeafSide<T> b = stage_side(b0, b1, tk, tn, staging);
  T* out = const_cast<T*>(dst.ptr);
  T* cptr = out;
  int ldc = dst.ld;
  const bool clipped = dst.rows < tm || dst.cols < tn;
  if (clipped) {
    STRASSEN_REQUIRE(staging != nullptr,
                     "clipped leaf destination without a staging arena");
    cptr = staging->push<T>(static_cast<std::size_t>(tm) * tn);
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
    for (int j = 0; j < dst.cols; ++j) {
      const T* pj = cptr + static_cast<std::size_t>(j) * tm;
      T* oj = out + static_cast<std::size_t>(j) * dst.ld;
      for (int i = 0; i < dst.rows; ++i) oj[i] = pj[i];
    }
  }
}

// One member of a concurrent product group: dst = a . b, one level down.
template <class Ref>
struct Product {
  Ref dst;
  Ref a;
  Ref b;
};

// Leaf tile extents every storage shares: A-shaped tiles are tm x tk,
// B-shaped tk x tn, C-shaped tm x tn.
struct LeafTiles {
  int tm, tk, tn;
  int rows(analysis::Shape s) const {
    return s == analysis::Shape::kB ? tk : tm;
  }
  int cols(analysis::Shape s) const {
    return s == analysis::Shape::kA ? tk : tn;
  }
};

// Morton storage: an operand is a contiguous Morton block of leaf tiles.
// Element-wise steps are one blas kernel call over the whole quadrant (SIMD
// for the production model; traced models keep their exact address stream)
// and plain leaves call blas::gemm_leaf on the memory model.
template <class MM, class T>
struct MortonStorage : LeafTiles {
  using Model = MM;
  using Elem = T;
  struct Ref {
    T* p = nullptr;
    std::size_t n = 0;
  };
  static constexpr bool kStagesLeaves = false;

  MM& mm;

  // The `s`-shaped block of `depth` levels stored at p.
  Ref operand(const T* p, analysis::Shape s, int depth) const {
    const std::size_t tile = static_cast<std::size_t>(rows(s)) * cols(s);
    return {const_cast<T*>(p), tile << (2 * depth)};
  }
  Ref quadrant(const Ref& whole, analysis::Shape, int q, int) const {
    const std::size_t n = whole.n / 4;
    return {whole.p + q * n, n};
  }
  // dst = x (+/-) *y, or dst (+/-)= x when y is null.
  void elementwise(const Ref& dst, const Ref& x, const Ref* y,
                   analysis::Sign sign) const {
    const bool plus = sign == analysis::Sign::kPlus;
    if (y == nullptr) {
      if (plus) blas::vadd_inplace(mm, dst.n, dst.p, x.p);
      else blas::vsub_inplace(mm, dst.n, dst.p, x.p);
    } else {
      if (plus) blas::vadd(mm, dst.n, dst.p, x.p, y->p);
      else blas::vsub(mm, dst.n, dst.p, x.p, y->p);
    }
  }
  void leaf(const Ref& C, const Ref& A, const Ref& B, Arena&) const {
    blas::gemm_leaf(mm, tm, tn, tk, A.p, tm, B.p, tk, C.p, tm,
                    blas::LeafMode::Overwrite);
  }
  // A leaf tile as the column-major view the fused leaf takes.
  PackSrc<T> view(const Ref& r, analysis::Shape s) const {
    return {r.p, rows(s), false, rows(s), cols(s)};
  }
};

// Executes one schedule level over the operands of storage S (see the file
// comment for what a storage supplies).  Operand tables are indexed by
// analysis::Operand; the read-only input quadrants are never written by the
// verified tables (enforced again here for mutated tables reaching a debug
// build).
template <class S>
class ScheduleInterpreter {
 public:
  using T = typename S::Elem;
  using Ref = typename S::Ref;

  // C = A . B for operands with `depth` levels below them: a leaf product
  // at depth 0, else one level running the family's table (see
  // winograd_recurse) whose products recurse with child_family(family).
  static void recurse(S& st, const Ref& C, const Ref& A, const Ref& B,
                      int depth, Arena& arena,
                      analysis::ScheduleFamily family) {
    if (depth == 0) {
      st.leaf(C, A, B, arena);
      return;
    }
    const int d1 = depth - 1;
    const analysis::Schedule& sched = analysis::level_schedule(
        family, d1, fused_kernels<typename S::Model, T>(d1) != nullptr);
    Arena::Frame frame(arena);
    ScheduleInterpreter level(st, sched, C, A, B, d1, arena,
                              analysis::child_family(family));
    level.run();
  }

  // Binds the quadrants of C, A and B (operands of depth d1 + 1) and pushes
  // `sched`'s temporaries onto `arena` (the caller owns the frame).  A table
  // that overwrites_inputs writes A's and B's quadrants: the caller must
  // pass operand copies it owns.  Sub-products recurse with `family`.
  ScheduleInterpreter(S& st, const analysis::Schedule& sched, const Ref& C,
                      const Ref& A, const Ref& B, int d1, Arena& arena,
                      analysis::ScheduleFamily family)
      : st_(st),
        sched_(sched),
        arena_(arena),
        d1_(d1),
        fused_tab_(sched.uses_fused_kernels
                       ? fused_kernels<typename S::Model, T>(d1)
                       : nullptr),
        family_(family) {
    using analysis::Operand;
    using analysis::Shape;
    // Quadrants in memory order NW, NE, SW, SE == 11, 12, 21, 22.
    for (int q = 0; q < 4; ++q) {
      bind(idx(Operand::kA11) + q, st.quadrant(A, Shape::kA, q, d1),
           sched.overwrites_inputs);
      bind(idx(Operand::kB11) + q, st.quadrant(B, Shape::kB, q, d1),
           sched.overwrites_inputs);
      bind(idx(Operand::kC11) + q, st.quadrant(C, Shape::kC, q, d1), true);
    }
    auto elems = [&](Shape s) {
      return static_cast<std::size_t>(st.rows(s)) * st.cols(s) << (2 * d1);
    };
    push_temps<T>(sched, arena, elems(Shape::kA), elems(Shape::kB),
                  elems(Shape::kC), [&](Operand t, T* p) {
                    bind(idx(t), st.operand(p, analysis::shape_of(t), d1),
                         true);
                  });
  }

  // Runs the table.  Each concurrent product group is handed to
  // run_group(const Product<Ref>* members, int count), which must complete
  // every member before returning; run() without one executes the members
  // in table order on this thread.
  template <class RunGroup>
  void run(RunGroup&& run_group) {
    using analysis::Sign;
    using analysis::StepKind;
    for (int i = 0; i < sched_.step_count; ++i) {
      const analysis::Step& s = sched_.steps[i];
      const Ref& dst = writable(s.dst);
      if (s.concurrent) {
        constexpr int kMaxGroup = 7;
        Product<Ref> group[kMaxGroup];
        int n = 0;
        for (; i < sched_.step_count && sched_.steps[i].concurrent; ++i) {
          const analysis::Step& g = sched_.steps[i];
          STRASSEN_REQUIRE(n < kMaxGroup && g.kind == StepKind::kMul,
                           "malformed concurrent group at step " << i);
          group[n++] = Product<Ref>{writable(g.dst), ref(g.a0), ref(g.b0)};
        }
        --i;
        run_group(static_cast<const Product<Ref>*>(group), n);
        continue;
      }
      switch (s.kind) {
        case StepKind::kAdd:
          st_.elementwise(dst, ref(s.a0), &ref(s.a1), Sign::kPlus);
          break;
        case StepKind::kSub:
          st_.elementwise(dst, ref(s.a0), &ref(s.a1), Sign::kMinus);
          break;
        case StepKind::kAddInplace:
          st_.elementwise(dst, ref(s.a0), nullptr, Sign::kPlus);
          break;
        case StepKind::kSubInplace:
          st_.elementwise(dst, ref(s.a0), nullptr, Sign::kMinus);
          break;
        case StepKind::kMul:
          multiply(Product<Ref>{dst, ref(s.a0), ref(s.b0)});
          break;
        case StepKind::kMulFusedA:
        case StepKind::kMulFusedB:
        case StepKind::kMulFusedAB:
          fused_product(s);
          break;
      }
    }
  }
  void run() {
    run([this](const Product<Ref>* group, int n) {
      for (int k = 0; k < n; ++k) multiply(group[k]);
    });
  }

 private:
  static constexpr int idx(analysis::Operand op) {
    return static_cast<int>(op);
  }

  void bind(int slot, const Ref& r, bool writable) {
    ref_[slot] = r;
    writable_[slot] = writable;
  }
  const Ref& ref(analysis::Operand op) const { return ref_[idx(op)]; }
  const Ref& writable(analysis::Operand op) const {
    STRASSEN_REQUIRE(writable_[idx(op)],
                     "schedule step writes read-only operand "
                         << analysis::operand_name(op));
    return ref(op);
  }
  PackSrc<T> view(analysis::Operand op, analysis::Shape s) const {
    return st_.view(ref(op), s);
  }

  void multiply(const Product<Ref>& p) {
    recurse(st_, p.dst, p.a, p.b, d1_, arena_, family_);
  }

  // Fused products only exist at d1 == 0 on a kernel table publishing the
  // fused entries; the plain tables selected everywhere else never contain
  // these step kinds.
  void fused_product(const analysis::Step& s) {
    using analysis::Shape;
    using analysis::StepKind;
    STRASSEN_REQUIRE(fused_tab_ != nullptr && d1_ == 0,
                     "fused schedule step outside a fused-capable level");
    const bool has_a1 = s.kind != StepKind::kMulFusedB;
    const bool has_b1 = s.kind != StepKind::kMulFusedA;
    const PackSrc<T> a1 = has_a1 ? view(s.a1, Shape::kA) : PackSrc<T>{};
    const PackSrc<T> b1 = has_b1 ? view(s.b1, Shape::kB) : PackSrc<T>{};
    leaf_product(view(s.dst, Shape::kC), view(s.a0, Shape::kA),
                 has_a1 ? &a1 : nullptr, s.asign, view(s.b0, Shape::kB),
                 has_b1 ? &b1 : nullptr, s.bsign, st_.tm, st_.tk, st_.tn,
                 S::kStagesLeaves ? &arena_ : nullptr, fused_tab_);
  }

  S& st_;
  const analysis::Schedule& sched_;
  Arena& arena_;
  int d1_;
  const blas::kernels::LeafKernels* fused_tab_;
  analysis::ScheduleFamily family_;
  Ref ref_[analysis::kOperandCount] = {};
  bool writable_[analysis::kOperandCount] = {};
};

}  // namespace detail

// C = A * B on Morton blocks.
//   A: (tm<<depth) x (tk<<depth), leaf tiles tm x tk (column-major)
//   B: (tk<<depth) x (tn<<depth), leaf tiles tk x tn
//   C: (tm<<depth) x (tn<<depth), leaf tiles tm x tn
// `arena` must have winograd_workspace_bytes(tm, tk, tn, depth, ..., family)
// available.  The top level runs analysis::level_schedule(family), deeper
// levels level_schedule(child_family(family)).  kWinograd is the seed-exact
// default (3 temporaries, fused level-1 when the kernel table publishes the
// entries), kLowMem the 2-buffer BDPZ table.  kInPlace runs its in-place
// table at the top, which overwrites A and B: they must be operand copies
// the caller owns (the Morton staging buffers of core/modgemm.hpp).
template <class MM, class T>
void winograd_recurse(
    MM& mm, T* C, const T* A, const T* B, int tm, int tk, int tn, int depth,
    Arena& arena,
    analysis::ScheduleFamily family = analysis::ScheduleFamily::kWinograd) {
  using Storage = detail::MortonStorage<MM, T>;
  using analysis::Shape;
  Storage st{{tm, tk, tn}, mm};
  detail::ScheduleInterpreter<Storage>::recurse(
      st, st.operand(C, Shape::kC, depth), st.operand(A, Shape::kA, depth),
      st.operand(B, Shape::kB, depth), depth, arena, family);
}

}  // namespace strassen::core
