// winograd.hpp -- the one schedule interpreter and its Morton storage.
//
// The SCHEDULE of a Strassen-Winograd level -- which quadrant addition or
// recursive product runs when, and which temporaries (tS over A-quadrants,
// tT over B-quadrants, tP over C-quadrants) hold what -- is data, not code:
// analysis/schedule.hpp declares it as constexpr step tables
// (analysis::kWinogradLowMem, 7 recursive products + 15 additions -- the
// minimum for quadrant-based recursion, as the paper notes -- with C's
// quadrants doubling as scratch so two arena buffers serve a level), and
// detail::ScheduleInterpreter below is the only code that walks them.  The
// verifier (analysis/schedule_verify.hpp) symbolically proves every shipped
// table correct at compile time: product identity, no use of clobbered
// values, and the temporary liveness peak.  See docs/ANALYSIS.md for the
// table format and the exact guarantees.
//
// The interpreter owns table selection (analysis::level_schedule), the
// binding of quadrants and temporaries (core::push_temps), the step switch
// and its read-only-slot checks, the concurrent-group callback and the
// recursion, whose every level runs the same family.  What differs between
// execution strategies is only the STORAGE of the operands, a policy class
// (deriving LeafTiles for the tile extents) that supplies:
//
//   Elem                         the element type;
//   Ref                          an operand handle;
//   operand(p, shape, depth)     a dense operand at p (arena temporaries);
//   quadrant(ref, shape, q, d1)  quadrant q in memory order 11, 12, 21, 22;
//   elementwise(dst, x, y, sign) one add/sub step (y null: dst +-= x);
//   leaf(C, A, B, arena)         a leaf product, C = A . B.
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
// same temporaries and the same leaf kernel; core/packfused.hpp states what
// its storage must add for the two strategies to stay bit-identical.
// The parallel driver's spawn level (analysis::kWinogradSpawn) runs here
// too: a table's concurrent product group goes to a caller-supplied
// callback, so forking and its allocations stay in core/modgemm.hpp
// (detail::fork_recurse).
//
// Table selection never looks at the kernel: each operand sum is one
// contiguous element-wise pass (paper S3.3), and a leaf only multiplies
// tiles.  The kernel choice therefore changes which instructions
// run, never the schedule, and a traced MemModel sees one rounding and one
// address stream whatever the kernel.
#pragma once

#include <cstddef>

#include "analysis/schedule.hpp"
#include "blas/kernels.hpp"
#include "blas/level1.hpp"
#include "common/arena.hpp"
#include "common/check.hpp"
#include "common/memmodel.hpp"
#include "core/workspace.hpp"

namespace strassen::core {

namespace detail {

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
// and leaves call blas::gemm_leaf on the memory model.
template <class MM, class T>
struct MortonStorage : LeafTiles {
  using Elem = T;
  struct Ref {
    T* p = nullptr;
    std::size_t n = 0;
  };

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
  // winograd_recurse) whose products recurse with the same family.
  static void recurse(S& st, const Ref& C, const Ref& A, const Ref& B,
                      int depth, Arena& arena,
                      analysis::ScheduleFamily family) {
    if (depth == 0) {
      st.leaf(C, A, B, arena);
      return;
    }
    Arena::Frame frame(arena);
    ScheduleInterpreter level(st, analysis::level_schedule(family), C, A, B,
                              depth - 1, arena, family);
    level.run();
  }

  // Binds the quadrants of C, A and B (operands of depth d1 + 1) and pushes
  // `sched`'s temporaries onto `arena` (the caller owns the frame).  A table
  // that overwrites_inputs writes A's and B's quadrants and moves values
  // between quadrants of different matrices: it needs square tiles, and the
  // caller must pass operand copies it owns.  Sub-products recurse with
  // `family`.
  ScheduleInterpreter(S& st, const analysis::Schedule& sched, const Ref& C,
                      const Ref& A, const Ref& B, int d1, Arena& arena,
                      analysis::ScheduleFamily family)
      : st_(st),
        sched_(sched),
        arena_(arena),
        d1_(d1),
        family_(family) {
    using analysis::Operand;
    using analysis::Shape;
    STRASSEN_REQUIRE(!sched.overwrites_inputs ||
                         (st.tm == st.tk && st.tk == st.tn),
                     "schedule " << sched.name << " needs square tiles, got "
                                 << st.tm << "x" << st.tk << "x" << st.tn);
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

  void multiply(const Product<Ref>& p) {
    recurse(st_, p.dst, p.a, p.b, d1_, arena_, family_);
  }

  S& st_;
  const analysis::Schedule& sched_;
  Arena& arena_;
  int d1_;
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
// available.  Every level runs analysis::level_schedule(family): kLowMem
// is the seed-exact default (the 2-buffer BDPZ table), and kInPlace
// Kreczmar's table (no temporaries, square tiles only), which destroys A and
// B: they must be operand copies the caller owns (the Morton staging buffers
// of core/modgemm.hpp).
template <class MM, class T>
void winograd_recurse(
    MM& mm, T* C, const T* A, const T* B, int tm, int tk, int tn, int depth,
    Arena& arena,
    analysis::ScheduleFamily family = analysis::ScheduleFamily::kLowMem) {
  using Storage = detail::MortonStorage<MM, T>;
  using analysis::Shape;
  Storage st{{tm, tk, tn}, mm};
  detail::ScheduleInterpreter<Storage>::recurse(
      st, st.operand(C, Shape::kC, depth), st.operand(A, Shape::kA, depth),
      st.operand(B, Shape::kB, depth), depth, arena, family);
}

}  // namespace strassen::core
