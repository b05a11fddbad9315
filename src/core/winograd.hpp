// winograd.hpp -- the Strassen-Winograd recursion over Morton storage.
//
// This is the computational heart of MODGEMM.  A Morton block of depth d is
// four contiguous sub-blocks (NW=11, NE=12, SW=21, SE=22 in matrix-quadrant
// notation) each of depth d-1, so quadrant access is pure pointer arithmetic
// and all 15 quadrant additions of Winograd's variant are single contiguous
// loops (paper S3.3).
//
// The SCHEDULE -- which quadrant addition or recursive product runs when,
// and which of the three temporaries (tS over A-quadrants, tT over
// B-quadrants, tP over C-quadrants) holds what -- is data, not code:
// analysis/schedule.hpp declares it as a constexpr step table
// (analysis::kWinograd, 7 recursive products + 15 additions -- the minimum
// for quadrant-based recursion, as the paper notes -- with C's quadrants
// doubling as scratch so only three temporaries are live per level), and
// the interpreter below executes the table step by step.  The verifier
// (analysis/schedule_verify.hpp) symbolically proves every shipped table
// correct at compile time: product identity, no use of clobbered values,
// and the 3-temporary liveness peak.  See docs/ANALYSIS.md for the table
// format and the exact guarantees.  The same interpreter runs the parallel
// driver's spawn level (analysis::kWinogradSpawn): a table's concurrent
// product group goes to a caller-supplied callback, so forking and its
// allocations stay in parallel/pmodgemm.cpp.
//
// At the last level before the leaves, the production engine can fuse the
// operand combinations that feed exactly one product into the product
// itself (S3/T3 into P5, -T4 into P7, S4 into P6), saving four full passes
// over quadrant-sized temporaries per level-1 node; that variant is its own
// verified table (analysis::kWinogradFusedL1).  The scalar table publishes
// no fused entries, so STRASSEN_KERNEL=scalar (and every traced MemModel)
// runs the materialized schedule with its exact rounding and address
// stream -- bit-identical to the seed library.
#pragma once

#include <cstdint>

#include <type_traits>

#include "analysis/schedule.hpp"
#include "blas/kernels.hpp"
#include "blas/kernels/registry.hpp"
#include "blas/level1.hpp"
#include "common/arena.hpp"
#include "common/check.hpp"
#include "common/memmodel.hpp"
#include "core/workspace.hpp"
#include "obs/collector.hpp"

namespace strassen::core {

template <class MM, class T>
void winograd_recurse(
    MM& mm, T* C, const T* A, const T* B, int tm, int tk, int tn, int depth,
    Arena& arena,
    analysis::ScheduleFamily family = analysis::ScheduleFamily::kWinograd,
    const analysis::Schedule* top = nullptr);

namespace detail {

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

// One member of a concurrent product group: dst = a . b, one level down.
template <class T>
struct Product {
  T* dst;
  const T* a;
  const T* b;
};

// Executes one schedule level over concrete quadrant/temporary storage.
// Pointer tables are indexed by analysis::Operand; `wr` is null for the
// read-only input quadrants, which the verified tables never write
// (enforced again here for mutated tables reaching a debug build).
template <class MM, class T>
class ScheduleInterpreter {
 public:
  // Binds the quadrants of C, A and B (Morton blocks of depth d1 + 1) and
  // pushes `sched`'s temporaries onto `arena` (the caller owns the frame).
  // A table that overwrites_inputs writes A's and B's quadrants: the caller
  // must pass operand copies it owns.  Sub-products recurse with `family`.
  ScheduleInterpreter(MM& mm, const analysis::Schedule& sched, T* C,
                      const T* A, const T* B, int tm, int tk, int tn, int d1,
                      Arena& arena, analysis::ScheduleFamily family)
      : mm_(mm),
        sched_(sched),
        arena_(arena),
        tm_(tm),
        tk_(tk),
        tn_(tn),
        d1_(d1),
        fused_tab_(sched.uses_fused_kernels ? fused_kernels<MM, T>(d1)
                                            : nullptr),
        family_(family) {
    const std::size_t scale = std::size_t{1} << (2 * d1);
    const std::size_t qa = static_cast<std::size_t>(tm) * tk * scale;
    const std::size_t qb = static_cast<std::size_t>(tk) * tn * scale;
    const std::size_t qc = static_cast<std::size_t>(tm) * tn * scale;
    // Quadrants in memory order NW, NE, SW, SE == 11, 12, 21, 22.
    for (int q = 0; q < 4; ++q) {
      bind(idx(analysis::Operand::kA11) + q, A + q * qa, qa,
           sched.overwrites_inputs);
      bind(idx(analysis::Operand::kB11) + q, B + q * qb, qb,
           sched.overwrites_inputs);
      bind(idx(analysis::Operand::kC11) + q, C + q * qc, qc, true);
    }
    push_temps<T>(sched, arena, qa, qb, qc,
                  [&](analysis::Operand t, T* p, std::size_t n) {
                    bind(idx(t), p, n, true);
                  });
  }

  // Runs the table.  Each concurrent product group is handed to
  // run_group(const Product<T>* members, int count), which must complete
  // every member before returning; run() without one executes the members
  // in table order on this thread.
  template <class RunGroup>
  void run(RunGroup&& run_group) {
    using analysis::StepKind;
    for (int i = 0; i < sched_.step_count; ++i) {
      const analysis::Step& s = sched_.steps[i];
      T* dst = wr_[idx(s.dst)];
      STRASSEN_REQUIRE(dst != nullptr,
                       "schedule step writes read-only operand "
                           << analysis::operand_name(s.dst));
      if (s.concurrent) {
        constexpr int kMaxGroup = 7;
        Product<T> group[kMaxGroup];
        int n = 0;
        for (; i < sched_.step_count && sched_.steps[i].concurrent; ++i) {
          const analysis::Step& g = sched_.steps[i];
          STRASSEN_REQUIRE(n < kMaxGroup && g.kind == StepKind::kMul &&
                               wr_[idx(g.dst)] != nullptr,
                           "malformed concurrent group at step " << i);
          group[n++] = Product<T>{wr_[idx(g.dst)], rd_[idx(g.a0)],
                                  rd_[idx(g.b0)]};
        }
        --i;
        run_group(static_cast<const Product<T>*>(group), n);
        continue;
      }
      const std::size_t n = len_[idx(s.dst)];
      switch (s.kind) {
        case StepKind::kAdd:
          blas::vadd(mm_, n, dst, rd_[idx(s.a0)], rd_[idx(s.a1)]);
          break;
        case StepKind::kSub:
          blas::vsub(mm_, n, dst, rd_[idx(s.a0)], rd_[idx(s.a1)]);
          break;
        case StepKind::kAddInplace:
          blas::vadd_inplace(mm_, n, dst, rd_[idx(s.a0)]);
          break;
        case StepKind::kSubInplace:
          blas::vsub_inplace(mm_, n, dst, rd_[idx(s.a0)]);
          break;
        case StepKind::kMul:
          multiply(Product<T>{dst, rd_[idx(s.a0)], rd_[idx(s.b0)]});
          break;
        case StepKind::kMulFusedA:
        case StepKind::kMulFusedB:
        case StepKind::kMulFusedAB:
          run_fused(s, dst);
          break;
      }
    }
  }
  void run() {
    run([this](const Product<T>* group, int n) {
      for (int k = 0; k < n; ++k) multiply(group[k]);
    });
  }

 private:
  static constexpr int idx(analysis::Operand op) {
    return static_cast<int>(op);
  }

  void bind(int slot, const T* p, std::size_t n, bool writable) {
    rd_[slot] = p;
    wr_[slot] = writable ? const_cast<T*>(p) : nullptr;
    len_[slot] = n;
  }

  void multiply(const Product<T>& p) {
    winograd_recurse(mm_, p.dst, p.a, p.b, tm_, tk_, tn_, d1_, arena_,
                     family_);
  }

  // Fused products only exist for the production (RawMem, double)
  // instantiation at d1 == 0, where operands are single contiguous leaf
  // tiles; the plain tables selected for every other model never contain
  // these step kinds.
  void run_fused(const analysis::Step& s, T* dst) {
    if constexpr (std::is_same_v<MM, RawMem> && std::is_same_v<T, double>) {
      using analysis::StepKind;
      STRASSEN_REQUIRE(fused_tab_ != nullptr && d1_ == 0,
                       "fused schedule step outside a fused-capable level");
      obs::LeafTimer lt(/*fused=*/true);
      switch (s.kind) {
        case StepKind::kMulFusedA:
          fused_tab_->gemm_fused_a(tm_, tn_, tk_, rd_[idx(s.a0)],
                                   rd_[idx(s.a1)], fused_op(s.asign), tm_,
                                   rd_[idx(s.b0)], tk_, dst, tm_);
          break;
        case StepKind::kMulFusedB:
          fused_tab_->gemm_fused_b(tm_, tn_, tk_, rd_[idx(s.a0)], tm_,
                                   rd_[idx(s.b0)], rd_[idx(s.b1)],
                                   fused_op(s.bsign), tk_, dst, tm_);
          break;
        case StepKind::kMulFusedAB:
          fused_tab_->gemm_fused_ab(tm_, tn_, tk_, rd_[idx(s.a0)],
                                    rd_[idx(s.a1)], fused_op(s.asign), tm_,
                                    rd_[idx(s.b0)], rd_[idx(s.b1)],
                                    fused_op(s.bsign), tk_, dst, tm_);
          break;
        default:
          break;
      }
    } else {
      (void)s;
      (void)dst;
      STRASSEN_REQUIRE(false,
                       "fused schedule step in a non-production instantiation");
    }
  }

  MM& mm_;
  const analysis::Schedule& sched_;
  Arena& arena_;
  int tm_, tk_, tn_, d1_;
  const blas::kernels::LeafKernels* fused_tab_;
  analysis::ScheduleFamily family_;
  const T* rd_[analysis::kOperandCount] = {};
  T* wr_[analysis::kOperandCount] = {};
  std::size_t len_[analysis::kOperandCount] = {};
};

}  // namespace detail

// C = A * B (or C += A * B) on Morton blocks.
//   A: (tm<<depth) x (tk<<depth), leaf tiles tm x tk (column-major)
//   B: (tk<<depth) x (tn<<depth), leaf tiles tk x tn
//   C: (tm<<depth) x (tn<<depth), leaf tiles tm x tn
// `arena` must have winograd_workspace_bytes(tm, tk, tn, depth, ..., family,
// top) available.  The top level runs `top` when given -- e.g. the
// accumulating table (C += A * B, the split path's k-chunk chains) -- and
// otherwise analysis::level_schedule(family); deeper levels always run
// level_schedule(child_family(family)).  kWinograd is the seed-exact
// default (3 temporaries, fused level-1 when the kernel table publishes the
// entries), kLowMem the 2-buffer BDPZ table.  kInPlace runs its in-place
// table at the top, which overwrites A and B: they must be operand copies
// the caller owns (the Morton staging buffers of core/modgemm.hpp).
template <class MM, class T>
void winograd_recurse(MM& mm, T* C, const T* A, const T* B, int tm, int tk,
                      int tn, int depth, Arena& arena,
                      analysis::ScheduleFamily family,
                      const analysis::Schedule* top) {
  if (depth == 0) {
    blas::gemm_leaf(mm, tm, tn, tk, A, tm, B, tk, C, tm,
                    top != nullptr && top->accumulates_c
                        ? blas::LeafMode::Accumulate
                        : blas::LeafMode::Overwrite);
    return;
  }
  const int d1 = depth - 1;
  const analysis::Schedule& sched =
      top != nullptr ? *top
                     : analysis::level_schedule(
                           family, d1, detail::fused_kernels<MM, T>(d1) !=
                                           nullptr);
  Arena::Frame frame(arena);
  detail::ScheduleInterpreter<MM, T> level(mm, sched, C, A, B, tm, tk, tn, d1,
                                           arena,
                                           analysis::child_family(family));
  level.run();
}

}  // namespace strassen::core
