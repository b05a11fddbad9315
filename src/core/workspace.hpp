// workspace.hpp -- exact arena sizing for the Winograd recursion.
//
// Each recursion level allocates quadrant-sized temporaries and releases
// them before returning, so the live set is a stack.  Sizing the arena to
// the exact peak lets the whole multiply run with a single allocation; the
// paper's implementations were likewise careful to bound temporary storage
// (S5.1).  What a level allocates is read off its schedule table
// (analysis/schedule.hpp): one arena buffer per distinct temp_buffer id,
// sized for the largest quadrant shape mapped onto it.  temp_layout is the
// only definition of that rule -- the executors bind through push_temps and
// every sizing function sums level_temp_bytes, so sizing cannot drift from
// execution.  Per level, with qa/qb/qc the A-/B-/C-shaped quadrant sizes:
//
//   kLowMem          max(qa, qc) + qb             (tS/tP share; the paper's
//                                                  3-temporary sequence
//                                                  needs qa + qb + qc)
//   kInPlace         0    (Kreczmar: the Morton A/B/C quadrants hold all)
//   spawn level      4 qa + 4 qb + 3 qc           (core/modgemm.hpp)
#pragma once

#include <cstddef>

#include "analysis/schedule.hpp"
#include "common/arena.hpp"
#include "common/check.hpp"

namespace strassen::core {

// Elements of an operand of shape_of(op) at a level whose quadrants hold
// qa/qb/qc elements.
inline std::size_t quad_elems(analysis::Operand op, std::size_t qa,
                              std::size_t qb, std::size_t qc) {
  const analysis::Shape s = analysis::shape_of(op);
  return s == analysis::Shape::kA ? qa : s == analysis::Shape::kB ? qb : qc;
}

// The temporaries of one schedule level: element count per arena buffer.
struct TempLayout {
  int buffers = 0;
  std::size_t elems[analysis::kTempSlotCount] = {};
};

inline TempLayout temp_layout(const analysis::Schedule& sched, std::size_t qa,
                              std::size_t qb, std::size_t qc) {
  STRASSEN_REQUIRE(sched.temp_count <= analysis::kTempSlotCount,
                   "schedule " << sched.name << " declares "
                               << sched.temp_count << " temporaries");
  TempLayout l;
  l.buffers = analysis::temp_buffer_count(sched);
  for (int i = 0; i < sched.temp_count; ++i) {
    const std::size_t n = quad_elems(sched.temps[i], qa, qb, qc);
    std::size_t& e = l.elems[analysis::temp_buffer_id(sched, i)];
    if (n > e) e = n;
  }
  return l;
}

// Pushes `sched`'s temporaries for a level whose quadrants hold qa/qb/qc
// elements and calls bind(temp, base) once per declared temporary.
template <class T, class Bind>
void push_temps(const analysis::Schedule& sched, Arena& arena, std::size_t qa,
                std::size_t qb, std::size_t qc, Bind&& bind) {
  const TempLayout l = temp_layout(sched, qa, qb, qc);
  T* bufs[analysis::kTempSlotCount] = {};
  for (int b = 0; b < l.buffers; ++b) bufs[b] = arena.push<T>(l.elems[b]);
  for (int i = 0; i < sched.temp_count; ++i)
    bind(sched.temps[i], bufs[analysis::temp_buffer_id(sched, i)]);
}

// Arena bytes `sched` pushes at a level whose sub-products have `d1` levels
// below them (leaf tiles tm x tk, tk x tn), including the arena's 64-byte
// rounding per push.  Overflow-checked.
std::size_t level_temp_bytes(const analysis::Schedule& sched, int tm, int tk,
                             int tn, int d1, std::size_t elem_size);

// Peak bytes of recursion temporaries for a product of Morton blocks with
// leaf tiles (tm x tk) * (tk x tn) and `depth` recursion levels, exactly as
// core::winograd_recurse(..., family) pushes them: every level runs the
// table analysis::level_schedule selects.
std::size_t winograd_workspace_bytes(
    int tm, int tk, int tn, int depth, std::size_t elem_size,
    analysis::ScheduleFamily family = analysis::ScheduleFamily::kLowMem);

}  // namespace strassen::core
