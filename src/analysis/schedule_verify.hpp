// analysis/schedule_verify.hpp -- symbolic verification of schedule tables.
//
// A schedule (analysis/schedule.hpp) is a straight-line program over formal
// quadrant operands.  The verifier executes it SYMBOLICALLY: A- and B-shaped
// slots carry integer linear combinations of the four input quadrants of
// their side, C-shaped slots carry bilinear forms (a 4x4 integer coefficient
// matrix over A-quadrant x B-quadrant products).  Working over exact integer
// coefficients, the checks are proofs, not spot tests:
//
//   1. well-formedness    every step's operands exist and have the shapes
//                         its kind requires;
//   2. write safety       no step writes an input quadrant; products never
//                         alias their destination with a source;
//   3. defined reads      no step reads a slot before it was written
//                         (use-after-overwrite reorderings surface here or
//                         as 4/5);
//   4. no dead stores     every value written is read by a later step
//                         before being overwritten, or is the final value
//                         of a C quadrant -- a clobbered live value shows
//                         up as the clobbered store becoming dead;
//   5. product identity   after the last step, each C quadrant's bilinear
//                         form equals its Sum_k A_ik.B_kj target;
//   6. temporary peak     the maximum number of simultaneously live
//                         temporaries (backward liveness) equals the
//                         schedule's declared bound;
//   7. group safety       a concurrent product group (Step::concurrent) runs
//                         in any order or at once: its members are plain
//                         products with distinct destination storage, none
//                         reads storage a sibling writes, and all of their
//                         operands count as live at once in check 6.
//                         Storage means the arena buffer for temporaries
//                         (temp_buffer ids), the slot itself otherwise.
//
// The core (verify_core) is constexpr and reports the FIRST violation with
// its step index; schedule_verify.cpp static_asserts it over the shipped
// tables, so a broken table fails the library build.  The runtime layer
// (verify_schedule) re-runs the same core pieces and formats step-precise
// diagnostics, collecting every violation.
#pragma once

#include <string>
#include <vector>

#include "analysis/schedule.hpp"

namespace strassen::analysis {

// ---- symbolic domain ------------------------------------------------------

// Linear combination over one side's quadrants (index 0..3 = X11,X12,X21,X22
// for X in {A, B}).
struct Lin {
  int c[4] = {0, 0, 0, 0};
  constexpr bool operator==(const Lin&) const = default;
};

// Bilinear form: coefficient of A-quadrant i times B-quadrant j.
struct Bilinear {
  int c[4][4] = {};
  constexpr bool operator==(const Bilinear&) const = default;
};

// One slot's symbolic value; `defined` gates every read.
struct SymValue {
  bool defined = false;
  Lin lin{};       // meaningful for A-/B-shaped slots
  Bilinear bil{};  // meaningful for C-shaped slots
};

struct SymState {
  SymValue slot[kOperandCount]{};
};

// The multiplication target: C_ij = Sum_k A_ik . B_kj on the 2x2 quadrant
// block structure (quadrant index: 0=11, 1=12, 2=21, 3=22).
constexpr Bilinear c_target(Operand c) {
  Bilinear t{};
  switch (c) {
    case Operand::kC11: t.c[0][0] = 1; t.c[1][2] = 1; break;  // A11B11+A12B21
    case Operand::kC12: t.c[0][1] = 1; t.c[1][3] = 1; break;  // A11B12+A12B22
    case Operand::kC21: t.c[2][0] = 1; t.c[3][2] = 1; break;  // A21B11+A22B21
    case Operand::kC22: t.c[2][1] = 1; t.c[3][3] = 1; break;  // A21B12+A22B22
    default: break;
  }
  return t;
}

// ---- verification core ----------------------------------------------------

enum class Violation : std::uint8_t {
  kNone = 0,
  kEmptySchedule,      // no steps
  kBadOperand,         // kNone where an operand is required
  kShapeMismatch,      // operand shape does not fit the step kind's role
  kWriteToInput,       // destination is an A/B quadrant
  kProductAliasing,    // a product's destination is also one of its sources
  kReadUndefined,      // source (or in-place destination) never written
  kUndeclaredTemp,     // step uses a temporary absent from Schedule::temps
  kDeadStore,          // written value never read and not a final C quadrant
  kProductIdentity,    // final C quadrant differs from its target
  kOutputUndefined,    // a C quadrant is never written
  kTempPeakMismatch,   // live-temporary peak != declared_temp_peak
  kBadTempBuffer,      // temp_buffer id out of range [0, temp_count)
  kSharedTempOverlap,  // temps sharing one arena buffer simultaneously live
  kGroupNonProduct,    // a concurrent group member is not a plain product
  kGroupWriteConflict,   // two group members write the same storage
  kGroupReadConflict,    // a group member reads storage a sibling writes
};

constexpr const char* violation_name(Violation v) {
  switch (v) {
    case Violation::kNone: return "none";
    case Violation::kEmptySchedule: return "empty-schedule";
    case Violation::kBadOperand: return "bad-operand";
    case Violation::kShapeMismatch: return "shape-mismatch";
    case Violation::kWriteToInput: return "write-to-input";
    case Violation::kProductAliasing: return "product-aliasing";
    case Violation::kReadUndefined: return "read-undefined";
    case Violation::kUndeclaredTemp: return "undeclared-temp";
    case Violation::kDeadStore: return "dead-store";
    case Violation::kProductIdentity: return "product-identity";
    case Violation::kOutputUndefined: return "output-undefined";
    case Violation::kTempPeakMismatch: return "temp-peak-mismatch";
    case Violation::kBadTempBuffer: return "bad-temp-buffer";
    case Violation::kSharedTempOverlap: return "shared-temp-overlap";
    case Violation::kGroupNonProduct: return "group-non-product";
    case Violation::kGroupWriteConflict: return "group-write-conflict";
    case Violation::kGroupReadConflict: return "group-read-conflict";
  }
  return "unknown";
}

// First violation (step = offending step index, or -1 for whole-schedule
// violations; operand = the slot involved), plus the schedule's proven
// statistics when it verifies.
struct CoreResult {
  Violation violation = Violation::kNone;
  int step = -1;
  Operand operand = Operand::kNone;
  int temp_peak = 0;    // live-temporary peak (valid when no violation)
  int temp_peak_step = -1;  // first step whose entry point carries the peak
  int products = 0;     // product steps (7 for one Winograd level)
  int linear_ops = 0;   // element-wise steps (15 for one Winograd level)
};

namespace detail {

// Sources a step READS, in a fixed scan order; kNone-padded.  In-place
// destinations read their previous value and are included.
struct ReadSet {
  Operand ops[2] = {Operand::kNone, Operand::kNone};
  int count = 0;
};

constexpr ReadSet step_reads(const Step& s) {
  ReadSet r{};
  auto push = [&r](Operand op) {
    if (op != Operand::kNone) r.ops[r.count++] = op;
  };
  switch (s.kind) {
    case StepKind::kAdd:
    case StepKind::kSub:
      push(s.a0);
      push(s.a1);
      break;
    case StepKind::kAddInplace:
    case StepKind::kSubInplace:
      push(s.dst);  // reads its previous value
      push(s.a0);
      break;
    case StepKind::kMul:
      push(s.a0);
      push(s.b0);
      break;
  }
  return r;
}

// Structural check of one step: operand presence and shapes.  Returns the
// violation (kNone when well-formed) and the offending operand.
constexpr Violation step_shape_check(const Step& s, Operand* bad) {
  auto fail = [bad](Violation v, Operand op) {
    *bad = op;
    return v;
  };
  if (s.dst == Operand::kNone) return fail(Violation::kBadOperand, s.dst);
  const Shape ds = shape_of(s.dst);
  switch (s.kind) {
    case StepKind::kAdd:
    case StepKind::kSub:
      if (s.a0 == Operand::kNone) return fail(Violation::kBadOperand, s.a0);
      if (s.a1 == Operand::kNone) return fail(Violation::kBadOperand, s.a1);
      if (shape_of(s.a0) != ds) return fail(Violation::kShapeMismatch, s.a0);
      if (shape_of(s.a1) != ds) return fail(Violation::kShapeMismatch, s.a1);
      return Violation::kNone;
    case StepKind::kAddInplace:
    case StepKind::kSubInplace:
      if (s.a0 == Operand::kNone) return fail(Violation::kBadOperand, s.a0);
      if (shape_of(s.a0) != ds) return fail(Violation::kShapeMismatch, s.a0);
      return Violation::kNone;
    case StepKind::kMul:
      if (ds != Shape::kC) return fail(Violation::kShapeMismatch, s.dst);
      if (s.a0 == Operand::kNone) return fail(Violation::kBadOperand, s.a0);
      if (s.b0 == Operand::kNone) return fail(Violation::kBadOperand, s.b0);
      if (shape_of(s.a0) != Shape::kA)
        return fail(Violation::kShapeMismatch, s.a0);
      if (shape_of(s.b0) != Shape::kB)
        return fail(Violation::kShapeMismatch, s.b0);
      return Violation::kNone;
  }
  return Violation::kBadOperand;
}

// Executes one WELL-FORMED step on the symbolic state.  The caller has
// already checked shapes and defined-ness; aliasing of element-wise steps is
// handled naturally because sources are evaluated before the destination is
// assigned.
constexpr void sym_apply(const Step& s, SymState& st) {
  const int d = static_cast<int>(s.dst);
  auto lin_of = [&st](Operand op) { return st.slot[static_cast<int>(op)].lin; };
  auto bil_of = [&st](Operand op) { return st.slot[static_cast<int>(op)].bil; };
  const Shape ds = shape_of(s.dst);
  switch (s.kind) {
    case StepKind::kAdd:
    case StepKind::kSub: {
      const int sign = s.kind == StepKind::kAdd ? 1 : -1;
      if (ds == Shape::kC) {
        const Bilinear x = bil_of(s.a0), y = bil_of(s.a1);
        Bilinear out{};
        for (int i = 0; i < 4; ++i)
          for (int j = 0; j < 4; ++j) out.c[i][j] = x.c[i][j] + sign * y.c[i][j];
        st.slot[d].bil = out;
      } else {
        const Lin x = lin_of(s.a0), y = lin_of(s.a1);
        Lin out{};
        for (int i = 0; i < 4; ++i) out.c[i] = x.c[i] + sign * y.c[i];
        st.slot[d].lin = out;
      }
      break;
    }
    case StepKind::kAddInplace:
    case StepKind::kSubInplace: {
      const int sign = s.kind == StepKind::kAddInplace ? 1 : -1;
      if (ds == Shape::kC) {
        const Bilinear x = bil_of(s.a0);
        for (int i = 0; i < 4; ++i)
          for (int j = 0; j < 4; ++j) st.slot[d].bil.c[i][j] += sign * x.c[i][j];
      } else {
        const Lin x = lin_of(s.a0);
        for (int i = 0; i < 4; ++i) st.slot[d].lin.c[i] += sign * x.c[i];
      }
      break;
    }
    case StepKind::kMul: {
      const Lin a = lin_of(s.a0), b = lin_of(s.b0);
      Bilinear out{};
      for (int i = 0; i < 4; ++i)
        for (int j = 0; j < 4; ++j) out.c[i][j] = a.c[i] * b.c[j];
      st.slot[d].bil = out;
      break;
    }
  }
  st.slot[d].defined = true;
}

// Initial symbolic state: inputs hold their own unit linear combination;
// C quadrants and temporaries start undefined.
constexpr SymState initial_state() {
  SymState st{};
  for (int i = 0; i < 4; ++i) {
    st.slot[static_cast<int>(Operand::kA11) + i].defined = true;
    st.slot[static_cast<int>(Operand::kA11) + i].lin.c[i] = 1;
    st.slot[static_cast<int>(Operand::kB11) + i].defined = true;
    st.slot[static_cast<int>(Operand::kB11) + i].lin.c[i] = 1;
  }
  return st;
}

constexpr bool temp_declared(const Schedule& s, Operand op) {
  for (int i = 0; i < s.temp_count; ++i)
    if (s.temps[i] == op) return true;
  return false;
}

// Forward pass: structural checks + symbolic execution.  On violation,
// fills `r` (step/operand) and returns false; otherwise `st` holds the final
// symbolic state.
constexpr bool sym_execute(const Schedule& sched, SymState& st, CoreResult& r) {
  st = initial_state();
  for (int i = 0; i < sched.step_count; ++i) {
    const Step& s = sched.steps[i];
    r.step = i;
    Operand bad = Operand::kNone;
    const Violation shape_v = step_shape_check(s, &bad);
    if (shape_v != Violation::kNone) {
      r.violation = shape_v;
      r.operand = bad;
      return false;
    }
    // Tables marked overwrites_inputs may write A/B quadrant SLOTS: shape
    // rules already confine such writes to element-wise steps (a product's
    // destination must be C-shaped), so every one is an exact-alias
    // vadd/vsub on an operand copy the caller staged.  Misreads of a
    // clobbered original surface as a product-identity failure.
    if (is_input(s.dst) && !sched.overwrites_inputs) {
      r.violation = Violation::kWriteToInput;
      r.operand = s.dst;
      return false;
    }
    const ReadSet reads = step_reads(s);
    if (is_product(s.kind)) {
      for (int k = 0; k < reads.count; ++k) {
        if (reads.ops[k] == s.dst) {
          r.violation = Violation::kProductAliasing;
          r.operand = s.dst;
          return false;
        }
      }
    }
    for (int k = 0; k < reads.count; ++k) {
      const Operand op = reads.ops[k];
      if (is_temp(op) && !temp_declared(sched, op)) {
        r.violation = Violation::kUndeclaredTemp;
        r.operand = op;
        return false;
      }
      if (!st.slot[static_cast<int>(op)].defined) {
        r.violation = Violation::kReadUndefined;
        r.operand = op;
        return false;
      }
    }
    if (is_temp(s.dst) && !temp_declared(sched, s.dst)) {
      r.violation = Violation::kUndeclaredTemp;
      r.operand = s.dst;
      return false;
    }
    sym_apply(s, st);
  }
  r.step = -1;
  return true;
}

// Dead-store scan: the value written by step i into slot s must be read by
// some later step before the next write to s, or be the final value of a C
// quadrant.  Returns the first offending step (operand = its destination),
// or -1.
constexpr int first_dead_store(const Schedule& sched, Operand* op) {
  for (int i = 0; i < sched.step_count; ++i) {
    const Operand dst = sched.steps[i].dst;
    bool read_later = false;
    bool overwritten = false;
    for (int j = i + 1; j < sched.step_count && !read_later; ++j) {
      const ReadSet reads = step_reads(sched.steps[j]);
      for (int k = 0; k < reads.count; ++k)
        if (reads.ops[k] == dst) read_later = true;
      if (!read_later && sched.steps[j].dst == dst) {
        overwritten = true;
        break;
      }
    }
    if (read_later) continue;
    if (!overwritten && is_c_quadrant(dst)) continue;  // final output value
    *op = dst;
    return i;
  }
  return -1;
}

// First step of the concurrent group containing step i (i itself when the
// step is not a group member).
constexpr int group_begin(const Schedule& sched, int i) {
  while (sched.steps[i].concurrent && i > 0 && sched.steps[i - 1].concurrent)
    --i;
  return i;
}

// Backward liveness over the declared temporaries: peak number of
// simultaneously live temporaries across all program points.  A temporary is
// live at a point when some later step reads it before it is overwritten.
// A concurrent group is ONE program point at which every member's sources,
// every member's destination and everything live after the group are live
// at once.  `at_step` (optional) receives the FIRST step in program order
// whose entry point carries the peak -- the step a diagnostic should name.
constexpr int live_temp_peak(const Schedule& sched, int* at_step = nullptr) {
  bool live[kOperandCount] = {};
  int peak = 0;
  int first = -1;
  for (int i = sched.step_count - 1; i >= 0;) {
    const int b = group_begin(sched, i);
    // Program point is BEFORE the step (group): kill the definitions, then
    // add reads.  In-place steps both read and write dst; the read below
    // re-marks it.  A group's destinations are written while its sources
    // are still read, so they stay counted.
    bool written[kOperandCount] = {};
    for (int j = b; j <= i; ++j) {
      live[static_cast<int>(sched.steps[j].dst)] = false;
      written[static_cast<int>(sched.steps[j].dst)] = b < i;
    }
    for (int j = b; j <= i; ++j) {
      const ReadSet reads = step_reads(sched.steps[j]);
      for (int k = 0; k < reads.count; ++k)
        live[static_cast<int>(reads.ops[k])] = true;
    }
    int count = 0;
    for (int o = 0; o < kOperandCount; ++o)
      if ((live[o] || written[o]) && is_temp(static_cast<Operand>(o)))
        ++count;
    if (count > peak) peak = count;
    if (count == peak && peak > 0) first = b;  // loop runs backward: the
                                               // last update is the earliest
    i = b - 1;
  }
  if (at_step != nullptr) *at_step = first;
  return peak;
}

// Storage identity for the group hazard check: a declared temporary's arena
// buffer (temps mapped onto one buffer alias), the slot itself otherwise.
constexpr int storage_id(const Schedule& sched, Operand op) {
  for (int i = 0; i < sched.temp_count; ++i)
    if (sched.temps[i] == op) return kOperandCount + temp_buffer_id(sched, i);
  return static_cast<int>(op);
}

// Group safety (check 7): returns kNone, or the violation with the offending
// member (`*step`) and the operand involved (`*op`).
constexpr Violation check_groups(const Schedule& sched, int* step,
                                 Operand* op) {
  for (int i = 0; i < sched.step_count; ++i) {
    const Step& s = sched.steps[i];
    if (!s.concurrent) continue;
    *step = i;
    *op = s.dst;
    if (s.kind != StepKind::kMul) return Violation::kGroupNonProduct;
    const ReadSet reads = step_reads(s);
    for (int j = group_begin(sched, i);
         j < sched.step_count && sched.steps[j].concurrent; ++j) {
      if (j == i) continue;
      const int w = storage_id(sched, sched.steps[j].dst);
      if (j < i && w == storage_id(sched, s.dst))
        return Violation::kGroupWriteConflict;
      for (int k = 0; k < reads.count; ++k) {
        if (storage_id(sched, reads.ops[k]) == w) {
          *op = reads.ops[k];
          return Violation::kGroupReadConflict;
        }
      }
    }
  }
  *step = -1;
  *op = Operand::kNone;
  return Violation::kNone;
}

// True when `op` is live at the program point BEFORE step `point`: some step
// j >= point reads it before any step overwrites it.  (Reads of step j are
// checked before its write, so an in-place or exact-alias definition counts
// as a read of the previous value.)
constexpr bool live_at(const Schedule& sched, Operand op, int point) {
  for (int j = point; j < sched.step_count; ++j) {
    const ReadSet reads = step_reads(sched.steps[j]);
    for (int k = 0; k < reads.count; ++k)
      if (reads.ops[k] == op) return true;
    if (sched.steps[j].dst == op) return false;
  }
  return false;
}

// Shared-buffer safety.  Validates the temp_buffer mapping (ids in
// [0, temp_count)) and proves that no two temporaries mapped onto one arena
// buffer are ever simultaneously live.  Returns kNone, or the violation with
// the first offending step (`*step`) and one involved temp (`*op`).
constexpr Violation check_temp_buffers(const Schedule& sched, int* step,
                                       Operand* op) {
  for (int i = 0; i < sched.temp_count; ++i) {
    if (sched.temp_buffer[i] < 0 || sched.temp_buffer[i] >= sched.temp_count) {
      *step = -1;
      *op = sched.temps[i];
      return Violation::kBadTempBuffer;
    }
  }
  for (int i = 0; i < sched.temp_count; ++i) {
    for (int j = i + 1; j < sched.temp_count; ++j) {
      if (sched.temp_buffer[i] != sched.temp_buffer[j]) continue;
      for (int p = 0; p < sched.step_count; ++p) {
        if (live_at(sched, sched.temps[i], p) &&
            live_at(sched, sched.temps[j], p)) {
          *step = p;
          *op = sched.temps[j];
          return Violation::kSharedTempOverlap;
        }
      }
    }
  }
  return Violation::kNone;
}

}  // namespace detail

// Verifies `sched` end to end; stops at the FIRST violation.  constexpr so
// shipped tables are provable at compile time (see schedule_verify.cpp).
constexpr CoreResult verify_core(const Schedule& sched) {
  CoreResult r{};
  // No pointer-vs-nullptr test here (steps, temp_buffer): gcc with
  // -fsanitize=undefined refuses to constant-fold global-array-address vs
  // nullptr comparisons, which would break the static_asserts over the
  // shipped tables.  The runtime layer (verify_schedule) guards them before
  // calling in.
  if (sched.step_count <= 0) {
    r.violation = Violation::kEmptySchedule;
    return r;
  }
  // Group hazards first: they are a property of the storage each member
  // touches, independent of (and more specific than) shape errors.
  r.violation = detail::check_groups(sched, &r.step, &r.operand);
  if (r.violation != Violation::kNone) return r;
  SymState st{};
  if (!detail::sym_execute(sched, st, r)) return r;
  {
    Operand dead = Operand::kNone;
    const int i = detail::first_dead_store(sched, &dead);
    if (i >= 0) {
      r.violation = Violation::kDeadStore;
      r.step = i;
      r.operand = dead;
      return r;
    }
  }
  for (Operand c : {Operand::kC11, Operand::kC12, Operand::kC21,
                    Operand::kC22}) {
    const SymValue& v = st.slot[static_cast<int>(c)];
    if (!v.defined) {
      r.violation = Violation::kOutputUndefined;
      r.operand = c;
      return r;
    }
    if (!(v.bil == c_target(c))) {
      r.violation = Violation::kProductIdentity;
      r.operand = c;
      return r;
    }
  }
  r.temp_peak = detail::live_temp_peak(sched, &r.temp_peak_step);
  if (r.temp_peak != sched.declared_temp_peak) {
    r.violation = Violation::kTempPeakMismatch;
    r.step = r.temp_peak_step;
    r.operand = Operand::kNone;
    return r;
  }
  {
    int bstep = -1;
    Operand bop = Operand::kNone;
    const Violation bv = detail::check_temp_buffers(sched, &bstep, &bop);
    if (bv != Violation::kNone) {
      r.violation = bv;
      r.step = bstep;
      r.operand = bop;
      return r;
    }
  }
  for (int i = 0; i < sched.step_count; ++i) {
    if (is_product(sched.steps[i].kind))
      ++r.products;
    else
      ++r.linear_ops;
  }
  return r;
}

// ---- runtime layer (diagnostics; schedule_verify.cpp) ---------------------

struct VerifyResult {
  bool ok = false;
  int temp_peak = 0;
  int products = 0;
  int linear_ops = 0;
  std::vector<std::string> errors;  // step-precise diagnostics, all collected
};

// Full verification with human-readable, step-precise diagnostics.  Unlike
// verify_core it keeps going after a forward-pass violation where possible
// (dead stores, identity, peak are each reported independently).
VerifyResult verify_schedule(const Schedule& sched);

// Renders a C-shaped slot's bilinear form, e.g. "+A11.B11 +A12.B21".
std::string bilinear_to_string(const Bilinear& b);

}  // namespace strassen::analysis
