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
//                         its kind requires -- in a destructive table
//                         (overwrites_inputs, square tiles) a slot's shape
//                         is that of the value it holds: A-linear, B-linear
//                         or bilinear;
//   2. write safety       no step of a table not marked overwrites_inputs
//                         writes an input quadrant; products never alias
//                         their destination with a source;
//   3. defined reads      no step reads a slot before it was written
//                         (use-after-overwrite reorderings surface here or
//                         as 4/5).  Where products consume their operands
//                         (products_consume), a product leaves both operand
//                         slots undefined;
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
//                         products, none writes storage a sibling writes --
//                         a member's operands count as written, since it
//                         may consume them -- or reads a sibling's
//                         destination, and all of their operands count as
//                         live at once in check 6.  Storage means the arena
//                         buffer for temporaries (temp_buffer ids), the
//                         slot itself otherwise.
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

// One slot's symbolic value; `defined` gates every read.  `shape` is the
// value's: kA / kB for a linear combination of A / B quadrants, kC for a
// bilinear form.
struct SymValue {
  bool defined = false;
  Shape shape = Shape::kNone;
  Lin lin{};       // meaningful for A-/B-shaped values
  Bilinear bil{};  // meaningful for C-shaped values
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

// True when the table's products consume their operands, i.e. may run a
// destructive child: a destructive table recurses with itself, and a
// concurrent group (the spawn level) forks children of any family.
constexpr bool products_consume(const Schedule& sched) {
  if (sched.overwrites_inputs) return true;
  for (int i = 0; i < sched.step_count; ++i)
    if (sched.steps[i].concurrent) return true;
  return false;
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

// Structural check of one step: operand presence and shapes.  An operand's
// shape is its slot's, or -- in a destructive table (`by_value`) -- that of
// the value the slot holds in `st`; an undefined value has no shape and is
// left to the defined-reads check.  Returns the violation (kNone when
// well-formed) and the offending operand.
constexpr Violation step_shape_check(const Step& s, const SymState& st,
                                     bool by_value, Operand* bad) {
  auto fail = [bad](Violation v, Operand op) {
    *bad = op;
    return v;
  };
  const bool binary = s.kind == StepKind::kAdd || s.kind == StepKind::kSub;
  const Operand src[2] = {s.a0, binary               ? s.a1
                                : is_product(s.kind) ? s.b0
                                                     : s.a0};
  for (const Operand op : {s.dst, src[0], src[1]})
    if (op == Operand::kNone) return fail(Violation::kBadOperand, op);
  auto shape = [&](Operand op) {
    const SymValue& v = st.slot[static_cast<int>(op)];
    return !by_value ? shape_of(op) : v.defined ? v.shape : Shape::kNone;
  };
  // What the sources must hold: A and B for a product, else one shape --
  // the destination slot's, or in a destructive table the first defined
  // source's.
  Shape want[2] = {Shape::kA, Shape::kB};
  if (is_product(s.kind) && !by_value && shape_of(s.dst) != Shape::kC)
    return fail(Violation::kShapeMismatch, s.dst);
  if (!is_product(s.kind)) {
    const Shape held = shape(src[0]) != Shape::kNone ? shape(src[0])
                                                     : shape(src[1]);
    want[0] = want[1] = binary && by_value ? held : shape(s.dst);
  }
  for (int k = 0; k < 2; ++k) {
    const Shape got = shape(src[k]);
    if (got != want[k] && got != Shape::kNone && want[k] != Shape::kNone)
      return fail(Violation::kShapeMismatch, src[k]);
  }
  return Violation::kNone;
}

// Executes one WELL-FORMED step on the symbolic state.  The caller has
// already checked shapes and defined-ness; aliasing of element-wise steps is
// handled naturally because sources are evaluated before the destination is
// assigned.  An undefined source contributes zero coefficients.
constexpr void sym_apply(const Step& s, SymState& st) {
  auto at = [&st](Operand op) { return st.slot[static_cast<int>(op)]; };
  SymValue out{};
  if (is_product(s.kind)) {
    const Lin a = at(s.a0).lin, b = at(s.b0).lin;
    for (int i = 0; i < 4; ++i)
      for (int j = 0; j < 4; ++j) out.bil.c[i][j] = a.c[i] * b.c[j];
    out.shape = Shape::kC;
  } else {
    // dst = x +/- y, where an in-place step's x is dst's previous value.
    // Both coefficient sets are combined; the value's shape says which
    // one it uses.
    const bool inplace = s.kind == StepKind::kAddInplace ||
                         s.kind == StepKind::kSubInplace;
    const SymValue x = at(inplace ? s.dst : s.a0);
    const SymValue y = at(inplace ? s.a0 : s.a1);
    const int sign =
        s.kind == StepKind::kAdd || s.kind == StepKind::kAddInplace ? 1 : -1;
    for (int i = 0; i < 4; ++i) {
      out.lin.c[i] = x.lin.c[i] + sign * y.lin.c[i];
      for (int j = 0; j < 4; ++j)
        out.bil.c[i][j] = x.bil.c[i][j] + sign * y.bil.c[i][j];
    }
    out.shape = x.defined ? x.shape : y.defined ? y.shape : shape_of(s.dst);
  }
  out.defined = true;
  st.slot[static_cast<int>(s.dst)] = out;
}

// A product that consumes its operands leaves both slots undefined.
constexpr void sym_consume(const Step& s, SymState& st) {
  st.slot[static_cast<int>(s.a0)] = SymValue{};
  st.slot[static_cast<int>(s.b0)] = SymValue{};
}

// Initial symbolic state: inputs hold their own unit linear combination;
// C quadrants and temporaries start undefined.
constexpr SymState initial_state() {
  SymState st{};
  for (int i = 0; i < 4; ++i) {
    SymValue& a = st.slot[static_cast<int>(Operand::kA11) + i];
    SymValue& b = st.slot[static_cast<int>(Operand::kB11) + i];
    a.defined = b.defined = true;
    a.shape = Shape::kA;
    b.shape = Shape::kB;
    a.lin.c[i] = b.lin.c[i] = 1;
  }
  return st;
}

constexpr bool temp_declared(const Schedule& s, Operand op) {
  for (int i = 0; i < s.temp_count; ++i)
    if (s.temps[i] == op) return true;
  return false;
}

// Write safety (check 2, first half): the first step of a table not marked
// overwrites_inputs that writes an input quadrant, or -1.  A property of
// the table's structure, so it is checked before symbolic execution.
// Misreads of a clobbered original in a destructive table surface as
// undefined reads or product-identity failures.
constexpr int first_input_write(const Schedule& sched) {
  if (sched.overwrites_inputs) return -1;
  for (int i = 0; i < sched.step_count; ++i)
    if (is_input(sched.steps[i].dst)) return i;
  return -1;
}

// Forward pass: structural checks + symbolic execution.  On violation,
// fills `r` (step/operand) and returns false; otherwise `st` holds the final
// symbolic state.
constexpr bool sym_execute(const Schedule& sched, SymState& st, CoreResult& r) {
  st = initial_state();
  const bool consume = products_consume(sched);
  for (int i = 0; i < sched.step_count; ++i) {
    const Step& s = sched.steps[i];
    r.step = i;
    Operand bad = Operand::kNone;
    const Violation shape_v =
        step_shape_check(s, st, sched.overwrites_inputs, &bad);
    if (shape_v != Violation::kNone) {
      r.violation = shape_v;
      r.operand = bad;
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
    if (consume && is_product(s.kind)) sym_consume(s, st);
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
// member (`*step`) and the operand involved (`*op`).  A member writes its
// destination and the two operands it may consume.
constexpr Violation check_groups(const Schedule& sched, int* step,
                                 Operand* op) {
  for (int i = 0; i < sched.step_count; ++i) {
    const Step& s = sched.steps[i];
    if (!s.concurrent) continue;
    *step = i;
    *op = s.dst;
    if (s.kind != StepKind::kMul) return Violation::kGroupNonProduct;
    const Operand writes[3] = {s.dst, s.a0, s.b0};
    for (int j = group_begin(sched, i);
         j < sched.step_count && sched.steps[j].concurrent; ++j) {
      if (j == i) continue;
      const Step& t = sched.steps[j];
      const int w = storage_id(sched, t.dst);
      for (const Operand r : {s.a0, s.b0}) {
        if (storage_id(sched, r) == w) {
          *op = r;
          return Violation::kGroupReadConflict;
        }
      }
      if (j > i) continue;  // each pair's writes are compared once
      for (const Operand x : writes) {
        for (const Operand y : {t.dst, t.a0, t.b0}) {
          if (storage_id(sched, x) == storage_id(sched, y)) {
            *op = x;
            return Violation::kGroupWriteConflict;
          }
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
  r.step = detail::first_input_write(sched);
  if (r.step >= 0) {
    r.violation = Violation::kWriteToInput;
    r.operand = sched.steps[r.step].dst;
    return r;
  }
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
