// analysis/schedule.hpp -- fast-matrix-multiplication schedules as data.
//
// A Strassen-Winograd level is a straight-line program over twelve quadrant
// operands (A11..A22, B11..B22, C11..C22) and a handful of quadrant-sized
// temporaries: element-wise +/- steps and recursive products.  This header
// lifts the schedules that used to be hard-coded in core/winograd.hpp into
// declarative step tables so that
//
//   * the recursion (core/winograd.hpp) EXECUTES the table -- the seed
//     code's blas::vadd/vsub/gemm calls, each element computed by the same
//     expression in the same order of additions, so every pinned
//     bit-exactness contract holds, and
//   * the verifier (analysis/schedule_verify.hpp) symbolically executes the
//     same table and PROVES it: every C quadrant equals its sum-of-products
//     target, no step reads an undefined or clobbered value, products never
//     alias their destination, and the live-temporary peak matches the
//     schedule's declared bound (2 for the paper's schedule in the
//     Boyer-Dumas-Pernet-Zhou order, 0 for Kreczmar's in-place one, 11 for
//     the parallel spawn level).
//
// The tables are constexpr and the verifier core is constexpr: the library
// build static_asserts the shipped tables (schedule_verify.cpp), so an edit
// that breaks a schedule does not compile, let alone pass tests.
//
// Operand shapes.  With A (tm x tk), B (tk x tn), C (tm x tn) per level:
// A-shaped operands are the A quadrants and S-temporaries, B-shaped the B
// quadrants and T-temporaries, C-shaped the C quadrants and P-temporaries.
// Linear steps require all operands of one shape; a product maps
// (A-shaped) x (B-shaped) -> C-shaped.  A destructive table
// (Schedule::overwrites_inputs) runs on square tiles only, where every
// quadrant has one size: there a slot's shape is the shape of the value it
// holds, so products and sums may land in any quadrant.
#pragma once

#include <cstdint>
#include <iterator>

namespace strassen::analysis {

// ---- operands -------------------------------------------------------------

// Slot identifiers of one recursion level.  The serial schedules use one
// temporary of each shape; the spawn table (kWinogradSpawn) keeps all eight
// operand sums and three products live across its concurrent product group,
// which is what the higher slot counts are for.
enum class Operand : std::uint8_t {
  kA11 = 0, kA12, kA21, kA22,   // A quadrants (inputs)
  kB11, kB12, kB21, kB22,       // B quadrants (inputs)
  kC11, kC12, kC21, kC22,       // C quadrants (outputs, usable as scratch)
  kTS0, kTS1, kTS2, kTS3,       // A-shaped temporaries
  kTT0, kTT1, kTT2, kTT3,       // B-shaped temporaries
  kTP0, kTP1, kTP2,             // C-shaped temporaries
  kNone,
};

inline constexpr int kOperandCount = 23;
inline constexpr int kTempSlotCount = 11;  // kTS0..kTP2

enum class Shape : std::uint8_t { kA, kB, kC, kNone };

constexpr Shape shape_of(Operand op) {
  const auto v = static_cast<std::uint8_t>(op);
  if (v <= static_cast<std::uint8_t>(Operand::kA22)) return Shape::kA;
  if (v <= static_cast<std::uint8_t>(Operand::kB22)) return Shape::kB;
  if (v <= static_cast<std::uint8_t>(Operand::kC22)) return Shape::kC;
  if (op >= Operand::kTS0 && op <= Operand::kTS3) return Shape::kA;
  if (op >= Operand::kTT0 && op <= Operand::kTT3) return Shape::kB;
  if (op >= Operand::kTP0 && op <= Operand::kTP2) return Shape::kC;
  return Shape::kNone;
}

// Inputs: the A and B quadrants, read-only unless the table is destructive.
constexpr bool is_input(Operand op) {
  return op >= Operand::kA11 && op <= Operand::kB22;
}

constexpr bool is_c_quadrant(Operand op) {
  return op >= Operand::kC11 && op <= Operand::kC22;
}

constexpr bool is_temp(Operand op) {
  return op >= Operand::kTS0 && op <= Operand::kTP2;
}

constexpr const char* operand_name(Operand op) {
  switch (op) {
    case Operand::kA11: return "A11";
    case Operand::kA12: return "A12";
    case Operand::kA21: return "A21";
    case Operand::kA22: return "A22";
    case Operand::kB11: return "B11";
    case Operand::kB12: return "B12";
    case Operand::kB21: return "B21";
    case Operand::kB22: return "B22";
    case Operand::kC11: return "C11";
    case Operand::kC12: return "C12";
    case Operand::kC21: return "C21";
    case Operand::kC22: return "C22";
    case Operand::kTS0: return "tS";
    case Operand::kTS1: return "tS'";
    case Operand::kTS2: return "tS2";
    case Operand::kTS3: return "tS3";
    case Operand::kTT0: return "tT";
    case Operand::kTT1: return "tT'";
    case Operand::kTT2: return "tT2";
    case Operand::kTT3: return "tT3";
    case Operand::kTP0: return "tP";
    case Operand::kTP1: return "tP'";
    case Operand::kTP2: return "tP2";
    case Operand::kNone: break;
  }
  return "<none>";
}

// ---- steps ----------------------------------------------------------------

// One straight-line operation.  Operand roles per kind:
//   kAdd          dst = a0 + a1                    (blas::vadd)
//   kSub          dst = a0 - a1                    (blas::vsub)
//   kAddInplace   dst = dst + a0                   (blas::vadd_inplace)
//   kSubInplace   dst = dst - a0                   (blas::vsub_inplace)
//   kMul          dst = a0 . b0                    (recursive product)
// Element-wise steps may alias dst with a source EXACTLY (the level-1 alias
// contract); products must never alias their destination with a source --
// the verifier rejects the latter, shape rules make it impossible for
// well-shaped tables, but mutated tables are checked explicitly.
enum class StepKind : std::uint8_t {
  kAdd,
  kSub,
  kAddInplace,
  kSubInplace,
  kMul,
};

enum class Sign : std::int8_t { kMinus = -1, kPlus = 1 };

constexpr bool is_product(StepKind k) { return k == StepKind::kMul; }

struct Step {
  StepKind kind;
  Operand dst;
  Operand a0 = Operand::kNone;  // first source (A side of a product)
  Operand a1 = Operand::kNone;  // second source of kAdd / kSub
  Operand b0 = Operand::kNone;  // B side of a product
  const char* note = "";        // paper name of the step (S3, P5, U2, ...)
  // Member of a concurrent product group: a maximal run of consecutive
  // flagged steps whose products an executor may run in any order or at
  // once (pmodgemm forks them).  The verifier proves the run hazard-free.
  bool concurrent = false;
};

// Step factories -- keep the tables readable.
constexpr Step add(Operand dst, Operand x, Operand y, const char* note) {
  return Step{StepKind::kAdd, dst, x, y, Operand::kNone, note};
}
constexpr Step sub(Operand dst, Operand x, Operand y, const char* note) {
  return Step{StepKind::kSub, dst, x, y, Operand::kNone, note};
}
constexpr Step add_ip(Operand dst, Operand x, const char* note) {
  return Step{StepKind::kAddInplace, dst, x, Operand::kNone, Operand::kNone,
              note};
}
constexpr Step sub_ip(Operand dst, Operand x, const char* note) {
  return Step{StepKind::kSubInplace, dst, x, Operand::kNone, Operand::kNone,
              note};
}
constexpr Step mul(Operand dst, Operand a, Operand b, const char* note) {
  return Step{StepKind::kMul, dst, a, Operand::kNone, b, note};
}
constexpr Step forked(Step s) {
  s.concurrent = true;
  return s;
}

// ---- schedules ------------------------------------------------------------

// The identity arena-buffer mapping (temps[i] in buffer i), the default for
// Schedule::temp_buffer.  A real array rather than nullptr because gcc with
// -fsanitize=undefined will not constant-fold a global array's address
// against nullptr, and the compile-time proofs read the mapping.
inline constexpr std::int8_t kOwnTempBuffers[kTempSlotCount] = {
    0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10};

struct Schedule {
  const char* name;
  const Step* steps;
  int step_count;
  const Operand* temps;    // temporaries in ALLOCATION order (arena pushes)
  int temp_count;
  int declared_temp_peak;  // documented live-temporary bound; verified
  // True for a destructive table: it overwrites its A/B quadrant slots, and
  // its products, which recurse with the same table, consume their
  // operands.  Only executable with square tiles (tm == tk == tn) on operand
  // copies the library owns -- the Morton-staged quadrants -- never on the
  // caller's matrices.
  bool overwrites_inputs = false;
  // Arena-buffer sharing: temp_buffer[i] is the dense buffer id backing
  // temps[i].  Temps mapped to one id share a single allocation sized for
  // the larger shape; the verifier proves their live ranges are disjoint.
  // Never null; the default gives each temp its own buffer.
  const std::int8_t* temp_buffer = kOwnTempBuffers;
};

// Buffer id backing temps[i].
constexpr int temp_buffer_id(const Schedule& s, int i) {
  return s.temp_buffer[i];
}

// Number of distinct arena buffers the schedule's temporaries occupy.
constexpr int temp_buffer_count(const Schedule& s) {
  int max_id = -1;
  for (int i = 0; i < s.temp_count; ++i)
    if (temp_buffer_id(s, i) > max_id) max_id = temp_buffer_id(s, i);
  return max_id + 1;
}

// ---- schedule families ----------------------------------------------------

// Planner-facing grouping of the shipped serial tables: the family a
// product runs (GemmPlan::schedule, reported as GemmReport::schedule), whose
// table every serial level of that product executes.  Every product runs
// kLowMem unless the workspace budget cannot hold its arena: the
// degradation ladder (core/modgemm.hpp) then runs kInPlace where Kreczmar's
// table can run.  kAuto is not a family; only the benchmark's plan-cache
// probe still spells it.
enum class ScheduleFamily : std::uint8_t {
  kAuto = 0,
  kLowMem,    // the paper's schedule in BDPZ's 2-buffer order: the default
  kInPlace,   // Kreczmar: overwrites the Morton A/B copies; 0 temps
};

constexpr const char* family_name(ScheduleFamily f) {
  switch (f) {
    case ScheduleFamily::kAuto: return "auto";
    case ScheduleFamily::kLowMem: return "winograd-lowmem";
    case ScheduleFamily::kInPlace: return "winograd-inplace";
  }
  return "unknown";
}

namespace detail {

using Op = Operand;
inline constexpr Op A11 = Op::kA11, A12 = Op::kA12, A21 = Op::kA21,
                    A22 = Op::kA22;
inline constexpr Op B11 = Op::kB11, B12 = Op::kB12, B21 = Op::kB21,
                    B22 = Op::kB22;
inline constexpr Op C11 = Op::kC11, C12 = Op::kC12, C21 = Op::kC21,
                    C22 = Op::kC22;
inline constexpr Op tS = Op::kTS0, tT = Op::kTT0, tP = Op::kTP0;

// ---- the default family (Boyer-Dumas-Pernet-Zhou) --------------------------
//
// The paper's Winograd schedule (S2): 7 recursive products and 15 element-wise
// steps, with C's quadrants doubling as scratch, in the 2-buffer order of
// Boyer, Dumas, Pernet and Zhou.  Every operand sum, product and U-chain step
// is the paper's 3-temporary sequence's, in its order of additions, so C
// matches that sequence bit for bit (ScheduleBitIdentity replays it); only P6
// moves ahead of P1.  BDPZ's literal 2-temp table reuses one temporary across
// shapes (their X starts A-shaped and ends C-shaped), which this engine's shape
// typing forbids; the same memory bound is reached instead by declaring tS and
// tP but mapping both onto ONE arena buffer (temp_buffer {0, 1, 0}, sized max
// of the two shapes) -- legal because their live ranges are disjoint: tS dies
// at P6 (step 11) before tP is born at P1 (step 12), which the verifier proves.
// Products are ordered so every P lands either directly in its C quadrant or in
// C11-as-scratch; per level this needs max(qa, qc) + qb temporary elements
// instead of qa + qb + qc.
inline constexpr Step kWinogradLowMemSteps[] = {
    sub(tS, A11, A21, "S3"),        // tS  = A11 - A21
    sub(tT, B22, B12, "T3"),        // tT  = B22 - B12
    mul(C21, tS, tT, "P5"),         // C21 = S3 . T3
    add(tS, A21, A22, "S1"),        // tS  = A21 + A22
    sub(tT, B12, B11, "T1"),        // tT  = B12 - B11
    mul(C22, tS, tT, "P3"),         // C22 = S1 . T1
    sub_ip(tS, A11, "S2"),          // tS  = S1 - A11
    sub(tT, B22, tT, "T2"),         // tT  = B22 - T1
    mul(C12, tS, tT, "P4"),         // C12 = S2 . T2
    sub(tS, A12, tS, "S4"),         // tS  = A12 - S2
    mul(C11, tS, B22, "P6"),        // C11 = S4 . B22   [tS dies here]
    mul(tP, A11, B11, "P1"),        // tP  = A11 . B11  [reuses tS's buffer]
    add_ip(C12, tP, "U2"),          // C12 = P1 + P4
    add_ip(C21, C12, "U3"),         // C21 = U2 + P5
    add_ip(C12, C22, "U6"),         // C12 = U2 + P3
    add_ip(C22, C21, "U5"),         // C22 = U3 + P3       [final C22]
    add_ip(C12, C11, "U7"),         // C12 = U6 + P6       [final C12]
    sub_ip(tT, B21, "-T4"),         // tT  = T2 - B21
    mul(C11, A22, tT, "-P7"),       // C11 = A22 . (T2 - B21)
    sub_ip(C21, C11, "U4"),         // C21 = U3 + P7       [final C21]
    mul(C11, A12, B21, "P2"),       // C11 = A12 . B21
    add_ip(C11, tP, "U1"),          // C11 = P1 + P2       [final C11]
};

// Allocation order tS, tT, tP: tS and tP share arena buffer 0 (sized for the
// larger of the A/C shapes); tT owns buffer 1.
inline constexpr Operand kWinogradLowMemTemps[] = {tS, tT, tP};
inline constexpr std::int8_t kWinogradLowMemBuffers[] = {0, 1, 0};

// Kreczmar's in-place schedule (paper S5.1): no temporaries at all.  Every
// quadrant of A, B and C serves as storage, so operand sums and products
// land in whichever quadrant is free, whatever its matrix -- legal only with
// square tiles, where all quadrants have one size.  Each product recurses
// with this same table and so destroys its two operands; the order below
// makes every product the last use of both.  The operand sums and the
// U-chain are kWinogradLowMem's expressions (+ is commutative), so the
// result matches the default table bit for bit.
inline constexpr Step kKreczmarSteps[] = {
    sub(C11, B12, B11, "T1"),       // C11 <- T1 = B12 - B11
    sub(C12, B22, C11, "T2"),       // C12 <- T2 = B22 - T1
    sub(C21, B22, B12, "T3"),       // C21 <- T3 = B22 - B12
    sub(B12, A11, A21, "S3"),       // B12 <- S3 = A11 - A21
    mul(C22, B12, C21, "P5"),       // C22 = S3 . T3
    add(C21, A21, A22, "S1"),       // C21 <- S1 = A21 + A22
    sub(A21, C21, A11, "S2"),       // A21 <- S2 = S1 - A11
    mul(B12, C21, C11, "P3"),       // B12 = S1 . T1
    mul(C11, A11, B11, "P1"),       // C11 = A11 . B11
    sub(C21, A12, A21, "S4"),       // C21 <- S4 = A12 - S2
    sub(A11, C12, B21, "-T4"),      // A11 <- T2 - B21
    mul(B11, A21, C12, "P4"),       // B11 = S2 . T2
    mul(A21, A12, B21, "P2"),       // A21 = A12 . B21
    mul(A12, C21, B22, "P6"),       // A12 = S4 . B22
    mul(B21, A22, A11, "-P7"),      // B21 = A22 . (T2 - B21)
    add(C12, C11, B11, "U2"),       // C12 = P1 + P4
    add_ip(C11, A21, "U1"),         // C11 = P1 + P2       [final C11]
    add(C21, C12, C22, "U3"),       // C21 = U2 + P5
    add_ip(C12, B12, "U6"),         // C12 = U2 + P3
    add_ip(C12, A12, "U7"),         // C12 = U6 + P6       [final C12]
    add(C22, C21, B12, "U5"),       // C22 = U3 + P3       [final C22]
    sub_ip(C21, B21, "U4"),         // C21 = U3 + P7       [final C21]
};

// The spawn level of a forked product (core::detail::fork_recurse): the
// element-wise steps of kWinogradLowMemSteps, but each of the 8 operand sums
// keeps its own temporary so the 7 products can form ONE concurrent group,
// listed in the order pmodgemm submits them.  P2, P3, P4 and P5 land directly
// in their C quadrants (Boyer et al.'s placement), so only P1, P6 and -P7 need
// C-shaped temporaries: 4 + 4 + 3 buffers.  The U-chain is
// kWinogradLowMemSteps' (+ is commutative, so every element matches the serial
// schedule's bits).  Each operand feeds exactly one product and is never read
// after the group, so the products may consume their operands: the table runs
// above every family, Kreczmar's destructive one included.
inline constexpr Op S1 = Op::kTS0, S2 = Op::kTS1, S3 = Op::kTS2,
                    S4 = Op::kTS3;
inline constexpr Op T1 = Op::kTT0, T2 = Op::kTT1, T3 = Op::kTT2,
                    T4 = Op::kTT3;
inline constexpr Op P1 = Op::kTP0, P6 = Op::kTP1, P7 = Op::kTP2;
inline constexpr Step kWinogradSpawnSteps[] = {
    sub(S3, A11, A21, "S3"),
    sub(T3, B22, B12, "T3"),
    add(S1, A21, A22, "S1"),
    sub(T1, B12, B11, "T1"),
    sub(S2, S1, A11, "S2"),
    sub(T2, B22, T1, "T2"),
    sub(S4, A12, S2, "S4"),
    sub(T4, T2, B21, "-T4"),            // T4 = T2 - B21
    forked(mul(P1, A11, B11, "P1")),
    forked(mul(C11, A12, B21, "P2")),
    forked(mul(P6, S4, B22, "P6")),
    forked(mul(P7, A22, T4, "-P7")),    // A22 . (T2 - B21)
    forked(mul(C22, S1, T1, "P3")),
    forked(mul(C12, S2, T2, "P4")),
    forked(mul(C21, S3, T3, "P5")),
    add_ip(C12, P1, "U2"),              // C12 = P4 + P1
    add_ip(C21, C12, "U3"),             // C21 = P5 + U2
    add_ip(C12, C22, "U6"),             // C12 = U2 + P3
    add_ip(C22, C21, "U5"),             // C22 = P3 + U3       [final C22]
    sub_ip(C21, P7, "U4"),              // C21 = U3 + P7       [final C21]
    add_ip(C12, P6, "U7"),              // C12 = U6 + P6       [final C12]
    add_ip(C11, P1, "U1"),              // C11 = P2 + P1       [final C11]
};

inline constexpr Operand kWinogradSpawnTemps[] = {S1, S2, S3, S4, T1, T2,
                                                  T3, T4, P1, P6, P7};

}  // namespace detail

// A Schedule over static step/temporary arrays, counts deduced.
template <int N, int M>
constexpr Schedule make_schedule(const char* name, const Step (&steps)[N],
                                 const Operand (&temps)[M], int temp_peak,
                                 const std::int8_t* buffers = kOwnTempBuffers) {
  return Schedule{name, steps, N, temps, M, temp_peak, false, buffers};
}

// The production Winograd schedule (ScheduleFamily::kLowMem, every level of
// every product the budget does not move to Kreczmar's): tS and tP share one
// arena buffer, proved disjoint-liveness by the verifier.
inline constexpr Schedule kWinogradLowMem = make_schedule(
    "winograd-lowmem", detail::kWinogradLowMemSteps,
    detail::kWinogradLowMemTemps, 2, detail::kWinogradLowMemBuffers);

// Kreczmar's schedule (ScheduleFamily::kInPlace, every level): overwrites
// the Morton A/B copies and declares no temporaries.
inline constexpr Schedule kKreczmar{
    "kreczmar", detail::kKreczmarSteps,
    static_cast<int>(std::size(detail::kKreczmarSteps)), nullptr, 0, 0,
    /*overwrites_inputs=*/true};

// The parallel spawn level: one concurrent group of 7 products over 11
// dedicated temporaries (core::detail::fork_recurse).
inline constexpr Schedule kWinogradSpawn =
    make_schedule("winograd-spawn", detail::kWinogradSpawnSteps,
                  detail::kWinogradSpawnTemps, 11);

// All shipped schedules, for the verifier CLI and tests.
inline constexpr const Schedule* kShippedSchedules[] = {
    &kWinogradLowMem, &kKreczmar, &kWinogradSpawn};
inline constexpr int kShippedScheduleCount = 3;

// ---- table selection ------------------------------------------------------

// The one rule mapping a family to the table every serial level runs,
// shared by both execution strategies and by the workspace sizing: the
// in-place family runs Kreczmar's table, every other product the 2-buffer
// table, on every kernel.
constexpr const Schedule& level_schedule(ScheduleFamily f) {
  return f == ScheduleFamily::kInPlace ? kKreczmar : kWinogradLowMem;
}

}  // namespace strassen::analysis
