// Tests for the symbolic schedule verifier (src/analysis) and for the
// bit-identity contract of the table-driven recursion (src/core/winograd.hpp).
//
// The negative suite mutates the shipped Winograd table one defect at a time
// -- wrong sign, swapped operands, use of a clobbered value, a dead store, a
// schedule needing a fourth temporary -- and asserts the verifier rejects
// each with a step-precise diagnostic.  The bit-identity suite replays the
// seed library's hard-coded call sequence (embedded below) and compares
// every output element with == against the table interpreter, under both the
// default kernel table and the scalar pin.
#include <gtest/gtest.h>

#include <cstring>
#include <stdexcept>
#include <string>
#include <vector>

#include "analysis/schedule.hpp"
#include "analysis/schedule_verify.hpp"
#include "baselines/strassen_classic.hpp"
#include "blas/kernels.hpp"
#include "blas/kernels/registry.hpp"
#include "blas/level1.hpp"
#include "common/arena.hpp"
#include "common/matrix.hpp"
#include "common/rng.hpp"
#include "core/winograd.hpp"
#include "core/workspace.hpp"

namespace strassen::analysis {
namespace {

using Op = Operand;
inline constexpr Op A11 = Op::kA11, A12 = Op::kA12, A21 = Op::kA21,
                    A22 = Op::kA22;
inline constexpr Op B11 = Op::kB11, B21 = Op::kB21, B22 = Op::kB22;
inline constexpr Op C11 = Op::kC11;
inline constexpr Op tS = Op::kTS0, tT = Op::kTT0, tP = Op::kTP0,
                    tP1 = Op::kTP1;

// A mutable copy of a schedule whose step/temp storage the test owns.
struct TestSchedule {
  std::vector<Step> steps;
  std::vector<Op> temps;
  Schedule sched;

  explicit TestSchedule(const Schedule& base)
      : steps(base.steps, base.steps + base.step_count),
        temps(base.temps, base.temps + base.temp_count),
        sched(base) {
    refresh();
  }

  // Re-point the Schedule at the (possibly resized) vectors.
  void refresh() {
    sched.steps = steps.data();
    sched.step_count = static_cast<int>(steps.size());
    sched.temps = temps.data();
    sched.temp_count = static_cast<int>(temps.size());
  }
};

std::string joined(const std::vector<std::string>& errors) {
  std::string all;
  for (const std::string& e : errors) all += e + "\n";
  return all;
}

bool any_error_contains(const std::vector<std::string>& errors,
                        const std::string& needle) {
  for (const std::string& e : errors)
    if (e.find(needle) != std::string::npos) return true;
  return false;
}

// ---- positive verification ------------------------------------------------

TEST(ScheduleVerify, ShippedMaterializedTableVerifies) {
  // Every shipped table is the paper's 7 products and 15 additions, with the
  // live-temporary peak it declares.
  for (int i = 0; i < kShippedScheduleCount; ++i) {
    const Schedule& sched = *kShippedSchedules[i];
    SCOPED_TRACE(sched.name);
    const VerifyResult r = verify_schedule(sched);
    EXPECT_TRUE(r.ok) << joined(r.errors);
    EXPECT_EQ(r.temp_peak, sched.declared_temp_peak);
    EXPECT_EQ(r.products, 7);
    EXPECT_EQ(r.linear_ops, 15);
  }
}

TEST(ScheduleVerify, ConstexprCoreAgreesWithRuntimeLayer) {
  // The library TU static_asserts these; re-check here so a test run alone
  // (without rebuilding the library) still exercises the constexpr core.
  static_assert(verify_core(kWinogradLowMem).violation == Violation::kNone);
  constexpr CoreResult c = verify_core(kWinogradLowMem);
  const VerifyResult r = verify_schedule(kWinogradLowMem);
  EXPECT_EQ(c.temp_peak, r.temp_peak);
  EXPECT_EQ(c.products, r.products);
  EXPECT_EQ(c.linear_ops, r.linear_ops);
}

// ---- negative suite: one defect per mutation ------------------------------

TEST(ScheduleVerifyNegative, WrongSignRejected) {
  // Flip T3 (step 1) from B22 - B12 to B22 + B12: P5 picks up the wrong
  // bilinear form, so C21 and C22 miss their targets.
  TestSchedule t(kWinogradLowMem);
  ASSERT_STREQ(t.steps[1].note, "T3");
  t.steps[1] = add(tT, B22, Op::kB12, "T3");
  const VerifyResult r = verify_schedule(t.sched);
  EXPECT_FALSE(r.ok);
  EXPECT_TRUE(any_error_contains(r.errors, "C21")) << joined(r.errors);
  EXPECT_TRUE(any_error_contains(r.errors, "C22")) << joined(r.errors);
  EXPECT_EQ(verify_core(t.sched).violation, Violation::kProductIdentity);
}

TEST(ScheduleVerifyNegative, SwappedOperandsRejected) {
  // Swap S3 (step 0) to A21 - A11: P5 flips sign and the U-chain breaks.
  TestSchedule t(kWinogradLowMem);
  ASSERT_STREQ(t.steps[0].note, "S3");
  t.steps[0] = sub(tS, A21, A11, "S3");
  const VerifyResult r = verify_schedule(t.sched);
  EXPECT_FALSE(r.ok);
  EXPECT_TRUE(any_error_contains(r.errors, "C21")) << joined(r.errors);
  const CoreResult c = verify_core(t.sched);
  EXPECT_EQ(c.violation, Violation::kProductIdentity);
}

TEST(ScheduleVerifyNegative, UseBeforeDefinitionRejected) {
  // Swap P1 (step 11) with U2 (step 12): U2 now reads tP before any step
  // defined it -- the classic use-after-reorder defect.
  TestSchedule t(kWinogradLowMem);
  ASSERT_STREQ(t.steps[11].note, "P1");
  ASSERT_STREQ(t.steps[12].note, "U2");
  std::swap(t.steps[11], t.steps[12]);
  const VerifyResult r = verify_schedule(t.sched);
  EXPECT_FALSE(r.ok);
  EXPECT_TRUE(any_error_contains(r.errors, "step 11")) << joined(r.errors);
  EXPECT_TRUE(any_error_contains(r.errors, "tP")) << joined(r.errors);
  const CoreResult c = verify_core(t.sched);
  EXPECT_EQ(c.violation, Violation::kReadUndefined);
  EXPECT_EQ(c.step, 11);
  EXPECT_EQ(c.operand, tP);
}

TEST(ScheduleVerifyNegative, ClobberedLiveValueRejectedAsDeadStore) {
  // Insert a second write to tP right after P1 (step 11): the first P1 value
  // is clobbered before U2 can read it, so the store at step 11 is dead.
  TestSchedule t(kWinogradLowMem);
  ASSERT_STREQ(t.steps[11].note, "P1");
  t.steps.insert(t.steps.begin() + 12, mul(tP, A11, B11, "P1-clobber"));
  t.refresh();
  const VerifyResult r = verify_schedule(t.sched);
  EXPECT_FALSE(r.ok);
  EXPECT_TRUE(any_error_contains(r.errors, "step 11")) << joined(r.errors);
  EXPECT_TRUE(any_error_contains(r.errors, "never read")) << joined(r.errors);
  const CoreResult c = verify_core(t.sched);
  EXPECT_EQ(c.violation, Violation::kDeadStore);
  EXPECT_EQ(c.step, 11);
  EXPECT_EQ(c.operand, tP);
}

// A 4-temporary variant: compute P1 and P2 up front, each into its own
// C-shaped temporary, and form C11 = P1 + P2 at the end, instead of reusing
// C11 as scratch.  Algebraically correct -- but four temporaries (each in
// its own buffer) are live at once.
TestSchedule four_temp_variant() {
  TestSchedule t(kWinogradLowMem);
  EXPECT_EQ(t.steps.size(), 22u);
  EXPECT_STREQ(t.steps[11].note, "P1");
  t.steps.erase(t.steps.begin() + 11);
  // Drop the tail that computed P2 into C11 and added P1 (old steps 20/21).
  t.steps.resize(19);
  t.steps.insert(t.steps.begin(), {mul(tP, A11, B11, "P1"),
                                   mul(tP1, A12, B21, "P2")});
  t.steps.push_back(add(C11, tP, tP1, "U1"));
  t.temps = {tS, tT, tP, tP1};
  t.refresh();
  t.sched.temp_buffer = kOwnTempBuffers;
  return t;
}

TEST(ScheduleVerifyNegative, UnderdeclaredTempPeakRejected) {
  TestSchedule t = four_temp_variant();
  t.sched.declared_temp_peak = 3;  // lie: the real peak is 4
  const VerifyResult r = verify_schedule(t.sched);
  EXPECT_FALSE(r.ok);
  EXPECT_TRUE(any_error_contains(r.errors, "live-temporary peak is 4"))
      << joined(r.errors);
  EXPECT_EQ(verify_core(t.sched).violation, Violation::kTempPeakMismatch);
}

TEST(ScheduleVerifyNegative, FourTempScheduleVerifiesWithHonestBound) {
  // The same table with an honest declaration passes: the verifier measures
  // and reports the peak of any schedule, it does not hard-code 3.
  TestSchedule t = four_temp_variant();
  t.sched.declared_temp_peak = 4;
  const VerifyResult r = verify_schedule(t.sched);
  EXPECT_TRUE(r.ok) << joined(r.errors);
  EXPECT_EQ(r.temp_peak, 4);
  EXPECT_EQ(r.products, 7);
}

TEST(ScheduleVerifyNegative, WriteToInputRejected) {
  TestSchedule t(kWinogradLowMem);
  t.steps[0] = sub(A11, A11, A21, "S3");
  const VerifyResult r = verify_schedule(t.sched);
  EXPECT_FALSE(r.ok);
  EXPECT_TRUE(any_error_contains(r.errors, "A11")) << joined(r.errors);
  const CoreResult c = verify_core(t.sched);
  EXPECT_EQ(c.violation, Violation::kWriteToInput);
  EXPECT_EQ(c.step, 0);
}

TEST(ScheduleVerifyNegative, UndeclaredTemporaryRejected) {
  TestSchedule t(kWinogradLowMem);
  t.temps = {tS, tT};  // tP used by P1/U1 but no longer declared
  t.refresh();
  const VerifyResult r = verify_schedule(t.sched);
  EXPECT_FALSE(r.ok);
  EXPECT_TRUE(any_error_contains(r.errors, "tP")) << joined(r.errors);
  EXPECT_EQ(verify_core(t.sched).violation, Violation::kUndeclaredTemp);
}

TEST(ScheduleVerifyNegative, EmptyScheduleRejected) {
  Schedule empty = kWinogradLowMem;
  empty.steps = nullptr;
  empty.step_count = 0;
  const VerifyResult r = verify_schedule(empty);
  EXPECT_FALSE(r.ok);
  EXPECT_EQ(verify_core(empty).violation, Violation::kEmptySchedule);
}

// ---- the low-memory schedule family ---------------------------------------

TEST(ScheduleVerifyFamily, ShippedLowMemTableVerifies) {
  const VerifyResult r = verify_schedule(kWinogradLowMem);
  EXPECT_TRUE(r.ok) << joined(r.errors);
  EXPECT_EQ(r.temp_peak, 2);
  EXPECT_EQ(r.products, 7);
  EXPECT_EQ(r.linear_ops, 15);
  EXPECT_EQ(temp_buffer_count(kWinogradLowMem), 2);
}

TEST(ScheduleVerifyFamily, ShippedInPlaceTableVerifies) {
  // Kreczmar's table: no temporaries, every product consuming its operands.
  const VerifyResult r = verify_schedule(kKreczmar);
  EXPECT_TRUE(r.ok) << joined(r.errors);
  EXPECT_EQ(r.temp_peak, 0);
  EXPECT_EQ(r.products, 7);
  EXPECT_EQ(r.linear_ops, 15);
  EXPECT_TRUE(products_consume(kKreczmar));
}

TEST(ScheduleVerifyFamily, ConstexprCoreProvesFamilyTables) {
  static_assert(verify_core(kWinogradLowMem).violation == Violation::kNone);
  static_assert(verify_core(kKreczmar).violation == Violation::kNone);
}

TEST(ScheduleVerifyNegative, InPlaceReadAfterClobberRejected) {
  // Move U1 (C11 += P2, step 16) before U2 (C12 = C11 + P4, step 15, which
  // still needs C11 to hold P1): the in-place family's whole safety
  // argument is step ordering around the quadrant clobbers, and the
  // verifier must see the sums that now read the wrong value.  C11 = P1 +
  // P2 stays correct; C12 (via U2) is the first quadrant whose identity
  // breaks.
  TestSchedule t(kKreczmar);
  ASSERT_STREQ(t.steps[16].note, "U1");
  ASSERT_STREQ(t.steps[15].note, "U2");
  std::swap(t.steps[15], t.steps[16]);
  const VerifyResult r = verify_schedule(t.sched);
  EXPECT_FALSE(r.ok);
  EXPECT_TRUE(any_error_contains(r.errors, "C12")) << joined(r.errors);
  const CoreResult c = verify_core(t.sched);
  EXPECT_EQ(c.violation, Violation::kProductIdentity);
  EXPECT_EQ(c.operand, Op::kC12);
}

TEST(ScheduleVerifyNegative, InPlaceTableWithoutFlagRejected) {
  // The same steps without the overwrites_inputs declaration: the first
  // quadrant clobber (S3 into B12, step 3) is a write-to-input violation.
  TestSchedule t(kKreczmar);
  t.sched.overwrites_inputs = false;
  const VerifyResult r = verify_schedule(t.sched);
  EXPECT_FALSE(r.ok);
  EXPECT_TRUE(any_error_contains(r.errors, "writes input quadrant B12"))
      << joined(r.errors);
  const CoreResult c = verify_core(t.sched);
  EXPECT_EQ(c.violation, Violation::kWriteToInput);
  EXPECT_EQ(c.step, 3);
  EXPECT_EQ(c.operand, Op::kB12);
}

TEST(ScheduleVerifyNegative, InPlaceReadAfterConsumeRejected) {
  // Move S2 (A21 <- C21 - A11, step 6) after P3 (step 7), whose recursive
  // product consumes C21 (S1) and C11 (T1).  The sum is still algebraically
  // right, but C21 no longer holds a value when S2 reads it.
  TestSchedule t(kKreczmar);
  ASSERT_STREQ(t.steps[6].note, "S2");
  ASSERT_STREQ(t.steps[7].note, "P3");
  std::swap(t.steps[6], t.steps[7]);
  const VerifyResult r = verify_schedule(t.sched);
  EXPECT_FALSE(r.ok);
  EXPECT_TRUE(any_error_contains(r.errors, "step 7 (S2): reads C21"))
      << joined(r.errors);
  const CoreResult c = verify_core(t.sched);
  EXPECT_EQ(c.violation, Violation::kReadUndefined);
  EXPECT_EQ(c.step, 7);
  EXPECT_EQ(c.operand, Op::kC21);
}

TEST(ScheduleVerifyNegative, SharedBufferOverlapRejected) {
  // Move P1 (step 11) before S4 (step 9): algebraically nothing changes --
  // tS and tP are distinct slots -- but tP is now born while tS is still
  // live, and the low-mem table maps both onto ONE arena buffer.  With an
  // honest 3-temporary declaration the stale buffer mapping is the lie the
  // verifier must catch.
  TestSchedule t(kWinogradLowMem);
  ASSERT_STREQ(t.steps[11].note, "P1");
  ASSERT_STREQ(t.steps[9].note, "S4");
  const Step p1 = t.steps[11];
  t.steps.erase(t.steps.begin() + 11);
  t.steps.insert(t.steps.begin() + 9, p1);
  t.refresh();
  t.sched.declared_temp_peak = 3;  // honest: the reorder raised the peak
  const VerifyResult r = verify_schedule(t.sched);
  EXPECT_FALSE(r.ok);
  EXPECT_TRUE(any_error_contains(r.errors, "shares an arena buffer"))
      << joined(r.errors);
  const CoreResult c = verify_core(t.sched);
  EXPECT_EQ(c.violation, Violation::kSharedTempOverlap);
  EXPECT_EQ(c.step, 10);  // first point with both tS and tP live
  EXPECT_EQ(c.operand, tP);
}

TEST(ScheduleVerifyNegative, BadTempBufferIdRejected) {
  TestSchedule t(kWinogradLowMem);
  static constexpr std::int8_t kBad[] = {0, 1, 3};  // id 3 out of range
  t.sched.temp_buffer = kBad;
  const VerifyResult r = verify_schedule(t.sched);
  EXPECT_FALSE(r.ok);
  EXPECT_EQ(verify_core(t.sched).violation, Violation::kBadTempBuffer);
}

// ---- the parallel spawn table: one concurrent product group ---------------

TEST(ScheduleVerifyFamily, ShippedSpawnTableVerifies) {
  const VerifyResult r = verify_schedule(kWinogradSpawn);
  EXPECT_TRUE(r.ok) << joined(r.errors);
  EXPECT_EQ(r.products, 7);
  EXPECT_EQ(r.linear_ops, 15);
  // 8 operand sums + 3 product temporaries, all live while the group runs.
  EXPECT_EQ(r.temp_peak, 11);
  EXPECT_EQ(temp_buffer_count(kWinogradSpawn), 11);
  int grouped = 0;
  for (int i = 0; i < kWinogradSpawn.step_count; ++i)
    if (kWinogradSpawn.steps[i].concurrent) {
      EXPECT_EQ(kWinogradSpawn.steps[i].kind, StepKind::kMul);
      ++grouped;
    }
  EXPECT_EQ(grouped, 7);
}

TEST(ScheduleVerifyNegative, SpawnGroupCountsEveryOperandLive) {
  // Sequentially the group would peak lower; run concurrently, all 8 sums
  // and all 3 product temporaries coexist.  Declaring less is rejected.
  TestSchedule t(kWinogradSpawn);
  t.sched.declared_temp_peak = 10;
  EXPECT_EQ(verify_core(t.sched).violation, Violation::kTempPeakMismatch);
  EXPECT_TRUE(any_error_contains(verify_schedule(t.sched).errors,
                                 "live-temporary peak is 11"));
}

TEST(ScheduleVerifyNegative, SpawnMemberReadingSiblingDestinationRejected) {
  // P6 reading C12 -- which its sibling P4 writes in the same group -- is a
  // race whatever the order the executor picks.
  TestSchedule t(kWinogradSpawn);
  ASSERT_STREQ(t.steps[10].note, "P6");
  ASSERT_STREQ(t.steps[13].note, "P4");
  t.steps[10].a0 = Op::kC12;
  const CoreResult c = verify_core(t.sched);
  EXPECT_EQ(c.violation, Violation::kGroupReadConflict);
  EXPECT_EQ(c.step, 10);
  EXPECT_EQ(c.operand, Op::kC12);
  const VerifyResult r = verify_schedule(t.sched);
  EXPECT_FALSE(r.ok);
  EXPECT_TRUE(any_error_contains(r.errors, "group-read-conflict on C12"))
      << joined(r.errors);
}

TEST(ScheduleVerifyNegative, SpawnMembersWritingOneBufferRejected) {
  // P6 redirected into P1's temporary: two concurrent writers.
  TestSchedule t(kWinogradSpawn);
  ASSERT_STREQ(t.steps[8].note, "P1");
  t.steps[10].dst = t.steps[8].dst;
  const CoreResult c = verify_core(t.sched);
  EXPECT_EQ(c.violation, Violation::kGroupWriteConflict);
  EXPECT_EQ(c.step, 10);
  EXPECT_EQ(c.operand, tP);
  EXPECT_TRUE(any_error_contains(verify_schedule(t.sched).errors,
                                 "group-write-conflict on tP"));
}

TEST(ScheduleVerifyNegative, SpawnMemberReadingSharedBufferRejected) {
  // S4 (temps[3], read by P6) mapped onto the arena buffer of P1's
  // destination (temps[8]): distinct slots, one storage -- P1 would
  // overwrite S4 while P6 still reads it.
  TestSchedule t(kWinogradSpawn);
  ASSERT_EQ(t.temps[3], Op::kTS3);
  ASSERT_EQ(t.temps[8], Op::kTP0);
  static constexpr std::int8_t kShared[] = {0, 1, 2, 8, 4, 5, 6, 7, 8, 9, 10};
  t.sched.temp_buffer = kShared;
  const CoreResult c = verify_core(t.sched);
  EXPECT_EQ(c.violation, Violation::kGroupReadConflict);
  EXPECT_EQ(c.step, 10);
  EXPECT_EQ(c.operand, Op::kTS3);
  EXPECT_FALSE(verify_schedule(t.sched).ok);
}

TEST(ScheduleVerifyNegative, SpawnMembersSharingAnOperandRejected) {
  // P3 reading S2, which its sibling P4 also reads: a member's product may
  // consume its operands, so two members sharing one is a write conflict
  // whatever the order the executor picks.
  TestSchedule t(kWinogradSpawn);
  ASSERT_STREQ(t.steps[12].note, "P3");
  ASSERT_STREQ(t.steps[13].note, "P4");
  t.steps[12].a0 = t.steps[13].a0;
  const CoreResult c = verify_core(t.sched);
  EXPECT_EQ(c.violation, Violation::kGroupWriteConflict);
  EXPECT_EQ(c.step, 13);
  EXPECT_EQ(c.operand, Op::kTS1);
  EXPECT_TRUE(any_error_contains(verify_schedule(t.sched).errors,
                                 "group-write-conflict on tS'"));
}

TEST(ScheduleVerifyNegative, ElementwiseStepInGroupRejected) {
  TestSchedule t(kWinogradSpawn);
  t.steps[7].concurrent = true;  // -T4 joins the product group
  EXPECT_EQ(verify_core(t.sched).violation, Violation::kGroupNonProduct);
}

}  // namespace
}  // namespace strassen::analysis

// ---- bit-identity of the table interpreter vs the seed call sequence ------

namespace strassen::core {
namespace {

// The seed library's hard-coded recursion -- the paper's 3-temporary
// sequence -- embedded verbatim (modulo the function name) except for its
// fused level-1 branch: the fused kernels are bit-identical to a
// materialized sum followed by a plain leaf (KernelBitExactness), so this
// materialized sequence fixes the same bits.  The table interpreter, which
// runs the same expressions in the 2-buffer order, must reproduce it -- and
// therefore every output bit -- exactly, on every kernel table.
template <class MM, class T>
void seed_winograd_recurse(MM& mm, T* C, const T* A, const T* B, int tm,
                           int tk, int tn, int depth, Arena& arena) {
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
  T* tS = arena.push<T>(qa);
  T* tT = arena.push<T>(qb);
  T* tP = arena.push<T>(qc);

  auto mul = [&](T* dst, const T* a, const T* b) {
    seed_winograd_recurse(mm, dst, a, b, tm, tk, tn, d1, arena);
  };

  blas::vsub(mm, qa, tS, A11, A21);   // S3
  blas::vsub(mm, qb, tT, B22, B12);   // T3
  mul(C21, tS, tT);                   // P5 = S3.T3
  blas::vadd(mm, qa, tS, A21, A22);   // S1
  blas::vsub(mm, qb, tT, B12, B11);   // T1
  mul(C22, tS, tT);                   // P3 = S1.T1
  blas::vsub_inplace(mm, qa, tS, A11);  // S2 = S1 - A11
  blas::vsub(mm, qb, tT, B22, tT);      // T2 = B22 - T1
  mul(C12, tS, tT);                     // P4 = S2.T2
  blas::vsub(mm, qa, tS, A12, tS);      // S4 = A12 - S2
  blas::vsub_inplace(mm, qb, tT, B21);  // -T4 = T2 - B21
  mul(tP, A11, B11);                    // P1
  blas::vadd_inplace(mm, qc, C12, tP);  // U2 = P1 + P4
  blas::vadd_inplace(mm, qc, C21, C12); // U3 = U2 + P5
  blas::vadd_inplace(mm, qc, C12, C22); // U6 = U2 + P3
  blas::vadd_inplace(mm, qc, C22, C21); // final C22 = U3 + P3
  mul(C11, A22, tT);                    // -P7 = A22.(T2 - B21)
  blas::vsub_inplace(mm, qc, C21, C11); // final C21 = U3 + P7
  mul(C11, tS, B22);                    // P6 = S4.B22
  blas::vadd_inplace(mm, qc, C12, C11); // final C12 = U6 + P6
  mul(C11, A12, B21);                   // P2
  blas::vadd_inplace(mm, qc, C11, tP);  // final C11 = P1 + P2
}

// Arena bytes seed_winograd_recurse pushes: an A-, a B- and a C-quadrant
// temporary at every level, exactly as the classic-Strassen baseline.
std::size_t seed_workspace_bytes(int tm, int tk, int tn, int depth) {
  return baselines::detail::classic_workspace_bytes(tm, tk, tn, depth,
                                                    sizeof(double));
}

// Real-valued (non-integer) operands so any reordering or re-association in
// the interpreter would change rounding and break the == comparison.
void expect_bit_identical(int tm, int tk, int tn, int depth,
                          std::uint64_t seed) {
  const int m = tm << depth, k = tk << depth, n = tn << depth;
  Rng rng(seed);
  std::vector<double> Am(static_cast<std::size_t>(m) * k);
  std::vector<double> Bm(static_cast<std::size_t>(k) * n);
  std::vector<double> Cseed(static_cast<std::size_t>(m) * n, -1.0);
  std::vector<double> Ctable(static_cast<std::size_t>(m) * n, -2.0);
  rng.fill_uniform(Am);
  rng.fill_uniform(Bm);

  RawMem mm;
  {
    Arena arena(seed_workspace_bytes(tm, tk, tn, depth));
    seed_winograd_recurse(mm, Cseed.data(), Am.data(), Bm.data(), tm, tk, tn,
                          depth, arena);
  }
  {
    Arena arena(winograd_workspace_bytes(tm, tk, tn, depth, sizeof(double)));
    winograd_recurse(mm, Ctable.data(), Am.data(), Bm.data(), tm, tk, tn,
                     depth, arena);
  }
  EXPECT_EQ(std::memcmp(Cseed.data(), Ctable.data(),
                        Cseed.size() * sizeof(double)),
            0)
      << "tm=" << tm << " tk=" << tk << " tn=" << tn << " depth=" << depth
      << " kernel=" << blas::kernels::kind_name(blas::kernels::active_kernel());
}

TEST(ScheduleBitIdentity, TableMatchesSeedSequenceDefaultKernel) {
  expect_bit_identical(4, 4, 4, 1, 11);
  expect_bit_identical(3, 5, 7, 2, 12);
  expect_bit_identical(8, 6, 4, 3, 13);
}

TEST(ScheduleBitIdentity, TableMatchesSeedSequenceScalarPin) {
  blas::kernels::ScopedKernel pin(blas::kernels::Kind::kScalar);
  expect_bit_identical(4, 4, 4, 1, 21);
  expect_bit_identical(3, 5, 7, 2, 22);
  expect_bit_identical(8, 6, 4, 3, 23);
}

// ---- Kreczmar's table against the seed recursion ---------------------------

// Kreczmar's in-place table (ScheduleBitIdentity covers the default 2-buffer
// one) computes the seed's expressions in the seed's order of additions, so
// it matches the seed bit for bit on real-valued data, and exactly on small
// integers.  It destroys the operand copies it is given and needs square
// tiles.
void expect_inplace_bit_identical(int tm, int tk, int tn, int depth,
                                  std::uint64_t seed, bool integers) {
  using analysis::ScheduleFamily;
  const int m = tm << depth, k = tk << depth, n = tn << depth;
  Rng rng(seed);
  std::vector<double> Am(static_cast<std::size_t>(m) * k);
  std::vector<double> Bm(static_cast<std::size_t>(k) * n);
  if (integers) {
    rng.fill_int(Am, -3, 3);
    rng.fill_int(Bm, -3, 3);
  } else {
    rng.fill_uniform(Am);
    rng.fill_uniform(Bm);
  }
  std::vector<double> Cref(static_cast<std::size_t>(m) * n, 0.0);
  RawMem mm;
  {
    Arena arena(seed_workspace_bytes(tm, tk, tn, depth));
    seed_winograd_recurse(mm, Cref.data(), Am.data(), Bm.data(), tm, tk, tn,
                          depth, arena);
  }
  std::vector<double> C(Cref.size(), -1.0), Ac = Am, Bc = Bm;
  Arena arena(winograd_workspace_bytes(tm, tk, tn, depth, sizeof(double),
                                       ScheduleFamily::kInPlace));
  auto run = [&] {
    winograd_recurse(mm, C.data(), Ac.data(), Bc.data(), tm, tk, tn, depth,
                     arena, ScheduleFamily::kInPlace);
  };
  if (tm != tk || tk != tn) {
    EXPECT_THROW(run(), std::invalid_argument);
    return;
  }
  EXPECT_EQ(winograd_workspace_bytes(tm, tk, tn, depth, sizeof(double),
                                     ScheduleFamily::kInPlace),
            0u);
  run();
  EXPECT_EQ(std::memcmp(C.data(), Cref.data(), C.size() * sizeof(double)), 0)
      << "tm=" << tm << " tk=" << tk << " tn=" << tn << " depth=" << depth
      << (integers ? " (integers)" : " (real-valued)");
}

TEST(ScheduleFamilies, FamilyEntryPointsExactOnIntegers) {
  for (const bool integers : {true, false}) {
    expect_inplace_bit_identical(4, 4, 4, 1, 41, integers);
    expect_inplace_bit_identical(3, 5, 7, 2, 42, integers);
    expect_inplace_bit_identical(8, 6, 4, 3, 43, integers);
    expect_inplace_bit_identical(6, 6, 6, 3, 44, integers);
  }
}

}  // namespace
}  // namespace strassen::core
