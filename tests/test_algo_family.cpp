// Tests for the <m,k,n> algorithm-family engine: the coefficient tables
// (analysis/algo_family.hpp), their symbolic prover
// (analysis/algo_verify.hpp), the one-level interpreter (core/family.hpp)
// reached through the public driver pin, the STRASSEN_ALGO resolution
// ladder, and the <2,2,2> bit-identity contract -- forcing the table that
// mirrors the Winograd schedule must not change a single output bit
// relative to the seed path.
//
// The negative suite mutates a shipped table one defect at a time (wrong
// coefficient sign, corrupted C-accumulation row, under-declared staging
// peak, dead product) and asserts both prover layers reject it with the
// documented violation kind and a step-precise message.
#include <gtest/gtest.h>

#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "analysis/algo_family.hpp"
#include "analysis/algo_verify.hpp"
#include "blas/gemm.hpp"
#include "blas/kernels/registry.hpp"
#include "common/matrix.hpp"
#include "common/rng.hpp"
#include "core/modgemm.hpp"
#include "obs/report.hpp"

namespace strassen {
namespace {

using analysis::AlgoFamily;
using analysis::FamilyCoreResult;
using analysis::FamilyTable;
using analysis::FamilyViolation;

class ScopedEnv {
 public:
  ScopedEnv(const char* name, const char* value) : name_(name) {
    const char* old = std::getenv(name);
    had_ = old != nullptr;
    if (had_) saved_ = old;
    if (value != nullptr)
      ::setenv(name, value, 1);
    else
      ::unsetenv(name);
  }
  ~ScopedEnv() {
    if (had_)
      ::setenv(name_, saved_.c_str(), 1);
    else
      ::unsetenv(name_);
  }

 private:
  const char* name_;
  bool had_ = false;
  std::string saved_;
};

bool any_error_contains(const std::vector<std::string>& errors,
                        const std::string& needle) {
  for (const std::string& e : errors)
    if (e.find(needle) != std::string::npos) return true;
  return false;
}

std::string joined(const std::vector<std::string>& errors) {
  std::string all;
  for (const std::string& e : errors) all += e + "\n";
  return all;
}

// A mutable deep copy of a FamilyTable whose coefficient storage the test
// owns, so a defect can be injected without touching the shipped constexpr
// arrays.
struct TestTable {
  std::vector<std::int8_t> a, b, c;
  FamilyTable t;

  explicit TestTable(const FamilyTable& base)
      : a(base.a, base.a + base.rank * base.bm * base.bk),
        b(base.b, base.b + base.rank * base.bk * base.bn),
        c(base.c, base.c + base.bm * base.bn * base.rank),
        t(base) {
    t.a = a.data();
    t.b = b.data();
    t.c = c.data();
  }
};

// ---- oracle: every shipped table, edge shapes, ops, scalars, strides ------

struct Shape {
  int m, k, n;
};

void run_oracle(AlgoFamily algo, const Shape& s, Op opa, Op opb, double alpha,
                double beta, int pad) {
  const int ar = opa == Op::NoTrans ? s.m : s.k;
  const int ac = opa == Op::NoTrans ? s.k : s.m;
  const int br = opb == Op::NoTrans ? s.k : s.n;
  const int bc = opb == Op::NoTrans ? s.n : s.k;
  // Over-tall storage exercises the strided (lda > rows) access paths.
  Matrix<double> A(ar + pad, ac), B(br + pad, bc), C(s.m + pad, s.n),
      ref(s.m + pad, s.n);
  Rng rng(static_cast<std::uint64_t>(s.m) * 1009 + s.k * 31 + s.n * 7 +
          static_cast<int>(algo));
  rng.fill_uniform(A.storage());
  rng.fill_uniform(B.storage());
  rng.fill_uniform(C.storage());
  std::memcpy(ref.data(), C.data(),
              sizeof(double) * ref.storage().size());

  blas::naive_gemm(opa, opb, s.m, s.n, s.k, alpha, A.data(), A.ld(), B.data(),
                   B.ld(), beta, ref.data(), ref.ld());

  core::ModgemmOptions opt;
  opt.algo = algo;
  // Force recursion below the family level so the sub-products exercise the
  // real <2,2,2> engine, not just the direct leaf.
  opt.tiles.direct_threshold = 16;
  opt.tiles.min_tile = 8;
  opt.tiles.preferred_tile = 16;
  core::modgemm(opa, opb, s.m, s.n, s.k, alpha, A.data(), A.ld(), B.data(),
                B.ld(), beta, C.data(), C.ld(), opt);

  const double tol = 1e-9 * std::max(1, s.k);
  for (int j = 0; j < s.n; ++j)
    for (int i = 0; i < s.m; ++i)
      ASSERT_NEAR(C.at(i, j), ref.at(i, j), tol)
          << "algo=" << analysis::algo_name(algo) << " shape=" << s.m << "x"
          << s.k << "x" << s.n << " op=" << static_cast<int>(opa)
          << static_cast<int>(opb) << " at (" << i << "," << j << ")";
}

TEST(AlgoFamilyOracle, EveryTableMatchesNaiveOnEdgeShapes) {
  // Tiny (below every block grid), prime, one-partition-short, and shapes
  // matching each table's grid exactly.
  const Shape shapes[] = {{1, 1, 1},   {2, 3, 4},   {3, 2, 3},  {5, 7, 9},
                          {17, 1, 9},  {1, 23, 1},  {37, 53, 41},
                          {48, 36, 60}, {64, 64, 64}};
  for (const AlgoFamily algo : analysis::kShippedAlgoFamilies)
    for (const Shape& s : shapes)
      run_oracle(algo, s, Op::NoTrans, Op::NoTrans, 1.0, 0.0, 3);
}

TEST(AlgoFamilyOracle, TransposesScalarsAndStrides) {
  const Shape s{29, 43, 33};
  for (const AlgoFamily algo : analysis::kShippedAlgoFamilies) {
    run_oracle(algo, s, Op::Trans, Op::NoTrans, 1.5, 0.5, 5);
    run_oracle(algo, s, Op::NoTrans, Op::Trans, -0.75, 1.0, 2);
    run_oracle(algo, s, Op::Trans, Op::Trans, 2.0, -1.25, 7);
  }
}

TEST(AlgoFamilyOracle, RectanglesMatchedToEachGrid) {
  // Shapes whose aspect matches a table's block grid, including the Sayuri
  // im2col shape (k = 19^2) the families target.
  run_oracle(AlgoFamily::k323, {96, 64, 96}, Op::NoTrans, Op::NoTrans, 1.0,
             0.0, 0);
  run_oracle(AlgoFamily::k234, {64, 96, 128}, Op::NoTrans, Op::NoTrans, 1.0,
             1.0, 0);
  run_oracle(AlgoFamily::k333, {99, 99, 99}, Op::NoTrans, Op::NoTrans, 1.0,
             0.0, 1);
  run_oracle(AlgoFamily::k333, {128, 361, 128}, Op::NoTrans, Op::NoTrans, 1.0,
             0.0, 0);
}

// ---- report stamping ------------------------------------------------------

TEST(AlgoFamilyReport, ForcedFamilyStampsAlgoAndProducts) {
  const int m = 66, k = 44, n = 66;
  Matrix<double> A(m, k), B(k, n), C(m, n);
  Rng rng(7);
  rng.fill_uniform(A.storage());
  rng.fill_uniform(B.storage());
  core::ModgemmOptions opt;
  opt.algo = AlgoFamily::k323;
  opt.tiles.direct_threshold = 16;
  opt.tiles.min_tile = 8;
  opt.tiles.preferred_tile = 16;
  obs::GemmReport report;
  core::modgemm(Op::NoTrans, Op::NoTrans, m, n, k, 1.0, A.data(), A.ld(),
                B.data(), B.ld(), 0.0, C.data(), C.ld(), opt, &report);
  EXPECT_STREQ(report.algo, "323");
  EXPECT_EQ(report.planned_depth, 1);
  // One level of <3,2,3> runs 17 block products; the sub-recursions add
  // their own on top.
  EXPECT_GE(report.products, 17);
  EXPECT_EQ(std::string(obs::fallback_reason_name(report.fallback_reason)),
            "none");
}

TEST(AlgoFamilyReport, BudgetTooSmallFallsBackToWinograd) {
  const int m = 48, k = 48, n = 48;
  Matrix<double> A(m, k), B(k, n), C(m, n), ref(m, n);
  Rng rng(11);
  rng.fill_uniform(A.storage());
  rng.fill_uniform(B.storage());
  blas::naive_gemm(Op::NoTrans, Op::NoTrans, m, n, k, 1.0, A.data(), A.ld(),
                   B.data(), B.ld(), 0.0, ref.data(), ref.ld());
  core::ModgemmOptions opt;
  opt.algo = AlgoFamily::k333;
  opt.max_workspace_bytes = 1024;  // far below the family staging
  obs::GemmReport report;
  core::modgemm(Op::NoTrans, Op::NoTrans, m, n, k, 1.0, A.data(), A.ld(),
                B.data(), B.ld(), 0.0, C.data(), C.ld(), opt, &report);
  EXPECT_EQ(std::string(obs::fallback_reason_name(report.fallback_reason)),
            "algo-fallback");
  EXPECT_STREQ(report.algo, "222");  // what actually ran
  for (int j = 0; j < n; ++j)
    for (int i = 0; i < m; ++i)
      ASSERT_NEAR(C.at(i, j), ref.at(i, j), 1e-9 * k);
}

// ---- <2,2,2> bit-identity to the seed path --------------------------------

// Forcing the <2,2,2> coefficient table must leave the driver on the plain
// Winograd path (the family hook returns to the unchanged engine), so every
// output bit matches the default run.  The scalar kernel pin removes any
// register-blocking nondeterminism from the comparison.
TEST(AlgoFamilyBitIdentity, Forced222MatchesSeedBitForBit) {
  const int n = 192;
  Matrix<double> A(n, n), B(n, n), C0(n, n), C1(n, n), C2(n, n);
  Rng rng(23);
  rng.fill_uniform(A.storage());
  rng.fill_uniform(B.storage());

  core::ModgemmOptions base;
  base.kernel = blas::kernels::Kind::kScalar;
  base.tiles.direct_threshold = 32;
  base.tiles.min_tile = 8;
  base.tiles.preferred_tile = 16;
  {
    ScopedEnv env("STRASSEN_ALGO", nullptr);  // seed: heuristic resolution
    core::modgemm(Op::NoTrans, Op::NoTrans, n, n, n, 1.0, A.data(), A.ld(),
                  B.data(), B.ld(), 0.0, C0.data(), C0.ld(), base);
  }
  {
    ScopedEnv env("STRASSEN_ALGO", "222");  // forced via environment
    core::modgemm(Op::NoTrans, Op::NoTrans, n, n, n, 1.0, A.data(), A.ld(),
                  B.data(), B.ld(), 0.0, C1.data(), C1.ld(), base);
  }
  core::ModgemmOptions pinned = base;
  pinned.algo = AlgoFamily::k222;  // forced via the per-call pin
  core::modgemm(Op::NoTrans, Op::NoTrans, n, n, n, 1.0, A.data(), A.ld(),
                B.data(), B.ld(), 0.0, C2.data(), C2.ld(), pinned);

  EXPECT_EQ(0, std::memcmp(C0.data(), C1.data(),
                           sizeof(double) * C0.storage().size()));
  EXPECT_EQ(0, std::memcmp(C0.data(), C2.data(),
                           sizeof(double) * C0.storage().size()));
}

TEST(AlgoFamilyBitIdentity, DeepSquareHeuristicStaysOn222) {
  // The planner heuristic must keep deep squares on <2,2,2> (the margin rule
  // in layout::choose_algo): that is what keeps the default path identical
  // to the seed.
  layout::TileOptions tiles;
  for (int n : {128, 256, 384, 512, 1024})
    EXPECT_EQ(layout::choose_algo(n, n, n, tiles), AlgoFamily::k222)
        << "n=" << n;
}

TEST(AlgoFamilyHeuristic, Conv3x3StaysOn222) {
  // The im2col 3x3 convolution (256 x 2304 x 361) splits under <2,2,2>.
  // Priced as its chunk products (layout::modeled_flops), the split beats
  // every family table.
  EXPECT_EQ(layout::choose_algo(256, 2304, 361), AlgoFamily::k222);
}

// ---- STRASSEN_ALGO resolution ladder --------------------------------------

TEST(AlgoFamilyEnv, PinBeatsEnvironment) {
  ScopedEnv env("STRASSEN_ALGO", "333");
  core::ExecConfig pins;
  pins.algo = AlgoFamily::k323;
  EXPECT_EQ(core::resolve_config(pins).algo, AlgoFamily::k323);
  pins.algo = AlgoFamily::kAuto;
  EXPECT_EQ(core::resolve_config(pins).algo, AlgoFamily::k333);
}

TEST(AlgoFamilyEnv, ParsesEveryName) {
  EXPECT_EQ(core::detail::parse_algo_family("auto"), AlgoFamily::kAuto);
  EXPECT_EQ(core::detail::parse_algo_family("222"), AlgoFamily::k222);
  EXPECT_EQ(core::detail::parse_algo_family("323"), AlgoFamily::k323);
  EXPECT_EQ(core::detail::parse_algo_family("234"), AlgoFamily::k234);
  EXPECT_EQ(core::detail::parse_algo_family("333"), AlgoFamily::k333);
}

TEST(AlgoFamilyEnv, MalformedValueThrowsLoudly) {
  try {
    core::detail::parse_algo_family("2x2x2");
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("STRASSEN_ALGO"), std::string::npos)
        << e.what();
    EXPECT_NE(std::string(e.what()).find("2x2x2"), std::string::npos);
  }
}

// ---- prover: positive -----------------------------------------------------

TEST(AlgoVerify, EveryShippedTableVerifies) {
  for (const AlgoFamily f : analysis::kShippedAlgoFamilies) {
    const FamilyTable& t = analysis::family_table(f);
    const FamilyCoreResult r = verify_family_core(t);
    EXPECT_EQ(r.violation, FamilyViolation::kNone) << t.name;
    EXPECT_TRUE(verify_family(t).empty()) << joined(verify_family(t));
  }
}

TEST(AlgoVerify, RankAndPeakPins) {
  EXPECT_EQ(verify_family_core(analysis::kTable222).rank, 7);
  EXPECT_EQ(verify_family_core(analysis::kTable323).rank, 17);
  EXPECT_EQ(verify_family_core(analysis::kTable234).rank, 22);
  EXPECT_EQ(verify_family_core(analysis::kTable333).rank, 23);
  for (const AlgoFamily f : analysis::kShippedAlgoFamilies)
    EXPECT_EQ(verify_family_core(analysis::family_table(f)).temp_peak, 3);
}

// ---- prover: negative (one defect at a time) ------------------------------

TEST(AlgoVerifyNegative, WrongCoefficientSignBreaksTheIdentity) {
  TestTable bad(analysis::kTable323);
  for (std::int8_t& v : bad.a) {  // flip the first nonzero A coefficient
    if (v != 0) {
      v = static_cast<std::int8_t>(-v);
      break;
    }
  }
  const FamilyCoreResult r = verify_family_core(bad.t);
  EXPECT_EQ(r.violation, FamilyViolation::kProductIdentity);
  const std::vector<std::string> errors = verify_family(bad.t);
  ASSERT_FALSE(errors.empty());
  EXPECT_TRUE(any_error_contains(errors, "accumulation row is wrong"))
      << joined(errors);
  EXPECT_TRUE(any_error_contains(errors, "want")) << joined(errors);
}

TEST(AlgoVerifyNegative, OutOfRangeCoefficientIsPinpointed) {
  TestTable bad(analysis::kTable234);
  bad.b[3] = 2;  // outside {-1,0,1}
  const FamilyCoreResult r = verify_family_core(bad.t);
  EXPECT_EQ(r.violation, FamilyViolation::kBadCoefficient);
  EXPECT_EQ(r.product, 0);
  const std::vector<std::string> errors = verify_family(bad.t);
  EXPECT_TRUE(any_error_contains(errors, "outside {-1,0,1}"))
      << joined(errors);
  EXPECT_TRUE(any_error_contains(errors, "product 1")) << joined(errors);
}

TEST(AlgoVerifyNegative, BadCAccumulationRowNamesTheBlock) {
  TestTable bad(analysis::kTable333);
  // Zero C[0][0]'s first nonzero accumulation coefficient.
  for (int r = 0; r < bad.t.rank; ++r) {
    if (bad.c[r] != 0) {
      bad.c[r] = 0;
      break;
    }
  }
  const FamilyCoreResult r = verify_family_core(bad.t);
  EXPECT_EQ(r.violation, FamilyViolation::kProductIdentity);
  EXPECT_EQ(r.ci, 0);
  EXPECT_EQ(r.cj, 0);
  const std::vector<std::string> errors = verify_family(bad.t);
  EXPECT_TRUE(any_error_contains(errors, "C[0][0]")) << joined(errors);
  EXPECT_TRUE(any_error_contains(errors, "accumulation row is wrong"))
      << joined(errors);
}

TEST(AlgoVerifyNegative, UnderDeclaredTempPeakIsRejected) {
  TestTable bad(analysis::kTable222);
  bad.t.declared_temp_peak = 2;  // interpreter stages 3
  const FamilyCoreResult r = verify_family_core(bad.t);
  EXPECT_EQ(r.violation, FamilyViolation::kTempPeakMismatch);
  EXPECT_EQ(r.got, 2);
  EXPECT_EQ(r.want, 3);
  const std::vector<std::string> errors = verify_family(bad.t);
  EXPECT_TRUE(any_error_contains(errors, "declared temp peak 2"))
      << joined(errors);
  EXPECT_TRUE(any_error_contains(errors, "stages 3")) << joined(errors);
}

TEST(AlgoVerifyNegative, DeadProductIsRejected) {
  TestTable bad(analysis::kTable323);
  // Orphan product 17 by zeroing its column in every C row.
  const int r17 = bad.t.rank - 1;
  for (int cb = 0; cb < bad.t.bm * bad.t.bn; ++cb)
    bad.c[cb * bad.t.rank + r17] = 0;
  const FamilyCoreResult r = verify_family_core(bad.t);
  // The identity breaks first (checks run in documented order).
  EXPECT_EQ(r.violation, FamilyViolation::kProductIdentity);
  const std::vector<std::string> errors = verify_family(bad.t);
  EXPECT_TRUE(any_error_contains(errors, "dead")) << joined(errors);
}

}  // namespace
}  // namespace strassen
