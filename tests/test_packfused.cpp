// Pack-fused (no-conversion) execution strategy tests.
//
// Three contracts are under test here:
//
//   * packing routines (blas/pack.hpp) -- a packed panel holds EXACTLY
//     alpha * (a ± b) of the zero-padded logical operands, for every
//     combination of boundary clipping, strides, transposition and scaling,
//     and every element of the destination is written (NaN poison comes out
//     fully defined);
//
//   * bit identity -- for the same plan, the pack-fused strategy produces a
//     result BIT-IDENTICAL to the Morton strategy.  This holds because the
//     two strategies (a) select the same schedule tables at every recursion
//     node, (b) invoke the same leaf kernels on operands holding the same
//     values (a packed panel replicates the Morton tile, and a pass-through
//     view feeds the kernels the same values through a different leading
//     dimension -- kernel arithmetic is ld-independent), and (c) merge into
//     C with per-element expressions identical to the Morton convert-out
//     (blas::scale_view / axpby_view).  The comparison below is a bitwise
//     memcmp, not a tolerance check;
//
//   * strategy plumbing -- the per-call pin outranks the environment, plans
//     that cannot run Strassen never report a strategy, a tight budget never
//     moves a pack-fused product to Kreczmar's in-place table (it would
//     overwrite the CALLER's operands), and a mid-call allocation
//     failure degrades along the ladder with the exact-product-or-untouched-C
//     contract intact.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "blas/gemm.hpp"
#include "blas/pack.hpp"
#include "common/matrix.hpp"
#include "common/rng.hpp"
#include "core/modgemm.hpp"
#include "core/packfused.hpp"
#include "testing/fault_injection.hpp"

namespace strassen {
namespace {

namespace ft = ::strassen::testing;
using analysis::Sign;
using blas::PackSrc;
using core::FallbackReason;
using core::ModgemmOptions;
using core::ModgemmReport;
using layout::ExecStrategy;

// ---------------------------------------------------------------------------
// Packing routines: oracle conformance.
// ---------------------------------------------------------------------------

// Element-wise reference for a packed panel, written independently of the
// packing code paths: read straight from the column-major storage with
// explicit clipping, transposition, combination and scaling.
std::vector<double> panel_oracle(int pr, int pc, const PackSrc<double>& a,
                                 Sign s, const PackSrc<double>* b,
                                 double alpha) {
  std::vector<double> out(static_cast<std::size_t>(pr) * pc);
  for (int j = 0; j < pc; ++j) {
    for (int i = 0; i < pr; ++i) {
      double v = 0.0;
      if (i < a.rows && j < a.cols)
        v = a.trans ? a.ptr[static_cast<std::size_t>(i) * a.ld + j]
                    : a.ptr[static_cast<std::size_t>(j) * a.ld + i];
      if (b != nullptr) {
        double w = 0.0;
        if (i < b->rows && j < b->cols)
          w = b->trans ? b->ptr[static_cast<std::size_t>(i) * b->ld + j]
                       : b->ptr[static_cast<std::size_t>(j) * b->ld + i];
        v = s == Sign::kPlus ? v + w : v - w;
      }
      out[static_cast<std::size_t>(j) * pr + i] = alpha * v;
    }
  }
  return out;
}

// Packs into a NaN-poisoned panel and checks every element against the
// oracle.  Bitwise equality: packing must not introduce any arithmetic
// beyond the single add/sub and optional scale the oracle performs.
void expect_pack(int pr, int pc, const PackSrc<double>& a, double alpha) {
  std::vector<double> dst(static_cast<std::size_t>(pr) * pc,
                          std::numeric_limits<double>::quiet_NaN());
  blas::pack_panel(dst.data(), pr, pc, a, alpha);
  const std::vector<double> ref =
      panel_oracle(pr, pc, a, Sign::kPlus, nullptr, alpha);
  ASSERT_EQ(std::memcmp(dst.data(), ref.data(), dst.size() * sizeof(double)),
            0)
      << pr << "x" << pc << " trans=" << a.trans << " alpha=" << alpha;
}

void expect_pack_sum(int pr, int pc, const PackSrc<double>& a, Sign s,
                     const PackSrc<double>& b, double alpha) {
  std::vector<double> dst(static_cast<std::size_t>(pr) * pc,
                          std::numeric_limits<double>::quiet_NaN());
  blas::pack_panel_sum(dst.data(), pr, pc, a, s, b, alpha);
  const std::vector<double> ref = panel_oracle(pr, pc, a, s, &b, alpha);
  ASSERT_EQ(std::memcmp(dst.data(), ref.data(), dst.size() * sizeof(double)),
            0)
      << pr << "x" << pc << " sign=" << (s == Sign::kPlus ? '+' : '-');
}

// A filled column-major backing store with a deliberately padded stride.
struct Backing {
  Matrix<double> m;
  explicit Backing(int rows, int cols, int ld, std::uint64_t seed)
      : m(rows, cols, ld) {
    Rng rng(seed);
    rng.fill_uniform(m.storage());
  }
  PackSrc<double> view(int rows, int cols, bool trans = false) const {
    return PackSrc<double>{m.data(), m.ld(), trans, rows, cols};
  }
};

TEST(PackPanel, FullTileContiguousAndStrided) {
  Backing tight(16, 16, 16, 1), strided(16, 16, 29, 2);
  expect_pack(16, 16, tight.view(16, 16), 1.0);
  expect_pack(16, 16, strided.view(16, 16), 1.0);
}

TEST(PackPanel, BoundaryTilesZeroFillEveryEdge) {
  Backing b(13, 11, 23, 3);
  // Clipped rows, clipped cols, clipped both, and a fully padded panel from
  // an empty view: the pad region must come out exactly 0.0.
  expect_pack(16, 11, b.view(13, 11), 1.0);
  expect_pack(13, 16, b.view(13, 11), 1.0);
  expect_pack(16, 16, b.view(13, 11), 1.0);
  expect_pack(16, 16, b.view(0, 0), 1.0);
  expect_pack(16, 16, b.view(1, 1), 1.0);
}

TEST(PackPanel, TransposedSources) {
  Backing b(12, 17, 19, 4);
  // A transposed window: logical (i, j) reads storage (j, i).
  expect_pack(17, 12, b.view(17, 12, /*trans=*/true), 1.0);
  expect_pack(20, 16, b.view(17, 12, /*trans=*/true), 1.0);
}

TEST(PackPanel, AlphaScalingOnBothPaths) {
  Backing b(14, 14, 14, 5);
  expect_pack(16, 16, b.view(14, 14), 2.5);                  // generic path
  expect_pack(16, 16, b.view(14, 14, /*trans=*/true), 2.5);  // gather path
  expect_pack(16, 16, b.view(14, 14), -1.0);
}

TEST(PackPanelSum, CombinationsAcrossExtentsAndSigns) {
  Backing x(16, 16, 16, 6), y(9, 12, 31, 7);
  for (Sign s : {Sign::kPlus, Sign::kMinus}) {
    expect_pack_sum(16, 16, x.view(16, 16), s, y.view(9, 12), 1.0);
    expect_pack_sum(16, 16, y.view(9, 12), s, x.view(16, 16), 1.0);
    expect_pack_sum(16, 16, x.view(16, 16), s, y.view(9, 12), 2.0);
    expect_pack_sum(16, 16, x.view(12, 16, /*trans=*/true), s, y.view(9, 12),
                    1.0);
  }
}

TEST(PackSrcView, CoversMatchesInPlaceContract) {
  Backing b(16, 16, 20, 8);
  EXPECT_TRUE(b.view(16, 16).covers(16, 16));
  EXPECT_TRUE(b.view(16, 16).covers(12, 12));
  EXPECT_FALSE(b.view(12, 16).covers(16, 16));     // clipped rows
  EXPECT_FALSE(b.view(16, 16, true).covers(8, 8)); // transposed never in-place
  EXPECT_TRUE(b.view(0, 16).empty());
}

// ---------------------------------------------------------------------------
// Bit identity: pack-fused vs Morton on the public API.
// ---------------------------------------------------------------------------

// Every (op(A), op(B)) pair.
constexpr std::pair<Op, Op> kOpPairs[] = {{Op::NoTrans, Op::NoTrans},
                                          {Op::Trans, Op::NoTrans},
                                          {Op::NoTrans, Op::Trans},
                                          {Op::Trans, Op::Trans}};

// Runs the SAME problem under both strategies and compares the full C
// storage with memcmp.  Uniform (non-integer) data makes this a real
// bit-identity check: any reassociation or different rounding between the
// strategies would flip low-order bits.
void expect_bit_identical(Op opa, Op opb, int m, int n, int k, double alpha,
                          double beta, ModgemmOptions opt = {},
                          int extra_ld = 0) {
  Rng rng(static_cast<std::uint64_t>(m) * 9176 + n * 257 + k);
  const int ar = opa == Op::NoTrans ? m : k;
  const int ac = opa == Op::NoTrans ? k : m;
  const int br = opb == Op::NoTrans ? k : n;
  const int bc = opb == Op::NoTrans ? n : k;
  Matrix<double> A(ar, ac, ar + extra_ld);
  Matrix<double> B(br, bc, br + extra_ld);
  Matrix<double> C0(m, n, m + extra_ld);
  rng.fill_uniform(A.storage());
  rng.fill_uniform(B.storage());
  rng.fill_uniform(C0.storage());

  Matrix<double> Cm(m, n, m + extra_ld), Cp(m, n, m + extra_ld);
  copy_matrix<double>(C0.view(), Cm.view());
  copy_matrix<double>(C0.view(), Cp.view());

  ModgemmReport rm, rp;
  opt.strategy = ExecStrategy::kMorton;
  core::modgemm(opa, opb, m, n, k, alpha, A.data(), A.ld(), B.data(), B.ld(),
                beta, Cm.data(), Cm.ld(), opt, &rm);
  opt.strategy = ExecStrategy::kPackFused;
  core::modgemm(opa, opb, m, n, k, alpha, A.data(), A.ld(), B.data(), B.ld(),
                beta, Cp.data(), Cp.ld(), opt, &rp);

  ASSERT_EQ(std::memcmp(Cm.data(), Cp.data(),
                        Cm.storage().size() * sizeof(double)),
            0)
      << m << "x" << n << "x" << k << " op " << op_char(opa) << op_char(opb)
      << " alpha=" << alpha << " beta=" << beta
      << " max|diff|=" << max_abs_diff<double>(Cm.view(), Cp.view());
  // Both executions took a Strassen path (the comparison is vacuous if the
  // planner went direct) and report what ran.
  ASSERT_FALSE(rm.plan.direct);
  EXPECT_STREQ(rm.strategy, "morton");
  EXPECT_STREQ(rp.strategy, "packfused");
  // Pack-fused cannot destroy the caller's operands, so where the Morton
  // product runs Kreczmar's in-place table it runs the low-memory one.
  const std::string morton_schedule = rm.schedule;
  EXPECT_EQ(morton_schedule == "winograd-inplace" ? "winograd-lowmem"
                                                  : morton_schedule,
            rp.schedule);
}

TEST(PackFusedBitIdentity, PaperShowcaseSize513) {
  expect_bit_identical(Op::NoTrans, Op::NoTrans, 513, 513, 513, 1.0, 0.0);
}

TEST(PackFusedBitIdentity, PowerOfTwoAndPrime) {
  expect_bit_identical(Op::NoTrans, Op::NoTrans, 256, 256, 256, 1.0, 0.0);
  expect_bit_identical(Op::NoTrans, Op::NoTrans, 211, 211, 211, 1.0, 0.0);
}

TEST(PackFusedBitIdentity, AlphaBetaMerges) {
  expect_bit_identical(Op::NoTrans, Op::NoTrans, 200, 200, 200, 2.0, -1.0);
  expect_bit_identical(Op::NoTrans, Op::NoTrans, 200, 200, 200, 0.5, 0.25);
  expect_bit_identical(Op::NoTrans, Op::NoTrans, 200, 200, 200, -1.0, 1.0);
}

TEST(PackFusedBitIdentity, TransposesRectangularsAndStrides) {
  expect_bit_identical(Op::Trans, Op::NoTrans, 150, 130, 170, 1.0, 0.0);
  expect_bit_identical(Op::NoTrans, Op::Trans, 150, 130, 170, 2.0, -1.0);
  expect_bit_identical(Op::Trans, Op::Trans, 129, 142, 155, 1.0, 1.0);
  expect_bit_identical(Op::NoTrans, Op::NoTrans, 180, 160, 140, 1.0, 0.0, {},
                       /*extra_ld=*/7);
}

// A Morton product on the Kreczmar rung (a budget of exactly its Morton
// buffers) against pack-fused on the default 2-buffer table: same plan,
// same bits.
TEST(PackFusedBitIdentity, LowMemAndInPlaceFamilies) {
  struct Case {
    int n;
    double alpha, beta;
  };
  for (const Case c : {Case{256, 1.0, 0.0}, Case{200, 2.0, -1.0}}) {
    SCOPED_TRACE(c.n);
    const int n = c.n;
    Rng rng(static_cast<std::uint64_t>(n) + 17);
    Matrix<double> A(n, n), B(n, n), C0(n, n), Cm(n, n), Cp(n, n);
    rng.fill_uniform(A.storage());
    rng.fill_uniform(B.storage());
    rng.fill_uniform(C0.storage());
    copy_matrix<double>(C0.view(), Cm.view());
    copy_matrix<double>(C0.view(), Cp.view());
    ModgemmOptions opt;
    opt.strategy = ExecStrategy::kMorton;
    opt.max_workspace_bytes = core::modgemm_conversion_bytes(
        layout::plan_gemm(n, n, n, opt.tiles), sizeof(double));
    ModgemmReport rm, rp;
    core::modgemm(Op::NoTrans, Op::NoTrans, n, n, n, c.alpha, A.data(), n,
                  B.data(), n, c.beta, Cm.data(), n, opt, &rm);
    opt.strategy = ExecStrategy::kPackFused;
    opt.max_workspace_bytes = 0;
    core::modgemm(Op::NoTrans, Op::NoTrans, n, n, n, c.alpha, A.data(), n,
                  B.data(), n, c.beta, Cp.data(), n, opt, &rp);
    ASSERT_EQ(rm.fallback_reason, FallbackReason::kScheduleSwap);
    EXPECT_STREQ(rm.schedule, "winograd-inplace");
    EXPECT_STREQ(rp.schedule, "winograd-lowmem");
    EXPECT_EQ(rm.plan.depth, rp.plan.depth);
    EXPECT_EQ(rm.plan.m.tile, rp.plan.m.tile);
    EXPECT_EQ(std::memcmp(Cm.data(), Cp.data(),
                          Cm.storage().size() * sizeof(double)),
              0);
  }
}

TEST(PackFusedBitIdentity, ScalarKernelPin) {
  ModgemmOptions opt;
  opt.kernel = blas::kernels::Kind::kScalar;  // no fused leaf entries
  expect_bit_identical(Op::NoTrans, Op::NoTrans, 256, 256, 256, 1.0, 0.0,
                       opt);
}

TEST(PackFusedBitIdentity, FixedTileDeepRecursion) {
  ModgemmOptions opt;
  opt.fixed_tile = 16;  // 513 -> padded 1024, depth 6
  expect_bit_identical(Op::NoTrans, Op::NoTrans, 513, 513, 513, 1.0, 0.0,
                       opt);
}

// The entry copy of a transposed operand only moves values, so pack-fused
// stays bit-identical to Morton for every op pair and beta, on the
// Winograd-layer shape (256 x 200 x 256, also with padded leading
// dimensions), on padded and unpadded squares and on rectangles.
TEST(PackFusedEntryCopy, BitIdenticalToMortonForEveryOpPair) {
  struct Shape {
    int m, n, k, extra_ld;
  };
  for (const Shape& sh : {Shape{256, 200, 256, 0}, Shape{256, 200, 256, 9},
                          Shape{200, 200, 200, 0}, Shape{150, 130, 170, 0},
                          Shape{129, 142, 155, 3}, Shape{300, 160, 140, 0}})
    for (const auto& [opa, opb] : kOpPairs)
      for (const double beta : {0.0, -1.0}) {
        SCOPED_TRACE(::testing::Message() << "extra_ld " << sh.extra_ld);
        expect_bit_identical(opa, opb, sh.m, sh.n, sh.k, 1.0, beta, {},
                             sh.extra_ld);
      }
}

// Exactness against the naive oracle on integer data: independent of the
// Morton comparison above, the pack-fused product itself is exact.
void expect_exact_packfused(Op opa, Op opb, int m, int n, int k, double alpha,
                            double beta, ModgemmOptions opt = {}) {
  Rng rng(static_cast<std::uint64_t>(m) * 7919 + n * 131 + k);
  const int ar = opa == Op::NoTrans ? m : k;
  const int ac = opa == Op::NoTrans ? k : m;
  const int br = opb == Op::NoTrans ? k : n;
  const int bc = opb == Op::NoTrans ? n : k;
  Matrix<double> A(ar, ac), B(br, bc), C(m, n), Ref(m, n);
  rng.fill_int(A.storage(), -3, 3);
  rng.fill_int(B.storage(), -3, 3);
  rng.fill_int(C.storage(), -3, 3);
  copy_matrix<double>(C.view(), Ref.view());
  blas::naive_gemm(opa, opb, m, n, k, alpha, A.data(), A.ld(), B.data(),
                   B.ld(), beta, Ref.data(), Ref.ld());
  opt.strategy = ExecStrategy::kPackFused;
  core::modgemm(opa, opb, m, n, k, alpha, A.data(), A.ld(), B.data(), B.ld(),
                beta, C.data(), C.ld(), opt);
  EXPECT_EQ(max_abs_diff<double>(C.view(), Ref.view()), 0.0)
      << m << "x" << n << "x" << k;
}

TEST(PackFusedExact, CoreShapes) {
  expect_exact_packfused(Op::NoTrans, Op::NoTrans, 513, 513, 513, 1.0, 0.0);
  expect_exact_packfused(Op::Trans, Op::Trans, 150, 130, 170, 2.0, -1.0);
}

TEST(PackFusedExact, HighlyRectangularSplitPath) {
  // Aspect ratios past the split threshold: the driver decomposes into
  // chunks and resolves the strategy per chunk.
  ModgemmReport report;
  ModgemmOptions opt;
  opt.strategy = ExecStrategy::kPackFused;
  const int m = 96, k = 96, n = 768;
  Rng rng(17);
  Matrix<double> A(m, k), B(k, n), C(m, n), Ref(m, n);
  rng.fill_int(A.storage(), -3, 3);
  rng.fill_int(B.storage(), -3, 3);
  blas::naive_gemm(Op::NoTrans, Op::NoTrans, m, n, k, 1.0, A.data(), A.ld(),
                   B.data(), B.ld(), 0.0, Ref.data(), Ref.ld());
  core::modgemm(Op::NoTrans, Op::NoTrans, m, n, k, 1.0, A.data(), A.ld(),
                B.data(), B.ld(), 0.0, C.data(), C.ld(), opt, &report);
  EXPECT_EQ(max_abs_diff<double>(C.view(), Ref.view()), 0.0);
}

TEST(PackFusedExact, BetaZeroDoesNotReadC) {
  const int n = 150;
  Matrix<double> A(n, n), B(n, n), C(n, n);
  Rng rng(4);
  rng.fill_int(A.storage());
  rng.fill_int(B.storage());
  for (auto& x : C.storage()) x = std::numeric_limits<double>::quiet_NaN();
  ModgemmOptions opt;
  opt.strategy = ExecStrategy::kPackFused;
  core::modgemm(Op::NoTrans, Op::NoTrans, n, n, n, 1.0, A.data(), n, B.data(),
                n, 0.0, C.data(), n, opt);
  for (const auto& x : C.storage()) EXPECT_FALSE(std::isnan(x));
}

TEST(PackFusedFloat, SinglePrecisionBitIdentity) {
  const int n = 150;
  Matrix<float> A(n, n), B(n, n), Cm(n, n), Cp(n, n);
  Rng rng(9);
  rng.fill_uniform(A.storage());
  rng.fill_uniform(B.storage());
  ModgemmOptions opt;
  opt.strategy = ExecStrategy::kMorton;
  core::modgemm(Op::NoTrans, Op::NoTrans, n, n, n, 1.0f, A.data(), n,
                B.data(), n, 0.0f, Cm.data(), n, opt);
  opt.strategy = ExecStrategy::kPackFused;
  ModgemmReport report;
  core::modgemm(Op::NoTrans, Op::NoTrans, n, n, n, 1.0f, A.data(), n,
                B.data(), n, 0.0f, Cp.data(), n, opt, &report);
  EXPECT_EQ(std::memcmp(Cm.data(), Cp.data(),
                        Cm.storage().size() * sizeof(float)),
            0);
}

// ---------------------------------------------------------------------------
// Strategy plumbing and report fields.
// ---------------------------------------------------------------------------

// Clears STRASSEN_STRATEGY for the scope of a heuristic test (the env
// override outranks the planner heuristic under test) and restores the
// previous value on exit so a forced-strategy suite run is not perturbed.
class UnsetStrategyEnv {
 public:
  UnsetStrategyEnv() {
    const char* old = std::getenv("STRASSEN_STRATEGY");
    had_ = old != nullptr;
    if (had_) saved_ = old;
    ::unsetenv("STRASSEN_STRATEGY");
  }
  ~UnsetStrategyEnv() {
    if (had_) ::setenv("STRASSEN_STRATEGY", saved_.c_str(), 1);
  }

 private:
  bool had_ = false;
  std::string saved_;
};

struct StrategyProblem {
  Matrix<double> A, B, C;
  int n;
  explicit StrategyProblem(int n_) : A(n_, n_), B(n_, n_), C(n_, n_), n(n_) {
    Rng rng(21);
    rng.fill_uniform(A.storage());
    rng.fill_uniform(B.storage());
  }
  ModgemmReport run(const ModgemmOptions& opt, Op opa = Op::NoTrans,
                    Op opb = Op::NoTrans) {
    ModgemmReport report;
    core::modgemm(opa, opb, n, n, n, 1.0, A.data(), n, B.data(), n, 0.0,
                  C.data(), n, opt, &report);
    return report;
  }
};

TEST(PackFusedReport, StampsStrategyAndConversionSavings) {
  StrategyProblem p(256);
  ModgemmOptions opt;
  opt.strategy = ExecStrategy::kPackFused;
  const ModgemmReport r = p.run(opt);
  ASSERT_FALSE(r.plan.direct);
  EXPECT_STREQ(r.strategy, "packfused");
  EXPECT_EQ(r.plan.strategy, ExecStrategy::kPackFused);
  // No Morton buffers were staged: the savings equal the conversion bytes
  // the plan would have paid, and the conversion phase never ran.
  EXPECT_EQ(r.conversion_saved_bytes,
            core::modgemm_conversion_bytes(r.plan, sizeof(double)));
  EXPECT_GT(r.conversion_saved_bytes, 0u);
  EXPECT_EQ(r.convert_in_seconds, 0.0);
  EXPECT_GT(r.compute_seconds, 0.0);
  EXPECT_EQ(r.products, 1);

  // op(A) = A^T: the entry copy of A (256 x 256 doubles) is the one inbound
  // pass, booked as conversion and subtracted from the savings.
  const ModgemmReport t = p.run(opt, Op::Trans, Op::NoTrans);
  ASSERT_FALSE(t.plan.direct);
  EXPECT_STREQ(t.strategy, "packfused");
  EXPECT_EQ(t.conversion_saved_bytes,
            core::modgemm_conversion_bytes(t.plan, sizeof(double)) -
                std::size_t{256} * 256 * sizeof(double));
  EXPECT_GT(t.convert_in_seconds, 0.0);
  EXPECT_EQ(t.products, 1);
}

TEST(PackFusedReport, MortonPinReportsMortonAndNoSavings) {
  StrategyProblem p(256);
  ModgemmOptions opt;
  opt.strategy = ExecStrategy::kMorton;
  const ModgemmReport r = p.run(opt);
  ASSERT_FALSE(r.plan.direct);
  EXPECT_STREQ(r.strategy, "morton");
  EXPECT_EQ(r.plan.strategy, ExecStrategy::kMorton);
  EXPECT_EQ(r.conversion_saved_bytes, 0u);
  EXPECT_GT(r.convert_in_seconds, 0.0);
}

TEST(PackFusedReport, WorkspaceAccountingMatchesPublicSizing) {
  StrategyProblem p(200);
  ModgemmOptions opt;
  opt.strategy = ExecStrategy::kPackFused;
  opt.tiles.direct_threshold = 32;
  for (const auto& [opa, opb] : kOpPairs) {
    SCOPED_TRACE(::testing::Message() << op_char(opa) << op_char(opb));
    ModgemmReport r;
    {
      ft::FaultInjector counter;  // count gated allocations
      core::modgemm(opa, opb, p.n, p.n, p.n, 1.0, p.A.data(), p.n,
                    p.B.data(), p.n, 0.0, p.C.data(), p.n, opt, &r);
      // One gated allocation: the single up-front arena (the sole fault
      // site), which also holds the entry copy of a transposed operand.
      EXPECT_EQ(counter.allocations(), 1u);
    }
    ASSERT_FALSE(r.plan.direct);
    EXPECT_STREQ(r.strategy, "packfused");
    EXPECT_EQ(r.workspace_allocations, 1);
    const bool c_scratch = core::packfused_needs_c_scratch(
        r.plan, p.n, p.n, /*beta_nonzero=*/false);
    EXPECT_EQ(r.workspace_requested_bytes,
              core::packfused_workspace_bytes(r.plan, opa, opb,
                                              sizeof(double), c_scratch));
    const std::size_t copies =
        (opa == Op::Trans ? 1u : 0u) + (opb == Op::Trans ? 1u : 0u);
    EXPECT_EQ(r.workspace_requested_bytes,
              core::packfused_workspace_bytes(r.plan, Op::NoTrans,
                                              Op::NoTrans, sizeof(double),
                                              c_scratch) +
                  copies * std::size_t{200} * 200 * sizeof(double));
    EXPECT_GT(r.workspace_peak_bytes, 0u);
    EXPECT_LE(r.workspace_peak_bytes, r.workspace_requested_bytes);
    // With at most one operand copied, the pack-fused request stays within
    // the Morton request for the same plan (the Morton buffer of the
    // copied operand holds its copy).
    if (copies < 2) {
      EXPECT_LE(r.workspace_requested_bytes,
                core::modgemm_workspace_bytes(r.plan, sizeof(double)));
    }
  }
}

// A budget equal to the Morton figure of the unbudgeted plan bounds every
// request, for every op pair, unpinned and under either strategy pin.  A
// pinned pack-fused product with both operands transposed copies both at
// entry and would exceed that figure, so the ladder prices it with its own
// and degrades it.
TEST(PackFusedBudget, TransposedCallsStayWithinTheMortonFigure) {
  const int m = 150, k = 130, n = 170;
  Rng rng(41);
  Matrix<double> A(std::max(m, k), std::max(m, k));
  Matrix<double> B(std::max(k, n), std::max(k, n));
  Matrix<double> C0(m, n), C(m, n);
  rng.fill_int(A.storage(), -3, 3);
  rng.fill_int(B.storage(), -3, 3);
  rng.fill_int(C0.storage(), -3, 3);
  const layout::GemmPlan planned = layout::plan_gemm(m, k, n);
  ASSERT_TRUE(planned.feasible && !planned.direct);
  const std::size_t budget =
      core::modgemm_workspace_bytes(planned, sizeof(double));
  ASSERT_GT(core::packfused_workspace_bytes(planned, Op::Trans, Op::Trans,
                                            sizeof(double),
                                            /*c_scratch=*/true),
            budget);

  for (const auto& [opa, opb] : kOpPairs)
    for (const ExecStrategy pin :
         {ExecStrategy::kAuto, ExecStrategy::kPackFused, ExecStrategy::kMorton})
      for (const double beta : {0.0, -1.0}) {
        SCOPED_TRACE(::testing::Message()
                     << op_char(opa) << op_char(opb) << " pin "
                     << layout::strategy_name(pin) << " beta " << beta);
        Matrix<double> Ref(m, n);
        copy_matrix<double>(C0.view(), Ref.view());
        copy_matrix<double>(C0.view(), C.view());
        blas::naive_gemm(opa, opb, m, n, k, 1.0, A.data(), A.ld(), B.data(),
                         B.ld(), beta, Ref.data(), Ref.ld());
        ModgemmOptions opt;
        opt.strategy = pin;
        opt.max_workspace_bytes = budget;
        ModgemmReport r;
        core::modgemm(opa, opb, m, n, k, 1.0, A.data(), A.ld(), B.data(),
                      B.ld(), beta, C.data(), C.ld(), opt, &r);
        EXPECT_EQ(max_abs_diff<double>(C.view(), Ref.view()), 0.0);
        EXPECT_LE(r.workspace_requested_bytes, budget);
        EXPECT_LE(r.workspace_peak_bytes, budget);
        if (pin == ExecStrategy::kPackFused && opa == Op::Trans &&
            opb == Op::Trans) {
          EXPECT_NE(r.fallback_reason, FallbackReason::kNone);
        }
      }
}

// The budget ladder prices pack-fused at the bytes it allocates.  An
// unpinned product the heuristic sends to Morton, under a budget that holds
// its pack-fused figure but not its Morton one, runs pack-fused at full
// depth -- no rung taken -- and computes the same bits as the unbudgeted
// Morton run.
TEST(PackFusedBudget, UnpinnedMortonPlanSettlesOnPackFused) {
  UnsetStrategyEnv unset;
  const int m = 700, k = 600, n = 650;
  Rng rng(47);
  Matrix<double> A(m, k), B(k, n), C0(m, n), Cm(m, n), Cb(m, n);
  rng.fill_uniform(A.storage());
  rng.fill_uniform(B.storage());
  rng.fill_uniform(C0.storage());
  copy_matrix<double>(C0.view(), Cm.view());
  copy_matrix<double>(C0.view(), Cb.view());

  ModgemmReport unbudgeted;
  core::modgemm(Op::NoTrans, Op::NoTrans, m, n, k, 1.5, A.data(), A.ld(),
                B.data(), B.ld(), 0.5, Cm.data(), Cm.ld(), ModgemmOptions{},
                &unbudgeted);
  ASSERT_STREQ(unbudgeted.strategy, "morton");
  layout::GemmPlan plan = unbudgeted.plan;
  plan.strategy = ExecStrategy::kPackFused;
  const std::size_t budget = core::packfused_workspace_bytes(
      plan, Op::NoTrans, Op::NoTrans, sizeof(double), /*c_scratch=*/true);
  ASSERT_LT(budget, core::modgemm_workspace_bytes(plan, sizeof(double)));

  ModgemmOptions opt;
  opt.max_workspace_bytes = budget;
  ModgemmReport r;
  core::modgemm(Op::NoTrans, Op::NoTrans, m, n, k, 1.5, A.data(), A.ld(),
                B.data(), B.ld(), 0.5, Cb.data(), Cb.ld(), opt, &r);
  EXPECT_STREQ(r.strategy, "packfused");
  EXPECT_EQ(r.fallback_reason, FallbackReason::kNone);
  EXPECT_EQ(r.plan.depth, unbudgeted.plan.depth);
  EXPECT_GT(r.workspace_peak_bytes, 0u);
  EXPECT_LE(r.workspace_peak_bytes, budget);
  EXPECT_EQ(std::memcmp(Cm.data(), Cb.data(),
                        sizeof(double) * Cm.storage().size()),
            0);
}

TEST(PackFusedReport, DirectPlansReportNoStrategy) {
  StrategyProblem p(40);  // below the direct threshold
  ModgemmOptions opt;
  opt.strategy = ExecStrategy::kPackFused;
  const ModgemmReport r = p.run(opt);
  ASSERT_TRUE(r.plan.direct);
  EXPECT_STREQ(r.strategy, "");  // serialized as "none"
  EXPECT_EQ(r.conversion_saved_bytes, 0u);
}

TEST(PackFusedReport, InPlaceFamilyMapsToLowMem) {
  // The in-place schedule table overwrites its A/B operands, which under
  // pack-fused are the CALLER's matrices: a pack-fused plan asked for
  // Kreczmar's table runs the 2-buffer table instead.  A budget of exactly
  // the Morton buffers puts a Morton-pinned call on Kreczmar's table at full
  // depth; a pack-fused-pinned call under the same budget runs the 2-buffer
  // table, and the report says what actually ran.
  const int n = 256;
  Matrix<double> A(n, n), B(n, n), C(n, n), Ref(n, n);
  Rng rng(23);
  rng.fill_int(A.storage(), -3, 3);
  rng.fill_int(B.storage(), -3, 3);
  blas::naive_gemm(Op::NoTrans, Op::NoTrans, n, n, n, 1.0, A.data(), n,
                   B.data(), n, 0.0, Ref.data(), n);
  layout::GemmPlan planned = layout::plan_gemm(n, n, n, {});
  planned.strategy = ExecStrategy::kPackFused;
  EXPECT_EQ(core::detail::runnable_family(planned,
                                          analysis::ScheduleFamily::kInPlace),
            analysis::ScheduleFamily::kLowMem);

  ModgemmOptions opt;
  opt.max_workspace_bytes =
      core::modgemm_conversion_bytes(planned, sizeof(double));
  opt.strategy = ExecStrategy::kMorton;
  ModgemmReport morton;
  core::modgemm(Op::NoTrans, Op::NoTrans, n, n, n, 1.0, A.data(), n, B.data(),
                n, 0.0, C.data(), n, opt, &morton);
  EXPECT_EQ(max_abs_diff<double>(C.view(), Ref.view()), 0.0);
  EXPECT_STREQ(morton.schedule, "winograd-inplace");
  EXPECT_EQ(morton.fallback_reason, FallbackReason::kScheduleSwap);

  opt.strategy = ExecStrategy::kPackFused;
  ModgemmReport r;
  core::modgemm(Op::NoTrans, Op::NoTrans, n, n, n, 1.0, A.data(), n, B.data(),
                n, 0.0, C.data(), n, opt, &r);
  EXPECT_EQ(max_abs_diff<double>(C.view(), Ref.view()), 0.0);
  EXPECT_STREQ(r.strategy, "packfused");
  EXPECT_STREQ(r.schedule, "winograd-lowmem");
  EXPECT_EQ(r.plan.depth, planned.depth);
  EXPECT_EQ(r.fallback_reason, FallbackReason::kNone);
}

TEST(PackFusedHeuristic, RectangularOneShotPrefersPackFused) {
  // max(m,k,n) >= 2*min(m,k,n): conversion cost amortizes over too little
  // multiply work, so auto selects pack-fused.
  UnsetStrategyEnv unset;
  const int m = 512, k = 128, n = 128;
  Matrix<double> A(m, k), B(k, n), C(m, n);
  Rng rng(29);
  rng.fill_uniform(A.storage());
  rng.fill_uniform(B.storage());
  ModgemmReport r;
  ModgemmOptions opt;
  core::modgemm(Op::NoTrans, Op::NoTrans, m, n, k, 1.0, A.data(), m,
                B.data(), k, 0.0, C.data(), m, opt, &r);
  if (r.plan.direct) GTEST_SKIP() << "planner went direct on this host";
  EXPECT_STREQ(r.strategy, "packfused");
}

TEST(PackFusedHeuristic, BothOperandsTransposedPrefersMorton) {
  // RectangularOneShotPrefersPackFused's shape runs pack-fused untransposed
  // and with one operand transposed (one entry copy, within the Morton
  // buffers); with both, the Morton conversion folds both transposes into
  // its one pass for less memory and time than two entry copies.
  UnsetStrategyEnv unset;
  const int m = 512, k = 128, n = 128;
  Matrix<double> A(m, m), B(m, m), C(m, n);
  Rng rng(43);
  rng.fill_uniform(A.storage());
  rng.fill_uniform(B.storage());
  ModgemmOptions opt;
  for (const auto& [opa, opb] : kOpPairs) {
    SCOPED_TRACE(::testing::Message() << op_char(opa) << op_char(opb));
    ModgemmReport r;
    core::modgemm(opa, opb, m, n, k, 1.0, A.data(), A.ld(), B.data(), B.ld(),
                  0.0, C.data(), C.ld(), opt, &r);
    if (r.plan.direct) GTEST_SKIP() << "planner went direct on this host";
    EXPECT_STREQ(r.strategy, opa == Op::Trans && opb == Op::Trans
                                 ? "morton"
                                 : "packfused");
  }
}

TEST(PackFusedHeuristic, DeepSquareRecursionPrefersMorton) {
  // Depth 6 on a square problem: the Morton buffers are reused across 7^d
  // leaf products, so auto keeps the Morton strategy.
  UnsetStrategyEnv unset;
  StrategyProblem p(513);
  ModgemmOptions opt;
  opt.fixed_tile = 16;  // padded 1024 = 16 << 6
  const ModgemmReport r = p.run(opt);
  ASSERT_FALSE(r.plan.direct);
  ASSERT_EQ(r.plan.depth, 6);
  EXPECT_STREQ(r.strategy, "morton");
}

// ---------------------------------------------------------------------------
// Fault injection: exact product or untouched C, every allocation site.
// ---------------------------------------------------------------------------

// Mirrors test_ladder_invariants.cpp's sweep: count the gated allocation
// sites of an un-faulted pack-fused run, then fail each in turn.  The
// op(A) = A^T leg makes as many gated allocations as the untransposed one:
// the entry copy of A lives inside the one up-front arena, so refusing it is
// refusing that arena, before any write to C.
TEST(PackFusedFaults, SweepEverySiteKeepsTheContract) {
  const int n = 256;
  Rng rng(37);
  Matrix<double> A(n, n), B(n, n), C0(n, n), C(n, n);
  rng.fill_int(A.storage(), -3, 3);
  rng.fill_int(B.storage(), -3, 3);
  rng.fill_int(C0.storage(), -3, 3);

  ModgemmOptions opt;
  opt.strategy = ExecStrategy::kPackFused;

  std::uint64_t untransposed_sites = 0;
  for (const Op opa : {Op::NoTrans, Op::Trans}) {
    SCOPED_TRACE(::testing::Message() << "op(A)=" << op_char(opa));
    Matrix<double> Ref(n, n);
    copy_matrix<double>(C0.view(), Ref.view());
    blas::naive_gemm(opa, Op::NoTrans, n, n, n, 2.0, A.data(), n, B.data(),
                     n, -1.0, Ref.data(), n);

    std::uint64_t sites = 0;
    {
      ft::FaultInjector counter;
      copy_matrix<double>(C0.view(), C.view());
      core::modgemm(opa, Op::NoTrans, n, n, n, 2.0, A.data(), n, B.data(), n,
                    -1.0, C.data(), n, opt);
      sites = counter.allocations();
      ASSERT_EQ(counter.failures(), 0u);
      ASSERT_EQ(max_abs_diff<double>(C.view(), Ref.view()), 0.0);
    }
    ASSERT_GE(sites, 1u);
    if (opa == Op::NoTrans)
      untransposed_sites = sites;
    else
      EXPECT_EQ(sites, untransposed_sites);

    for (std::uint64_t at = 1; at <= sites; ++at) {
      SCOPED_TRACE(::testing::Message() << "fail_at=" << at << "/" << sites);
      ft::FaultInjector inj(ft::FaultMode::kFailOnce, at);
      copy_matrix<double>(C0.view(), C.view());
      ModgemmReport report;
      try {
        core::modgemm(opa, Op::NoTrans, n, n, n, 2.0, A.data(), n, B.data(),
                      n, -1.0, C.data(), n, opt, &report);
        EXPECT_EQ(max_abs_diff<double>(C.view(), Ref.view()), 0.0);
        if (inj.failures() > 0) {
          EXPECT_NE(report.fallback_reason, FallbackReason::kNone);
        }
      } catch (const std::bad_alloc&) {
        EXPECT_EQ(max_abs_diff<double>(C.view(), C0.view()), 0.0);
      }
      EXPECT_GE(inj.failures(), 1u);
    }
  }
}

TEST(PackFusedFaults, ArenaRefusalDegradesToDirect) {
  StrategyProblem p(200);
  ModgemmOptions opt;
  opt.strategy = ExecStrategy::kPackFused;
  opt.tiles.direct_threshold = 32;
  ModgemmReport report;
  {
    // The pack-fused path makes exactly one gated allocation; refusing it
    // lands on the conventional rung (never a Morton retry: the Morton
    // strategy needs strictly more memory).
    ft::FaultInjector inj(ft::FaultMode::kFailOnce, 1);
    core::modgemm(Op::NoTrans, Op::NoTrans, p.n, p.n, p.n, 1.0, p.A.data(),
                  p.n, p.B.data(), p.n, 0.0, p.C.data(), p.n, opt, &report);
  }
  EXPECT_EQ(report.fallback_reason, FallbackReason::kAllocDirect);
  EXPECT_EQ(report.products, 1);
  EXPECT_GT(report.compute_seconds, 0.0);
}

}  // namespace
}  // namespace strassen
