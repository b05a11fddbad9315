// The three entry points dispatch alike.
//
// core::modgemm, parallel::pmodgemm and a one-item core::modgemm_batched
// share one pipeline (resolve_config -> plan_product -> run_product: the
// product ladder or split blocks), so on every planner-boundary shape they
// must report the same plan and fallback and produce bit-identical C within
// the <2,2,2> error bound.  Without a pool pmodgemm IS the serial pipeline,
// so it must also run the same execution strategy.  On a pool it runs the
// Morton rung with forked top levels, bit-identical to the serial
// strategies whatever the pool's width.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <string>
#include <tuple>

#include "blas/gemm.hpp"
#include "common/matrix.hpp"
#include "common/rng.hpp"
#include "core/batched.hpp"
#include "core/modgemm.hpp"
#include "parallel/pmodgemm.hpp"

namespace strassen {
namespace {

// The call's beta: 0.5 merges into C, 0 overwrites it (the from-Morton and
// pack-fused epilogues take a separate path).  An enum (printed as its byte)
// keeps the registered names: the axis once pinned the <m,k,n> algorithm,
// "AlgoAuto" is beta 0.5 and "Algo222" beta 0.
enum class Beta : std::uint8_t { kHalf = 0, kZero = 1 };

// Width of the pooled leg's pool, as the ThreadPool constructor argument
// (0 = default_thread_count()).  An enum (printed as its byte) keeps the
// registered names of the instances.
enum class PoolWidth : std::uint8_t { kDefault = 0, kTwo = 2 };

struct Shape {
  const char* name;
  int m, k, n;
  layout::TileOptions tiles;
};

layout::TileOptions window_gap_tiles() {
  // Under these knobs 22 sits in the window gap: no common depth >= 1.
  layout::TileOptions t;
  t.min_tile = 12;
  t.max_tile = 32;
  t.preferred_tile = 12;
  t.direct_threshold = 16;
  return t;
}

const Shape kShapes[] = {
    {"DirectThreshold", 64, 200, 150, {}},
    {"DirectThresholdPlus1", 65, 200, 150, {}},
    {"WindowGap", 22, 32, 22, window_gap_tiles()},
    {"Split", 100, 2100, 100, {}},
    {"Conv3x3", 256, 2304, 361, {}},
    {"Cube1025", 1025, 1025, 1025, {}},
    // Shapes the planner used to send to a <3,2,3> / <2,3,4> / <3,3,3>
    // family level; every product now runs the <2,2,2> recursion.
    {"Shape135x211x1268", 135, 211, 1268, {}},
    {"Shape211x384x2304", 211, 384, 2304, {}},
    {"Shape331x157x1472", 331, 157, 1472, {}},
    {"Shape1092x810x211", 1092, 810, 211, {}},
    {"Shape2304x157x285", 2304, 157, 285, {}},
    {"Shape500x1000x1500", 500, 1000, 1500, {}},
};

// Largest |X(i, j)| over a matrix.
double max_abs(const Matrix<double>& X) {
  double v = 0;
  for (const double x : X.storage()) v = std::max(v, std::fabs(x));
  return v;
}

// The elementwise error bound the benchmark's oracle check applies to a
// <2,2,2> product of `depth` recursion levels: a conventional k-term dot
// product bound, grown 3x per level, plus the beta merge's rounding.
double error_bound(int k, int depth, double alpha_ab, double beta_c0) {
  const double u = std::numeric_limits<double>::epsilon() / 2;
  return 64.0 * u * k * std::pow(3.0, depth) * alpha_ab + 4.0 * u * beta_c0;
}

void expect_same_dispatch(const obs::GemmReport& a, const obs::GemmReport& b) {
  EXPECT_STREQ(a.algo, b.algo);
  EXPECT_EQ(a.plan.direct, b.plan.direct);
  EXPECT_EQ(a.plan.m.tile, b.plan.m.tile);
  EXPECT_EQ(a.plan.k.tile, b.plan.k.tile);
  EXPECT_EQ(a.plan.n.tile, b.plan.n.tile);
  EXPECT_EQ(a.plan.depth, b.plan.depth);
  EXPECT_EQ(a.plan.schedule, b.plan.schedule);
  EXPECT_EQ(a.fallback_reason, b.fallback_reason);
}

class DispatchAlike
    : public ::testing::TestWithParam<
          std::tuple<int, Beta, PoolWidth>> {};

TEST_P(DispatchAlike, EntryPointsAgree) {
  const auto [index, beta_axis, width] = GetParam();
  const Shape& s = kShapes[index];
  Matrix<double> A(s.m, s.k), B(s.k, s.n), C0(s.m, s.n);
  Rng rng(17);
  rng.fill_uniform(A.storage());
  rng.fill_uniform(B.storage());
  rng.fill_uniform(C0.storage());
  Matrix<double> Cs(s.m, s.n), Cp(s.m, s.n), Cb(s.m, s.n), Cq(s.m, s.n),
      Cqb(s.m, s.n), Ref(s.m, s.n);
  for (Matrix<double>* c : {&Cs, &Cp, &Cb, &Cq, &Cqb, &Ref})
    std::memcpy(c->data(), C0.data(), sizeof(double) * C0.storage().size());
  const double alpha = 1.5, beta = beta_axis == Beta::kHalf ? 0.5 : 0.0;

  core::ModgemmOptions sopt;
  sopt.tiles = s.tiles;
  obs::GemmReport serial;
  core::modgemm(Op::NoTrans, Op::NoTrans, s.m, s.n, s.k, alpha, A.data(),
                A.ld(), B.data(), B.ld(), beta, Cs.data(), Cs.ld(), sopt,
                &serial);

  parallel::ParallelOptions popt;
  popt.tiles = s.tiles;
  obs::GemmReport par;
  popt.report = &par;
  parallel::pmodgemm(nullptr, Op::NoTrans, Op::NoTrans, s.m, s.n, s.k, alpha,
                     A.data(), A.ld(), B.data(), B.ld(), beta, Cp.data(),
                     Cp.ld(), popt);

  core::BatchItem item;
  item.m = s.m;
  item.n = s.n;
  item.k = s.k;
  item.alpha = alpha;
  item.A = A.data();
  item.lda = A.ld();
  item.B = B.data();
  item.ldb = B.ld();
  item.beta = beta;
  item.C = Cb.data();
  item.ldc = Cb.ld();
  core::BatchedOptions bopt;
  bopt.tiles = s.tiles;
  obs::GemmReport batched;
  core::modgemm_batched(nullptr, &item, 1, bopt, &batched);

  {
    SCOPED_TRACE("pmodgemm vs modgemm");
    expect_same_dispatch(serial, par);
    EXPECT_EQ(serial.plan.strategy, par.plan.strategy);
  }
  {
    SCOPED_TRACE("modgemm_batched vs modgemm");
    expect_same_dispatch(serial, batched);
    EXPECT_EQ(serial.plan.strategy, batched.plan.strategy);
  }
  const std::size_t bytes = sizeof(double) * Cs.storage().size();
  EXPECT_EQ(std::memcmp(Cs.data(), Cp.data(), bytes), 0);
  EXPECT_EQ(std::memcmp(Cs.data(), Cb.data(), bytes), 0);

  // Within the <2,2,2> bound of a conventional product (a direct plan has
  // depth 0; split chunks all share the reported depth).
  blas::gemm(Op::NoTrans, Op::NoTrans, s.m, s.n, s.k, alpha, A.data(),
             A.ld(), B.data(), B.ld(), beta, Ref.data(), Ref.ld());
  const double bound =
      error_bound(s.k, serial.plan.direct ? 0 : serial.plan.depth,
                  alpha * max_abs(A) * max_abs(B), beta * max_abs(C0));
  EXPECT_LE(max_abs_diff<double>(Cs.view(), Ref.view()), bound);

  // The pooled leg.
  parallel::ThreadPool pool(static_cast<int>(width));
  obs::GemmReport pooled;
  popt.report = &pooled;
  parallel::pmodgemm(&pool, Op::NoTrans, Op::NoTrans, s.m, s.n, s.k, alpha,
                     A.data(), A.ld(), B.data(), B.ld(), beta, Cq.data(),
                     Cq.ld(), popt);
  {
    SCOPED_TRACE("pmodgemm on a pool vs modgemm");
    EXPECT_EQ(serial.plan.m.tile, pooled.plan.m.tile);
    EXPECT_EQ(serial.plan.k.tile, pooled.plan.k.tile);
    EXPECT_EQ(serial.plan.n.tile, pooled.plan.n.tile);
    EXPECT_EQ(serial.plan.depth, pooled.plan.depth);
    EXPECT_EQ(serial.fallback_reason, pooled.fallback_reason);
  }
  EXPECT_EQ(std::memcmp(Cs.data(), Cq.data(), bytes), 0);

  // The batched driver on the same pool.
  item.C = Cqb.data();
  item.ldc = Cqb.ld();
  core::modgemm_batched(&pool, &item, 1, bopt);
  EXPECT_EQ(std::memcmp(Cs.data(), Cqb.data(), bytes), 0);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, DispatchAlike,
    ::testing::Combine(::testing::Range(0, static_cast<int>(
                                               std::size(kShapes))),
                       ::testing::Values(Beta::kHalf, Beta::kZero),
                       ::testing::Values(PoolWidth::kDefault,
                                         PoolWidth::kTwo)),
    // The middle suffix is beta ("AlgoAuto" 0.5, "Algo222" 0), the last the
    // pool width: "ScheduleAuto" the default width, "LowMem" two workers.
    // The names stay as registered when the axes chose an <m,k,n>
    // algorithm and a schedule family.
    [](const auto& case_info) {
      const auto& p = case_info.param;
      return std::string(kShapes[std::get<0>(p)].name) + "_" +
             (std::get<1>(p) == Beta::kHalf ? "AlgoAuto" : "Algo222") +
             "_" +
             (std::get<2>(p) == PoolWidth::kDefault ? "ScheduleAuto"
                                                    : "LowMem");
    });

}  // namespace
}  // namespace strassen
