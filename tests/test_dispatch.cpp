// The three entry points dispatch alike.
//
// core::modgemm, parallel::pmodgemm and a one-item core::modgemm_batched
// share one pipeline (resolve_config -> plan_product -> run_product: the
// product ladder, family runner or split blocks), so on every
// planner-boundary shape they must report the same <m,k,n> family, plan and
// fallback and produce bit-identical C.  Without a pool pmodgemm IS the
// serial pipeline, so it must also run the same execution strategy.  On a
// pool it runs the Morton rung with forked top levels, bit-identical to the
// serial strategies whatever the pool's width.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <string>
#include <tuple>

#include "common/matrix.hpp"
#include "common/rng.hpp"
#include "core/batched.hpp"
#include "core/modgemm.hpp"
#include "parallel/pmodgemm.hpp"

namespace strassen {
namespace {

using analysis::AlgoFamily;

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
};

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
          std::tuple<int, AlgoFamily, PoolWidth>> {};

TEST_P(DispatchAlike, EntryPointsAgree) {
  const auto [index, algo, width] = GetParam();
  const Shape& s = kShapes[index];
  Matrix<double> A(s.m, s.k), B(s.k, s.n), C0(s.m, s.n);
  Rng rng(17);
  rng.fill_uniform(A.storage());
  rng.fill_uniform(B.storage());
  rng.fill_uniform(C0.storage());
  Matrix<double> Cs(s.m, s.n), Cp(s.m, s.n), Cb(s.m, s.n), Cq(s.m, s.n);
  for (Matrix<double>* c : {&Cs, &Cp, &Cb, &Cq})
    std::memcpy(c->data(), C0.data(), sizeof(double) * C0.storage().size());
  const double alpha = 1.5, beta = 0.5;

  core::ModgemmOptions sopt;
  sopt.tiles = s.tiles;
  sopt.algo = algo;
  obs::GemmReport serial;
  core::modgemm(Op::NoTrans, Op::NoTrans, s.m, s.n, s.k, alpha, A.data(),
                A.ld(), B.data(), B.ld(), beta, Cs.data(), Cs.ld(), sopt,
                &serial);

  parallel::ParallelOptions popt;
  popt.tiles = s.tiles;
  popt.algo = algo;
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
  bopt.algo = algo;
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
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, DispatchAlike,
    ::testing::Combine(::testing::Range(0, static_cast<int>(
                                               std::size(kShapes))),
                       ::testing::Values(AlgoFamily::kAuto, AlgoFamily::k222),
                       ::testing::Values(PoolWidth::kDefault,
                                         PoolWidth::kTwo)),
    // The last suffix is the pool width: "ScheduleAuto" the default width,
    // "LowMem" two workers.  The names stay as registered when the axis
    // chose a schedule family.
    [](const auto& case_info) {
      const auto& p = case_info.param;
      return std::string(kShapes[std::get<0>(p)].name) + "_" +
             (std::get<1>(p) == AlgoFamily::kAuto ? "AlgoAuto" : "Algo222") +
             "_" +
             (std::get<2>(p) == PoolWidth::kDefault ? "ScheduleAuto"
                                                    : "LowMem");
    });

}  // namespace
}  // namespace strassen
