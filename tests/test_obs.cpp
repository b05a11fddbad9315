// Observability subsystem tests (src/obs + its hooks through the drivers).
//
// The contracts under test, in the order docs/OBSERVABILITY.md states them:
//
//   * disabled path -- a call without a report makes exactly the same gated
//     allocations as the seed library (one arena for a serial Strassen call)
//     and leaves no collector installed;
//   * enabled path -- phase timers are populated and consistent (phases sum
//     to at most the wall time, leaf time is a subset of compute time),
//     kernel counts match the closed-form Strassen-Winograd identities,
//     workspace accounting matches what the fault injector observes, and a
//     report adds no gated allocations;
//   * JSON -- to_json carries the documented schema id and every section;
//   * env sink -- STRASSEN_OBS=json:PATH appends one JSONL line per
//     top-level production call, flipped at runtime via setenv;
//   * parallel -- pmodgemm fills the parallel section, per-thread task
//     counts sum to the total, and degradation into the serial driver keeps
//     one coherent report (no double counting, fallback recorded).
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>

#include "blas/kernels/registry.hpp"
#include "common/matrix.hpp"
#include "common/rng.hpp"
#include "core/batched.hpp"
#include "core/modgemm.hpp"
#include "obs/collector.hpp"
#include "obs/report.hpp"
#include "parallel/pmodgemm.hpp"
#include "parallel/thread_pool.hpp"
#include "testing/fault_injection.hpp"

namespace strassen {
namespace {

namespace ft = ::strassen::testing;
namespace ker = ::strassen::blas::kernels;
using core::FallbackReason;
using core::ModgemmOptions;
using core::ModgemmReport;

std::uint64_t pow7(int e) {
  std::uint64_t r = 1;
  for (int i = 0; i < e; ++i) r *= 7;
  return r;
}

struct Problem {
  Matrix<double> A, B, C;
  int n;
  explicit Problem(int n_, std::uint64_t seed = 42)
      : A(n_, n_), B(n_, n_), C(n_, n_), n(n_) {
    Rng rng(seed);
    rng.fill_uniform(A.storage());
    rng.fill_uniform(B.storage());
  }
  void run(const ModgemmOptions& opt, ModgemmReport* report = nullptr) {
    core::modgemm(Op::NoTrans, Op::NoTrans, n, n, n, 1.0, A.data(), A.ld(),
                  B.data(), B.ld(), 0.0, C.data(), C.ld(), opt, report);
  }
};

// Forces a depth-2 Strassen execution with a known plan.
ModgemmOptions fixed_depth2() {
  ModgemmOptions opt;
  opt.fixed_tile = 16;  // 64 = 16 << 2
  return opt;
}

// ---------------------------------------------------------------------------
// Disabled path.
// ---------------------------------------------------------------------------

TEST(ObsDisabled, NoCollectorAndSeedAllocationCount) {
  Problem p(64);
  EXPECT_EQ(obs::current(), nullptr);
  ft::FaultInjector counter;  // kCountOnly
  p.run(fixed_depth2());
  // The serial Strassen call makes exactly ONE gated allocation: the arena
  // covering the three Morton buffers and the recursion temporaries.
  EXPECT_EQ(counter.allocations(), 1u);
  EXPECT_EQ(obs::current(), nullptr);
}

TEST(ObsEnabled, ReportAddsNoGatedAllocations) {
  Problem p(64);
  ModgemmReport report;
  ft::FaultInjector counter;
  p.run(fixed_depth2(), &report);
  EXPECT_EQ(counter.allocations(), 1u);
  EXPECT_EQ(report.workspace_allocations, 1);
  EXPECT_EQ(obs::current(), nullptr);
}

// ---------------------------------------------------------------------------
// Phase timers.
// ---------------------------------------------------------------------------

TEST(ObsPhases, PopulatedAndConsistent) {
  Problem p(200);
  ModgemmOptions opt;
  opt.tiles.direct_threshold = 32;  // force a Strassen execution
  // This test asserts Morton-only observables (conversion phases); pin the
  // strategy so it holds under a forced STRASSEN_STRATEGY environment
  // (pin > env).
  opt.strategy = layout::ExecStrategy::kMorton;
  ModgemmReport report;
  p.run(opt, &report);

  EXPECT_EQ(report.m, 200);
  EXPECT_EQ(report.n, 200);
  EXPECT_EQ(report.k, 200);
  EXPECT_STREQ(report.entry, "modgemm");
  EXPECT_GT(report.convert_in_seconds, 0.0);
  EXPECT_GT(report.compute_seconds, 0.0);
  EXPECT_GT(report.convert_out_seconds, 0.0);
  EXPECT_GT(report.leaf_seconds, 0.0);
  EXPECT_GT(report.wall_seconds, 0.0);
  // The three phases nest inside the wall time (validation, planning and
  // arena setup make the wall strictly larger; allow 20% timer noise).
  EXPECT_LE(report.total_seconds(), report.wall_seconds * 1.2);
  // Leaf products execute inside the compute phase.
  EXPECT_LE(report.leaf_seconds, report.compute_seconds * 1.2);
  EXPECT_GT(report.conversion_fraction(), 0.0);
  EXPECT_LT(report.conversion_fraction(), 1.0);
  EXPECT_FALSE(report.plan.direct);
  EXPECT_EQ(report.products, 1);
  EXPECT_GT(report.workspace_peak_bytes, 0u);
  EXPECT_LE(report.workspace_peak_bytes, report.workspace_requested_bytes);
}

TEST(ObsPhases, AccumulateAcrossCalls) {
  Problem p(64);
  ModgemmReport report;
  p.run(fixed_depth2(), &report);
  const double wall1 = report.wall_seconds;
  const std::uint64_t leaves1 = report.leaf_calls;
  p.run(fixed_depth2(), &report);
  EXPECT_EQ(report.products, 2);
  EXPECT_GT(report.wall_seconds, wall1);
  EXPECT_EQ(report.leaf_calls, 2 * leaves1);
  EXPECT_EQ(report.workspace_allocations, 2);
}

TEST(ObsOptions, OptionsPointerAndTrailingParameterAgree) {
  Problem p(64);
  ModgemmReport via_opt, via_param;
  ModgemmOptions opt = fixed_depth2();
  opt.report = &via_opt;
  p.run(opt);
  p.run(fixed_depth2(), &via_param);
  EXPECT_EQ(via_opt.leaf_calls, via_param.leaf_calls);
  EXPECT_EQ(via_opt.elementwise_calls, via_param.elementwise_calls);
  EXPECT_EQ(via_opt.plan.depth, via_param.plan.depth);
  EXPECT_EQ(via_opt.products, 1);
}

// ---------------------------------------------------------------------------
// Kernel telemetry: closed-form Strassen-Winograd counts.
// ---------------------------------------------------------------------------

// Both storages of the schedule interpreter must count alike; depth 2 alone
// would route to pack-fused, so each strategy is pinned in turn.
constexpr layout::ExecStrategy kStorages[] = {layout::ExecStrategy::kMorton,
                                              layout::ExecStrategy::kPackFused};

// Every kernel runs the same materialized schedule: 7^d plain leaves and the
// 15 quadrant additions of every internal node, no fused leaves.
void expect_closed_form_counts(ker::Kind kind) {
  for (layout::ExecStrategy strategy : kStorages) {
    SCOPED_TRACE(std::string(ker::kind_name(kind)) + " " +
                 layout::strategy_name(strategy));
    Problem p(64);
    ModgemmOptions opt = fixed_depth2();
    opt.kernel = kind;
    opt.strategy = strategy;
    ModgemmReport report;
    p.run(opt, &report);

    const int d = report.plan.depth;
    ASSERT_EQ(d, 2);
    EXPECT_EQ(report.plan.strategy, strategy);
    EXPECT_STREQ(report.kernel, ker::kind_name(kind));
    EXPECT_EQ(report.leaf_calls, pow7(d));
    EXPECT_EQ(report.fused_calls, 0u);
    // 15 quadrant additions at each internal node: 15 * (7^d - 1) / 6.
    EXPECT_EQ(report.elementwise_calls, 15 * (pow7(d) - 1) / 6);
  }
}

TEST(ObsKernels, ScalarCountsMatchClosedForm) {
  expect_closed_form_counts(ker::Kind::kScalar);
}

TEST(ObsKernels, FusedCountsMatchClosedForm) {
  // The SIMD kernels once ran fused leaves under the Winograd family; they
  // now run the scalar kernel's schedule and report no fused call.
  bool ran = false;
  for (ker::Kind kind : ker::available_kernels()) {
    if (kind == ker::Kind::kScalar) continue;
    expect_closed_form_counts(kind);
    ran = true;
  }
  if (!ran) GTEST_SKIP() << "no SIMD kernel available";
}

// ---------------------------------------------------------------------------
// Workspace accounting vs the fault injector.
// ---------------------------------------------------------------------------

TEST(ObsWorkspace, RequestedMatchesPublicSizing) {
  Problem p(200);
  ModgemmOptions opt;
  opt.tiles.direct_threshold = 32;
  // modgemm_workspace_bytes sizes the Morton execution; pin the strategy
  // so the equality holds under a forced STRASSEN_STRATEGY environment.
  opt.strategy = layout::ExecStrategy::kMorton;
  ModgemmReport report;
  p.run(opt, &report);
  ASSERT_FALSE(report.plan.direct);
  EXPECT_EQ(report.workspace_requested_bytes,
            core::modgemm_workspace_bytes(report.plan, sizeof(double)));
  EXPECT_EQ(report.workspace_allocations, 1);
  // The Morton arena is sized with no room for leaf panels: a leaf that
  // staged one would overrun it (a refused push degrades the call) or raise
  // the peak past the request.
  EXPECT_EQ(report.workspace_peak_bytes, report.workspace_requested_bytes);
  EXPECT_EQ(report.fallback_reason, FallbackReason::kNone);
  EXPECT_EQ(report.fused_calls, 0u);
}

TEST(ObsWorkspace, FallbackLadderIsRecorded) {
  Problem p(200);
  ModgemmOptions opt;
  opt.tiles.direct_threshold = 32;
  ModgemmReport report;
  {
    // Refuse the (single) arena allocation: the ladder degrades to the
    // conventional path and the report says so.
    ft::FaultInjector inj(ft::FaultMode::kFailOnce, 1);
    p.run(opt, &report);
  }
  EXPECT_EQ(report.fallback_reason, FallbackReason::kAllocDirect);
  EXPECT_EQ(report.products, 1);
  EXPECT_GT(report.compute_seconds, 0.0);
}

// ---------------------------------------------------------------------------
// JSON serialization.
// ---------------------------------------------------------------------------

TEST(ObsJson, CarriesSchemaAndEverySection) {
  Problem p(64);
  ModgemmReport report;
  p.run(fixed_depth2(), &report);
  const std::string json = obs::to_json(report);

  EXPECT_NE(json.find("\"schema\": \"strassen.gemm_report.v6\""),
            std::string::npos);
  for (const char* key :
       {"\"call\"", "\"phases\"", "\"plan\"", "\"workspace\"", "\"kernels\"",
        "\"parallel\"", "\"wall_s\"", "\"leaf_calls\"", "\"peak_bytes\"",
        "\"fallback\"", "\"steals\"", "\"per_thread_tasks\"",
        "\"pad_elems\"", "\"schedule\"", "\"strategy\"", "\"algo\"",
        "\"saved_bytes\"",
        "\"conversion_saved_bytes\"", "\"batch\"", "\"classes\"",
        "\"plan_cache_hits\"", "\"plan_cache_misses\"",
        "\"workspace_acquisitions\"", "\"workspace_cold_allocs\"",
        "\"tune_cache\""})
    EXPECT_NE(json.find(key), std::string::npos) << "missing " << key;
  // One line, balanced braces.
  EXPECT_EQ(json.find('\n'), std::string::npos);
  int depth = 0;
  for (char c : json) {
    if (c == '{') ++depth;
    if (c == '}') --depth;
  }
  EXPECT_EQ(depth, 0);

  std::ostringstream os;
  obs::write_json(os, report);
  EXPECT_EQ(os.str(), json);
}

TEST(ObsJson, PadElemsMatchesPlanArithmetic) {
  Problem p(64);
  ModgemmReport report;
  p.run(fixed_depth2(), &report);
  // fixed_tile=16 pads every dimension of a 64-problem to 64: no padding.
  EXPECT_EQ(report.pad_elems(), 0);

  Problem q(63);
  ModgemmReport r63;
  q.run(fixed_depth2(), &r63);
  // 63 -> 64 padded: each operand pays 64*64 - 63*63.
  EXPECT_EQ(r63.pad_elems(), 3 * (64 * 64 - 63 * 63));
}

// ---------------------------------------------------------------------------
// Env sink.
// ---------------------------------------------------------------------------

TEST(ObsEnvSink, AppendsOneJsonlLinePerCall) {
  const std::string path =
      ::testing::TempDir() + "/strassen_obs_test.jsonl";
  std::remove(path.c_str());
  ASSERT_EQ(::setenv("STRASSEN_OBS", ("json:" + path).c_str(), 1), 0);
  Problem p(64);
  p.run(fixed_depth2());
  p.run(fixed_depth2());
  ASSERT_EQ(::unsetenv("STRASSEN_OBS"), 0);
  p.run(fixed_depth2());  // sink off again: must not append

  std::ifstream in(path);
  ASSERT_TRUE(in.good()) << "sink did not create " << path;
  int lines = 0;
  std::string line;
  while (std::getline(in, line)) {
    ++lines;
    EXPECT_NE(line.find("\"schema\": \"strassen.gemm_report.v6\""),
              std::string::npos);
    EXPECT_NE(line.find("\"entry\": \"modgemm\""), std::string::npos);
  }
  EXPECT_EQ(lines, 2);
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// Parallel driver.
// ---------------------------------------------------------------------------

// The pooled result against the serial one for an n x n x n product: bit
// identical.
void expect_matches_serial(const Matrix<double>& serial,
                           const Matrix<double>& pooled) {
  ASSERT_EQ(serial.storage().size(), pooled.storage().size());
  EXPECT_EQ(std::memcmp(serial.data(), pooled.data(),
                        serial.storage().size() * sizeof(double)),
            0);
}

TEST(ObsParallel, PmodgemmFillsParallelSection) {
  const int n = 256;
  Problem p(n);
  Matrix<double> Cserial(n, n);
  core::modgemm(Op::NoTrans, Op::NoTrans, n, n, n, 1.0, p.A.data(), p.A.ld(),
                p.B.data(), p.B.ld(), 0.0, Cserial.data(), Cserial.ld());

  parallel::ThreadPool pool(4);
  parallel::ParallelOptions popt;
  popt.spawn_levels = 1;
  ModgemmReport report;
  popt.report = &report;
  parallel::pmodgemm(&pool, Op::NoTrans, Op::NoTrans, n, n, n, 1.0,
                     p.A.data(), p.A.ld(), p.B.data(), p.B.ld(), 0.0,
                     p.C.data(), p.C.ld(), popt);

  // Observability must not perturb the bit-exactness contract.
  expect_matches_serial(Cserial, p.C);

  EXPECT_STREQ(report.entry, "pmodgemm");
  EXPECT_STREQ(report.strategy, "morton");
  EXPECT_TRUE(report.parallel);
  EXPECT_EQ(report.threads, 4);
  EXPECT_EQ(report.spawn_levels, 1);
  // 7 product tasks plus the parallel_for conversion chunks.
  EXPECT_GE(report.tasks_executed, 7u);
  EXPECT_GT(report.task_busy_seconds, 0.0);
  EXPECT_GT(report.wall_seconds, 0.0);
  std::uint64_t per_thread_total = 0;
  for (std::uint64_t t : report.per_thread_tasks) per_thread_total += t;
  EXPECT_EQ(per_thread_total, report.tasks_executed);
  EXPECT_EQ(report.per_thread_tasks.size(), 5u);  // caller + 4 workers
  // The parallel schedule keeps everything live at once.
  EXPECT_GT(report.workspace_requested_bytes, 0u);
  EXPECT_EQ(report.workspace_peak_bytes, report.workspace_requested_bytes);
  // One Morton arena, the spawn level's arena and the 7 task arenas.
  EXPECT_EQ(report.workspace_allocations, 1 + 1 + 7);
  EXPECT_GT(report.leaf_calls, 0u);
  EXPECT_GT(report.pool_utilization(), 0.0);
  // Steals are scheduling-dependent (0 is legal on a loaded host), but they
  // can never exceed the number of tasks that ran.
  EXPECT_LE(report.steals, report.tasks_executed);
}

// pool_utilization() is a fraction of what the pool can do: its workers
// plus the caller, which runs tasks while it joins.  On a 1-worker pool the
// two threads' busy time once read as 1.6-1.9 against the worker alone.
TEST(ObsParallel, PoolUtilizationIsAFraction) {
  const int n = 256;
  Problem p(n);
  parallel::ThreadPool pool(1);
  parallel::ParallelOptions popt;
  popt.spawn_levels = 2;
  ModgemmReport report;
  popt.report = &report;
  parallel::pmodgemm(&pool, Op::NoTrans, Op::NoTrans, n, n, n, 1.0,
                     p.A.data(), p.A.ld(), p.B.data(), p.B.ld(), 0.0,
                     p.C.data(), p.C.ld(), popt);
  ASSERT_TRUE(report.parallel);
  ASSERT_EQ(report.threads, 1);
  EXPECT_GT(report.pool_utilization(), 0.0);
  EXPECT_LE(report.pool_utilization(), 1.0);
}

TEST(ObsParallel, DeepSpawnReportsEffectiveLevelsAndTaskFanout) {
  const int n = 256;
  Problem p(n);
  Matrix<double> Cserial(n, n);
  core::modgemm(Op::NoTrans, Op::NoTrans, n, n, n, 1.0, p.A.data(), p.A.ld(),
                p.B.data(), p.B.ld(), 0.0, Cserial.data(), Cserial.ld());

  parallel::ThreadPool pool(4);
  parallel::ParallelOptions popt;
  // Fork at EVERY level: the pin is the plan depth.
  popt.spawn_levels = layout::plan_gemm(n, n, n, popt.tiles).depth;
  ModgemmReport report;
  popt.report = &report;
  parallel::pmodgemm(&pool, Op::NoTrans, Op::NoTrans, n, n, n, 1.0,
                     p.A.data(), p.A.ld(), p.B.data(), p.B.ld(), 0.0,
                     p.C.data(), p.C.ld(), popt);
  expect_matches_serial(Cserial, p.C);

  // The report carries the full plan depth, and the task count covers the
  // whole spawn tree: sum_{l=1..d} 7^l product tasks.
  EXPECT_STREQ(report.strategy, "morton");
  const int d = report.plan.depth;
  ASSERT_GE(d, 2);
  EXPECT_EQ(report.spawn_levels, d);
  std::uint64_t product_tasks = 0;
  for (int l = 1; l <= d; ++l) product_tasks += pow7(l);
  EXPECT_GE(report.tasks_executed, product_tasks);
  EXPECT_LE(report.steals, report.tasks_executed);
  std::uint64_t per_thread_total = 0;
  for (std::uint64_t t : report.per_thread_tasks) per_thread_total += t;
  EXPECT_EQ(per_thread_total, report.tasks_executed);

  // Auto mode reports the depth the fork rule resolved to for this pool.
  ModgemmReport auto_report;
  popt.spawn_levels = parallel::kSpawnAuto;
  popt.report = &auto_report;
  parallel::pmodgemm(&pool, Op::NoTrans, Op::NoTrans, n, n, n, 1.0,
                     p.A.data(), p.A.ld(), p.B.data(), p.B.ld(), 0.0,
                     p.C.data(), p.C.ld(), popt);
  expect_matches_serial(Cserial, p.C);
  const layout::GemmPlan& plan = auto_report.plan;
  EXPECT_EQ(auto_report.spawn_levels,
            parallel::fork_levels(&pool, plan.m.tile, plan.k.tile,
                                  plan.n.tile, plan.depth,
                                  popt.min_task_flops));
}

TEST(ObsParallel, AllocFailureDegradesIntoOneCoherentReport) {
  const int n = 256;
  Problem p(n);
  Matrix<double> Cserial(n, n);
  core::modgemm(Op::NoTrans, Op::NoTrans, n, n, n, 1.0, p.A.data(), p.A.ld(),
                p.B.data(), p.B.ld(), 0.0, Cserial.data(), Cserial.ld());

  parallel::ThreadPool pool(2);
  parallel::ParallelOptions popt;
  ModgemmReport report;
  popt.report = &report;
  {
    // Kill the first Morton buffer: pmodgemm falls back to the serial
    // driver, which reports through the same GemmReport.
    ft::FaultInjector inj(ft::FaultMode::kFailOnce, 1);
    parallel::pmodgemm(&pool, Op::NoTrans, Op::NoTrans, n, n, n, 1.0,
                       p.A.data(), p.A.ld(), p.B.data(), p.B.ld(), 0.0,
                       p.C.data(), p.C.ld(), popt);
  }
  EXPECT_EQ(max_abs_diff<double>(p.C.view(), Cserial.view()), 0.0);

  EXPECT_STREQ(report.entry, "pmodgemm");
  EXPECT_EQ(report.fallback_reason, FallbackReason::kAllocDirect);
  // The serial rerun's execution is fully accounted (one product, phases).
  EXPECT_EQ(report.products, 1);
  EXPECT_GT(report.compute_seconds, 0.0);
  EXPECT_GT(report.leaf_calls, 0u);
}

TEST(ObsParallel, MortonPathStampsStrategy) {
  const int m = 300, k = 500, n = 400;
  Rng rng(5);
  Matrix<double> A(m, k), B(k, n), C(m, n);
  rng.fill_uniform(A.storage());
  rng.fill_uniform(B.storage());
  parallel::ThreadPool pool(2);
  parallel::ParallelOptions popt;
  ModgemmReport report;
  popt.report = &report;
  parallel::pmodgemm(&pool, Op::NoTrans, Op::NoTrans, m, n, k, 1.0, A.data(),
                     A.ld(), B.data(), B.ld(), 0.0, C.data(), C.ld(), popt);
  ASSERT_FALSE(report.split_used);
  ASSERT_FALSE(report.plan.direct);
  EXPECT_STREQ(report.strategy, "morton");
  EXPECT_EQ(report.plan.strategy, layout::ExecStrategy::kMorton);
}

TEST(ObsParallel, NullPoolReportsTheSerialCall) {
  // With no pool pmodgemm is the serial pipeline: nothing forks, even under
  // an explicit spawn_levels, and the report matches core::modgemm's.
  const int n = 256;
  Problem p(n);
  Matrix<double> Cserial(n, n);
  ModgemmReport serial;
  core::modgemm(Op::NoTrans, Op::NoTrans, n, n, n, 1.0, p.A.data(), p.A.ld(),
                p.B.data(), p.B.ld(), 0.0, Cserial.data(), Cserial.ld(), {},
                &serial);
  parallel::ParallelOptions popt;
  popt.spawn_levels = 1;
  ModgemmReport report;
  popt.report = &report;
  parallel::pmodgemm(nullptr, Op::NoTrans, Op::NoTrans, n, n, n, 1.0,
                     p.A.data(), p.A.ld(), p.B.data(), p.B.ld(), 0.0,
                     p.C.data(), p.C.ld(), popt);
  EXPECT_EQ(max_abs_diff<double>(p.C.view(), Cserial.view()), 0.0);
  EXPECT_FALSE(report.parallel);
  EXPECT_EQ(report.threads, 0);
  EXPECT_EQ(report.spawn_levels, 0);
  EXPECT_EQ(report.tasks_executed, 0u);
  EXPECT_STREQ(report.strategy, serial.strategy);
  EXPECT_EQ(report.workspace_requested_bytes,
            serial.workspace_requested_bytes);
  EXPECT_EQ(report.workspace_allocations, serial.workspace_allocations);
}

// ---------------------------------------------------------------------------
// Sub-report merging: split blocks and batch items fold into the call report
// through obs::merge_sub_report.
// ---------------------------------------------------------------------------

TEST(ObsMerge, EveryFieldFolds) {
  ModgemmReport into;
  into.compute_seconds = 1.0;
  into.products = 1;
  into.workspace_peak_bytes = 100;
  into.fallback_reason = FallbackReason::kDepthReduced;
  ModgemmReport sub;
  sub.convert_in_seconds = 0.5;
  sub.compute_seconds = 2.0;
  sub.convert_out_seconds = 0.25;
  sub.products = 2;
  sub.workspace_requested_bytes = 64;
  sub.workspace_allocations = 3;
  sub.workspace_peak_bytes = 80;
  sub.workspace_saved_bytes = 7;
  sub.conversion_saved_bytes = 11;
  sub.batch_workspace_acquisitions = 2;
  sub.batch_workspace_cold_allocs = 1;
  sub.split_used = true;
  sub.fallback_reason = FallbackReason::kScheduleSwap;
  sub.plan.depth = 3;
  sub.schedule = "winograd-inplace";
  sub.strategy = "packfused";
  sub.algo = "222";
  obs::merge_sub_report(into, sub);
  EXPECT_EQ(into.convert_in_seconds, 0.5);
  EXPECT_EQ(into.compute_seconds, 3.0);
  EXPECT_EQ(into.convert_out_seconds, 0.25);
  EXPECT_EQ(into.products, 3);
  EXPECT_EQ(into.workspace_requested_bytes, 64u);
  EXPECT_EQ(into.workspace_allocations, 3);
  EXPECT_EQ(into.workspace_peak_bytes, 100u);
  EXPECT_EQ(into.workspace_saved_bytes, 7u);
  EXPECT_EQ(into.conversion_saved_bytes, 11u);
  EXPECT_EQ(into.batch_workspace_acquisitions, 2u);
  EXPECT_EQ(into.batch_workspace_cold_allocs, 1u);
  EXPECT_TRUE(into.split_used);
  EXPECT_EQ(into.fallback_reason, FallbackReason::kDepthReduced);
  EXPECT_EQ(into.plan.depth, 3);
  EXPECT_STREQ(into.schedule, "winograd-inplace");
  EXPECT_STREQ(into.strategy, "packfused");
  EXPECT_STREQ(into.algo, "222");
}

// Rectangular product on the serial driver and on pmodgemm's split path.
struct SplitShape {
  int m = 100, k = 4000, n = 150;
  Matrix<double> A{100, 4000}, B{4000, 150}, C{100, 150};
  SplitShape() {
    Rng rng(9);
    rng.fill_uniform(A.storage());
    rng.fill_uniform(B.storage());
  }
  ModgemmReport serial() {
    ModgemmReport r;
    core::modgemm(Op::NoTrans, Op::NoTrans, m, n, k, 1.0, A.data(), A.ld(),
                  B.data(), B.ld(), 0.0, C.data(), C.ld(), ModgemmOptions{},
                  &r);
    return r;
  }
  ModgemmReport parallel() {
    parallel::ThreadPool pool(2);
    parallel::ParallelOptions popt;
      ModgemmReport r;
    popt.report = &r;
    parallel::pmodgemm(&pool, Op::NoTrans, Op::NoTrans, m, n, k, 1.0,
                       A.data(), A.ld(), B.data(), B.ld(), 0.0, C.data(),
                       C.ld(), popt);
    return r;
  }
};

TEST(ObsMerge, PmodgemmSplitKeepsStrategy) {
  SplitShape s;
  const ModgemmReport ser = s.serial();
  const ModgemmReport par = s.parallel();
  ASSERT_TRUE(par.split_used);
  ASSERT_STRNE(ser.strategy, "");
  EXPECT_STREQ(par.strategy, ser.strategy);
}

TEST(ObsMerge, PmodgemmSplitKeepsConversionSavings) {
  SplitShape s;
  const ModgemmReport ser = s.serial();
  const ModgemmReport par = s.parallel();
  EXPECT_EQ(par.conversion_saved_bytes, ser.conversion_saved_bytes);
}

TEST(ObsMerge, BatchedReportCarriesAlgo) {
  const int m = 256, n = 361, k = 2304;
  Rng rng(13);
  Matrix<double> A(m, k), B(k, n), C0(m, n), C1(m, n), Cs(m, n);
  rng.fill_uniform(A.storage());
  rng.fill_uniform(B.storage());
  ModgemmReport serial;
  core::modgemm(Op::NoTrans, Op::NoTrans, m, n, k, 1.0, A.data(), A.ld(),
                B.data(), B.ld(), 0.0, Cs.data(), Cs.ld(), ModgemmOptions{},
                &serial);
  EXPECT_STREQ(serial.algo, "222");

  core::BatchItem items[2];
  Matrix<double>* outs[2] = {&C0, &C1};
  for (int i = 0; i < 2; ++i) {
    items[i].m = m;
    items[i].n = n;
    items[i].k = k;
    items[i].A = A.data();
    items[i].lda = A.ld();
    items[i].B = B.data();
    items[i].ldb = B.ld();
    items[i].C = outs[i]->data();
    items[i].ldc = outs[i]->ld();
  }
  ModgemmReport batched;
  core::modgemm_batched(nullptr, items, 2, core::BatchedOptions{}, &batched);
  EXPECT_STREQ(batched.algo, serial.algo);
}

}  // namespace
}  // namespace strassen
