// Tests for the batched GEMM service core (src/core/batched).
//
// Contracts under test: every product of a valid batch is EXACTLY what the
// serial driver would compute for the same arguments (the batch is pure
// amortization, never approximation); an argument error rejects the whole
// batch before any C is touched; a batch of identical products plans once
// and amortizes workspace through the per-thread arena cache (asserted via
// the GemmReport v5 batch fields); injected allocation failures degrade
// per product, exact-or-untouched.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "blas/gemm.hpp"
#include "common/matrix.hpp"
#include "common/rng.hpp"
#include "core/batched.hpp"
#include "parallel/pmodgemm.hpp"
#include "testing/fault_injection.hpp"
#include "tune/plan_cache.hpp"

namespace strassen::core {
namespace {

// One self-owning batch product: operands sized for (op, m, n, k), C seeded
// so beta paths are exercised, plus a serial-reference copy.
struct Product {
  Matrix<double> A, B, C, Ref;
  BatchItem item;

  Product(Op opa, Op opb, int m, int n, int k, double alpha, double beta,
          std::uint64_t seed)
      : A(opa == Op::NoTrans ? std::max(m, 1) : std::max(k, 1),
          opa == Op::NoTrans ? std::max(k, 1) : std::max(m, 1)),
        B(opb == Op::NoTrans ? std::max(k, 1) : std::max(n, 1),
          opb == Op::NoTrans ? std::max(n, 1) : std::max(k, 1)),
        C(std::max(m, 1), std::max(n, 1)),
        Ref(std::max(m, 1), std::max(n, 1)) {
    Rng rng(seed);
    rng.fill_int(A.storage());
    rng.fill_int(B.storage());
    rng.fill_int(C.storage());
    for (std::size_t i = 0; i < C.storage().size(); ++i)
      Ref.storage()[i] = C.storage()[i];
    item = {opa, opb, m,        n,        k,       alpha,  A.data(),
            A.ld(), B.data(),   B.ld(),   beta,    C.data(), C.ld()};
  }

  void run_serial_reference() {
    modgemm(item.opa, item.opb, item.m, item.n, item.k, item.alpha, item.A,
            item.lda, item.B, item.ldb, item.beta, Ref.data(), Ref.ld());
  }

  double diff() const { return max_abs_diff<double>(C.view(), Ref.view()); }
};

std::vector<BatchItem> items_of(std::vector<Product>& products) {
  std::vector<BatchItem> items;
  for (Product& p : products) items.push_back(p.item);
  return items;
}

TEST(Batched, MixedShapesOpsAndScalarsMatchSerial) {
  std::vector<Product> products;
  products.emplace_back(Op::NoTrans, Op::NoTrans, 96, 96, 96, 1.0, 0.0, 1);
  products.emplace_back(Op::Trans, Op::NoTrans, 96, 96, 96, 1.0, 0.0, 2);
  products.emplace_back(Op::NoTrans, Op::Trans, 80, 112, 64, -0.5, 2.0, 3);
  products.emplace_back(Op::Trans, Op::Trans, 112, 80, 96, 2.0, 1.0, 4);
  products.emplace_back(Op::NoTrans, Op::NoTrans, 33, 47, 29, 1.0, 0.5, 5);
  // Degenerate members: empty C, rank-0 update, alpha == 0 (pure scaling).
  products.emplace_back(Op::NoTrans, Op::NoTrans, 0, 16, 16, 1.0, 0.0, 6);
  products.emplace_back(Op::NoTrans, Op::NoTrans, 16, 16, 0, 1.0, 0.5, 7);
  products.emplace_back(Op::NoTrans, Op::NoTrans, 16, 16, 16, 0.0, 3.0, 8);
  // A thin member (direct class) and a highly rectangular one whose depth
  // windows cannot intersect (the split path).
  products.emplace_back(Op::NoTrans, Op::NoTrans, 40, 400, 24, 1.0, 0.0, 9);
  products.emplace_back(Op::NoTrans, Op::NoTrans, 80, 80, 1200, 1.0, 0.0, 10);
  for (Product& p : products) p.run_serial_reference();

  const std::vector<BatchItem> items = items_of(products);
  parallel::ThreadPool pool(4);
  obs::GemmReport report;
  modgemm_batched(&pool, items.data(), static_cast<int>(items.size()), {},
                  &report);

  for (std::size_t i = 0; i < products.size(); ++i)
    EXPECT_EQ(products[i].diff(), 0.0) << "product " << i;
  EXPECT_STREQ(report.entry, "modgemm_batched");
  EXPECT_EQ(report.batch_count, static_cast<int>(items.size()));
  EXPECT_GT(report.batch_classes, 0);
  EXPECT_TRUE(report.parallel);
}

TEST(Batched, NullPoolRunsInlineAndStaysExact) {
  std::vector<Product> products;
  for (int i = 0; i < 6; ++i)
    products.emplace_back(Op::NoTrans, Op::NoTrans, 96, 96, 96, 1.0, 0.0,
                          100 + i);
  for (Product& p : products) p.run_serial_reference();
  const std::vector<BatchItem> items = items_of(products);
  obs::GemmReport report;
  modgemm_batched(nullptr, items.data(), static_cast<int>(items.size()), {},
                  &report);
  for (std::size_t i = 0; i < products.size(); ++i)
    EXPECT_EQ(products[i].diff(), 0.0) << "product " << i;
  EXPECT_FALSE(report.parallel);
  EXPECT_EQ(report.threads, 0);
}

TEST(Batched, CountZeroIsANoOp) {
  obs::GemmReport report;
  modgemm_batched(nullptr, nullptr, 0, {}, &report);
  EXPECT_EQ(report.batch_count, 0);
  EXPECT_EQ(report.batch_classes, 0);
  EXPECT_STREQ(report.entry, "modgemm_batched");
}

TEST(Batched, StridedBatchedMatchesPerItemLoop) {
  const int m = 72, n = 88, k = 64, batch = 5;
  Rng rng(11);
  Matrix<double> A(m, k * batch), B(k, n * batch), C(m, n * batch),
      Ref(m, n * batch);
  rng.fill_int(A.storage());
  rng.fill_int(B.storage());
  rng.fill_int(C.storage());
  for (std::size_t i = 0; i < C.storage().size(); ++i)
    Ref.storage()[i] = C.storage()[i];
  const std::int64_t sa = static_cast<std::int64_t>(A.ld()) * k;
  const std::int64_t sb = static_cast<std::int64_t>(B.ld()) * n;
  const std::int64_t sc = static_cast<std::int64_t>(C.ld()) * n;
  for (int i = 0; i < batch; ++i)
    modgemm(Op::NoTrans, Op::NoTrans, m, n, k, 1.0, A.data() + i * sa, A.ld(),
            B.data() + i * sb, B.ld(), 0.5, Ref.data() + i * sc, Ref.ld());

  parallel::ThreadPool pool(2);
  modgemm_strided_batched(&pool, Op::NoTrans, Op::NoTrans, m, n, k, 1.0,
                          A.data(), A.ld(), sa, B.data(), B.ld(), sb, 0.5,
                          C.data(), C.ld(), sc, batch);
  EXPECT_EQ(max_abs_diff<double>(C.view(), Ref.view()), 0.0);
}

TEST(Batched, StridedBroadcastSharesAnOperand) {
  // stride_a == 0 broadcasts A across the batch (the attention-style shape).
  const int n = 64, batch = 4;
  Rng rng(13);
  Matrix<double> A(n, n), B(n, n * batch), C(n, n * batch), Ref(n, n * batch);
  rng.fill_int(A.storage());
  rng.fill_int(B.storage());
  const std::int64_t sb = static_cast<std::int64_t>(B.ld()) * n;
  const std::int64_t sc = static_cast<std::int64_t>(C.ld()) * n;
  for (int i = 0; i < batch; ++i)
    modgemm(Op::NoTrans, Op::NoTrans, n, n, n, 1.0, A.data(), A.ld(),
            B.data() + i * sb, B.ld(), 0.0, Ref.data() + i * sc, Ref.ld());
  modgemm_strided_batched(nullptr, Op::NoTrans, Op::NoTrans, n, n, n, 1.0,
                          A.data(), A.ld(), 0, B.data(), B.ld(), sb, 0.0,
                          C.data(), C.ld(), sc, batch);
  EXPECT_EQ(max_abs_diff<double>(C.view(), Ref.view()), 0.0);
}

TEST(Batched, BadItemRejectsTheWholeBatchBeforeAnyWrite) {
  std::vector<Product> products;
  for (int i = 0; i < 3; ++i)
    products.emplace_back(Op::NoTrans, Op::NoTrans, 64, 64, 64, 1.0, 0.0,
                          200 + i);
  std::vector<BatchItem> items = items_of(products);
  items[2].lda = 1;  // too small for m = 64

  // Poison every C; after the rejected call each must be bit-unchanged.
  std::vector<std::vector<double>> poisons;
  for (Product& p : products) {
    std::vector<double> snap(p.C.storage().size());
    for (std::size_t i = 0; i < snap.size(); ++i) snap[i] = p.C.storage()[i];
    poisons.push_back(std::move(snap));
  }
  EXPECT_THROW(modgemm_batched(nullptr, items.data(),
                               static_cast<int>(items.size())),
               std::invalid_argument);
  for (std::size_t p = 0; p < products.size(); ++p)
    for (std::size_t i = 0; i < poisons[p].size(); ++i)
      ASSERT_EQ(products[p].C.storage()[i], poisons[p][i])
          << "C of product " << p << " was touched at " << i;

  EXPECT_EQ(try_modgemm_batched(nullptr, items.data(),
                                static_cast<int>(items.size())),
            Status::kBadLda);
}

TEST(Batched, TryVariantsReturnPreciseStatuses) {
  Matrix<double> A(64, 64), B(64, 64), C(64, 64);
  EXPECT_EQ(try_modgemm_batched(nullptr, nullptr, -1), Status::kBadM);
  EXPECT_EQ(try_modgemm_batched(nullptr, nullptr, 3), Status::kBadM);
  EXPECT_EQ(try_modgemm_batched(nullptr, nullptr, 0), Status::kOk);
  // stride_c smaller than one C footprint -> outputs would alias.
  EXPECT_EQ(try_modgemm_strided_batched(nullptr, Op::NoTrans, Op::NoTrans, 64,
                                        64, 64, 1.0, A.data(), 64, 0,
                                        B.data(), 64, 0, 0.0, C.data(), 64,
                                        64, 2),
            Status::kBadLdc);
  EXPECT_EQ(try_modgemm_strided_batched(nullptr, Op::NoTrans, Op::NoTrans, 64,
                                        64, 64, 1.0, A.data(), 64, -1,
                                        B.data(), 64, 0, 0.0, C.data(), 64,
                                        64 * 64, 2),
            Status::kBadLda);
}

TEST(Batched, IdenticalProductsPlanOnceAndAmortizeWorkspace) {
  // A shape no other test uses, so this test owns its plan-cache entry.
  const int n = 104, batch = 16, threads = 4;
  std::vector<Product> products;
  for (int i = 0; i < batch; ++i)
    products.emplace_back(Op::NoTrans, Op::NoTrans, n, n, n, 1.0, 0.0,
                          300 + i);
  for (Product& p : products) p.run_serial_reference();
  const std::vector<BatchItem> items = items_of(products);

  parallel::ThreadPool pool(threads);
  // Pinned to <2,2,2>: the acceptance counters below describe the pooled
  // task-per-product path, but a forced STRASSEN_ALGO run would route every
  // product through the serial family driver, which never touches the pool
  // arena cache (acquisitions would read 0).  Pin > env.
  BatchedOptions bopt;
  bopt.algo = analysis::AlgoFamily::k222;
  obs::GemmReport first;
  modgemm_batched(&pool, items.data(), batch, bopt, &first);
  for (std::size_t i = 0; i < products.size(); ++i)
    EXPECT_EQ(products[i].diff(), 0.0) << "product " << i;

  // The acceptance criterion: B identical products, exactly ONE planning
  // pass...
  EXPECT_EQ(first.batch_classes, 1);
  EXPECT_EQ(first.batch_plan_cache_hits + first.batch_plan_cache_misses, 1u);
  // ...and workspace acquisitions amortized through the per-thread arena
  // cache: one acquisition per product, cold allocations bounded by the pool
  // width + the caller, NOT by the batch size.
  EXPECT_EQ(first.batch_workspace_acquisitions,
            static_cast<std::uint64_t>(batch));
  EXPECT_LE(first.batch_workspace_cold_allocs,
            static_cast<std::uint64_t>(threads + 1));

  // A second identical batch hits the plan cache (same process).
  obs::GemmReport second;
  modgemm_batched(&pool, items.data(), batch, bopt, &second);
  EXPECT_EQ(second.batch_classes, 1);
  EXPECT_EQ(second.batch_plan_cache_hits, 1u);
  EXPECT_EQ(second.batch_plan_cache_misses, 0u);
}

TEST(Batched, PlanCacheOffStillPlansOncePerClass) {
  const int n = 96, batch = 8;
  std::vector<Product> products;
  for (int i = 0; i < batch; ++i)
    products.emplace_back(Op::NoTrans, Op::NoTrans, n, n, n, 1.0, 0.0,
                          400 + i);
  for (Product& p : products) p.run_serial_reference();
  const std::vector<BatchItem> items = items_of(products);
  BatchedOptions opt;
  opt.use_plan_cache = false;
  obs::GemmReport report;
  modgemm_batched(nullptr, items.data(), batch, opt, &report);
  for (std::size_t i = 0; i < products.size(); ++i)
    EXPECT_EQ(products[i].diff(), 0.0) << "product " << i;
  EXPECT_EQ(report.batch_classes, 1);
  EXPECT_EQ(report.batch_plan_cache_hits, 0u);
  EXPECT_EQ(report.batch_plan_cache_misses, 1u);
}

TEST(Batched, PinnedStrategyAndScheduleStayExact) {
  for (const layout::ExecStrategy strategy :
       {layout::ExecStrategy::kMorton, layout::ExecStrategy::kPackFused}) {
    std::vector<Product> products;
    for (int i = 0; i < 4; ++i)
      products.emplace_back(Op::NoTrans, Op::NoTrans, 128, 128, 128, 1.0, 1.0,
                            500 + i);
    for (Product& p : products) p.run_serial_reference();
    const std::vector<BatchItem> items = items_of(products);
    parallel::ThreadPool pool(2);
    BatchedOptions opt;
    opt.strategy = strategy;
    modgemm_batched(&pool, items.data(), static_cast<int>(items.size()), opt);
    for (std::size_t i = 0; i < products.size(); ++i)
      EXPECT_EQ(products[i].diff(), 0.0)
          << "strategy " << static_cast<int>(strategy) << " product " << i;
  }
}

TEST(Batched, BigProductsDeepSpawnAndStayExact) {
  // One product whose sub-products reach min_task_flops runs as a forking
  // pmodgemm call; the small ones fan out as tasks.  Both routes must match
  // the serial reference exactly.
  std::vector<Product> products;
  products.emplace_back(Op::NoTrans, Op::NoTrans, 320, 320, 320, 1.0, 0.0,
                        600);
  for (int i = 0; i < 5; ++i)
    products.emplace_back(Op::NoTrans, Op::NoTrans, 96, 96, 96, 1.0, 0.0,
                          601 + i);
  for (Product& p : products) p.run_serial_reference();
  const std::vector<BatchItem> items = items_of(products);
  parallel::ThreadPool pool(4);
  BatchedOptions opt;
  // Only the 320 product is deep: its children (160^3 padded) reach 2^21,
  // the 96 products' (48^3) do not.  Morton pinned: pack-fused products
  // never take the pmodgemm route.
  opt.min_task_flops = std::int64_t{1} << 21;
  opt.strategy = layout::ExecStrategy::kMorton;
  obs::GemmReport report;
  modgemm_batched(&pool, items.data(), static_cast<int>(items.size()), opt,
                  &report);
  for (std::size_t i = 0; i < products.size(); ++i)
    EXPECT_EQ(products[i].diff(), 0.0) << "product " << i;
  // One task per small product, plus at least the 7 forked sub-products of
  // the deep one (run as a single task it would add just 1).
  EXPECT_GE(report.tasks_executed, 5u + 7u);
}

TEST(Batched, WinogradLayerRunsOneTaskPerProduct) {
  // The Go-engine Winograd-domain batch: 36 x 256x200x256 with op(A) = T.
  // Its sub-products (128x100x128 at most) fall below min_task_flops, so
  // pmodgemm would not fork them: each product is one pool task, with no
  // nested conversion fan-out, and stays bit-identical to serial modgemm.
  const int m = 256, n = 256, k = 200, batch = 36;
  Rng rng(37);
  Matrix<double> A(k, m * batch), B(k, n * batch), C(m, n * batch),
      Ref(m, n * batch);
  rng.fill_uniform(A.storage());
  rng.fill_uniform(B.storage());
  const std::int64_t sa = static_cast<std::int64_t>(A.ld()) * m;
  const std::int64_t sb = static_cast<std::int64_t>(B.ld()) * n;
  const std::int64_t sc = static_cast<std::int64_t>(C.ld()) * n;
  for (int i = 0; i < batch; ++i)
    modgemm(Op::Trans, Op::NoTrans, m, n, k, 1.0, A.data() + i * sa, A.ld(),
            B.data() + i * sb, B.ld(), 0.0, Ref.data() + i * sc, Ref.ld());

  parallel::ThreadPool pool(3);
  obs::GemmReport report;
  modgemm_strided_batched(&pool, Op::Trans, Op::NoTrans, m, n, k, 1.0,
                          A.data(), A.ld(), sa, B.data(), B.ld(), sb, 0.0,
                          C.data(), C.ld(), sc, batch, {}, &report);
  EXPECT_EQ(report.tasks_executed, static_cast<std::uint64_t>(batch));
  EXPECT_EQ(std::memcmp(C.data(), Ref.data(),
                        C.storage().size() * sizeof(double)),
            0);
}

TEST(Batched, WorkspaceBudgetDegradesPerClassAndStaysExact) {
  std::vector<Product> products;
  for (int i = 0; i < 4; ++i)
    products.emplace_back(Op::NoTrans, Op::NoTrans, 160, 160, 160, 1.0, 0.0,
                          700 + i);
  for (Product& p : products) p.run_serial_reference();
  const std::vector<BatchItem> items = items_of(products);
  BatchedOptions opt;
  opt.max_workspace_bytes = 1;  // nothing fits: budget-direct for the class
  obs::GemmReport report;
  modgemm_batched(nullptr, items.data(), static_cast<int>(items.size()), opt,
                  &report);
  for (std::size_t i = 0; i < products.size(); ++i)
    EXPECT_EQ(products[i].diff(), 0.0) << "product " << i;
  EXPECT_EQ(report.fallback_reason, obs::FallbackReason::kBudgetDirect);
}

TEST(BatchedFaults, EveryInjectedAllocationFailureKeepsEveryProductExact) {
  // Count the batch's allocation sites, then fail each one in turn.  The
  // ladder must absorb every failure: kOk, and every C exact.
  const int batch = 6;
  auto make_products = [&] {
    std::vector<Product> products;
    for (int i = 0; i < batch; ++i)
      products.emplace_back(Op::NoTrans, Op::NoTrans, 112, 112, 112, 1.0, 0.5,
                            800 + i);
    for (Product& p : products) p.run_serial_reference();
    return products;
  };

  std::uint64_t sites = 0;
  {
    std::vector<Product> products = make_products();
    const std::vector<BatchItem> items = items_of(products);
    parallel::ThreadPool pool(2);
    testing::FaultInjector counter(testing::FaultMode::kCountOnly);
    ASSERT_EQ(try_modgemm_batched(&pool, items.data(), batch), Status::kOk);
    sites = counter.allocations();
  }

  for (std::uint64_t fail_at = 1; fail_at <= sites; ++fail_at) {
    std::vector<Product> products = make_products();
    const std::vector<BatchItem> items = items_of(products);
    parallel::ThreadPool pool(2);
    testing::FaultInjector injector(testing::FaultMode::kFailOnce, fail_at);
    const Status s = try_modgemm_batched(&pool, items.data(), batch);
    EXPECT_EQ(s, Status::kOk) << "fail_at " << fail_at;
    for (int i = 0; i < batch; ++i)
      ASSERT_EQ(products[static_cast<std::size_t>(i)].diff(), 0.0)
          << "fail_at " << fail_at << " product " << i;
  }
}

// Mid-submission failure: the pool's submit gate (the OOM point where
// building a task object throws) denies every third submission.  The shallow
// items' fan-out must finish the items it could not submit inline -- each
// exactly once, or beta would reach C twice -- and the deep item must drop
// its fork and rerun on the serial ladder.
struct ScopedFlakySubmits {
  ScopedFlakySubmits() { parallel::ThreadPool::set_submit_gate(&gate, &count); }
  ~ScopedFlakySubmits() {
    parallel::ThreadPool::set_submit_gate(nullptr, nullptr);
  }
  static bool gate(void* user) {
    auto* n = static_cast<std::atomic<std::uint64_t>*>(user);
    return n->fetch_add(1, std::memory_order_relaxed) % 3 != 2;
  }
  std::atomic<std::uint64_t> count{0};
};

TEST(BatchedFaults, SubmissionFailureFinishesEveryProductInline) {
  std::vector<Product> products;
  for (int i = 0; i < 5; ++i)
    products.emplace_back(Op::NoTrans, Op::NoTrans, 96, 96, 96, 1.0 + i, 0.5,
                          1000 + i);
  // Deep on a 2-worker pool: its children (160^3 padded) reach 2^21.
  products.emplace_back(Op::NoTrans, Op::NoTrans, 320, 320, 320, 1.0, -0.5,
                        1010);
  for (Product& p : products) p.run_serial_reference();
  const std::vector<BatchItem> items = items_of(products);
  parallel::ThreadPool pool(2);
  BatchedOptions opt;
  opt.min_task_flops = std::int64_t{1} << 21;
  opt.strategy = layout::ExecStrategy::kMorton;
  obs::GemmReport report;
  {
    ScopedFlakySubmits flaky;
    modgemm_batched(&pool, items.data(), static_cast<int>(items.size()), opt,
                    &report);
    EXPECT_GE(flaky.count.load(), 3u);  // the gate denied a submission
  }
  for (std::size_t i = 0; i < products.size(); ++i)
    EXPECT_EQ(std::memcmp(products[i].C.data(), products[i].Ref.data(),
                          products[i].C.storage().size() * sizeof(double)),
              0)
        << "product " << i;
  EXPECT_EQ(report.fallback_reason, obs::FallbackReason::kAllocDirect);
}

TEST(BatchedFaults, HardCeilingStillCompletesEveryProduct) {
  // kFailFrom: every allocation after the cutoff dies -- the whole batch
  // must ride the allocation-free bottom rungs and still be exact.
  const int batch = 4;
  std::vector<Product> products;
  for (int i = 0; i < batch; ++i)
    products.emplace_back(Op::NoTrans, Op::NoTrans, 96, 96, 96, 1.0, 0.0,
                          900 + i);
  for (Product& p : products) p.run_serial_reference();
  const std::vector<BatchItem> items = items_of(products);
  testing::FaultInjector injector(testing::FaultMode::kFailFrom, 1);
  const Status s = try_modgemm_batched(nullptr, items.data(), batch);
  EXPECT_EQ(s, Status::kOk);
  for (int i = 0; i < batch; ++i)
    EXPECT_EQ(products[static_cast<std::size_t>(i)].diff(), 0.0)
        << "product " << i;
}

TEST(Batched, TunedBatchReportsTheCacheSource) {
  // Pre-warm the process memo with a cheap survey (no kernel mutation) so
  // the batched call's autotune_cached() resolves without measuring; the
  // cold -> warm -> rejected file transitions are covered in
  // test_plan_cache.cpp.
  tune::reset_autotune_memo();
  tune::AutotuneOptions survey;
  survey.candidate_tiles = {16, 32};
  survey.crossover_sizes = {64};
  survey.strategy_sizes = {96};
  survey.repetitions = 1;
  survey.apply_best_kernel = false;
  ASSERT_EQ(tune::autotune_cached(survey, nullptr).source,
            tune::TuneSource::kFreshSurvey);

  std::vector<Product> products;
  for (int i = 0; i < 3; ++i)
    products.emplace_back(Op::NoTrans, Op::NoTrans, 96, 96, 96, 1.0, 0.0,
                          1000 + i);
  for (Product& p : products) p.run_serial_reference();
  const std::vector<BatchItem> items = items_of(products);
  BatchedOptions opt;
  opt.tune = true;
  obs::GemmReport report;
  modgemm_batched(nullptr, items.data(), static_cast<int>(items.size()), opt,
                  &report);
  EXPECT_STREQ(report.tune_cache, "warm");
  for (std::size_t i = 0; i < products.size(); ++i)
    EXPECT_EQ(products[i].diff(), 0.0) << "product " << i;
  tune::reset_autotune_memo();
}

}  // namespace
}  // namespace strassen::core
