// Environment-variable parsing hardening (STRASSEN_THREADS, STRASSEN_KERNEL,
// STRASSEN_STRATEGY): well-formed values are honoured, malformed values are
// rejected loudly with a message naming the offending value -- never
// silently degraded at a throwing entry point.
#include <gtest/gtest.h>

#include <cstdlib>
#include <stdexcept>
#include <string>

#include "blas/kernels/registry.hpp"
#include "common/matrix.hpp"
#include "common/rng.hpp"
#include "core/modgemm.hpp"
#include "parallel/thread_pool.hpp"

namespace strassen {
namespace {

// Runs `fn`, expecting std::invalid_argument whose message contains every
// string in `needles` (the offending value must be named).
template <class Fn>
void expect_rejects(Fn&& fn, std::initializer_list<const char*> needles) {
  try {
    fn();
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string msg = e.what();
    for (const char* needle : needles)
      EXPECT_NE(msg.find(needle), std::string::npos)
          << "message \"" << msg << "\" does not name \"" << needle << "\"";
  }
}

// Restores (or removes) an environment variable on scope exit, so a failing
// assertion cannot leak a malformed value into later tests.
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

// ---- STRASSEN_THREADS -----------------------------------------------------

TEST(EnvParsing, ThreadCountAcceptsPositiveIntegers) {
  using parallel::ThreadPool;
  EXPECT_EQ(ThreadPool::parse_thread_count("1"), 1);
  EXPECT_EQ(ThreadPool::parse_thread_count("17"), 17);
  EXPECT_EQ(ThreadPool::parse_thread_count("4096"), 4096);
}

TEST(EnvParsing, ThreadCountRejectsMalformedValues) {
  using parallel::ThreadPool;
  expect_rejects([] { ThreadPool::parse_thread_count("not-a-number"); },
                 {"STRASSEN_THREADS", "not-a-number"});
  expect_rejects([] { ThreadPool::parse_thread_count("-2"); },
                 {"STRASSEN_THREADS", "-2"});
  expect_rejects([] { ThreadPool::parse_thread_count("0"); },
                 {"STRASSEN_THREADS", "0"});
  // Trailing junk must not be accepted as the leading number.
  expect_rejects([] { ThreadPool::parse_thread_count("8abc"); },
                 {"STRASSEN_THREADS", "8abc"});
  expect_rejects([] { ThreadPool::parse_thread_count("4097"); },
                 {"STRASSEN_THREADS", "4097"});
  expect_rejects([] { ThreadPool::parse_thread_count("99999999999999999999"); },
                 {"STRASSEN_THREADS"});
  expect_rejects([] { ThreadPool::parse_thread_count(""); },
                 {"STRASSEN_THREADS"});
  expect_rejects([] { ThreadPool::parse_thread_count(nullptr); },
                 {"STRASSEN_THREADS"});
}

TEST(EnvParsing, DefaultThreadCountThrowsOnMalformedEnv) {
  ScopedEnv env("STRASSEN_THREADS", "three");
  expect_rejects([] { parallel::ThreadPool::default_thread_count(); },
                 {"STRASSEN_THREADS", "three"});
}

// ---- STRASSEN_KERNEL ------------------------------------------------------

TEST(EnvParsing, KernelNameAcceptsKnownNames) {
  using namespace blas::kernels;
  EXPECT_EQ(parse_kernel_name(""), Kind::kAuto);
  EXPECT_EQ(parse_kernel_name("auto"), Kind::kAuto);
  EXPECT_EQ(parse_kernel_name("scalar"), Kind::kScalar);
  EXPECT_EQ(parse_kernel_name("avx2"), Kind::kAvx2);
  EXPECT_EQ(parse_kernel_name("avx512"), Kind::kAvx512);
  EXPECT_EQ(parse_kernel_name("neon"), Kind::kNeon);
}

TEST(EnvParsing, KernelNameRejectsUnknownNames) {
  using blas::kernels::parse_kernel_name;
  expect_rejects([] { parse_kernel_name("bogus"); },
                 {"STRASSEN_KERNEL", "bogus"});
  // Each x86 kernel has one register block; block suffixes are not
  // names, and the old AVX2 ones are gone, not aliases.
  expect_rejects([] { parse_kernel_name("avx512-24x8"); },
                 {"STRASSEN_KERNEL", "avx512-24x8"});
  expect_rejects([] { parse_kernel_name("avx2-8x6"); },
                 {"STRASSEN_KERNEL", "avx2-8x6"});
  expect_rejects([] { parse_kernel_name("avx2-4x8"); },
                 {"STRASSEN_KERNEL", "avx2-4x8"});
  // Case and whitespace are not forgiven (exact-match contract).
  expect_rejects([] { parse_kernel_name("Scalar"); },
                 {"STRASSEN_KERNEL", "Scalar"});
  expect_rejects([] { parse_kernel_name("scalar "); }, {"STRASSEN_KERNEL"});
  expect_rejects([] { parse_kernel_name(nullptr); }, {"STRASSEN_KERNEL"});
}

TEST(EnvParsing, KernelEnvValidationThrowsOnMalformedValue) {
  {
    ScopedEnv env("STRASSEN_KERNEL", "bogus");
    expect_rejects([] { blas::kernels::require_valid_kernel_env(); },
                   {"STRASSEN_KERNEL", "bogus"});
  }
  {
    ScopedEnv env("STRASSEN_KERNEL", "scalar");
    EXPECT_NO_THROW(blas::kernels::require_valid_kernel_env());
  }
  {
    ScopedEnv env("STRASSEN_KERNEL", nullptr);
    EXPECT_NO_THROW(blas::kernels::require_valid_kernel_env());
  }
}

TEST(EnvParsing, ModgemmFailsLoudlyUnderBogusKernelEnvAndLeavesCUntouched) {
  ScopedEnv env("STRASSEN_KERNEL", "avx2-typo");
  const int n = 96;
  Matrix<double> A(n, n), B(n, n), C(n, n), C0(n, n);
  Rng rng(7);
  rng.fill_int(A.storage());
  rng.fill_int(B.storage());
  rng.fill_int(C.storage());
  copy_matrix<double>(C.view(), C0.view());
  expect_rejects(
      [&] {
        core::modgemm(Op::NoTrans, Op::NoTrans, n, n, n, 1.0, A.data(), n,
                      B.data(), n, 0.0, C.data(), n);
      },
      {"STRASSEN_KERNEL", "avx2-typo"});
  EXPECT_EQ(max_abs_diff<double>(C.view(), C0.view()), 0.0);
}

// ---- STRASSEN_STRATEGY ----------------------------------------------------

TEST(EnvParsing, ExecStrategyAcceptsKnownNames) {
  using core::detail::parse_exec_strategy;
  using layout::ExecStrategy;
  EXPECT_EQ(parse_exec_strategy("auto"), ExecStrategy::kAuto);
  EXPECT_EQ(parse_exec_strategy("morton"), ExecStrategy::kMorton);
  EXPECT_EQ(parse_exec_strategy("packfused"), ExecStrategy::kPackFused);
}

TEST(EnvParsing, ExecStrategyRejectsUnknownNames) {
  using core::detail::parse_exec_strategy;
  expect_rejects([] { parse_exec_strategy("fused"); },
                 {"STRASSEN_STRATEGY", "fused"});
  expect_rejects([] { parse_exec_strategy("pack-fused"); },
                 {"STRASSEN_STRATEGY", "pack-fused"});
  // Case is not forgiven (exact-match contract, like STRASSEN_KERNEL).
  expect_rejects([] { parse_exec_strategy("PACKFUSED"); },
                 {"STRASSEN_STRATEGY", "PACKFUSED"});
  expect_rejects([] { parse_exec_strategy("morton "); },
                 {"STRASSEN_STRATEGY"});
  expect_rejects([] { parse_exec_strategy(nullptr); },
                 {"STRASSEN_STRATEGY"});
}

TEST(EnvParsing, StrategyEnvOverrideSelectsStrategyAndRejectsGarbage) {
  const int n = 200;
  Matrix<double> A(n, n), B(n, n), C(n, n), Ref(n, n);
  Rng rng(13);
  rng.fill_int(A.storage(), -3, 3);
  rng.fill_int(B.storage(), -3, 3);
  blas::naive_gemm(Op::NoTrans, Op::NoTrans, n, n, n, 1.0, A.data(), n,
                   B.data(), n, 0.0, Ref.data(), n);
  {
    ScopedEnv env("STRASSEN_STRATEGY", "packfused");
    core::ModgemmReport report;
    core::modgemm(Op::NoTrans, Op::NoTrans, n, n, n, 1.0, A.data(), n,
                  B.data(), n, 0.0, C.data(), n, {}, &report);
    EXPECT_STREQ(report.strategy, "packfused");
    EXPECT_EQ(max_abs_diff<double>(C.view(), Ref.view()), 0.0);
  }
  {
    ScopedEnv env("STRASSEN_STRATEGY", "no-conversion");
    Matrix<double> C2(n, n), C0(n, n);
    rng.fill_int(C2.storage());
    copy_matrix<double>(C2.view(), C0.view());
    expect_rejects(
        [&] {
          core::modgemm(Op::NoTrans, Op::NoTrans, n, n, n, 1.0, A.data(), n,
                        B.data(), n, 0.0, C2.data(), n);
        },
        {"STRASSEN_STRATEGY", "no-conversion"});
    EXPECT_EQ(max_abs_diff<double>(C2.view(), C0.view()), 0.0);
  }
}

TEST(EnvParsing, StrategyPinOutranksEnvOverride) {
  // The per-call pin must win so tests asserting Morton-only observables
  // stay meaningful under a forced STRASSEN_STRATEGY=packfused suite run.
  ScopedEnv env("STRASSEN_STRATEGY", "packfused");
  const int n = 200;
  Matrix<double> A(n, n), B(n, n), C(n, n);
  Rng rng(17);
  rng.fill_int(A.storage(), -3, 3);
  rng.fill_int(B.storage(), -3, 3);
  core::ModgemmOptions opt;
  opt.strategy = layout::ExecStrategy::kMorton;
  core::ModgemmReport report;
  core::modgemm(Op::NoTrans, Op::NoTrans, n, n, n, 1.0, A.data(), n,
                B.data(), n, 0.0, C.data(), n, opt, &report);
  EXPECT_STREQ(report.strategy, "morton");
  EXPECT_GT(report.convert_in_seconds, 0.0);
}

}  // namespace
}  // namespace strassen
