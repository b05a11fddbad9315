// Whole-pipeline bit identity across the x86 leaf kernels: C computed under
// an avx512 pin must be memcmp-equal to C computed under an avx2 pin, for
// every public entry point (modgemm, pmodgemm on a 2-worker pool,
// modgemm_batched, modgemm_strided_batched), both execution strategies and
// beta 0 and 0.5.  Both tables instantiate one register block in which each
// element of C is one FMA chain from zero (simd_block.hpp), so nothing the
// pipeline does around the leaf may tell the kernels apart.  Skipped on
// hosts or builds without both kernels.
#include <gtest/gtest.h>

#include <cstdlib>
#include <cstring>
#include <ostream>
#include <string>
#include <vector>

#include "blas/kernels/registry.hpp"
#include "common/matrix.hpp"
#include "common/rng.hpp"
#include "core/batched.hpp"
#include "core/modgemm.hpp"
#include "parallel/pmodgemm.hpp"
#include "parallel/thread_pool.hpp"

namespace strassen {
namespace {

namespace ker = blas::kernels;

struct CrossShape {
  const char* name;
  int m, n, k;
  Op opa;
  int lda_pad;  // extra leading-dimension rows of A's storage
};

// The benchmark's shapes (parallel-square's 1024 and 1025; sayuri-serve's
// conv3x3 and conv1x1 im2col products and its transposed, strided Winograd
// product), two more the leaf runs at odd tiles, and small shapes whose
// leaves leave every kind of row and column remainder of the 24x8 and 8x6
// blocks.
const CrossShape kShapes[] = {
    {"Square1024", 1024, 1024, 1024, Op::NoTrans, 0},
    {"Square1025", 1025, 1025, 1025, Op::NoTrans, 0},
    {"Conv3x3", 256, 361, 2304, Op::NoTrans, 0},
    {"Conv1x1", 256, 361, 256, Op::NoTrans, 0},
    {"WinogradT", 256, 200, 256, Op::Trans, 8960},
    {"Square513", 513, 513, 513, Op::NoTrans, 0},
    {"Rect700x650x300T", 700, 650, 300, Op::Trans, 0},
    {"Edges150x170x130", 150, 170, 130, Op::NoTrans, 3},
    {"Edges211", 211, 211, 211, Op::NoTrans, 0},
    {"Edges389x97x151", 389, 97, 151, Op::NoTrans, 5},
};

void PrintTo(const CrossShape& s, std::ostream* os) { *os << s.name; }

// Sets STRASSEN_STRATEGY for a scope (pmodgemm has no strategy option) and
// restores the previous value, so a suite run under the variable is not
// perturbed.
class ScopedStrategyEnv {
 public:
  explicit ScopedStrategyEnv(const char* value) {
    const char* old = std::getenv("STRASSEN_STRATEGY");
    had_ = old != nullptr;
    if (had_) saved_ = old;
    ::setenv("STRASSEN_STRATEGY", value, 1);
  }
  ~ScopedStrategyEnv() {
    if (had_)
      ::setenv("STRASSEN_STRATEGY", saved_.c_str(), 1);
    else
      ::unsetenv("STRASSEN_STRATEGY");
  }
  ScopedStrategyEnv(const ScopedStrategyEnv&) = delete;
  ScopedStrategyEnv& operator=(const ScopedStrategyEnv&) = delete;

 private:
  bool had_ = false;
  std::string saved_;
};

enum class Entry { kModgemm, kPmodgemm, kBatched, kStridedBatched };

const char* entry_name(Entry e) {
  switch (e) {
    case Entry::kModgemm: return "modgemm";
    case Entry::kPmodgemm: return "pmodgemm";
    case Entry::kBatched: return "modgemm_batched";
    case Entry::kStridedBatched: return "modgemm_strided_batched";
  }
  return "?";
}

class CrossKernelBitIdentity : public ::testing::TestWithParam<CrossShape> {};

TEST_P(CrossKernelBitIdentity, Avx512MatchesAvx2) {
  if (!ker::is_available(ker::Kind::kAvx512) ||
      !ker::is_available(ker::Kind::kAvx2))
    GTEST_SKIP() << "avx512 and avx2 kernels are not both runnable here";
  const CrossShape& s = GetParam();
  const int arows = s.opa == Op::NoTrans ? s.m : s.k;
  const int acols = s.opa == Op::NoTrans ? s.k : s.m;
  const int lda = arows + s.lda_pad;
  Rng rng(static_cast<std::uint64_t>(s.m * 31 + s.n * 7 + s.k));
  std::vector<double> A(static_cast<std::size_t>(lda) * acols);
  Matrix<double> B(s.k, s.n), C0(s.m, s.n);
  rng.fill_uniform(A);
  rng.fill_uniform(B.storage());
  rng.fill_uniform(C0.storage());
  parallel::ThreadPool pool(2);
  const double alpha = 1.5;

  // C <- alpha * op(A) . B + beta * C0 through `entry` under `kind`.
  const auto run = [&](Entry entry, ker::Kind kind, double beta) {
    Matrix<double> C(s.m, s.n);
    std::memcpy(C.data(), C0.data(), sizeof(double) * C0.storage().size());
    ker::ScopedKernel pin(kind);
    switch (entry) {
      case Entry::kModgemm:
        core::modgemm(s.opa, Op::NoTrans, s.m, s.n, s.k, alpha, A.data(), lda,
                      B.data(), B.ld(), beta, C.data(), C.ld());
        break;
      case Entry::kPmodgemm:
        parallel::pmodgemm(&pool, s.opa, Op::NoTrans, s.m, s.n, s.k, alpha,
                           A.data(), lda, B.data(), B.ld(), beta, C.data(),
                           C.ld());
        break;
      case Entry::kBatched: {
        core::BatchItem it;
        it.opa = s.opa;
        it.m = s.m;
        it.n = s.n;
        it.k = s.k;
        it.alpha = alpha;
        it.A = A.data();
        it.lda = lda;
        it.B = B.data();
        it.ldb = B.ld();
        it.beta = beta;
        it.C = C.data();
        it.ldc = C.ld();
        core::modgemm_batched(&pool, &it, 1);
        break;
      }
      case Entry::kStridedBatched:
        core::modgemm_strided_batched(&pool, s.opa, Op::NoTrans, s.m, s.n,
                                      s.k, alpha, A.data(), lda, 0, B.data(),
                                      B.ld(), 0, beta, C.data(), C.ld(), 0, 1);
        break;
    }
    return C;
  };

  for (const char* strategy : {"morton", "packfused"}) {
    ScopedStrategyEnv env(strategy);
    for (const Entry entry : {Entry::kModgemm, Entry::kPmodgemm,
                              Entry::kBatched, Entry::kStridedBatched})
      for (const double beta : {0.0, 0.5}) {
        const Matrix<double> c2 = run(entry, ker::Kind::kAvx2, beta);
        const Matrix<double> c512 = run(entry, ker::Kind::kAvx512, beta);
        EXPECT_EQ(std::memcmp(c2.data(), c512.data(),
                              sizeof(double) * c2.storage().size()),
                  0)
            << entry_name(entry) << " " << strategy << " beta " << beta;
      }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, CrossKernelBitIdentity, ::testing::ValuesIn(kShapes),
    [](const ::testing::TestParamInfo<CrossShape>& param) {
      return std::string(param.param.name);
    });

}  // namespace
}  // namespace strassen
