// Conformance and dispatch tests for the leaf-kernel engine
// (src/blas/kernels/).  Every kernel variant compiled into this binary AND
// runnable on this host is checked against a naive oracle over edge shapes,
// both store modes and several alphas; variants the host cannot execute are
// skipped at runtime (so the same test binary passes on any machine).  The
// scalar table is additionally required to be BIT-identical to the generic
// MemModel kernel -- the seed library's behaviour.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <string>
#include <tuple>
#include <vector>

#include "blas/kernels.hpp"
#include "blas/kernels/registry.hpp"
#include "blas/level1.hpp"
#include "common/arena.hpp"
#include "common/matrix.hpp"
#include "common/memmodel.hpp"
#include "common/rng.hpp"
#include "core/modgemm.hpp"
#include "trace/memmodel.hpp"
#include "trace/presets.hpp"

namespace strassen::blas::kernels {
namespace {

// FMA contraction and blocked accumulation reorder the k-sum, so SIMD
// kernels differ from the oracle by O(k) ulps on uniform [0,1) data.
constexpr double kTol = 1e-12;

// All kernels this binary can actually run.
struct Config {
  Kind kind;
  std::string name;
};

std::vector<Config> runnable_configs() {
  std::vector<Config> out;
  for (Kind kind : available_kernels()) out.push_back({kind, kind_name(kind)});
  return out;
}

// The oracle, written to match gemm_leaf's contract (not dgemm's beta).
void oracle_gemm(int m, int n, int k, const double* A, int lda,
                 const double* B, int ldb, double* C, int ldc, LeafMode mode,
                 double alpha) {
  for (int j = 0; j < n; ++j) {
    for (int i = 0; i < m; ++i) {
      double acc = 0.0;
      for (int p = 0; p < k; ++p)
        acc += A[static_cast<std::size_t>(p) * lda + i] *
               B[static_cast<std::size_t>(j) * ldb + p];
      double& c = C[static_cast<std::size_t>(j) * ldc + i];
      c = (mode == LeafMode::Overwrite ? 0.0 : c) + alpha * acc;
    }
  }
}

// ---- registry / dispatch ---------------------------------------------------

TEST(KernelRegistry, ScalarIsAlwaysCompiledAndAvailable) {
  EXPECT_TRUE(is_available(Kind::kScalar));
  EXPECT_NE(kernel_table(Kind::kScalar), nullptr);
  bool scalar_listed = false;
  for (Kind k : compiled_kernels())
    if (k == Kind::kScalar) scalar_listed = true;
  EXPECT_TRUE(scalar_listed);
  EXPECT_FALSE(available_kernels().empty());
}

TEST(KernelRegistry, ActiveTableIsNeverNullAndMatchesKind) {
  const LeafKernels& t = active();
  EXPECT_EQ(t.kind, active_kernel());
  EXPECT_NE(t.gemm, nullptr);
  EXPECT_NE(t.vadd, nullptr);
  EXPECT_NE(t.vsub, nullptr);
  EXPECT_NE(t.vadd_inplace, nullptr);
  EXPECT_NE(t.vsub_inplace, nullptr);
}

TEST(KernelRegistry, UnavailableKindDegradesToScalar) {
  for (Kind kind : {Kind::kAvx2, Kind::kAvx512, Kind::kNeon}) {
    if (is_available(kind)) continue;
    ScopedKernel pin(kind);
    EXPECT_EQ(active_kernel(), Kind::kScalar)
        << "unavailable kind " << kind_name(kind) << " must degrade";
  }
}

TEST(KernelRegistry, ScopedKernelRestores) {
  const Kind before = active_kernel();
  {
    ScopedKernel pin(Kind::kScalar);
    EXPECT_EQ(active_kernel(), Kind::kScalar);
  }
  EXPECT_EQ(active_kernel(), before);
}

TEST(KernelRegistry, EnvOverrideParsesAndDegrades) {
  const Kind before = active_kernel();
  // The probe prefers avx512 > avx2.
  const Kind probed = is_available(Kind::kAvx512) ? Kind::kAvx512
                      : is_available(Kind::kAvx2) ? Kind::kAvx2
                                                  : before;
  // "auto" leaves the probe's choice.
  ::setenv("STRASSEN_KERNEL", "auto", 1);
  set_active_kernel(Kind::kAuto);
  EXPECT_EQ(active_kernel(), probed);
  // Unknown value: never silently enables SIMD.
  ::setenv("STRASSEN_KERNEL", "bogus", 1);
  set_active_kernel(Kind::kAuto);
  EXPECT_EQ(active_kernel(), Kind::kScalar);
  ::setenv("STRASSEN_KERNEL", "scalar", 1);
  set_active_kernel(Kind::kAuto);
  EXPECT_EQ(active_kernel(), Kind::kScalar);
  for (Kind kind : {Kind::kAvx2, Kind::kAvx512}) {
    if (!is_available(kind)) continue;
    ::setenv("STRASSEN_KERNEL", kind_name(kind), 1);
    set_active_kernel(Kind::kAuto);
    EXPECT_EQ(active_kernel(), kind);
  }
  ::unsetenv("STRASSEN_KERNEL");
  set_active_kernel(Kind::kAuto);  // back to the probe default
  EXPECT_EQ(active_kernel(), probed);
  set_active_kernel(before);
}

TEST(KernelRegistry, Names) {
  EXPECT_STREQ(kind_name(Kind::kScalar), "scalar");
  EXPECT_STREQ(kind_name(Kind::kAvx2), "avx2");
  EXPECT_STREQ(kind_name(Kind::kAvx512), "avx512");
  EXPECT_STREQ(kind_name(Kind::kNeon), "neon");
  EXPECT_STREQ(kind_name(Kind::kAuto), "auto");
  EXPECT_STREQ(variant_name(avx2_variant()), "8x6");
}

// ---- gemm conformance: every runnable variant vs the oracle ---------------

using Shape = std::tuple<int, int, int>;  // m, n, k

const std::vector<Shape>& conformance_shapes() {
  // Multiples of the register blocks, off-by-one edges, degenerate k, and
  // shapes where m/n are not multiples of any MR/NR.
  static const std::vector<Shape> shapes = {
      {1, 1, 1},    {4, 4, 4},   {8, 6, 16},  {8, 8, 8},    {16, 12, 20},
      {6, 8, 12},   {5, 7, 9},   {17, 19, 23}, {16, 16, 0}, {16, 16, 1},
      {33, 31, 29}, {64, 64, 64}, {1, 64, 64}, {64, 1, 64},  {64, 64, 1},
      {2, 3, 5},    {9, 13, 31}};
  return shapes;
}

TEST(KernelConformance, AllVariantsMatchOracle) {
  for (const Config& cfg : runnable_configs()) {
    ScopedKernel pin(cfg.kind);
    for (const auto& [m, n, k] : conformance_shapes()) {
      Rng rng(static_cast<std::uint64_t>(m * 131 + n * 17 + k + 7));
      Matrix<double> A(m, std::max(k, 1)), B(std::max(k, 1), n);
      Matrix<double> C(m, n), Ref(m, n);
      rng.fill_uniform(A.storage());
      rng.fill_uniform(B.storage());
      for (LeafMode mode : {LeafMode::Overwrite, LeafMode::Accumulate}) {
        for (double alpha : {0.0, 1.0, -1.0, 2.5}) {
          rng.fill_uniform(C.storage());
          copy_matrix<double>(C.view(), Ref.view());
          active().gemm(m, n, k, A.data(), A.ld(), B.data(), B.ld(), C.data(),
                        C.ld(), mode, alpha);
          oracle_gemm(m, n, k, A.data(), A.ld(), B.data(), B.ld(), Ref.data(),
                      Ref.ld(), mode, alpha);
          EXPECT_LT(max_abs_diff<double>(C.view(), Ref.view()),
                    kTol * (k + 1) * std::max(1.0, std::abs(alpha)))
              << cfg.name << " m=" << m << " n=" << n << " k=" << k
              << " mode=" << (mode == LeafMode::Overwrite ? "ow" : "acc")
              << " alpha=" << alpha;
        }
      }
    }
  }
}

TEST(KernelConformance, StridedOperandsMatchOracle) {
  // Leading dimensions larger than the row count (edge tiles, blocked gemm).
  for (const Config& cfg : runnable_configs()) {
    ScopedKernel pin(cfg.kind);
    const int m = 13, n = 11, k = 17, pad = 5;
    Rng rng(99);
    Matrix<double> A(m, k, m + pad), B(k, n, k + pad), C(m, n, m + pad),
        Ref(m, n, m + pad);
    rng.fill_uniform(A.storage());
    rng.fill_uniform(B.storage());
    rng.fill_uniform(C.storage());
    copy_matrix<double>(C.view(), Ref.view());
    active().gemm(m, n, k, A.data(), A.ld(), B.data(), B.ld(), C.data(),
                  C.ld(), LeafMode::Accumulate, -1.5);
    oracle_gemm(m, n, k, A.data(), A.ld(), B.data(), B.ld(), Ref.data(),
                Ref.ld(), LeafMode::Accumulate, -1.5);
    EXPECT_LT(max_abs_diff<double>(C.view(), Ref.view()), kTol * k * 1.5)
        << cfg.name;
  }
}

TEST(KernelConformance, OverwriteDoesNotReadC) {
  for (const Config& cfg : runnable_configs()) {
    ScopedKernel pin(cfg.kind);
    const int m = 11, n = 7, k = 5;
    Rng rng(3);
    Matrix<double> A(m, k), B(k, n), C(m, n);
    rng.fill_uniform(A.storage());
    rng.fill_uniform(B.storage());
    for (auto& x : C.storage()) x = std::numeric_limits<double>::quiet_NaN();
    active().gemm(m, n, k, A.data(), A.ld(), B.data(), B.ld(), C.data(),
                  C.ld(), LeafMode::Overwrite, 1.0);
    for (const auto& x : C.storage()) EXPECT_FALSE(std::isnan(x)) << cfg.name;
  }
}

// ---- the fused kernel vs materialized temporaries -------------------------

TEST(KernelConformance, FusedMatchesMaterialized) {
  for (const Config& cfg : runnable_configs()) {
    const LeafKernels* tab = kernel_table(cfg.kind);
    ASSERT_NE(tab, nullptr);
    if (tab->gemm_fused_ab == nullptr) continue;  // scalar: deliberately none
    ScopedKernel pin(cfg.kind);
    for (const auto& [m, n, k] : conformance_shapes()) {
      if (k == 0) continue;  // fused entries serve leaf tiles, k >= 1
      Rng rng(static_cast<std::uint64_t>(m * 7 + n * 3 + k));
      Matrix<double> A1(m, k), A2(m, k), B1(k, n), B2(k, n);
      Matrix<double> S(m, k), T(k, n), C(m, n), Ref(m, n);
      rng.fill_uniform(A1.storage());
      rng.fill_uniform(A2.storage());
      rng.fill_uniform(B1.storage());
      rng.fill_uniform(B2.storage());
      for (FusedOp op : {FusedOp::kAdd, FusedOp::kSub}) {
        RawMem mm;
        if (op == FusedOp::kAdd) {
          blas::vadd(mm, S.storage().size(), S.data(), A1.data(), A2.data());
          blas::vadd(mm, T.storage().size(), T.data(), B1.data(), B2.data());
        } else {
          blas::vsub(mm, S.storage().size(), S.data(), A1.data(), A2.data());
          blas::vsub(mm, T.storage().size(), T.data(), B1.data(), B2.data());
        }
        const char* opname = op == FusedOp::kAdd ? "add" : "sub";
        // C = (A1 op A2) . (B1 op B2)  vs  S . T -- must be BIT-identical:
        // the fused loaders perform the same IEEE op element-wise, and the
        // accumulation order is that of the same kernel body.
        tab->gemm_fused_ab(m, n, k, A1.data(), A2.data(), op, A1.ld(),
                           B1.data(), B2.data(), op, B1.ld(), C.data(),
                           C.ld());
        active().gemm(m, n, k, S.data(), S.ld(), T.data(), T.ld(), Ref.data(),
                      Ref.ld(), LeafMode::Overwrite, 1.0);
        EXPECT_EQ(max_abs_diff<double>(C.view(), Ref.view()), 0.0)
            << cfg.name << " fused_ab " << opname << " m=" << m << " n=" << n
            << " k=" << k;
      }
    }
  }
}

// ---- element-wise kernels --------------------------------------------------

TEST(KernelConformance, ElementWiseAllVariantsAndTails) {
  for (const Config& cfg : runnable_configs()) {
    const LeafKernels* tab = kernel_table(cfg.kind);
    ASSERT_NE(tab, nullptr);
    for (std::size_t n : {std::size_t{1}, std::size_t{2}, std::size_t{3},
                          std::size_t{7}, std::size_t{64}, std::size_t{65}}) {
      Rng rng(n * 5 + 1);
      std::vector<double> a(n), b(n), d(n), ref(n);
      rng.fill_uniform(a);
      rng.fill_uniform(b);
      tab->vadd(n, d.data(), a.data(), b.data());
      for (std::size_t i = 0; i < n; ++i) ref[i] = a[i] + b[i];
      EXPECT_EQ(d, ref) << cfg.name << " vadd n=" << n;
      tab->vsub(n, d.data(), a.data(), b.data());
      for (std::size_t i = 0; i < n; ++i) ref[i] = a[i] - b[i];
      EXPECT_EQ(d, ref) << cfg.name << " vsub n=" << n;
      d = a;
      tab->vadd_inplace(n, d.data(), b.data());
      for (std::size_t i = 0; i < n; ++i) ref[i] = a[i] + b[i];
      EXPECT_EQ(d, ref) << cfg.name << " vadd_inplace n=" << n;
      d = a;
      tab->vsub_inplace(n, d.data(), b.data());
      for (std::size_t i = 0; i < n; ++i) ref[i] = a[i] - b[i];
      EXPECT_EQ(d, ref) << cfg.name << " vsub_inplace n=" << n;
    }
  }
}

TEST(KernelConformance, ElementWiseExactAliasing) {
  // The schedules call these with dst == a and dst == b; every table must
  // honour the exact-alias contract of level1.hpp.
  for (const Config& cfg : runnable_configs()) {
    const LeafKernels* tab = kernel_table(cfg.kind);
    ASSERT_NE(tab, nullptr);
    const std::size_t n = 67;
    Rng rng(13);
    std::vector<double> a0(n), b0(n);
    rng.fill_uniform(a0);
    rng.fill_uniform(b0);
    std::vector<double> d, ref(n);

    d = a0;  // dst == a:  d = d + b
    tab->vadd(n, d.data(), d.data(), b0.data());
    for (std::size_t i = 0; i < n; ++i) ref[i] = a0[i] + b0[i];
    EXPECT_EQ(d, ref) << cfg.name << " vadd dst==a";
    d = b0;  // dst == b:  d = a - d
    tab->vsub(n, d.data(), a0.data(), d.data());
    for (std::size_t i = 0; i < n; ++i) ref[i] = a0[i] - b0[i];
    EXPECT_EQ(d, ref) << cfg.name << " vsub dst==b";
    d = a0;  // dst == a (inplace):  d += d
    tab->vadd_inplace(n, d.data(), d.data());
    for (std::size_t i = 0; i < n; ++i) ref[i] = a0[i] + a0[i];
    EXPECT_EQ(d, ref) << cfg.name << " vadd_inplace dst==a";
    d = a0;  // dst == a (inplace):  d -= d
    tab->vsub_inplace(n, d.data(), d.data());
    for (std::size_t i = 0; i < n; ++i) ref[i] = 0.0;
    EXPECT_EQ(d, ref) << cfg.name << " vsub_inplace dst==a";
  }
}

// ---- seed bit-exactness ----------------------------------------------------

TEST(KernelBitExactness, ScalarTableIsGenericKernelBitForBit) {
  // The scalar table must reproduce gemm_leaf_generic(RawMem) -- the seed
  // library's leaf kernel -- exactly, for every shape and mode.
  const LeafKernels* tab = kernel_table(Kind::kScalar);
  ASSERT_NE(tab, nullptr);
  for (const auto& [m, n, k] : conformance_shapes()) {
    Rng rng(static_cast<std::uint64_t>(m + n * 41 + k * 577));
    Matrix<double> A(m, std::max(k, 1)), B(std::max(k, 1), n);
    Matrix<double> C1(m, n), C2(m, n);
    rng.fill_uniform(A.storage());
    rng.fill_uniform(B.storage());
    for (LeafMode mode : {LeafMode::Overwrite, LeafMode::Accumulate}) {
      rng.fill_uniform(C1.storage());
      copy_matrix<double>(C1.view(), C2.view());
      tab->gemm(m, n, k, A.data(), A.ld(), B.data(), B.ld(), C1.data(),
                C1.ld(), mode, 2.5);
      RawMem mm;
      blas::gemm_leaf_generic(mm, m, n, k, A.data(), A.ld(), B.data(), B.ld(),
                              C2.data(), C2.ld(), mode, 2.5);
      EXPECT_EQ(max_abs_diff<double>(C1.view(), C2.view()), 0.0)
          << "m=" << m << " n=" << n << " k=" << k;
    }
  }
}

// The arithmetic every SIMD gemm entry performs, element by element: one FMA
// chain over p = 0..k-1 starting from zero, then alpha * acc, added to C in
// the same rounding (one more FMA) under Accumulate.  Register blocking,
// edge handling and operand loaders may change which instructions run but
// never this arithmetic, so every entry must match it bit for bit.
void fma_chain_gemm(int m, int n, int k, const double* A, int lda,
                    const double* B, int ldb, double* C, int ldc,
                    LeafMode mode, double alpha) {
  for (int j = 0; j < n; ++j) {
    for (int i = 0; i < m; ++i) {
      double acc = 0.0;
      for (int p = 0; p < k; ++p)
        acc = std::fma(A[static_cast<std::size_t>(p) * lda + i],
                       B[static_cast<std::size_t>(j) * ldb + p], acc);
      double& c = C[static_cast<std::size_t>(j) * ldc + i];
      c = mode == LeafMode::Overwrite ? alpha * acc : std::fma(alpha, acc, c);
    }
  }
}

void copy_storage(const Matrix<double>& src, Matrix<double>& dst) {
  std::copy(src.storage().begin(), src.storage().end(), dst.storage().begin());
}

// Equal-shaped matrices, compared over the padding rows too.
bool same_bits(const Matrix<double>& x, const Matrix<double>& y) {
  return std::memcmp(x.storage().data(), y.storage().data(),
                     x.storage().size() * sizeof(double)) == 0;
}

TEST(KernelBitExactness, EveryElementIsOneFmaChain) {
  std::vector<Config> simd;
  for (const Config& cfg : runnable_configs())
    if (cfg.kind != Kind::kScalar) simd.push_back(cfg);
  if (simd.empty()) GTEST_SKIP() << "scalar-only host";
  // Every edge remainder of both register blocks, plus the off-multiple
  // tiles the planner picks on the benchmarked shapes.
  int edge = 0;
  for (const Config& cfg : simd) {
    const LeafKernels* tab = kernel_table(cfg.kind);
    edge = std::max({edge, tab->mr, tab->nr});
  }
  std::vector<int> dims;
  for (int d = 1; d <= 2 * edge + 1; ++d) dims.push_back(d);
  for (int d : {25, 33, 43, 46, 47, 61}) dims.push_back(d);

  const int pad = 3;  // every operand carries padded leading dimensions
  struct Case {
    int m, n, k;
  };
  std::vector<Case> cases;
  for (int k : {1, 7, 33})
    for (int m : dims)
      for (int n : dims) cases.push_back({m, n, k});
  // Far deeper than any leaf the default planner picks (max_tile 64), so
  // the fused entry exceeds its per-panel stack staging.
  cases.push_back({13, 11, 300});

  for (const Case& cs : cases) {
    const int m = cs.m, n = cs.n, k = cs.k;
    Rng rng(static_cast<std::uint64_t>(m * 7919 + n * 104729 + k));
    Matrix<double> A1(m, k, m + pad), A2(m, k, m + pad), B1(k, n, k + pad),
        B2(k, n, k + pad), S(m, k, m + pad), T(k, n, k + pad);
    Matrix<double> C0(m, n, m + pad), C(m, n, m + pad), Ref(m, n, m + pad);
    for (auto* x : {&A1, &A2, &B1, &B2, &C0}) rng.fill_uniform(x->storage());
    const auto where = [&](const Config& cfg, const char* entry) {
      return cfg.name + " " + entry + " m=" + std::to_string(m) +
             " n=" + std::to_string(n) + " k=" + std::to_string(k);
    };

    for (LeafMode mode : {LeafMode::Overwrite, LeafMode::Accumulate}) {
      for (double alpha : {1.0, -1.5}) {
        copy_storage(C0, Ref);
        fma_chain_gemm(m, n, k, A1.data(), A1.ld(), B1.data(), B1.ld(),
                       Ref.data(), Ref.ld(), mode, alpha);
        for (const Config& cfg : simd) {
          ScopedKernel pin(cfg.kind);
          copy_storage(C0, C);
          active().gemm(m, n, k, A1.data(), A1.ld(), B1.data(), B1.ld(),
                        C.data(), C.ld(), mode, alpha);
          EXPECT_TRUE(same_bits(C, Ref))
              << where(cfg, "gemm") << " alpha=" << alpha
              << (mode == LeafMode::Overwrite ? " ow" : " acc");
        }
      }
    }

    // The fused entry: Overwrite, alpha == 1, the operand sums formed with
    // the same IEEE add/sub the materialized temporaries use.
    for (FusedOp opa : {FusedOp::kAdd, FusedOp::kSub}) {
      for (FusedOp opb : {FusedOp::kAdd, FusedOp::kSub}) {
        for (std::size_t e = 0; e < S.storage().size(); ++e)
          S.storage()[e] = opa == FusedOp::kAdd
                               ? A1.storage()[e] + A2.storage()[e]
                               : A1.storage()[e] - A2.storage()[e];
        for (std::size_t e = 0; e < T.storage().size(); ++e)
          T.storage()[e] = opb == FusedOp::kAdd
                               ? B1.storage()[e] + B2.storage()[e]
                               : B1.storage()[e] - B2.storage()[e];
        Matrix<double> RefAB(m, n, m + pad);
        copy_storage(C0, RefAB);
        fma_chain_gemm(m, n, k, S.data(), S.ld(), T.data(), T.ld(),
                       RefAB.data(), RefAB.ld(), LeafMode::Overwrite, 1.0);
        for (const Config& cfg : simd) {
          const LeafKernels* tab = kernel_table(cfg.kind);
          if (tab->gemm_fused_ab == nullptr) continue;
          ScopedKernel pin(cfg.kind);
          copy_storage(C0, C);
          tab->gemm_fused_ab(m, n, k, A1.data(), A2.data(), opa, A1.ld(),
                             B1.data(), B2.data(), opb, B1.ld(), C.data(),
                             C.ld());
          EXPECT_TRUE(same_bits(C, RefAB)) << where(cfg, "fused_ab");
        }
      }
    }
  }
}

TEST(KernelBitExactness, TracedRunIsIndependentOfActiveKernel) {
  // The engine never serves TracingMem: a traced execution must produce
  // bit-identical values AND the identical simulated address stream whether
  // the process-global active kernel is scalar or SIMD.  (This is the seed
  // compatibility guarantee for the cache-simulation results -- the traced
  // code path itself is untouched by the engine.)
  const int n = 96;
  Rng rng(21);
  Matrix<double> A(n, n), B(n, n), C1(n, n), C2(n, n);
  rng.fill_uniform(A.storage());
  rng.fill_uniform(B.storage());
  core::ModgemmOptions opt;
  opt.tiles.direct_threshold = 16;  // force the Strassen path

  trace::CacheHierarchy h1 = trace::paper_fig9_cache();
  trace::TracingMem tmm1(h1);
  {
    ScopedKernel pin(Kind::kScalar);
    core::modgemm_mm(tmm1, Op::NoTrans, Op::NoTrans, n, n, n, 1.0, A.data(),
                     A.ld(), B.data(), B.ld(), 0.0, C1.data(), C1.ld(), opt);
  }
  trace::CacheHierarchy h2 = trace::paper_fig9_cache();
  trace::TracingMem tmm2(h2);
  // Default (possibly SIMD) kernel active.
  core::modgemm_mm(tmm2, Op::NoTrans, Op::NoTrans, n, n, n, 1.0, A.data(),
                   A.ld(), B.data(), B.ld(), 0.0, C2.data(), C2.ld(), opt);
  EXPECT_EQ(max_abs_diff<double>(C1.view(), C2.view()), 0.0);
  EXPECT_EQ(h1.total_accesses(), h2.total_accesses());

  // And the traced values agree with a scalar-pinned production run to leaf
  // accumulation-order rounding (FMA contraction differs between the two
  // instantiations, so bit-identity across memory models is NOT a goal).
  Matrix<double> Craw(n, n);
  core::ModgemmOptions ropt = opt;
  ropt.kernel = Kind::kScalar;
  core::modgemm(Op::NoTrans, Op::NoTrans, n, n, n, 1.0, A.data(), A.ld(),
                B.data(), B.ld(), 0.0, Craw.data(), Craw.ld(), ropt);
  EXPECT_LT(max_abs_diff<double>(Craw.view(), C1.view()), 1e-11 * n);
}

TEST(KernelBitExactness, ModgemmKernelPinIsScopedToTheCall) {
  const Kind before = active_kernel();
  const int n = 40;
  Rng rng(5);
  Matrix<double> A(n, n), B(n, n), C(n, n);
  rng.fill_uniform(A.storage());
  rng.fill_uniform(B.storage());
  core::ModgemmOptions opt;
  opt.kernel = Kind::kScalar;
  core::modgemm(Op::NoTrans, Op::NoTrans, n, n, n, 1.0, A.data(), A.ld(),
                B.data(), B.ld(), 0.0, C.data(), C.ld(), opt);
  EXPECT_EQ(active_kernel(), before);  // pin restored after the call
}

TEST(KernelBitExactness, SimdModgemmMatchesScalarWithinTolerance) {
  // Sanity bound on the whole-algorithm effect of switching kernels: the
  // SIMD run differs from the scalar run only by leaf accumulation order.
  if (runnable_configs().size() <= 1) GTEST_SKIP() << "scalar-only host";
  const int n = 200;
  Rng rng(77);
  Matrix<double> A(n, n), B(n, n), Cs(n, n), Cv(n, n);
  rng.fill_uniform(A.storage());
  rng.fill_uniform(B.storage());
  core::ModgemmOptions scalar_opt;
  scalar_opt.tiles.direct_threshold = 32;
  scalar_opt.kernel = Kind::kScalar;
  core::modgemm(Op::NoTrans, Op::NoTrans, n, n, n, 1.0, A.data(), A.ld(),
                B.data(), B.ld(), 0.0, Cs.data(), Cs.ld(), scalar_opt);
  core::ModgemmOptions simd_opt;
  simd_opt.tiles.direct_threshold = 32;  // kernel left to the probe default
  core::modgemm(Op::NoTrans, Op::NoTrans, n, n, n, 1.0, A.data(), A.ld(),
                B.data(), B.ld(), 0.0, Cv.data(), Cv.ld(), simd_opt);
  EXPECT_LT(max_abs_diff<double>(Cs.view(), Cv.view()), 1e-10 * n);
}

// ---- alignment contract ----------------------------------------------------

TEST(AlignmentContract, AlignedBufferReportsItsAlignment) {
  AlignedBuffer buf(1000);
  EXPECT_EQ(buf.alignment(), AlignedBuffer::kDefaultAlignment);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(buf.data()) %
                AlignedBuffer::kDefaultAlignment,
            0u);
  AlignedBuffer wide(1000, 4096);
  EXPECT_EQ(wide.alignment(), 4096u);
  AlignedBuffer empty;
  EXPECT_EQ(empty.alignment(), 0u);
  AlignedBuffer moved(std::move(buf));
  EXPECT_EQ(moved.alignment(), AlignedBuffer::kDefaultAlignment);
  EXPECT_EQ(buf.alignment(), 0u);  // NOLINT(bugprone-use-after-move)
}

TEST(AlignmentContract, ArenaPushesAreCacheLineAligned) {
  Arena arena(1 << 16);
  EXPECT_GE(arena.alignment(), Arena::kChunkAlignment);
  // Odd-sized pushes must not knock later allocations off the contract the
  // SIMD kernels (and the Morton buffers) rely on.
  for (std::size_t count : {1, 3, 7, 64, 129}) {
    double* p = arena.push<double>(count);
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(p) % Arena::kChunkAlignment,
              0u)
        << "count=" << count;
  }
}

}  // namespace
}  // namespace strassen::blas::kernels
