// kernels/registry.cpp -- runtime CPU dispatch for the leaf-kernel engine.
//
// Selection order (first hit wins):
//   1. STRASSEN_KERNEL environment variable, parsed once on first use.
//      Unavailable or unknown values degrade to the scalar table -- the
//      portable guarantee -- never to an illegal-instruction crash.
//   2. CPU probe: the best compiled-in kind the host can execute
//      (avx512 > avx2 > neon > scalar).
//
// The active kind is an atomic, so the per-leaf-call read is a few
// nanoseconds against the O(T^3) work it dispatches; setters are for
// startup, tests (ScopedKernel) and ModgemmOptions::kernel pins.
#include "blas/kernels/registry.hpp"

#include <atomic>
#include <cstdlib>
#include <cstring>

#include "common/check.hpp"

#if defined(__linux__) && defined(__arm__)
#include <sys/auxv.h>
#endif

namespace strassen::blas::kernels {

namespace {

Kind detect_default();

struct State {
  std::atomic<Kind> active;
  State() { active.store(detect_default(), std::memory_order_relaxed); }
};

// Every table kind, in the order the listings report them.
constexpr Kind kAllKinds[] = {Kind::kScalar, Kind::kAvx2, Kind::kAvx512,
                              Kind::kNeon};

bool table_compiled(Kind kind) { return kernel_table(kind) != nullptr; }

// Parses STRASSEN_KERNEL for the NOEXCEPT dispatch chain: parse_kernel_name's
// mapping (unset, "" and "auto" give kAuto), except that an unknown value
// gives kScalar instead of throwing -- an operator typo must not silently
// re-enable SIMD.  The loud rejection of unknown values lives in
// require_valid_kernel_env(), which the gemm entry points call from a
// throwing context.
Kind parse_env() {
  const char* e = std::getenv("STRASSEN_KERNEL");
  if (e == nullptr) return Kind::kAuto;
  try {
    return parse_kernel_name(e);
  } catch (...) {
    return Kind::kScalar;
  }
}

Kind best_available() {
  if (is_available(Kind::kAvx512)) return Kind::kAvx512;
  if (is_available(Kind::kAvx2)) return Kind::kAvx2;
  if (is_available(Kind::kNeon)) return Kind::kNeon;
  return Kind::kScalar;
}

// The default selection: environment override, else probe.
Kind detect_default() {
  const Kind env = parse_env();
  if (env == Kind::kAuto) return best_available();
  return is_available(env) ? env : Kind::kScalar;
}

State& state() {
  static State s;
  return s;
}

}  // namespace

bool cpu_supports(Kind kind) noexcept {
  switch (kind) {
    case Kind::kAuto:
    case Kind::kScalar:
      return true;
    case Kind::kAvx2:
#if defined(__x86_64__) || defined(__i386__)
      return __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma");
#else
      return false;
#endif
    case Kind::kAvx512:
      // The avx512 table shares the AVX2 element-wise entries.
#if defined(__x86_64__) || defined(__i386__)
      return __builtin_cpu_supports("avx512f") && cpu_supports(Kind::kAvx2);
#else
      return false;
#endif
    case Kind::kNeon:
#if defined(__aarch64__)
      return true;  // Advanced SIMD is architecturally mandatory on AArch64
#elif defined(__linux__) && defined(__arm__) && defined(HWCAP_NEON)
      return (getauxval(AT_HWCAP) & HWCAP_NEON) != 0;
#else
      return false;
#endif
  }
  return false;
}

const LeafKernels* kernel_table(Kind kind) noexcept {
  switch (kind) {
    case Kind::kScalar:
      return &detail::scalar_table();
    case Kind::kAvx2:
      return detail::avx2_table();
    case Kind::kAvx512:
      return detail::avx512_table();
    case Kind::kNeon:
      return detail::neon_table();
    case Kind::kAuto:
      break;
  }
  return nullptr;
}

bool is_available(Kind kind) noexcept {
  return kind != Kind::kAuto && table_compiled(kind) && cpu_supports(kind);
}

std::vector<Kind> compiled_kernels() {
  std::vector<Kind> out;
  for (Kind k : kAllKinds)
    if (table_compiled(k)) out.push_back(k);
  return out;
}

std::vector<Kind> available_kernels() {
  std::vector<Kind> out;
  for (Kind k : kAllKinds)
    if (is_available(k)) out.push_back(k);
  return out;
}

Kind active_kernel() noexcept {
  return state().active.load(std::memory_order_relaxed);
}

void set_active_kernel(Kind kind) noexcept {
  if (kind == Kind::kAuto)
    kind = detect_default();
  else if (!is_available(kind))
    kind = Kind::kScalar;
  state().active.store(kind, std::memory_order_relaxed);
}

const LeafKernels& active() noexcept {
  const LeafKernels* t = kernel_table(active_kernel());
  return t != nullptr ? *t : detail::scalar_table();
}

Kind parse_kernel_name(const char* value) {
  STRASSEN_REQUIRE(value != nullptr, "STRASSEN_KERNEL: null value");
  if (*value == '\0' || std::strcmp(value, "auto") == 0) return Kind::kAuto;
  if (std::strcmp(value, "scalar") == 0) return Kind::kScalar;
  if (std::strcmp(value, "avx2") == 0) return Kind::kAvx2;
  if (std::strcmp(value, "avx512") == 0) return Kind::kAvx512;
  if (std::strcmp(value, "neon") == 0) return Kind::kNeon;
  STRASSEN_REQUIRE(false, "STRASSEN_KERNEL: unknown kernel \""
                              << value
                              << "\" (expected scalar, avx2, avx512 or neon)");
  return Kind::kAuto;  // unreachable
}

void require_valid_kernel_env() {
  // Re-read on every call (getenv is cheap against the O(n^3) work that
  // follows, and tests flip the variable mid-process): no gemm entry runs
  // under a typo'd override.
  const char* e = std::getenv("STRASSEN_KERNEL");
  if (e != nullptr) (void)parse_kernel_name(e);
}

const char* kind_name(Kind kind) noexcept {
  switch (kind) {
    case Kind::kAuto:
      return "auto";
    case Kind::kScalar:
      return "scalar";
    case Kind::kAvx2:
      return "avx2";
    case Kind::kAvx512:
      return "avx512";
    case Kind::kNeon:
      return "neon";
  }
  return "unknown";
}

// ---- hot-path dispatch thunks (declared in kernels.hpp / level1.hpp) ------

// Scalar-active gemm_leaf calls never reach the engine: the template falls
// through to the caller's local gemm_leaf_generic instantiation, which is
// what keeps STRASSEN_KERNEL=scalar bit-identical to the pre-engine library
// (the centralized scalar.cpp instantiation of the same template may round
// differently under FMA contraction).
bool simd_gemm_active() noexcept {
  return active_kernel() != Kind::kScalar;
}

void dispatch_gemm_leaf(int m, int n, int k, const double* A, int lda,
                        const double* B, int ldb, double* C, int ldc,
                        LeafMode mode, double alpha) noexcept {
  active().gemm(m, n, k, A, lda, B, ldb, C, ldc, mode, alpha);
}

void dispatch_vadd(std::size_t n, double* dst, const double* a,
                   const double* b) noexcept {
  active().vadd(n, dst, a, b);
}

void dispatch_vsub(std::size_t n, double* dst, const double* a,
                   const double* b) noexcept {
  active().vsub(n, dst, a, b);
}

void dispatch_vadd_inplace(std::size_t n, double* dst, const double* a) noexcept {
  active().vadd_inplace(n, dst, a);
}

void dispatch_vsub_inplace(std::size_t n, double* dst, const double* a) noexcept {
  active().vsub_inplace(n, dst, a);
}

}  // namespace strassen::blas::kernels
