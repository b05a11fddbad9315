#include "core/modgemm.hpp"

#include <cstdlib>
#include <cstring>

#include "obs/scope.hpp"

namespace strassen::core {

namespace detail {

layout::ExecStrategy parse_exec_strategy(const char* value) {
  using layout::ExecStrategy;
  STRASSEN_REQUIRE(value != nullptr, "STRASSEN_STRATEGY: null value");
  if (std::strcmp(value, "auto") == 0) return ExecStrategy::kAuto;
  if (std::strcmp(value, "morton") == 0) return ExecStrategy::kMorton;
  if (std::strcmp(value, "packfused") == 0) return ExecStrategy::kPackFused;
  STRASSEN_REQUIRE(false, "STRASSEN_STRATEGY: unknown execution strategy \""
                              << value
                              << "\" (expected auto, morton or packfused)");
  return ExecStrategy::kAuto;  // unreachable
}

analysis::AlgoFamily parse_algo_family(const char* value) {
  using analysis::AlgoFamily;
  STRASSEN_REQUIRE(value != nullptr, "STRASSEN_ALGO: null value");
  if (std::strcmp(value, "auto") == 0) return AlgoFamily::kAuto;
  if (std::strcmp(value, "222") == 0) return AlgoFamily::k222;
  if (std::strcmp(value, "323") == 0) return AlgoFamily::k323;
  if (std::strcmp(value, "234") == 0) return AlgoFamily::k234;
  if (std::strcmp(value, "333") == 0) return AlgoFamily::k333;
  STRASSEN_REQUIRE(false, "STRASSEN_ALGO: unknown algorithm family \""
                              << value
                              << "\" (expected auto, 222, 323, 234 or 333)");
  return AlgoFamily::kAuto;  // unreachable
}

}  // namespace detail

ExecConfig resolve_config(ExecConfig pins) {
  // Read once per top-level call: getenv is cheap against the O(n^3) work
  // that follows, and tests flip the variables mid-process.  Unset or empty
  // leaves the field kAuto.
  const auto env = [](const char* name) -> const char* {
    const char* v = std::getenv(name);
    return v != nullptr && *v != '\0' ? v : nullptr;
  };
  if (pins.strategy == layout::ExecStrategy::kAuto)
    if (const char* v = env("STRASSEN_STRATEGY"))
      pins.strategy = detail::parse_exec_strategy(v);
  if (pins.algo == analysis::AlgoFamily::kAuto)
    if (const char* v = env("STRASSEN_ALGO"))
      pins.algo = detail::parse_algo_family(v);
  return pins;
}

// The production wrappers open an obs::CallScope: it resolves the report
// target (explicit pointer, ModgemmOptions::report, or a scope-local report
// the STRASSEN_OBS sink emits), installs the thread's kernel-telemetry
// collector when the call is observed, and stays entirely inert otherwise.

void modgemm(Op opa, Op opb, int m, int n, int k, double alpha,
             const double* A, int lda, const double* B, int ldb, double beta,
             double* C, int ldc, const ModgemmOptions& opt,
             ModgemmReport* report) {
  obs::CallScope scope("modgemm", report ? report : opt.report);
  RawMem raw;
  modgemm_mm(raw, opa, opb, m, n, k, alpha, A, lda, B, ldb, beta, C, ldc, opt,
             scope.report());
}

void modgemm(Op opa, Op opb, int m, int n, int k, float alpha, const float* A,
             int lda, const float* B, int ldb, float beta, float* C, int ldc,
             const ModgemmOptions& opt, ModgemmReport* report) {
  obs::CallScope scope("modgemm", report ? report : opt.report);
  RawMem raw;
  modgemm_mm(raw, opa, opb, m, n, k, alpha, A, lda, B, ldb, beta, C, ldc, opt,
             scope.report());
}

namespace {

// Shared nothrow wrapper: validate without throwing, then translate any
// escaping exception into a Status.  The validation runs first so a bad
// argument is reported as such even though modgemm would also throw for it.
template <class T>
Status try_modgemm_impl(Op opa, Op opb, int m, int n, int k, T alpha,
                        const T* A, int lda, const T* B, int ldb, T beta,
                        T* C, int ldc, const ModgemmOptions& opt,
                        ModgemmReport* report) noexcept {
  const Status s = validate_gemm_args(opa, opb, m, n, k, lda, ldb, ldc);
  if (s != Status::kOk) return s;
  try {
    modgemm(opa, opb, m, n, k, alpha, A, lda, B, ldb, beta, C, ldc, opt,
            report);
    return Status::kOk;
  } catch (const std::bad_alloc&) {
    return Status::kOutOfMemory;
  } catch (...) {
    return Status::kInternalError;
  }
}

}  // namespace

Status try_modgemm(Op opa, Op opb, int m, int n, int k, double alpha,
                   const double* A, int lda, const double* B, int ldb,
                   double beta, double* C, int ldc, const ModgemmOptions& opt,
                   ModgemmReport* report) noexcept {
  return try_modgemm_impl(opa, opb, m, n, k, alpha, A, lda, B, ldb, beta, C,
                          ldc, opt, report);
}

Status try_modgemm(Op opa, Op opb, int m, int n, int k, float alpha,
                   const float* A, int lda, const float* B, int ldb,
                   float beta, float* C, int ldc, const ModgemmOptions& opt,
                   ModgemmReport* report) noexcept {
  return try_modgemm_impl(opa, opb, m, n, k, alpha, A, lda, B, ldb, beta, C,
                          ldc, opt, report);
}

}  // namespace strassen::core
