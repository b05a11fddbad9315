// kernels/registry.hpp -- the leaf-kernel engine and its runtime dispatch.
//
// The Morton layout's promise (paper Fig. 3) is that leaf tiles are small,
// CONTIGUOUS (ld == rows) and 64-byte aligned, so a tuned register-blocked
// micro-kernel runs at a stable fraction of peak across the whole tile range.
// This module delivers that kernel: a table of ISA-specific micro-kernel
// implementations
//
//   scalar    4x4  -- the portable fallback; byte-for-byte the code the
//                     generic MemModel template produces (seed behaviour)
//   avx2      8x6  (double, AVX2+FMA)
//   avx512   24x8  (double, AVX-512F; the avx2 block at twice the width,
//                   bit-identical to it)
//   neon      4x4  (double, Advanced SIMD; AArch64 and ARMv7-NEON)
//
// selected once at startup by a CPU probe (cpuid on x86, HWCAP/mandatory
// NEON on ARM; avx512 > avx2 > neon > scalar), overridable by the
// STRASSEN_KERNEL environment variable ("scalar" | "avx2" | "avx512" |
// "neon") and per call via ModgemmOptions::kernel.  Each ISA ships one
// register block, as BLIS-style engines do; the two x86 tables instantiate
// one block template (simd_block.hpp) with their own vector traits.
//
// The engine serves ONLY the production RawMem/double instantiation: the
// templated kernels in blas/kernels.hpp and blas/level1.hpp route to the
// active table through `if constexpr` when (MM, T) == (RawMem, double), and
// compile the generic scalar loops for every other model.  TracingMem /
// CountingMem executions therefore always run the deterministic scalar
// address stream the cache-simulation results depend on, no matter which
// kernel is active.
//
// Each ISA lives in its own translation unit compiled with per-file ISA
// flags (see src/CMakeLists.txt), so a portable -march baseline binary still
// carries the AVX2 and AVX-512 kernels and enables them only on hosts whose
// cpuid says they can run.
#pragma once

#include <cstddef>
#include <vector>

#include "blas/kernels.hpp"

namespace strassen::blas::kernels {

// Which implementation family a table belongs to.  kAuto is not a table: it
// names "re-run the probe + environment override" in setter contexts.
enum class Kind { kAuto = -1, kScalar = 0, kAvx2 = 1, kNeon = 2, kAvx512 = 3 };

// Register block of the AVX2 kernel.  There is one, 8x6; the enum and its
// accessors below only name it in reports (not the avx512 block).
enum class Avx2Variant { k8x6 };

// Operand combination applied on the fly by gemm_fused_ab.
enum class FusedOp { kAdd, kSub };

// One ISA's kernel table.  All matrices are column-major doubles; the gemm
// entry accepts arbitrary leading dimensions (edges and the blocked driver
// pass strided views), while the element-wise entries are only ever called
// on contiguous quadrants.
struct LeafKernels {
  Kind kind;
  const char* name;  // "scalar", "avx2", "avx512", "neon"
  int mr, nr;        // register block of the main path

  // C(m x n) {=, +=} alpha * A(m x k) . B(k x n).
  void (*gemm)(int m, int n, int k, const double* A, int lda, const double* B,
               int ldb, double* C, int ldc, LeafMode mode, double alpha);

  // C = (A1 opa A2) . (B1 opb B2) (Overwrite, alpha == 1), both operand sums
  // formed inside the kernel.  No library code calls it: the schedule
  // tables materialize every operand sum.  Only the benchmark's
  // fused-leaf probe does; null in the scalar table.
  void (*gemm_fused_ab)(int m, int n, int k, const double* A1,
                        const double* A2, FusedOp opa, int lda,
                        const double* B1, const double* B2, FusedOp opb,
                        int ldb, double* C, int ldc);

  // Contiguous element-wise quadrant kernels (the 15 Winograd additions).
  // Alias contract as in level1.hpp: dst may equal a or b exactly; partial
  // overlap is not supported.
  void (*vadd)(std::size_t n, double* dst, const double* a, const double* b);
  void (*vsub)(std::size_t n, double* dst, const double* a, const double* b);
  void (*vadd_inplace)(std::size_t n, double* dst, const double* a);
  void (*vsub_inplace)(std::size_t n, double* dst, const double* a);
};

// ---- capability probing ---------------------------------------------------

// True when the running CPU can execute `kind` (cpuid on x86, HWCAP on
// 32-bit ARM; AArch64 implies NEON).  Independent of what was compiled in.
bool cpu_supports(Kind kind) noexcept;

// Kinds whose kernel TU was compiled into this binary (scalar always is).
std::vector<Kind> compiled_kernels();

// compiled_kernels() filtered by cpu_supports(): the kinds that can actually
// run here.  Never empty (scalar is always present).
std::vector<Kind> available_kernels();

bool is_available(Kind kind) noexcept;

// ---- active-kernel state --------------------------------------------------

// The process-wide active kernel.  Initialized on first use from the
// STRASSEN_KERNEL environment variable when set (unavailable or unknown
// values degrade to scalar -- the portable guarantee), else from the probe
// (best available).
Kind active_kernel() noexcept;

// Sets the active kernel.  kAuto re-runs the environment/probe selection;
// an unavailable kind degrades to kScalar.  This is process-global state:
// concurrent calls racing different pins get an arbitrary winner, so servers
// should pin once at startup (or per call via ModgemmOptions::kernel, which
// is documented to have the same global effect).
void set_active_kernel(Kind kind) noexcept;

// The active table (never null).
const LeafKernels& active() noexcept;

// Parses a STRASSEN_KERNEL-style value: "scalar", "avx2", "avx512" or "neon"
// ("" and "auto" mean kAuto).  Any other string throws
// std::invalid_argument naming the offending value -- this is the loud
// counterpart of the noexcept dispatch chain's degrade-to-scalar guarantee.
Kind parse_kernel_name(const char* value);

// Validates the STRASSEN_KERNEL environment variable, throwing (once per
// offending value; cached) like parse_kernel_name on a malformed one.
// Called by the gemm entry points before any work, so a typo'd override
// fails the call loudly instead of silently running the scalar table.
// Unset/empty is valid (the probe decides).
void require_valid_kernel_env();

// Table for a specific compiled-in kind; nullptr when its TU was compiled
// out (e.g. neon on an x86 build).
const LeafKernels* kernel_table(Kind kind) noexcept;

const char* kind_name(Kind kind) noexcept;

constexpr Avx2Variant avx2_variant() noexcept { return Avx2Variant::k8x6; }
constexpr const char* variant_name(Avx2Variant) noexcept { return "8x6"; }

// RAII pin for tests and per-call overrides: saves the active kernel, sets
// the requested one, restores on destruction.
class ScopedKernel {
 public:
  explicit ScopedKernel(Kind kind) : saved_kind_(active_kernel()) {
    set_active_kernel(kind);
  }
  ~ScopedKernel() { set_active_kernel(saved_kind_); }
  ScopedKernel(const ScopedKernel&) = delete;
  ScopedKernel& operator=(const ScopedKernel&) = delete;

 private:
  Kind saved_kind_;
};

namespace detail {
// Per-ISA table accessors, one per kernel TU.  A TU whose ISA was not
// enabled at compile time returns nullptr (see the avx2.cpp / avx512.cpp /
// neon.cpp stubs).
const LeafKernels& scalar_table() noexcept;
const LeafKernels* avx2_table() noexcept;
const LeafKernels* avx512_table() noexcept;
const LeafKernels* neon_table() noexcept;

// The AVX2 entries the avx512 table shares (defined in avx2.cpp, which is
// compiled in whenever avx512.cpp is).
void avx2_gemm_fused_ab(int m, int n, int k, const double* A1,
                        const double* A2, FusedOp opa, int lda,
                        const double* B1, const double* B2, FusedOp opb,
                        int ldb, double* C, int ldc);
void avx2_vadd(std::size_t n, double* dst, const double* a, const double* b);
void avx2_vsub(std::size_t n, double* dst, const double* a, const double* b);
void avx2_vadd_inplace(std::size_t n, double* dst, const double* a);
void avx2_vsub_inplace(std::size_t n, double* dst, const double* a);
}  // namespace detail

}  // namespace strassen::blas::kernels
