// core/batched.hpp -- the batched GEMM service core.
//
// The paper tunes ONE product for memory efficiency; a serving workload is
// torrents of small/medium products per request (the per-inference
// ConvolutionSgemm / WinogradSgemm batch shape of Go/chess engines).  Naive
// looping over core::modgemm pays, per product: argument+environment
// resolution, a planning pass, a workspace allocation, and a report.  This
// entry point amortizes all four across the batch:
//
//   * plan once per (shape, op, beta == 0, strategy, budget) equivalence
//     class -- products with equal planning inputs share one GemmPlan,
//     looked up in / published to the process-wide plan cache
//     (tune/plan_cache.hpp), so a steady-state service plans a given class
//     exactly once per process;
//   * scratch through the per-thread ScratchArena cache
//     (parallel/arena_pool.hpp) -- a worker that has run one product of a
//     class reuses the same arena for every subsequent product it picks up,
//     so a batch of B identical products costs at most (threads + 1) cold
//     allocations, not B;
//   * schedule the whole batch on the work-stealing pool: one task per
//     product, except DEEP products -- those whose plan
//     parallel::pmodgemm would fork at the top on this pool
//     (parallel::fork_levels >= 1: sub-products of at least min_task_flops
//     padded volume) -- which run as parallel products of their own on the
//     class plan; small products parallelize across each other, big ones
//     within themselves;
//   * one aggregated GemmReport per batch (schema v5's "batch" section:
//     product count, class count, plan-cache hits, arena acquisition /
//     cold-allocation counts, tune-cache state).
//
// Resilience contract, unchanged from the serial driver: every product runs
// the full degradation ladder independently inside its task, so a valid
// batch always completes every C exactly; an argument error rejects the
// WHOLE batch before any C is touched (validation of all items runs up
// front).  try_ variants return the first offending item's Status, nothrow.
#pragma once

#include <cstdint>

#include "core/modgemm.hpp"
#include "parallel/thread_pool.hpp"

namespace strassen::core {

// One product of a batch, dgemm convention: C <- alpha*op(A).op(B) + beta*C,
// op(A) m x k, op(B) k x n, C m x n, all column-major with leading dims.
struct BatchItem {
  Op opa = Op::NoTrans;
  Op opb = Op::NoTrans;
  int m = 0, n = 0, k = 0;
  double alpha = 1.0;
  const double* A = nullptr;
  int lda = 1;
  const double* B = nullptr;
  int ldb = 1;
  double beta = 0.0;
  double* C = nullptr;
  int ldc = 1;
};

struct BatchedOptions {
  // Planner knobs shared by every product (overridden by the tuned knobs
  // when `tune` is set).
  layout::TileOptions tiles{};
  // Per-product workspace budget, exactly ModgemmOptions::max_workspace_bytes
  // (the degradation ladder applies per class).  0 = unlimited.
  std::size_t max_workspace_bytes = 0;
  // Leaf-kernel pin installed ONCE for the whole batch (process-global, like
  // ModgemmOptions::kernel).
  blas::kernels::Kind kernel = blas::kernels::Kind::kAuto;
  // Execution-strategy pin, resolved once per batch against
  // STRASSEN_STRATEGY (semantics identical to ModgemmOptions).
  layout::ExecStrategy strategy = layout::ExecStrategy::kAuto;
  // Granularity floor shared with ParallelOptions::min_task_flops (same
  // default): a product runs as a parallel product of its own instead of a
  // single task exactly when pmodgemm would fork the top level of its plan,
  // i.e. when its sub-products' padded volume (m_pad * k_pad * n_pad / 8)
  // is at least this (parallel::fork_levels >= 1).
  std::int64_t min_task_flops = std::int64_t{1} << 21;
  // Consult/populate the process-wide plan cache (tune/plan_cache.hpp).
  // Off, every batch plans its classes from scratch (still once per class).
  bool use_plan_cache = true;
  // Run tune::autotune_cached() once up front and use its tile knobs for the
  // whole batch (a warm STRASSEN_TUNE_CACHE makes this a file read; the
  // outcome lands in the report's batch.tune_cache field).  Off by default:
  // services that tuned at startup pass their knobs via `tiles`.
  bool tune = false;
  // Per-batch observability (one aggregated report); same precedence as
  // ModgemmOptions::report vs the trailing parameter.
  obs::GemmReport* report = nullptr;
};

// Multiplies `count` independent products.  `pool` may be null (everything
// runs inline on the caller, still one planning pass per class).  Throws
// std::invalid_argument -- before touching any C -- if ANY item has bad
// arguments; std::bad_alloc only if even the allocation-free bottom rung
// could not run for some product (the ladder makes this as rare as for
// core::modgemm).
void modgemm_batched(parallel::ThreadPool* pool, const BatchItem* items,
                     int count, const BatchedOptions& opt = {},
                     obs::GemmReport* report = nullptr);

// The cuBLAS-convention strided flavor: item i multiplies
// A + i*stride_a, B + i*stride_b into C + i*stride_c (same shape, ops,
// alpha/beta and leading dimensions for all items -- exactly one plan
// class).  Strides are in elements.  stride_c must cover a full C footprint
// (>= ldc*n) when batch > 1 so outputs cannot alias; stride_a / stride_b of
// 0 broadcast a shared operand.
void modgemm_strided_batched(parallel::ThreadPool* pool, Op opa, Op opb,
                             int m, int n, int k, double alpha,
                             const double* A, int lda, std::int64_t stride_a,
                             const double* B, int ldb, std::int64_t stride_b,
                             double beta, double* C, int ldc,
                             std::int64_t stride_c, int batch,
                             const BatchedOptions& opt = {},
                             obs::GemmReport* report = nullptr);

// Nothrow flavors: argument errors come back as the first offending item's
// Status with EVERY C untouched; runtime failures that escape the ladder map
// to kOutOfMemory / kInternalError (per-product exact-or-untouched still
// holds -- a product either completed exactly or was never started).
Status try_modgemm_batched(parallel::ThreadPool* pool, const BatchItem* items,
                           int count, const BatchedOptions& opt = {},
                           obs::GemmReport* report = nullptr) noexcept;
Status try_modgemm_strided_batched(parallel::ThreadPool* pool, Op opa, Op opb,
                                   int m, int n, int k, double alpha,
                                   const double* A, int lda,
                                   std::int64_t stride_a, const double* B,
                                   int ldb, std::int64_t stride_b, double beta,
                                   double* C, int ldc, std::int64_t stride_c,
                                   int batch, const BatchedOptions& opt = {},
                                   obs::GemmReport* report = nullptr) noexcept;

}  // namespace strassen::core
