// bench.hpp -- shared types of the MODGEMM benchmark binary (mgbench).
//
// A workload is a seeded stream of items.  One item is what the benchmark
// times as one "call": a single modgemm / pmodgemm product, or one
// sayuri-serve request made of three batched API calls.  Every API call owns
// the C regions it writes; each region carries its set-up reference and
// error bound, so outputs are checked outside the timed interval.
#pragma once

#include <chrono>
#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <vector>

#include "core/batched.hpp"
#include "obs/report.hpp"
#include "parallel/thread_pool.hpp"

namespace perfbench {

using strassen::Op;

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// Which public entry point an API call goes through.
enum class Entry { kModgemm, kPmodgemm, kBatched, kStridedBatched };

// One C window an API call writes: restored from `c0` before the call and
// compared with `ref` (m x n, contiguous) after it.
// Items of one shape class share their regions' storage (copies of one
// prototype call), so a reference is computed once per distinct `ref`.
struct CheckRegion {
  double* c = nullptr;
  int ldc = 0;
  const double* c0 = nullptr;
  int ld0 = 0;
  int m = 0, n = 0;
  double* ref = nullptr;  // alpha * op(A).op(B) + beta * c0, m x n
  double tol = 0.0;       // error bound, set by compute_references
};

// One call into the library's public API.
struct ApiCall {
  Entry entry = Entry::kModgemm;
  const char* label = "";  // span name, e.g. "conv3x3"
  // Single-product / strided parameters.
  Op opa = Op::NoTrans, opb = Op::NoTrans;
  int m = 0, n = 0, k = 0;
  double alpha = 1.0, beta = 0.0;
  const double* A = nullptr;
  int lda = 0;
  const double* B = nullptr;
  int ldb = 0;
  double* C = nullptr;
  int ldc = 0;
  std::int64_t stride_a = 0, stride_b = 0, stride_c = 0;
  int batch = 1;
  std::vector<strassen::core::BatchItem> items;  // kBatched
  std::vector<CheckRegion> regions;
  int products() const;    // products this call multiplies
  double flops() const;    // conventional 2*m*n*k summed over products
};

struct Item {
  int cls = 0;  // shape class (set-up opens each with its largest item)
  std::vector<ApiCall> calls;
  double flops() const;
};

struct Workload {
  std::string name;
  bool pooled = false;
  std::vector<Item> items;  // one round of the stream
  int classes = 0;
  std::vector<std::string> class_names;
  // Storage every pointer in `items` refers to.
  std::vector<std::unique_ptr<double[]>> storage;
  double* alloc(std::size_t n);
};

// Builds workload `name` from `seed`: shapes, ops, scalars, leading
// dimensions and operand values.  References are not computed here.
Workload make_workload(const std::string& name, std::uint64_t seed);

// What one reported run of each distinct API call showed.
struct Warmup {
  std::vector<strassen::obs::GemmReport> reports;  // one per distinct call
  std::size_t workspace_peak_bytes = 0;
};

// Computes every distinct region's reference with the conventional blocked
// gemm (blas::gemm), then runs each distinct API call once with a fresh
// report -- outside any timed interval -- to learn its Strassen depth d, and
// sets the region's Higham-form normwise bound for that depth:
//   64 u k 3^d |alpha| max|op(A)| max|op(B)| + 4 u |beta| max|C0|
// (the per-level growth of 3 is the one tests/test_numerics.cpp observes).
Warmup compute_references(Workload& w, strassen::parallel::ThreadPool* pool);

// Restores every C region of `item` from its c0.
void restore(Item& item);
// Largest error / bound ratio over the item's regions (> 1 or NaN = miss).
double check(const Item& item);

// Fresh reports for the API calls of one item.  Reports are requested new
// for every call: obs::GemmReport timers accumulate with +=, so reusing one
// would sum calls.  A deque keeps handed-out reports in place.
struct ReportSink {
  std::deque<strassen::obs::GemmReport> reports;
  std::vector<std::int64_t> start_ns, end_ns;
  strassen::obs::GemmReport* fresh();
};

// Runs one API call.  Returns false when a try_ entry point returned a
// non-OK Status; a throwing entry point's exception propagates.
bool execute(strassen::parallel::ThreadPool* pool, ApiCall& call,
             strassen::obs::GemmReport* report);
// Runs every API call of `item`; with a sink, each call gets a fresh report
// and its start / end times.
bool execute(strassen::parallel::ThreadPool* pool, Item& item,
             ReportSink* sink);

// One-line description of an item's calls (shape, ops, scalars, lds) plus a
// digest of its operand values: the benchmark's stream, for self-tests.
std::string describe(const Item& item);

// Host facts for the provenance stamp.
int nproc();
std::int64_t llc_bytes();

}  // namespace perfbench
