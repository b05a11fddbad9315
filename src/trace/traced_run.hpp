// traced_run.hpp -- full-execution cache simulations of the competing GEMMs.
//
// These drivers reproduce the paper's Fig. 9 methodology: run the COMPLETE
// implementation (including, for MODGEMM, the layout conversions) on real
// data while every load/store is replayed through a cache model, then report
// per-level miss statistics.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "trace/cache.hpp"

namespace strassen::trace {

enum class Impl { Modgemm, Dgefmm, Dgemmw, Conventional };

const char* impl_name(Impl impl);

struct TraceLevelStats {
  std::string name;
  std::uint64_t accesses = 0;
  std::uint64_t misses = 0;
  double miss_ratio = 0.0;
  bool has_breakdown = false;   // true when the level ran with classification
  MissBreakdown breakdown{};    // three-C's attribution (CProf stand-in)
};

struct TraceResult {
  std::string hierarchy;
  std::vector<TraceLevelStats> levels;
  std::uint64_t total_accesses = 0;
  std::uint64_t memory_accesses = 0;
  double l1_miss_ratio = 0.0;
  double estimated_cycles = 0.0;
};

// Runs C = A.B (alpha=1, beta=0, the paper's measurement setting) for an
// m x n result with inner dimension k under cache simulation.  MODGEMM plans
// under the paper's tile window (layout::kPaperTileWindow).
TraceResult trace_multiply(Impl impl, int m, int n, int k,
                           CacheHierarchy hierarchy,
                           std::uint64_t seed = 0x5C98u);

// The Fig. 3 kernel experiment under simulation: multiply T x T submatrices
// carved from a base matrix of leading dimension `base_ld` (non-contiguous,
// A at (0,0), B at (T,T), C at (2T,2T) as in the paper) or from dedicated
// contiguous tiles (`contiguous` = true, leading dimension T, back to back
// in one buffer).
TraceResult trace_tile_kernel(int tile, int base_ld, bool contiguous,
                              CacheHierarchy hierarchy, int repetitions = 4,
                              std::uint64_t seed = 0x5C98u);

}  // namespace strassen::trace
