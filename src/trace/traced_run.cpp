#include "trace/traced_run.hpp"

#include "baselines/dgefmm.hpp"
#include "baselines/dgemmw.hpp"
#include "blas/gemm.hpp"
#include "common/check.hpp"
#include "common/matrix.hpp"
#include "common/rng.hpp"
#include "core/modgemm.hpp"
#include "trace/memmodel.hpp"

namespace strassen::trace {

const char* impl_name(Impl impl) {
  switch (impl) {
    case Impl::Modgemm: return "MODGEMM";
    case Impl::Dgefmm: return "DGEFMM";
    case Impl::Dgemmw: return "DGEMMW";
    case Impl::Conventional: return "DGEMM";
  }
  return "?";
}

namespace {

TraceResult collect(const CacheHierarchy& h) {
  TraceResult r;
  r.hierarchy = h.name();
  for (std::size_t i = 0; i < h.num_levels(); ++i) {
    const Cache& c = h.level(i);
    TraceLevelStats stats{c.config().name, c.accesses(), c.misses(),
                          c.miss_ratio(), c.config().classify, c.breakdown()};
    r.levels.push_back(stats);
  }
  r.total_accesses = h.total_accesses();
  r.memory_accesses = h.memory_accesses();
  r.l1_miss_ratio = h.l1_miss_ratio();
  r.estimated_cycles = h.estimated_cycles();
  return r;
}

}  // namespace

TraceResult trace_multiply(Impl impl, int m, int n, int k,
                           CacheHierarchy hierarchy, std::uint64_t seed) {
  STRASSEN_REQUIRE(m >= 1 && n >= 1 && k >= 1, "bad trace dimensions");
  Matrix<double> A(m, k), B(k, n), C(m, n);
  Rng rng(seed);
  rng.fill_uniform(A.storage());
  rng.fill_uniform(B.storage());

  hierarchy.flush();
  TracingMem mm(hierarchy);
  switch (impl) {
    case Impl::Modgemm: {
      core::ModgemmOptions opt;
      // The trace experiments reproduce the paper's <2,2,2> cache stories:
      // plan under its tile window, and pin the family so a forced
      // STRASSEN_ALGO run cannot reroute them.
      opt.tiles = layout::kPaperTileWindow;
      opt.algo = analysis::AlgoFamily::k222;
      core::modgemm_mm(mm, Op::NoTrans, Op::NoTrans, m, n, k, 1.0, A.data(),
                       A.ld(), B.data(), B.ld(), 0.0, C.data(), C.ld(), opt);
      break;
    }
    case Impl::Dgefmm:
      baselines::dgefmm_mm(mm, Op::NoTrans, Op::NoTrans, m, n, k, 1.0,
                           A.data(), A.ld(), B.data(), B.ld(), 0.0, C.data(),
                           C.ld());
      break;
    case Impl::Dgemmw:
      baselines::dgemmw_mm(mm, Op::NoTrans, Op::NoTrans, m, n, k, 1.0,
                           A.data(), A.ld(), B.data(), B.ld(), 0.0, C.data(),
                           C.ld());
      break;
    case Impl::Conventional:
      blas::gemm_blocked(mm, Op::NoTrans, Op::NoTrans, m, n, k, 1.0, A.data(),
                         A.ld(), B.data(), B.ld(), 0.0, C.data(), C.ld());
      break;
  }
  return collect(hierarchy);
}

TraceResult trace_tile_kernel(int tile, int base_ld, bool contiguous,
                              CacheHierarchy hierarchy, int repetitions,
                              std::uint64_t seed) {
  STRASSEN_REQUIRE(tile >= 1 && repetitions >= 1, "bad tile trace request");
  STRASSEN_REQUIRE(contiguous || base_ld >= 3 * tile,
                   "base matrix must hold the three offset submatrices");
  Rng rng(seed);
  TracingMem mm(hierarchy);
  if (contiguous) {
    // Dedicated tiles: leading dimension == tile (the Morton leaf situation),
    // back to back in one buffer as in a Morton block, so whether they
    // collide in the simulated cache does not depend on where the heap put
    // three separate allocations.
    Matrix<double> M(tile, 3 * tile);
    rng.fill_uniform(M.storage());
    const std::size_t elems = static_cast<std::size_t>(tile) * tile;
    const double* A = M.data();
    const double* B = M.data() + elems;
    double* C = M.data() + 2 * elems;
    hierarchy.flush();
    for (int r = 0; r < repetitions; ++r)
      blas::gemm_leaf(mm, tile, tile, tile, A, tile, B, tile, C, tile,
                      blas::LeafMode::Overwrite);
  } else {
    // Submatrices of a base matrix M: A = M[0,0], B = M[T,T], C = M[2T,2T],
    // all with the base leading dimension (paper S3.3).
    Matrix<double> M(base_ld, 3 * tile);
    rng.fill_uniform(M.storage());
    const double* A = M.data();
    const double* B = M.data() + static_cast<std::size_t>(tile) * M.ld() + tile;
    double* C =
        M.data() + static_cast<std::size_t>(2 * tile) * M.ld() + 2 * tile;
    hierarchy.flush();
    for (int r = 0; r < repetitions; ++r)
      blas::gemm_leaf(mm, tile, tile, tile, A, M.ld(), B, M.ld(), C, M.ld(),
                      blas::LeafMode::Overwrite);
  }
  return collect(hierarchy);
}

}  // namespace strassen::trace
