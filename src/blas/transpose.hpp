// transpose.hpp -- blocked out-of-place transpose.
//
// Used wherever op(X) = X^T is materialized: the pack-fused strategy's entry
// copy (core/packfused.hpp), the blocked baseline gemm and the DGEFMM /
// DGEMMW baselines, and the conversion tests.  (The Morton strategy folds
// the transpose into its column-major -> Morton conversion instead, see
// layout/convert.hpp.)
#pragma once

#include <cstddef>

#include "common/memmodel.hpp"

namespace strassen::blas {

// dst(j,i) = src(i,j); src is m x n with leading dimension lds, dst is n x m
// with leading dimension ldd.  Blocked to keep both access streams in cache.
//
// The block is 16, not 32: one block keeps kBlock destination lines in
// flight, ldd elements apart.  At a power-of-two stride such as ldd = 256
// doubles (2 KB) they map to only two sets of a 32 KB, 64-set L1, so 32
// lines put 16 in each 8-way set and the block evicts its own destination
// lines before it fills them (the paper's S4.2 power-of-two conflict).
// 16 lines put 8 in each set, which the L1 holds.  Copying a 256 x 256
// block out of a 9216-wide matrix into a 256-wide one took 2.3 ns per
// element with 32 x 32 blocks and 0.7 ns with 16 x 16 (4-vCPU AVX2 host).
template <class MM, class T>
void transpose(MM& mm, int m, int n, const T* src, int lds, T* dst, int ldd) {
  constexpr int kBlock = 16;
  for (int j0 = 0; j0 < n; j0 += kBlock) {
    const int jn = j0 + kBlock < n ? j0 + kBlock : n;
    for (int i0 = 0; i0 < m; i0 += kBlock) {
      const int in = i0 + kBlock < m ? i0 + kBlock : m;
      for (int j = j0; j < jn; ++j)
        for (int i = i0; i < in; ++i)
          mm.store(dst + static_cast<std::size_t>(i) * ldd + j,
                   mm.load(src + static_cast<std::size_t>(j) * lds + i));
    }
  }
}

void transpose(int m, int n, const double* src, int lds, double* dst, int ldd);

}  // namespace strassen::blas
