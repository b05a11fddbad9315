// pack.hpp -- operand packing for the pack-fused (no-conversion) strategy.
//
// The Morton execution strategy stages op(A), op(B) into zero-padded Morton
// buffers so every recursion operand is a contiguous tile.  The pack-fused
// strategy (core/packfused.hpp) instead runs the Winograd schedule straight
// from the caller's column-major storage (a transposed operand is copied
// once, untransposed, at entry); wherever a leaf product needs an operand
// the kernels cannot consume in place -- a boundary tile that must be
// zero-padded, or a wide-strided view -- pack_panel gathers it into a dense
// 64-byte-aligned panel, folding the zero padding and an optional alpha
// scale into the single pass.  The library never hands these routines a
// transposed view; PackSrc::trans and pack_panel's transposed path stay for
// the benchmark's packing probes, which build PackSrc with that field.
//
// A packed panel holds EXACTLY the values the Morton conversion would have
// staged for the same tile (same single add/sub per element, zeros in the
// padded region), which is what keeps the pack-fused strategy bit-identical
// to the Morton strategy (see docs/DESIGN.md).
#pragma once

#include <cstddef>

#include "analysis/schedule.hpp"
#include "common/check.hpp"

namespace strassen::blas {

// A read-only view of one packing source: a clipped, possibly transposed
// window of a column-major matrix.  Logical element (i, j) of the pr x pc
// panel being packed reads
//
//     trans ? ptr[i*ld + j] : ptr[j*ld + i]      for i < rows && j < cols
//     0                                          outside the stored extent
//
// so zero padding is a property of the VIEW, not of any materialized buffer.
// rows/cols are the stored (real) extent; they may be smaller than the panel
// being packed (boundary tiles) but never larger.
template <class T>
struct PackSrc {
  const T* ptr = nullptr;
  int ld = 0;
  bool trans = false;
  int rows = 0;  // stored rows of the logical (post-op) window
  int cols = 0;  // stored cols of the logical (post-op) window

  T at(int i, int j) const {
    if (i >= rows || j >= cols) return T{0};
    return trans ? ptr[static_cast<std::size_t>(i) * ld + j]
                 : ptr[static_cast<std::size_t>(j) * ld + i];
  }

  bool empty() const { return rows == 0 || cols == 0; }

  // True when a pr x pc panel can use this view in place: untransposed and
  // covering the full panel, so the kernels read the same values through
  // `ld` that a packed copy would hold.
  bool covers(int pr, int pc) const {
    return !trans && rows >= pr && cols >= pc;
  }
};

namespace detail {

// One packed column j: dst[0..pr) = alpha * (a ± b)(., j), zero-filled
// beyond the stored extents.  Single-source callers pass b.ptr == nullptr.
template <class T>
inline void pack_col(T* dst, int pr, int j, const PackSrc<T>& a,
                     analysis::Sign s, const PackSrc<T>* b, T alpha) {
  const bool plus = s == analysis::Sign::kPlus;
  for (int i = 0; i < pr; ++i) {
    T v = a.at(i, j);
    if (b != nullptr) {
      const T w = b->at(i, j);
      v = plus ? static_cast<T>(v + w) : static_cast<T>(v - w);
    }
    dst[i] = alpha == T{1} ? v : static_cast<T>(alpha * v);
  }
}

}  // namespace detail

// dst (pr x pc, column-major, leading dimension pr) <- alpha * a, zero-filled
// outside a's stored extent.  Every element of dst is written -- a previously
// poisoned buffer comes out fully defined.
template <class T>
void pack_panel(T* dst, int pr, int pc, const PackSrc<T>& a, T alpha = T{1}) {
  STRASSEN_ASSERT(pr >= 0 && pc >= 0);
  STRASSEN_ASSERT(a.rows <= pr && a.cols <= pc);
  if (!a.trans && alpha == T{1}) {
    // Hot path: contiguous column copies plus explicit zero tails.
    for (int j = 0; j < pc; ++j) {
      T* d = dst + static_cast<std::size_t>(j) * pr;
      if (j < a.cols) {
        const T* col = a.ptr + static_cast<std::size_t>(j) * a.ld;
        for (int i = 0; i < a.rows; ++i) d[i] = col[i];
        for (int i = a.rows; i < pr; ++i) d[i] = T{0};
      } else {
        for (int i = 0; i < pr; ++i) d[i] = T{0};
      }
    }
    return;
  }
  for (int j = 0; j < pc; ++j)
    detail::pack_col(dst + static_cast<std::size_t>(j) * pr, pr, j, a,
                     analysis::Sign::kPlus, static_cast<const PackSrc<T>*>(nullptr),
                     alpha);
}

// dst (pr x pc, column-major, leading dimension pr) <- alpha * (a ± b): a
// Winograd operand combination folded into the gather (Huang et al.,
// "Implementing Strassen's Algorithm with BLIS").  No library code calls
// it -- the schedule tables materialize every operand sum -- only the
// benchmark's packing probe.  Elements outside either source's stored
// extent contribute zero, so the panel equals the combination of the
// zero-padded operands.  Every element of dst is written.
template <class T>
void pack_panel_sum(T* dst, int pr, int pc, const PackSrc<T>& a,
                    analysis::Sign s, const PackSrc<T>& b, T alpha = T{1}) {
  STRASSEN_ASSERT(pr >= 0 && pc >= 0);
  STRASSEN_ASSERT(a.rows <= pr && a.cols <= pc);
  STRASSEN_ASSERT(b.rows <= pr && b.cols <= pc);
  for (int j = 0; j < pc; ++j)
    detail::pack_col(dst + static_cast<std::size_t>(j) * pr, pr, j, a, s, &b,
                     alpha);
}

}  // namespace strassen::blas
