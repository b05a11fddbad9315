#include "core/inplace.hpp"

#include "common/check.hpp"
#include "core/winograd.hpp"

namespace strassen::core {

void multiply_inplace(MortonMatrix& A, MortonMatrix& B, MortonMatrix& C) {
  const auto& la = A.layout();
  const auto& lb = B.layout();
  const auto& lc = C.layout();
  STRASSEN_REQUIRE(la.tile_rows == la.tile_cols &&
                       lb.tile_rows == lb.tile_cols &&
                       la.tile_rows == lb.tile_rows,
                   "in-place multiply requires square, equal tiles");
  STRASSEN_REQUIRE(la.depth == lb.depth && la.depth == lc.depth,
                   "operand layouts must share the recursion depth");
  STRASSEN_REQUIRE(lc.tile_rows == la.tile_rows &&
                       lc.tile_cols == lb.tile_cols,
                   "result layout incompatible with operands");
  STRASSEN_REQUIRE(la.cols == lb.rows && lc.rows == la.rows &&
                       lc.cols == lb.cols,
                   "shape mismatch");
  RawMem mm;
  Arena none;
  winograd_recurse(mm, C.data(), A.data(), B.data(), la.tile_rows,
                   la.tile_rows, la.tile_rows, la.depth, none,
                   analysis::ScheduleFamily::kInPlace);
}

}  // namespace strassen::core
