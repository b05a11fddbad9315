// inplace.hpp -- memory-minimal (Kreczmar-style) Strassen-Winograd.
//
// The paper's related work (S5.1) cites Kreczmar's observation that
// Strassen's algorithm can run with essentially no auxiliary storage if it
// is allowed to OVERWRITE its input arguments, and dismisses it for library
// use ("we cannot assume that the input matrices can be overwritten").
// For applications that CAN sacrifice their operands -- the matrices are
// temporaries anyway, or memory is the binding constraint -- this entry
// point runs that variant over the same Morton machinery: C = A.B with ZERO
// workspace, destroying A and B.  The schedule is the verified table
// analysis::kKreczmar, the one the in-place family (ScheduleFamily::kInPlace)
// runs at every level; writing quadrants of one matrix into another
// restricts it to SQUARE tiles (tm == tk == tn), which square inputs always
// satisfy.
#pragma once

#include "core/morton_matrix.hpp"

namespace strassen::core {

// Destructive Morton-native multiply: C = A.B, consuming A and B.  Layouts
// must be square-tiled, mutually compatible, and equal in shape.  Allocates
// nothing.
void multiply_inplace(MortonMatrix& A, MortonMatrix& B, MortonMatrix& C);

}  // namespace strassen::core
