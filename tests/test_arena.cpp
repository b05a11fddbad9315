// Unit tests for the stack allocator (src/common/arena).
#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <new>
#include <stdexcept>
#include <utility>

#include "blas/gemm.hpp"
#include "common/arena.hpp"
#include "common/matrix.hpp"
#include "common/rng.hpp"
#include "core/morton_matrix.hpp"
#include "testing/fault_injection.hpp"

namespace strassen {
namespace {

TEST(Arena, PushReturnsAlignedDistinctRegions) {
  Arena a(4096);
  double* p1 = a.push<double>(10);
  double* p2 = a.push<double>(10);
  EXPECT_NE(p1, p2);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(p1) % 64, 0u);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(p2) % 64, 0u);
  // Regions must not overlap.
  EXPECT_GE(p2, p1 + 10);
}

TEST(Arena, PopReleasesToMarker) {
  Arena a(4096);
  const Arena::Marker m = a.mark();
  a.push<double>(100);
  EXPECT_GT(a.used(), 0u);
  a.pop(m);
  EXPECT_EQ(a.used(), 0u);
}

TEST(Arena, ReusesSpaceAfterPop) {
  Arena a(1024);
  const Arena::Marker m = a.mark();
  double* p1 = a.push<double>(64);
  a.pop(m);
  double* p2 = a.push<double>(64);
  EXPECT_EQ(p1, p2);
}

TEST(Arena, OverflowThrowsBadAlloc) {
  Arena a(256);
  EXPECT_THROW(a.push<double>(1024), std::bad_alloc);
}

TEST(Arena, PeakTracksHighWaterMark) {
  Arena a(4096);
  {
    Arena::Frame f(a);
    a.push<double>(100);  // 800 bytes -> rounded to 832
    {
      Arena::Frame g(a);
      a.push<double>(100);
    }
    a.push<double>(10);
  }
  EXPECT_EQ(a.used(), 0u);
  EXPECT_GE(a.peak(), 1600u);
  EXPECT_LE(a.peak(), 4096u);
}

TEST(Arena, FrameReleasesOnScopeExit) {
  Arena a(4096);
  {
    Arena::Frame f(a);
    a.push<int>(100);
    EXPECT_GT(a.used(), 0u);
  }
  EXPECT_EQ(a.used(), 0u);
}

TEST(Arena, NestedFramesUnwindInOrder) {
  Arena a(8192);
  Arena::Frame f1(a);
  a.push<char>(64);
  const std::size_t after1 = a.used();
  {
    Arena::Frame f2(a);
    a.push<char>(128);
    EXPECT_GT(a.used(), after1);
  }
  EXPECT_EQ(a.used(), after1);
}

TEST(Arena, CapacityReflectsConstruction) {
  Arena a(1000);
  EXPECT_GE(a.capacity(), 1000u);
}

// Arena(0) stays empty, like AlignedBuffer(0) and ScratchArena(0): it
// neither allocates nor consults the allocation gate, so a gate that refuses
// everything cannot fail it.
TEST(Arena, ZeroBytesAllocatesNothing) {
  namespace ft = ::strassen::testing;
  ft::FaultInjector refuse_all(ft::FaultMode::kFailFrom, 1);
  Arena a(0);
  EXPECT_EQ(a.capacity(), 0u);
  EXPECT_EQ(refuse_all.allocations(), 0u);
  EXPECT_THROW(a.push<double>(1), std::bad_alloc);
}

// A depth-0 product needs no recursion temporaries, so its Arena(0) makes
// no gated allocation and the product completes under a refusing gate.
TEST(Arena, DepthZeroMultiplyMakesNoGatedAllocation) {
  namespace ft = ::strassen::testing;
  const int n = 8;
  const layout::MortonLayout l{n, n, n, n, 0};
  Rng rng(5);
  Matrix<double> A(n, n), B(n, n), C(n, n), Ref(n, n);
  rng.fill_int(A.storage(), -3, 3);
  rng.fill_int(B.storage(), -3, 3);
  blas::naive_gemm(Op::NoTrans, Op::NoTrans, n, n, n, 1.0, A.data(), n,
                   B.data(), n, 0.0, Ref.data(), n);
  const core::MortonMatrix Am = core::MortonMatrix::from_colmajor(l, A.view());
  const core::MortonMatrix Bm = core::MortonMatrix::from_colmajor(l, B.view());
  core::MortonMatrix Cm(l);
  {
    ft::FaultInjector refuse_all(ft::FaultMode::kFailFrom, 1);
    core::multiply(Am, Bm, Cm);
    EXPECT_EQ(refuse_all.allocations(), 0u);
  }
  Cm.to_colmajor(C.view());
  EXPECT_EQ(max_abs_diff<double>(C.view(), Ref.view()), 0.0);
}

TEST(Arena, MoveConstructionLeavesSourceEmptyAndSafe) {
  Arena a(1024);
  a.push<double>(16);
  const std::size_t used = a.used();
  Arena b(std::move(a));
  // Destination took over the storage and counters...
  EXPECT_GE(b.capacity(), 1024u);
  EXPECT_EQ(b.used(), used);
  EXPECT_GE(b.peak(), used);
  b.push<double>(16);  // ...and is fully functional.
  // Source is the safe empty state: no capacity, no counters, and a push
  // reports exhaustion instead of handing out a dangling pointer.
  EXPECT_EQ(a.capacity(), 0u);
  EXPECT_EQ(a.used(), 0u);
  EXPECT_EQ(a.peak(), 0u);
  EXPECT_THROW(a.push<double>(1), std::bad_alloc);
}

TEST(Arena, MoveAssignmentLeavesSourceEmptyAndSafe) {
  Arena a(512);
  a.push<char>(64);
  Arena b(256);
  b.push<char>(32);
  b = std::move(a);
  EXPECT_GE(b.capacity(), 512u);
  EXPECT_GT(b.used(), 0u);
  EXPECT_EQ(a.capacity(), 0u);
  EXPECT_EQ(a.used(), 0u);
  EXPECT_EQ(a.peak(), 0u);
  EXPECT_THROW(a.push<char>(1), std::bad_alloc);
}

TEST(Arena, PushCountOverflowIsRejected) {
  // count * sizeof(T) would wrap: rejected as a bad argument, not allocated
  // with a silently wrapped size.
  Arena a(256);
  EXPECT_THROW(a.push<double>(std::numeric_limits<std::size_t>::max() / 4),
               std::invalid_argument);
}

}  // namespace
}  // namespace strassen
