// arena.hpp -- stack (LIFO) allocator for recursion temporaries.
//
// The Winograd recursion needs two quadrant-sized temporary buffers per level.
// Because children are invoked strictly sequentially, the live temporaries at
// any instant form a stack; the workspace module computes the exact peak size
// up front and the recursion draws from this arena with push/pop semantics.
// This gives Strassen's temporaries the locality of a contiguous region and
// removes every allocation from the hot path.
#pragma once

#include <cstddef>
#include <utility>

#include "common/aligned_buffer.hpp"
#include "common/check.hpp"

namespace strassen {

class Arena {
 public:
  // Every push is rounded up to this granularity and therefore starts on a
  // 64-byte (cache-line) boundary -- the alignment contract the SIMD leaf
  // kernels rely on for Morton buffers and recursion temporaries.
  static constexpr std::size_t kChunkAlignment = 64;

  Arena() = default;
  // Creates an arena of `bytes` capacity, aligned to `alignment`.
  explicit Arena(std::size_t bytes,
                 std::size_t alignment = AlignedBuffer::kDefaultAlignment);

  // Moves leave the source in the safe empty state (zero capacity, zero
  // top/peak), so a moved-from arena reports used() == 0 and every push
  // throws std::bad_alloc instead of handing out dangling pointers.
  Arena(Arena&& other) noexcept
      : buffer_(std::move(other.buffer_)),
        top_(std::exchange(other.top_, 0)),
        peak_(std::exchange(other.peak_, 0)) {}
  Arena& operator=(Arena&& other) noexcept {
    if (this != &other) {
      buffer_ = std::move(other.buffer_);
      top_ = std::exchange(other.top_, 0);
      peak_ = std::exchange(other.peak_, 0);
    }
    return *this;
  }
  Arena(const Arena&) = delete;
  Arena& operator=(const Arena&) = delete;

  // Allocates `count` elements of T from the top of the stack.  Every
  // allocation is aligned to 64 bytes.  Throws std::bad_alloc on overflow
  // (which indicates a workspace-sizing bug, see core/workspace).
  template <class T>
  T* push(std::size_t count) {
    return static_cast<T*>(push_bytes(checked_mul(count, sizeof(T))));
  }

  // A marker capturing the current stack top; pop(marker) releases every
  // allocation made after mark() was called.
  using Marker = std::size_t;
  Marker mark() const { return top_; }
  void pop(Marker m);

  std::size_t capacity() const { return buffer_.size_bytes(); }
  std::size_t used() const { return top_; }
  // Alignment of the backing storage (>= kChunkAlignment by default); every
  // pointer push() returns is aligned to min(alignment(), kChunkAlignment).
  std::size_t alignment() const { return buffer_.alignment(); }
  // High-water mark over the lifetime of the arena (for workspace tests).
  std::size_t peak() const { return peak_; }
  // Restarts the high-water measurement at the current top.  The arena pool
  // calls this when it hands a cached arena to a new acquisition, so peak()
  // reflects the acquiring call rather than the buffer's whole history.
  void reset_peak() { peak_ = top_; }

  // RAII frame: releases everything pushed during its lifetime.
  class Frame {
   public:
    explicit Frame(Arena& a) : arena_(a), marker_(a.mark()) {}
    ~Frame() { arena_.pop(marker_); }
    Frame(const Frame&) = delete;
    Frame& operator=(const Frame&) = delete;

   private:
    Arena& arena_;
    Marker marker_;
  };

 private:
  void* push_bytes(std::size_t bytes);

  AlignedBuffer buffer_;
  std::size_t top_ = 0;
  std::size_t peak_ = 0;
};

}  // namespace strassen
