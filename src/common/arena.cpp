#include "common/arena.hpp"

#include <algorithm>
#include <new>

#include "common/check.hpp"

namespace strassen {

namespace {
std::size_t round_up(std::size_t n, std::size_t a) {
  return (n + a - 1) / a * a;
}
}  // namespace

// Arena(0) stays empty, like AlignedBuffer(0): it allocates nothing and does
// not consult the allocation gate.
Arena::Arena(std::size_t bytes, std::size_t alignment)
    : buffer_(round_up(bytes, kChunkAlignment), alignment) {}

void* Arena::push_bytes(std::size_t bytes) {
  const std::size_t need = round_up(bytes, kChunkAlignment);
  if (top_ + need > buffer_.size_bytes()) throw std::bad_alloc();
  void* p = static_cast<char*>(buffer_.data()) + top_;
  top_ += need;
  peak_ = std::max(peak_, top_);
  return p;
}

void Arena::pop(Marker m) {
  STRASSEN_ASSERT(m <= top_);
  top_ = m;
}

}  // namespace strassen
