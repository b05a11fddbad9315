#include "core/workspace.hpp"

namespace strassen::core {

std::size_t level_temp_bytes(const analysis::Schedule& sched, int tm, int tk,
                             int tn, int d1, std::size_t elem_size) {
  const std::size_t scale = std::size_t{1} << (2 * d1);
  auto quad = [&](int r, int c) {
    return checked_mul(checked_mul(static_cast<std::size_t>(r),
                                   static_cast<std::size_t>(c)),
                       scale);
  };
  const TempLayout l = temp_layout(sched, quad(tm, tk), quad(tk, tn),
                                   quad(tm, tn));
  std::size_t total = 0;
  for (int b = 0; b < l.buffers; ++b)
    total = checked_add(
        total, checked_add(checked_mul(l.elems[b], elem_size), 63) / 64 * 64);
  return total;
}

std::size_t winograd_workspace_bytes(int tm, int tk, int tn, int depth,
                                     std::size_t elem_size,
                                     analysis::ScheduleFamily family) {
  STRASSEN_REQUIRE(tm >= 1 && tk >= 1 && tn >= 1 && depth >= 0 && depth < 31,
                   "bad workspace request: tm=" << tm << " tk=" << tk
                                                << " tn=" << tn
                                                << " depth=" << depth);
  std::size_t total = 0;
  for (int d1 = depth - 1; d1 >= 0; --d1)
    total = checked_add(total,
                        level_temp_bytes(analysis::level_schedule(family), tm,
                                         tk, tn, d1, elem_size));
  return total;
}

}  // namespace strassen::core
