#include "obs/report.hpp"

#include <algorithm>
#include <cstdio>
#include <ostream>
#include <sstream>

namespace strassen::obs {

const char* fallback_reason_name(FallbackReason r) {
  switch (r) {
    case FallbackReason::kNone:
      return "none";
    case FallbackReason::kAlgoFallback:
      return "algo-fallback";
    case FallbackReason::kScheduleSwap:
      return "schedule-swap";
    case FallbackReason::kDepthReduced:
      return "depth-reduced";
    case FallbackReason::kBudgetDirect:
      return "budget-direct";
    case FallbackReason::kAllocDirect:
      return "alloc-direct";
    case FallbackReason::kAllocStrided:
      return "alloc-strided";
  }
  return "unknown";
}

void merge_sub_report(GemmReport& into, const GemmReport& sub,
                      bool timed_by_parent) {
  if (!timed_by_parent) {
    into.convert_in_seconds += sub.convert_in_seconds;
    into.compute_seconds += sub.compute_seconds;
    into.convert_out_seconds += sub.convert_out_seconds;
    into.products += sub.products;
  }
  into.workspace_requested_bytes += sub.workspace_requested_bytes;
  into.workspace_allocations += sub.workspace_allocations;
  into.workspace_peak_bytes =
      std::max(into.workspace_peak_bytes, sub.workspace_peak_bytes);
  into.workspace_saved_bytes += sub.workspace_saved_bytes;
  into.conversion_saved_bytes += sub.conversion_saved_bytes;
  into.batch_workspace_acquisitions += sub.batch_workspace_acquisitions;
  into.batch_workspace_cold_allocs += sub.batch_workspace_cold_allocs;
  into.split_used = into.split_used || sub.split_used;
  into.fallback_reason = std::max(into.fallback_reason, sub.fallback_reason);
  if (sub.products > 0) into.plan = sub.plan;
  if (sub.schedule[0] != '\0') into.schedule = sub.schedule;
  if (sub.strategy[0] != '\0') into.strategy = sub.strategy;
  if (sub.algo[0] != '\0') into.algo = sub.algo;
}

long long GemmReport::pad_elems() const {
  if (plan.direct) return 0;
  // Pad area of each operand: padded rectangle minus logical rectangle.
  auto area = [](long long r, long long c) { return r * c; };
  const long long pm = plan.m.padded, pk = plan.k.padded, pn = plan.n.padded;
  return area(pm, pk) - area(plan.m.n, plan.k.n) +   // A
         area(pk, pn) - area(plan.k.n, plan.n.n) +   // B
         area(pm, pn) - area(plan.m.n, plan.n.n);    // C
}

namespace {

// JSON numbers: shortest round-trippable-enough form, locale-independent.
void put_double(std::ostream& os, double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.9g", v);
  os << buf;
}

void put_string(std::ostream& os, const char* s) {
  os << '"';
  for (; s != nullptr && *s != '\0'; ++s) {
    const char c = *s;
    if (c == '"' || c == '\\')
      os << '\\' << c;
    else if (static_cast<unsigned char>(c) >= 0x20)
      os << c;
  }
  os << '"';
}

}  // namespace

// One line, stable key set and order: schema strassen.gemm_report.v6.
// Adding a key is a schema version bump (see docs/OBSERVABILITY.md); v2
// added parallel.steals when the work-stealing scheduler landed; v3 added
// plan.schedule and workspace.saved_bytes with the low-memory schedule
// family; v4 added plan.strategy and workspace.conversion_saved_bytes with
// the pack-fused execution strategy; v5 added the batch section with the
// batched service core (core/batched.hpp); v6 added plan.algo (and the
// "algo-fallback" workspace.fallback value) with the <m,k,n> algorithm
// family engine (analysis/algo_family.hpp).
void write_json(std::ostream& os, const GemmReport& r) {
  os << "{\"schema\": \"strassen.gemm_report.v6\", ";

  os << "\"call\": {\"entry\": ";
  put_string(os, r.entry[0] != '\0' ? r.entry : "modgemm");
  os << ", \"m\": " << r.m << ", \"n\": " << r.n << ", \"k\": " << r.k
     << "}, ";

  os << "\"phases\": {\"wall_s\": ";
  put_double(os, r.wall_seconds);
  os << ", \"convert_in_s\": ";
  put_double(os, r.convert_in_seconds);
  os << ", \"compute_s\": ";
  put_double(os, r.compute_seconds);
  os << ", \"leaf_s\": ";
  put_double(os, r.leaf_seconds);
  os << ", \"convert_out_s\": ";
  put_double(os, r.convert_out_seconds);
  os << ", \"conversion_fraction\": ";
  put_double(os, r.conversion_fraction());
  os << "}, ";

  os << "\"plan\": {\"direct\": " << (r.plan.direct ? "true" : "false")
     << ", \"split\": " << (r.split_used ? "true" : "false")
     << ", \"products\": " << r.products
     << ", \"planned_depth\": " << r.planned_depth << ", \"schedule\": ";
  put_string(os, r.schedule[0] != '\0' ? r.schedule : "none");
  os << ", \"strategy\": ";
  put_string(os, r.strategy[0] != '\0' ? r.strategy : "none");
  os << ", \"algo\": ";
  put_string(os, r.algo[0] != '\0' ? r.algo : "none");
  os << ", \"depth\": " << r.plan.depth << ", \"tile_m\": " << r.plan.m.tile
     << ", \"tile_k\": " << r.plan.k.tile << ", \"tile_n\": " << r.plan.n.tile
     << ", \"padded_m\": " << r.plan.m.padded
     << ", \"padded_k\": " << r.plan.k.padded
     << ", \"padded_n\": " << r.plan.n.padded
     << ", \"pad_elems\": " << r.pad_elems() << "}, ";

  os << "\"workspace\": {\"requested_bytes\": " << r.workspace_requested_bytes
     << ", \"peak_bytes\": " << r.workspace_peak_bytes
     << ", \"saved_bytes\": " << r.workspace_saved_bytes
     << ", \"conversion_saved_bytes\": " << r.conversion_saved_bytes
     << ", \"allocations\": " << r.workspace_allocations << ", \"fallback\": ";
  put_string(os, fallback_reason_name(r.fallback_reason));
  os << "}, ";

  os << "\"kernels\": {\"active\": ";
  put_string(os, r.kernel[0] != '\0' ? r.kernel : "unknown");
  os << ", \"variant\": ";
  put_string(os, r.kernel_variant[0] != '\0' ? r.kernel_variant : "auto");
  os << ", \"leaf_calls\": " << r.leaf_calls
     << ", \"fused_calls\": " << r.fused_calls
     << ", \"elementwise_calls\": " << r.elementwise_calls << "}, ";

  os << "\"parallel\": {\"used\": " << (r.parallel ? "true" : "false")
     << ", \"threads\": " << r.threads
     << ", \"spawn_levels\": " << r.spawn_levels
     << ", \"tasks\": " << r.tasks_executed << ", \"steals\": " << r.steals
     << ", \"task_busy_s\": ";
  put_double(os, r.task_busy_seconds);
  os << ", \"utilization\": ";
  put_double(os, r.pool_utilization());
  os << ", \"per_thread_tasks\": [";
  for (std::size_t i = 0; i < r.per_thread_tasks.size(); ++i)
    os << (i == 0 ? "" : ", ") << r.per_thread_tasks[i];
  os << "]}, ";

  os << "\"batch\": {\"count\": " << r.batch_count
     << ", \"classes\": " << r.batch_classes
     << ", \"plan_cache_hits\": " << r.batch_plan_cache_hits
     << ", \"plan_cache_misses\": " << r.batch_plan_cache_misses
     << ", \"workspace_acquisitions\": " << r.batch_workspace_acquisitions
     << ", \"workspace_cold_allocs\": " << r.batch_workspace_cold_allocs
     << ", \"tune_cache\": ";
  put_string(os, r.tune_cache[0] != '\0' ? r.tune_cache : "off");
  os << "}}";
}

std::string to_json(const GemmReport& r) {
  std::ostringstream os;
  write_json(os, r);
  return os.str();
}

}  // namespace strassen::obs
