#include "obs/scope.hpp"

#include <algorithm>

#include "obs/env_sink.hpp"

namespace strassen::obs {

// Decides the observation mode and returns the collector to install on this
// thread.  Runs during construction of install_ (the last member), so every
// other member is already initialized.  An unobserved call re-installs the
// thread's current collector, which is a no-op.
Collector* CallScope::init(const char* entry, GemmReport* user) {
  const bool nested = current() != nullptr;
  report_ = user;
  if (!nested) {
    emit_ = env_sink_enabled();
    if (report_ == nullptr && emit_) report_ = &local_;
    collecting_ = report_ != nullptr;
  }
  if (report_ != nullptr && report_->entry[0] == '\0') report_->entry = entry;
  return collecting_ ? &counters_ : current();
}

CallScope::CallScope(const char* entry, GemmReport* user)
    : install_(init(entry, user)) {}

CallScope::~CallScope() {
  if (!collecting_ || report_ == nullptr) {
    if (emit_ && report_ != nullptr) env_emit(*report_);
    return;
  }
  const auto ld = [](const std::atomic<std::uint64_t>& a) {
    return a.load(std::memory_order_relaxed);
  };
  GemmReport& r = *report_;
  r.leaf_calls += ld(counters_.leaf_calls);
  r.leaf_seconds += static_cast<double>(ld(counters_.leaf_nanos)) * 1e-9;
  r.elementwise_calls += ld(counters_.elementwise_calls);

  r.workspace_requested_bytes += ld(counters_.workspace_noted_bytes);
  r.workspace_allocations +=
      static_cast<int>(ld(counters_.workspace_allocations));
  // The parallel schedule keeps the spawn-level temporaries and every
  // child arena live together until the join, so the call's high-water
  // mark is the full requested footprint.  NOT true for batched calls
  // (batch_count > 0): their tasks acquire and release scratch product by
  // product through the per-thread arena cache, so at most ~one arena per
  // thread is ever live -- their peak is the largest per-product arena mark,
  // already folded in by the driver.
  if (r.parallel && r.batch_count == 0)
    r.workspace_peak_bytes =
        std::max(r.workspace_peak_bytes, r.workspace_requested_bytes);

  r.tasks_executed += ld(counters_.tasks_executed);
  r.steals += ld(counters_.steals);
  r.task_busy_seconds += static_cast<double>(ld(counters_.task_nanos)) * 1e-9;
  if (r.parallel) {
    const int slots =
        std::min(r.threads + 1, Collector::kMaxThreadSlots);
    if (r.per_thread_tasks.size() < static_cast<std::size_t>(slots))
      r.per_thread_tasks.resize(static_cast<std::size_t>(slots), 0);
    for (std::size_t i = 0; i < r.per_thread_tasks.size() &&
                            i < static_cast<std::size_t>(
                                    Collector::kMaxThreadSlots);
         ++i)
      r.per_thread_tasks[i] += ld(counters_.per_thread_tasks[i]);
  }

  if (emit_) env_emit(r);
}

}  // namespace strassen::obs
