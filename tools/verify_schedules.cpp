// tools/verify_schedules -- prove every shipped schedule table correct.
//
// For each table in analysis::kShippedSchedules this re-runs the symbolic
// verifier with full diagnostics (the library build already static_asserts
// the constexpr core, so by the time this binary exists the tables have one
// compile-time proof behind them; this CLI is the human-readable re-proof
// CI archives, and the gate the default build runs).
//
// Exit status: 0 when every schedule verifies, 1 otherwise.
#include <cstdio>
#include <string>
#include <vector>

#include "analysis/schedule.hpp"
#include "analysis/schedule_verify.hpp"

int main() {
  using namespace strassen::analysis;
  bool all_ok = true;

  for (int i = 0; i < kShippedScheduleCount; ++i) {
    const Schedule& sched = *kShippedSchedules[i];
    const VerifyResult r = verify_schedule(sched);
    std::string attrs;
    if (temp_buffer_count(sched) < sched.temp_count)
      attrs += " shared-buffers=" + std::to_string(temp_buffer_count(sched));
    if (sched.overwrites_inputs) attrs += " overwrites-inputs";
    if (products_consume(sched)) attrs += " consumes-operands";
    int grouped = 0;
    for (int k = 0; k < sched.step_count; ++k)
      grouped += sched.steps[k].concurrent ? 1 : 0;
    if (grouped > 0) attrs += " concurrent-group=" + std::to_string(grouped);
    std::printf("schedule %-20s steps=%2d products=%d additions=%2d "
                "temp-peak=%d (declared %d)%s  %s\n",
                sched.name, sched.step_count, r.products, r.linear_ops,
                r.temp_peak, sched.declared_temp_peak, attrs.c_str(),
                r.ok ? "OK" : "FAIL");
    for (const std::string& e : r.errors)
      std::printf("  error: %s\n", e.c_str());
    if (!r.ok) all_ok = false;
  }

  if (!all_ok) {
    std::printf("verify_schedules: FAILED\n");
    return 1;
  }
  std::printf("verify_schedules: all %d schedule(s) verified\n",
              kShippedScheduleCount);
  return 0;
}
