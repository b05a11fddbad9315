// ablation_parallel -- scaling of the task-parallel MODGEMM (the library's
// extension along the paper's "further improve performance" future-work
// axis): serial vs fixed top-level forking (spawn 1/2) vs the auto
// work-stealing schedule (spawn auto: parallel::fork_levels, ~8 tasks per
// thread) across thread counts, with the scheduler telemetry (tasks,
// steals, pool utilization) alongside the times.
//
// Expected shape: on a multicore host the spawn-1 rows plateau near 7
// tasks' worth of parallelism while the auto ("deep") rows keep scaling
// (49 stealable tasks up to 5 workers, 343 up to 41); on a single-core
// host all configurations tie (the results are still bit-identical, see
// tests/test_pmodgemm.cpp).
//
// Extra flags on top of the common harness:
//   --scale               the CI scale point: n=2048, 8 threads only
//   --check_utilization X fail (exit 1) if the deep row's pool utilization
//                         at the largest thread count is below X
//   --check_speedup X     fail (exit 1) if deep is not at least X times
//                         faster than legacy top-level forking (spawn 1)
//                         at the largest (n, threads) point
// CI reads the floors from bench/baselines/parallel_floor.json and passes
// them here; the JSON artifact (--json) carries one full GemmReport per row
// for offline comparison.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "core/modgemm.hpp"
#include "parallel/pmodgemm.hpp"
#include "support/bench_common.hpp"

using namespace strassen;

namespace {

struct GateArgs {
  bool scale = false;
  double check_utilization = -1.0;  // < 0: gate off
  double check_speedup = -1.0;
};

// Pulls this binary's own flags out of argv (the shared parser warns on
// anything it does not know) and returns the filtered argument list.
GateArgs extract_gate_args(int& argc, char** argv) {
  GateArgs g;
  int out = 1;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--scale") == 0) {
      g.scale = true;
    } else if (std::strcmp(argv[i], "--check_utilization") == 0 &&
               i + 1 < argc) {
      g.check_utilization = std::atof(argv[++i]);
    } else if (std::strcmp(argv[i], "--check_speedup") == 0 && i + 1 < argc) {
      g.check_speedup = std::atof(argv[++i]);
    } else {
      argv[out++] = argv[i];
    }
  }
  argc = out;
  return g;
}

struct Config {
  const char* label;  // row label and JSON key
  int spawn_levels;   // parallel::kSpawnAuto or the legacy level count
};

}  // namespace

int main(int argc, char** argv) {
  const GateArgs gates = extract_gate_args(argc, argv);
  const bench::BenchArgs args = bench::BenchArgs::parse(argc, argv);
  bench::banner("Ablation: task parallelism",
                "pmodgemm speedup over serial modgemm, by threads and spawn "
                "schedule");
  std::printf("host hardware_concurrency: %u\n\n",
              std::thread::hardware_concurrency());

  Table table({"n", "threads", "schedule", "time(s)", "speedup", "tasks",
               "steals", "util"});
  args.maybe_mirror(table, "ablation_parallel");
  bench::ReportLog log(args, "ablation_parallel");

  const std::vector<int> sizes =
      gates.scale ? std::vector<int>{2048}
                  : (args.quick ? std::vector<int>{513}
                                : std::vector<int>{400, 513, 800});
  const std::vector<int> threads =
      gates.scale ? std::vector<int>{8} : std::vector<int>{1, 2, 4};
  const std::vector<Config> configs{
      {"top1", 1},  // legacy: fork the 7 top-level products only
      {"top2", 2},  // legacy: fork the top two levels (49 tasks)
      {"deep", parallel::kSpawnAuto},
  };

  // Gate inputs, taken at the largest (n, threads) point.
  double gate_util = -1.0, gate_top1 = -1.0, gate_deep = -1.0;

  for (int n : sizes) {
    bench::Problem p(n, n, n, static_cast<std::uint64_t>(n) * 19);
    const MeasureOptions opt = bench::protocol(args, n);
    const double t_serial = measure(
        [&] {
          core::modgemm(Op::NoTrans, Op::NoTrans, n, n, n, 1.0, p.A.data(),
                        p.A.ld(), p.B.data(), p.B.ld(), 0.0, p.C.data(),
                        p.C.ld());
        },
        opt);
    table.add_row({Table::num(static_cast<long long>(n)), "-", "serial",
                   Table::num(t_serial, 4), "1.00", "-", "-", "-"});
    if (log.enabled()) {
      obs::GemmReport rep;
      core::ModgemmOptions sopt;
      core::modgemm(Op::NoTrans, Op::NoTrans, n, n, n, 1.0, p.A.data(),
                    p.A.ld(), p.B.data(), p.B.ld(), 0.0, p.C.data(), p.C.ld(),
                    sopt, &rep);
      std::string key = "n";
      key += std::to_string(n);
      key += "/serial";
      log.add(key, rep);
    }

    for (int t : threads) {
      for (const Config& cfg : configs) {
        parallel::ThreadPool pool(t);
        parallel::ParallelOptions popt;
        popt.spawn_levels = cfg.spawn_levels;
        const double ts = measure(
            [&] {
              parallel::pmodgemm(&pool, Op::NoTrans, Op::NoTrans, n, n, n, 1.0,
                                 p.A.data(), p.A.ld(), p.B.data(), p.B.ld(),
                                 0.0, p.C.data(), p.C.ld(), popt);
            },
            opt);
        // One extra observed invocation for the telemetry row: the scheduler
        // stats (tasks/steals/utilization) come from a real run under the
        // same pool, not from the timed minimum.
        obs::GemmReport rep;
        popt.report = &rep;
        parallel::pmodgemm(&pool, Op::NoTrans, Op::NoTrans, n, n, n, 1.0,
                           p.A.data(), p.A.ld(), p.B.data(), p.B.ld(), 0.0,
                           p.C.data(), p.C.ld(), popt);
        table.add_row({Table::num(static_cast<long long>(n)),
                       Table::num(static_cast<long long>(t)), cfg.label,
                       Table::num(ts, 4), Table::num(t_serial / ts, 2),
                       Table::num(static_cast<long long>(rep.tasks_executed)),
                       Table::num(static_cast<long long>(rep.steals)),
                       Table::num(rep.pool_utilization(), 2)});
        std::string key = "n";
        key += std::to_string(n);
        key += "/t";
        key += std::to_string(t);
        key += "/";
        key += cfg.label;
        log.add(key, rep);
        if (n == sizes.back() && t == threads.back()) {
          if (std::strcmp(cfg.label, "top1") == 0) gate_top1 = ts;
          if (std::strcmp(cfg.label, "deep") == 0) {
            gate_deep = ts;
            gate_util = rep.pool_utilization();
          }
        }
      }
    }
  }
  table.print();

  int rc = 0;
  if (gates.check_utilization >= 0.0) {
    std::printf("gate: pool utilization %.3f (floor %.3f)\n", gate_util,
                gates.check_utilization);
    if (gate_util < gates.check_utilization) {
      std::fprintf(stderr, "FAIL: utilization below floor\n");
      rc = 1;
    }
  }
  if (gates.check_speedup >= 0.0 && gate_top1 > 0.0 && gate_deep > 0.0) {
    const double rel = gate_top1 / gate_deep;
    std::printf("gate: deep vs top-level fork %.2fx (floor %.2fx)\n", rel,
                gates.check_speedup);
    if (rel < gates.check_speedup) {
      std::fprintf(stderr, "FAIL: deep schedule speedup below floor\n");
      rc = 1;
    }
  }
  return rc;
}
