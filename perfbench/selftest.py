#!/usr/bin/env python3
"""Self-tests of the MODGEMM benchmark.  Run from the root of a checkout:

    python3 perfbench/selftest.py

Checks, printing PASS/FAIL per check and exiting non-zero on any failure:
  * mgbench's own checks (mgbench selftest): a C element perturbed by
    twice its error bound, or set to NaN, is caught; every API call gets a
    fresh GemmReport, while one report reused over calls accumulates;
  * the same seed gives an identical shape/op/alpha/beta/ld stream (with a
    digest of the operand values), and a different seed a different one;
  * every workload, metric name and unit printed matches BENCHMARK.json,
    with --trace 0 and --trace 1, and failed is 0;
  * in a directory holding only BENCHMARK.json and perfbench/, the benchmark
    exits non-zero without printing a result.
"""
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import run as bench  # noqa: E402

failures = []


def expect(ok, what):
    print(("PASS " if ok else "FAIL ") + what, flush=True)
    if not ok:
        failures.append(what)


def stream(binary, workload, seed):
    r = subprocess.run([binary, "stream", "--workload", workload, "--seed",
                        str(seed)], stdout=subprocess.PIPE, text=True,
                       timeout=120, env=bench.child_env())
    return r.returncode, r.stdout


def result(workload, trace):
    r = subprocess.run([sys.executable, os.path.join(HERE, "run.py"),
                        "--workload", workload, "--seed", "5", "--seconds",
                        "1", "--trace", str(trace)], stdout=subprocess.PIPE,
                       stderr=subprocess.DEVNULL, text=True, timeout=200)
    lines = r.stdout.strip().splitlines()
    return r.returncode, json.loads(lines[-1]) if lines else None, r.stdout


def main():
    spec = bench.spec()
    binary = bench.build()

    r = subprocess.run([binary, "selftest"], stdout=subprocess.PIPE, text=True,
                       timeout=300, env=bench.child_env())
    print(r.stdout, end="")
    expect(r.returncode == 0, "mgbench selftest")

    names = [w["name"] for w in spec["workloads"]] + list(bench.UNGATED)
    for w in names:
        c1, s1 = stream(binary, w, 1)
        c2, s2 = stream(binary, w, 1)
        c3, s3 = stream(binary, w, 2)
        expect(c1 == 0 and s1 and s1 == s2, w + ": same seed, same stream")
        expect(c3 == 0 and s1 != s3, w + ": other seed, other stream")
    expect(stream(binary, "no-such-workload", 1)[0] != 0,
           "an unknown workload is rejected")

    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        want = {m["name"]: m["unit"] for m in spec[key]}
        for w in names:
            code, res, out = result(w, trace)
            ok = code == 0 and res is not None
            expect(ok and set(res) == {"correct", "attempted", "failed",
                                       "metrics"},
                   "%s --trace %d: result keys" % (w, trace))
            if not ok:
                continue
            got = {n: m["unit"] for n, m in res["metrics"].items()}
            expect(got == want, "%s --trace %d: metric names and units match "
                   "BENCHMARK.json" % (w, trace))
            expect(all("%s = " % n in out for n in want),
                   "%s --trace %d: every metric printed by name" % (w, trace))
            expect(res["correct"] and res["failed"] == 0 and
                   res["attempted"] >= 1,
                   "%s --trace %d: outputs correct" % (w, trace))

    bare = os.path.join(bench.build_dir(), "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(bench.ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    r = subprocess.run([sys.executable, "perfbench/run.py", "--workload",
                        names[0], "--seed", "1", "--seconds", "1", "--trace",
                        "0"], cwd=bare, stdout=subprocess.PIPE,
                       stderr=subprocess.DEVNULL, text=True, timeout=180,
                       env={k: v for k, v in os.environ.items()
                            if k != "CARGO_TARGET_DIR"})
    expect(r.returncode != 0 and '"correct"' not in r.stdout,
           "without the library sources: non-zero exit, no result")
    shutil.rmtree(bare, ignore_errors=True)

    print("%d failure(s)" % len(failures))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
