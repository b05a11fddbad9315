#!/usr/bin/env python3
"""MODGEMM benchmark: one command for every workload.

    python3 perfbench/run.py --workload sayuri-serve --seed 1 \\
        --seconds 50 --trace 0

Run from the root of a checkout.  The script builds the library and the
benchmark binary mgbench (perfbench/CMakeLists.txt) into $CARGO_TARGET_DIR
(default .bench_build), then:

  --trace 0  measures set-up in several fresh processes (median) and runs the
             untraced workload: the end-to-end metrics of BENCHMARK.json;
  --trace 1  runs the per-layer probes and alternating untraced / traced
             rounds: the per-layer metrics, plus the spans file
             <build>/spans/<workload>-seed<N>.jsonl.

Every metric is printed as "name = value unit", then the provenance, and the
last line is the result object: {"correct", "attempted", "failed", "metrics"}.
"""
import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SETUP_RUNS = 9
# Runnable by name but not gated in BENCHMARK.json: single-threaded, they
# follow a shared host's per-core speed too closely for any bound the file
# allows (perfbench/README.md, "Workloads").
UNGATED = ("paper-square", "small-mixed")


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def child_env():
    # The library reads STRASSEN_* overrides; the benchmark measures defaults.
    return {k: v for k, v in os.environ.items()
            if not k.startswith("STRASSEN_")}


def build_dir():
    return os.path.join(ROOT,
                        os.environ.get("CARGO_TARGET_DIR", ".bench_build"))


def build():
    """Configures once, then builds incrementally.  Returns the binary path."""
    out = os.path.join(build_dir(), "cmake")
    jobs = str(max(1, min(os.cpu_count() or 1, 8)))
    steps = []
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "--target", "mgbench", "-j", jobs])
    for cmd in steps:
        r = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                           timeout=850, env=child_env())
        if r.returncode != 0:
            raise RuntimeError("build failed: " + " ".join(cmd))
    return os.path.join(out, "mgbench")


def run_json(cmd, timeout):
    r = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                       text=True, timeout=timeout, env=child_env())
    lines = r.stdout.strip().splitlines()
    if r.returncode != 0 or not lines:
        raise RuntimeError("%s exited %d" % (" ".join(cmd), r.returncode))
    return lines[:-1], json.loads(lines[-1])


def source_digest():
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for d, dirs, files in sorted(os.walk(os.path.join(ROOT, top))):
            dirs.sort()
            for name in sorted(files):
                path = os.path.join(d, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()[:16]


def commit():
    try:
        r = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                           stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                           text=True, timeout=10)
        return r.stdout.strip() if r.returncode == 0 else "none"
    except (OSError, subprocess.SubprocessError):
        return "none"


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = ap.parse_args()

    s = spec()
    names = [w["name"] for w in s["workloads"]] + list(UNGATED)
    if a.workload not in names:
        log("unknown workload %r (expected one of %s)" % (a.workload, names))
        return 2
    binary = build()
    # Everything after the build ends well inside the 180 s a run may take.
    deadline = time.monotonic() + 170

    def left():
        return max(1.0, deadline - time.monotonic())

    base = ["--workload", a.workload, "--seed", str(a.seed)]

    setup = []
    if a.trace == 0:
        for _ in range(SETUP_RUNS):
            _, one = run_json([binary, "setup"] + base, left())
            setup.append(one["setup_s"])
    cmd = [binary, "run"] + base + ["--seconds", str(a.seconds),
                                    "--trace", str(a.trace)]
    spans = None
    if a.trace == 1:
        spans = os.path.join(build_dir(), "spans",
                             "%s-seed%d.jsonl" % (a.workload, a.seed))
        os.makedirs(os.path.dirname(spans), exist_ok=True)
        cmd += ["--spans", spans]
    extra, res = run_json(cmd, left())

    got = res["metrics"]
    if a.trace == 0:
        got["setup_s"] = {"value": statistics.median(setup), "unit": "s"}
    wanted = s["per_layer"] if a.trace else s["end_to_end"]
    metrics = {}
    for m in wanted:
        if m["name"] not in got:
            raise RuntimeError("mgbench did not report " + m["name"])
        metrics[m["name"]] = got[m["name"]]

    prov = res["provenance"]
    prov.update({"commit": commit(), "source_digest": source_digest(),
                 "setup_runs_s": setup})
    for line in extra:
        print(line)
    for name, m in metrics.items():
        print("%s = %.6g %s" % (name, m["value"], m["unit"]))
    print("failed_frac = %.6g (%d failed of %d calls)" % (
        res["failed"] / res["attempted"], res["failed"], res["attempted"]))
    print("samples = %d timed calls, %d beyond p90" % (
        prov["timed_samples"], prov["p90_tail_samples"]))
    if spans:
        print("spans = " + os.path.relpath(spans, ROOT))
    print("provenance = " + json.dumps(prov, sort_keys=True))
    print(json.dumps({"correct": res["correct"], "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (RuntimeError, OSError, ValueError, KeyError,
            subprocess.SubprocessError) as e:
        log("perfbench: %s" % e)
        sys.exit(2)
