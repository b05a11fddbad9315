#!/usr/bin/env python3
"""Validates strassen.gemm_report.v5/v6 JSON lines (stdlib only).

Input: one or more files of JSONL as emitted by STRASSEN_OBS=json:PATH, a
single-report .json file, or a bench --json file
(``{"bench": ..., "rows": [{"label": ..., "report": {...}}]}``).  Every
report must carry the exact key set of its declared schema version with the
documented types -- the schema is a compatibility contract
(docs/OBSERVABILITY.md): consumers index fields unconditionally, so a
missing, extra or retyped key is an error, not a warning.  v5 archives
(pre-algorithm-family) stay valid; a v5 report that smuggles in the v6
``plan.algo`` key or the ``algo-fallback`` rung is version drift and fails.
Exits nonzero with the offending path on the first failure per report.

Usage: python3 tools/validate_report_schema.py report.jsonl [...]
"""

import json
import sys

SCHEMA_ID = "strassen.gemm_report.v6"
# Accepted schema ids -> version number.  v5 is the last pre-algorithm-family
# layout; everything older was a hard break (no batch section) and is
# rejected on the id.
SCHEMA_IDS = {"strassen.gemm_report.v5": 5, "strassen.gemm_report.v6": 6}

BOOL = bool
INT = int
NUM = (int, float)  # JSON has one number type; integers satisfy "number"
STR = str

# section -> {key: expected type}; the full v6 key set, nothing optional.
# v2 added parallel.steals (work-steal migrations) to the v1 layout; v3 added
# plan.schedule (the executed schedule family), workspace.saved_bytes (bytes
# a schedule swap saved vs the default table) and the "schedule-swap"
# fallback rung; v4 added plan.strategy (the execution strategy that ran) and
# workspace.conversion_saved_bytes (layout-conversion traffic the pack-fused
# strategy avoided); v5 added the batch section (batched entry point,
# plan-cache and arena-amortization counters, tune-cache state); v6 added
# plan.algo (the <m,k,n> algorithm family that ran) and the "algo-fallback"
# rung (a family that could not run within budget dropped to <2,2,2>).
SECTIONS = {
    "call": {"entry": STR, "m": INT, "n": INT, "k": INT},
    "phases": {
        "wall_s": NUM,
        "convert_in_s": NUM,
        "compute_s": NUM,
        "leaf_s": NUM,
        "convert_out_s": NUM,
        "conversion_fraction": NUM,
    },
    "plan": {
        "direct": BOOL,
        "split": BOOL,
        "products": INT,
        "planned_depth": INT,
        "schedule": STR,
        "strategy": STR,
        "algo": STR,  # v6 only; stripped from the expected set for v5
        "depth": INT,
        "tile_m": INT,
        "tile_k": INT,
        "tile_n": INT,
        "padded_m": INT,
        "padded_k": INT,
        "padded_n": INT,
        "pad_elems": INT,
    },
    "workspace": {
        "requested_bytes": INT,
        "peak_bytes": INT,
        "saved_bytes": INT,
        "conversion_saved_bytes": INT,
        "allocations": INT,
        "fallback": STR,
    },
    "kernels": {
        "active": STR,
        "variant": STR,
        "leaf_calls": INT,
        "fused_calls": INT,
        "elementwise_calls": INT,
    },
    "parallel": {
        "used": BOOL,
        "threads": INT,
        "spawn_levels": INT,
        "tasks": INT,
        "steals": INT,
        "task_busy_s": NUM,
        "utilization": NUM,
        "per_thread_tasks": list,
    },
    "batch": {
        "count": INT,
        "classes": INT,
        "plan_cache_hits": INT,
        "plan_cache_misses": INT,
        "workspace_acquisitions": INT,
        "workspace_cold_allocs": INT,
        "tune_cache": STR,
    },
}

FALLBACKS = {"none", "schedule-swap", "depth-reduced", "budget-direct",
             "alloc-direct", "alloc-strided"}
# The v6 rung: a forced/chosen <m,k,n> family could not run (workspace
# budget or allocation failure) and the call degraded to the <2,2,2> ladder.
# The family engine is gone and no call reports it any more; reports from
# before then stay valid.
FALLBACKS_V6 = FALLBACKS | {"algo-fallback"}
# "none" = direct (no Strassen plan ran, so no schedule family applies).
# "winograd" names the 3-temporary table that ran by default until the
# 2-buffer table replaced it; reports from before then, the checked-in
# baselines among them, carry it.
SCHEDULES = {"none", "winograd", "winograd-lowmem", "winograd-inplace"}
# "none" = direct (no recursive execution, so no strategy applies).
STRATEGIES = {"none", "morton", "packfused"}
# "none" = the report predates resolution or the call never dispatched;
# numeric names are <m,k,n> coefficient tables.  Every call now reports
# "222"; the other names stay valid for reports from the family engine.
ALGOS = {"none", "222", "323", "234", "333"}
ENTRIES = {"modgemm", "pmodgemm", "modgemm_batched"}
# "off" = not a tuned batched call; "cold"/"warm"/"rejected" = the
# STRASSEN_TUNE_CACHE outcome of a BatchedOptions::tune call.
TUNE_CACHE_STATES = {"off", "cold", "warm", "rejected"}


def type_name(t):
    return t[0].__name__ + "-like" if isinstance(t, tuple) else t.__name__


def check(cond, where, msg):
    if not cond:
        raise ValueError(f"{where}: {msg}")


def validate_report(report, where):
    check(isinstance(report, dict), where, "report is not an object")
    expected_top = {"schema"} | set(SECTIONS)
    check(set(report) == expected_top, where,
          f"top-level keys {sorted(report)} != {sorted(expected_top)}")
    check(report["schema"] in SCHEMA_IDS, where,
          f"schema {report['schema']!r} not in {sorted(SCHEMA_IDS)}")
    version = SCHEMA_IDS[report["schema"]]
    for section, fields in SECTIONS.items():
        if section == "plan" and version < 6:
            # The drift check: a v5 report carrying plan.algo claims one
            # version and ships another, so the exact-key comparison below
            # rejects it just like any other extra key.
            fields = {k: v for k, v in fields.items() if k != "algo"}
        obj = report[section]
        check(isinstance(obj, dict), f"{where}.{section}", "not an object")
        check(set(obj) == set(fields), f"{where}.{section}",
              f"keys {sorted(obj)} != {sorted(fields)}")
        for key, expected in fields.items():
            value = obj[key]
            # bool is an int subclass in Python; forbid the crossover.
            ok = (isinstance(value, expected)
                  and not (expected in (INT, NUM) and isinstance(value, bool)))
            check(ok, f"{where}.{section}.{key}",
                  f"{value!r} is not {type_name(expected)}")
    check(report["call"]["entry"] in ENTRIES, f"{where}.call.entry",
          f"{report['call']['entry']!r} not in {sorted(ENTRIES)}")
    fallbacks = FALLBACKS_V6 if version >= 6 else FALLBACKS
    check(report["workspace"]["fallback"] in fallbacks,
          f"{where}.workspace.fallback",
          f"{report['workspace']['fallback']!r} not in {sorted(fallbacks)}")
    check(report["plan"]["schedule"] in SCHEDULES,
          f"{where}.plan.schedule",
          f"{report['plan']['schedule']!r} not in {sorted(SCHEDULES)}")
    check(report["plan"]["strategy"] in STRATEGIES,
          f"{where}.plan.strategy",
          f"{report['plan']['strategy']!r} not in {sorted(STRATEGIES)}")
    if version >= 6:
        check(report["plan"]["algo"] in ALGOS, f"{where}.plan.algo",
              f"{report['plan']['algo']!r} not in {sorted(ALGOS)}")
    check(report["batch"]["tune_cache"] in TUNE_CACHE_STATES,
          f"{where}.batch.tune_cache",
          f"{report['batch']['tune_cache']!r} not in "
          f"{sorted(TUNE_CACHE_STATES)}")
    for i, t in enumerate(report["parallel"]["per_thread_tasks"]):
        check(isinstance(t, int) and not isinstance(t, bool),
              f"{where}.parallel.per_thread_tasks[{i}]", f"{t!r} is not int")


def iter_reports(path):
    """Yields (report, where) pairs from JSONL, bare-report or bench JSON."""
    with open(path, encoding="utf-8") as f:
        text = f.read()
    stripped = text.strip()
    if not stripped:
        raise ValueError(f"{path}: empty file")
    # Bench --json / micro_kernels files are one multi-line document.
    if "\n" in stripped and not stripped.startswith("{\"schema\""):
        doc = json.loads(stripped)
        rows = doc.get("rows", [])
        reports = doc.get("modgemm_reports", {})
        for i, row in enumerate(rows):
            yield row["report"], f"{path}:rows[{i}]({row.get('label', '?')})"
        for label, rep in sorted(reports.items()):
            yield rep, f"{path}:modgemm_reports[{label}]"
        if not rows and not reports:
            raise ValueError(f"{path}: no reports found in bench JSON")
        return
    for lineno, line in enumerate(stripped.splitlines(), 1):
        if line.strip():
            yield json.loads(line), f"{path}:{lineno}"


def main(argv):
    if len(argv) < 2:
        print(__doc__.strip())
        return 2
    total = 0
    failures = 0
    for path in argv[1:]:
        try:
            for report, where in iter_reports(path):
                total += 1
                try:
                    validate_report(report, where)
                except ValueError as err:
                    print(f"FAIL {err}")
                    failures += 1
        except (OSError, json.JSONDecodeError, KeyError, ValueError) as err:
            print(f"FAIL {path}: {err}")
            failures += 1
    if failures:
        print(f"FAIL: {failures} invalid of {total} report(s)")
        return 1
    print(f"OK: {total} report(s) conform (accepted: "
          f"{', '.join(sorted(SCHEMA_IDS))})")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
