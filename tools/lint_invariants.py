#!/usr/bin/env python3
"""Hot-path invariant linter (stdlib only; see docs/ANALYSIS.md).

Enforces seven invariants that ordinary compilation cannot:

  1. atomic-order   Every atomic access in src/parallel/ names an explicit
                    std::memory_order, and every (file, object, op, order)
                    combination appears in tools/lint_allowlist.json with a
                    one-line justification and a matching site count.  A new
                    atomic access therefore cannot land without an audit
                    entry; a removed one cannot leave a stale entry behind.
                    Compound assignments and ++/-- on known atomics (which
                    would be implicit seq_cst) are rejected outright.

  2. noexcept       The kernel-registry entry points reachable from the
                    recursion's hot path are declared noexcept, so the
                    per-leaf dispatch can never unwind mid-schedule.

  3. hot-path bans  Leaf-kernel and schedule-interpreter translation units
                    must not mention allocation or clock tokens: the only
                    tolerated occurrences are enumerated exceptions in the
                    allowlist (obs::now_nanos).

  4. getenv         Under src/core and src/parallel only the allowlisted
                    files may read the environment: configuration is
                    resolved once per call (core::resolve_config) or per
                    pool, and nested products receive it instead of
                    re-reading STRASSEN_* while callers may setenv.

  5. step-executor  Under src/core and src/parallel only the allowlisted
                    files may name analysis::StepKind values: one schedule
                    interpreter walks the step tables for every operand
                    storage, so a second step loop cannot land unnoticed.

  6. fork-join      Under src/core and src/parallel only the allowlisted
                    files may name the pool's fork/join primitives
                    (TaskGroup, parallel_for, fan_out): one pipeline
                    (core::detail::run_product) forks products, so a second
                    parallel router cannot land unnoticed.

  7. fused-kernel   Under src/ only the allowlisted files (the kernel
                    tables in src/blas/kernels/) may name the gemm_fused
                    entries: the schedule tables materialize every operand
                    sum, and the remaining fused entry serves the benchmark
                    alone, so no library path may call it again.

Engines: the default "text" engine strips comments and string literals and
scans with regexes -- deliberately dependency-free so it runs in any
container.  "--engine libclang" uses clang.cindex over compile_commands.json
for a type-accurate pass when python3-clang is installed; "--engine auto"
upgrades when available.  Both engines enforce the same policy file.

Exit status: 0 clean, 1 violations, 2 configuration/usage error.
"""

import argparse
import json
import pathlib
import re
import sys

# ---- policy ---------------------------------------------------------------

# Files whose atomic accesses must be fully audited.
ATOMIC_SCOPE = ["src/parallel"]

ATOMIC_OPS = ("load", "store", "fetch_add", "fetch_sub", "fetch_and",
              "fetch_or", "fetch_xor", "exchange", "compare_exchange_weak",
              "compare_exchange_strong")

# Entry points of the leaf-kernel engine: one noexcept declaration of each
# must exist in the named header (the recursion calls these per leaf).
NOEXCEPT_ENTRY_POINTS = {
    "src/blas/kernels/registry.hpp": [
        "cpu_supports", "is_available", "active_kernel", "set_active_kernel",
        "avx2_variant", "active", "kernel_table", "kind_name", "variant_name",
        "scalar_table", "avx2_table", "avx512_table", "neon_table",
    ],
    "src/blas/kernels.hpp": ["dispatch_gemm_leaf", "simd_gemm_active"],
    "src/blas/level1.hpp": ["dispatch_vadd", "dispatch_vsub",
                            "dispatch_vadd_inplace", "dispatch_vsub_inplace"],
}

# Hot-path files: no allocation, no clocks, no containers.  The schedule
# interpreter and the element-wise/leaf kernels run once per quadrant or
# leaf; a stray std::vector or steady_clock::now() here is a per-node cost
# the obs-off contract forbids.
HOT_PATH_FILES = [
    "src/blas/kernels/scalar.cpp",
    "src/blas/kernels/avx2.cpp",
    "src/blas/kernels/avx512.cpp",
    "src/blas/kernels/simd_block.hpp",
    "src/blas/kernels/neon.cpp",
    "src/blas/kernels.hpp",
    "src/blas/level1.hpp",
    "src/core/winograd.hpp",
    "src/core/packfused.hpp",
    "src/obs/collector.hpp",
]

# Directories whose environment reads must be allowlisted ("getenv").
GETENV_SCOPE = ["src/core", "src/parallel"]

# Directories whose schedule-step dispatch must be allowlisted
# ("step_executor").
STEP_EXECUTOR_SCOPE = ["src/core", "src/parallel"]

# Directories whose fork/join primitives must be allowlisted ("fork_join").
FORK_JOIN_SCOPE = ["src/core", "src/parallel"]

# Directories whose fused-kernel entry names must be allowlisted
# ("fused_kernel").
FUSED_KERNEL_SCOPE = ["src"]

BANNED_TOKENS = [
    "steady_clock", "system_clock", "high_resolution_clock",
    "malloc", "calloc", "realloc",
    "std::vector", "std::string", "std::map", "std::unordered_map",
    "new[]",
]


# ---- text engine ----------------------------------------------------------

def strip_comments_and_strings(text):
    """Replaces comments and string/char literals with spaces, preserving
    newlines so line numbers survive."""
    out = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if c == "/" and nxt == "/":
            while i < n and text[i] != "\n":
                i += 1
        elif c == "/" and nxt == "*":
            i += 2
            while i + 1 < n and not (text[i] == "*" and text[i + 1] == "/"):
                out.append("\n" if text[i] == "\n" else " ")
                i += 1
            i += 2
            out.append(" ")
        elif c in "\"'":
            quote = c
            i += 1
            while i < n and text[i] != quote:
                if text[i] == "\\":
                    i += 1
                i += 1
            i += 1
            out.append(" ")
        else:
            out.append(c)
            i += 1
    return "".join(out)


def line_of(text, pos):
    return text.count("\n", 0, pos) + 1


def balanced_args(text, open_paren):
    """Returns the argument text of the call whose '(' is at open_paren."""
    depth = 0
    for i in range(open_paren, len(text)):
        if text[i] == "(":
            depth += 1
        elif text[i] == ")":
            depth -= 1
            if depth == 0:
                return text[open_paren + 1:i]
    return text[open_paren + 1:]


ATOMIC_CALL = re.compile(
    r"\b(\w+)\s*(?:\[[^\]]*\])?\s*\.\s*(" + "|".join(ATOMIC_OPS) + r")\s*\(")
ORDER = re.compile(r"std\s*::\s*memory_order_(\w+)")
ATOMIC_DECL = re.compile(r"std\s*::\s*atomic\s*<[^;{>]*>\s*(?:\[\s*\])?\s*(\w+)")


def scan_atomics(path, text):
    """Yields (line, object, op, order_or_None) for member atomic ops, and
    collects declared atomic variable names."""
    sites = []
    names = set(m.group(1) for m in ATOMIC_DECL.finditer(text))
    for m in ATOMIC_CALL.finditer(text):
        obj, op = m.group(1), m.group(2)
        args = balanced_args(text, m.end() - 1)
        orders = ORDER.findall(args)
        sites.append((line_of(text, m.start()), obj, op,
                      orders[0] if orders else None))
        names.add(obj)
    return sites, names


IMPLICIT_OP = re.compile(
    r"(?:(\+\+|--)\s*)?\b(\w+)\s*(\+\+|--|[-+|&^]=|=[^=])?")


def scan_implicit_atomic_ops(text, atomic_names):
    """Finds ++/--/compound-assign/plain-assign on declared atomics: these
    compile to seq_cst operations with no visible order at the use site."""
    found = []
    for m in IMPLICIT_OP.finditer(text):
        name = m.group(2)
        if name not in atomic_names:
            continue
        if not (m.group(1) or m.group(3)):
            continue
        line_start = text.rfind("\n", 0, m.start()) + 1
        line_text = text[line_start:text.find("\n", m.start())]
        # Skip the declaration itself ("std::atomic<int> idle_{0}" or "= 0").
        if "atomic" in line_text:
            continue
        found.append((line_of(text, m.start()), name, line_text.strip()))
    return found


def check_atomic_orders(root, allowlist, errors):
    allowed = {}
    for entry in allowlist.get("memory_order", []):
        key = (entry["file"], entry["object"], entry["op"], entry["order"])
        allowed[key] = {"sites": int(entry["sites"]), "seen": 0,
                        "why": entry.get("why", "")}
        if not entry.get("why"):
            errors.append(f"{entry['file']}: allowlist entry for "
                          f"{entry['object']}.{entry['op']} has no "
                          "justification ('why')")

    files = []
    for scope in ATOMIC_SCOPE:
        files.extend(sorted((root / scope).glob("*.hpp")))
        files.extend(sorted((root / scope).glob("*.cpp")))
    for path in files:
        rel = path.relative_to(root).as_posix()
        text = strip_comments_and_strings(path.read_text(encoding="utf-8"))
        sites, atomic_names = scan_atomics(rel, text)
        for line, obj, op, order in sites:
            if order is None:
                errors.append(
                    f"{rel}:{line}: {obj}.{op}() without an explicit "
                    "std::memory_order (implicit seq_cst is not auditable)")
                continue
            key = (rel, obj, op, order)
            if key not in allowed:
                errors.append(
                    f"{rel}:{line}: {obj}.{op}(memory_order_{order}) is not "
                    "in tools/lint_allowlist.json -- audit the access and "
                    "add a justified entry")
            else:
                allowed[key]["seen"] += 1
        for line, name, snippet in scan_implicit_atomic_ops(text,
                                                            atomic_names):
            errors.append(
                f"{rel}:{line}: implicit seq_cst operation on atomic "
                f"'{name}' ({snippet!r}); use an explicit member call with "
                "a std::memory_order")

    for (rel, obj, op, order), info in sorted(allowed.items()):
        if info["seen"] != info["sites"]:
            errors.append(
                f"{rel}: allowlist declares {info['sites']} site(s) of "
                f"{obj}.{op}(memory_order_{order}) but {info['seen']} found "
                "-- re-audit and update tools/lint_allowlist.json")


def check_noexcept(root, errors):
    for rel, names in NOEXCEPT_ENTRY_POINTS.items():
        path = root / rel
        if not path.exists():
            errors.append(f"{rel}: file missing (noexcept policy refers to "
                          "it)")
            continue
        text = strip_comments_and_strings(path.read_text(encoding="utf-8"))
        for name in names:
            if not re.search(rf"\b{name}\s*\([^;{{}}]*\)\s*noexcept", text):
                errors.append(
                    f"{rel}: no noexcept declaration of '{name}' found -- "
                    "kernel registry entry points must not unwind into the "
                    "recursion hot path")


def check_hot_path_tokens(root, allowlist, errors):
    exceptions = {}
    for entry in allowlist.get("hot_path_exceptions", []):
        key = (entry["file"], entry["token"])
        exceptions[key] = {"sites": int(entry["sites"]), "seen": 0}
        if not entry.get("why"):
            errors.append(f"{entry['file']}: hot-path exception for "
                          f"{entry['token']!r} has no justification ('why')")
    for rel in HOT_PATH_FILES:
        path = root / rel
        if not path.exists():
            errors.append(f"{rel}: file missing (hot-path policy refers to "
                          "it)")
            continue
        text = strip_comments_and_strings(path.read_text(encoding="utf-8"))
        for token in BANNED_TOKENS:
            for m in re.finditer(re.escape(token), text):
                # "malloc" must not also fire inside identifiers like
                # "my_malloc_count" (qualification with "::" still counts).
                before = text[m.start() - 1:m.start()]
                after = text[m.end():m.end() + 1]
                if re.match(r"\w", before) or re.match(r"\w", after):
                    continue
                key = (rel, token)
                if key in exceptions:
                    exceptions[key]["seen"] += 1
                    if exceptions[key]["seen"] <= exceptions[key]["sites"]:
                        continue
                errors.append(
                    f"{rel}:{line_of(text, m.start())}: banned hot-path "
                    f"token {token!r} (allocation/clock work is not allowed "
                    "in leaf-kernel or schedule-interpreter code)")
    for (rel, token), info in sorted(exceptions.items()):
        if info["seen"] < info["sites"]:
            errors.append(
                f"{rel}: hot-path exception declares {info['sites']} "
                f"site(s) of {token!r} but {info['seen']} found -- stale "
                "allowlist entry")


def check_scoped_token(root, allowlist, key, scopes, pattern, complaint,
                       errors):
    """Fails every match of `pattern` under `scopes` outside the files listed
    under allowlist[key], and every listed file with no match (stale)."""
    allowed = {}
    for entry in allowlist.get(key, []):
        allowed[entry["file"]] = 0
        if not entry.get("why"):
            errors.append(f"{entry['file']}: {key} allowlist entry has no "
                          "justification ('why')")
    for scope in scopes:
        for path in sorted((root / scope).rglob("*")):
            if path.suffix not in (".hpp", ".cpp"):
                continue
            rel = path.relative_to(root).as_posix()
            text = strip_comments_and_strings(path.read_text(encoding="utf-8"))
            for m in re.finditer(pattern, text):
                if rel in allowed:
                    allowed[rel] += 1
                    continue
                errors.append(f"{rel}:{line_of(text, m.start())}: "
                              f"{complaint}")
    for rel, seen in sorted(allowed.items()):
        if seen == 0:
            errors.append(f"{rel}: {key} allowlist entry but no match "
                          "found -- stale allowlist entry")


def check_getenv(root, allowlist, errors):
    check_scoped_token(
        root, allowlist, "getenv", GETENV_SCOPE, r"\bgetenv\b",
        "getenv outside the allowlisted configuration files -- resolve "
        "STRASSEN_* once (core::resolve_config) and pass the result down",
        errors)


def check_step_executor(root, allowlist, errors):
    check_scoped_token(
        root, allowlist, "step_executor", STEP_EXECUTOR_SCOPE,
        r"\bStepKind\s*::",
        "StepKind outside the allowlisted schedule interpreter -- run step "
        "tables through core::detail::ScheduleInterpreter with a storage "
        "policy instead of a second step loop",
        errors)


def check_fork_join(root, allowlist, errors):
    check_scoped_token(
        root, allowlist, "fork_join", FORK_JOIN_SCOPE,
        r"\b(?:TaskGroup|parallel_for|fan_out)\b",
        "fork/join primitive outside the allowlisted files -- run products "
        "through core::detail::run_product with a pool instead of a second "
        "parallel router",
        errors)


def check_fused_kernel(root, allowlist, errors):
    check_scoped_token(
        root, allowlist, "fused_kernel", FUSED_KERNEL_SCOPE,
        r"\w*gemm_fused\w*",
        "fused leaf kernel named outside src/blas/kernels/ -- the schedule "
        "tables materialize every operand sum; run products through the "
        "plain leaf",
        errors)


# ---- libclang engine (optional) -------------------------------------------

def libclang_available():
    try:
        import clang.cindex  # noqa: F401
        return True
    except ImportError:
        return False


def run_libclang(root, allowlist, errors):
    """Type-accurate pass over compile_commands.json.  Requires the optional
    python3-clang package; the container gates on availability."""
    import clang.cindex as ci

    ccdb_dir = None
    for cand in ("build", "."):
        if (root / cand / "compile_commands.json").exists():
            ccdb_dir = root / cand
            break
    if ccdb_dir is None:
        errors.append("libclang engine: compile_commands.json not found "
                      "(configure with CMAKE_EXPORT_COMPILE_COMMANDS=ON)")
        return
    db = ci.CompilationDatabase.fromDirectory(str(ccdb_dir))
    index = ci.Index.create()
    scope = tuple(str(root / s) for s in ATOMIC_SCOPE)
    for rel in sorted({e["file"] for e in allowlist.get("memory_order", [])}):
        path = root / rel
        if path.suffix != ".cpp":
            continue
        cmds = db.getCompileCommands(str(path))
        if not cmds:
            continue
        args = [a for a in list(cmds[0].arguments)[1:-1] if a != "-c"]
        tu = index.parse(str(path), args=args)
        for cursor in tu.cursor.walk_preorder():
            if cursor.kind != ci.CursorKind.CALL_EXPR:
                continue
            if cursor.spelling not in ATOMIC_OPS:
                continue
            loc = cursor.location
            if loc.file is None or not str(loc.file).startswith(scope):
                continue
            toks = " ".join(t.spelling for t in cursor.get_tokens())
            if "memory_order" not in toks:
                errors.append(f"{rel}:{loc.line}: {cursor.spelling}() "
                              "without an explicit std::memory_order "
                              "(libclang engine)")


# ---- driver ---------------------------------------------------------------

def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--root", default=".",
                    help="repository root (default: cwd)")
    ap.add_argument("--allowlist", default=None,
                    help="path to lint_allowlist.json "
                         "(default: tools/lint_allowlist.json under --root)")
    ap.add_argument("--engine", choices=("auto", "text", "libclang"),
                    default="text",
                    help="text = regex engine (no dependencies); libclang = "
                         "AST engine (requires python3-clang); auto = "
                         "libclang when importable, else text")
    args = ap.parse_args()

    root = pathlib.Path(args.root).resolve()
    allowlist_path = (pathlib.Path(args.allowlist) if args.allowlist
                      else root / "tools" / "lint_allowlist.json")
    if not allowlist_path.exists():
        print(f"lint_invariants: allowlist not found: {allowlist_path}",
              file=sys.stderr)
        return 2
    allowlist = json.loads(allowlist_path.read_text(encoding="utf-8"))

    engine = args.engine
    if engine == "libclang" and not libclang_available():
        print("lint_invariants: --engine libclang requested but "
              "clang.cindex is not importable (install python3-clang)",
              file=sys.stderr)
        return 2
    if engine == "auto":
        engine = "libclang" if libclang_available() else "text"

    errors = []
    check_atomic_orders(root, allowlist, errors)
    check_noexcept(root, errors)
    check_hot_path_tokens(root, allowlist, errors)
    check_getenv(root, allowlist, errors)
    check_step_executor(root, allowlist, errors)
    check_fork_join(root, allowlist, errors)
    check_fused_kernel(root, allowlist, errors)
    if engine == "libclang":
        run_libclang(root, allowlist, errors)

    if errors:
        for e in errors:
            print(f"FAIL {e}")
        print(f"lint_invariants: {len(errors)} violation(s) [{engine} "
              "engine]", file=sys.stderr)
        return 1
    audited = len(allowlist.get("memory_order", []))
    print(f"lint_invariants: clean [{engine} engine; {audited} audited "
          "memory_order pattern(s)]")
    return 0


if __name__ == "__main__":
    sys.exit(main())
