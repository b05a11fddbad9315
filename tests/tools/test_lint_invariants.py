#!/usr/bin/env python3
"""Tests for the getenv, step-executor, fork-join and fused-kernel rules of
tools/lint_invariants.py (stdlib only, registered with ctest).

Builds small source trees and checks that an environment read, a
schedule-step dispatch, or a fork/join primitive under src/core or
src/parallel, or a fused-kernel entry under src, passes only in an
allowlisted file.
"""

import importlib.util
import pathlib
import tempfile
import unittest

TOOL = pathlib.Path(__file__).resolve().parents[2] / "tools" / "lint_invariants.py"
_spec = importlib.util.spec_from_file_location("lint_invariants", TOOL)
lint = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(lint)

ALLOWLIST = {"getenv": [{"file": "src/core/config.cpp",
                         "why": "resolves the configuration once"}]}


def run_check(check, files, allowlist):
    """files: {relative path: source text}; returns check's error list."""
    with tempfile.TemporaryDirectory() as d:
        root = pathlib.Path(d)
        for rel, text in files.items():
            path = root / rel
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(text)
        errors = []
        check(root, allowlist, errors)
    return errors


class GetenvRuleTest(unittest.TestCase):
    def check(self, files, allowlist=ALLOWLIST):
        return run_check(lint.check_getenv, files, allowlist)

    def test_allowlisted_read_passes(self):
        errors = self.check({
            "src/core/config.cpp":
                'const char* v = std::getenv("STRASSEN_ALGO");\n',
            # Mentions in comments and strings are not reads.
            "src/parallel/pool.cpp":
                '// getenv is not called here\n'
                'const char* msg = "getenv";\n',
        })
        self.assertEqual(errors, [])

    def test_read_outside_allowlist_fails(self):
        errors = self.check({
            "src/core/config.cpp": 'std::getenv("STRASSEN_ALGO");\n',
            "src/parallel/pmodgemm.cpp":
                'int f() {\n  return std::getenv("STRASSEN_STRATEGY") != 0;\n}\n',
        })
        self.assertEqual(len(errors), 1)
        self.assertIn("src/parallel/pmodgemm.cpp:2", errors[0])

    def test_stale_entry_fails(self):
        errors = self.check({"src/core/config.cpp": "int x = 0;\n"})
        self.assertEqual(len(errors), 1)
        self.assertIn("stale", errors[0])

    def test_other_directories_are_out_of_scope(self):
        errors = self.check({
            "src/core/config.cpp": 'std::getenv("STRASSEN_ALGO");\n',
            "src/blas/kernels/registry.cpp": 'std::getenv("STRASSEN_KERNEL");\n',
        })
        self.assertEqual(errors, [])


STEP_ALLOWLIST = {"step_executor": [{"file": "src/core/winograd.hpp",
                                     "why": "the one schedule interpreter"}]}


class StepExecutorRuleTest(unittest.TestCase):
    def check(self, files):
        return run_check(lint.check_step_executor, files, STEP_ALLOWLIST)

    def test_interpreter_only_passes(self):
        errors = self.check({
            "src/core/winograd.hpp":
                "switch (s.kind) {\n"
                "  case analysis::StepKind::kAdd: break;\n}\n",
            # Mentions in comments are not dispatch.
            "src/core/packfused.hpp":
                "// runs on the interpreter, never on StepKind::kMul itself\n"
                "int storage = 0;\n",
        })
        self.assertEqual(errors, [])

    def test_second_step_loop_fails(self):
        errors = self.check({
            "src/core/winograd.hpp": "case StepKind::kMul: break;\n",
            "src/parallel/pmodgemm.cpp":
                "void f(const Step& s) {\n"
                "  if (s.kind == analysis::StepKind :: kMul) spawn();\n}\n",
        })
        self.assertEqual(len(errors), 1)
        self.assertIn("src/parallel/pmodgemm.cpp:2", errors[0])

    def test_stale_entry_fails(self):
        errors = self.check({"src/core/winograd.hpp": "int x = 0;\n"})
        self.assertEqual(len(errors), 1)
        self.assertIn("stale", errors[0])


FORK_ALLOWLIST = {"fork_join": [
    {"file": "src/core/modgemm.hpp", "why": "the one forking pipeline"},
    {"file": "src/parallel/thread_pool.hpp", "why": "the primitives"},
]}


class ForkJoinRuleTest(unittest.TestCase):
    def check(self, files):
        return run_check(lint.check_fork_join, files, FORK_ALLOWLIST)

    def test_allowlisted_files_pass(self):
        errors = self.check({
            "src/core/modgemm.hpp":
                "parallel::TaskGroup group(pool);\n"
                "parallel::fan_out(pool, n, fn);\n",
            "src/parallel/thread_pool.hpp":
                "class TaskGroup {};\nvoid parallel_for();\n",
            # Mentions in comments are not forks.
            "src/parallel/arena_pool.hpp":
                "// blocked in TaskGroup::wait()\nint x = 0;\n",
        })
        self.assertEqual(errors, [])

    def test_second_parallel_router_fails(self):
        errors = self.check({
            "src/core/modgemm.hpp": "TaskGroup g(pool);\n",
            "src/parallel/thread_pool.hpp": "class TaskGroup {};\n",
            "src/parallel/pmodgemm.cpp":
                "void route() {\n"
                "  parallel_for(pool, 0, n, 8, fn);\n"
                "  fan_out(pool, blocks, run_block);\n}\n",
        })
        self.assertEqual(len(errors), 2)
        self.assertIn("src/parallel/pmodgemm.cpp:2", errors[0])
        self.assertIn("src/parallel/pmodgemm.cpp:3", errors[1])

    def test_stale_entry_fails(self):
        errors = self.check({
            "src/core/modgemm.hpp": "TaskGroup g(pool);\n",
            "src/parallel/thread_pool.hpp": "int x = 0;\n",
        })
        self.assertEqual(len(errors), 1)
        self.assertIn("src/parallel/thread_pool.hpp", errors[0])
        self.assertIn("stale", errors[0])


FUSED_ALLOWLIST = {"fused_kernel": [
    {"file": "src/blas/kernels/registry.hpp", "why": "the kernel table"},
    {"file": "src/blas/kernels/avx2.cpp", "why": "the AVX2 entry"},
]}


class FusedKernelRuleTest(unittest.TestCase):
    def check(self, files):
        return run_check(lint.check_fused_kernel, files, FUSED_ALLOWLIST)

    def test_kernel_tables_pass(self):
        errors = self.check({
            "src/blas/kernels/registry.hpp": "void (*gemm_fused)();\n",
            "src/blas/kernels/avx2.cpp":
                "void avx2_gemm_fused() {}\nT t{avx2_gemm_fused};\n",
            # Mentions in comments are not calls.
            "src/core/winograd.hpp": "// no gemm_fused here\nint x;\n",
        })
        self.assertEqual(errors, [])

    def test_library_call_fails(self):
        errors = self.check({
            "src/blas/kernels/registry.hpp": "void (*gemm_fused)();\n",
            "src/blas/kernels/avx2.cpp": "void avx2_gemm_fused() {}\n",
            "src/core/packfused.hpp":
                "void leaf() {\n  tab.gemm_fused(m, n, k);\n}\n",
        })
        self.assertEqual(len(errors), 1)
        self.assertIn("src/core/packfused.hpp:2", errors[0])

    def test_stale_entry_fails(self):
        errors = self.check({
            "src/blas/kernels/registry.hpp": "void (*gemm_fused)();\n",
            "src/blas/kernels/avx2.cpp": "int x = 0;\n",
        })
        self.assertEqual(len(errors), 1)
        self.assertIn("src/blas/kernels/avx2.cpp", errors[0])
        self.assertIn("stale", errors[0])


if __name__ == "__main__":
    unittest.main()
