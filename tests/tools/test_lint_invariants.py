#!/usr/bin/env python3
"""Tests for the getenv rule of tools/lint_invariants.py (stdlib only,
registered with ctest).

Builds small source trees and checks that an environment read under
src/core or src/parallel passes only in an allowlisted file.
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


class GetenvRuleTest(unittest.TestCase):
    def check(self, files, allowlist=ALLOWLIST):
        """files: {relative path: source text}; returns the error list."""
        with tempfile.TemporaryDirectory() as d:
            root = pathlib.Path(d)
            for rel, text in files.items():
                path = root / rel
                path.parent.mkdir(parents=True, exist_ok=True)
                path.write_text(text)
            errors = []
            lint.check_getenv(root, allowlist, errors)
        return errors

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
                'int f() {\n  return std::getenv("STRASSEN_SCHEDULE") != 0;\n}\n',
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


if __name__ == "__main__":
    unittest.main()
