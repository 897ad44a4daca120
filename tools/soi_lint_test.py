#!/usr/bin/env python3
"""Self-test for tools/soi_lint.py against tests/lint_fixtures/.

Asserts, rule by rule, that each planted violation fires, that the
inline suppression marker and the file allowlist silence findings, that
the layering/include-cycle audit rejects the synthetic bad layer tree
while passing the real one, that --json emits machine-readable findings,
and that the header self-containment mode rejects the non-self-contained
fixture while accepting the good one. Registered in ctest as
`soi_lint_selftest` under the `lint` label.
"""

import contextlib
import io
import json
import os
import shutil
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import soi_lint  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
FIXTURES = os.path.join(ROOT, "tests", "lint_fixtures")


def lint_fixture(name, rules=None):
    path = os.path.join(FIXTURES, name)
    return soi_lint.run_text_rules(ROOT, explicit_paths=[path], rules=rules)


class TextRuleTest(unittest.TestCase):
    # (fixture, rule, expected line of the single planted violation)
    CASES = [
        ("bad_determinism.cc", "determinism", 5),
        ("bad_float_eq.cc", "float-eq", 6),
        ("bad_io_stream.cc", "io-stream", 5),
        ("bad_io_stream_diag.cc", "io-stream", 6),
        ("bad_naked_new.cc", "naked-new", 5),
        ("bad_unchecked_io.cc", "unchecked-io", 8),
        ("bad_nested_vector.h", "nested-vector", 10),
        ("bad_lock_hygiene.cc", "lock-hygiene", 5),
        ("bad_rcu.cc", "rcu", 5),
    ]

    def test_each_rule_fires_once_on_its_fixture(self):
        for fixture, rule, line in self.CASES:
            with self.subTest(rule=rule):
                findings = lint_fixture(fixture)
                self.assertEqual(
                    [(f[2], f[1]) for f in findings],
                    [(rule, line)],
                    "expected exactly one %s finding on line %d of %s, "
                    "got %r" % (rule, line, fixture, findings),
                )

    def test_rule_subset_filter(self):
        # Restricting to an unrelated rule must not fire.
        self.assertEqual(
            lint_fixture("bad_determinism.cc", rules=["naked-new"]), []
        )

    def test_inline_suppression_silences_every_rule(self):
        self.assertEqual(lint_fixture("suppressed.cc"), [])

    def test_nested_vector_rule_is_header_only(self):
        # RULE_FILE_GLOB limits nested-vector to *.h: the same pattern in
        # a .cc build path is the blessed staging idiom and must not fire.
        self.assertEqual(lint_fixture("good_nested_vector.cc"), [])

    def test_allowlist_silences_a_fixture(self):
        rel = "tests/lint_fixtures/bad_determinism.cc"
        original = soi_lint.ALLOWLIST["determinism"]
        soi_lint.ALLOWLIST["determinism"] = original + [rel]
        try:
            self.assertEqual(lint_fixture("bad_determinism.cc"), [])
        finally:
            soi_lint.ALLOWLIST["determinism"] = original

    def test_comments_and_strings_are_inert(self):
        # bad_float_eq.cc contains `== 2.5` in a string and `== 3.5` in a
        # comment; only the real comparison (line 6) may fire — already
        # covered above, re-asserted here against accidental double
        # reports.
        findings = lint_fixture("bad_float_eq.cc")
        self.assertEqual(len(findings), 1)

    def test_repo_scan_is_clean(self):
        # The tree itself must lint clean, and the fixtures directory
        # must be excluded from that scan.
        self.assertEqual(soi_lint.run_text_rules(ROOT), [])


class LayeringRuleTest(unittest.TestCase):
    BAD_TREE = os.path.join(FIXTURES, "layer_tree_bad")

    def test_core_including_serve_is_rejected(self):
        findings = soi_lint.run_layering_rules(self.BAD_TREE)
        layering = [f for f in findings if f[2] == "layering"]
        self.assertEqual(len(layering), 1, findings)
        path, line, _, message = layering[0]
        self.assertEqual(path, "src/core/uses_serve.cc")
        self.assertEqual(line, 3)
        self.assertIn("'core'", message)
        self.assertIn("'serve'", message)

    def test_include_cycle_is_rejected(self):
        findings = soi_lint.run_layering_rules(self.BAD_TREE)
        cycles = [f for f in findings if f[2] == "include-cycle"]
        self.assertEqual(len(cycles), 1, findings)
        self.assertEqual(cycles[0][0], "src/grid/cycle_a.h")
        self.assertIn(
            "grid/cycle_a.h -> grid/cycle_b.h -> grid/cycle_a.h",
            cycles[0][3],
        )

    def test_real_tree_passes(self):
        # The acceptance gate: the audit must hold on the actual src/
        # include graph (the .cc instrumentation exception included).
        self.assertEqual(soi_lint.run_layering_rules(ROOT), [])

    def test_declared_dag_is_acyclic_and_closed(self):
        deps = soi_lint.LAYER_DEPS
        for layer, allowed in deps.items():
            for dep in allowed:
                self.assertIn(dep, deps, "undeclared layer " + dep)
                self.assertNotIn(
                    layer,
                    deps[dep],
                    "LAYER_DEPS cycle between %s and %s" % (layer, dep),
                )
                # Transitive closure: anything a dependency may include,
                # the dependent may too, so membership is one lookup.
                self.assertTrue(
                    deps[dep] <= allowed,
                    "LAYER_DEPS[%r] not transitively closed over %r"
                    % (layer, dep),
                )


class JsonOutputTest(unittest.TestCase):
    def run_main(self, argv):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            status = soi_lint.main(argv)
        return status, out.getvalue()

    def test_findings_are_machine_readable(self):
        fixture = os.path.join(FIXTURES, "bad_lock_hygiene.cc")
        status, out = self.run_main(["--root", ROOT, "--json", fixture])
        self.assertEqual(status, 1)
        findings = json.loads(out)
        self.assertEqual(len(findings), 1)
        self.assertEqual(
            sorted(findings[0]), ["file", "line", "message", "rule"]
        )
        self.assertEqual(findings[0]["rule"], "lock-hygiene")
        self.assertEqual(findings[0]["line"], 5)
        self.assertTrue(findings[0]["file"].endswith("bad_lock_hygiene.cc"))

    def test_clean_scan_is_an_empty_array(self):
        status, out = self.run_main(["--root", ROOT, "--json"])
        self.assertEqual(status, 0)
        self.assertEqual(json.loads(out), [])


class HeaderRuleTest(unittest.TestCase):
    def compiler(self):
        cxx = os.environ.get("SOI_LINT_CXX", "c++")
        return cxx if shutil.which(cxx) else None

    def test_bad_header_fails_good_header_passes(self):
        cxx = self.compiler()
        if cxx is None:
            self.skipTest("no C++ compiler available")
        bad = soi_lint.run_header_rule(
            ROOT,
            cxx,
            "c++20",
            headers=[os.path.join(FIXTURES, "bad_header.h")],
            include_dir=FIXTURES,
        )
        self.assertEqual(len(bad), 1)
        self.assertEqual(bad[0][2], "headers")
        good = soi_lint.run_header_rule(
            ROOT,
            cxx,
            "c++20",
            headers=[os.path.join(FIXTURES, "good_header.h")],
            include_dir=FIXTURES,
        )
        self.assertEqual(good, [])


if __name__ == "__main__":
    unittest.main()
