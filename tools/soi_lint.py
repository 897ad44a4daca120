#!/usr/bin/env python3
"""soi-lint: project-invariant checks the C++ compiler cannot enforce.

Dependency-free (python3 standard library only). Wired into ctest under
the `lint` label; see DESIGN.md "Static analysis & invariants" for what
each rule protects.

Rules
-----
determinism   No ambient randomness outside src/common/random.cc: no
              std::random_device, rand()/srand(), std:: engine types, or
              time()-derived seeds. Every stochastic component must draw
              from an explicitly seeded soi::Rng, or datasets and
              experiments stop being reproducible.
float-eq      No raw ==/!= against a floating-point literal. Exact
              equality on computed doubles is the bug class behind the
              PR-1 FP-argmax defect; the blessed patterns are comparing
              through an epsilon, or an explicitly suppressed exact
              sentinel check.
io-stream     Library code (src/) must not write to the standard streams
              (std::cout/cerr/clog and wide variants, std::print[ln]) or
              C stdio (printf/fprintf/puts/fputs/fputc/putchar/perror):
              obs/ and common/json_writer own all output, so embedding
              libsoi never spams a host process's streams. Diagnostics
              belong in metrics, the flight recorder, or a Status.
              (check.h's fatal-error reporter is allowlisted.)
naked-new     Every `new` must transfer ownership on the same statement
              (std::unique_ptr/std::shared_ptr construction or .reset).
              Intentionally leaked singletons carry a suppression.
unchecked-io  Serving code (src/serve/) must not discard the return
              value of the raw socket syscalls send/recv/read/write —
              a short write silently truncates a frame and a short read
              silently desyncs the stream. Call through Socket::SendAll
              / Socket::RecvExact (serve/net.h), which loop and return
              a typed Status; a (void)-cast discard counts as a
              violation too.
nested-vector Grid-index headers (src/grid/*.h) must not declare
              std::vector<std::vector<...>> members: the serving indexes
              store flat CSR arenas (common/csr.h), and a nested-vector
              member reintroduces the per-row heap blocks the layout
              work removed. Build-time staging in .cc files is fine.
lock-hygiene  No raw std::mutex / std::lock_guard / std::unique_lock /
              std::scoped_lock / std::condition_variable (or the shared/
              timed/recursive variants) outside common/mutex.h: all
              locking flows through soi::Mutex/MutexLock/CondVar so it
              is visible to both the Clang thread-safety analysis and
              the runtime lock-order graph (analysis/lock_graph.h — its
              own registry lock is the allowlisted exception, since
              instrumenting the instrumenter would recurse).
rcu           No memory_order_seq_cst in src/ outside src/common/rcu.h,
              whose Published<T> is the one wait-free publication
              protocol; a second hand-rolled copy must not creep back.
layering      The src/ include graph must follow the declared layer DAG
              (LAYER_DEPS below): common sits above the analysis
              instrumentation substrate, the domain layers (geometry,
              grid, network, objects, text) above common, core/obs/
              snapshot above those, serve on top. A header including
              upward (core -> serve, say) couples subsystems the
              architecture keeps composable. Exception: any .cc file
              may include the cross-cutting instrumentation layers
              (obs, analysis), which depend only on common and each
              other; headers get no such exception.
include-cycle No cycle in the file-level `#include "..."` graph under
              src/ — a cycle means include order decides what compiles.
headers       (--headers mode) Every src/**/*.h compiles standalone via
              a generated single-include TU, so include order never
              matters and no header leans on a transitive include.

Suppressions
------------
A finding is suppressed by a comment containing `soi-lint: <rule>` on
the offending line or the line directly above it, e.g.

    static Registry* const g = new Registry();  // soi-lint: naked-new

File-level allowlists live in ALLOWLIST below; fixture trees used by the
self-test are excluded entirely (EXCLUDE_DIRS).

Exit status: 0 clean, 1 findings, 2 usage/environment error.
"""

import argparse
import concurrent.futures
import fnmatch
import json
import os
import re
import subprocess
import sys
import tempfile

# Directories scanned per rule, relative to --root.
RULE_SCOPE = {
    "determinism": ("src", "bench", "tests", "examples"),
    "float-eq": ("src", "bench", "tests", "examples"),
    "io-stream": ("src",),
    "naked-new": ("src",),
    "unchecked-io": ("src/serve",),
    "nested-vector": ("src/grid",),
    "lock-hygiene": ("src",),
    "rcu": ("src",),
}

# Per-rule basename glob: the rule only applies to matching files (both
# in the tree scan and on explicit paths). Rules absent here apply to
# every source file in their scope.
RULE_FILE_GLOB = {
    "nested-vector": "*.h",
}

# Per-rule path allowlist (fnmatch globs against the /-separated path
# relative to --root). The allowlisted owner of each invariant.
ALLOWLIST = {
    "determinism": ["src/common/random.cc"],
    # check.h's fatal-error reporter, and the lock-order detector's
    # fatal violation report (which must not depend on the obs dump
    # path: that path takes locks of its own).
    "io-stream": ["src/common/check.h", "src/analysis/lock_graph.cc"],
    "float-eq": [],
    "naked-new": [],
    "unchecked-io": [],
    "nested-vector": [],
    # mutex.h is the blessed wrapper; lock_graph.{h,cc} implement the
    # detector it reports into and must not instrument themselves.
    "lock-hygiene": [
        "src/common/mutex.h",
        "src/analysis/lock_graph.h",
        "src/analysis/lock_graph.cc",
    ],
    "rcu": ["src/common/rcu.h"],
}

# Never scanned: lint self-test fixtures (they plant violations).
EXCLUDE_DIRS = ("tests/lint_fixtures",)

SOURCE_EXTENSIONS = (".h", ".cc", ".cpp")

SUPPRESS_MARKER = "soi-lint:"

# One finding: (path, line_number, rule, message).

_FLOAT_LITERAL = r"[-+]?(?:\d+\.\d*|\.\d+)(?:[eE][-+]?\d+)?f?"

RULE_PATTERNS = {
    "determinism": re.compile(
        r"std::random_device|std::mt19937|std::minstd_rand"
        r"|std::default_random_engine|std::ranlux|std::knuth_b"
        r"|\bsrand\s*\(|(?<![\w:.])rand\s*\("
        r"|\btime\s*\(\s*(?:NULL|nullptr|0)\s*\)"
    ),
    "float-eq": re.compile(
        r"(?:==|!=)\s*" + _FLOAT_LITERAL + r"(?![\w.])"
        r"|" + _FLOAT_LITERAL + r"\s*(?:==|!=)(?!=)"
    ),
    "io-stream": re.compile(
        r"std::(?:cout|cerr|clog|wcout|wcerr|wclog)"
        r"|std::print(?:ln)?\s*\("
        r"|(?<![\w:])printf\s*\(|\bfprintf\s*\("
        r"|(?<![\w:])puts\s*\(|\bfputs\s*\(|\bfputc\s*\("
        r"|(?<![\w:])putchar\s*\(|\bperror\s*\("
    ),
    "naked-new": re.compile(r"\bnew\b(?:\s*\(\s*std::nothrow\s*\))?\s*[\w:<(]"),
    # Case-sensitive and statement-anchored: Socket::SendAll/RecvExact
    # never match, and a call whose value feeds an assignment, condition,
    # or return is a continuation the prev-line check below recognizes.
    "unchecked-io": re.compile(
        r"^\s*(?:\(void\)\s*)?(?:::)?(?:send|recv|read|write)\s*\("
    ),
    "nested-vector": re.compile(r"std::\s*vector\s*<\s*std::\s*vector\s*<"),
    "lock-hygiene": re.compile(
        r"std::(?:mutex|timed_mutex|recursive_mutex|recursive_timed_mutex"
        r"|shared_mutex|shared_timed_mutex|lock_guard|scoped_lock"
        r"|unique_lock|shared_lock|condition_variable(?:_any)?)\b"
    ),
    "rcu": re.compile(r"\bmemory_order_seq_cst\b"),
}

RULE_MESSAGES = {
    "determinism": (
        "ambient randomness; draw from an explicitly seeded soi::Rng "
        "(src/common/random.h) instead"
    ),
    "float-eq": (
        "raw ==/!= against a floating-point literal; compare through an "
        "epsilon, or suppress an exact sentinel check with "
        "'// soi-lint: float-eq'"
    ),
    "io-stream": (
        "library code must not write to stdout/stderr; route output "
        "through obs/ or common/json_writer"
    ),
    "naked-new": (
        "naked new; transfer ownership on the same statement "
        "(make_unique / unique_ptr(new ...) / .reset(new ...))"
    ),
    "unchecked-io": (
        "unchecked send/recv/read/write return value; short I/O "
        "truncates or desyncs the stream — use Socket::SendAll / "
        "Socket::RecvExact (serve/net.h) or handle the count"
    ),
    "nested-vector": (
        "nested-vector storage in a grid-index header; serving indexes "
        "use flat CSR arenas (common/csr.h) — stage nested rows only in "
        "the .cc build path"
    ),
    "lock-hygiene": (
        "raw std:: synchronization primitive; lock through soi::Mutex / "
        "MutexLock / CondVar (common/mutex.h) so the critical section is "
        "visible to the thread-safety analysis and the lock-order graph"
    ),
    "rcu": "seq_cst outside common/rcu.h; publish through Published<T>",
}

# The declared layer DAG over src/ subdirectories: layer -> layers it
# may include (transitively closed, so membership is one lookup). The
# `analysis` layer is the instrumentation substrate *below* common —
# common/mutex.h includes analysis/lock_graph.h — and depends on the
# C++ standard library only. Adding a new src/ directory requires
# declaring it here; an undeclared layer is itself a finding.
LAYER_DEPS = {
    "analysis": set(),
    "common": {"analysis"},
    "geometry": {"analysis", "common"},
    "text": {"analysis", "common"},
    "obs": {"analysis", "common"},
    "network": {"analysis", "common", "geometry"},
    "objects": {"analysis", "common", "geometry", "text"},
    "grid": {"analysis", "common", "geometry", "network", "objects", "text"},
    "core": {"analysis", "common", "geometry", "grid", "network", "objects",
             "obs", "text"},
    "datagen": {"analysis", "common", "geometry", "grid", "network",
                "objects", "text"},
    "snapshot": {"analysis", "common", "datagen", "geometry", "grid",
                 "network", "objects", "obs", "text"},
    "eval": {"analysis", "common", "core", "geometry", "grid", "network",
             "objects", "obs", "text"},
    "serve": {"analysis", "common", "core", "datagen", "geometry", "grid",
              "network", "objects", "obs", "snapshot", "text"},
    "ingest": {"analysis", "common", "datagen", "geometry", "grid",
               "network", "objects", "obs", "snapshot", "text"},
}

# Cross-cutting instrumentation layers any .cc file may include: they
# depend only on common and each other, and instrumenting a low layer
# (thread_pool.cc's queue gauges, say) must not force that layer above
# obs in the DAG. Headers get no such exception — a header include is
# an interface dependency.
INSTRUMENTATION_LAYERS = ("analysis", "obs")

_INCLUDE = re.compile(r'^\s*#\s*include\s*"([^"]+)"')
# Laxer form for comment-stripped lines (the stripper blanks the quoted
# path, closing quote included).
_INCLUDE_DIRECTIVE = re.compile(r'^\s*#\s*include\s*"')

# A `new` is owned if the statement context shows an immediate wrapper.
_OWNED_NEW = re.compile(r"unique_ptr\s*<|shared_ptr\s*<|\.reset\s*\(")

# A syscall starting a line is still value-checked when it continues the
# previous line (assignment, condition, argument list, return, ...).
_CONTINUATION_PREV = re.compile(r"(?:[=(,?:+\-*/%<>|&!]|\breturn)\s*$")


def strip_comments_and_strings(text):
    """Returns `text` with comments and string/char literal contents
    blanked (newlines preserved), so patterns never match inside them."""
    out = []
    i = 0
    n = len(text)
    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if c == "/" and nxt == "/":
            end = text.find("\n", i)
            end = n if end == -1 else end
            i = end
        elif c == "/" and nxt == "*":
            end = text.find("*/", i + 2)
            end = n if end == -1 else end + 2
            out.append(" " * 0)
            out.extend(ch if ch == "\n" else " " for ch in text[i:end])
            i = end
        elif c == "R" and nxt == '"':
            # Raw string literal: R"delim( ... )delim".
            m = re.match(r'R"([^(\s]*)\(', text[i:])
            if not m:
                out.append(c)
                i += 1
                continue
            closer = ")" + m.group(1) + '"'
            end = text.find(closer, i + m.end())
            end = n if end == -1 else end + len(closer)
            out.extend(ch if ch == "\n" else " " for ch in text[i:end])
            i = end
        elif c in "\"'":
            quote = c
            j = i + 1
            while j < n and text[j] != quote:
                j += 2 if text[j] == "\\" else 1
            j = min(j + 1, n)
            out.append(quote)
            out.extend(ch if ch == "\n" else " " for ch in text[i + 1 : j])
            i = j
        else:
            out.append(c)
            i += 1
    return "".join(out)


def is_suppressed(raw_lines, line_index, rule):
    """True if the offending line or the one above carries the marker."""
    for idx in (line_index, line_index - 1):
        if 0 <= idx < len(raw_lines):
            line = raw_lines[idx]
            marker = line.find(SUPPRESS_MARKER)
            if marker != -1 and rule in line[marker:]:
                return True
    return False


def lint_file(path, rel_path, rules):
    """Runs the given text rules over one file; returns findings."""
    try:
        with open(path, encoding="utf-8", errors="replace") as f:
            text = f.read()
    except OSError as e:
        return [(rel_path, 0, "io-error", str(e))]
    raw_lines = text.splitlines()
    code_lines = strip_comments_and_strings(text).splitlines()
    findings = []
    basename = os.path.basename(rel_path)
    for rule in rules:
        file_glob = RULE_FILE_GLOB.get(rule)
        if file_glob and not fnmatch.fnmatch(basename, file_glob):
            continue
        if any(fnmatch.fnmatch(rel_path, g) for g in ALLOWLIST[rule]):
            continue
        pattern = RULE_PATTERNS[rule]
        for i, line in enumerate(code_lines):
            if not pattern.search(line):
                continue
            if rule == "naked-new":
                prev = code_lines[i - 1] if i > 0 else ""
                if _OWNED_NEW.search(prev + " " + line):
                    continue
            if rule == "unchecked-io":
                prev = code_lines[i - 1] if i > 0 else ""
                if _CONTINUATION_PREV.search(prev):
                    continue
            if is_suppressed(raw_lines, i, rule):
                continue
            findings.append((rel_path, i + 1, rule, RULE_MESSAGES[rule]))
    return findings


def iter_source_files(root, subdirs):
    for subdir in subdirs:
        top = os.path.join(root, subdir)
        if not os.path.isdir(top):
            continue
        for dirpath, dirnames, filenames in os.walk(top):
            rel_dir = os.path.relpath(dirpath, root).replace(os.sep, "/")
            if any(
                rel_dir == ex or rel_dir.startswith(ex + "/")
                for ex in EXCLUDE_DIRS
            ):
                dirnames[:] = []
                continue
            for name in sorted(filenames):
                if name.endswith(SOURCE_EXTENSIONS):
                    yield os.path.join(dirpath, name)


def run_text_rules(root, explicit_paths=None, rules=None):
    """Lints the repo tree (or explicit files, all rules) and returns
    findings sorted by path/line."""
    rules = list(rules or RULE_PATTERNS)
    findings = []
    if explicit_paths:
        for path in explicit_paths:
            rel = os.path.relpath(path, root).replace(os.sep, "/")
            findings.extend(lint_file(path, rel, rules))
    else:
        seen = set()
        for rule in rules:
            for path in iter_source_files(root, RULE_SCOPE[rule]):
                rel = os.path.relpath(path, root).replace(os.sep, "/")
                key = (rel, rule)
                if key in seen:
                    continue
                seen.add(key)
                findings.extend(lint_file(path, rel, [rule]))
    return sorted(findings)


def _src_include_graph(root):
    """Extracts the `#include "..."` graph under root/src.

    Returns (nodes, includes) where nodes maps each source file's
    src-relative path (e.g. "core/query_engine.cc") to its absolute
    path, and includes maps it to a list of (line_number, target)
    pairs for every quoted include that resolves to a file under src/.
    Comments and strings are stripped first, so a commented-out include
    never counts.
    """
    src_root = os.path.join(root, "src")
    nodes = {}
    includes = {}
    for path in iter_source_files(root, ("src",)):
        rel = os.path.relpath(path, src_root).replace(os.sep, "/")
        nodes[rel] = path
    for rel, path in nodes.items():
        try:
            with open(path, encoding="utf-8", errors="replace") as f:
                text = f.read()
        except OSError:
            continue
        targets = []
        stripped = strip_comments_and_strings(text).splitlines()
        for i, line in enumerate(text.splitlines()):
            # The include path itself is a string literal, so the target
            # must come from the raw line; the stripped line (quoted
            # content blanked, directive kept) gates out commented-out
            # includes.
            match = _INCLUDE.match(line)
            if not match:
                continue
            if i >= len(stripped) or not _INCLUDE_DIRECTIVE.match(stripped[i]):
                continue
            target = match.group(1)
            if target in nodes:
                targets.append((i + 1, target))
        includes[rel] = targets
    return nodes, includes


def _layer_of(rel):
    """Layer of a src-relative path: its first directory component."""
    return rel.split("/", 1)[0] if "/" in rel else ""


def run_layering_rules(root):
    """Enforces the layer DAG and rejects file-level include cycles over
    root/src; returns findings shaped like the text rules'."""
    nodes, includes = _src_include_graph(root)
    findings = []

    for rel in sorted(includes):
        layer = _layer_of(rel)
        allowed = LAYER_DEPS.get(layer)
        src_rel = "src/" + rel
        if allowed is None:
            findings.append((
                src_rel,
                1,
                "layering",
                "layer '%s' is not declared in the layer DAG "
                "(tools/soi_lint.py LAYER_DEPS); declare its allowed "
                "dependencies before adding code to it" % layer,
            ))
            continue
        for line, target in includes[rel]:
            target_layer = _layer_of(target)
            if target_layer == layer or target_layer in allowed:
                continue
            if rel.endswith(".cc") and target_layer in INSTRUMENTATION_LAYERS:
                continue
            findings.append((
                src_rel,
                line,
                "layering",
                "layer '%s' must not include layer '%s' (%s); the "
                "declared DAG is in tools/soi_lint.py LAYER_DEPS"
                % (layer, target_layer, target),
            ))

    # File-level include cycles, reported once per cycle on its first
    # file in path order. Colors: 0 unvisited, 1 on the DFS stack,
    # 2 finished.
    color = {}
    stack_pos = {}

    def visit(rel, stack):
        color[rel] = 1
        stack_pos[rel] = len(stack)
        stack.append(rel)
        for _, target in includes.get(rel, ()):
            state = color.get(target, 0)
            if state == 0:
                visit(target, stack)
            elif state == 1:
                cycle = stack[stack_pos[target]:] + [target]
                anchor = min(cycle[:-1])
                findings.append((
                    "src/" + anchor,
                    1,
                    "include-cycle",
                    "include cycle: " + " -> ".join(cycle),
                ))
        stack.pop()
        del stack_pos[rel]
        color[rel] = 2

    for rel in sorted(includes):
        if color.get(rel, 0) == 0:
            visit(rel, [])
    return sorted(set(findings))


def check_header(compiler, std, include_dir, root, header):
    """Compiles one header standalone; returns a finding or None."""
    rel = os.path.relpath(header, root).replace(os.sep, "/")
    include_rel = os.path.relpath(header, include_dir).replace(os.sep, "/")
    with tempfile.NamedTemporaryFile(
        "w", suffix=".cc", prefix="soi_hdr_", delete=False
    ) as tu:
        # Include twice: catches both missing includes and a missing or
        # broken include guard.
        tu.write('#include "%s"\n#include "%s"\n' % (include_rel, include_rel))
        tu_path = tu.name
    try:
        proc = subprocess.run(
            [
                compiler,
                "-std=" + std,
                "-fsyntax-only",
                "-Wall",
                "-Wextra",
                "-I",
                include_dir,
                "-x",
                "c++",
                tu_path,
            ],
            capture_output=True,
            text=True,
        )
    finally:
        os.unlink(tu_path)
    if proc.returncode != 0:
        detail = (proc.stderr or proc.stdout).strip().splitlines()
        summary = detail[0] if detail else "compilation failed"
        return (rel, 1, "headers", "not self-contained: " + summary)
    return None


def run_header_rule(root, compiler, std, headers=None, include_dir=None):
    include_dir = include_dir or os.path.join(root, "src")
    if headers is None:
        headers = [
            p
            for p in iter_source_files(root, ("src",))
            if p.endswith(".h")
        ]
    findings = []
    with concurrent.futures.ThreadPoolExecutor(
        max_workers=os.cpu_count() or 4
    ) as pool:
        for result in pool.map(
            lambda h: check_header(compiler, std, include_dir, root, h),
            headers,
        ):
            if result is not None:
                findings.append(result)
    return sorted(findings)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--root", default=".", help="repository root (default: cwd)"
    )
    parser.add_argument(
        "--rules",
        default=None,
        help="comma-separated subset of rules (default: all text rules)",
    )
    parser.add_argument(
        "--headers",
        action="store_true",
        help="run the header self-containment check instead of text rules",
    )
    parser.add_argument(
        "--compiler",
        default=os.environ.get("SOI_LINT_CXX", "c++"),
        help="C++ compiler for --headers (default: $SOI_LINT_CXX or c++)",
    )
    parser.add_argument(
        "--std", default="c++20", help="-std= value for --headers"
    )
    parser.add_argument(
        "--json",
        action="store_true",
        help="emit findings as a JSON array of {rule, file, line, message} "
        "objects (machine-readable for check.sh / CI diffing); exit "
        "status is unchanged",
    )
    parser.add_argument(
        "paths",
        nargs="*",
        help="explicit files to lint with every text rule (default: the "
        "per-rule repo scopes)",
    )
    args = parser.parse_args(argv)
    root = os.path.abspath(args.root)
    if not os.path.isdir(root):
        print("soi-lint: no such root: %s" % root, file=sys.stderr)
        return 2

    structural_rules = ("layering", "include-cycle")
    if args.headers:
        findings = run_header_rule(root, args.compiler, args.std)
    else:
        rules = args.rules.split(",") if args.rules else None
        structural = list(structural_rules)
        if rules:
            unknown = [
                r
                for r in rules
                if r not in RULE_PATTERNS and r not in structural_rules
            ]
            if unknown:
                print(
                    "soi-lint: unknown rules: %s" % ", ".join(unknown),
                    file=sys.stderr,
                )
                return 2
            structural = [r for r in rules if r in structural_rules]
            rules = [r for r in rules if r in RULE_PATTERNS] or None
            if rules is None and structural:
                findings = []
            else:
                findings = run_text_rules(root, args.paths or None, rules)
        else:
            findings = run_text_rules(root, args.paths or None, None)
        # The structural audit covers the whole src/ tree; explicit-path
        # invocations are file-scoped by construction and skip it.
        if not args.paths and structural:
            layer_findings = run_layering_rules(root)
            findings = sorted(
                findings
                + [f for f in layer_findings if f[2] in structural]
            )

    if args.json:
        print(
            json.dumps(
                [
                    {"rule": rule, "file": rel, "line": line,
                     "message": message}
                    for rel, line, rule, message in findings
                ],
                indent=2,
                sort_keys=True,
            )
        )
    else:
        for rel, line, rule, message in findings:
            print("%s:%d: [%s] %s" % (rel, line, rule, message))
    if findings:
        print(
            "soi-lint: %d finding(s); see tools/soi_lint.py docstring "
            "for the rule rationale and suppression syntax" % len(findings),
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
