#!/usr/bin/env python3
"""Project-specific concurrency-discipline lint for the UTLB tree.

Clang's thread-safety analysis (src/sim/annotations.hpp, the
UTLB_THREAD_SAFETY=ON build) checks the lock-shaped half of the
concurrency discipline. This lint enforces the rules capability
annotations cannot express:

  seqlock-read-section   Between SeqCount::readBegin() and the
                         matching readRetry(), an optimistic reader
                         may only perform relaxed atomic loads
                         (loadRelaxed / atomic_ref relaxed): no
                         stores, no RMWs, no member writes, no
                         stronger memory orders, no unprotected
                         reads of the seqlock-paired fields
                         (valid/pid/vpn/pfn), and no plain-load
                         packed probes (probePacked<DirectLoads>
                         issues non-atomic loads). A function whose
                         body carries a
                         `// utlb-lint: seqlock-read-helper` marker
                         is held to the same purity rules over its
                         whole body: such helpers (e.g. the
                         RelaxedLoads policy in shared_cache.cpp)
                         run inside callers' read sections the
                         scanner cannot see across.

  mt-shard-discipline    Methods named `*MT` are the concurrent hot
                         path: statistics move only through the
                         caller's Shard (`sh.`), never the shared
                         stat counters (statXxx/statsGrp); the use
                         clock is touched only through atomic_ref;
                         recency stamps (`lastUse`) are written only
                         from nextStamp(sh) stamp blocks. A
                         `// utlb-lint: mt-shard-scope` marker holds
                         the rest of its enclosing brace block (a
                         function or class body) to the same rules:
                         the concurrent lock policy's hooks in
                         shared_cache.cpp carry it, since the
                         operation bodies that call them are shared
                         with the single-threaded policy.

  memory-order           src/ is relaxed/acquire/release only:
                         memory_order_seq_cst is banned (nothing in
                         the protocol needs it, and it hides fence
                         mistakes), `volatile` is banned (it is not
                         a synchronization primitive), and every
                         atomic operation — including wait() and the
                         compare_exchange pair — spells its memory
                         order explicitly (the seq_cst default is a
                         silent pessimization).

  scoped-guard           Every lock acquisition is scoped: no naked
                         .lock()/.unlock() outside the guard
                         implementations (sim/spinlock.hpp,
                         sim/mutex.hpp), no bare std::mutex or
                         std::condition_variable in src/ (sim::Mutex
                         keeps the acquisition visible to the
                         thread-safety analysis; a condvar's lock
                         handoff is invisible to it), and no
                         discarded try_lock().

  padded-lock-array      An array of locks (sim::Spinlock /
                         sim::Mutex: a C array, a `Lock[]` buffer,
                         or a std::array/vector/deque of them) must
                         pad each lock to its own cache line with
                         sim::CachePadded<T>. Unpadded, neighbouring
                         locks share a line and workers taking
                         different locks still false-share it.

The analysis is a comment/string-aware token scan, not a full
parse: rules are written so the real tree is clean and every
fixture in tests/lint/ is caught. False positives in new code can
be silenced line-by-line with `// utlb-lint: allow(<rule>)` and a
justification; see docs/checking.md.

Usage:
  concurrency_lint.py [--root DIR] [--compdb FILE | -p BUILDDIR]
  concurrency_lint.py [--force-src] FILE...
  concurrency_lint.py --self-test FIXTURE_DIR
  concurrency_lint.py --force-src --expect-findings FILE...

Exit status: 0 clean (or expectations met), 1 findings (or
expectations missed), 2 usage/environment error.
"""

import argparse
import glob
import json
import os
import re
import sys

SRC_ONLY_RULES = {"memory-order"}

# Guard implementations legitimately call the raw primitives, and the
# annotated wrapper legitimately owns a std::mutex.
GUARD_IMPL_FILES = {
    os.path.join("src", "sim", "spinlock.hpp"),
    os.path.join("src", "sim", "mutex.hpp"),
}

CONTROL_KEYWORDS = {
    "if", "for", "while", "switch", "catch", "return", "sizeof",
    "alignof", "decltype", "static_assert", "assert", "new", "delete",
}

ALLOW_RE = re.compile(r"utlb-lint:\s*allow\(([\w\-, ]+)\)")
HELPER_RE = re.compile(r"utlb-lint:\s*seqlock-read-helper\b")
SHARD_SCOPE_RE = re.compile(r"utlb-lint:\s*mt-shard-scope\b")
EXPECT_RE = re.compile(r"utlb-lint-expect:\s*([\w\-]+)")


class Finding:
    def __init__(self, path, line, rule, message):
        self.path = path
        self.line = line
        self.rule = rule
        self.message = message

    def __str__(self):
        return "%s:%d: [%s] %s" % (self.path, self.line, self.rule,
                                   self.message)


def strip_comments_and_strings(text):
    """Blank out comments and string/char literals, preserving line
    structure, and collect per-line lint directives from comments."""
    out = []
    allows = {}   # line (1-based) -> set of allowed rules
    expects = []  # rules named by utlb-lint-expect comments
    helpers = []  # lines carrying the seqlock-read-helper marker
    scopes = []   # lines carrying the mt-shard-scope marker
    i, n = 0, len(text)
    line = 1
    state = "code"  # code | line_comment | block_comment | dq | sq
    comment_buf = []
    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if state == "code":
            if c == "/" and nxt == "/":
                state = "line_comment"
                comment_buf = []
                i += 2
                continue
            if c == "/" and nxt == "*":
                state = "block_comment"
                comment_buf = []
                i += 2
                continue
            if c == '"':
                state = "dq"
                out.append(c)
                i += 1
                continue
            if c == "'":
                state = "sq"
                out.append(c)
                i += 1
                continue
            out.append(c)
        elif state in ("line_comment", "block_comment"):
            ended = False
            if state == "line_comment" and c == "\n":
                ended = True
            elif state == "block_comment" and c == "*" and nxt == "/":
                ended = True
                i += 1  # consume the '/'
            if ended or c == "\n":
                comment = "".join(comment_buf)
                m = ALLOW_RE.search(comment)
                if m:
                    allows.setdefault(line, set()).update(
                        r.strip() for r in m.group(1).split(","))
                expects.extend(EXPECT_RE.findall(comment))
                if HELPER_RE.search(comment):
                    helpers.append(line)
                if SHARD_SCOPE_RE.search(comment):
                    scopes.append(line)
                comment_buf = []
            if ended:
                state = "code"
                if c == "\n":
                    out.append("\n")
                i += 1
                if c == "\n":
                    line += 1
                continue
            if c == "\n":
                out.append("\n")
            else:
                comment_buf.append(c)
        elif state in ("dq", "sq"):
            if c == "\\":
                out.append("\\")
                i += 2
                continue
            if (state == "dq" and c == '"') or \
               (state == "sq" and c == "'"):
                state = "code"
                out.append(c)
            elif c == "\n":
                out.append("\n")  # unterminated; keep line count
                state = "code"
            else:
                out.append(" ")  # blank literal contents
        if c == "\n":
            line += 1
        i += 1
    # Flush a trailing line comment with no final newline.
    if state in ("line_comment", "block_comment") and comment_buf:
        comment = "".join(comment_buf)
        m = ALLOW_RE.search(comment)
        if m:
            allows.setdefault(line, set()).update(
                r.strip() for r in m.group(1).split(","))
        expects.extend(EXPECT_RE.findall(comment))
        if HELPER_RE.search(comment):
            helpers.append(line)
        if SHARD_SCOPE_RE.search(comment):
            scopes.append(line)
    return "".join(out), allows, expects, helpers, scopes


def rest_of_block(code, line):
    """The (1-based) lines from @line to the close of the brace block
    enclosing the start of that line."""
    lines = code.split("\n")
    depth = sum(l.count("{") - l.count("}") for l in lines[:line - 1])
    target = depth
    scope = set()
    for idx in range(line - 1, len(lines)):
        scope.add(idx + 1)
        for ch in lines[idx]:
            if ch == "{":
                depth += 1
            elif ch == "}":
                depth -= 1
                if depth < target:
                    return scope
    return scope


FUNC_NAME_RE = re.compile(r"\b([A-Za-z_]\w*)\s*\($")


def function_of_lines(code):
    """Map each (1-based) line to the name of the enclosing function
    definition, or None. Nested blocks (control flow, lambdas) inherit
    the enclosing function's name."""
    lines_func = {}
    stack = []  # entries: ("func", name) | ("other", None)
    sig = []
    line = 1
    func_depth_name = None  # innermost function name, if any

    def current_func():
        for kind, name in reversed(stack):
            if kind == "func":
                return name
        return None

    i, n = 0, len(code)
    while i < n:
        c = code[i]
        if c == "\n":
            lines_func[line] = current_func()
            line += 1
            sig.append(" ")
        elif c == "{":
            text = "".join(sig).strip()
            sig = []
            kind, name = "other", None
            if current_func() is not None:
                # Control block, lambda, or local scope: inherit.
                kind, name = "inherit", None
            elif text and not text.rstrip().endswith(("=", ",", "(")):
                # Candidate function definition: the first
                # identifier followed by '(' with nothing
                # parenthesized before it is the declarator name.
                m = re.search(r"\b([A-Za-z_]\w*)\s*\(", text)
                if m and "(" not in text[:m.start()] \
                        and m.group(1) not in CONTROL_KEYWORDS:
                    kind, name = "func", m.group(1)
            stack.append((kind, name))
        elif c == "}":
            if stack:
                stack.pop()
            sig = []
        elif c == ";":
            sig = []
        else:
            sig.append(c)
        i += 1
    lines_func[line] = current_func()
    return lines_func


def span_has_memory_order(lines, line_idx, col):
    """True if the call's argument list starting at lines[line_idx]
    (0-based) column `col` (position of the opening paren) names an
    explicit memory order. Scans up to 8 lines for the close paren."""
    depth = 0
    buf = []
    for k in range(line_idx, min(line_idx + 8, len(lines))):
        text = lines[k]
        start = col if k == line_idx else 0
        for j in range(start, len(text)):
            ch = text[j]
            buf.append(ch)
            if ch == "(":
                depth += 1
            elif ch == ")":
                depth -= 1
                if depth == 0:
                    return "memory_order_" in "".join(buf)
    return "memory_order_" in "".join(buf)


MEMBER_WRITE_RE = re.compile(
    r"[\w\)\]]+(?:\.|->)\w+\s*=(?![=])")
MEMBER_INCR_RE = re.compile(
    r"(?:\+\+|--)\s*[\w\)\]]+(?:\.|->)\w+"
    r"|[\w\)\]]+(?:\.|->)\w+\s*(?:\+\+|--)")
STOREISH_CALL_RE = re.compile(
    r"\b(?:storeRelaxed|writeBegin|writeEnd)\s*\("
    r"|(?:\.|->)\s*(?:store|exchange|fetch_add|fetch_sub|fetch_or"
    r"|fetch_and|fetch_xor|compare_exchange_\w+|test_and_set)\s*\(")
NONRELAXED_ORDER_RE = re.compile(
    r"memory_order_(?:acquire|release|acq_rel|seq_cst|consume)")
PROTECTED_READ_RE = re.compile(
    r"[\w\)\]]+(?:\.|->)(?:valid|pid|vpn|pfn|pidVpn)\b")
DIRECT_PROBE_RE = re.compile(r"\bprobePacked\s*<\s*DirectLoads\b")
READBEGIN_RE = re.compile(r"=\s*[\w\.\->\[\]]*[\w\]]\s*\.readBegin\s*\(")
READRETRY_RE = re.compile(r"(?:\.|->)readRetry\s*\(")

STAT_MEMBER_RE = re.compile(r"\b(?:stat[A-Z]\w*|statsGrp|statsPolicy)\b")
USECLOCK_RE = re.compile(r"\buseClock\b")
LASTUSE_WRITE_RE = re.compile(r"(?:\.|->)lastUse\s*=(?![=])([^;]*)")

ATOMIC_OP_RE = re.compile(
    r"(?:\.|->)\s*(load|store|exchange|fetch_add|fetch_sub|fetch_or"
    r"|fetch_and|fetch_xor|test_and_set|wait"
    r"|compare_exchange_weak|compare_exchange_strong)\s*(\()")
NAKED_LOCK_RE = re.compile(r"(?:\.|->)\s*(lock|unlock)\s*\(\s*\)")
STD_MUTEX_RE = re.compile(
    r"\bstd::(?:recursive_|shared_|timed_|recursive_timed_)?mutex\b")
STD_CONDVAR_RE = re.compile(r"\bstd::condition_variable(?:_any)?\b")
DISCARDED_TRYLOCK_RE = re.compile(
    r"^\s*[\w\.\->\(\)\[\]]*(?:\.|->)try_lock\s*\(\s*\)\s*;\s*$")
# A lock type directly followed by an array bound (`Spinlock[]`,
# `Mutex locks[8]`) or directly inside a sequence container. Wrapped
# in CachePadded<...> the type is followed by `>`, so it never matches.
LOCK_TYPE = r"\b(?:sim::)?(?:Spinlock|Mutex)\b"
UNPADDED_LOCK_ARRAY_RE = re.compile(
    LOCK_TYPE + r"\s*(?:\w+\s*)?\["
    r"|\b(?:std::)?(?:array|vector|deque)\s*<\s*" + LOCK_TYPE)


def lint_file(path, rel, text, force_src=False):
    code, allows, _, helper_lines, scope_lines = \
        strip_comments_and_strings(text)
    lines = code.split("\n")
    func_of = function_of_lines(code)
    # A seqlock-read-helper marker subjects the whole enclosing
    # function to read-section purity (the helper runs inside a
    # caller's read section this scanner cannot track across). The
    # scope is the contiguous run of lines mapped to the marker's
    # function -- by span, not by name, so an unmarked function that
    # happens to share the name (DirectLoads vs RelaxedLoads policy
    # methods) is not swept in. A marker outside any recognized
    # function covers its own line.
    helper_scope = set()
    nlines = len(lines)
    for l in helper_lines:
        f = func_of.get(l)
        if f is None:
            helper_scope.add(l)
            continue
        lo = l
        while lo > 1 and func_of.get(lo - 1) == f:
            lo -= 1
        hi = l
        while hi < nlines and func_of.get(hi + 1) == f:
            hi += 1
        helper_scope.update(range(lo, hi + 1))
    shard_scope = set()
    for l in scope_lines:
        shard_scope |= rest_of_block(code, l)
    in_src = force_src or rel.replace(os.sep, "/").startswith("src/")
    is_guard_impl = rel in GUARD_IMPL_FILES and not force_src
    findings = []

    def report(lineno, rule, message):
        if rule in allows.get(lineno, set()):
            return
        if rule in SRC_ONLY_RULES and not in_src:
            return
        findings.append(Finding(rel, lineno, rule, message))

    # --- seqlock-read-section ------------------------------------
    in_section = False
    section_func = None
    for idx, text_line in enumerate(lines):
        lineno = idx + 1
        func = func_of.get(lineno)
        if in_section and func != section_func:
            in_section = False
        if not in_section:
            if READBEGIN_RE.search(text_line):
                in_section = True
                section_func = func
                continue
            if lineno not in helper_scope:
                continue
        if in_section and READRETRY_RE.search(text_line):
            in_section = False
            continue
        if DIRECT_PROBE_RE.search(text_line):
            report(lineno, "seqlock-read-section",
                   "plain-load packed probe inside a seqlock read "
                   "section; DirectLoads issues non-atomic "
                   "loads -- optimistic readers go "
                   "through RelaxedLoads")
        if STOREISH_CALL_RE.search(text_line):
            report(lineno, "seqlock-read-section",
                   "store/RMW inside an optimistic seqlock read "
                   "section; writers must hold the stripe lock and "
                   "bump the version")
        if NONRELAXED_ORDER_RE.search(text_line):
            report(lineno, "seqlock-read-section",
                   "non-relaxed memory order inside a seqlock read "
                   "section; the version counter provides the "
                   "ordering, data loads stay relaxed")
        if MEMBER_WRITE_RE.search(text_line) \
                or MEMBER_INCR_RE.search(text_line):
            report(lineno, "seqlock-read-section",
                   "member write inside a seqlock read section; an "
                   "optimistic reader may not mutate shared state")
        elif PROTECTED_READ_RE.search(text_line) \
                and "loadRelaxed" not in text_line \
                and "atomic_ref" not in text_line:
            report(lineno, "seqlock-read-section",
                   "unprotected read of a seqlock-paired field; go "
                   "through loadRelaxed()/atomic_ref or the racing "
                   "access is undefined")

    # --- mt-shard-discipline -------------------------------------
    for idx, text_line in enumerate(lines):
        lineno = idx + 1
        func = func_of.get(lineno)
        if not (func and func.endswith("MT")) \
                and lineno not in shard_scope:
            continue
        if STAT_MEMBER_RE.search(text_line):
            report(lineno, "mt-shard-discipline",
                   "shared stat counter touched on the concurrent "
                   "hot path (*MT method or mt-shard-scope block); "
                   "accumulate into the caller's Shard and fold "
                   "with absorbShard()")
        if USECLOCK_RE.search(text_line) \
                and "atomic_ref" not in text_line:
            report(lineno, "mt-shard-discipline",
                   "direct use-clock access on the concurrent hot "
                   "path (*MT method or mt-shard-scope block); stamps "
                   "come from nextStamp(sh) blocks carved off the "
                   "clock with atomic_ref")
        m = LASTUSE_WRITE_RE.search(text_line)
        if m and "nextStamp(" not in m.group(1):
            report(lineno, "mt-shard-discipline",
                   "recency stamp written outside the shard stamp "
                   "block; use nextStamp(sh) under the stripe lock")

    # --- memory-order (src/ only) --------------------------------
    for idx, text_line in enumerate(lines):
        lineno = idx + 1
        if "memory_order_seq_cst" in text_line:
            report(lineno, "memory-order",
                   "memory_order_seq_cst is banned in src/; the "
                   "protocols here are relaxed/acquire/release by "
                   "design (docs/checking.md)")
        if re.search(r"\bvolatile\b", text_line):
            report(lineno, "memory-order",
                   "volatile is not a synchronization primitive; "
                   "use std::atomic/atomic_ref with an explicit "
                   "order")
        for m in ATOMIC_OP_RE.finditer(text_line):
            if not span_has_memory_order(lines, idx, m.start(2)):
                report(lineno, "memory-order",
                       "atomic %s() without an explicit memory "
                       "order; the seq_cst default is banned, spell "
                       "the order" % m.group(1))

    # --- scoped-guard --------------------------------------------
    for idx, text_line in enumerate(lines):
        lineno = idx + 1
        if not is_guard_impl and NAKED_LOCK_RE.search(text_line):
            report(lineno, "scoped-guard",
                   "naked lock()/unlock(); use SpinGuard/LockGuard "
                   "so every acquisition is scope-bound and visible "
                   "to the thread-safety analysis")
        if in_src and not is_guard_impl \
                and STD_MUTEX_RE.search(text_line):
            report(lineno, "scoped-guard",
                   "bare std::mutex in src/; use sim::Mutex so "
                   "acquisitions are visible to the thread-safety "
                   "analysis")
        if in_src and not is_guard_impl \
                and STD_CONDVAR_RE.search(text_line):
            report(lineno, "scoped-guard",
                   "bare std::condition_variable in src/; its lock "
                   "handoff is invisible to the thread-safety "
                   "analysis (nothing in src/ sleeps on a condition: "
                   "model the wait in modeled time instead)")
        if DISCARDED_TRYLOCK_RE.match(text_line):
            report(lineno, "scoped-guard",
                   "try_lock() result discarded; the caller cannot "
                   "know whether it holds the lock")

    # --- padded-lock-array ---------------------------------------
    for idx, text_line in enumerate(lines):
        lineno = idx + 1
        if UNPADDED_LOCK_ARRAY_RE.search(text_line):
            report(lineno, "padded-lock-array",
                   "array of unpadded locks; neighbouring locks share "
                   "a cache line, so workers taking different locks "
                   "still contend on it -- wrap the element in "
                   "sim::CachePadded<T>")

    return findings


def collect_tree_files(root, compdb_path):
    files = set()
    if compdb_path:
        try:
            with open(compdb_path) as f:
                entries = json.load(f)
        except (OSError, ValueError) as e:
            print("concurrency_lint: cannot read %s: %s"
                  % (compdb_path, e), file=sys.stderr)
            sys.exit(2)
        for entry in entries:
            p = entry.get("file", "")
            if not os.path.isabs(p):
                p = os.path.join(entry.get("directory", root), p)
            p = os.path.realpath(p)
            if p.startswith(os.path.realpath(root) + os.sep):
                files.add(p)
    else:
        for pat in ("src/**/*.cpp", "tests/*.cpp", "bench/*.cpp",
                    "examples/*.cpp"):
            files.update(
                os.path.realpath(p)
                for p in glob.glob(os.path.join(root, pat),
                                   recursive=True))
    # Headers never appear in a compilation database; always glob.
    for pat in ("src/**/*.hpp", "bench/*.hpp", "tests/*.hpp"):
        files.update(
            os.path.realpath(p)
            for p in glob.glob(os.path.join(root, pat),
                               recursive=True))
    # The deliberately-bad fixtures and must-not-compile cases are
    # not part of the tree contract.
    skip = (os.path.join("tests", "lint") + os.sep,
            os.path.join("tests", "negative") + os.sep)
    rootreal = os.path.realpath(root)
    out = []
    for p in sorted(files):
        rel = os.path.relpath(p, rootreal)
        if any(rel.startswith(s) for s in skip):
            continue
        out.append((p, rel))
    return out


def run_self_test(fixture_dir):
    fixtures = sorted(glob.glob(os.path.join(fixture_dir, "*.cpp"))
                      + glob.glob(os.path.join(fixture_dir, "*.hpp")))
    if not fixtures:
        print("concurrency_lint: no fixtures in %s" % fixture_dir,
              file=sys.stderr)
        return 2
    failed = False
    for path in fixtures:
        with open(path) as f:
            text = f.read()
        _, _, expects, _, _ = strip_comments_and_strings(text)
        rel = os.path.basename(path)
        if not expects:
            print("FAIL %s: fixture declares no utlb-lint-expect "
                  "rules" % rel)
            failed = True
            continue
        findings = lint_file(path, rel, text, force_src=True)
        got_rules = {f.rule for f in findings}
        missing = [r for r in expects if r not in got_rules]
        if missing:
            print("FAIL %s: expected rule(s) not reported: %s"
                  % (rel, ", ".join(missing)))
            for f in findings:
                print("  got: %s" % f)
            failed = True
        else:
            print("ok   %s: %s (%d finding%s)"
                  % (rel, ", ".join(sorted(set(expects))),
                     len(findings), "s" if len(findings) != 1 else ""))
    return 1 if failed else 0


def main():
    ap = argparse.ArgumentParser(
        description="UTLB concurrency-discipline lint")
    ap.add_argument("files", nargs="*",
                    help="explicit files to lint (default: the tree)")
    ap.add_argument("--root", default=None,
                    help="repository root (default: the script's "
                         "parent directory)")
    ap.add_argument("-p", "--build", default=None,
                    help="build dir containing compile_commands.json")
    ap.add_argument("--compdb", default=None,
                    help="explicit compile_commands.json path")
    ap.add_argument("--force-src", action="store_true",
                    help="apply src/-only rules to every given file")
    ap.add_argument("--self-test", metavar="DIR", default=None,
                    help="verify every fixture in DIR is flagged")
    ap.add_argument("--expect-findings", action="store_true",
                    help="invert: exit 0 iff the given files produce "
                         "at least one finding each")
    args = ap.parse_args()

    if args.self_test:
        sys.exit(run_self_test(args.self_test))

    root = args.root or os.path.dirname(
        os.path.dirname(os.path.realpath(__file__)))

    if args.files:
        targets = [(os.path.realpath(p),
                    os.path.relpath(os.path.realpath(p), root))
                   for p in args.files]
    else:
        compdb = args.compdb
        if args.build and not compdb:
            compdb = os.path.join(args.build, "compile_commands.json")
        if compdb and not os.path.exists(compdb):
            print("concurrency_lint: %s not found (configure with "
                  "CMAKE_EXPORT_COMPILE_COMMANDS=ON); falling back "
                  "to a source-tree walk" % compdb, file=sys.stderr)
            compdb = None
        targets = collect_tree_files(root, compdb)

    all_findings = []
    per_file_findings = {}
    for path, rel in targets:
        try:
            with open(path) as f:
                text = f.read()
        except OSError as e:
            print("concurrency_lint: cannot read %s: %s" % (path, e),
                  file=sys.stderr)
            sys.exit(2)
        found = lint_file(path, rel, text, force_src=args.force_src)
        per_file_findings[rel] = found
        all_findings.extend(found)

    if args.expect_findings:
        ok = True
        for rel, found in per_file_findings.items():
            if found:
                print("ok   %s: %d finding(s)" % (rel, len(found)))
            else:
                print("FAIL %s: expected findings, got none" % rel)
                ok = False
        sys.exit(0 if ok else 1)

    for f in all_findings:
        print(f)
    if all_findings:
        print("\nconcurrency_lint: %d finding(s) in %d file(s)"
              % (len(all_findings),
                 len({f.path for f in all_findings})))
        sys.exit(1)
    print("concurrency_lint: %d file(s) clean" % len(targets))
    sys.exit(0)


if __name__ == "__main__":
    main()
