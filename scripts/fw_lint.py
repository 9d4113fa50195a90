#!/usr/bin/env python3
"""fw_lint: the project's determinism & concurrency-discipline linter.

The engine's north-star invariant (ROADMAP.md) is bitwise-identical
results across shard counts, disorder, churn, and live resizes. That
invariant dies quietly: one iteration over an unordered container in a
result-emit path, one wall-clock read in a replan, one locale-dependent
parse in the checkpoint codec, and outputs drift between runs or hosts
in ways no unit test reliably catches. fw_lint bans those constructs at
the source level, where they are cheap to see (DESIGN.md §12 documents
each rule's motivating invariant).

Rules (all in src/ unless noted):

  unordered-container   Iterating / serializing std::unordered_map or
                        std::unordered_set in order-sensitive paths —
                        result emit, checkpoint serialization, shard
                        merge/split. Bucket order is
                        implementation-defined, so anything ordered that
                        flows out of one is nondeterministic. Scoped to
                        the order-sensitive files (ORDER_SENSITIVE).
  raw-random            rand(), srand(), std::random_device outside
                        common/rng.h. All randomness must flow through
                        the seeded project RNG so runs replay.
  wall-clock            time(), std::chrono::system_clock, gettimeofday,
                        localtime/gmtime. Wall time differs per run and
                        host; monotonic duration measurement goes
                        through fw::MonotonicNanos (common/clock.h).
  monotonic-clock       std::chrono::steady_clock (or
                        high_resolution_clock, or clock_gettime with
                        CLOCK_MONOTONIC) outside common/clock.h. Even
                        duration-only clocks must flow through the one
                        audited shim: a single call site is what keeps
                        "no timing feeds results" checkable.
  locale-dependent      setlocale, std::locale, atof/strtod/strtof,
                        sscanf/scanf: numeric parsing that honors the
                        global locale reads "3.14" as 3 under LC_ALL=de.
                        Persisted bytes carry doubles as IEEE-754 bit
                        patterns through the binary codec
                        (common/codec.h), which never formats or parses
                        text; strtoull base-10 stays legal elsewhere.
  text-codec            <sstream> / std::[io]stringstream in
                        persisted-format code (exec/checkpoint*,
                        agg/aggregate.cc, durability/,
                        runtime/shard_checkpoint*). Every persisted byte
                        goes through the one bounds-checked binary codec
                        (common/codec.h); a second, text codec would need
                        its own versioning, bounds checks and fuzzing.
  raw-mutex             std::mutex / std::lock_guard / std::scoped_lock /
                        std::unique_lock outside common/mutex.h. Raw
                        mutexes are invisible to Thread Safety Analysis;
                        fw::Mutex / fw::MutexLock carry the annotations.
  raw-persistence       fopen/freopen or std::*fstream outside
                        src/durability/. Durable state has exactly one
                        home: the CRC32C-framed changelog + snapshot
                        store (DESIGN.md §16). A stray ofstream writing
                        engine state bypasses framing, fsync policy, and
                        torn-tail detection, so recovery can neither
                        validate nor replay it.
  agg-descriptor        An AggregateFunction descriptor literal that
                        omits `.overlap_merge_safe` or
                        `.merge_order_sensitive`. Both are sharing-
                        correctness declarations (Theorem 6 overlap
                        safety; merge reassociation legality) — an
                        unstated default is a wrong answer waiting for
                        the first "covered by" rewrite or FlatFAT
                        combine, so every descriptor must declare them
                        explicitly.

Suppressions: append `// fw-lint: allow(<rule>)` to the flagged line, or
put it alone on the line directly above. Comments and string literals
are stripped before matching, so prose mentioning rand() is fine.

Usage:
  fw_lint.py [--root DIR] [paths...]   lint src/ (default) or paths
  fw_lint.py --selftest tests/lint     run the fixture suite: every
                                       file under bad/ must raise
                                       exactly its expected rule (the
                                       filename stem, underscores as
                                       dashes, up to an optional __n
                                       variant suffix); every file
                                       under good/ must be clean.

Exit status: 0 clean, 1 findings (or fixture failures), 2 usage error.
"""

import argparse
import pathlib
import re
import sys

# Files whose output order is observable: result emission, checkpoint
# serialization, and shard merge/split. The unordered-container rule is
# scoped to these (an unordered_map used as a pure point-lookup index
# elsewhere is fine — determinism only breaks when bucket order leaks).
ORDER_SENSITIVE = (
    "exec/sink",
    "exec/checkpoint",
    "exec/migrate",
    "exec/merge_split",
    "runtime/sharded_executor",
    "agg/aggregate",
)

# Files that define a persisted byte format (checkpoints, AggState
# records, the durability files). The text-codec rule is scoped to these.
PERSISTED_FORMAT = (
    "exec/checkpoint",
    "agg/aggregate.cc",
    "durability/",
    "runtime/shard_checkpoint",
)

SUPPRESS_RE = re.compile(r"//\s*fw-lint:\s*allow\(([a-z-]+(?:\s*,\s*[a-z-]+)*)\)")

# Each rule: (name, regex over comment/string-stripped code, message,
# predicate over the repo-relative posix path).


def _in_order_sensitive(path):
    return any(key in path for key in ORDER_SENSITIVE)


def _outside(allowed):
    return lambda path: path != allowed


def _outside_dir(allowed_prefix):
    return lambda path: not path.startswith(allowed_prefix)


def _inside(prefixes):
    return lambda path: path.startswith(prefixes)


RULES = [
    (
        "unordered-container",
        re.compile(r"\bstd::unordered_(?:map|set|multimap|multiset)\b"),
        "unordered container in an order-sensitive path (result emit / "
        "checkpoint / merge-split): bucket order is implementation-defined "
        "and would leak into observable output; use std::map/std::set or "
        "sort before emitting",
        _in_order_sensitive,
    ),
    (
        "raw-random",
        re.compile(r"(?:\b(?:std::)?s?rand\s*\(|\bstd::random_device\b)"),
        "raw randomness source: all randomness must flow through the seeded "
        "RNG in common/rng.h so runs replay bit-for-bit",
        _outside("common/rng.h"),
    ),
    (
        "wall-clock",
        re.compile(
            r"(?:\bstd::chrono::system_clock\b|\b(?:std::)?time\s*\(|"
            r"\bgettimeofday\s*\(|\b(?:std::)?(?:localtime|gmtime)(?:_r)?\s*\(|"
            r"\bclock_gettime\s*\(\s*CLOCK_REALTIME)"
        ),
        "wall-clock read: wall time differs per run and host, so nothing "
        "observable may depend on it; measure durations with "
        "fw::MonotonicNanos / fw::MonotonicTimer (common/clock.h)",
        lambda path: True,
    ),
    (
        "monotonic-clock",
        re.compile(
            r"(?:\bstd::chrono::(?:steady_clock|high_resolution_clock)\b|"
            r"\bclock_gettime\s*\(\s*CLOCK_MONOTONIC)"
        ),
        "direct monotonic-clock read: all duration measurement must flow "
        "through fw::MonotonicNanos / fw::MonotonicTimer (common/clock.h) — "
        "one audited call site keeps 'no timing feeds results' checkable",
        _outside("common/clock.h"),
    ),
    (
        "locale-dependent",
        re.compile(
            r"(?:\b(?:std::)?setlocale\s*\(|\bstd::locale\b|"
            r"\b(?:std::)?(?:atof|strtod|strtof|strtold)\s*\(|"
            r"\b(?:std::)?s?scanf\s*\()"
        ),
        "locale-dependent parsing/formatting: the global locale changes "
        "what '3.14' means, so checkpoints would not round-trip across "
        "hosts; parse integers with strtoull base 10 and doubles as "
        "IEEE-754 bit patterns (common/codec.h)",
        lambda path: True,
    ),
    (
        "raw-mutex",
        re.compile(
            r"(?:\bstd::(?:mutex|shared_mutex|recursive_mutex|timed_mutex)\b|"
            r"\bstd::(?:lock_guard|scoped_lock|unique_lock|shared_lock)\b|"
            r"#\s*include\s*<(?:mutex|shared_mutex)>)"
        ),
        "raw standard mutex: invisible to Clang Thread Safety Analysis; "
        "use fw::Mutex / fw::MutexLock (common/mutex.h), which carry the "
        "annotations",
        _outside("common/mutex.h"),
    ),
    (
        "raw-persistence",
        re.compile(
            r"(?:\bstd::(?:o|i)?fstream\b|\b(?:std::)?f(?:re)?open\s*\(|"
            r"#\s*include\s*<fstream>)"
        ),
        "raw file persistence: durable state has exactly one home — the "
        "CRC32C-framed changelog + snapshot store (src/durability/, "
        "DESIGN.md §16); an unframed write bypasses fsync policy and "
        "torn-tail detection, so recovery can neither validate nor "
        "replay it",
        _outside_dir("durability/"),
    ),
    (
        "text-codec",
        re.compile(r"(?:#\s*include\s*<sstream>|\bstd::(?:i|o)?stringstream\b)"),
        "iostream text codec in persisted-format code: every persisted "
        "byte goes through the one bounds-checked binary codec "
        "(common/codec.h ByteWriter/ByteReader); a second, text format "
        "would need its own versioning, bounds checks and fuzzing",
        _inside(PERSISTED_FORMAT),
    ),
]

# agg-descriptor is structural (brace matching), handled separately from
# the line-regex rules above.
AGG_DESCRIPTOR_RULE = "agg-descriptor"
ALL_RULES = [name for name, *_ in RULES] + [AGG_DESCRIPTOR_RULE]


def strip_comments_and_strings(text):
    """Blanks out comments and string/char literals, preserving line
    structure (and the fw-lint suppression comments, which the caller
    reads from the raw source). Keeps quotes' positions as spaces so
    column-free line matching stays aligned."""
    out = []
    i, n = 0, len(text)
    state = "code"  # code | line_comment | block_comment | string | char | raw_string
    raw_delim = ""
    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if state == "code":
            if c == "/" and nxt == "/":
                state = "line_comment"
                out.append("  ")
                i += 2
            elif c == "/" and nxt == "*":
                state = "block_comment"
                out.append("  ")
                i += 2
            elif c == '"':
                m = re.match(r'R"([^()\\ ]*)\(', text[i - 1 : i + 18]) if i and text[i - 1] == "R" else None
                if m:
                    state = "raw_string"
                    raw_delim = ")" + m.group(1) + '"'
                    out.append(" " * (len(m.group(1)) + 2))
                    i += len(m.group(1)) + 2
                else:
                    state = "string"
                    out.append(" ")
                    i += 1
            elif c == "'":
                state = "char"
                out.append(" ")
                i += 1
            else:
                out.append(c)
                i += 1
        elif state == "line_comment":
            if c == "\n":
                state = "code"
                out.append(c)
            else:
                out.append(" ")
            i += 1
        elif state == "block_comment":
            if c == "*" and nxt == "/":
                state = "code"
                out.append("  ")
                i += 2
            else:
                out.append(c if c == "\n" else " ")
                i += 1
        elif state == "string":
            if c == "\\":
                out.append("  ")
                i += 2
            elif c == '"':
                state = "code"
                out.append(" ")
                i += 1
            else:
                out.append(c if c == "\n" else " ")
                i += 1
        elif state == "char":
            if c == "\\":
                out.append("  ")
                i += 2
            elif c == "'":
                state = "code"
                out.append(" ")
                i += 1
            else:
                out.append(c if c == "\n" else " ")
                i += 1
        elif state == "raw_string":
            if text.startswith(raw_delim, i):
                state = "code"
                out.append(" " * len(raw_delim))
                i += len(raw_delim)
            else:
                out.append(c if c == "\n" else " ")
                i += 1
    return "".join(out)


def suppressions(raw_lines):
    """Maps 1-based line number -> set of allowed rule names, honoring
    same-line and directly-preceding-line `// fw-lint: allow(rule)`."""
    allowed = {}
    for lineno, line in enumerate(raw_lines, 1):
        m = SUPPRESS_RE.search(line)
        if not m:
            continue
        rules = {r.strip() for r in m.group(1).split(",")}
        allowed.setdefault(lineno, set()).update(rules)
        # A standalone suppression comment covers the next line too.
        if line.strip().startswith("//"):
            allowed.setdefault(lineno + 1, set()).update(rules)
    return allowed


def find_descriptor_findings(stripped, relpath):
    """agg-descriptor: every AggregateFunction descriptor literal — a
    braced initializer containing `.name =` and a data-path operation
    (`.accumulate =` or `.holistic_finalize =`) — must explicitly
    declare `.overlap_merge_safe` and `.merge_order_sensitive`."""
    findings = []
    for m in re.finditer(r"\{", stripped):
        start = m.start()
        depth = 0
        end = -1
        for i in range(start, len(stripped)):
            if stripped[i] == "{":
                depth += 1
            elif stripped[i] == "}":
                depth -= 1
                if depth == 0:
                    end = i
                    break
        if end < 0:
            continue
        body = stripped[start : end + 1]
        inner = body[1:-1]
        # Only inspect blocks that look like descriptor literals: a
        # *designated* initializer (`.field =` with nothing identifier-
        # like before the dot — `fn.name =` is a member assignment, and
        # `==` is a comparison) naming both a name and an operation.
        def designates(field):
            return re.search(r"(?<![\w)\]])\.%s\s*=(?!=)" % field, inner)

        if not designates("name"):
            continue
        if not designates("accumulate") and not designates("holistic_finalize"):
            continue
        missing = [
            field
            for field in ("overlap_merge_safe", "merge_order_sensitive")
            if not designates(field)
        ]
        if not missing:
            continue
        lineno = stripped.count("\n", 0, start) + 1
        findings.append(
            (
                lineno,
                AGG_DESCRIPTOR_RULE,
                "AggregateFunction descriptor omits explicit .%s — Theorem-6 "
                "overlap safety and merge order sensitivity are sharing-"
                "correctness declarations and must never default silently"
                % " / .".join(missing),
            )
        )
    return findings


def lint_file(path, root):
    try:
        text = path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as err:
        return [(0, "io", str(err))]
    relpath = path.relative_to(root).as_posix() if root in path.parents or path == root else path.as_posix()
    # Normalize away a leading src/ so rule scopes read "common/rng.h".
    scoped = re.sub(r"^src/", "", relpath)
    raw_lines = text.splitlines()
    # Lint fixtures (tests/lint/) exercise path-scoped rules from outside
    # the scoped tree; an explicit directive supplies the pretend path.
    if raw_lines:
        m = re.match(r"//\s*fw-lint-fixture-path:\s*(\S+)", raw_lines[0])
        if m:
            scoped = m.group(1)
    stripped = strip_comments_and_strings(text)
    stripped_lines = stripped.splitlines()
    allowed = suppressions(raw_lines)

    findings = []
    for name, pattern, message, applies in RULES:
        if not applies(scoped):
            continue
        for lineno, line in enumerate(stripped_lines, 1):
            if pattern.search(line):
                findings.append((lineno, name, message))
    findings.extend(find_descriptor_findings(stripped, scoped))

    return [
        (lineno, name, message)
        for lineno, name, message in findings
        if name not in allowed.get(lineno, set())
    ]


def iter_sources(paths):
    exts = {".h", ".hpp", ".hh", ".cc", ".cpp", ".cxx"}
    for p in paths:
        if p.is_file():
            yield p
        elif p.is_dir():
            yield from sorted(
                q for q in p.rglob("*") if q.is_file() and q.suffix in exts
            )


def run_lint(root, targets):
    total = 0
    for path in iter_sources(targets):
        for lineno, name, message in lint_file(path, root):
            rel = path.relative_to(root) if root in path.parents else path
            print("%s:%d: [%s] %s" % (rel, lineno, name, message))
            total += 1
    if total:
        print("fw_lint: %d finding(s)" % total)
        return 1
    return 0


def run_selftest(root, fixture_dir):
    """Every fixture under bad/ must raise exactly the rule its filename
    names (stem with underscores as dashes, optional trailing __variant);
    every fixture under good/ must produce zero findings."""
    bad_dir = fixture_dir / "bad"
    good_dir = fixture_dir / "good"
    failures = []
    checked = 0

    bad = sorted(iter_sources([bad_dir])) if bad_dir.is_dir() else []
    good = sorted(iter_sources([good_dir])) if good_dir.is_dir() else []
    if not bad or not good:
        print("fw_lint --selftest: no fixtures under %s" % fixture_dir)
        return 2

    for path in bad:
        checked += 1
        expected = path.stem.split("__")[0].replace("_", "-")
        if expected not in ALL_RULES:
            failures.append("%s: fixture names unknown rule '%s'" % (path, expected))
            continue
        hits = {name for _, name, _ in lint_file(path, root)}
        if expected not in hits:
            failures.append(
                "%s: expected rule '%s' was NOT flagged (got: %s)"
                % (path, expected, ", ".join(sorted(hits)) or "nothing")
            )
    for path in good:
        checked += 1
        findings = lint_file(path, root)
        if findings:
            failures.append(
                "%s: expected clean, got: %s"
                % (path, "; ".join("[%s] line %d" % (n, l) for l, n, _ in findings))
            )

    if failures:
        for f in failures:
            print("fw_lint --selftest FAIL: %s" % f)
        print("fw_lint --selftest: %d/%d fixtures failed" % (len(failures), checked))
        return 1
    print("fw_lint --selftest: %d fixtures OK (%d bad, %d good)" % (checked, len(bad), len(good)))
    return 0


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", default=None, help="repo root (default: the script's parent's parent)")
    parser.add_argument("--selftest", metavar="FIXTURE_DIR", default=None, help="run the lint fixture suite instead of linting")
    parser.add_argument("paths", nargs="*", help="files or directories to lint (default: <root>/src)")
    opts = parser.parse_args(argv)

    root = pathlib.Path(opts.root).resolve() if opts.root else pathlib.Path(__file__).resolve().parent.parent

    if opts.selftest:
        return run_selftest(root, pathlib.Path(opts.selftest).resolve())

    targets = [pathlib.Path(p).resolve() for p in opts.paths] or [root / "src"]
    for t in targets:
        if not t.exists():
            print("fw_lint: no such path: %s" % t)
            return 2
    return run_lint(root, targets)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
