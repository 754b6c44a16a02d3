#!/usr/bin/env python3
"""Determinism invariant lint.

The system's central contract: every grow produces byte-identical trees —
across thread counts (PR 2), across failure/recovery paths (PR 4/5/7/8),
and across repeat runs. The enemies of that contract are unseeded
randomness, wall-clock input, and iteration order that depends on hashing
or addresses. This checker bans them at the source level in src/:

  banned-call       rand() / srand() / time() / clock() / getpid-seeded
                    tricks, and std::random_device — unseeded or
                    wall-clock-dependent sources. Seeded engines
                    (std::mt19937 et al. with an explicit seed) are the
                    sanctioned alternative and are not flagged.
  unordered-iter    range-for (or .begin() iteration) over a
                    std::unordered_map/set that feeds an order-sensitive
                    sink in the same function: CC merge, row/tree encode,
                    serialization, file writes. Hash iteration order is
                    unspecified and libstdc++'s changes with load factor,
                    so any such loop silently breaks byte-identity.
  address-keyed     std::map/std::set keyed on a raw pointer — iteration
                    order is allocation order, i.e. nondeterministic
                    across runs.

Waivers — in the enclosing function body (or the declaration's line for
address-keyed members):

    // determinism: seeded(<sym>)            the named seed makes the
                                             randomness reproducible
    // determinism: order-insensitive(<why>) the consumer is commutative
                                             or sorts before use

Exit status: 0 clean, 1 violations, 2 internal error.
"""

import os
import re
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from lintlib import (  # noqa: E402
    Injection,
    SourceFile,
    iter_source_files,
    make_parser,
    print_violations,
    run_self_test,
    waiver_regex,
)

DEFAULT_SUBDIRS = ("src",)

BANNED_RE = re.compile(
    r"(?:\bstd\s*::\s*)?\b(rand|srand|drand48|time|clock|gettimeofday)"
    r"\s*\("
    r"|\b(std\s*::\s*random_device)\b"
)
UNORDERED_DECL_RE = re.compile(
    r"\bstd\s*::\s*(unordered_(?:map|set|multimap|multiset))\s*<"
)
# `std::map<T*, ...>` / `std::set<T*>` — the key type ends in `*`.
ADDRESS_KEYED_RE = re.compile(
    r"\bstd\s*::\s*(map|set|multimap|multiset)\s*<\s*(?:const\s+)?"
    r"[A-Za-z_][\w:]*(?:\s*<[^<>]*>)?\s*\*"
)
RANGE_FOR_RE = re.compile(r"\bfor\s*\(\s*[^;()]*?:\s*(\w+)\s*\)")
BEGIN_ITER_RE = re.compile(r"\b(\w+)\s*(?:\.|->)\s*c?begin\s*\(")
SINK_RE = re.compile(
    r"(?:\.|->)(?:Merge|AddRows?|AddDifference|Encode|EncodeInto|"
    r"Serialize\w*|Write\w*|Append)\s*\("
    r"|\bfwrite\s*\("
)
SINK_FUNC_NAME_RE = re.compile(
    r"(Merge|Write|Save|Serialize|Export|Dump|Flush|Finish)", re.IGNORECASE
)
WAIVER_RE = waiver_regex("determinism", ["seeded", "order-insensitive"])


def match_angle(clean, open_angle):
    """Offset just past the `>` matching clean[open_angle] == '<'."""
    depth = 0
    i = open_angle
    n = len(clean)
    while i < n:
        if clean[i] == "<":
            depth += 1
        elif clean[i] == ">":
            depth -= 1
            if depth == 0:
                return i + 1
        i += 1
    return n


def unordered_variables(clean):
    """Names declared (anywhere in the file: members or locals) with a
    std::unordered_* type."""
    names = set()
    for m in UNORDERED_DECL_RE.finditer(clean):
        open_angle = clean.find("<", m.start())
        after = match_angle(clean, open_angle)
        tail = clean[after : after + 120]
        var = re.match(r"\s*[*&]?\s*([A-Za-z_]\w*)\s*[;={(,)]", tail)
        if var:
            names.add(var.group(1))
    return names


def check_file(path):
    sf = SourceFile(path)
    violations = []
    unordered = unordered_variables(sf.clean)

    for name, body_start, body_end in sf.functions:
        body = sf.clean[body_start:body_end]
        comments = sf.comments[body_start:body_end]
        waived = {kind for kind, _ in
                  ((m.group(1), m.group(2))
                   for m in WAIVER_RE.finditer(comments))}

        for m in BANNED_RE.finditer(body):
            if "seeded" in waived:
                continue
            call = (m.group(1) or "std::random_device")
            violations.append(
                (path, sf.line_of(body_start + m.start()), name,
                 "banned-call", call))

        sink_here = bool(SINK_RE.search(body)) or bool(
            SINK_FUNC_NAME_RE.search(name))
        if sink_here and "order-insensitive" not in waived:
            iterated = set(RANGE_FOR_RE.findall(body)) | set(
                BEGIN_ITER_RE.findall(body))
            for var in sorted(iterated & unordered):
                # Report at the first iteration site of this variable.
                site = RANGE_FOR_RE.search(body)
                offset = body_start + (site.start() if site else 0)
                violations.append(
                    (path, sf.line_of(offset), name, "unordered-iter", var))

    for m in ADDRESS_KEYED_RE.finditer(sf.clean):
        line = sf.line_of(m.start())
        line_start = sf.text.rfind("\n", 0, m.start()) + 1
        line_end = sf.comments.find("\n", m.start())
        if line_end == -1:
            line_end = len(sf.comments)
        if WAIVER_RE.search(sf.comments[line_start:line_end]):
            continue
        enclosing = sf.enclosing_function(m.start())
        func = enclosing[0] if enclosing else "<file-scope>"
        violations.append((path, line, func, "address-keyed", m.group(0)))
    return violations


def self_test(root):
    cc_table = os.path.join(root, "src", "mining", "cc_table.cc")
    cases = [
        Injection(
            cc_table,
            "\nnamespace sqlclass {\n"
            "int UnseededRandForLintSelfTest() {\n"
            "  return rand();\n"
            "}\n"
            "int WaivedSeededForLintSelfTest() {\n"
            "  // determinism: seeded(fixed self-test seed)\n"
            "  return rand();\n"
            "}\n"
            "}  // namespace sqlclass\n",
            expect="UnseededRandForLintSelfTest",
            forbid="WaivedSeededForLintSelfTest",
            label="unseeded rand() + honored seeded waiver"),
        Injection(
            cc_table,
            "\nnamespace sqlclass {\n"
            "uint64_t WallClockForLintSelfTest() {\n"
            "  return static_cast<uint64_t>(time(nullptr));\n"
            "}\n"
            "}  // namespace sqlclass\n",
            expect="WallClockForLintSelfTest",
            label="wall-clock time() call"),
        Injection(
            cc_table,
            "\nnamespace sqlclass {\n"
            "void UnorderedMergeForLintSelfTest(CcTable* dst,\n"
            "                                   const CcTable& src) {\n"
            "  std::unordered_map<int, int> cells;\n"
            "  for (const auto& kv : cells) {\n"
            "    dst->Merge(src);\n"
            "  }\n"
            "}\n"
            "void WaivedUnorderedForLintSelfTest(CcTable* dst,\n"
            "                                    const CcTable& src) {\n"
            "  // determinism: order-insensitive(cells summed, not emitted)\n"
            "  std::unordered_map<int, int> cells;\n"
            "  for (const auto& kv : cells) {\n"
            "    dst->Merge(src);\n"
            "  }\n"
            "}\n"
            "}  // namespace sqlclass\n",
            expect="UnorderedMergeForLintSelfTest",
            forbid="WaivedUnorderedForLintSelfTest",
            label="unordered_map iteration into CC merge + waiver"),
        Injection(
            cc_table,
            "\nnamespace sqlclass {\n"
            "void UnorderedBlockForLintSelfTest(CcTable* dst, const Value* rows,\n"
            "                                   std::span<const uint32_t> sel,\n"
            "                                   const std::vector<int>& attrs) {\n"
            "  std::unordered_set<int> nodes;\n"
            "  for (int node : nodes) {\n"
            "    dst->AddRows(rows, 4, sel, attrs, node);\n"
            "  }\n"
            "}\n"
            "}  // namespace sqlclass\n",
            expect="UnorderedBlockForLintSelfTest",
            label="unordered_set iteration into block CC update"),
        Injection(
            cc_table,
            "\nnamespace sqlclass {\n"
            "Status UnorderedSiblingsForLintSelfTest(CcTable* derived,\n"
            "    const CcTable& parent, const std::vector<int>& attrs) {\n"
            "  std::unordered_map<const CcTable*, CcTable> siblings;\n"
            "  for (const auto& [table, cc] : siblings) {\n"
            "    const CcTable* part[] = {&cc};\n"
            "    SQLCLASS_RETURN_IF_ERROR(\n"
            "        derived->AddDifference(parent, part, attrs));\n"
            "  }\n"
            "  return Status::OK();\n"
            "}\n"
            "}  // namespace sqlclass\n",
            expect="UnorderedSiblingsForLintSelfTest",
            label="unordered sibling iteration into CC derivation"),
        Injection(
            cc_table,
            "\nnamespace sqlclass {\n"
            "void AddressKeyedForLintSelfTest() {\n"
            "  std::map<const CcTable*, int> by_address;\n"
            "  by_address.clear();\n"
            "}\n"
            "}  // namespace sqlclass\n",
            expect="AddressKeyedForLintSelfTest",
            label="pointer-keyed std::map ordering"),
    ]
    return run_self_test(cases, check_file, "determinism")


def main():
    parser = make_parser(__doc__, DEFAULT_SUBDIRS)
    args = parser.parse_args()

    try:
        if args.self_test:
            return self_test(args.root)
        paths = iter_source_files(args.root, args.subdirs or DEFAULT_SUBDIRS)
        violations = []
        for path in paths:
            violations.extend(check_file(path))
    except Exception as e:  # noqa: BLE001
        print(f"lint_determinism: internal error: {e}", file=sys.stderr)
        return 2

    def describe(v):
        kind = v[3]
        if kind == "banned-call":
            return (f"`{v[4]}` in {v[2]}() — unseeded/wall-clock source; "
                    "byte-identity cannot survive it")
        if kind == "unordered-iter":
            return (f"iteration over unordered container `{v[4]}` feeds an "
                    f"order-sensitive sink in {v[2]}() — hash order is "
                    "unspecified")
        return (f"{v[4]}… in {v[2]}() — pointer-keyed ordered container "
                "iterates in allocation order")

    code = print_violations(
        "determinism lint", violations, args.root, describe,
        "Fix: use a seeded engine (std::mt19937_64 with an explicit seed), "
        "an ordered container, or sort before emitting; or waive with\n"
        "  // determinism: seeded(<sym>)   or\n"
        "  // determinism: order-insensitive(<why>)")
    if code == 0:
        print(f"determinism lint: clean — {len(paths)} files, no unseeded "
              "randomness, no unordered iteration into order-sensitive "
              "sinks, no address-keyed ordering")
    return code


if __name__ == "__main__":
    sys.exit(main())
