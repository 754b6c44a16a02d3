#!/usr/bin/env python3
"""Fault-point coverage invariant lint.

The fault-injection contract (PR 4): every fallible boundary in src/ sits
behind a registered SQLCLASS_FAULT_POINT, so tests can drive every failure
path and assert byte-identical recovery. This checker keeps that contract
from rotting in either direction:

  uncovered-call    a fallible I/O primitive (fopen/fread/fwrite/fclose/
                    fflush/ferror/fseek/ftell/pread) in a function that crosses
                    no SQLCLASS_FAULT_POINT — a failure path no test can
                    reach by injection.
  dead-point        a fault point named in FaultInjector's registry
                    (namespace faults in common/fault_injector.h) with zero
                    SQLCLASS_FAULT_POINT call sites — tests sweeping
                    KnownPoints() arm it and exercise nothing.
  unknown-point     a SQLCLASS_FAULT_POINT call site naming a point absent
                    from namespace faults — invisible to the KnownPoints()
                    sweep, so its failure path is never driven.
  unlisted-point    a namespace-faults constant missing from the
                    KnownPoints() list in fault_injector.cc (same outcome
                    as dead-point, one layer later).

Waiver — anywhere in the enclosing function body:

    // fault: uncovered(<reason>)     the call cannot meaningfully fail or
                                      failure is absorbed locally (e.g. a
                                      destructor's best-effort fclose)

Granularity is the enclosing function, like the cost-accounting lint: a
primitive is covered if the same function crosses any fault point. Coarse
by design — the goal is boundaries nobody hooked at all.

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
    read_text,
    run_self_test,
    waiver_regex,
)

DEFAULT_SUBDIRS = ("src",)

PRIMITIVE_RE = re.compile(
    r"(?:\bstd\s*::\s*)?\b(fopen|fread|fwrite|fclose|fflush|ferror|fseek|"
    r"ftell|pread)\s*\("
)
FAULT_POINT_CALL_RE = re.compile(r"\bSQLCLASS_FAULT_POINT\s*\(")
FAULT_POINT_ARG_RE = re.compile(
    r"\bSQLCLASS_FAULT_POINT\s*\(\s*(?:faults\s*::\s*(k\w+)|\"([^\"]+)\")"
    r"\s*\)"
)
KNOWN_POINT_DECL_RE = re.compile(
    r"inline\s+constexpr\s+char\s+(k\w+)\[\]\s*=\s*\"([^\"]+)\"\s*;"
)
WAIVER_RE = waiver_regex("fault", ["uncovered"])

INJECTOR_HEADER = os.path.join("src", "common", "fault_injector.h")
INJECTOR_SOURCE = os.path.join("src", "common", "fault_injector.cc")


def parse_known_points(header_text):
    """{constant_name: point_string} from namespace faults."""
    return dict(KNOWN_POINT_DECL_RE.findall(header_text))


def collect_call_sites(files):
    """[(path, line, constant_or_literal)] for every SQLCLASS_FAULT_POINT
    crossing in the checked tree (macro definition excluded: its argument
    is the bare parameter `point`, which the regex does not match)."""
    sites = []
    for sf in files:
        # The argument may be faults::kName (visible in stripped text) or a
        # string literal (blanked in stripped text) — scan the raw text but
        # only at offsets the stripped text confirms are code.
        for m in FAULT_POINT_ARG_RE.finditer(sf.text):
            if not sf.clean[m.start() : m.start() + 8].startswith("SQLCLASS"):
                continue  # inside a comment or string
            sites.append(
                (sf.path, sf.line_of(m.start()), m.group(1) or m.group(2)))
    return sites


def check_file(path):
    """uncovered-call violations in one file."""
    sf = SourceFile(path)
    violations = []
    for name, body_start, body_end in sf.functions:
        body = sf.clean[body_start:body_end]
        prims = list(PRIMITIVE_RE.finditer(body))
        if not prims:
            continue
        if FAULT_POINT_CALL_RE.search(body):
            continue
        if WAIVER_RE.search(sf.comments[body_start:body_end]):
            continue
        for prim in prims:
            violations.append(
                (path, sf.line_of(body_start + prim.start()), name,
                 "uncovered-call", prim.group(1)))
    return violations


def check_registry(root, files, header_text=None):
    """dead-point / unknown-point / unlisted-point violations."""
    header_path = os.path.join(root, INJECTOR_HEADER)
    if header_text is None:
        header_text = read_text(header_path)
    known = parse_known_points(header_text)
    by_string = {v: k for k, v in known.items()}
    sites = collect_call_sites(files)

    used_constants = set()
    violations = []
    for path, line, ref in sites:
        if ref.startswith("k"):
            if ref in known:
                used_constants.add(ref)
            else:
                violations.append(
                    (path, line, ref, "unknown-point", ref))
        else:  # string literal
            if ref in by_string:
                used_constants.add(by_string[ref])
            else:
                violations.append(
                    (path, line, ref, "unknown-point", ref))

    header_line = {k: line_no for line_no, k in (
        (header_text.count("\n", 0, m.start()) + 1, m.group(1))
        for m in KNOWN_POINT_DECL_RE.finditer(header_text))}
    for const, point in sorted(known.items()):
        if const not in used_constants:
            violations.append(
                (header_path, header_line.get(const, 1), const,
                 "dead-point", point))

    # Every constant must also appear in KnownPoints() (fault_injector.cc),
    # or the test sweep over KnownPoints() silently skips it.
    source_path = os.path.join(root, INJECTOR_SOURCE)
    listed = set(re.findall(r"faults\s*::\s*(k\w+)", read_text(source_path)))
    for const, point in sorted(known.items()):
        if const not in listed:
            violations.append(
                (source_path, 1, const, "unlisted-point", point))
    return violations


def self_test(root, files):
    heap_cc = os.path.join(root, "src", "storage", "heap_file.cc")
    wire_cc = os.path.join(root, "src", "shard", "wire.cc")
    cases = [
        Injection(
            wire_cc,
            "\nnamespace sqlclass {\n"
            "size_t UnhookedWireFreadForLintSelfTest(std::FILE* f, char* b) {\n"
            "  return std::fread(b, 1, kWireHeaderBytes, f);\n"
            "}\n"
            "Status CoveredWireReadForLintSelfTest(std::FILE* f, char* b) {\n"
            "  SQLCLASS_FAULT_POINT(faults::kShardRpcRecv);\n"
            "  if (std::fread(b, 1, kWireHeaderBytes, f) != kWireHeaderBytes)\n"
            "    return Status::IoError(\"torn frame\");\n"
            "  return Status::OK();\n"
            "}\n"
            "}  // namespace sqlclass\n",
            expect="UnhookedWireFreadForLintSelfTest",
            forbid="CoveredWireReadForLintSelfTest",
            label="wire-layer read outside the rpc fault points is flagged"),
        Injection(
            heap_cc,
            "\nnamespace sqlclass {\n"
            "size_t UnhookedFreadForLintSelfTest(std::FILE* f, char* b) {\n"
            "  return std::fread(b, 1, 42, f);\n"
            "}\n"
            "size_t WaivedFreadForLintSelfTest(std::FILE* f, char* b) {\n"
            "  // fault: uncovered(self-test waiver)\n"
            "  return std::fread(b, 1, 42, f);\n"
            "}\n"
            "}  // namespace sqlclass\n",
            expect="UnhookedFreadForLintSelfTest",
            forbid="WaivedFreadForLintSelfTest",
            label="fread with no fault point + honored waiver"),
        Injection(
            heap_cc,
            "\nnamespace sqlclass {\n"
            "Status CoveredFreadForLintSelfTest(std::FILE* f, char* b) {\n"
            "  SQLCLASS_FAULT_POINT(faults::kStorageRead);\n"
            "  if (std::fread(b, 1, 42, f) != 42)\n"
            "    return Status::IoError(\"short read\");\n"
            "  return Status::OK();\n"
            "}\n"
            "size_t StillUnhookedFwriteForLintSelfTest(std::FILE* f) {\n"
            "  return std::fwrite(\"x\", 1, 1, f);\n"
            "}\n"
            "}  // namespace sqlclass\n",
            expect="StillUnhookedFwriteForLintSelfTest",
            forbid="CoveredFreadForLintSelfTest",
            label="covered fread not flagged, unhooked fwrite flagged"),
    ]
    code = run_self_test(cases, check_file, "fault-coverage")

    # Registry rules: a ghost constant with no call site must be reported
    # as dead, and a call site naming an unregistered point as unknown.
    header_text = read_text(os.path.join(root, INJECTOR_HEADER)) + (
        "\nnamespace sqlclass { namespace faults {\n"
        "inline constexpr char kGhostForLintSelfTest[] = "
        "\"ghost/self_test\";\n"
        "} }\n"
    )
    ghost = [v for v in check_registry(root, files, header_text)
             if v[3] == "dead-point" and v[2] == "kGhostForLintSelfTest"]
    if ghost:
        print("self-test: OK [registry] — injected registered-but-unused "
              "point reported dead")
    else:
        print("self-test: FAIL [registry] — ghost fault point was not "
              "reported as dead")
        code = 1

    # The out-of-process transport's crash injection (SQLCLASS_CRASH_AT in
    # the worker, FaultInjector in the coordinator) leans on these three
    # points; losing any of them from the registry would silently unhook
    # the shard RPC failure paths from the KnownPoints() sweep.
    live = set(parse_known_points(
        read_text(os.path.join(root, INJECTOR_HEADER))).values())
    rpc_points = {"shard/rpc_send", "shard/rpc_recv", "shard/worker_crash"}
    missing = sorted(rpc_points - live)
    if missing:
        print("self-test: FAIL [registry] — shard RPC fault points missing "
              f"from namespace faults: {', '.join(missing)}")
        code = 1
    else:
        print("self-test: OK [registry] — shard RPC fault points "
              "(rpc_send, rpc_recv, worker_crash) are registered")
    return code


def main():
    parser = make_parser(__doc__, DEFAULT_SUBDIRS)
    args = parser.parse_args()

    try:
        paths = iter_source_files(args.root, args.subdirs or DEFAULT_SUBDIRS)
        # The macro and registry live in fault_injector.{h,cc}; their own
        # bodies are the mechanism, not boundaries behind it.
        skip = (os.path.join(args.root, INJECTOR_HEADER),
                os.path.join(args.root, INJECTOR_SOURCE))
        files = [SourceFile(p) for p in paths if p not in skip]
        if args.self_test:
            return self_test(args.root, files)
        violations = []
        for sf in files:
            violations.extend(check_file(sf.path))
        violations.extend(check_registry(args.root, files))
    except Exception as e:  # noqa: BLE001
        print(f"lint_fault_coverage: internal error: {e}", file=sys.stderr)
        return 2

    def describe(v):
        kind = v[3]
        if kind == "uncovered-call":
            return (f"`{v[4]}` in {v[2]}() — no SQLCLASS_FAULT_POINT in "
                    "this function and no `// fault: uncovered(...)` waiver")
        if kind == "dead-point":
            return (f"registered fault point \"{v[4]}\" ({v[2]}) has no "
                    "SQLCLASS_FAULT_POINT call site — tests arm it and "
                    "exercise nothing")
        if kind == "unlisted-point":
            return (f"faults::{v[2]} (\"{v[4]}\") is missing from "
                    "FaultInjector::KnownPoints() — the test sweep skips it")
        return (f"SQLCLASS_FAULT_POINT names \"{v[4]}\", which is not in "
                "namespace faults — unreachable from the KnownPoints() sweep")

    code = print_violations(
        "fault-coverage lint", violations, args.root, describe,
        "Fix: put the fallible call behind a registered "
        "SQLCLASS_FAULT_POINT (declare the point in namespace faults AND "
        "list it in FaultInjector::KnownPoints()), or — only when failure "
        "is absorbed locally — waive it:\n"
        "  // fault: uncovered(<reason>)")
    if code == 0:
        header_text = read_text(os.path.join(args.root, INJECTOR_HEADER))
        print(f"fault-coverage lint: clean — {len(files)} files, "
              f"{len(parse_known_points(header_text))} registered points, "
              "all reachable and all fallible stdio behind a point or "
              "waiver")
    return code


if __name__ == "__main__":
    sys.exit(main())
