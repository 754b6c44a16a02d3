#!/usr/bin/env python3
"""Cost-accounting invariant lint.

Every row or byte the engine moves must be charged to the cost model:
logical work to a CostCounters field (src/server/cost_model.h), physical
I/O to an IoCounters field (src/storage/io_counters.h). This checker walks
the metered subsystems (src/storage, src/server, src/middleware,
src/shard) and fails if any I/O or row-movement primitive call site sits
in a function that neither charges a counter nor carries an explicit
waiver.

Primitives (call sites that move rows/bytes):
    fread( / fwrite( / pread(  physical page traffic
    .Decode( / ->Decode(       row decode out of a page image
    .DecodeInto( / ->DecodeInto(
    .Encode( / ->Encode(       row encode into a page image
    .DecodeRows( / .EncodeRows(  bulk row decode / encode of a page image
    ->Next( / .Next(           cursor / row-source advance
    ->BitmapWords( / .BitmapWords(   bitmap-index word fetch
    ->SampleRows( / .SampleRows(     scramble (sample file) payload fetch
    ->ShardRows( / .ShardRows(       shard distribution-map entry fetch
    ->Merge(                         shard partial CC merged into a node's table
    .AddDifference( / ->AddDifference( a CC table derived from its parent's
                                     and its siblings' in place of counting
    ->ReadPageInto( / .ReadPageInto( positioned page decode
    ParallelCountScan::OverHeapFile( the counting kernel: a caller that
    ParallelCountScan::OverRows(     passes cost = nullptr charges the
                                     scan itself or names its charger

Charges (anything that mutates a counter field): ++x or x += where x names
a field of CostCounters or IoCounters (the field lists are parsed out of
the headers at runtime, so new counters are picked up automatically), or a
call to Add / AddProportional / Delta on those structs.

Waivers — a comment anywhere in the same function body:
    // cost: charged-by-caller(<symbol>)   the named caller meters this path
    // cost: unmetered(<reason>)           deliberately free (metadata reads)
    // cost: fault-injected(<point>)       failure-path-only primitive behind
                                           a SQLCLASS_FAULT_POINT; moves no
                                           rows on the success path

Granularity is the enclosing function: a primitive is fine if the same
function charges any counter. That is deliberately coarse — the goal is to
catch paths nobody metered at all, not to audit arithmetic.

Engines: uses libclang when the `clang.cindex` python module is importable
(exact AST function extents); otherwise the shared lintlib brace-scanning
engine. Both engines apply identical primitive/charge/waiver rules; the
fallback is the one exercised in CI (the build image has no clang).

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
    line_of,
    make_parser,
    run_self_test,
    strip_code,
    waiver_regex,
)

DEFAULT_SUBDIRS = ("src/storage", "src/server", "src/middleware", "src/shard")

PRIMITIVE_RE = re.compile(
    r"""(?:\bstd::)?\bfread\s*\(
      | (?:\bstd::)?\bfwrite\s*\(
      | \bpread\s*\(
      | (?:\.|->)Decode\s*\(
      | (?:\.|->)DecodeInto\s*\(
      | (?:\.|->)Encode\s*\(
      | (?:\.|->)(?:Decode|Encode)Rows\s*\(
      | (?:\.|->)Next\s*\(
      | (?:\.|->)BitmapWords\s*\(
      | (?:\.|->)SampleRows\s*\(
      | (?:\.|->|::)ShardRows\s*\(
      | ->Merge\s*\(
      | (?:\.|->)AddDifference\s*\(
      | (?:\.|->)ReadPageInto\s*\(
      | (?:\.|->|::)OverHeapFile\s*\(
      | (?:\.|->|::)OverRows\s*\(
    """,
    re.VERBOSE,
)

WAIVER_RE = waiver_regex(
    "cost", ["charged-by-caller", "unmetered", "fault-injected"])

# Methods on the counter structs that account in bulk.
BULK_CHARGE_RE = re.compile(r"(?:\.|->)(?:Add|AddProportional)\s*\(")


def parse_counter_fields(root):
    """Field names of CostCounters and IoCounters, parsed from the headers."""
    fields = set()
    sources = [
        os.path.join(root, "src", "server", "cost_model.h"),
        os.path.join(root, "src", "storage", "io_counters.h"),
    ]
    field_re = re.compile(
        r"^\s*(?:std::atomic<\s*)?(?:u?int\d+_t|size_t|double)\s*>?\s*"
        r"([a-z][a-z0-9_]*)\s*(?:\{|=)"
    )
    for path in sources:
        with open(path, encoding="utf-8") as f:
            for line in f:
                m = field_re.match(line)
                if m:
                    fields.add(m.group(1))
    if not fields:
        raise RuntimeError("no counter fields parsed — headers moved?")
    return fields


def charge_regex(fields):
    names = "|".join(sorted(fields))
    # ++counters->rows_read;   counters_->pages_read += n;   ++cost.mw_cc_updates
    return re.compile(
        r"\+\+[^;\n]*\b(?:%s)\b|\b(?:%s)\b\s*(?:\+\+|\+=)" % (names, names)
    )


def check_file_regex(path, charge_re):
    sf = SourceFile(path)
    violations = []
    for name, body_start, body_end in sf.functions:
        body = sf.clean[body_start:body_end]
        prims = list(PRIMITIVE_RE.finditer(body))
        if not prims:
            continue
        if charge_re.search(body) or BULK_CHARGE_RE.search(body):
            continue
        if WAIVER_RE.search(sf.comments[body_start:body_end]):
            continue
        for prim in prims:
            violations.append(
                (path, sf.line_of(body_start + prim.start()), name,
                 prim.group(0).strip().rstrip("(")))
    return violations


def check_file_libclang(path, charge_re, index, root):
    """AST-exact variant of the same rules; raises to trigger the regex
    fallback on any parse trouble."""
    from clang import cindex  # noqa: F401  (import checked by caller)

    tu = index.parse(
        path,
        args=["-std=c++20", "-I", os.path.join(root, "src"), "-xc++"],
    )
    with open(path, encoding="utf-8") as f:
        text = f.read()
    clean, comments = strip_code(text)
    violations = []

    def walk(node):
        from clang.cindex import CursorKind

        if node.kind in (
            CursorKind.FUNCTION_DECL,
            CursorKind.CXX_METHOD,
            CursorKind.CONSTRUCTOR,
            CursorKind.DESTRUCTOR,
            CursorKind.FUNCTION_TEMPLATE,
        ) and node.is_definition() and node.extent.start.file and \
                node.extent.start.file.name == path:
            start = node.extent.start.offset
            end = node.extent.end.offset
            body = clean[start:end]
            prims = list(PRIMITIVE_RE.finditer(body))
            if prims and not charge_re.search(body) and not \
                    BULK_CHARGE_RE.search(body) and not \
                    WAIVER_RE.search(comments[start:end]):
                for prim in prims:
                    violations.append(
                        (path, line_of(text, start + prim.start()),
                         node.spelling or "<anonymous>",
                         prim.group(0).strip().rstrip("(")))
            return  # function extents never nest in this codebase
        for child in node.get_children():
            walk(child)

    walk(tu.cursor)
    return violations


def run_check(root, subdirs, charge_re):
    try:
        from clang import cindex
        index = cindex.Index.create()
        engine = "libclang"
    except Exception:
        index = None
        engine = "regex"

    violations = []
    files = iter_source_files(root, subdirs)
    for path in files:
        if index is not None:
            try:
                violations.extend(
                    check_file_libclang(path, charge_re, index, root))
                continue
            except Exception:
                pass  # parse trouble: regex rules are the authority
        violations.extend(check_file_regex(path, charge_re))
    return engine, files, violations


def self_test(root, charge_re):
    """Proves the checker detects an uncharged primitive in each scan-out
    flavor: a bare fwrite in heap_file.cc (plus an honored fault-injected
    waiver), an uncharged bulk page decode in heap_file.cc, an uncharged
    BitmapWords fetch in bitmap_scan.cc, an uncharged
    SampleRows fetch in sample_scan.cc, an uncharged ShardRows fetch in
    shard_scan.cc, a counting-kernel call that passes cost = nullptr
    without a waiver in shard_scan.cc, and batch_executor.cc's one
    derivation step (BatchExecutor::DeriveTables) with its charges cut
    out: a CC table derived as a parent's minus its siblings' that no
    counter pays for."""
    mw = os.path.join(root, "src", "middleware")
    cases = [
        Injection(
            os.path.join(root, "src", "storage", "heap_file.cc"),
            "\nnamespace sqlclass {\n"
            "void UnchargedAppendForLintSelfTest(std::FILE* file,"
            " const char* b) {\n"
            "  std::fwrite(b, 1, 42, file);\n"
            "}\n"
            "void WaivedFaultPathForLintSelfTest(std::FILE* file,"
            " const char* b) {\n"
            "  // cost: fault-injected(storage/fwrite)\n"
            "  std::fwrite(b, 1, 42, file);\n"
            "}\n"
            "}  // namespace sqlclass\n",
            expect="UnchargedAppendForLintSelfTest",
            forbid="WaivedFaultPathForLintSelfTest",
            label="uncharged fwrite + honored fault-injected waiver"),
        Injection(
            os.path.join(root, "src", "storage", "heap_file.cc"),
            "\nnamespace sqlclass {\n"
            "void UnchargedBulkDecodeForLintSelfTest(const RowCodec& codec,"
            " const char* page, Value* rows) {\n"
            "  codec.DecodeRows(page, 1, rows);\n"
            "}\n"
            "}  // namespace sqlclass\n",
            expect="UnchargedBulkDecodeForLintSelfTest",
            label="uncharged bulk decode"),
        Injection(
            os.path.join(mw, "bitmap_scan.cc"),
            "\nnamespace sqlclass {\n"
            "uint64_t UnchargedBitmapReadForLintSelfTest("
            "BitmapIndexReader* r) {\n"
            "  auto words = r->BitmapWords(0, 0);\n"
            "  return words.ok() ? **words : 0;\n"
            "}\n"
            "}  // namespace sqlclass\n",
            expect="UnchargedBitmapReadForLintSelfTest",
            label="uncharged BitmapWords fetch"),
        Injection(
            os.path.join(mw, "sample_scan.cc"),
            "\nnamespace sqlclass {\n"
            "uint64_t UnchargedSampleFetchForLintSelfTest("
            "SampleFileReader* r) {\n"
            "  auto rows = r->SampleRows();\n"
            "  return rows.ok() ? r->num_rows() : 0;\n"
            "}\n"
            "}  // namespace sqlclass\n",
            expect="UnchargedSampleFetchForLintSelfTest",
            label="uncharged SampleRows fetch"),
        Injection(
            os.path.join(mw, "shard_scan.cc"),
            "\nnamespace sqlclass {\n"
            "uint64_t UnchargedShardFetchForLintSelfTest("
            "ShardMapReader* r) {\n"
            "  auto rows = r->ShardRows();\n"
            "  return rows.ok() ? r->total_rows() : 0;\n"
            "}\n"
            "}  // namespace sqlclass\n",
            expect="UnchargedShardFetchForLintSelfTest",
            label="uncharged ShardRows fetch"),
        Injection(
            os.path.join(mw, "shard_scan.cc"),
            "\nnamespace sqlclass {\n"
            "uint64_t UnwaivedKernelCallForLintSelfTest("
            "const ParallelScanOptions& options) {\n"
            "  auto scan = ParallelCountScan::OverHeapFile(\n"
            "      nullptr, \"t.heap\", 1, options, nullptr, nullptr);\n"
            "  return scan.ok() ? scan->rows_scanned : 0;\n"
            "}\n"
            "}  // namespace sqlclass\n",
            expect="UnwaivedKernelCallForLintSelfTest",
            label="unwaived counting-kernel call"),
        Injection(
            os.path.join(mw, "batch_executor.cc"),
            "",
            replace=[(
                "    if (report->path == Path::kRowScan) {\n"
                "      cost.mw_cc_updates +=\n"
                "          static_cast<uint64_t>(cc.TotalRows()) *"
                " d.derived.size();\n"
                "    } else if (report->path == Path::kShards) {\n"
                "      cost.mw_shard_merge_cells += cc.NumEntries() -"
                " cells;\n"
                "    }\n",
                "")],
            expect="DeriveTables",
            label="uncharged CC derivation"),
    ]
    return run_self_test(
        cases, lambda path: check_file_regex(path, charge_re),
        "cost-accounting")


def main():
    parser = make_parser(
        __doc__, DEFAULT_SUBDIRS,
        self_test_help="verify the checker catches an injected uncharged "
                       "fwrite, then exit")
    args = parser.parse_args()

    try:
        charge_re = charge_regex(parse_counter_fields(args.root))
        if args.self_test:
            return self_test(args.root, charge_re)
        subdirs = args.subdirs or list(DEFAULT_SUBDIRS)
        engine, files, violations = run_check(args.root, subdirs, charge_re)
    except Exception as e:  # noqa: BLE001
        print(f"lint_cost_accounting: internal error: {e}", file=sys.stderr)
        return 2

    if violations:
        print(f"cost-accounting lint: {len(violations)} uncharged "
              f"primitive call site(s) [{engine} engine]:")
        for path, line, func, prim in violations:
            rel = os.path.relpath(path, args.root)
            print(f"  {rel}:{line}: `{prim}` in {func}() — no counter "
                  "charge in this function and no `// cost:` waiver")
        print("\nFix: charge the moved rows/bytes to CostCounters or "
              "IoCounters in the same function, or (only when the caller "
              "truly meters the path) add\n"
              "  // cost: charged-by-caller(<symbol>)   or\n"
              "  // cost: unmetered(<reason>)   or\n"
              "  // cost: fault-injected(<point>)   (failure-path-only "
              "primitives behind a fault point)")
        return 1
    print(f"cost-accounting lint: clean — {len(files)} files, "
          f"{engine} engine")
    return 0


if __name__ == "__main__":
    sys.exit(main())
