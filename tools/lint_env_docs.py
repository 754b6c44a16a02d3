#!/usr/bin/env python3
"""Environment-knob documentation lint.

The README knob table and DESIGN.md drifted from the code more than once
(SQLCLASS_PAGE_CHECKSUMS and SQLCLASS_FAULTS_SEED both shipped undocumented
for a while). This checker makes that drift a test failure:

  1. Every runtime environment knob the code reads — a quoted
     `"SQLCLASS_..."` string literal in src/ or bench/ — must be documented:
     src/ knobs in BOTH README.md and DESIGN.md, bench-only knobs (e.g.
     SQLCLASS_BENCH_SCALE) at least in README.md.
  2. Every `SQLCLASS_*` token the docs mention must exist somewhere in the
     tree (src/, bench/, tests/, tools/, scripts/, CMake files), so the docs
     cannot advertise knobs that no longer exist.
  3. Every README knob row whose default reads `config (<number>)` and
     whose text says "overrides `<field>`" must quote the initializer that
     field has in src/middleware/config.h, so documented defaults cannot
     drift from the code's. A dotted field (`sharding.rpc_deadline_ms`) is
     resolved through the member types of the config structs.
  4. Every row of the override table in src/middleware/config.cc
     (ApplyEnvOverrides) must have a README knob row for the same variable
     that says "overrides `<field>`" with the table's field, and a README
     row that says "overrides `...`" must have a table row. A row whose
     parse kind is commented "double in (lo, hi)" (or "[lo, hi]") must
     have its README row state the same "valid in (lo, hi)", and a README
     row that states an interval must have a table row with that interval.

Exit status: 0 clean, 1 drift, 2 internal error.
"""

import os
import re
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from lintlib import make_parser, read_text  # noqa: E402
from lintlib.source import strip_code  # noqa: E402

CODE_KNOB_RE = re.compile(r'"(SQLCLASS_[A-Z0-9_]+)"')
DOC_TOKEN_RE = re.compile(r"(SQLCLASS_[A-Z0-9_]+)")
CONFIG_HEADER = os.path.join("src", "middleware", "config.h")
OVERRIDE_TABLE = os.path.join("src", "middleware", "config.cc")
# {"SQLCLASS_X", "field", Parse::kKind, &target},
TABLE_ROW_RE = re.compile(
    r'\{\s*"(SQLCLASS_[A-Z0-9_]+)",\s*"([\w.]+)",\s*Parse::(\w+),')
INTERVAL = r"([(\[])\s*([-+\d.eE]+)\s*,\s*([-+\d.eE]+)\s*([)\]])"
# kOpenUnit,  // double in (0, 1)
KIND_INTERVAL_RE = re.compile(r"\b(k\w+),\s*//\s*double in " + INTERVAL)
# | `SQLCLASS_X` | <default> | <meaning> |
README_ROW_RE = re.compile(
    r"^\|\s*`(SQLCLASS_[A-Z0-9_]+)`\s*\|[^|]*\|(.*)$", re.M)
DOC_INTERVAL_RE = re.compile(r"valid in " + INTERVAL)
# | `SQLCLASS_X` | config (<default>) | ... overrides `<field>` ... |
KNOB_ROW_RE = re.compile(
    r"^\|\s*`(SQLCLASS_[A-Z0-9_]+)`\s*\|\s*config \(([^)]*)\)\s*\|(.*)$",
    re.M)
OVERRIDES_RE = re.compile(r"overrides `([A-Za-z_][\w.]*)`")
NUMBER_RE = re.compile(r"^[-+]?(\d+(\.\d*)?|\.\d+)([eE][-+]?\d+)?$")
STRUCT_RE = re.compile(r"\bstruct\s+(\w+)\s*(?::\s*([\w\s,]+?))?\s*\{")
MEMBER_RE = re.compile(
    r"^\s*([\w:<>]+(?:\s*[*&])?)\s+(\w+)\s*(?:=\s*([^;{]+?))?\s*;",
    re.M)


def collect_code_knobs(root, subdir):
    """Quoted SQLCLASS_ literals under `subdir` — the runtime env knobs."""
    knobs = set()
    for dirpath, _, names in os.walk(os.path.join(root, subdir)):
        for name in sorted(names):
            if name.endswith((".cc", ".h", ".cpp")):
                knobs |= set(CODE_KNOB_RE.findall(
                    read_text(os.path.join(dirpath, name))))
    return knobs


def collect_tree_tokens(root):
    """Every SQLCLASS_ token in the non-doc tree (code, build, scripts)."""
    tokens = set()
    for subdir in ("src", "bench", "tests", "tools", "scripts", "examples"):
        base = os.path.join(root, subdir)
        if not os.path.isdir(base):
            continue
        for dirpath, _, names in os.walk(base):
            for name in sorted(names):
                if name.endswith((".cc", ".h", ".cpp", ".py", ".sh", ".txt",
                                  ".cmake")):
                    tokens |= set(DOC_TOKEN_RE.findall(
                        read_text(os.path.join(dirpath, name))))
    tokens |= set(DOC_TOKEN_RE.findall(
        read_text(os.path.join(root, "CMakeLists.txt"))))
    return tokens


def find_drift(src_knobs, bench_knobs, readme, design, tree_tokens):
    """The pure rule set, separated from tree-walking so the self-test can
    drive it with synthetic inputs."""
    problems = []
    for knob in sorted(src_knobs):
        if knob not in readme:
            problems.append(f"{knob}: read by src/ but missing from README.md")
        if knob not in design:
            problems.append(f"{knob}: read by src/ but missing from DESIGN.md")
    for knob in sorted(bench_knobs):
        if knob not in readme:
            problems.append(
                f"{knob}: read by bench/ but missing from README.md")

    for doc_name, doc_text in (("README.md", readme), ("DESIGN.md", design)):
        for token in sorted(set(DOC_TOKEN_RE.findall(doc_text))):
            if token not in tree_tokens:
                problems.append(
                    f"{token}: mentioned in {doc_name} but absent from the "
                    "tree — stale documentation")
    return problems


def parse_config_structs(text):
    """{struct: (bases, {member: (type, initializer or None)})} for the
    top-level structs of a config header. Nested braces (member function
    bodies, brace initializers) are skipped."""
    clean, _ = strip_code(text)
    structs = {}
    for m in STRUCT_RE.finditer(clean):
        depth, i = 1, m.end()
        body = []
        while i < len(clean) and depth > 0:
            c = clean[i]
            if c == "{":
                depth += 1
            elif c == "}":
                depth -= 1
            if depth == 1 and c not in "{}":
                body.append(c)
            elif c == "}" and depth == 1:
                body.append(";")  # a skipped nested body ends a statement
            i += 1
        bases = [b.split()[-1] for b in (m.group(2) or "").split(",")
                 if b.strip()]
        members = {}
        for mm in MEMBER_RE.finditer("".join(body)):
            init = mm.group(3).strip() if mm.group(3) else None
            members[mm.group(2)] = (mm.group(1), init)
        structs[m.group(1)] = (bases, members)
    return structs


def find_member(structs, struct, name):
    """(type, initializer) of `name` in `struct` or its bases, else None."""
    if struct not in structs:
        return None
    bases, members = structs[struct]
    if name in members:
        return members[name]
    for base in bases:
        found = find_member(structs, base, name)
        if found is not None:
            return found
    return None


def resolve_field(structs, path):
    """Initializer(s) of a dotted field path, searched from every struct
    that declares its first component: a set of strings (None for a field
    without one); empty when no struct declares the path."""
    found = set()
    for struct in structs:
        current, member = struct, None
        for part in path.split("."):
            member = find_member(structs, current, part)
            if member is None:
                break
            current = member[0]
        if member is not None:
            found.add(member[1])
    return found


def parse_number(literal):
    """A C++ numeric literal (suffixes and ' separators dropped) as float,
    or None when the initializer is not a plain number."""
    text = literal.replace("'", "")
    text = re.sub(r"(?<=[\d.])([uUlLfF]+)$", "", text)
    return float(text) if NUMBER_RE.match(text) else None


def find_default_drift(readme, config_text):
    """Rule 3: README `config (<number>)` defaults against the config
    header's initializers."""
    structs = parse_config_structs(config_text)
    problems = []
    for m in KNOB_ROW_RE.finditer(readme):
        knob, default, text = m.group(1), m.group(2).strip(), m.group(3)
        field = OVERRIDES_RE.search(text)
        if field is None or parse_number(default) is None:
            continue
        inits = resolve_field(structs, field.group(1))
        if not inits:
            problems.append(f"{knob}: README says it overrides "
                            f"`{field.group(1)}`, which {CONFIG_HEADER} "
                            "does not declare")
            continue
        for init in sorted(inits, key=str):
            code = parse_number(init) if init is not None else None
            if code != parse_number(default):
                problems.append(
                    f"{knob}: README default config ({default}) but "
                    f"`{field.group(1)}` is initialized to {init} in "
                    f"{CONFIG_HEADER}")
    return problems


def interval_of(m):
    """(open bracket, lo, hi, close bracket) from the last four groups of
    a match ending in INTERVAL."""
    g = m.groups()[-4:]
    return (g[0], float(g[1]), float(g[2]), g[3])


def parse_override_table(text):
    """[(variable, field, interval or None)] for the rows of the override
    table, the interval taken from the comment on the row's parse kind."""
    kinds = {m.group(1): interval_of(m)
             for m in KIND_INTERVAL_RE.finditer(text)}
    return [(m.group(1), m.group(2), kinds.get(m.group(3)))
            for m in TABLE_ROW_RE.finditer(text)]


def format_interval(interval):
    return f"{interval[0]}{interval[1]:g}, {interval[2]:g}{interval[3]}"


def find_table_drift(readme, table_text):
    """Rule 4: the override table against README's knob rows."""
    rows = parse_override_table(table_text)
    if not rows:
        return [f"{OVERRIDE_TABLE}: no override table rows found"]
    doc_rows = {m.group(1): m.group(2) for m in README_ROW_RE.finditer(readme)}
    problems = []
    for knob, field, interval in rows:
        text = doc_rows.get(knob)
        if text is None:
            problems.append(f"{knob}: in the {OVERRIDE_TABLE} override "
                            "table but has no README.md knob row")
            continue
        doc_field = OVERRIDES_RE.search(text)
        if doc_field is None or doc_field.group(1) != field:
            problems.append(f"{knob}: README row must say it overrides "
                            f"`{field}`, the field {OVERRIDE_TABLE} sets")
        stated = DOC_INTERVAL_RE.search(text)
        stated = interval_of(stated) if stated else None
        if stated != interval:
            problems.append(
                f"{knob}: README states "
                f"{format_interval(stated) if stated else 'no interval'} "
                f"but {OVERRIDE_TABLE} accepts "
                f"{format_interval(interval) if interval else 'no interval'}")
    table_knobs = {knob for knob, _, _ in rows}
    for knob, text in sorted(doc_rows.items()):
        if OVERRIDES_RE.search(text) and knob not in table_knobs:
            problems.append(f"{knob}: README says it overrides a config "
                            f"field but {OVERRIDE_TABLE} has no row for it")
    return problems


def self_test(root):
    """Drives the rules with the real tree plus injected drift: an
    undocumented src knob, an undocumented bench knob, a doc token with no
    tree counterpart, a wrong documented default and a documented interval
    that disagrees with the override table."""
    src_knobs = collect_code_knobs(root, "src")
    bench_knobs = collect_code_knobs(root, "bench") - src_knobs
    readme = read_text(os.path.join(root, "README.md"))
    design = read_text(os.path.join(root, "DESIGN.md"))
    tree_tokens = collect_tree_tokens(root)

    config_text = read_text(os.path.join(root, CONFIG_HEADER))
    table_text = read_text(os.path.join(root, OVERRIDE_TABLE))
    baseline = find_drift(src_knobs, bench_knobs, readme, design, tree_tokens)
    baseline += find_default_drift(readme, config_text)
    baseline += find_table_drift(readme, table_text)
    if baseline:
        print(f"self-test: FAIL — pristine tree already has {len(baseline)} "
              "drift(s); fix those first")
        return 1

    # Built by concatenation so the ghost tokens don't appear verbatim in
    # this file — collect_tree_tokens scans tools/*.py, and a literal here
    # would make the "stale" token exist in the tree.
    ghost_src = "SQLCLASS_" + "GHOST_KNOB_FOR_SELF_TEST"
    ghost_bench = "SQLCLASS_" + "GHOST_BENCH_FOR_SELF_TEST"
    ghost_doc = "SQLCLASS_" + "STALE_DOC_FOR_SELF_TEST"
    code = 0
    cases = [
        ("undocumented src knob",
         find_drift(src_knobs | {ghost_src}, bench_knobs, readme, design,
                    tree_tokens),
         ghost_src),
        ("undocumented bench knob",
         find_drift(src_knobs, bench_knobs | {ghost_bench}, readme, design,
                    tree_tokens),
         ghost_bench),
        ("stale doc token",
         find_drift(src_knobs, bench_knobs, readme + f"\n{ghost_doc}\n",
                    design, tree_tokens),
         ghost_doc),
    ]
    # A wrong documented default: bump the number of the first README row
    # the default rule checks.
    row = next(m for m in KNOB_ROW_RE.finditer(readme)
               if OVERRIDES_RE.search(m.group(3))
               and parse_number(m.group(2).strip()) is not None)
    wrong = row.group(0).replace(f"config ({row.group(2)})",
                                 f"config ({row.group(2).strip()}1)", 1)
    cases.append(("wrong documented default",
                  find_default_drift(readme.replace(row.group(0), wrong),
                                     config_text),
                  row.group(1)))
    # A documented interval that disagrees with the table's: flip the
    # closing bracket of the first README row that states one.
    row = next(m for m in README_ROW_RE.finditer(readme)
               if DOC_INTERVAL_RE.search(m.group(2)))
    stated = DOC_INTERVAL_RE.search(row.group(0))
    flipped = stated.group(0)[:-1] + (
        "]" if stated.group(4) == ")" else ")")
    wrong = row.group(0).replace(stated.group(0), flipped, 1)
    cases.append(("mismatched documented interval",
                  find_table_drift(readme.replace(row.group(0), wrong),
                                   table_text),
                  row.group(1)))
    for label, drift, token in cases:
        hits = [p for p in drift if token in p]
        if hits:
            print(f"self-test: OK [{label}] — reported: {hits[0]}")
        else:
            print(f"self-test: FAIL [{label}] — injected drift not reported")
            code = 1
    if code == 0:
        print(f"env-docs self-test: all {len(cases)} case(s) passed")
    return code


def main():
    parser = make_parser(
        __doc__,
        self_test_help="verify injected doc drift in each direction is "
                       "reported, then exit")
    args = parser.parse_args()
    root = args.root

    try:
        if args.self_test:
            return self_test(root)
        src_knobs = collect_code_knobs(root, "src")
        bench_knobs = collect_code_knobs(root, "bench") - src_knobs
        readme = read_text(os.path.join(root, "README.md"))
        design = read_text(os.path.join(root, "DESIGN.md"))
        tree_tokens = collect_tree_tokens(root)
        problems = find_drift(
            src_knobs, bench_knobs, readme, design, tree_tokens)
        problems += find_default_drift(
            readme, read_text(os.path.join(root, CONFIG_HEADER)))
        problems += find_table_drift(
            readme, read_text(os.path.join(root, OVERRIDE_TABLE)))
    except Exception as e:  # noqa: BLE001
        print(f"lint_env_docs: internal error: {e}", file=sys.stderr)
        return 2

    if problems:
        print(f"env-knob doc lint: {len(problems)} drift(s):")
        for p in problems:
            print(f"  {p}")
        print("\nFix: document runtime knobs in README.md's knob table and "
              "the owning DESIGN.md section, delete doc rows for knobs "
              "that no longer exist, quote each `config (<number>)` "
              f"default as {CONFIG_HEADER} initializes it, and give each "
              f"{OVERRIDE_TABLE} override row a README row naming its "
              "field and interval.")
        return 1
    print(f"env-knob doc lint: clean — {len(src_knobs)} src knob(s), "
          f"{len(bench_knobs)} bench-only knob(s) documented, no stale "
          "doc tokens")
    return 0


if __name__ == "__main__":
    sys.exit(main())
