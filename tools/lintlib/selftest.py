"""The --self-test harness shared by every invariant lint.

A lint's "clean" verdict is only trustworthy if the lint demonstrably still
detects the violation class it exists for. The harness proves that by
injection: copy a pristine source file into a temp dir, append a snippet
containing a known violation (or cut one out of the code itself), and
require (a) the pristine file is clean, (b) the injected violation is
reported, (c) any deliberately waived snippet in the same injection is NOT
reported. Each lint declares its cases as `Injection`s and calls
`run_self_test` with its file checker.
"""

import os
import tempfile


class Injection:
    """One self-test case.

    source        path of the pristine file to copy (must lint clean).
    appended      snippet appended to the copy; contains the violation.
    expect        substring of the function name (violation[2]) that must
                  be reported — the injected violation's enclosing symbol.
    forbid        optional substring that must NOT be reported: the name of
                  a waived twin of the violation, proving the waiver
                  grammar silences exactly what it claims to.
    label         human-readable description for the pass/fail line.
    replace       optional (old, new) pairs applied to the copy before the
                  append: a mutation of the code itself. Each `old` must
                  occur exactly once in the pristine file, so a case whose
                  target was edited away fails instead of passing vacuously.
    """

    def __init__(self, source, appended, expect, forbid=None, label=None,
                 replace=()):
        self.source = source
        self.appended = appended
        self.expect = expect
        self.forbid = forbid
        self.label = label or expect
        self.replace = replace


def run_self_test(cases, check_file, lint_name):
    """Runs every Injection through `check_file` (path -> violations, each
    violation a (path, line, function, what[, ...]) tuple). Prints one line
    per case; returns 0 when all pass, 1 otherwise."""
    failures = 0
    with tempfile.TemporaryDirectory() as tmp:
        for idx, case in enumerate(cases):
            baseline = check_file(case.source)
            if baseline:
                print(
                    f"self-test: FAIL [{case.label}] — pristine "
                    f"{os.path.basename(case.source)} already has "
                    f"{len(baseline)} violation(s); fix those first"
                )
                failures += 1
                continue
            with open(case.source, encoding="utf-8") as f:
                text = f.read()
            missing = [old for old, _ in case.replace
                       if text.count(old) != 1]
            if missing:
                print(f"self-test: FAIL [{case.label}] — mutation target "
                      f"not found once in {os.path.basename(case.source)}: "
                      f"{missing[0].strip().splitlines()[0]!r}")
                failures += 1
                continue
            for old, new in case.replace:
                text = text.replace(old, new)
            mutated = os.path.join(
                tmp, f"{idx}_{os.path.basename(case.source)}")
            with open(mutated, "w", encoding="utf-8") as f:
                f.write(text + case.appended)
            found = check_file(mutated)
            hits = [v for v in found if case.expect in str(v[2])]
            waived = (
                [v for v in found if case.forbid in str(v[2])]
                if case.forbid else []
            )
            if not hits:
                print(f"self-test: FAIL [{case.label}] — injected violation "
                      "was not detected")
                failures += 1
            elif waived:
                print(f"self-test: FAIL [{case.label}] — waiver did not "
                      f"silence {case.forbid}")
                failures += 1
            else:
                print(f"self-test: OK [{case.label}] — detected at line "
                      f"{hits[0][1]}"
                      + (", waiver honored" if case.forbid else ""))
    if failures:
        print(f"{lint_name} self-test: {failures} case(s) FAILED")
        return 1
    print(f"{lint_name} self-test: all {len(cases)} case(s) passed")
    return 0
