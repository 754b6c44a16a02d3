#!/usr/bin/env python3
"""Paper-fidelity gate: the smoke-scale bench grid must equal its golden.

Runs `bench_paper --smoke --dump=...` with every SQLCLASS_* variable
scrubbed and compares the dump with bench/paper_smoke_golden.json exactly,
in everything but the fields whose key ends in wall_s (wall_s, and the
extension cells' extra.build_wall_s): the top-level scale, the cell set and
order, and every field of every cell — the paper's figures and the
extension figures (ext-bitmap, ext-shard, ext-approx, ext-parallel) alike.
Each difference names the cell as figure/series/x_name=x and the field
that moved. A change to the cost model on purpose regenerates the golden
and says so in CHANGES.md:

    build/bench/bench_paper --smoke --dump=bench/paper_smoke_golden.json

--self-test: a sim_s x1.01, a counter +1, a flipped tree hash, a dropped
and a reordered cell must each fail on a copy of the golden; every wall
field x10 must pass; and every cost counter must be charged by some golden
cell, so a unit cost no cell exercises cannot drift unseen. Exit status: 0
match, 1 mismatch, 2 run error.
"""

import argparse
import copy
import json
import os
import subprocess
import sys
import tempfile

# Wall-clock fields depend on the host; every key ending in this is masked.
MASKED_SUFFIX = "wall_s"
# No grow charges index_rows_inserted; the artifact builds do, and their
# cost is gated through extra.build_sim_s.
UNCHARGED = {"index_rows_inserted"}


def label(cell):
    return "%s/%s/%s=%g" % (cell["figure"], cell["series"], cell["x_name"],
                            cell["x"])


def flatten(record, prefix=""):
    """{"cost": {"a": 1}} -> {"cost.a": 1}, without the masked fields."""
    out = {}
    for key, value in record.items():
        if isinstance(value, dict):
            out.update(flatten(value, prefix + key + "."))
        elif not key.endswith(MASKED_SUFFIX):
            out[prefix + key] = value
    return out


def compare(golden, actual):
    """One line per difference between two dumps; empty when they match."""
    diffs = []
    for key in sorted(set(golden) | set(actual)):
        if key != "cells" and golden.get(key) != actual.get(key):
            diffs.append("top-level %s: golden %r, got %r"
                         % (key, golden.get(key), actual.get(key)))
    want = [label(c) for c in golden["cells"]]
    got = [label(c) for c in actual.get("cells", [])]
    if want != got:
        diffs += ["missing cell %s" % c for c in want if c not in got]
        diffs += ["unexpected cell %s" % c for c in got if c not in want]
        if sorted(want) == sorted(got):
            i = next(i for i, (w, g) in enumerate(zip(want, got)) if w != g)
            diffs.append("cells reordered: position %d is %s, golden has %s"
                         % (i, got[i], want[i]))
        return diffs
    for g_cell, a_cell in zip(golden["cells"], actual["cells"]):
        g, a = flatten(g_cell), flatten(a_cell)
        for field in sorted(set(g) | set(a)):
            if g.get(field) != a.get(field):
                diffs.append("%s: %s golden %r, got %r"
                             % (label(g_cell), field, g.get(field),
                                a.get(field)))
    return diffs


def run_bench(bench):
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("SQLCLASS_")}
    with tempfile.TemporaryDirectory() as tmp:
        dump = os.path.join(tmp, "paper.json")
        proc = subprocess.run([bench, "--smoke", "--dump=" + dump], env=env,
                              stdout=subprocess.DEVNULL)
        if proc.returncode != 0:
            print("%s --smoke exited %d" % (bench, proc.returncode))
            return None
        with open(dump) as f:
            return json.load(f)


def self_test(golden):
    def bump_sim(cells):
        cell = next(c for c in cells if c["sim_s"] > 0)
        cell["sim_s"] *= 1.01

    def bump_counter(cells):
        cells[-1]["cost"]["mw_cc_updates"] += 1

    def flip_hash(cells):
        h = cells[0]["tree_hash"]
        cells[0]["tree_hash"] = h[:-1] + ("0" if h[-1] != "0" else "1")

    def reorder(cells):
        cells[0], cells[1] = cells[1], cells[0]

    def scale_wall(cells):
        for cell in cells:
            cell["wall_s"] *= 10
            if "build_wall_s" in cell["extra"]:
                cell["extra"]["build_wall_s"] *= 10

    cases = [("sim_s x1.01", bump_sim, True),
             ("counter +1", bump_counter, True),
             ("tree_hash flipped", flip_hash, True),
             ("dropped cell", lambda cells: cells.pop(len(cells) // 2), True),
             ("reordered cells", reorder, True),
             ("wall fields x10", scale_wall, False)]
    failed = 0
    for name, edit, must_fail in cases:
        edited = copy.deepcopy(golden)
        edit(edited["cells"])
        diffs = compare(golden, edited)
        ok = bool(diffs) == must_fail
        failed += not ok
        print("self-test %s: %s (%s)" % ("OK" if ok else "FAILED", name,
                                         diffs[0] if diffs else "match"))
    cells = golden["cells"]
    idle = [k for k in cells[0]["cost"]
            if k not in UNCHARGED and not any(c["cost"][k] > 0 for c in cells)]
    failed += bool(idle)
    print("self-test %s: every cost counter charged by some cell (%s; "
          "index_rows_inserted exempt: no grow charges it, the artifact "
          "builds do, inside extra.build_sim_s)"
          % ("FAILED" if idle else "OK",
             "never charged: " + ", ".join(idle) if idle else "all charged"))
    return 1 if failed else 0


def main():
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--bench", help="path to the bench_paper binary")
    parser.add_argument("--golden", default=os.path.join(
        root, "bench", "paper_smoke_golden.json"))
    parser.add_argument("--self-test", action="store_true",
                        help="check the comparison on perturbed goldens")
    args = parser.parse_args()
    with open(args.golden) as f:
        golden = json.load(f)
    if args.self_test:
        return self_test(golden)
    if not args.bench:
        parser.error("--bench is required")
    actual = run_bench(args.bench)
    if actual is None:
        return 2
    diffs = compare(golden, actual)
    print("\n".join(diffs + ["paper golden: %d cells, %d difference(s)"
                             % (len(golden["cells"]), len(diffs))]))
    return 1 if diffs else 0


if __name__ == "__main__":
    sys.exit(main())
