#!/usr/bin/env python3
"""Runs the repository benchmark alternately in two checkouts and summarises
the end-to-end metrics of each side.

    scripts/compare_perfbench.py BASE_DIR CHANGE_DIR --pairs 10 --seed 7 \\
        --seconds 15 --out BENCH_cc_layout.json

Each pair runs every workload once per checkout (`perfbench/run.py
--trace 0`), base first in even pairs and change first in odd ones, so slow
drift on the host hits both sides alike. Before the change's first run at
the seed, the base's record of that seed is copied into the change's
checkout, so perfbench's paper-fidelity check compares the change's trees,
simulated seconds and cost counters with the base's. The JSON holds, per
workload and metric, each side's median and quartiles, the number of pairs
the change won and the median and IQR of the per-pair change/base ratios,
plus every run's raw metrics and the host's steal share during it (from
/proc/stat, where the host has one). The ratios are printed at the end:
on a shared host the level of both sides drifts with steal, while the
ratio within a pair moves far less. The base's IQR stays the bar a median
gain must clear; the ratio IQR printed next to it shows how much of that
spread is drift both sides shared.

A run that prints no result line (a crash, an OOM kill) is recorded as
incorrect, with its exit code and no metrics, and the pairs go on; the
summaries use the runs that have each metric. `--self-test` runs the
comparison against stub checkouts whose change side prints nothing and
checks that every run is recorded and the exit status is 1, then runs a
pair of stubs whose level doubles from one pair to the next and checks that
the ratio IQR is 0 while the base IQR is not.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

WORKLOADS = ("census_scan", "census_bitmap", "census_sharded", "service_mixed")
HIGHER_IS_BETTER = {"models_per_s"}
RECORDS = Path(".bench_build/perfbench/records")


def cpu_times():
    """(steal, total) jiffies of all CPUs, or None without /proc/stat."""
    try:
        with open("/proc/stat") as stat:
            fields = [int(v) for v in stat.readline().split()[1:9]]
    except (OSError, ValueError):
        return None
    return fields[7], sum(fields)


def steal_share(before, after):
    if before is None or after is None or after[1] == before[1]:
        return None
    return (after[0] - before[0]) / (after[1] - before[1])


def run(checkout, workload, args):
    before = cpu_times()
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(args.seed), "--seconds", str(args.seconds),
         "--trace", "0"],
        cwd=checkout, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
        text=True, check=False)
    steal = steal_share(before, cpu_times())
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
        metrics = {k: v["value"] for k, v in result["metrics"].items()}
        correct = bool(result["correct"]) and proc.returncode == 0
    except (IndexError, KeyError, TypeError, AttributeError, ValueError):
        metrics, correct = {}, False
    return {"correct": correct, "exit_code": proc.returncode, "steal": steal,
            "metrics": metrics}


def share_record(base, change, seed):
    name = f"seed-{seed}.json"
    if (change / RECORDS / name).exists() or not (base / RECORDS / name).exists():
        return
    (change / RECORDS).mkdir(parents=True, exist_ok=True)
    shutil.copy(base / RECORDS / name, change / RECORDS / name)


def summarise(values):
    if not values:
        return None
    if len(values) == 1:
        return {"median": values[0], "q1": values[0], "q3": values[0]}
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def compare(args):
    runs = []
    for pair in range(args.pairs):
        for workload in args.workloads:
            sides = ("base", "change") if pair % 2 == 0 else ("change", "base")
            for side in sides:
                if side == "change":
                    share_record(args.base, args.change, args.seed)
                result = run(getattr(args, side), workload, args)
                runs.append({"pair": pair, "workload": workload, "side": side,
                             **result})
                steal = result["steal"]
                model_s = result["metrics"].get("model_s")
                print(f"pair {pair} {workload:15s} {side:6s} "
                      f"correct={result['correct']} "
                      f"exit={result['exit_code']} "
                      f"model_s={'n/a' if model_s is None else f'{model_s:.3f}'} "
                      f"steal={'n/a' if steal is None else f'{steal:.1%}'}",
                      flush=True)

    summary = {}
    for workload in args.workloads:
        mine = [r for r in runs if r["workload"] == workload]
        # side -> pair -> metrics, for the runs that printed a result.
        by_side = {side: {r["pair"]: r["metrics"] for r in mine
                          if r["side"] == side}
                   for side in ("base", "change")}
        steals = [r["steal"] for r in mine if r["steal"] is not None]
        summary[workload] = {
            "all_correct": all(r["correct"] for r in mine),
            "failed_runs": sum(not r["metrics"] for r in mine),
            "steal_median": statistics.median(steals) if steals else None,
        }
        metrics = sorted({m for r in mine for m in r["metrics"]})
        for metric in metrics:
            def values(side):
                return {p: m[metric] for p, m in by_side[side].items()
                        if metric in m}
            base, change = values("base"), values("change")
            pairs = [(change[p], base[p]) for p in sorted(base)
                     if p in change]
            better = (lambda c, b: c > b) if metric in HIGHER_IS_BETTER else (
                lambda c, b: c < b)
            ratios = [c / b for c, b in pairs if b != 0]
            spread = summarise(ratios)
            summary[workload][metric] = {
                "base": summarise(list(base.values())),
                "change": summarise(list(change.values())),
                "change_wins": sum(better(c, b) for c, b in pairs),
                "pair_ratios": ratios,
                "ratio_median": statistics.median(ratios) if ratios else None,
                "ratio_iqr": spread and spread["q3"] - spread["q1"],
            }
    args.out.write_text(json.dumps({
        "bench": "perfbench pairs",
        "base": args.base_label, "change": args.change_label,
        "nproc": os.cpu_count(), "seed": args.seed, "seconds": args.seconds,
        "pairs": args.pairs,
        "summary": summary, "runs": runs}, indent=1) + "\n")
    end_to_end = [m["name"] for m in json.loads(
        (args.change / "BENCHMARK.json").read_text())["end_to_end"]]
    print(f"\n{'workload':15s} {'metric':13s} {'base':>9s} {'change':>9s} "
          f"{'base IQR':>9s} {'ratio':>7s} {'rat IQR':>7s}  won   steal")
    for workload, metrics in summary.items():
        steal = metrics["steal_median"]
        for metric in end_to_end:
            row = metrics.get(metric)
            if row is None:
                continue
            ratio, ratio_iqr = row["ratio_median"], row["ratio_iqr"]
            base, change = row["base"], row["change"]
            print(f"{workload:15s} {metric:13s} "
                  f"{fmt(base, lambda s: s['median'], '9.4g')} "
                  f"{fmt(change, lambda s: s['median'], '9.4g')} "
                  f"{fmt(base, lambda s: s['q3'] - s['q1'], '9.3g')} "
                  f"{'n/a' if ratio is None else f'{ratio:.3f}':>7s} "
                  f"{'n/a' if ratio_iqr is None else f'{ratio_iqr:.3f}':>7s}  "
                  f"{row['change_wins']}/{args.pairs}  "
                  f"{'n/a' if steal is None else f'{steal:.1%}'}")
    return 0 if all(s["all_correct"] for s in summary.values()) else 1


def fmt(stats, pick, spec):
    return f"{'n/a':>9s}" if stats is None else format(pick(stats), spec)


STUB_RESULT = ('print(\'{"correct": true, "metrics": '
               '{"model_s": {"value": 0.2}}}\')\n')

# Doubles its model_s on every run, as a host that drifts between pairs.
DRIFT_STUB = """import json, pathlib
runs = pathlib.Path("runs")
n = int(runs.read_text()) if runs.exists() else 0
runs.write_text(str(n + 1))
print(json.dumps({"correct": True,
                  "metrics": {"model_s": {"value": LEVEL * 2 ** n}}}))
"""


def run_stubs(root, bodies, pairs):
    """compare() over stub checkouts whose perfbench/run.py is `bodies`."""
    for side, body in bodies.items():
        (root / side / "perfbench").mkdir(parents=True)
        (root / side / "perfbench" / "run.py").write_text(body)
        (root / side / "BENCHMARK.json").write_text(
            json.dumps({"end_to_end": [{"name": "model_s"}]}))
    args = argparse.Namespace(
        base=root / "base", change=root / "change", pairs=pairs, seed=7,
        seconds=1, workloads=["census_scan"], out=root / "out.json",
        base_label="base", change_label="change")
    status = compare(args)
    return status, json.loads(args.out.read_text())


def self_test():
    """Silent change stubs are recorded as failed runs; a drifting host
    spreads the base but not the per-pair ratios."""
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        status, record = run_stubs(
            root / "silent",
            {"base": STUB_RESULT, "change": "import sys\nsys.exit(137)\n"},
            pairs=2)
        drift_status, drift = run_stubs(
            root / "drift",
            {"base": DRIFT_STUB.replace("LEVEL", "0.2"),
             "change": DRIFT_STUB.replace("LEVEL", "0.1")},
            pairs=4)
    runs = record["runs"]
    summary = record["summary"]["census_scan"]
    drifted = drift["summary"]["census_scan"]["model_s"]
    checks = [
        ("exit status 1", status == 1),
        ("all four runs recorded", len(runs) == 4),
        ("silent runs incorrect with exit code 137",
         all(not r["correct"] and r["exit_code"] == 137 and not r["metrics"]
             for r in runs if r["side"] == "change")),
        ("result runs correct", all(r["correct"] for r in runs
                                    if r["side"] == "base")),
        ("two failed runs counted", summary["failed_runs"] == 2),
        ("base summarised alone", summary["model_s"]["change"] is None and
         summary["model_s"]["base"]["median"] == 0.2),
        ("no ratio IQR without pairs", summary["model_s"]["ratio_iqr"] is None),
        ("drifting pairs exit 0", drift_status == 0),
        ("drift spreads the base",
         drifted["base"]["q3"] - drifted["base"]["q1"] > 0.5),
        ("per-pair ratios steady under drift",
         drifted["ratio_iqr"] == 0 and drifted["ratio_median"] == 0.5 and
         drifted["change_wins"] == 4),
    ]
    for name, ok in checks:
        print(f"self-test {'OK' if ok else 'FAILED'}: {name}")
    return 0 if all(ok for _, ok in checks) else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base", type=Path, nargs="?")
    parser.add_argument("change", type=Path, nargs="?")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=15)
    parser.add_argument("--workloads", nargs="+", default=list(WORKLOADS))
    parser.add_argument("--out", type=Path)
    parser.add_argument("--base-label", default="base")
    parser.add_argument("--change-label", default="change")
    parser.add_argument("--self-test", action="store_true",
                        help="check failure handling on stub checkouts")
    args = parser.parse_args()
    if args.self_test:
        return self_test()
    if args.base is None or args.change is None or args.out is None:
        parser.error("BASE_DIR, CHANGE_DIR and --out are required")
    return compare(args)


if __name__ == "__main__":
    sys.exit(main())
