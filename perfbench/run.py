#!/usr/bin/env python3
"""The repository benchmark: builds the harness, runs one workload, checks
its outputs and prints the metrics.

    python3 perfbench/run.py --workload census_scan --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --self-test

Run from the root of a checkout. The first run configures and builds the
library and the harness under .bench_build/perfbench. The last line of
standard output is one JSON object: {"correct", "attempted", "failed",
"metrics"}. With --trace 0 the metrics are the end-to-end ones, with
--trace 1 the per-layer ones. The lines before it give the same numbers
for a reader, together with host and input facts and the verdict of each
check. The exit code is 0 only when every check passed. NOTES.md explains
the workloads and the metrics.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
BINARY = BUILD / "perfbench"
RECORDS = BUILD / "records"
TRACES = BUILD / "traces"
RUN_TIMEOUT_S = 150

CENSUS = ("census_scan", "census_bitmap", "census_sharded")
WORKLOADS = CENSUS + ("service_mixed",)

END_TO_END = {
    "model_s": "s",
    "model_s_p75": "s",
    "models_per_s": "1/s",
    "sim_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

COST_FIELDS = (
    "server_scans", "server_rows_evaluated", "cursor_rows_transferred",
    "cursor_values_transferred", "server_groupby_rows",
    "temp_table_rows_written", "index_probes", "index_rows_inserted",
    "result_rows_returned", "mw_file_rows_written", "mw_file_rows_read",
    "mw_memory_rows_read", "mw_cc_updates", "mw_bitmap_words_read",
    "mw_bitmap_and_ops", "mw_bitmap_popcounts", "mw_sample_rows_read",
    "mw_shard_rows_read", "mw_shard_merge_cells",
)

PATHS = ("server", "file", "memory", "bitmap", "shard")

PER_LAYER = dict(
    [
        ("mining.client_pct", "%"),
        ("mining.requests", "count"),
        ("mining.rounds", "count"),
        ("middleware.fulfill_pct", "%"),
        ("middleware.batches", "count"),
        ("middleware.batch_ms_p50", "ms"),
        ("middleware.batch_ms_p90", "ms"),
    ]
    + [(f"middleware.{p}_pct", "%") for p in PATHS]
    + [(f"middleware.rows_scanned.{p}", "count") for p in PATHS[:3]]
    + [
        ("middleware.staged_files", "count"),
        ("middleware.memory_stores", "count"),
        ("middleware.file_splits", "count"),
        ("middleware.stores_evicted", "count"),
        ("middleware.fallbacks", "count"),
        ("middleware.scan_retries", "count"),
    ]
    + [(f"server.cost.{f}", "count") for f in COST_FIELDS]
    + [
        ("storage.pages_read", "count"),
        ("storage.pages_written", "count"),
        ("storage.checksum_failures", "count"),
        ("storage.cursor_rows_per_s", "1/s"),
        ("mining.cc_add_rows_per_s", "1/s"),
        ("middleware.parallel_scan_rows_per_s.t1", "1/s"),
        ("middleware.parallel_scan_rows_per_s.tmax", "1/s"),
        ("middleware.parallel_scan_speedup", "x"),
        ("middleware.bitmap_root_ms", "ms"),
        ("shard.root_pass_ms", "ms"),
        ("service.scans", "count"),
        ("service.merge_ratio", "ratio"),
        ("service.sessions_per_scan", "ratio"),
        ("service.rows_scanned", "count"),
        ("service.queue_wait_pct", "%"),
        ("service.run_pct", "%"),
        ("service.scan_retries", "count"),
        ("service.scan_failures", "count"),
        ("service.sessions_rejected", "count"),
        ("setup.load_s", "s"),
        ("setup.bitmap_build_pct", "%"),
        ("setup.shard_build_pct", "%"),
        ("trace_overhead_pct", "%"),
        ("failed_frac", "ratio"),
    ]
)


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def p75(values):
    return statistics.quantiles(values, n=4)[2] if len(values) > 1 else values[0]


def p90(values):
    return statistics.quantiles(values, n=10)[8] if len(values) > 1 else values[0]


# ----------------------------------------------------------------- build/run


def build():
    """Configures (first run only) and incrementally builds the binary."""
    BUILD.mkdir(parents=True, exist_ok=True)
    if not BINARY.exists():
        cmd = ["cmake", "-S", str(HERE), "-B", str(BUILD),
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, stdout=sys.stderr, check=True)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", str(BUILD), "--target",
                    "perfbench", "-j", jobs],
                   stdout=sys.stderr, check=True)


def run_workload(args):
    work = BUILD / "work" / f"{args.workload}-{os.getpid()}"
    # The library reads SQLCLASS_* overrides from the environment; the
    # benchmark measures the defaults, so none may leak in.
    env = {k: v for k, v in os.environ.items() if not k.startswith("SQLCLASS_")}
    env["TMPDIR"] = str(work)
    work.mkdir(parents=True, exist_ok=True)
    try:
        proc = subprocess.run(
            [str(BINARY), "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace),
             "--work-dir", str(work)],
            stdout=subprocess.PIPE, env=env, text=True,
            timeout=RUN_TIMEOUT_S, check=False)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if proc.returncode != 0:
        raise RuntimeError(f"{BINARY.name} exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


# -------------------------------------------------------------------- checks


def load_record(seed):
    path = RECORDS / f"seed-{seed}.json"
    return json.loads(path.read_text()) if path.exists() else {}


def save_record(seed, record):
    RECORDS.mkdir(parents=True, exist_ok=True)
    path = RECORDS / f"seed-{seed}.json"
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps(record, indent=1, sort_keys=True))
    os.replace(tmp, path)


def fidelity_of(op):
    return {"sim_s": op["sim_s"], "cost": op["cost"]}


def check_census(raw, record):
    """Model equivalence and paper fidelity of one census run.

    Returns (errors, wrong_ops, updates): readable failures, the number of
    timed grows whose model is wrong, and the entries to add to the seed's
    record. Every grow must yield one tree: the reference grow's when the
    run has one, else the one a census run at this seed recorded, else the
    warm-up's. Every grow must charge identical simulated seconds and cost
    counters, equal to what an earlier run of this workload recorded.
    """
    errors = []
    workload = raw["workload"]
    ops = raw["ops"]
    grows = raw["warmup"] + ops
    expected = (raw.get("reference_hash") or record.get("census_model")
                or raw["warmup"][0]["hash"])
    if record.get("census_model") not in (None, expected):
        errors.append(f"model {expected} differs from the census_* tree "
                      f"{record['census_model']} recorded at this seed")
    if raw["warmup"][0]["hash"] != expected:
        errors.append(f"warm-up grew model {raw['warmup'][0]['hash']}, "
                      f"expected {expected}")
    wrong = sum(1 for op in ops if op["ok"] and op["hash"] != expected)
    if wrong:
        errors.append(f"{wrong} timed grows grew a model other than {expected}")

    first = fidelity_of(grows[0])
    for i, op in enumerate(grows):
        if op["ok"] and fidelity_of(op) != first:
            errors.append(f"grow {i} charged {diff(fidelity_of(op), first)}")
    recorded = record.get(workload)
    if recorded is not None and recorded != first:
        errors.append(f"this run charged {diff(first, recorded)} recorded "
                      f"for {workload} at this seed")
    updates = {"census_model": expected, workload: first}
    return errors, wrong, updates


def check_service(raw, record):
    """Model equivalence of one service run: every session of a kind yields
    the same model, equal to the one recorded at this seed."""
    errors = []
    recorded = record.get("service_mixed", {})
    by_kind = {}
    for op in raw["warmup"] + raw["ops"]:
        if op["ok"]:
            by_kind.setdefault(op["kind"], []).append(op["hash"])
    expected = {kind: recorded.get(kind, hashes[0])
                for kind, hashes in by_kind.items()}
    for kind, hashes in by_kind.items():
        if recorded.get(kind) not in (None, hashes[0]):
            errors.append(f"{kind} model {hashes[0]} differs from "
                          f"{recorded[kind]} recorded at this seed")
        if len(set(hashes)) > 1:
            errors.append(f"{kind} sessions disagree: {sorted(set(hashes))}")
    wrong = sum(1 for op in raw["ops"]
                if op["ok"] and op["hash"] != expected[op["kind"]])
    return errors, wrong, {"service_mixed": {**recorded, **expected}}


def diff(got, want):
    """Names the fields where two fidelity records differ."""
    parts = []
    if got["sim_s"] != want["sim_s"]:
        parts.append(f"sim_s {got['sim_s']} (expected {want['sim_s']})")
    for field in COST_FIELDS:
        if got["cost"].get(field) != want["cost"].get(field):
            parts.append(f"server.cost.{field} {got['cost'].get(field)} "
                         f"(expected {want['cost'].get(field)})")
    return ", ".join(parts) or "identically"


def silent_cliffs(raw):
    """Recovery counters that a fault-free run should leave at 0, by name."""
    found = {}
    if raw["workload"] in CENSUS:
        for layer in raw["layers"]:
            for name, value in layer["faults"].items():
                if value:
                    key = f"middleware.{name}"
                    found[key] = found.get(key, 0) + value
    else:
        service = raw["service"]
        for name in ("scan_retries", "scan_failures", "bitmap_fallbacks",
                     "shard_fallbacks", "sessions_rejected",
                     "sessions_timed_out", "sessions_failed"):
            if service[name]:
                found[f"service.{name}"] = service[name]
    return found


# ------------------------------------------------------------------- metrics


def setup_seconds(setup):
    return (setup["load_ns"] + setup["bitmap_build_ns"]
            + setup["shard_build_ns"]) / 1e9


def end_to_end(raw):
    ops = [op for op in raw["ops"] if op["ok"] and not op["traced"]]
    walls = [op["wall_ns"] / 1e9 for op in ops]
    if raw["workload"] in CENSUS:
        models_per_s = len(walls) / sum(walls)
    else:
        rounds = [r for r in raw["rounds"] if not r["traced"]]
        models_per_s = len(walls) / (sum(r["wall_ns"] for r in rounds) / 1e9)
    return {
        "model_s": statistics.median(walls),
        "model_s_p75": p75(walls),
        "models_per_s": models_per_s,
        "sim_s": statistics.fmean(op["sim_s"] for op in ops),
        "setup_s": statistics.median(setup_seconds(s) for s in raw["setups"]),
        "peak_rss_mb": raw["peak_rss_mb"],
    }


def span_durations(spans):
    return [(s["end_ns"] - s["start_ns"]) / 1e9 for s in spans]


def self_times(spans):
    """Each span's duration minus the time its direct children cover."""
    own = span_durations(spans)
    for span, duration in zip(spans, own[:]):
        if span["parent"]:
            own[span["parent"] - 1] -= duration
    return own


def write_spans(raw):
    TRACES.mkdir(parents=True, exist_ok=True)
    path = TRACES / f"{raw['workload']}-seed{raw['seed']}.jsonl"
    own = self_times(raw["spans"])
    with open(path, "w") as out:
        for i, (span, self_s) in enumerate(zip(raw["spans"], own), start=1):
            out.write(json.dumps({"id": i, **span, "self_ns": round(self_s * 1e9)})
                      + "\n")
    return path


def median_field(records, key):
    return statistics.median(r[key] for r in records)


def per_layer(raw, failed, attempted):
    m = dict.fromkeys(PER_LAYER, 0.0)
    census = raw["workload"] in CENSUS
    spans = raw["spans"]
    ops = [op for op in raw["ops"] if op["ok"]]

    if census:
        durations = span_durations(spans)
        own = self_times(spans)
        grows = [i for i, s in enumerate(spans) if s["name"] == "grow"]
        fulfills = [i for i, s in enumerate(spans) if s["name"] == "fulfill"]
        grow_total = sum(durations[i] for i in grows)
        m["mining.client_pct"] = 100 * sum(own[i] for i in grows) / grow_total
        m["middleware.fulfill_pct"] = (
            100 * sum(durations[i] for i in fulfills) / grow_total)
        for path in PATHS:
            m[f"middleware.{path}_pct"] = 100 * sum(
                durations[i] for i in fulfills
                if spans[i]["path"] == path) / grow_total
        batch_ms = [durations[i] * 1e3 for i in fulfills]
        layers = raw["layers"]
        for key in ("requests", "rounds"):
            m[f"mining.{key}"] = median_field(layers, key)
        for key in ("batches", "staged_files", "memory_stores", "file_splits",
                    "stores_evicted", "fallbacks", "scan_retries"):
            m[f"middleware.{key}"] = median_field(layers, key)
        for path in PATHS[:3]:
            m[f"middleware.rows_scanned.{path}"] = median_field(
                layers, f"rows_{path}")
        for field in COST_FIELDS:
            m[f"server.cost.{field}"] = ops[0]["cost"][field]
        for key in ("pages_read", "pages_written", "checksum_failures"):
            m[f"storage.{key}"] = median_field([l["io"] for l in layers], key)
    else:
        sessions = len(ops)
        service = raw["service"]
        m["mining.requests"] = statistics.fmean(op["requests"] for op in ops)
        batch_ms = [op["run_us"] / 1e3 / op["scans"] for op in ops if op["scans"]]
        for field in COST_FIELDS:
            m[f"server.cost.{field}"] = raw["server_cost"][field] / sessions
        for key in ("pages_read", "pages_written", "checksum_failures"):
            m[f"storage.{key}"] = raw["server_io"][key] / sessions
        latency_us = sum(op["wall_ns"] for op in ops) / 1e3
        m["service.scans"] = service["scans"] / sessions
        m["service.merge_ratio"] = (service["requests_fulfilled"]
                                    / service["scans"])
        m["service.sessions_per_scan"] = (service["scan_session_slots"]
                                          / service["scans"])
        m["service.rows_scanned"] = service["rows_scanned"] / sessions
        m["service.queue_wait_pct"] = (
            100 * sum(op["queue_wait_us"] for op in ops) / latency_us)
        m["service.run_pct"] = 100 * sum(op["run_us"] for op in ops) / latency_us
        for key in ("scan_retries", "scan_failures", "sessions_rejected"):
            m[f"service.{key}"] = service[key]
    m["middleware.batch_ms_p50"] = statistics.median(batch_ms)
    m["middleware.batch_ms_p90"] = p90(batch_ms)

    probes = raw["probes"]
    rows = probes["rows"]

    def rate(key):
        return rows / (statistics.median(probes[key]) / 1e9)

    m["storage.cursor_rows_per_s"] = rate("cursor_ns")
    m["mining.cc_add_rows_per_s"] = rate("add_row_ns")
    m["middleware.parallel_scan_rows_per_s.t1"] = rate("parallel_t1_ns")
    m["middleware.parallel_scan_rows_per_s.tmax"] = rate("parallel_tmax_ns")
    m["middleware.parallel_scan_speedup"] = (
        rate("parallel_tmax_ns") / rate("parallel_t1_ns"))
    m["middleware.bitmap_root_ms"] = statistics.median(probes["bitmap_root_ns"]) / 1e6
    m["shard.root_pass_ms"] = statistics.median(probes["shard_root_ns"]) / 1e6

    setups = raw["setups"]
    m["setup.load_s"] = statistics.median(s["load_ns"] for s in setups) / 1e9
    m["setup.bitmap_build_pct"] = statistics.median(
        100 * s["bitmap_build_ns"] / 1e9 / setup_seconds(s) for s in setups)
    m["setup.shard_build_pct"] = statistics.median(
        100 * s["shard_build_ns"] / 1e9 / setup_seconds(s) for s in setups)

    traced = [op["wall_ns"] for op in ops if op["traced"]]
    untraced = [op["wall_ns"] for op in ops if not op["traced"]]
    m["trace_overhead_pct"] = 100 * (
        statistics.median(traced) / statistics.median(untraced) - 1)
    m["failed_frac"] = failed / attempted
    return m


# ---------------------------------------------------------------------- main


def evaluate(raw, record):
    """Checks one run. Returns (errors, attempted, failed, record updates)."""
    checker = check_census if raw["workload"] in CENSUS else check_service
    errors, wrong, updates = checker(raw, record)
    attempted = len(raw["ops"])
    failed = sum(1 for op in raw["ops"] if not op["ok"]) + wrong
    if failed:
        errors.append(f"{failed} of {attempted} models failed or were wrong")
    if raw["trace"] and not raw["probes"]["root_cc_agree"]:
        errors.append("a layer probe built a root CC table unlike AddRow's")
    return errors, attempted, failed, updates


def report(raw, metrics, units, errors, cliffs):
    ops = raw["ops"]
    facts = dict(raw["facts"])
    facts.update(seed=raw["seed"], rows=raw["rows"], timed_models=len(ops))
    if raw["workload"] in CENSUS:
        facts.update(data_mb=round(raw["data_mb"], 2),
                     memory_budget_bytes=raw["memory_budget_bytes"],
                     max_depth=raw["max_depth"],
                     tree_hash=raw["warmup"][0]["hash"])
    else:
        facts.update(clients=raw["clients"],
                     sessions_by_kind={k: sum(op["kind"] == k for op in ops)
                                       for k in sorted({op["kind"] for op in ops})})
    print(f"# perfbench {raw['workload']} trace={int(raw['trace'])}")
    for key, value in facts.items():
        print(f"#   {key}: {value}")
    for name, value in metrics.items():
        print(f"  {name:44s} {value:16.6f} {units[name]}")
    for name, value in cliffs.items():
        print(f"WARNING silent cliff: {name} = {value} on a fault-free run")
    for error in errors:
        print(f"CHECK FAILED: {error}")
    if not errors:
        print("checks passed: model equivalence, paper fidelity, probes")


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true",
                        help="check that the checks catch perturbed outputs")
    args = parser.parse_args(argv)
    if args.self_test:
        sys.dont_write_bytecode = True
        import selftest
        return selftest.main()
    if args.workload is None:
        parser.error("--workload is required")

    try:
        build()
        raw = run_workload(args)
    except (subprocess.SubprocessError, RuntimeError, OSError, ValueError) as e:
        log(f"perfbench: {e}")
        return 1

    record = load_record(args.seed)
    errors, attempted, failed, updates = evaluate(raw, record)
    cliffs = silent_cliffs(raw)
    if args.trace:
        metrics = per_layer(raw, failed, attempted)
        units = PER_LAYER
        log(f"perfbench: spans written to {write_spans(raw)}")
    else:
        metrics = end_to_end(raw)
        units = END_TO_END
    if not errors:
        save_record(args.seed, {**record, **updates})
    report(raw, metrics, units, errors, cliffs)
    print(json.dumps({
        "correct": not errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0 if not errors else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
