"""Self-test of the benchmark's own checks (python3 perfbench/run.py
--self-test): a clean synthetic run must pass, and a run with one perturbed
model signature, simulated time or cost counter must be reported as failed.
Also checks that BENCHMARK.json names exactly the metrics run.py prints."""

import copy
import json

import run


def grow(model="0123456789abcdef", sim_s=41.0):
    return {"kind": "grow", "ok": True, "traced": False, "wall_ns": 2_000_000_000,
            "sim_s": sim_s, "hash": model,
            "cost": {field: 1000 + i for i, field in enumerate(run.COST_FIELDS)},
            "queue_wait_us": 0, "run_us": 0, "scans": 0, "requests": 243}


def census_run(workload="census_scan"):
    faults = {"sql_fallbacks": 0, "scan_retries": 0}
    return {"workload": workload, "seed": 7, "trace": False,
            "warmup": [grow()], "ops": [grow() for _ in range(4)],
            "reference_hash": "" if workload == "census_scan"
            else "0123456789abcdef",
            "layers": [{"faults": dict(faults)} for _ in range(5)]}


def session(kind, model):
    return {"kind": kind, "ok": True, "traced": False, "wall_ns": 1, "sim_s": 1.0,
            "hash": model, "cost": {}, "queue_wait_us": 0, "run_us": 1,
            "scans": 1, "requests": 1}


def service_run():
    kinds = {"nb": "n0", "tree4": "t4", "tree6": "t6", "tree8": "t8"}
    return {"workload": "service_mixed", "seed": 7, "trace": False,
            "warmup": [session(k, h) for k, h in kinds.items()],
            "ops": [session(k, h) for k, h in kinds.items() for _ in range(3)],
            "service": {name: 0 for name in (
                "scan_retries", "scan_failures", "bitmap_fallbacks",
                "shard_fallbacks", "sessions_rejected", "sessions_timed_out",
                "sessions_failed")}}


def expect(label, raw, record, failed_models, needle):
    errors, _, failed, _ = run.evaluate(raw, record)
    text = "; ".join(errors)
    ok = failed == failed_models and (needle in text if needle else not errors)
    print(f"{'ok  ' if ok else 'FAIL'} {label}: failed={failed} {text}")
    return ok


def main():
    results = []
    clean = census_run()
    results.append(expect("clean census run passes", clean, {}, 0, None))
    _, _, _, updates = run.evaluate(clean, {})

    raw = census_run()
    raw["ops"][2]["hash"] = "fedcba9876543210"
    results.append(expect("perturbed tree signature", raw, {}, 1,
                          "grew a model other than"))

    raw = census_run()
    raw["ops"][1]["cost"]["mw_cc_updates"] += 1
    results.append(expect("perturbed cost counter", raw, {}, 0,
                          "server.cost.mw_cc_updates"))

    raw = census_run()
    raw["ops"][3]["sim_s"] += 1e-6
    results.append(expect("perturbed simulated seconds", raw, {}, 0, "sim_s"))

    record = copy.deepcopy(updates)
    record["census_scan"]["cost"]["server_scans"] += 1
    results.append(expect("cost differs from the seed's record", census_run(),
                          record, 0, "server.cost.server_scans"))

    results.append(expect("same tree as the seed's census record",
                          census_run("census_bitmap"), updates, 0, None))
    record = dict(updates, census_model="fedcba9876543210")
    results.append(expect("tree differs from another census workload",
                          census_run("census_sharded"), record, 0,
                          "recorded at this seed"))

    raw = census_run("census_bitmap")
    raw["reference_hash"] = "fedcba9876543210"
    results.append(expect("tree differs from the row-scan reference", raw, {},
                          4, "grew a model other than"))

    results.append(expect("clean service run passes", service_run(), {}, 0, None))
    raw = service_run()
    raw["ops"][-1]["hash"] = "other"
    results.append(expect("perturbed session model", raw, {}, 1,
                          "sessions disagree"))

    raw = census_run()
    raw["layers"][3]["faults"]["sql_fallbacks"] = 2
    cliffs = run.silent_cliffs(raw)
    ok = cliffs == {"middleware.sql_fallbacks": 2}
    print(f"{'ok  ' if ok else 'FAIL'} silent cliff named: {cliffs}")
    results.append(ok)

    manifest = run.ROOT / "BENCHMARK.json"
    if manifest.exists():
        spec = json.loads(manifest.read_text())
        ok = ({m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
              and {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
              and [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS))
        print(f"{'ok  ' if ok else 'FAIL'} BENCHMARK.json matches run.py")
        results.append(ok)

    print(f"self-test {'passed' if all(results) else 'FAILED'}")
    return 0 if all(results) else 1
