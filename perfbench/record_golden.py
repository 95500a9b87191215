"""Record golden.json: every item's output digest and each workload's exact
work counts, from the program in src/ as it stands.

    OPENBLAS_NUM_THREADS=1 PYTHONHASHSEED=0 python3 perfbench/record_golden.py

Run it only at a commit whose outputs are the reference: the benchmark
counts every later deviation from these digests as a failed item.  Items
that fail their built-in checks (a mirror check that does not pass, an
oracle mismatch, a transport row that is not ok) are refused.
"""

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import workloads  # noqa: E402
from tracing import Tracer  # noqa: E402
from worker import WORK_COUNTS, layer_metrics, run_round  # noqa: E402


def record(workload):
    items = workloads.build(workload)
    records = run_round(items, {}).records
    entries = {}
    for r in records:
        if "error" in r.obs:
            raise SystemExit(f"{r.key}: {r.obs['error']}")
        entry = workloads.golden_entry(r.obs)
        reasons, _ = workloads.check(r.obs, entry)
        if reasons:
            raise SystemExit(f"{r.key}: {'; '.join(reasons)}")
        entries[r.key] = entry
    tracer = Tracer().install()
    try:
        traced = run_round(items, entries, tracer).records
    finally:
        tracer.uninstall()
    metrics = layer_metrics(tracer, traced)
    return entries, {k: metrics[k] for k in WORK_COUNTS}


def main():
    golden = {"items": {}, "work": {}}
    for workload in workloads.WORKLOADS:
        golden["items"][workload], golden["work"][workload] = record(workload)
        print(workload, golden["work"][workload], flush=True)
    with open(os.path.join(HERE, "golden.json"), "w") as fh:
        json.dump(golden, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
