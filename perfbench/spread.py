"""Run-to-run spread of the end-to-end metrics, across seeds.

    python3 perfbench/spread.py --seeds 10 [--trace] [--out FILE]
    python3 perfbench/spread.py --compare FIRST.json SECOND.json

Runs run.py once per workload and seed (seeds 1..N), for every workload of
BENCHMARK.json and for its run_seconds.  It then prints, for each
end-to-end metric, the median with its unit and the distance between the
first and third quartile as a share of the median, next to the metric's
bound, and each workload's fail_ratio.  Every spread should stay below a
third of its bound.  The same spread of the wall-clock figures is printed
beside it (the metrics are in reference seconds, see calibrate.py), and
--out stores both series.  --compare checks that no median of SECOND is
worse than FIRST's by more than the bound.  --trace also makes one traced
run per workload and stores its per-layer metrics in the output.
"""

import argparse
import importlib.util
import json
import os
import platform
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import stats  # noqa: E402
from run import git_sha  # noqa: E402


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def run_once(workload, seed, seconds, trace):
    """run.py's result line, and its wall-clock figures (trace 0 only)."""
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=200)
    if proc.returncode not in (0, 1):  # 1: some outputs failed their checks
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stdout}")
    lines = proc.stdout.strip().splitlines()
    wall_clock = [json.loads(line.split(" ", 2)[2]) for line in lines
                  if line.startswith("wall clock {")]
    return json.loads(lines[-1]), (wall_clock[0] if wall_clock else None)


def median_and_spread(runs, names):
    values = {name: [r[name] for r in runs] for name in names}
    return ({name: statistics.median(v) for name, v in values.items()},
            {name: stats.quartile_spread(v) if len(v) > 1 else None for name, v in values.items()})


def measure(args, spec):
    import numpy

    out = {
        "git": git_sha(),
        "env": {
            "nproc": len(os.sched_getaffinity(0)),
            "machine": platform.machine(),
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "numba": "present" if importlib.util.find_spec("numba") else "absent",
        },
        "seconds": spec["run_seconds"],
        "seeds": args.seeds,
        "workloads": {},
    }
    for workload in (w["name"] for w in spec["workloads"]):
        runs, wall_clock_runs = [], []
        entry = {"attempted": 0, "failed": 0}
        for seed in range(1, args.seeds + 1):
            result, wall_clock = run_once(workload, seed, spec["run_seconds"], 0)
            entry["attempted"] += result["attempted"]
            entry["failed"] += result["failed"]
            runs.append({name: m["value"] for name, m in result["metrics"].items()})
            wall_clock_runs.append(wall_clock)
            print(workload, seed, json.dumps(runs[-1]), flush=True)
        entry["runs"] = runs
        entry["median"], entry["spread"] = median_and_spread(
            runs, [m["name"] for m in spec["end_to_end"]])
        entry["wall_clock_runs"] = wall_clock_runs
        entry["wall_clock_median"], entry["wall_clock_spread"] = median_and_spread(
            wall_clock_runs, list(wall_clock_runs[0]))
        if args.trace:
            result, _ = run_once(workload, 1, spec["run_seconds"], 1)
            entry["per_layer"] = {name: m["value"] for name, m in result["metrics"].items()}
        out["workloads"][workload] = entry
    return out


def print_spread(summary, spec):
    ok = True
    for workload, entry in summary["workloads"].items():
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            spread = entry["spread"][name]
            steady = spread is None or spread < bound / 3
            ok &= steady
            shown = "      -" if spread is None else f"{spread:7.4f}"
            wall_clock = entry["wall_clock_spread"].get(name)
            wall_clock = "" if wall_clock is None else f"  (wall clock {wall_clock:.4f})"
            print(f"{workload:<8} {name:<12} median {entry['median'][name]:>12.6g} "
                  f"{metric['unit']:<3} spread {shown}  bound {bound:.2f}  "
                  f"{'ok' if steady else 'WIDE'}{wall_clock}")
        ok &= entry["failed"] == 0
        print(f"{workload:<8} fail_ratio   {entry['failed']}/{entry['attempted']} = "
              f"{entry['failed'] / entry['attempted']:.4f}")
    return ok


def compare(first, second, spec):
    ok = True
    for workload, entry in second["workloads"].items():
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            a, b = first["workloads"][workload]["median"][name], entry["median"][name]
            worse = (b - a) / a if metric["better"] == "lower" else (a - b) / a
            ok &= worse <= bound
            print(f"{workload:<8} {name:<12} {a:>12.6g} -> {b:>12.6g}  worse by {worse:+.4f}  "
                  f"bound {bound:.2f}  {'ok' if worse <= bound else 'REGRESSED'}")
    return ok


def main():
    spec = load_spec()
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--out", default=None)
    ap.add_argument("--compare", nargs=2, metavar=("FIRST", "SECOND"))
    args = ap.parse_args()
    if args.compare:
        summaries = []
        for path in args.compare:
            with open(path) as fh:
                summaries.append(json.load(fh))
        return 0 if compare(*summaries, spec) else 1
    summary = measure(args, spec)
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(summary, fh, indent=1, sort_keys=True)
            fh.write("\n")
    return 0 if print_spread(summary, spec) else 1


if __name__ == "__main__":
    sys.exit(main())
