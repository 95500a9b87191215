"""mfvc benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 25 --trace 0

Run from the root of a checkout (the program is read from src/, nothing
is installed).  Workloads: sweep, large, oracle, numeric; see NOTES.md.

--trace 0 runs the workload in a fresh interpreter, single-threaded, in a
closed loop, and prints the end-to-end metrics.  Set-up time is the import
of mfvc.cli with numpy and the numeric kernels by fresh interpreters, timed
under the speed sampler, half of them before the workload and half after.
--trace 1 prints the per-layer metrics of a traced round instead, with the
tracing overhead, and writes the spans to .perfbench_out/.

The last line of stdout is one JSON object: correct, attempted, failed and
metrics.  Exit code 0 when every output checked out, 1 when some did not,
2 when the benchmark could not run at all (no result line then).
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from worker import END_TO_END, PER_LAYER  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

# Timed imports before the workload, and as many after it, so that they fall
# in different phases of a shared host's speed.
SETUP_RUNS = 5
# Run in each fresh interpreter: the import of the program, timed in
# reference seconds (see calibrate.py) and in wall-clock seconds.  The clock
# starts before calibrate is imported, so the modules it shares with the
# program (fractions, decimal) stay inside the timed import.
SETUP_CHILD = f"""
from time import perf_counter
t0 = perf_counter()
import sys
sys.path.insert(0, {HERE!r})
import calibrate
sampler = calibrate.SpeedSampler().start()
import mfvc.cli, mfvc.compare, mfvc.transport
t1 = perf_counter()
sampler.stop()
print(sampler.reference_seconds(t0, t1), t1 - t0)
"""
RUN_LIMIT_S = 160  # every run must end within 180 s, set-up after the workload included


def child_env():
    """Environment of every child: one BLAS/OpenMP thread, fixed hashing,
    the program taken from src/, bytecode caches written as a user's would
    be, and the default kernel backend."""
    env = dict(os.environ)
    for var in ("MFVC_BACKEND", "THREADS", "PYTHONDONTWRITEBYTECODE"):
        env.pop(var, None)
    src = os.path.join(ROOT, "src")
    env.update({
        "OPENBLAS_NUM_THREADS": "1",
        "OMP_NUM_THREADS": "1",
        "MKL_NUM_THREADS": "1",
        "PYTHONHASHSEED": "0",
        "PYTHONPATH": src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""),
    })
    return env


def git_sha():
    """The checkout's commit, read from .git without running git; "none"
    outside a git working tree."""
    head_path = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head_path) as fh:
            head = fh.read().strip()
        if head.startswith("ref: "):
            with open(os.path.join(ROOT, ".git", head[5:])) as fh:
                return fh.read().strip()
        return head
    except OSError:
        return "none"


def import_times(env, runs):
    """(reference, wall-clock) import times of `runs` fresh interpreters."""
    times = []
    for _ in range(runs):
        proc = subprocess.run([sys.executable, "-c", SETUP_CHILD], env=env, cwd=ROOT,
                              capture_output=True, text=True, timeout=60)
        if proc.returncode != 0:
            raise RuntimeError(f"cannot import the program:\n{proc.stderr}")
        times.append(tuple(map(float, proc.stdout.split())))
    return times


def report(res, args, setup, names):
    """Human-readable lines before the result line."""
    env = res["env"]
    print(f"mfvc benchmark: workload {args.workload}, seed {args.seed}, trace {args.trace}; "
          f"closed loop, 1 client, single thread")
    print(f"environment: nproc {len(os.sched_getaffinity(0))}, python {env['python']}, "
          f"numpy {env['numpy']}, numba {env['numba']}, kernel backend {env['mfvc_backend']}, "
          f"git {git_sha()}")
    if args.trace == 0:
        print(f"rounds {res['rounds']} of {res['items_per_round']} items; "
              f"item_tail_s is p{res['tail_percentile']} of {res['items_per_round']} "
              f"per-item medians")
        raw = res["raw"]
        print(f"host slowdown {res['slowdown']:.3f} against reference speed; "
              f"the same figures in wall-clock seconds:")
        print("wall clock", json.dumps({"setup_s": setup[1], "wall_s": raw["wall_s"],
                                        "item_p50_s": raw["item_p50_s"],
                                        "item_tail_s": raw["item_tail_s"]}))
        if args.workload == "large":
            for key, seconds in sorted(res["item_seconds"].items()):
                print(f"  item {key}: {seconds:.4f} s (wall clock {raw['item_seconds'][key]:.4f} s)")
    for name, unit in names:
        value = setup[0] if name == "setup_s" else res["metrics"][name]
        print(f"  {name:<42} {value:>14.6g} {unit}")
    print(f"fail_ratio {res['failed']}/{res['attempted']} = "
          f"{res['failed'] / res['attempted']:.4f}")
    if res["known_defects"]:
        print(f"known defect: numeric_morsification_check ok false on "
              f"{res['known_defects']}/{res['attempted']} items (as recorded at the seed commit)")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    started = perf_counter()

    if not os.path.isfile(os.path.join(ROOT, "src", "mfvc", "__init__.py")):
        print(f"error: no program at {os.path.join(ROOT, 'src', 'mfvc')}", file=sys.stderr)
        return 2
    env = child_env()
    try:
        # the first interpreter writes the bytecode caches and is not timed
        setup = import_times(env, SETUP_RUNS + 1)[1:] if args.trace == 0 else None
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
    try:
        proc = subprocess.run(cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=max(1.0, RUN_LIMIT_S - (perf_counter() - started)))
    except subprocess.TimeoutExpired:
        print("error: the workload did not finish in time", file=sys.stderr)
        return 2
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        print(f"error: the workload exited with code {proc.returncode}", file=sys.stderr)
        return 2
    res = json.loads(lines[-1])
    if setup is not None:
        try:
            setup += import_times(env, SETUP_RUNS)
        except (RuntimeError, subprocess.TimeoutExpired) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        setup = tuple(statistics.median(column) for column in zip(*setup))

    names = [("setup_s", "s"), *END_TO_END] if args.trace == 0 else PER_LAYER
    report(res, args, setup, names)
    metrics = {name: {"value": setup[0] if name == "setup_s" else res["metrics"][name], "unit": unit}
               for name, unit in names}
    correct = res["failed"] == 0
    print(json.dumps({"correct": correct, "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
