"""Run one workload in this (fresh) interpreter and print one JSON line.

Started by run.py with the environment pinned; not meant to be run by hand.
With --trace 0 it runs whole rounds of the workload's items for about
--seconds (at least one round) and reports the end-to-end figures.  With
--trace 1 it runs one untraced round, then one traced round, and reports
the per-layer metrics, the tracing overhead and the exact work counts.
Times are in seconds at reference speed (see calibrate.py); the --trace 0
result also carries the wall-clock figures under "raw".
"""

import argparse
import gc
import importlib.util
import json
import os
import random
import resource
import statistics
import sys
from array import array
from time import perf_counter

import stats
import workloads
from calibrate import SpeedSampler
from tracing import LAYERS, Tracer, inclusive_times, self_times

HERE = os.path.dirname(os.path.abspath(__file__))
TRACE_DIR = os.path.join(os.path.dirname(HERE), ".perfbench_out")

# Counts that measure the work itself; each must repeat exactly from run
# to run, and golden.json holds their values at the seed commit.
WORK_COUNTS = ("work.items", "mf.generator_morphism.calls", "mf.compose_and_identify.calls",
               "mf.is_chain_map.calls", "kernels.transport.calls", "work.rk4_steps",
               "kernels.newton.seeds")

# (name, unit) of every per-layer metric, in report order.
PER_LAYER = (
    [(f"{layer}.self_s", "s") for layer in LAYERS]
    + [(f"{layer}.errors", "count") for layer in LAYERS]
    + [
        ("mf.is_chain_map.calls", "count"), ("mf.generator_morphism.calls", "count"),
        ("mf.compose_and_identify.calls", "count"), ("mf.chain_map_space.calls", "count"),
        ("mf.is_chain_map_per_generator", "ratio"), ("mf.term_dim.max", "count"),
        ("mf.term_dim.sum", "count"),
        ("grading.group_builds", "count"), ("grading.element_builds", "count"),
        ("polyring.groebner.calls", "count"), ("polyring.groebner.basis_max", "count"),
        ("polyring.monomials_of_exact_degree.calls", "count"),
        ("polyring.monomials_distinct_ratio", "ratio"),
        ("polyring.brute_force_piece_dim.calls", "count"),
        ("linalg.rank.calls", "count"), ("linalg.nullspace.calls", "count"),
        ("linalg.solve.calls", "count"), ("linalg.subspace_ops", "count"),
        ("linalg.cells", "count"), ("linalg.cols.max", "count"),
        ("directed.extract_quiver.calls", "count"), ("directed.paths", "count"),
        ("directed.relations", "count"), ("directed.path_algebra_dimension.s", "s"),
        ("bside.hom_table.calls", "count"), ("bside.composition_table.calls", "count"),
        ("bside.objects", "count"),
        ("aside.assemble.calls", "count"), ("aside.path_schedule_per_build", "ratio"),
        ("aside.sweep_square_signs.calls", "count"), ("aside.newton.ok_ratio", "ratio"),
        ("compare.cells", "count"),
        ("cli.bytes_out", "bytes"), ("cli.mirror_check_s", "s"), ("cli.homtable_s", "s"),
        ("cli.quiver_s", "s"),
        ("transport.calls", "count"), ("transport.steps_mean", "count"),
        ("kernels.transport.calls", "count"), ("kernels.newton.seeds", "count"),
        ("kernels.newton.converged_ratio", "ratio"),
        ("work.items", "count"), ("work.rk4_steps", "count"), ("work.counts_changed", "count"),
        ("trace.wall_untraced_s", "s"), ("trace.wall_traced_s", "s"),
        ("trace.overhead_s", "s"), ("trace.spans", "count"),
    ]
)

END_TO_END = (("wall_s", "s"), ("item_p50_s", "s"), ("item_tail_s", "s"), ("peak_rss_mb", "MB"))


class Record:
    __slots__ = ("key", "start", "end", "obs", "reasons", "defect")

    def __init__(self, key, start, end, obs, reasons, defect):
        self.key, self.start, self.end, self.obs = key, start, end, obs
        self.reasons, self.defect = reasons, defect


def run_item(item, golden):
    gc.collect()  # each item starts from a clean heap, as a fresh CLI process would
    start = perf_counter()
    try:
        out = item.run()
        end = perf_counter()
        obs = item.observe(out)
    except Exception as exc:  # an item that raises is a failed item
        end = perf_counter()
        obs = {"error": f"raised {type(exc).__name__}: {exc}"}
    reasons, defect = workloads.check(obs, golden.get(item.key))
    return Record(item.key, start, end, obs, reasons, defect)


class Round:
    __slots__ = ("start", "end", "records")

    def __init__(self, start, end, records):
        self.start, self.end, self.records = start, end, records

    @property
    def seconds(self):
        return self.end - self.start


def run_round(items, golden, tracer=None):
    """Run every item once, in order."""
    records = []
    start = perf_counter()
    for i, item in enumerate(items):
        if tracer is None:
            records.append(run_item(item, golden))
            continue
        tracer.current_item = i
        span = tracer.open("bench.item")
        records.append(run_item(item, golden))
        tracer.close(span)
    return Round(start, perf_counter(), records)


def per_item_medians(rounds, seconds):
    """Each item's median over the rounds of seconds(start, end)."""
    by_key = {}
    for rnd in rounds:
        for r in rnd.records:
            by_key.setdefault(r.key, []).append(seconds(r.start, r.end))
    return {k: statistics.median(v) for k, v in by_key.items()}


def timing_metrics(rounds, seconds):
    """wall_s, item_p50_s and item_tail_s, timing intervals with seconds()."""
    medians = per_item_medians(rounds, seconds)
    pct, tail_value = stats.tail(list(medians.values()))
    return {
        "wall_s": statistics.median(seconds(rnd.start, rnd.end) for rnd in rounds),
        "item_p50_s": statistics.median(medians.values()),
        "item_tail_s": tail_value,
    }, pct, medians


def command_seconds(records, seconds):
    """Seconds per CLI command, summed over the round."""
    out = {"mirror_check": 0.0, "homtable": 0.0, "quiver": 0.0}
    for r in records:
        command = r.key.split()[0].replace("-", "_")
        if command in out:
            out[command] += seconds(r.start, r.end)
    return out


def layer_metrics(tr, traced_records, clock=None):
    """Per-layer metrics from one traced round (see PER_LAYER); span times
    are mapped through clock (perf_counter time -> seconds) if given."""
    t0, t1 = tr.t0, tr.t1
    if clock is not None:
        t0, t1 = array("d", map(clock, t0)), array("d", map(clock, t1))
    self_s = self_times(tr.names, tr.name, tr.parent, t0, t1)
    incl = inclusive_times(tr.names, tr.name, t0, t1)
    c, v = tr.calls, tr.values
    m = {}
    for layer in LAYERS:
        m[f"{layer}.self_s"] = sum(t for k, t in self_s.items() if k.split(".")[0] == layer)
        m[f"{layer}.errors"] = sum(n for k, n in tr.errors.items() if k.split(".")[0] == layer)
    m.update({
        "mf.is_chain_map.calls": c["mf.MFMorphism.is_chain_map"],
        "mf.generator_morphism.calls": c["mf.generator_morphism"],
        "mf.compose_and_identify.calls": c["mf.compose_and_identify"],
        "mf.chain_map_space.calls": c["mf.chain_map_space"],
        "mf.is_chain_map_per_generator": stats.ratio(c["mf.MFMorphism.is_chain_map"],
                                                     c["mf.generator_morphism"]),
        "mf.term_dim.max": v["mf.term_dim.max"],
        "mf.term_dim.sum": v["mf.term_dim.sum"],
        "grading.group_builds": c["grading.GradingGroup.__init__"],
        "grading.element_builds": c["grading.GroupElement.__init__"],
        "polyring.groebner.calls": c["polyring.groebner"],
        "polyring.groebner.basis_max": v["polyring.groebner.basis_max"],
        "polyring.monomials_of_exact_degree.calls": c["polyring.monomials_of_exact_degree"],
        "polyring.monomials_distinct_ratio": stats.ratio(len(tr.monomial_keys),
                                                         c["polyring.monomials_of_exact_degree"]),
        "polyring.brute_force_piece_dim.calls": c["polyring.brute_force_piece_dim"],
        "linalg.rank.calls": c["linalg.rank"],
        "linalg.nullspace.calls": c["linalg.nullspace"],
        "linalg.solve.calls": c["linalg.solve"],
        "linalg.subspace_ops": c["linalg.Subspace.add"] + c["linalg.Subspace.contains"],
        "linalg.cells": v["linalg.cells"],
        "linalg.cols.max": v["linalg.cols.max"],
        "directed.extract_quiver.calls": c["directed.extract_quiver"],
        "directed.paths": v["directed.paths"],
        "directed.relations": v["directed.relations"],
        "directed.path_algebra_dimension.s": incl["directed.path_algebra_dimension"],
        "bside.hom_table.calls": c["bside.hom_table"],
        "bside.composition_table.calls": c["bside.composition_table"],
        "bside.objects": v["bside.objects"],
        "aside.assemble.calls": c["aside.assemble_directed_algebra"],
        "aside.path_schedule_per_build": stats.ratio(c["aside.path_schedule"],
                                                     c["aside.assemble_directed_algebra"]),
        "aside.sweep_square_signs.calls": c["aside.sweep_square_signs"],
        "aside.newton.ok_ratio": stats.ratio(v["aside.newton.ok"],
                                             c["aside.numeric_morsification_check"]),
        "compare.cells": v["compare.cells"],
        "cli.bytes_out": sum(r.obs.get("bytes", 0) for r in traced_records),
        "transport.calls": c["transport.integrate_parallel_transport"],
        "transport.steps_mean": stats.ratio(v["transport.steps"],
                                            c["transport.integrate_parallel_transport"]),
        "kernels.transport.calls": c["kernels.transport"],
        "kernels.newton.seeds": v["kernels.newton.seeds"],
        "kernels.newton.converged_ratio": stats.ratio(v["kernels.newton.converged"],
                                                      v["kernels.newton.seeds"]),
        "work.items": len(traced_records),
        "work.rk4_steps": v["kernels.transport.steps"],
        "trace.spans": len(tr.t0),
    })
    return m


def environment():
    from mfvc import _kernels
    import numpy

    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "numba": "present" if importlib.util.find_spec("numba") else "absent",
        "mfvc_backend": _kernels.backend_name(),
    }


def summarize(records_list):
    records = [r for recs in records_list for r in recs]
    failed = [r for r in records if r.reasons]
    for r in failed[:5]:
        print(f"failed item {r.key}: {'; '.join(r.reasons)}", file=sys.stderr)
    return {
        "attempted": len(records),
        "failed": len(failed),
        "known_defects": sum(r.defect for r in records),
    }


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)

    # load every module before timing; set-up time is measured on its own
    importlib.import_module("mfvc.cli")
    importlib.import_module("mfvc.compare")
    importlib.import_module("mfvc.transport")
    with open(os.path.join(HERE, "golden.json")) as fh:
        golden_all = json.load(fh)
    golden = golden_all["items"][args.workload]
    items = workloads.build(args.workload)
    rng = random.Random(args.seed)
    result = {"workload": args.workload, "seed": args.seed, "env": environment()}

    if args.trace == 0:
        rounds = []
        start = perf_counter()
        sampler = SpeedSampler().start()
        try:
            while True:
                order = list(items)
                rng.shuffle(order)
                rounds.append(run_round(order, golden))
                if perf_counter() - start + rounds[-1].seconds > args.seconds:
                    break
        finally:
            sampler.stop()
        metrics, pct, medians = timing_metrics(rounds, sampler.reference_seconds)
        raw, _, raw_medians = timing_metrics(rounds, lambda t0, t1: t1 - t0)
        metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        result.update(summarize([rnd.records for rnd in rounds]))
        result.update({
            "rounds": len(rounds),
            "items_per_round": len(items),
            "tail_percentile": pct,
            "item_seconds": medians,
            "raw": dict(raw, item_seconds=raw_medians),
            "slowdown": sampler.slowdown(rounds[0].start, rounds[-1].end),
            "metrics": metrics,
        })
    else:
        order = list(items)
        rng.shuffle(order)
        sampler = SpeedSampler().start()
        try:
            untraced = run_round(order, golden)
            tracer = Tracer().install()
            try:
                traced = run_round(order, golden, tracer)
            finally:
                tracer.uninstall()
        finally:
            sampler.stop()
        ref = sampler.reference_seconds
        untraced_wall = ref(untraced.start, untraced.end)
        traced_wall = ref(traced.start, traced.end)
        untraced, traced = untraced.records, traced.records
        metrics = layer_metrics(tracer, traced, sampler.reference_time)
        metrics.update({f"cli.{k}_s": s for k, s in command_seconds(untraced, ref).items()})
        expected = golden_all["work"][args.workload]
        changed = {k: (expected.get(k), metrics[k]) for k in WORK_COUNTS
                   if expected.get(k) != metrics[k]}
        for k, (old, new) in changed.items():
            print(f"work count {k} changed: {old} at the seed commit, {new} now", file=sys.stderr)
        metrics.update({
            "work.counts_changed": len(changed),
            "trace.wall_untraced_s": untraced_wall,
            "trace.wall_traced_s": traced_wall,
            "trace.overhead_s": traced_wall - untraced_wall,
        })
        tracer.write(os.path.join(TRACE_DIR, f"trace-{args.workload}.tsv.gz"), json.dumps(result))
        result.update(summarize([untraced, traced]))
        result["metrics"] = metrics
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
