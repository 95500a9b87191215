"""Tests of the benchmark harness itself (not of mfvc).

    python3 -m pytest -q perfbench/tests
"""

import json
import os
import re
import statistics
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, BENCH)

import calibrate  # noqa: E402
import stats  # noqa: E402
import workloads  # noqa: E402
from tracing import Tracer, self_times  # noqa: E402
from worker import END_TO_END, PER_LAYER, WORK_COUNTS, run_round, summarize  # noqa: E402


# -- percentile rule ---------------------------------------------------------


@pytest.mark.parametrize("n,pct", [(75, 86), (100, 90), (150, 93), (11, 9), (10, 100), (3, 100)])
def test_tail_percentile(n, pct):
    assert stats.tail_percentile(n) == pct


def test_tail_leaves_ten_items_beyond():
    for n in range(11, 400):
        values = list(range(n))
        pct, value = stats.tail(values)
        assert sum(v > value for v in values) >= 10
        # one percentile higher would leave fewer than ten
        if pct < 99:
            assert sum(v > stats.percentile(values, pct + 1) for v in values) < 10 or \
                stats.percentile(values, pct + 1) == value


def test_tail_of_few_items_is_the_maximum():
    assert stats.tail([0.3, 0.1, 0.2]) == (100, 0.3)


def test_quartile_spread():
    assert stats.quartile_spread([1.0] * 10) == 0
    values = [9, 10, 10, 10, 10, 10, 10, 10, 10, 11]
    assert stats.quartile_spread(values) == 0
    assert stats.quartile_spread([1, 2, 3, 4, 5, 6, 7, 8]) == pytest.approx((6.75 - 2.25) / 4.5)


# -- self-time arithmetic ----------------------------------------------------


def test_self_times_subtract_children():
    # a [0,10] with children b [1,4] and c [5,6]; b has child d [2,3]
    names = ["a", "b", "c", "d"]
    name = [0, 1, 2, 3]
    parent = [-1, 0, 0, 1]
    t0 = [0.0, 1.0, 5.0, 2.0]
    t1 = [10.0, 4.0, 6.0, 3.0]
    got = self_times(names, name, parent, t0, t1)
    assert got == {"a": 6.0, "b": 2.0, "c": 1.0, "d": 1.0}
    assert sum(got.values()) == 10.0  # self times partition the root span


def test_spans_nest_and_count_errors():
    tr = Tracer()

    def inner(x):
        if x < 0:
            raise ValueError("negative")
        return x

    inner_w = tr.span_wrapper(inner, "m.inner")

    def outer(x):
        return inner_w(x) + inner_w(x)

    outer_w = tr.span_wrapper(outer, "m.outer")
    assert outer_w(2) == 4
    with pytest.raises(ValueError):
        outer_w(-1)
    assert tr.calls == {"m.outer": 2, "m.inner": 3}
    assert tr.errors == {"m.outer": 1, "m.inner": 1}
    assert list(tr.parent) == [-1, 0, 0, -1, 3]
    assert list(tr.err) == [0, 0, 0, 1, 1]
    assert tr._stack == [-1]
    st = self_times(tr.names, tr.name, tr.parent, tr.t0, tr.t1)
    outer_total = (tr.t1[0] - tr.t0[0]) + (tr.t1[3] - tr.t0[3])
    inner_total = sum(tr.t1[i] - tr.t0[i] for i in (1, 2, 4))
    assert st["m.outer"] == pytest.approx(outer_total - inner_total)


def test_install_wraps_import_sites_and_uninstall_restores():
    from mfvc import _linalg, bside, compare, mf

    before = (compare.hom_table, mf.nullspace, _linalg.nullspace, mf.MFMorphism.is_chain_map)
    tr = Tracer().install()
    try:
        assert compare.hom_table is bside.hom_table is not before[0]
        assert mf.nullspace is _linalg.nullspace is not before[1]
        assert mf.MFMorphism.is_chain_map is not before[3]
        assert _linalg.rank([[1, 2], [2, 4]]) == 1
        assert tr.calls["linalg.rank"] == 1 and tr.values["linalg.cells"] == 4
    finally:
        tr.uninstall()
    assert (compare.hom_table, mf.nullspace, _linalg.nullspace,
            mf.MFMorphism.is_chain_map) == before


# -- speed sampling ----------------------------------------------------------


def synthetic_sampler(durations, period=0.05):
    sampler = calibrate.SpeedSampler(period)
    for k, d in enumerate(durations):
        sampler.starts.append(k * period)
        sampler.durations.append(d)
    return sampler


def test_reference_seconds_at_reference_speed_is_wall_less_sampling():
    ref = calibrate.REFERENCE_S
    sampler = synthetic_sampler([ref] * 40)
    # [0.5, 1.5) holds 20 samples of the snippet
    assert sampler.reference_seconds(0.5, 1.5) == pytest.approx(1.0 - 20 * ref)
    assert sampler.slowdown(0.5, 1.5) == pytest.approx(1.0 / (1.0 - 20 * ref))


def test_reference_seconds_integrates_a_slow_phase():
    ref = calibrate.REFERENCE_S
    # 1 s at reference speed, then 1 s at half speed
    sampler = synthetic_sampler([ref] * 20 + [2 * ref] * 20)
    fast = sampler.reference_seconds(0.0, 0.4)
    slow = sampler.reference_seconds(1.6, 1.95)
    assert fast == pytest.approx(0.4 - 8 * ref)
    assert slow == pytest.approx((0.35 - 7 * 2 * ref) / 2)
    # an interval shorter than the sampling period takes the speed around it
    assert sampler.reference_seconds(1.81, 1.82) == pytest.approx(0.005)


def test_sampler_samples_in_this_thread_and_restores_the_handler():
    import signal
    from time import perf_counter

    before = signal.getsignal(signal.SIGALRM)
    sampler = calibrate.SpeedSampler(period=0.01).start()
    try:
        end = perf_counter() + 0.2
        while perf_counter() < end:
            pass
    finally:
        sampler.stop()
    assert len(sampler.starts) >= 5
    assert signal.getsignal(signal.SIGALRM) == before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def test_snippet_runs_with_the_collector_off_and_restores_it(monkeypatch):
    import gc

    seen = []
    monkeypatch.setattr(calibrate, "snippet", lambda: seen.append(gc.isenabled()))
    sampler = calibrate.SpeedSampler()
    assert gc.isenabled()
    sampler._tick(None, None)
    assert gc.isenabled()
    gc.disable()
    try:
        sampler._tick(None, None)
        assert not gc.isenabled()
    finally:
        gc.enable()
    assert seen == [False, False] and len(sampler.durations) == 2


def test_reference_time_moves_in_proportion_to_injected_work():
    # A synthetic item, then the same item slowed down by 50 % more work,
    # in adjacent pairs so that both see the same host phase: the reference
    # time must grow by the same 50 %, the sampler must not absorb the
    # slowdown.
    from time import perf_counter

    def item(n):
        total = 0
        for k in range(n):
            total += (k * k) % 7
        return total

    pairs = []
    sampler = calibrate.SpeedSampler().start()
    try:
        for _ in range(9):
            spans = []
            for n in (200_000, 300_000):
                t0 = perf_counter()
                item(n)
                spans.append((t0, perf_counter()))
            pairs.append(spans)
    finally:
        sampler.stop()
    ratio = statistics.median(sampler.reference_seconds(*slow) / sampler.reference_seconds(*base)
                              for base, slow in pairs)
    assert ratio == pytest.approx(1.5, rel=0.15)


def test_setup_child_reports_reference_and_wall_clock_import_times():
    import run

    [(ref, wall)] = run.import_times(run.child_env(), 1)
    assert 0 < ref and 0 < wall < 60


# -- failure counting --------------------------------------------------------

GOLDEN = {"rc": 0, "digest": workloads.digest("out")}


@pytest.mark.parametrize("obs,reason", [
    ({"error": "raised KeyError: 1"}, "raised KeyError"),
    ({"rc": 1, "digest": workloads.digest("out")}, "exit code"),
    ({"rc": 0, "digest": workloads.digest("out"), "pass": False}, "pass is false"),
    ({"rc": 0, "digest": workloads.digest("out!")}, "digest differs"),
    ({"dims": [2, 3], "digest": workloads.digest("out")}, "oracle mismatch"),
    ({"rc": 0, "digest": workloads.digest("out"), "rows_ok": False}, "transport row"),
])
def test_check_counts_each_failure(obs, reason):
    reasons, defect = workloads.check(obs, GOLDEN)
    assert len(reasons) == 1 and reason in reasons[0] and not defect


def test_check_accepts_a_matching_item():
    assert workloads.check({"rc": 0, "digest": workloads.digest("out"), "pass": True},
                           GOLDEN) == ([], False)
    assert workloads.check({"rc": 0, "digest": "x"}, None) == (["no golden record"], False)


def test_known_newton_defect_is_not_a_failure_but_a_changed_report_is():
    golden = dict(GOLDEN, newton_digest="n1", newton_ok=False)
    obs = {"rc": 0, "digest": GOLDEN["digest"], "rows_ok": True,
           "newton_ok": False, "newton_digest": "n1"}
    assert workloads.check(obs, golden) == ([], True)
    reasons, defect = workloads.check(dict(obs, newton_digest="n2"), golden)
    assert reasons == ["Newton report differs from golden"] and not defect


def test_round_counts_raising_and_mismatching_items():
    def boom():
        raise ArithmeticError("no lift")

    items = [
        workloads.Item("good", lambda: (0, "out"), lambda out: {"rc": out[0], "digest": workloads.digest(out[1])}),
        workloads.Item("bad", lambda: (0, "other"), lambda out: {"rc": out[0], "digest": workloads.digest(out[1])}),
        workloads.Item("raises", boom, lambda out: {}),
    ]
    golden = {"good": GOLDEN, "bad": GOLDEN, "raises": GOLDEN}
    records = run_round(items, golden).records
    summary = summarize([records, records])
    assert summary == {"attempted": 6, "failed": 4, "known_defects": 0}
    assert "raised ArithmeticError: no lift" in records[2].reasons[0]


# -- digests -----------------------------------------------------------------


def test_digest_is_sha256_of_the_exact_text():
    assert workloads.digest("abc") == \
        "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
    assert workloads.digest('{"pass": true}\n') != workloads.digest('{"pass": true}')


def test_transport_rows_reads_count_and_ok_flags():
    csv = ("l,m,s,angle_error,modulus_error,steps\n"
           "0,0,-2,1.000e-09,2.000e-10,40\n"
           "0,0,-1,3.000e-06,2.000e-10,40\n")
    assert workloads.transport_rows(csv) == (2, [True, False])


def test_golden_covers_every_item():
    with open(os.path.join(BENCH, "golden.json")) as fh:
        golden = json.load(fh)
    for workload in workloads.WORKLOADS:
        keys = [item.key for item in workloads.build(workload)]
        assert len(keys) == len(set(keys))
        assert set(golden["items"][workload]) == set(keys)
        assert set(golden["work"][workload]) == set(WORK_COUNTS)
        assert golden["work"][workload]["work.items"] == len(keys)


def test_oracle_cases_follow_criterion_6():
    cases = workloads.oracle_cases()
    assert len(cases) == 100 and cases == workloads.oracle_cases()
    for family, p, q, ex, ey, _, _, delta in cases:
        assert family in workloads.FAMILIES and 2 <= p <= 5 and 2 <= q <= 5
        assert 1 <= ex <= p and 1 <= ey <= q and all(abs(d) <= 4 for d in delta)


# -- BENCHMARK.json ------------------------------------------------------------


def test_benchmark_json_matches_the_harness():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert set(spec) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    e2e = [(m["name"], m["unit"]) for m in spec["end_to_end"]]
    assert e2e == [("setup_s", "s"), *END_TO_END]
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(PER_LAYER)
    name_re = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"] + spec["workloads"]]
    assert all(name_re.match(n) for n in names)
    assert len(set(m["name"] for m in spec["end_to_end"] + spec["per_layer"])) == \
        len(spec["end_to_end"]) + len(spec["per_layer"])
    for m in spec["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"} and 0 < m["bound"] <= 0.25
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])
