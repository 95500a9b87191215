import json
import subprocess
import sys

import pytest


def run_cli(*args):
    proc = subprocess.run(
        [sys.executable, "-m", "mfvc.cli", *args],
        capture_output=True, text=True,
    )
    return proc.returncode, proc.stdout, proc.stderr


def parse_dot(text):
    """Minimal reader for the DOT subset `cli.quiver_to_dot` emits: returns
    (node ids, edge list)."""
    nodes = set()
    edges = []
    for raw in text.splitlines():
        line = raw.strip().rstrip(";")
        if not line or line.startswith(("digraph", "}", "{", "subgraph", "label=", "rankdir")):
            continue
        if "->" in line:
            lhs, rhs = line.split("->", 1)
            tgt = rhs.split("[", 1)[0].strip()
            edges.append((lhs.strip(), tgt))
            nodes.update((lhs.strip(), tgt))
        elif "[" in line:
            nodes.add(line.split("[", 1)[0].strip())
    return nodes, edges


def test_milnor_text():
    code, out, _ = run_cli("milnor", "--family", "chain", "--p", "3", "--q", "4", "--format", "text")
    assert code == 0
    assert out.strip() == "10"


def test_unknown_flag_exits_2():
    code, _, _ = run_cli("milnor", "--family", "chain", "--p", "3", "--q", "4", "--bogus")
    assert code == 2


def test_invalid_family_exits_2():
    code, _, _ = run_cli("milnor", "--family", "fermat", "--p", "3", "--q", "4")
    assert code == 2


def test_invalid_pq_exits_2():
    code, _, err = run_cli("quiver", "--family", "loop", "--p", "1", "--q", "4")
    assert code == 2


def test_mirror_check_json_and_exit_code():
    code, out, _ = run_cli("mirror-check", "--family", "loop", "--p", "2", "--q", "3")
    assert code == 0
    payload = json.loads(out)
    assert payload["pass"] is True and payload["schema"] == "1"


def test_json_output_is_byte_identical_across_runs():
    for args in (
        ("homtable", "--family", "bp", "--p", "3", "--q", "3"),
        ("invariants", "--family", "loop", "--p", "4", "--q", "6"),
        ("quiver", "--family", "loop", "--p", "3", "--q", "3", "--side", "both"),
        ("signs", "--family", "loop", "--p", "4", "--q", "4", "--seed", "3"),
    ):
        _, out1, _ = run_cli(*args)
        _, out2, _ = run_cli(*args)
        assert out1 == out2, args


def test_invariants_builds_the_path_schedule_once(monkeypatch, capsys):
    from mfvc import aside
    from mfvc.cli import main

    schedule = aside.path_schedule
    calls = []

    def counted(spec):
        calls.append(spec)
        return schedule(spec)

    monkeypatch.setattr(aside, "path_schedule", counted)
    assert main(["invariants", "--family", "loop", "--p", "4", "--q", "6"]) == 0
    assert json.loads(capsys.readouterr().out)["intersections"]
    assert len(calls) == 1


def test_quiver_dot_round_trip():
    code, out, _ = run_cli("quiver", "--family", "bp", "--p", "3", "--q", "3",
                           "--side", "B", "--format", "dot")
    assert code == 0
    nodes, edges = parse_dot(out)
    assert len(nodes) == 4
    assert len(edges) == 4


def test_quiver_json_counts():
    code, out, _ = run_cli("quiver", "--family", "chain", "--p", "3", "--q", "4", "--side", "B")
    payload = json.loads(out)
    assert len(payload["vertices"]) == 10
    assert len(payload["arrows"]) == 11


def test_signs_subcommand():
    code, out, _ = run_cli("signs", "--family", "loop", "--p", "5", "--q", "5", "--seed", "7")
    assert code == 0
    payload = json.loads(out)
    assert payload["squares_commute"] is True


def test_transport_verify_csv():
    code, out, _ = run_cli("transport-verify", "--family", "loop", "--p", "2", "--q", "2")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "l,m,s,angle_error,modulus_error,steps"
    assert len(lines) > 1
    for line in lines[1:]:
        parts = line.split(",")
        assert len(parts) == 6
        assert float(parts[3]) <= 1e-6


def test_side_a_quiver():
    code, out, _ = run_cli("quiver", "--family", "loop", "--p", "2", "--q", "2", "--side", "A")
    payload = json.loads(out)
    assert len(payload["vertices"]) == 4
    assert len(payload["arrows"]) == 3


def test_negative_degree_window_is_rejected():
    for command in ("mirror-check", "homtable"):
        code, out, err = run_cli(command, "--family", "loop", "--p", "2", "--q", "3",
                                 "--degree-window", "-1")
        assert code == 2, command
        assert out == ""
        assert "error:" in err and "Traceback" not in err


@pytest.mark.parametrize("flag,value", [
    ("--eps", "0"), ("--delta", "0"), ("--eps", "nan"), ("--delta", "inf"),
    ("--tol", "-1"), ("--eps", "-0.1"), ("--tol", "abc"),
])
def test_transport_verify_rejects_bad_numeric_flags(flag, value, capsys):
    from mfvc.cli import main

    code = main(["transport-verify", "--family", "loop", "--p", "2", "--q", "2", flag, value])
    out, err = capsys.readouterr()
    assert code == 2
    assert out == ""
    assert "error:" in err and flag in err


def test_transport_failure_in_transport_verify_is_an_error_line(monkeypatch, capsys):
    from mfvc import _kernels
    from mfvc.cli import main

    monkeypatch.setattr(_kernels, "transport", lambda *args: (0j, 0j, 3, 0.0, 0.0, 2))
    code = main(["transport-verify", "--family", "loop", "--p", "2", "--q", "2"])
    out, err = capsys.readouterr()
    assert code == 1
    assert out == ""
    assert err == "error: step budget exhausted\n"


def _mirror_check_in_process(capsys, p="2", q="3"):
    from mfvc.cli import main

    code = main(["mirror-check", "--family", "loop", "--p", p, "--q", q])
    return code, json.loads(capsys.readouterr().out)


def no_pairs(objects):
    """A closed form with no pair of distinct objects."""
    from mfvc.directed import DirectedAlgebra

    return DirectedAlgebra(objects, [])


def test_b_side_hom_table_deviation_gives_report(monkeypatch, capsys):
    from mfvc import bside

    monkeypatch.setattr(bside, "closed_form", no_pairs)
    code, payload = _mirror_check_in_process(capsys)
    assert code == 1
    assert payload["pass"] is False
    [mismatch] = payload["mismatches"]
    assert mismatch["kind"] == "b_side" and mismatch["stage"] == "hom_table"
    assert "closed form" in mismatch["detail"]


def test_b_side_composition_deviation_gives_report(monkeypatch, capsys):
    from fractions import Fraction

    from mfvc import bside

    monkeypatch.setattr(bside, "compose_and_identify", lambda outer, degree, g, coh: [Fraction(2)])
    code, payload = _mirror_check_in_process(capsys)
    assert code == 1
    [mismatch] = payload["mismatches"]
    assert mismatch["kind"] == "b_side" and mismatch["stage"] == "composition_table"


def test_negated_b_side_composite_gives_report(monkeypatch, capsys):
    # no rescaling of the generators absorbs a sign flip of the loop(3,3)
    # composite K0(1,1) -> K0(2,1) -> K0(2,2), whose first step is an arrow
    # (the module of K0(i,j) carries its label)
    from mfvc import bside

    compose = bside.compose_and_identify
    negated = []

    def negate_one(outer, degree, g, coh):
        vec = compose(outer, degree, g, coh)
        if (g.source.label, g.target.label, coh.module.label) == ("K0(1,1)", "K0(2,1)", "K0(2,2)"):
            negated.append(vec)
            return [-v for v in vec]
        return vec

    monkeypatch.setattr(bside, "compose_and_identify", negate_one)
    code, payload = _mirror_check_in_process(capsys, "3", "3")
    assert len(negated) == 1 and negated[0] != [0]
    assert code == 1
    [mismatch] = payload["mismatches"]
    assert mismatch["kind"] == "b_side" and mismatch["stage"] == "composition_table"


def test_flipped_b_side_generator_gives_report(monkeypatch, capsys):
    # flipping the sign of the loop(3,3) generator K0(1,1) -> K0(2,1)
    # negates every composite it is a factor of, or whose target hom it
    # spans; a rescaling of the generators would absorb this, the exact +1
    # check does not (the module of K0(i,j) carries its label)
    from mfvc import bside

    compose = bside.compose_and_identify
    flipped = ("K0(1,1)", "K0(2,1)")
    negated = []

    def flip_one_generator(outer, degree, g, coh):
        vec = compose(outer, degree, g, coh)
        a, b, c = g.source.label, g.target.label, coh.module.label
        if flipped in ((a, b), (b, c), (a, c)):
            negated.append((a, b, c, vec))
            return [-v for v in vec]
        return vec

    monkeypatch.setattr(bside, "compose_and_identify", flip_one_generator)
    code, payload = _mirror_check_in_process(capsys, "3", "3")
    assert negated and negated[-1][3] == [1]
    assert code == 1
    [mismatch] = payload["mismatches"]
    assert mismatch["kind"] == "b_side" and mismatch["stage"] == "composition_table"
    assert "K0(1,1) -> K0(2,1)" in mismatch["detail"]


def test_b_side_generator_that_is_not_a_chain_map_gives_report(monkeypatch, capsys):
    # break the f1 matrix of the loop(3,3) arrow K0(1,1) -> K0(2,1):
    # the computation has failed, the input was valid, so mirror-check
    # reports the B side and quiver prints an error line, both exiting 1
    from mfvc import bside
    from mfvc.cli import main
    from mfvc.polyring import Poly, poly_x

    lift = bside.generator_morphism
    broken = []

    def break_one(K, H, n, cohom):
        gen = lift(K, H, n, cohom)
        if (K.label, H.label) == ("K0(1,1)", "K0(2,1)"):
            gen = type(gen)(K, H, n, gen.f0, [[poly_x(), Poly()], [Poly(), Poly()]])
            assert not gen.is_chain_map()
            broken.append(gen)
        return gen

    monkeypatch.setattr(bside, "generator_morphism", break_one)
    code, payload = _mirror_check_in_process(capsys, "3", "3")
    assert broken
    assert code == 1
    assert payload["pass"] is False
    [mismatch] = payload["mismatches"]
    assert mismatch["kind"] == "b_side" and mismatch["stage"] == "composition_table"
    assert "chain maps" in mismatch["detail"]
    assert "K0(1,1)" in mismatch["detail"] and "K0(2,1)" in mismatch["detail"]
    code = main(["quiver", "--side", "B", "--family", "loop", "--p", "3", "--q", "3"])
    out, err = capsys.readouterr()
    assert code == 1
    assert out == ""
    assert err.startswith("error:") and "chain maps" in err and "Traceback" not in err


def test_b_side_lift_that_starts_no_composite_is_checked(monkeypatch, capsys):
    # Kf has no successor in loop(3,3), so no composite starts on the arrow
    # K0(2,2) -> Kf: only the check of each lift sees its f1 broken
    from mfvc import bside
    from mfvc.polyring import Poly, poly_x

    lift = bside.generator_morphism
    broken = []

    def break_one(K, H, n, cohom):
        gen = lift(K, H, n, cohom)
        if (K.label, H.label) == ("K0(2,2)", "Kf"):
            gen = type(gen)(K, H, n, gen.f0, [[poly_x(), Poly()]])
            assert not gen.is_chain_map()
            broken.append(gen)
        return gen

    monkeypatch.setattr(bside, "generator_morphism", break_one)
    code, payload = _mirror_check_in_process(capsys, "3", "3")
    assert broken
    assert code == 1
    [mismatch] = payload["mismatches"]
    assert mismatch["kind"] == "b_side" and mismatch["stage"] == "composition_table"
    assert mismatch["detail"].startswith("lift of K0(2,2) -> Kf[3] in degree 3: ")
    assert "not a chain map" in mismatch["detail"]


def test_hom_table_mismatch_wins_over_a_composite_met_before_it(monkeypatch, capsys):
    # the walk takes the sources from last to first, so it computes the bad
    # composites of K0(2,1) before it meets the mismatch of the first
    # source, K0(1,1); the report is still the hom table's.  Without the
    # pair K0(1,1) -> K0(1,2) the pattern still passes (ii'), so the walk
    # reaches the composites
    from mfvc import bside
    from mfvc.directed import DirectedAlgebra

    closed_form, compose = bside.closed_form, bside.compose_and_identify
    dropped = (("K0", 1, 1), ("K0", 1, 2))
    bad = []

    def without_the_pair(objects):
        pattern = DirectedAlgebra(objects, closed_form(objects).pairs - {dropped})
        assert not pattern.arrow_path_violations()
        return pattern

    def bad_from_k0_21(outer, degree, g, coh):
        if g.source.label == "K0(2,1)":
            bad.append((g.target.label, coh.module.label))
            return [2]
        return compose(outer, degree, g, coh)

    monkeypatch.setattr(bside, "closed_form", without_the_pair)
    monkeypatch.setattr(bside, "compose_and_identify", bad_from_k0_21)
    code, payload = _mirror_check_in_process(capsys, "3", "3")
    assert bad  # a walk reporting the first failure it meets would name this one
    assert code == 1
    [mismatch] = payload["mismatches"]
    assert mismatch["kind"] == "b_side" and mismatch["stage"] == "hom_table"
    assert mismatch["detail"].startswith("hom table deviates from the closed form: [{'source': "
                                         "'K0(1,1)', 'target': 'K0(1,2)', 'degree': 0")


@pytest.mark.parametrize("bad,first", [
    # arrows in position order first: K0(1,1) -> K0(1,2) before K0(1,1) -> K0(2,1)
    ([("K0(1,1)", "K0(1,2)", "R/(f)"), ("K0(1,1)", "K0(2,1)", "K0(2,2)"),
      ("K0(2,1)", "K0(2,2)", "R/(f)")],
     "composite K0(1,1) -> K0(1,2) -> Kf[3] in degree 3: is ['2'], not [1]"),
    # then c in position order: K0(2,2) before Kf
    ([("K0(1,1)", "K0(1,2)", "R/(f)"), ("K0(1,1)", "K0(1,2)", "K0(2,2)"),
      ("K0(2,1)", "K0(2,2)", "R/(f)")],
     "composite K0(1,1) -> K0(1,2) -> K0(2,2) in degree 0: is ['2'], not [1]"),
], ids=["arrow-order", "then-c"])
def test_first_bad_composite_in_arrow_order_gives_report(monkeypatch, capsys, bad, first):
    # the walk meets the bad composite of the later source K0(2,1) first;
    # the report names the one that comes first in arrow position order,
    # then by c (the module of K0(i,j) carries its label, that of Kf R/(f))
    from mfvc import bside

    compose = bside.compose_and_identify
    met = []

    def bad_composites(outer, degree, g, coh):
        route = (g.source.label, g.target.label, coh.module.label)
        if route in bad:
            met.append(route)
            return [2]
        return compose(outer, degree, g, coh)

    monkeypatch.setattr(bside, "compose_and_identify", bad_composites)
    code, payload = _mirror_check_in_process(capsys, "3", "3")
    assert met[0] == ("K0(2,1)", "K0(2,2)", "R/(f)")
    assert code == 1
    [mismatch] = payload["mismatches"]
    assert mismatch["kind"] == "b_side" and mismatch["stage"] == "composition_table"
    assert mismatch["detail"] == first


def _pattern_without(monkeypatch, dropped):
    """Make every B-side hom table give `composition_table` a pattern
    without the pair `dropped`, while its walk still checks the cells
    against the closed form."""
    import copy

    from mfvc import bside
    from mfvc.directed import DirectedAlgebra

    build = bside.hom_table

    def without_one_pair(spec, window):
        table = build(spec, window)
        table.walk = copy.copy(table).walk  # bound to a table with the closed form
        assert dropped in table.pattern.pairs
        table.pattern = DirectedAlgebra(table.pattern.objects, table.pattern.pairs - {dropped})
        return table

    monkeypatch.setattr(bside, "hom_table", without_one_pair)


def test_b_side_pattern_that_is_not_associative_gives_report(monkeypatch, capsys):
    # drop the pair K0(1,1) -> K0(2,2) from the loop(3,3) pattern: the
    # pattern is no longer associative, but it passes (ii'), which reads
    # only paths a -> b1 -> b -> c with a -> c nonzero.  The composite on
    # the arrow K0(1,1) -> K0(1,2) reports it: the B side's real
    # composition gives the generator where the pattern says 0
    _pattern_without(monkeypatch, (("K0", 1, 1), ("K0", 2, 2)))
    code, payload = _mirror_check_in_process(capsys, "3", "3")
    assert code == 1
    assert payload["pass"] is False
    [mismatch] = payload["mismatches"]
    assert mismatch["kind"] == "b_side" and mismatch["stage"] == "composition_table"
    assert mismatch["detail"] == \
        "composite K0(1,1) -> K0(1,2) -> K0(2,2) in degree 0: is ['1'], not []"


def test_b_side_pattern_that_breaks_the_arrow_path_condition_gives_report(monkeypatch, capsys):
    # drop the pair K0(1,2) -> Kf from the loop(3,3) pattern: on the path
    # K0(1,1) -> K0(1,2) -> K0(2,2) -> Kf[3], whose first step is an arrow,
    # K0(1,1) -> K0(2,2) and K0(1,1) -> Kf[3] stay nonzero, so (ii') fails,
    # and composition_table says so before it lifts any generator
    from mfvc import bside
    from mfvc.families import FamilySpec

    _pattern_without(monkeypatch, (("K0", 1, 2), ("Kf",)))
    lifts = []
    monkeypatch.setattr(bside, "generator_morphism", lambda *args: lifts.append(args))
    path = r"not associative on the path K0\(1,1\) -> K0\(1,2\) -> K0\(2,2\) -> Kf\[3\]: "
    with pytest.raises(ArithmeticError, match=path):
        bside.composition_table(FamilySpec("loop", 3, 3))
    code, payload = _mirror_check_in_process(capsys, "3", "3")
    assert lifts == []
    assert code == 1
    assert payload["pass"] is False
    [mismatch] = payload["mismatches"]
    assert mismatch["kind"] == "b_side" and mismatch["stage"] == "composition_table"
    assert mismatch["detail"] == (
        "the pairs are not associative on the path K0(1,1) -> K0(1,2) -> K0(2,2) -> Kf[3]: "
        "its two bracketings give 1 and 0 times the generator")


def test_a_side_object_outside_the_correspondence_gives_report(monkeypatch, capsys):
    # an A-side object that the correspondence does not name is an objects
    # mismatch, not a KeyError out of the pair comparison
    from mfvc import aside

    schedule = aside.path_schedule

    def with_stray_object(spec):
        out = schedule(spec)
        out.order.append(("Vyf", 99))
        return out

    monkeypatch.setattr(aside, "path_schedule", with_stray_object)
    code, payload = _mirror_check_in_process(capsys, "3", "3")
    assert code == 1
    assert payload["pass"] is False
    assert payload["mismatches"] == [
        {"kind": "objects", "detail": "A-side object set mismatch"},
        {"kind": "objects", "side": "A", "detail": "10 objects, Milnor number 9"},
    ]


def test_projection_outside_the_buchweitz_term_gives_report(monkeypatch, capsys):
    # a stray monomial of a degree no term of loop(2,3) reaches, added to
    # every sum of the precomposition kernel before its positions are read
    from mfvc.mf import HomCohomology

    positions = HomCohomology._positions

    def with_stray_monomial(self, n, coeffs):
        return positions(self, n, {**coeffs, (0, (1000, 0)): 1})

    monkeypatch.setattr(HomCohomology, "_positions", with_stray_monomial)
    code, payload = _mirror_check_in_process(capsys)
    assert code == 1
    assert payload["pass"] is False
    [mismatch] = payload["mismatches"]
    assert mismatch["kind"] == "b_side" and mismatch["stage"] == "composition_table"
    assert "(0, x^1000)" in mismatch["detail"] and "degree-0" in mismatch["detail"]


def test_a_side_generator_off_degree_0_gives_report(monkeypatch, capsys):
    # give the second interior cycle of loop(2,3) a larger path angle than
    # the first: its lift becomes the larger of the two, and the generator
    # between them lands in degree 1
    import dataclasses

    from mfvc import aside
    from mfvc.families import FamilySpec

    grading_degrees = aside._grading_degrees

    def perturbed(schedule, table):
        first, second = (lab[1:] for lab in schedule.order[:2])
        theta = dict(schedule.theta)
        theta[second] = theta[first] + 1
        return grading_degrees(dataclasses.replace(schedule, theta=theta), table)

    monkeypatch.setattr(aside, "_grading_degrees", perturbed)
    code, payload = _mirror_check_in_process(capsys)
    assert code == 1
    assert payload["pass"] is False
    assert payload["objects"] == FamilySpec("loop", 2, 3).milnor()
    [mismatch] = payload["mismatches"]
    assert mismatch["kind"] == "a_side" and mismatch["stage"] == "assemble_directed_algebra"
    assert "degree 1" in mismatch["detail"]


def test_failed_check_in_a_command_is_an_error_line(monkeypatch, capsys):
    from mfvc import bside
    from mfvc.cli import main

    monkeypatch.setattr(bside, "closed_form", no_pairs)
    code = main(["homtable", "--family", "loop", "--p", "2", "--q", "3"])
    out, err = capsys.readouterr()
    assert code == 1
    assert out == ""
    assert err.startswith("error:") and "closed form" in err and "Traceback" not in err


def test_quiver_of_a_pattern_the_relations_do_not_present_is_an_error_line(monkeypatch, capsys):
    from mfvc import aside
    from mfvc.cli import main
    from mfvc.directed import DirectedAlgebra

    # V0(0,1) -> Vxy factors through V0(0,0); without it the paths through
    # V0(0,1) become zero relations, and V0(1,1) -> Vxy, which is still
    # nonzero, keeps no class of paths
    full = aside.assemble_directed_algebra
    dropped = (("V0", 0, 1), ("Vxy",))

    def one_pair_removed(spec):
        algebra = full(spec)
        assert dropped in algebra.pairs
        return DirectedAlgebra(algebra.objects, algebra.pairs - {dropped})

    monkeypatch.setattr(aside, "assemble_directed_algebra", one_pair_removed)
    code = main(["quiver", "--side", "A", "--family", "loop", "--p", "3", "--q", "3"])
    out, err = capsys.readouterr()
    assert code == 1
    assert out == ""
    assert err.startswith("error:") and "classes of paths" in err and "Traceback" not in err


def test_format_a_command_does_not_write_exits_2():
    for args in (
        ("mirror-check", "--family", "loop", "--p", "2", "--q", "3", "--format", "dot"),
        ("quiver", "--family", "loop", "--p", "2", "--q", "3", "--format", "text"),
        ("transport-verify", "--family", "loop", "--p", "2", "--q", "2", "--format", "json"),
    ):
        code, out, err = run_cli(*args)
        assert code == 2, args
        assert out == "" and "Traceback" not in err


def test_out_writes_the_same_bytes_as_stdout(tmp_path):
    for args in (
        ("milnor", "--family", "chain", "--p", "3", "--q", "4"),
        ("quiver", "--family", "bp", "--p", "3", "--q", "3", "--format", "dot"),
        ("invariants", "--family", "loop", "--p", "2", "--q", "3"),
    ):
        path = tmp_path / "out.txt"
        code, out, _ = run_cli(*args)
        assert run_cli(*args, "--out", str(path)) == (code, "", "")
        assert path.read_text() == out, args


def test_unwritable_out_exits_2_before_any_computation(tmp_path, monkeypatch, capsys):
    missing = tmp_path / "missing" / "x.txt"
    for command in ("milnor", "mirror-check"):
        for path in (missing, tmp_path):
            code, out, err = run_cli(command, "--family", "loop", "--p", "3", "--q", "3",
                                     "--out", str(path))
            assert code == 2, (command, path)
            assert out == "" and "error:" in err and "Traceback" not in err, (command, path)
    assert not missing.parent.exists() and list(tmp_path.iterdir()) == []

    from mfvc import compare
    from mfvc.cli import main

    def computing(*args):
        raise AssertionError("the check ran before --out was rejected")

    monkeypatch.setattr(compare, "mirror_check", computing)
    assert main(["mirror-check", "--family", "loop", "--p", "3", "--q", "3",
                 "--out", str(missing)]) == 2
    assert capsys.readouterr().out == ""
