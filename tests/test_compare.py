import pytest

from mfvc.aside import enumerate_critical_data
from mfvc.bside import hom_table
from mfvc.compare import correspondence, mirror_check
from mfvc.families import FamilySpec


def test_milnor_examples():
    assert FamilySpec("bp", 4, 5).milnor() == 12
    assert FamilySpec("bp", 4, 5).milnor_decomposition() == "12 = 12"
    spec = FamilySpec("chain", 4, 5)
    assert spec.milnor() == 17 and spec.milnor_decomposition() == "17 = 12 + 4 + 1"
    spec = FamilySpec("loop", 2, 2)
    assert spec.milnor() == 4 and spec.milnor_decomposition() == "4 = 1 + 1 + 1 + 1"


def test_correspondence_bijective():
    for fam, p, q in [("loop", 3, 4), ("chain", 4, 3), ("bp", 3, 3), ("bp", 2, 2)]:
        spec = FamilySpec(fam, p, q)
        corr = correspondence(spec)
        assert len(corr) == spec.milnor()
        assert len(set(corr.values())) == spec.milnor()


def test_bp_waist_maps_to_corner_object():
    corr = correspondence(FamilySpec("bp", 4, 5))
    assert corr[("Vxy",)] == ("K0", 1, 1)
    assert corr[("V0", 0, 0)] == ("K0", 3, 4)


@pytest.mark.parametrize("fam,p,q", [
    ("loop", 4, 6),
    ("loop", 6, 4),
    ("chain", 3, 2),
    ("chain", 2, 3),
    ("bp", 2, 3),
    ("bp", 5, 5),
])
def test_mirror_check_passes(fam, p, q):
    report = mirror_check(FamilySpec(fam, p, q))
    assert report["pass"], report["mismatches"][:5]
    assert report["mismatches"] == []


def test_mirror_check_counts_objects():
    report = mirror_check(FamilySpec("chain", 3, 4))
    assert report["objects"] == 10


def test_quivers_agree_across_sides():
    # arrows and relations are invariants of the algebra, so the two sides
    # must extract matching quivers under the correspondence
    from mfvc.aside import assemble_directed_algebra
    from mfvc.bside import composition_table
    from mfvc.directed import gabriel_presentation

    def relation_set(quiver, label):
        """Each relation as (objects along the path, coefficient) terms in
        path order, scaled to lead with +1: a relation and its negative
        generate the same ideal, and the two sides may order a square's
        paths differently."""
        def objects(path):
            return (label(quiver.arrows[path[0]][0]),) + tuple(
                label(quiver.arrows[k][1]) for k in path)
        out = set()
        for rel in quiver.relations:
            terms = sorted((objects(path), c) for c, path in rel)
            out.add(tuple((path, c / terms[0][1]) for path, c in terms))
        return out

    for fam, p, q in [("loop", 3, 3), ("chain", 3, 4), ("bp", 3, 4), ("loop", 2, 5)]:
        spec = FamilySpec(fam, p, q)
        corr = correspondence(spec)
        qa = gabriel_presentation(assemble_directed_algebra(spec))
        qb = gabriel_presentation(composition_table(spec))
        assert len(qa.vertices) == len(qb.vertices)
        assert sorted((corr[a], corr[b]) for (a, b) in qa.arrows) == sorted(qb.arrows)
        assert len(qa.relations) == len(qb.relations)
        assert relation_set(qa, corr.get) == relation_set(qb, lambda v: v)


def test_dropped_a_side_pair_is_a_hom_dim_mismatch(monkeypatch):
    from mfvc import compare
    from mfvc.aside import assemble_directed_algebra
    from mfvc.directed import DirectedAlgebra

    spec = FamilySpec("loop", 3, 3)
    full = assemble_directed_algebra(spec)
    dropped = (("V0", 0, 0), ("Vxy",))
    assert full.hom_dim(*dropped) == 1
    monkeypatch.setattr(compare, "assemble_directed_algebra",
                        lambda spec: DirectedAlgebra(full.objects, full.pairs - {dropped}))
    report = mirror_check(spec)
    assert report["pass"] is False
    assert [m for m in report["mismatches"] if m["kind"] == "hom_dim"] == [
        {"kind": "hom_dim", "pair": (str(dropped[0]), str(dropped[1])),
         "degree": 0, "a": 0, "b": 1},
    ]


def naive_hom_dim_mismatches(a_alg, b_alg, corr):
    """Reference: every ordered pair of distinct A objects, with the hom
    dimension on each side under the correspondence, in A-side order."""
    out = []
    for a_src in a_alg.objects:
        for a_tgt in a_alg.objects:
            if a_src == a_tgt:
                continue
            da = a_alg.hom_dim(a_src, a_tgt)
            db = b_alg.hom_dim(corr[a_src], corr[a_tgt])
            if da != db:
                out.append({"kind": "hom_dim", "pair": (str(a_src), str(a_tgt)),
                            "degree": 0, "a": da, "b": db})
    return out


def test_dropped_pair_on_each_side_lists_the_reference_mismatches(monkeypatch):
    # the pair sets are compared once; when they differ, the mismatches are
    # listed pair by pair, as the reference loop lists them
    from mfvc import compare
    from mfvc.aside import assemble_directed_algebra
    from mfvc.bside import composition_table
    from mfvc.directed import DirectedAlgebra

    spec = FamilySpec("loop", 4, 4)
    a_full, b_full = assemble_directed_algebra(spec), composition_table(spec)
    a_dropped, b_dropped = (("V0", 0, 0), ("Vxy",)), (("K0", 1, 1), ("K0", 2, 2))
    assert a_dropped in a_full.pairs and b_dropped in b_full.pairs
    a_alg = DirectedAlgebra(a_full.objects, a_full.pairs - {a_dropped})
    b_alg = DirectedAlgebra(b_full.objects, b_full.pairs - {b_dropped})
    monkeypatch.setattr(compare, "assemble_directed_algebra", lambda spec: a_alg)
    monkeypatch.setattr(compare, "composition_table", lambda spec, table: b_alg)
    report = mirror_check(spec)
    want = naive_hom_dim_mismatches(a_alg, b_alg, correspondence(spec))
    assert sorted((m["a"], m["b"]) for m in want) == [(0, 1), (1, 0)]
    assert report["pass"] is False
    assert report["mismatches"] == want


def test_object_count_off_milnor_names_both_sides(monkeypatch):
    spec = FamilySpec("chain", 3, 4)
    mu = spec.milnor()
    monkeypatch.setattr(FamilySpec, "milnor", lambda self: mu + 1)
    report = mirror_check(spec)
    assert report["pass"] is False
    assert sorted(m["side"] for m in report["mismatches"] if m["kind"] == "objects") == ["A", "B"]
    with pytest.raises(ArithmeticError, match=f"Milnor number {mu + 1}"):
        enumerate_critical_data(spec)


def test_profile_disagreement_is_an_a_side_failure(monkeypatch):
    from mfvc import aside

    real = aside.neck_crossings_from_profile
    flipped = {(1, 1), (0, 0)}

    def flip_one_pair(spec, lm, LM):
        count = real(spec, lm, LM)
        return 1 - count if {lm, LM} == flipped else count

    monkeypatch.setattr(aside, "neck_crossings_from_profile", flip_one_pair)
    report = mirror_check(FamilySpec("loop", 3, 3))
    assert report["pass"] is False
    assert [(m["kind"], m["stage"]) for m in report["mismatches"]] == [
        ("a_side", "assemble_directed_algebra")]


@pytest.mark.parametrize("window", [(1, 6), (3, -3), (-6, -1), (-1.5, 1), (-1, 0.5), (-1, 2.0)])
def test_window_without_degree_zero_is_rejected(window):
    # the pattern's pairs are degree-0 cells, so a window without them is
    # bad input, not an empty table; so is a window of non-integers, which
    # names no cell
    spec = FamilySpec("loop", 3, 3)
    with pytest.raises(ValueError, match="degree 0"):
        hom_table(spec, window)
    with pytest.raises(ValueError, match="degree 0"):
        mirror_check(spec, window)


def test_mirror_check_builds_its_table_over_its_window(monkeypatch):
    # the report of bp(5,3) is the same at every window, so only the table
    # shows which window reached it
    from mfvc import bside

    windows = []

    def recording(spec, window):
        windows.append(window)
        return hom_table(spec, window)

    monkeypatch.setattr(bside, "hom_table", recording)
    assert mirror_check(FamilySpec("bp", 5, 3), (-9, 9))["pass"] is True
    assert windows == [(-9, 9)]


@pytest.mark.parametrize("args", [
    ("loop", 3.0, 3), ("chain", 3, 3.0), ("loop", "3", 3), ("bp", True, 3), ("loop", 3, False),
    ("nope", 3, 3), ("loop", 1, 3),
])
def test_bad_family_spec_is_rejected(args):
    # p and q must be ints (a bool is not one) of at least 2, and the family
    # one of the three; anything else is rejected when the spec is made,
    # before either side reads it
    with pytest.raises(ValueError):
        FamilySpec(*args)
