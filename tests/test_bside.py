import pytest

from mfvc.bside import (
    DEGREE_WINDOW,
    _complex_degree,
    basic_objects,
    composition_table,
    gabriel_quiver,
    hom_table,
)
from mfvc.directed import _arrows_and_relations, _certify
from mfvc.families import FamilySpec
from mfvc.mf import HomCohomology, compose_and_identify, generator_morphism


def test_object_counts():
    assert len(basic_objects(FamilySpec("loop", 4, 6))) == 24
    assert len(basic_objects(FamilySpec("chain", 3, 4))) == 10
    assert len(basic_objects(FamilySpec("bp", 2, 2))) == 1
    for fam in ("loop", "chain", "bp"):
        for p in range(2, 7):
            for q in range(2, 7):
                spec = FamilySpec(fam, p, q)
                assert len(basic_objects(spec)) == spec.milnor()


@pytest.mark.parametrize("fam,p,q", [
    ("loop", 3, 3), ("loop", 2, 4), ("chain", 3, 4), ("chain", 4, 2), ("bp", 3, 4),
])
def test_hom_table_matches_closed_form(fam, p, q):
    table = hom_table(FamilySpec(fam, p, q))
    assert not table.mismatches


@pytest.mark.parametrize("fam", ["loop", "chain", "bp"])
def test_degree_support_holds_every_nonempty_term(fam):
    # the weight interval must contain every nonempty Buchweitz term, and
    # for a finite-staircase target it must lie inside the degrees the
    # default window visits, so that the window misses no class there
    supported = finite = 0
    for p in range(2, 6):
        for q in range(2, 6):
            objects = basic_objects(FamilySpec(fam, p, q))
            for a, X in objects.items():
                for b, Y in objects.items():
                    coh = HomCohomology(X, Y.module)
                    lo, hi = coh.degree_support()
                    for n in range(-15, 16):
                        if coh.term(n):
                            assert lo <= n and (hi is None or n <= hi), (fam, p, q, a, b, n)
                            supported += 1
                    if Y.module.staircase_bound() is not None:
                        assert hi is not None
                        if lo <= hi:
                            assert _complex_degree(a, b, DEGREE_WINDOW[0]) <= lo
                            assert hi <= _complex_degree(a, b, DEGREE_WINDOW[1])
                        finite += 1
    assert supported and finite


def test_skeleton_raises_on_a_table_off_the_closed_form(monkeypatch):
    # a closed form that puts hom(K0(1,1), K0(1,2)) in degree 1: the table
    # computes it in degree 0, and the skeleton must not drop the difference
    from mfvc import bside

    closed_form = bside.expected_hom_dim
    moved = (("K0", 1, 1), ("K0", 1, 2))

    def moved_to_degree_1(spec, a, b, degree):
        if (a, b) == moved:
            return int(degree == 1)
        return closed_form(spec, a, b, degree)

    monkeypatch.setattr(bside, "expected_hom_dim", moved_to_degree_1)
    table = bside.HomTable(FamilySpec("loop", 2, 3))
    assert [(m["degree"], m["dim"], m["expected"]) for m in table.mismatches] == [(0, 1, 0), (1, 0, 1)]
    with pytest.raises(ArithmeticError, match="closed form"):
        table.skeleton()


def test_hom_table_examples_loop33():
    table = hom_table(FamilySpec("loop", 3, 3))
    assert table.dim(("K0", 1, 1), ("K0", 2, 2)) == 1
    for d in range(-6, 7):
        assert table.dim(("Kx", 1), ("Kx", 2), d) == 0


def test_hom_table_example_chain34():
    table = hom_table(FamilySpec("chain", 3, 4))
    for d in range(-6, 7):
        assert table.dim(("Ky", 1), ("K0", 2, 2), d) == 0


def naive_composition_table(table):
    """Reference: lift the generator of every nonzero pair to a chain map
    and compose every composable triple, lift after lift.  Returns the
    skeleton and {(a, b, c): class coordinates of gen(b,c) o gen(a,b)};
    ArithmeticError unless each composite is [1] when (a, c) is nonzero and
    [] otherwise."""
    skeleton = table.skeleton()
    gens = {}
    for (a, b) in skeleton.nonzero_pairs():
        gen = generator_morphism(table.objects[a], table.objects[b], _complex_degree(a, b),
                                 table.cohomology(a, b))
        if not gen.is_chain_map():
            raise ArithmeticError(f"lift of {a} -> {b} is not a chain map")
        gens[(a, b)] = gen
    composites = {}
    for (a, b, c) in skeleton.composable_triples():
        f = gens[(b, c)]
        vec = compose_and_identify(f.projection(), f.degree, gens[(a, b)], table.cohomology(a, c))
        if vec != ([1] if (a, c) in skeleton.pairs else []):
            raise ArithmeticError(f"composite {a} -> {b} -> {c} is {vec}")
        composites[(a, b, c)] = vec
    return skeleton, composites


@pytest.mark.parametrize("fam,p,q", [("loop", 4, 4), ("chain", 4, 5), ("bp", 5, 3), ("loop", 7, 4)])
def test_arrow_first_composition_matches_the_naive_table(monkeypatch, fam, p, q):
    # the arrow-first table lifts only the arrows and composes only the
    # triples that start on one, and gives the skeleton of the all-triples
    # reference, whose every composite is [1] or []
    from mfvc import bside

    lifted, composed = [], []

    def lifting(K, H, n, cohom):
        lifted.append((K, H))
        return generator_morphism(K, H, n, cohom)

    def composing(outer, degree, g, cohom):
        composed.append((g.source, g.target, cohom.module))
        return compose_and_identify(outer, degree, g, cohom)

    table = hom_table(FamilySpec(fam, p, q))
    naive, composites = naive_composition_table(table)
    monkeypatch.setattr(bside, "generator_morphism", lifting)
    monkeypatch.setattr(bside, "compose_and_identify", composing)
    alg = composition_table(table.spec, table)
    assert alg.objects == naive.objects and alg.pairs == naive.pairs
    triples = alg.composable_triples()
    assert sorted(composites) == sorted(triples)
    for (a, b, c), vec in composites.items():
        assert vec == ([1] if (a, c) in alg.pairs else []), (a, b, c)
    X, arrows = table.objects, alg.arrows()
    assert lifted == [(X[a], X[b]) for a, b in arrows]
    assert composed == [(X[a], X[b], X[c].module) for a, b in arrows for c in alg.successors(b)]
    assert len(arrows) < len(alg.pairs) and len(composed) < len(triples)


def test_composition_square_commutes_loop33():
    # both composites around the square K0(1,1) -> K0(2,2) are exactly the
    # generator, with no rescaling of the generators
    table = hom_table(FamilySpec("loop", 3, 3))

    def gen(a, b):
        return generator_morphism(table.objects[a], table.objects[b], _complex_degree(a, b),
                                  table.cohomology(a, b))

    a, bx, by, c = ("K0", 1, 1), ("K0", 2, 1), ("K0", 1, 2), ("K0", 2, 2)
    for b in (bx, by):
        f = gen(b, c)
        assert compose_and_identify(f.projection(), f.degree, gen(a, b),
                                    table.cohomology(a, c)) == [1]


def test_composition_table_all_positive_and_associative():
    for fam, p, q in [("loop", 3, 3), ("chain", 3, 3), ("bp", 3, 4), ("loop", 2, 5)]:
        alg = composition_table(FamilySpec(fam, p, q))
        assert alg.check_associativity() == []
        assert alg.is_directed()


def test_bp_equals_tensor_product_grid_algebra():
    p, q = 3, 3
    table = hom_table(FamilySpec("bp", p, q))
    alg, composites = naive_composition_table(table)
    labels = [("K0", i, j) for i in range(1, p) for j in range(1, q)]
    assert sorted(alg.objects) == sorted(labels)
    for a in labels:
        for b in labels:
            want = 1 if (b[1] >= a[1] and b[2] >= a[2]) else 0
            assert alg.hom_dim(a, b) == want
    # the composites of the generators are the tensor-product (A2 x A2)
    # structure constants exactly, with no rescaling: +1 where hom(a,c) is
    # nonzero and 0 elsewhere (identity factors compose trivially and are
    # implicit in the table)
    checked = 0
    for a in labels:
        for b in labels:
            for c in labels:
                if a != b and b != c and alg.hom_dim(a, b) and alg.hom_dim(b, c):
                    assert composites[(a, b, c)] == ([1] if alg.hom_dim(a, c) else [])
                    checked += 1
    assert checked == len(composites) == len(alg.composable_triples()) > 0


def test_quiver_bp33():
    quiv = gabriel_quiver(FamilySpec("bp", 3, 3))
    assert len(quiv.vertices) == 4
    assert len(quiv.arrows) == 4
    assert len(quiv.relations) == 1


def test_quiver_loop22():
    quiv = gabriel_quiver(FamilySpec("loop", 2, 2))
    assert len(quiv.vertices) == 4
    assert len(quiv.arrows) == 3
    assert quiv.relations == []


def test_quiver_chain34_counts():
    p, q = 3, 4
    quiv = gabriel_quiver(FamilySpec("chain", p, q))
    assert len(quiv.vertices) == 10
    expected_arrows = (p - 2) * (q - 1) + (p - 1) * (q - 2) + (q - 1) + 1
    assert len(quiv.arrows) == expected_arrows == 11


def test_length2_relations_present_the_algebra():
    for fam, p, q in [("loop", 3, 3), ("chain", 3, 3), ("bp", 4, 3)]:
        alg = composition_table(FamilySpec(fam, p, q))
        arrows, relations = _arrows_and_relations(alg)
        assert relations and all(len(path) == 2 for rel in relations for _, path in rel)
        _certify(alg, arrows, relations)  # raises unless they present the algebra


def test_loop_quiver_relations_are_squares_and_dashed():
    # loop(3,3): (p-2)(q-2)=1 commuting square; dashed composites vanish
    quiv = gabriel_quiver(FamilySpec("loop", 3, 3))
    two_term = [r for r in quiv.relations if len(r) == 2]
    one_term = [r for r in quiv.relations if len(r) == 1]
    assert len(two_term) >= 1  # the commuting square
    assert all(abs(c) == 1 for r in quiv.relations for c, _ in r)
    assert one_term  # at least one vanishing composite


@pytest.mark.parametrize("fam,p,q", [("loop", 4, 4), ("chain", 4, 5), ("bp", 5, 3)])
def test_integer_data_stays_integer(monkeypatch, fam, p, q):
    # every coefficient of the B side is integral, and the exact arithmetic
    # holds integral values as int: no float, and no Fraction, appears in a
    # Groebner basis, a class representative, a generator chain map or a
    # composite's class coordinates
    from mfvc import bside

    lifted, composites = [], []

    def lifting(*args):
        f = generator_morphism(*args)
        lifted.append(f)
        return f

    def composing(*args):
        vec = compose_and_identify(*args)
        composites.append(vec)
        return vec

    monkeypatch.setattr(bside, "generator_morphism", lifting)
    monkeypatch.setattr(bside, "compose_and_identify", composing)
    table = hom_table(FamilySpec(fam, p, q))
    composition_table(table.spec, table)
    assert lifted and composites

    gb = [c for X in table.objects.values() for g in X.module.gb for c in g.terms.values()]
    reps = []
    for (a, b, d) in table.dims:
        classes = table.cohomology(a, b).classes(_complex_degree(a, b, d))
        reps += [c for rep in classes.basis.values() for c in rep.values()]
    chain = [c for f in lifted for mat in (f.f0, f.f1) for row in mat for e in row
             for c in e.terms.values()]
    coords = [c for vec in composites for c in vec]
    for name, values in (("groebner", gb), ("reps", reps), ("chain maps", chain),
                         ("composites", coords)):
        assert values, name
        assert all(type(c) is int for c in values), (name, [c for c in values if type(c) is not int][:5])
