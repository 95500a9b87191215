import pytest

from mfvc.bside import (
    DEGREE_WINDOW,
    HomTable,
    _complex_degree,
    basic_objects,
    composition_table,
    gabriel_quiver,
    hom_table,
)
from mfvc.directed import _arrows_and_relations, _certify, display_label
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


def naive_term(K, module, n):
    """Reference: term(n) probed degree by degree, the standard monomials of
    the module in the degree of each summand of K^{-n}."""
    return [(t, mono) for t, s in enumerate(K.term_shifts(n))
            for mono in module.standard_monomials_exact(module.shift - s)]


class ProbedCohomology(HomCohomology):
    """A HomCohomology whose terms are probed by `naive_term`, not read off
    the enumerated pieces."""

    def __init__(self, K, module):
        super().__init__(K, module, pieces={})

    def term(self, n):
        got = self._terms.get(n)
        if got is None:
            got = self._terms[n] = naive_term(self.K, self.module, n)
        return got


def naive_hom_table(spec, window=DEGREE_WINDOW):
    """Reference: probe every (pair, degree) cell of the window and compare
    each with the closed form.  Returns the nonzero cells as
    {(a, b, degree): dim} and the mismatches, in (source, target, degree)
    order."""
    from mfvc import bside

    objects = basic_objects(spec)
    dims, mismatches = {}, []
    for a, X in objects.items():
        for b, Y in objects.items():
            coh = ProbedCohomology(X, Y.module)
            expected = bside.expected_homs(spec, a, b)
            for d in range(window[0], window[1] + 1):
                dim = coh.dim(_complex_degree(a, b, d))
                if dim:
                    dims[(a, b, d)] = dim
                if dim != expected.get(d, 0):
                    mismatches.append({"source": display_label(a), "target": display_label(b),
                                       "degree": d, "dim": dim, "expected": expected.get(d, 0)})
    return dims, mismatches


@pytest.mark.parametrize("fam,p,q", [
    ("loop", 4, 4), ("chain", 4, 5), ("bp", 5, 3), ("loop", 7, 4), ("chain", 10, 10),
])
def test_enumerated_table_matches_the_window_probe(fam, p, q):
    # the degree-first table gives the probe's nonzero cells in its order,
    # its mismatches, and its every term in degrees -15..15, up to the
    # enumerated degree for an infinite-staircase target.  loop(7,4) has
    # torsion in L
    spec = FamilySpec(fam, p, q)
    table = HomTable(spec)
    dims, mismatches = naive_hom_table(spec)
    assert list(table.dims.items()) == list(dims.items())
    assert table.mismatches == mismatches
    nonempty = 0
    for a, X in table.objects.items():
        for b, Y in table.objects.items():
            coh = table.cohomology(a, b)
            for n in range(-15, 16):
                if coh.top is not None and n > coh.top:
                    break
                term = coh.term(n)
                assert term == naive_term(X, Y.module, n), (a, b, n)
                nonempty += bool(term)
    assert nonempty


def test_table_keeps_a_cohomology_only_for_pairs_with_a_nonempty_term():
    # every other pair gets a fresh HomCohomology over its own target's
    # module, which composition reads for zero pairs (a, c)
    spec = FamilySpec("loop", 4, 4)
    table = HomTable(spec)
    nonempty = {(a, b) for a, X in table.objects.items() for b, Y in table.objects.items()
                if any(naive_term(X, Y.module, n) for n in range(-15, table.top + 1))}
    assert set(table._coh) == nonempty
    assert len(nonempty) < len(table.objects) ** 2
    zero = next((a, b) for a in table.objects for b in table.objects if (a, b) not in nonempty)
    coh = table.cohomology(*zero)
    assert coh.module is table.objects[zero[1]].module and coh.degrees() == []
    assert composition_table(spec, table).pairs == table.skeleton().pairs


def test_finite_target_class_outside_the_window_is_reported(monkeypatch):
    # a finite-staircase target is enumerated in every degree, so its
    # classes outside the window are checked against the closed form too.
    # A piece added to K0(1,1) -> K0(2,2) in degree 8, with no neighbour,
    # is a class there; dims and rows stay inside the window
    from mfvc import bside

    spec = FamilySpec("loop", 3, 3)
    clean = HomTable(spec)
    join = bside.buchweitz_pieces

    def with_a_far_piece(sources, targets, top):
        out = join(sources, targets, top)
        out[(("K0", 1, 1), ("K0", 2, 2))][8] = [(0, [(0, 0)])]
        return out

    monkeypatch.setattr(bside, "buchweitz_pieces", with_a_far_piece)
    table = HomTable(spec)
    assert table.mismatches == [{"source": "K0(1,1)", "target": "K0(2,2)", "degree": 8,
                                 "dim": 1, "expected": 0}]
    assert list(table.dims.items()) == list(clean.dims.items())
    assert table.rows() == clean.rows()
    with pytest.raises(ArithmeticError, match="closed form"):
        table.skeleton()


def test_infinite_target_term_above_the_enumerated_degree_raises():
    # the terms of R/(x), R/(y) and R/(f) are enumerated up to the table's
    # top degree, and a read above it is an error, never an empty term
    table = HomTable(FamilySpec("loop", 3, 3), (0, 0))
    a, b = ("K0", 1, 1), ("Kx", 1)
    coh = table.cohomology(a, b)
    assert coh.top == table.top == 4
    assert coh.term(4) == naive_term(table.objects[a], table.objects[b].module, 4)
    with pytest.raises(ArithmeticError, match=r"degree 5 .* from K0\(1,1\) to R/\(x\)"):
        coh.term(5)
    assert table.cohomology(("K0", 1, 1), ("K0", 2, 2)).top is None


def test_skeleton_raises_on_a_table_off_the_closed_form(monkeypatch):
    # a closed form that puts hom(K0(1,1), K0(1,2)) in degree 1: the table
    # computes it in degree 0, where the closed form now has nothing, and
    # in degree 1 the term is empty; the skeleton must not drop either
    from mfvc import bside

    closed_form = bside.expected_homs
    moved = (("K0", 1, 1), ("K0", 1, 2))

    def moved_to_degree_1(spec, a, b):
        if (a, b) == moved:
            return {1: 1}
        return closed_form(spec, a, b)

    monkeypatch.setattr(bside, "expected_homs", moved_to_degree_1)
    table = bside.HomTable(FamilySpec("loop", 2, 3))
    assert [(m["degree"], m["dim"], m["expected"]) for m in table.mismatches] == [(0, 1, 0), (1, 0, 1)]
    assert table.mismatches == naive_hom_table(table.spec)[1]
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
