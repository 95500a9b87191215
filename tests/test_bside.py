import pytest

from mfvc.bside import (
    DEGREE_WINDOW,
    HomTable,
    OffClosedForm,
    _complex_degree,
    basic_objects,
    check_closed_form,
    closed_form,
    composition_table,
    gabriel_quiver,
    hom_table,
)
from mfvc.directed import DirectedAlgebra, _arrows_and_relations, _certify, display_label
from mfvc.families import FamilySpec
from mfvc.mf import HomCohomology, compose_and_identify, generator_morphism
from mfvc.polyring import mono_key, monomials_of_exact_degree
from mf_reference import projection
from test_directed import naive_check_associativity, naive_composable_triples


def test_object_counts():
    assert len(basic_objects(FamilySpec("loop", 4, 6))) == 24
    assert len(basic_objects(FamilySpec("chain", 3, 4))) == 10
    assert len(basic_objects(FamilySpec("bp", 2, 2))) == 1
    for fam in ("loop", "chain", "bp"):
        for p in range(2, 7):
            for q in range(2, 7):
                spec = FamilySpec(fam, p, q)
                assert len(basic_objects(spec)) == spec.milnor()


def naive_expected_homs(a, b):
    """Reference: the closed form pair by pair, as the nonzero hom
    dimensions from a to b, {degree: dim}."""
    if a == b:
        return {0: 1}
    ka, kb = a[0], b[0]
    if ka != "K0":
        return {}
    if kb == "K0":
        nonzero = b[1] >= a[1] and b[2] >= a[2]
    elif kb == "Kx":
        nonzero = b[1] == a[1]
    elif kb == "Ky":
        nonzero = b[1] == a[2]
    else:
        nonzero = True  # every K0 maps to Kf
    return {0: 1} if nonzero else {}


SWEEP = [(fam, p, q) for fam in ("loop", "chain", "bp") for p in range(2, 7) for q in range(2, 7)]


@pytest.mark.parametrize("fam,p,q", SWEEP + [("loop", 7, 4), ("bp", 12, 8), ("loop", 16, 16)])
def test_closed_form_is_the_per_pair_rule(fam, p, q):
    # the pattern built once per table holds exactly the pairs of distinct
    # objects that the per-pair rule gives a nonzero cell
    objects = basic_objects(FamilySpec(fam, p, q))
    pattern = closed_form(objects)
    assert pattern.objects == list(objects)
    assert pattern.pairs == {(a, b) for a in objects for b in objects
                             if a != b and naive_expected_homs(a, b)}


def test_one_mirror_check_builds_the_closed_form_once(monkeypatch):
    # the walk's check and the composites read the one pattern the table
    # builds, so the closed form is evaluated once per mirror check
    from mfvc import bside
    from mfvc.compare import mirror_check

    calls = []

    def counting(objects):
        calls.append(objects)
        return closed_form(objects)

    monkeypatch.setattr(bside, "closed_form", counting)
    assert mirror_check(FamilySpec("loop", 4, 3))["pass"] is True
    assert len(calls) == 1


def table_order(walked):
    """The nonzero cells of the window as {(a, b, degree): dim} and the
    mismatches, each in (source, target, degree) order, of a walk's
    yields, given in the order of the walk (the last source first)."""
    walked = walked[::-1]
    return ({cell: dim for _, _, cells, _ in walked for cell, dim in cells.items()},
            [m for *_, mismatches in walked for m in mismatches])


def walk_cells(table):
    """One walk of the table, read in (source, target, degree) order."""
    return table_order(list(table.walk()))


def checked_pattern(table):
    """The table's pattern, once a walk finds its cells on the closed form;
    OffClosedForm otherwise."""
    check_closed_form([mismatches for *_, mismatches in table.walk()])
    return table.pattern


@pytest.mark.parametrize("fam,p,q", [
    ("loop", 3, 3), ("loop", 2, 4), ("chain", 3, 4), ("chain", 4, 2), ("bp", 3, 4),
])
def test_hom_table_matches_closed_form(fam, p, q):
    table = hom_table(FamilySpec(fam, p, q))
    assert not walk_cells(table)[1]


def naive_term(K, module, n):
    """Reference: term(n) probed degree by degree, the standard monomials of
    the module in the degree of each summand of K^{-n}, found by filtering
    every monomial of that degree."""
    return [(t, mono) for t, s in enumerate(K.term_shifts(n))
            for mono in sorted((m for m in monomials_of_exact_degree(module.group, module.shift - s)
                                if module.is_standard(m)), key=mono_key)]


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
    pattern = bside.closed_form(objects)
    dims, mismatches = {}, []
    for a, X in objects.items():
        for b, Y in objects.items():
            coh = ProbedCohomology(X, Y.module)
            for d in range(window[0], window[1] + 1):
                dim = coh.dim(_complex_degree(a, b, d))
                expected = int(d == 0) * pattern.hom_dim(a, b)
                if dim:
                    dims[(a, b, d)] = dim
                if dim != expected:
                    mismatches.append({"source": display_label(a), "target": display_label(b),
                                       "degree": d, "dim": dim, "expected": expected})
    return dims, mismatches


def cohomology(table, a, b):
    """The pair's HomCohomology, built on demand from a join of its own;
    for a pair with no nonempty term, one with no pieces."""
    return HomCohomology(table.objects[a], table.objects[b].module, table.top)


@pytest.mark.parametrize("fam,p,q", [
    ("loop", 4, 4), ("chain", 4, 5), ("bp", 5, 3), ("loop", 7, 4), ("chain", 10, 10),
])
def test_enumerated_table_matches_the_window_probe(fam, p, q):
    # the degree-first table gives the probe's nonzero cells in its order,
    # its mismatches, and, in the cohomologies its walk yields, its every
    # term in degrees -15..15, up to the enumerated degree for an
    # infinite-staircase target; a pair the walk yields none for has no
    # term.  loop(7,4) has torsion in L
    spec = FamilySpec(fam, p, q)
    table = HomTable(spec)
    dims, mismatches = naive_hom_table(spec)
    nonempty, walked = 0, []
    for step in table.walk():
        walked.append(step)
        a, cohs = step[:2]
        X = table.objects[a]
        for b, Y in table.objects.items():
            coh = cohs.get(b) or HomCohomology(X, Y.module, table.top, {})
            for n in range(-15, 16):
                if coh.top is not None and n > coh.top:
                    break
                term = coh.term(n)
                assert term == naive_term(X, Y.module, n), (a, b, n)
                nonempty += bool(term)
    assert nonempty
    got_dims, got_mismatches = table_order(walked)
    assert list(got_dims.items()) == list(dims.items())
    assert got_mismatches == mismatches


def test_table_keeps_a_cohomology_only_for_pairs_with_a_nonempty_term(monkeypatch):
    # the walk builds a HomCohomology for exactly the pairs with a nonempty
    # term, and nothing else; each source's are the ones it yields.  Any
    # other pair gets, on demand, one with no pieces over its own target's
    # module, as composition builds for a zero pair (a, c)
    from mfvc import bside

    built = []

    class Recording(HomCohomology):
        def __init__(self, K, module, top=10, pieces=None):
            super().__init__(K, module, top, pieces)
            built.append((K, module))

    spec = FamilySpec("loop", 4, 4)
    table = HomTable(spec)
    X = table.objects
    nonempty = {(a, b) for a in X for b in X
                if any(naive_term(X[a], X[b].module, n) for n in range(-15, table.top + 1))}
    monkeypatch.setattr(bside, "HomCohomology", Recording)
    walked = []
    for a, cohs, _, _ in table.walk():
        walked += [(a, b) for b in cohs]
        assert all(coh.K is X[a] and coh.module is X[b].module for b, coh in cohs.items())
    assert len(walked) == len(set(walked)) and set(walked) == nonempty
    assert built == [(X[a], X[b].module) for a, b in walked]
    assert len(nonempty) < len(X) ** 2
    zero = next((a, b) for a in X for b in X if (a, b) not in nonempty)
    coh = cohomology(table, *zero)
    assert coh.module is X[zero[1]].module and coh.degrees() == []
    assert composition_table(spec).pairs == checked_pattern(table).pairs


def test_finite_target_class_outside_the_window_is_reported(monkeypatch):
    # a finite-staircase target is enumerated in every degree, so its
    # classes outside the window are checked against the closed form too.
    # A piece added to K0(1,1) -> K0(2,2) in degree 8, with no neighbour,
    # is a class there; the cells a walk yields and the rows stay inside the
    # window
    from mfvc import bside

    spec = FamilySpec("loop", 3, 3)
    clean_rows, (clean_dims, _) = HomTable(spec).rows(), walk_cells(HomTable(spec))
    join = bside.buchweitz_pieces

    def with_a_far_piece(sources, targets, top):
        out = join(sources, targets, top)
        out[(("K0", 1, 1), ("K0", 2, 2))][8] = [(0, [(0, 0)])]
        return out

    monkeypatch.setattr(bside, "buchweitz_pieces", with_a_far_piece)
    table = HomTable(spec)
    with monkeypatch.context() as unchecked:  # the rows, read past the check
        unchecked.setattr(bside, "check_closed_form", lambda found: None)
        assert table.rows() == clean_rows
    dims, mismatches = walk_cells(table)
    assert mismatches == [{"source": "K0(1,1)", "target": "K0(2,2)", "degree": 8,
                           "dim": 1, "expected": 0}]
    assert list(dims.items()) == list(clean_dims.items())
    with pytest.raises(OffClosedForm, match="closed form"):
        table.rows()
    with pytest.raises(OffClosedForm, match="closed form"):
        composition_table(spec)


def test_infinite_target_term_above_the_enumerated_degree_raises():
    # the terms of R/(x), R/(y) and R/(f) are enumerated up to the table's
    # top degree, and a read above it is an error, never an empty term
    table = HomTable(FamilySpec("loop", 3, 3), (0, 0))
    a, b = ("K0", 1, 1), ("Kx", 1)
    coh = cohomology(table, a, b)
    assert coh.top == table.top == 4
    assert coh.term(4) == naive_term(table.objects[a], table.objects[b].module, 4)
    with pytest.raises(ArithmeticError, match=r"degree 5 .* from K0\(1,1\) to R/\(x\)"):
        coh.term(5)
    assert cohomology(table, ("K0", 1, 1), ("K0", 2, 2)).top is None


def test_table_off_the_closed_form_raises(monkeypatch):
    # the pattern is the B side's algebra, so neither the rows nor the
    # algebra may be returned when the table computes a pair the pattern
    # lacks, or lacks a pair it has
    from mfvc import bside

    for change, cell in [
        # a pattern without hom(K0(1,1), K0(1,2)), which the table computes
        (lambda pairs: pairs - {(("K0", 1, 1), ("K0", 1, 2))}, ("K0(1,1)", "K0(1,2)", 0, 1, 0)),
        # a pattern with hom(Kx(1), Kf), whose every term is empty
        (lambda pairs: pairs | {(("Kx", 1), ("Kf",))}, ("Kx(1)[3]", "Kf[3]", 0, 0, 1)),
    ]:
        monkeypatch.setattr(bside, "closed_form", lambda objects: DirectedAlgebra(
            objects, change(closed_form(objects).pairs)))
        table = bside.HomTable(FamilySpec("loop", 2, 3))
        mismatches = walk_cells(table)[1]
        assert [(m["source"], m["target"], m["degree"], m["dim"], m["expected"])
                for m in mismatches] == [cell]
        assert mismatches == naive_hom_table(table.spec)[1]
        for read in (table.rows, lambda: composition_table(table.spec)):
            with pytest.raises(OffClosedForm, match="closed form"):
                read()


@pytest.mark.parametrize("dropped", [None, (("K0", 1, 1), ("K0", 1, 2))])
def test_a_table_walks_twice_to_the_same_cells_and_rows(monkeypatch, dropped):
    # the table keeps nothing a walk makes, so a second walk of one table
    # yields the same sources, pairs, cells and mismatches, and `rows`
    # gives the same rows, or the same error when a pattern without a
    # computed pair puts the table off the closed form
    from mfvc import bside

    monkeypatch.setattr(bside, "closed_form", lambda objects: DirectedAlgebra(
        objects, closed_form(objects).pairs - {dropped}))
    table = HomTable(FamilySpec("loop", 3, 3))

    def walked():
        return [(a, list(cohs), cells, mismatches) for a, cohs, cells, mismatches in table.walk()]

    def rows():
        try:
            return table.rows()
        except OffClosedForm as exc:
            return str(exc)

    first, first_rows = walked(), rows()
    assert first == walked() and first_rows == rows()
    assert all(cells for _, _, cells, _ in first)
    assert any(mismatches for *_, mismatches in first) == (dropped is not None)
    assert isinstance(first_rows, str) == (dropped is not None)


def test_hom_table_examples_loop33():
    dims = walk_cells(hom_table(FamilySpec("loop", 3, 3)))[0]
    assert dims.get((("K0", 1, 1), ("K0", 2, 2), 0), 0) == 1
    for d in range(-6, 7):
        assert dims.get((("Kx", 1), ("Kx", 2), d), 0) == 0


def test_hom_table_example_chain34():
    dims = walk_cells(hom_table(FamilySpec("chain", 3, 4)))[0]
    for d in range(-6, 7):
        assert dims.get((("Ky", 1), ("K0", 2, 2), d), 0) == 0


def naive_composition_table(table):
    """Reference: lift the generator of every nonzero pair to a chain map
    and compose every composable triple, lift after lift.  Returns the
    checked pattern and {(a, b, c): class coordinates of gen(b,c) o gen(a,b)};
    ArithmeticError unless each composite is [1] when (a, c) is nonzero and
    [] otherwise."""
    pattern = checked_pattern(table)
    gens = {}
    for (a, b) in pattern.nonzero_pairs():
        gen = generator_morphism(table.objects[a], table.objects[b], _complex_degree(a, b),
                                 cohomology(table, a, b))
        if not gen.is_chain_map():
            raise ArithmeticError(f"lift of {a} -> {b} is not a chain map")
        gens[(a, b)] = gen
    composites = {}
    for (a, b, c) in naive_composable_triples(pattern):
        f = gens[(b, c)]
        vec = compose_and_identify(projection(f), f.degree, gens[(a, b)], cohomology(table, a, c))
        if vec != ([1] if (a, c) in pattern.pairs else []):
            raise ArithmeticError(f"composite {a} -> {b} -> {c} is {vec}")
        composites[(a, b, c)] = vec
    return pattern, composites


def walk_order(pairs, position):
    """pairs of (source, ...) in the order of the walk: sources from last to
    first by position, each source's in the order given."""
    return sorted(pairs, key=lambda t: -position[t[0]])


@pytest.mark.parametrize("fam,p,q", [("loop", 4, 4), ("chain", 4, 5), ("bp", 5, 3), ("loop", 7, 4)])
def test_arrow_first_composition_matches_the_naive_table(monkeypatch, fam, p, q):
    # the arrow-first table lifts only the arrows and composes only the
    # triples that start on one, and gives the pattern of the all-triples
    # reference, whose every composite is [1] or []
    from mfvc import bside

    lifted, composed, tables = [], [], []

    def lifting(K, H, n, cohom):
        lifted.append((K, H))
        return generator_morphism(K, H, n, cohom)

    def composing(outer, degree, g, cohom):
        composed.append((g.source, g.target, cohom.module))
        return compose_and_identify(outer, degree, g, cohom)

    def building(spec, window):
        tables.append(hom_table(spec, window))
        return tables[-1]

    spec = FamilySpec(fam, p, q)
    naive, composites = naive_composition_table(hom_table(spec))
    monkeypatch.setattr(bside, "generator_morphism", lifting)
    monkeypatch.setattr(bside, "compose_and_identify", composing)
    monkeypatch.setattr(bside, "hom_table", building)
    alg = composition_table(spec)
    [table] = tables
    assert alg.objects == naive.objects and alg.pairs == naive.pairs
    triples = naive_composable_triples(alg)
    assert sorted(composites) == sorted(triples)
    for (a, b, c), vec in composites.items():
        assert vec == ([1] if (a, c) in alg.pairs else []), (a, b, c)
    # the walk takes the sources from last to first, and each source's
    # arrows in position order, then c
    X, arrows = table.objects, walk_order(alg.arrows(), alg.position)
    assert lifted == [(X[a], X[b]) for a, b in arrows]
    assert composed == [(X[a], X[b], X[c].module) for a, b in arrows for c in alg.successors(b)]
    assert len(arrows) < len(alg.pairs) and len(composed) < len(triples)


@pytest.mark.parametrize("fam,p,q", [("loop", 4, 4), ("chain", 4, 5)])
def test_composition_holds_one_source_cohomology_at_a_time(monkeypatch, fam, p, q):
    # at every lift, composite and generator row, the live HomCohomology
    # objects all have one source: the walk drops each source's before it
    # builds the next one's, and the composites read no other's
    import weakref

    from mfvc import bside

    live = weakref.WeakSet()

    class Tracked(HomCohomology):
        def __init__(self, *args):
            super().__init__(*args)
            live.add(self)

    sources = []

    def counting(fn):
        def call(*args):
            sources.append(len({id(coh.K) for coh in live}))
            return fn(*args)
        return call

    monkeypatch.setattr(bside, "HomCohomology", Tracked)
    for name in ("generator_morphism", "compose_and_identify", "generator_cocycle"):
        monkeypatch.setattr(bside, name, counting(getattr(bside, name)))
    spec = FamilySpec(fam, p, q)
    composition_table(spec)
    assert len(sources) > len(basic_objects(spec)) and max(sources) == 1


def test_composition_square_commutes_loop33():
    # both composites around the square K0(1,1) -> K0(2,2) are exactly the
    # generator, with no rescaling of the generators
    table = hom_table(FamilySpec("loop", 3, 3))

    def gen(a, b):
        return generator_morphism(table.objects[a], table.objects[b], _complex_degree(a, b),
                                  cohomology(table, a, b))

    a, bx, by, c = ("K0", 1, 1), ("K0", 2, 1), ("K0", 1, 2), ("K0", 2, 2)
    for b in (bx, by):
        f = gen(b, c)
        assert compose_and_identify(projection(f), f.degree, gen(a, b),
                                    cohomology(table, a, c)) == [1]


def test_composition_table_all_positive_and_associative():
    for fam, p, q in [("loop", 3, 3), ("chain", 3, 3), ("bp", 3, 4), ("loop", 2, 5)]:
        alg = composition_table(FamilySpec(fam, p, q))
        assert alg.arrow_path_violations() == naive_check_associativity(alg) == []
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
    assert checked == len(composites) == len(naive_composable_triples(alg)) > 0


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
    spec = FamilySpec(fam, p, q)
    composition_table(spec)
    assert lifted and composites

    table = hom_table(spec)
    gb = [c for X in table.objects.values() for g in X.module.gb for c in g.terms.values()]
    reps = []
    for (a, b, d) in walk_cells(table)[0]:
        classes = cohomology(table, a, b).classes(_complex_degree(a, b, d))
        reps += [c for rep in classes.basis.values() for c in rep.values()]
    chain = [c for f in lifted for mat in (f.f0, f.f1) for row in mat for e in row
             for c in e.terms.values()]
    coords = [c for vec in composites for c in vec]
    for name, values in (("groebner", gb), ("reps", reps), ("chain maps", chain),
                         ("composites", coords)):
        assert values, name
        assert all(type(c) is int for c in values), (name, [c for c in values if type(c) is not int][:5])
