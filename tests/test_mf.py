from fractions import Fraction

import pytest

from mfvc.grading import make_grading_group
from mfvc.mf import (
    HomCohomology,
    MFMorphism,
    MatrixFactorisation,
    build_basic_object,
    chain_map_space,
    compose_and_identify,
    generator_cocycle,
    generator_morphism,
)
from mfvc.polyring import Poly, QuotientRing, family_w, poly_x, poly_y
from mf_reference import boundary_matrices, hom_cohomology, is_chain_map, projection, vector
from test_bside import checked_pattern, cohomology
from test_directed import naive_composable_triples


def identity_morphism(K):
    n = K.rank
    eye = [[Poly.constant(1) if i == j else Poly() for j in range(n)] for i in range(n)]
    return MFMorphism(K, K, 0, eye, [row[:] for row in eye])


def labels_for(family, p, q):
    labels = [("K0", i, j) for i in range(1, p) for j in range(1, q)]
    if family == "loop":
        labels += [("Kx", i) for i in range(1, p)]
    if family in ("loop", "chain"):
        labels += [("Ky", j) for j in range(1, q)]
        labels += [("Kf",)]
    return labels


@pytest.mark.parametrize("family", ["loop", "chain", "bp"])
@pytest.mark.parametrize("p", range(2, 7))
@pytest.mark.parametrize("q", range(2, 7))
def test_basic_objects_validate(family, p, q):
    g = make_grading_group(family, p, q)
    for label in labels_for(family, p, q):
        K = build_basic_object(g, label)
        assert K.validate() == [], (family, p, q, label)


def test_invalid_labels_rejected():
    g = make_grading_group("chain", 3, 3)
    with pytest.raises(ValueError):
        build_basic_object(g, ("Kx", 1))
    with pytest.raises(ValueError):
        build_basic_object(g, ("K0", 0, 1))
    with pytest.raises(ValueError):
        build_basic_object(g, ("K0", 1, 3))
    gbp = make_grading_group("bp", 3, 3)
    with pytest.raises(ValueError):
        build_basic_object(gbp, ("Kf",))


def test_mutated_differential_fails_validation():
    g = make_grading_group("loop", 3, 4)
    K = build_basic_object(g, ("Kx", 2))
    bad = MatrixFactorisation(
        g, K.w, K.even_shifts, K.odd_shifts,
        [[poly_x(2)]], K.d1, K.module, K.aug, "broken",
    )
    problems = bad.validate()
    assert any("w*id" in p for p in problems)


def test_perturbed_shift_fails_homogeneity():
    g = make_grading_group("loop", 3, 3)
    K = build_basic_object(g, ("K0", 1, 1))
    bad = MatrixFactorisation(
        g, K.w, [K.even_shifts[0] + g.x, K.even_shifts[1]], K.odd_shifts,
        K.d0, K.d1, K.module, K.aug, "broken",
    )
    problems = bad.validate()
    assert any("degree" in p for p in problems)


# ---------------------------------------------------------------------------
# hom cohomology fixtures from the closed-form computations


def hom_dim(coh, n):
    """dim H^n as the number of class representatives, which `classes`
    builds from the nullspace of d_n."""
    return len(coh.classes(n).basis)


def test_kx_display_data():
    # S(-c) --yf--> S(-x) --x--> S with 1x1 matrices
    g = make_grading_group("loop", 4, 6)
    K = build_basic_object(g, ("Kx", 3))  # i = p-1 carries no extra shift
    assert K.even_shifts == [g.zero]
    assert K.odd_shifts == [-g.x]
    assert K.d0 == [[Poly.monomial(1, 0)]]
    assert K.d1 == [[Poly({(3, 1): 1, (0, 6): 1})]]  # y*(x^3 + y^5)


def test_bp22_k0_display_data():
    g = make_grading_group("bp", 2, 2)
    K = build_basic_object(g, ("K0", 1, 1))
    assert [e.vec for e in K.even_shifts] == [g.c.vec, (g.x + g.y).vec]
    assert [o.vec for o in K.odd_shifts] == [g.y.vec, g.x.vec]
    entries = sorted(str(e) for row in K.d1 for e in row)
    assert entries == ["-x", "x", "y", "y"]


def test_end_kx_loop22():
    g = make_grading_group("loop", 2, 2)
    Kx = build_basic_object(g, ("Kx", 1))
    coh = hom_cohomology(Kx, Kx.module)
    dims = {n: hom_dim(coh, n) for n in range(-4, 5)}
    assert dims == {n: (1 if n == 0 else 0) for n in range(-4, 5)}


@pytest.mark.parametrize("p,q,i,j", [(4, 6, 2, 3), (3, 3, 1, 2), (2, 2, 1, 1)])
def test_k0_to_kf_generator_rep(p, q, i, j):
    g = make_grading_group("loop", p, q)
    K0 = build_basic_object(g, ("K0", i, j))
    Kf = build_basic_object(g, ("Kf",))
    coh = hom_cohomology(K0, Kf.module)
    dims = {n: hom_dim(coh, n) for n in range(-6, 7)}
    assert dims == {n: (1 if n == 3 else 0) for n in range(-6, 7)}
    # the degree-3 class is spanned by (y^{q-j-1}, -x^{p-i-1})
    vec = {}
    for k, (t, mono) in enumerate(coh.term(3)):
        if t == 0 and mono == (0, q - j - 1):
            vec[k] = Fraction(1)
        if t == 1 and mono == (p - i - 1, 0):
            vec[k] = Fraction(-1)
    coeffs = coh.identify(3, vec)
    assert len(coeffs) == 1 and coeffs[0] != 0


def test_k0_to_axis_objects_constant_reps():
    # the degree-3 generators into the axis objects are constants in one
    # summand of the raw complex
    g = make_grading_group("loop", 4, 6)
    K0 = build_basic_object(g, ("K0", 2, 3))
    kx = build_basic_object(g, ("Kx", 2))
    ky = build_basic_object(g, ("Ky", 3))
    assert hom_cohomology(K0, kx.module).rep_strings(3) == ["1@1"]
    assert hom_cohomology(K0, ky.module).rep_strings(3) == ["1@0"]
    gc = make_grading_group("chain", 3, 4)
    K0c = build_basic_object(gc, ("K0", 2, 2))
    kyc = build_basic_object(gc, ("Ky", 2))
    assert hom_cohomology(K0c, kyc.module).rep_strings(3) == ["1@0"]


def test_chain_kf_shift_is_shifted_ky():
    # Kf[1] and Ky(y) resolve the same hom functor in the chain family; the
    # shifted copy of R/(y) and a fresh R(y)/(y) give the same complexes
    from mfvc.polyring import QuotientRing, family_w, poly_y

    g = make_grading_group("chain", 3, 4)
    Kf = build_basic_object(g, ("Kf",))
    gens = [poly_y(), family_w("chain", 3, 4)]
    ky_shifted = QuotientRing(g, gens).shifted(g.y)
    ky_fresh = QuotientRing(g, gens, shift=g.y)
    for lab in [("K0", 2, 2), ("K0", 1, 3), ("Ky", 1), ("Kf",)]:
        X = build_basic_object(g, lab)
        ca = hom_cohomology(X, Kf.module)
        cb = hom_cohomology(X, ky_shifted)
        cc = hom_cohomology(X, ky_fresh)
        for d in range(-5, 6):
            assert hom_dim(ca, d + 1) == hom_dim(cb, d)
            assert cb.term(d) == cc.term(d)
            assert hom_dim(cb, d) == hom_dim(cc, d)


def test_kx_orthogonal_to_k0():
    g = make_grading_group("loop", 4, 6)
    K0 = build_basic_object(g, ("K0", 2, 3))
    for i in range(1, 4):
        Kx = build_basic_object(g, ("Kx", i))
        coh = hom_cohomology(Kx, K0.module)
        assert all(hom_dim(coh, n) == 0 for n in range(-6, 7))


def test_periodicity_under_simultaneous_shift():
    # Hom^{n+2}(K, M) has the terms and dimensions of Hom^n(K, M(c)), and
    # M(c) as a shifted copy of M equals M(c) built fresh
    from mfvc.polyring import QuotientRing

    for fam, p, q, source, target in [("chain", 3, 4, ("K0", 2, 2), ("K0", 1, 3)),
                                      ("bp", 4, 6, ("K0", 1, 2), ("K0", 3, 4)),
                                      ("loop", 7, 4, ("K0", 2, 1), ("Kx", 4))]:
        g = make_grading_group(fam, p, q)
        K = build_basic_object(g, source)
        ring = build_basic_object(g, target).module
        coh = hom_cohomology(K, ring)
        coh_shift = hom_cohomology(K, ring.shifted(g.c))
        coh_fresh = hom_cohomology(K, QuotientRing(g, ring.generators, shift=ring.shift + g.c))
        for n in range(-4, 5):
            assert coh.term(n + 2) == coh_shift.term(n) == coh_fresh.term(n)
            assert hom_dim(coh, n + 2) == hom_dim(coh_shift, n) == hom_dim(coh_fresh, n)


# ---------------------------------------------------------------------------
# chain maps and composition


def test_grid_generator_is_the_paper_matrix():
    g = make_grading_group("loop", 4, 6)
    K0a = build_basic_object(g, ("K0", 1, 2))
    K0b = build_basic_object(g, ("K0", 3, 5))
    coh = hom_cohomology(K0a, K0b.module)
    gen = generator_morphism(K0a, K0b, 0, coh)
    assert gen.is_chain_map()
    I, i, J, j = 3, 1, 5, 2
    assert gen.f0[0][0] == Poly.constant(1)
    assert gen.f0[1][1] == Poly.monomial(I - i, J - j)
    assert not gen.f0[0][1] and not gen.f0[1][0]
    assert gen.f1[0][0] == Poly.monomial(0, J - j)
    assert gen.f1[1][1] == Poly.monomial(I - i, 0)


def test_composition_examples():
    g = make_grading_group("loop", 3, 3)
    K11 = build_basic_object(g, ("K0", 1, 1))
    K22 = build_basic_object(g, ("K0", 2, 2))
    Kf = build_basic_object(g, ("Kf",))
    mid = generator_morphism(K11, K22, 0, hom_cohomology(K11, K22.module))
    top = generator_morphism(K22, Kf, 3, hom_cohomology(K22, Kf.module))
    coeff = compose_and_identify(projection(top), 3, mid, hom_cohomology(K11, Kf.module))
    assert len(coeff) == 1 and abs(coeff[0]) == 1

    # g composed with the identity is g
    ident = identity_morphism(K11)
    assert compose_and_identify(projection(mid), 0, ident, hom_cohomology(K11, K22.module)) == [1]
    ident = identity_morphism(K22)
    assert compose_and_identify(projection(ident), 0, mid, hom_cohomology(K11, K22.module)) == [1]


def test_composition_into_zero_hom_space_vanishes():
    # K0(1,2) -> K0(2,2) -> Kx(2) lands in Hom(K0(1,2), Kx(2)) = 0
    g = make_grading_group("loop", 3, 3)
    a = build_basic_object(g, ("K0", 1, 2))
    b = build_basic_object(g, ("K0", 2, 2))
    kx2 = build_basic_object(g, ("Kx", 2))
    f1 = generator_morphism(a, b, 0, hom_cohomology(a, b.module))
    f2 = generator_morphism(b, kx2, 3, hom_cohomology(b, kx2.module))
    coeff = compose_and_identify(projection(f2), 3, f1, hom_cohomology(a, kx2.module))
    assert coeff == []


def _explicit_class(f, g, cohom):
    """The class of f o g, from the composite's matrix on K^{-n} built by
    hand: f's matrix on the source of f's degree times g's matrix on K^{-n}."""
    from mfvc.mf import mat_mul

    n = f.degree + g.degree
    outer = f.f0 if f.degree % 2 == 0 else f.f1
    inner = g.f0 if n % 2 == 0 else g.f1
    L = f.target
    row = mat_mul([L.aug], mat_mul(outer, inner))[0]
    index = {c: i for i, c in enumerate(cohom.term(n))}
    vec = {}
    for t, val in enumerate(row):
        for m, c in L.module.nf(val).terms.items():
            vec[index[(t, m)]] = c
    return cohom.identify(n, vec)


@pytest.mark.parametrize("fam,p,q", [("loop", 3, 3), ("chain", 3, 4), ("bp", 3, 3)])
def test_compose_and_identify_matches_explicit_composites(fam, p, q):
    # every composable triple of generators, the degree-3 ones into Kx, Ky
    # and Kf among them, and the identity on either side of each generator;
    # with the class representative of a generator in place of its lift's
    # projection as the outer factor, every composite keeps its class
    from mfvc.bside import _complex_degree, hom_table
    from mfvc.families import FamilySpec

    table = hom_table(FamilySpec(fam, p, q))
    objects = table.objects
    pattern = checked_pattern(table)
    gens = {}
    for a, K in objects.items():
        gens[(a, a)] = identity_morphism(K)
    for (a, b) in pattern.nonzero_pairs():
        gens[(a, b)] = generator_morphism(objects[a], objects[b], _complex_degree(a, b),
                                          cohomology(table, a, b))
    degrees = set()
    count = 0
    for (a, b), g in gens.items():
        for (b2, c), f in gens.items():
            if b2 != b:
                continue
            cohom = cohomology(table, a, c)
            got = compose_and_identify(projection(f), f.degree, g, cohom)
            assert got == _explicit_class(f, g, cohom), (a, b, c)
            assert got == ([1] if a == c or (a, c) in pattern.pairs else []), (a, b, c)
            if b != c:
                outer = generator_cocycle(cohomology(table, b, c), f.degree)
                assert compose_and_identify(outer, f.degree, g, cohom) == got, (a, b, c)
            degrees.add((f.degree, g.degree))
            count += 1
    pairs = len(gens) - len(table.objects)
    assert count == len(table.objects) + 2 * pairs + len(naive_composable_triples(pattern))
    assert (0, 0) in degrees
    if fam != "bp":
        assert (3, 0) in degrees and (0, 3) in degrees


def test_chain_map_space_contains_no_fake_maps():
    # a hom space that vanishes: every chain map projects to a coboundary
    g = make_grading_group("loop", 3, 3)
    kx1 = build_basic_object(g, ("Kx", 1))
    kx2 = build_basic_object(g, ("Kx", 2))
    coh = hom_cohomology(kx1, kx2.module)
    for n in range(0, 4):
        for f in chain_map_space(kx1, kx2, n):
            assert coh.identify(n, vector(coh, n, projection(f))) == []


def _morphism_coordinates(K, H, n, f0, f1):
    from mfvc.mf import _entry_degrees
    from mfvc.polyring import monomials_of_exact_degree

    deg0, deg1 = _entry_degrees(K, H, n)
    coords = {}
    k = 0
    for which, degs, mats in ((0, deg0, f0), (1, deg1, f1)):
        for s in range(H.rank):
            for t in range(K.rank):
                for mono in monomials_of_exact_degree(K.group, degs[s][t]):
                    c = mats[s][t].terms.get(mono)
                    if c:
                        coords[k] = c
                    k += 1
    return coords


def mf_model_hom_dim(K, H, n):
    """Hom dimension computed purely in the dg model: chain maps modulo
    boundaries of arbitrary degree-(n-1) maps.  Independent of the module
    complex route."""
    from mfvc._linalg import Subspace
    from mfvc.mf import MFMorphism, _entry_degrees
    from mfvc.polyring import Poly, monomials_of_exact_degree

    maps = chain_map_space(K, H, n)
    if not maps:
        return 0
    span = Subspace()
    # boundaries of the degree-(n-1) coordinate basis
    deg0, deg1 = _entry_degrees(K, H, n - 1)
    for which, degs in ((0, deg0), (1, deg1)):
        for s in range(H.rank):
            for t in range(K.rank):
                for mono in monomials_of_exact_degree(K.group, degs[s][t]):
                    g0 = [[Poly() for _ in range(K.rank)] for _ in range(H.rank)]
                    g1 = [[Poly() for _ in range(K.rank)] for _ in range(H.rank)]
                    (g0 if which == 0 else g1)[s][t] = Poly.monomial(*mono)
                    b0, b1 = boundary_matrices(K, H, n - 1, g0, g1)
                    assert MFMorphism(K, H, n, b0, b1).is_chain_map()  # d^2 = 0
                    span.add(_morphism_coordinates(K, H, n, b0, b1))
    dim = 0
    for f in maps:
        if span.add(_morphism_coordinates(K, H, n, f.f0, f.f1)):
            dim += 1
    return dim


@pytest.mark.parametrize("fam,p,q", [("loop", 3, 3), ("chain", 3, 4), ("bp", 3, 3)])
def test_dg_model_dims_equal_module_model_dims(fam, p, q):
    g = make_grading_group(fam, p, q)
    pairs = [(("K0", 1, 1), ("K0", p - 1, q - 1))]
    if fam != "bp":
        pairs += [(("K0", 1, 1), ("Kf",)), (("Ky", 1), ("Ky", 1)), (("Kf",), ("K0", 1, 1))]
    if fam == "loop":
        pairs += [(("K0", 1, 2), ("Kx", 1)), (("Kx", 1), ("Kx", 2))]
    for (la, lb) in pairs:
        K = build_basic_object(g, la)
        H = build_basic_object(g, lb)
        coh = hom_cohomology(K, H.module)
        for n in range(-1, 5):
            assert mf_model_hom_dim(K, H, n) == hom_dim(coh, n), (la, lb, n)


def test_chain_map_check_reads_the_k0_component():
    # a target whose d1 is zero (invalid: d0 d1 is not w) kills f0 = id, so
    # with f1 = 0 the k = 1 component of D(f) vanishes and only the k = 0
    # one, -f0 K.d0 = -K.d0, does not
    g = make_grading_group("loop", 3, 3)
    K = build_basic_object(g, ("K0", 1, 1))
    zero = [[Poly() for _ in range(K.rank)] for _ in range(K.rank)]
    H = MatrixFactorisation(g, K.w, K.even_shifts, K.odd_shifts, K.d0, zero, K.module, K.aug)
    assert "d0*d1 is not w*id" in H.validate()
    f = MFMorphism(K, H, 0, identity_morphism(K).f0, zero)
    k1, k0 = boundary_matrices(K, H, 0, f.f0, f.f1)
    assert not any(e for row in k1 for e in row) and any(e for row in k0 for e in row)
    assert not f.is_chain_map() and not is_chain_map(f)


def test_compose_and_identify_rejects_non_chain_maps():
    g = make_grading_group("loop", 3, 3)
    a = build_basic_object(g, ("K0", 1, 1))
    b = build_basic_object(g, ("K0", 2, 2))
    gen = generator_morphism(a, b, 0, hom_cohomology(a, b.module))
    broken = type(gen)(a, b, 0, gen.f0, [[poly_x(), Poly()], [Poly(), Poly()]])
    assert not broken.is_chain_map()
    with pytest.raises(ArithmeticError):
        compose_and_identify(projection(gen), 0, broken, hom_cohomology(a, b.module))


def test_chain_map_check_runs_once_per_morphism(monkeypatch):
    from mfvc import mf

    g = make_grading_group("loop", 3, 3)
    a = build_basic_object(g, ("K0", 1, 1))
    b = build_basic_object(g, ("K0", 2, 2))
    gen = generator_morphism(a, b, 0, hom_cohomology(a, b.module))
    original = mf._boundary_vanishes
    calls = []

    def counting(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(mf, "_boundary_vanishes", counting)
    ident = identity_morphism(a)
    outer = projection(gen)
    for _ in range(3):
        compose_and_identify(outer, 0, ident, hom_cohomology(a, b.module))
        compose_and_identify(projection(ident), 0, gen, hom_cohomology(a, b.module))
    assert len(calls) == 2  # gen and ident, each checked once


def test_a_cocycle_row_of_the_wrong_length_is_rejected():
    # the row of an outer factor has one entry per summand of the inner
    # map's target; a stray third summand used to be ignored, and a row
    # one short failed with an IndexError
    g = make_grading_group("loop", 3, 3)
    K11, K22 = (build_basic_object(g, ("K0", i, i)) for i in (1, 2))
    mid = generator_morphism(K11, K22, 0, hom_cohomology(K11, K22.module))
    ident = identity_morphism(K11)
    row = projection(mid)
    assert compose_and_identify(row, 0, ident, hom_cohomology(K11, K22.module)) == [1]
    for bad in (row + [Poly.monomial(1000, 0)], row[:1]):
        with pytest.raises(ArithmeticError, match=f"a row of {len(bad)} entries"):
            compose_and_identify(bad, 0, ident, hom_cohomology(K11, K22.module))


@pytest.mark.parametrize("family", ["loop", "chain", "bp"])
@pytest.mark.parametrize("p", range(2, 7))
@pytest.mark.parametrize("q", range(2, 7))
def test_kernels_match_the_poly_matrix_reference(family, p, q):
    # every lift and arrow composite of composition_table: the term-dict
    # chain-map check, projection and composite against the Poly matrices
    from mf_reference import compare_with_reference
    from mfvc.families import FamilySpec

    spec = FamilySpec(family, p, q)
    lifts, composites, differences = compare_with_reference(spec)
    assert differences == []
    assert (len(lifts) > 0) == (spec.milnor() > 1)


@pytest.mark.parametrize("fam,p,q", [("loop", 3, 3), ("chain", 3, 4)])
def test_projections_of_all_chain_maps_match_the_reference(fam, p, q):
    # every basis chain map between basic objects in degrees -1..4, not
    # only the generators: their projections meet normal forms with
    # coefficients other than 1 (R/(F) reduces one monomial of
    # F = x^(p-f) + y^(q-e) to minus the other), so a kernel that dropped
    # those coefficients differs here
    from mfvc.mf import _precompose

    g = make_grading_group(fam, p, q)
    objects = [build_basic_object(g, label) for label in labels_for(fam, p, q)]
    coefficients = set()
    for K in objects:
        for H in objects:
            for n in range(-1, 5):
                coh = hom_cohomology(K, H.module)
                for f in chain_map_space(K, H, n):
                    assert f.is_chain_map() and is_chain_map(f), (K, H, n)
                    vec = _precompose(H.aug, f.component(n), coh, n)
                    assert vec == vector(coh, n, projection(f)), (K, H, n)
                    coefficients.update(vec.values())
    assert coefficients - {1}


def test_perturbed_lifts_fail_both_chain_map_checks():
    # a chain map plus a single-entry map is no chain map: D of the entry
    # m at (s, t) of f0 is m times row t of K.d(0), nonzero, in the row s
    # of the k = 0 component, and likewise for f1.  Both checks reject
    # every lift of loop(3,3) with one entry moved by a monomial of its
    # degree
    from mfvc.bside import _complex_degree, hom_table
    from mfvc.families import FamilySpec
    from mfvc.mf import _entry_degrees
    from mfvc.polyring import monomials_of_exact_degree

    table = hom_table(FamilySpec("loop", 3, 3))
    X = table.objects
    perturbed = 0
    for (a, b) in checked_pattern(table).nonzero_pairs():
        n = _complex_degree(a, b)
        gen = generator_morphism(X[a], X[b], n, cohomology(table, a, b))
        assert gen.is_chain_map() and is_chain_map(gen), (a, b)
        degs = _entry_degrees(X[a], X[b], n)
        for which in (0, 1):
            for s in range(X[b].rank):
                for t in range(X[a].rank):
                    for mono in monomials_of_exact_degree(X[a].group, degs[which][s][t])[:1]:
                        f = [[[e for e in r] for r in m] for m in (gen.f0, gen.f1)]
                        f[which][s][t] = f[which][s][t] + Poly.monomial(*mono)
                        moved = MFMorphism(X[a], X[b], n, *f)
                        assert not moved.is_chain_map(), (a, b, which, s, t)
                        assert not is_chain_map(moved), (a, b, which, s, t)
                        perturbed += 1
    assert perturbed > 0


def test_empty_term_has_zero_cohomology_without_differentials(monkeypatch):
    g = make_grading_group("loop", 3, 3)
    a = build_basic_object(g, ("K0", 1, 1))
    b = build_basic_object(g, ("K0", 2, 2))
    coh = hom_cohomology(a, b.module)
    built = []
    diff = HomCohomology.diff
    monkeypatch.setattr(HomCohomology, "diff", lambda self, n: built.append(n) or diff(self, n))
    n = next(n for n in range(-12, 13) if not coh.term(n))
    assert hom_dim(coh, n) == 0
    assert coh.identify(n, {}) == []
    assert built == []  # decided before any differential is built


def test_vector_reads_positions_off_the_term_and_keeps_nothing():
    # vector builds no index: a second call of one degree leaves every cache
    # of the complex as it was, and a row written from a vector over a
    # two-coordinate-or-larger term reads back as that vector
    g = make_grading_group("loop", 3, 3)
    a = build_basic_object(g, ("K0", 1, 1))
    b = build_basic_object(g, ("K0", 2, 2))
    coh = hom_cohomology(a, b.module)
    gen = generator_morphism(a, b, 0, coh)
    caches = {k: dict(v) for k, v in vars(coh).items() if isinstance(v, dict)}
    vec = vector(coh, 0, projection(gen))
    assert {k: dict(v) for k, v in vars(coh).items() if isinstance(v, dict)} == caches
    assert coh.identify(0, vec) == [1]

    w = family_w("loop", 3, 3)
    coh = hom_cohomology(a, QuotientRing(g, [poly_x(3), poly_y(5), w]))
    assert len(coh.term(4)) > 2
    for rep in coh.classes(4).basis.values():
        assert vector(coh, 4, _row(coh, 4, rep)) == rep


def _row(coh, n, vec):
    """The row of normal forms, one per summand of K^{-n}, of a sparse
    vector over term(n)."""
    row = [Poly() for _ in coh.K.term_shifts(n)]
    for k, c in vec.items():
        t, mono = coh.term(n)[k]
        row[t] = row[t] + Poly.monomial(*mono) * c
    return row


@pytest.mark.parametrize("fam,p,q", [("loop", 4, 4), ("chain", 4, 5), ("bp", 5, 3)])
def test_generator_cocycle_is_the_class_representative(fam, p, q):
    # the outer factor of an arrow-first composite: coordinate [1], the row
    # of the one class representative, and the lift's class
    from mfvc.bside import _complex_degree, hom_table
    from mfvc.families import FamilySpec

    table = hom_table(FamilySpec(fam, p, q))
    pairs = checked_pattern(table).nonzero_pairs()
    for (a, b) in pairs:
        n, coh = _complex_degree(a, b), cohomology(table, a, b)
        row = generator_cocycle(coh, n)
        [rep] = coh.classes(n).basis.values()
        assert row == _row(coh, n, rep)
        assert coh.identify(n, vector(coh, n, row)) == [1], (a, b)
        lift = generator_morphism(table.objects[a], table.objects[b], n, coh)
        assert coh.identify(n, vector(coh, n, projection(lift))) == [1], (a, b)
    assert pairs


def test_outer_factor_enters_only_by_its_class():
    # precomposing a coboundary with a chain map gives a coboundary, so one
    # cocycle stands in for its whole class as an outer factor; K0(2,2)
    # against R/(x^3, y^5, w) has coboundaries in degree 4, which no hom
    # between basic objects has in the degree of its generator
    g = make_grading_group("loop", 3, 3)
    w = family_w("loop", 3, 3)
    K11, K22 = (build_basic_object(g, ("K0", i, i)) for i in (1, 2))
    M = QuotientRing(g, [poly_x(3), poly_y(5), w])
    inner = generator_morphism(K11, K22, 0, hom_cohomology(K11, K22.module))
    outer_coh, coh = hom_cohomology(K22, M), hom_cohomology(K11, M)
    [rep] = outer_coh.classes(4).basis.values()
    want = compose_and_identify(_row(outer_coh, 4, rep), 4, inner, coh)
    assert len(want) == 2 and any(want)
    boundaries = list(outer_coh.image(4).basis.values())
    assert boundaries
    for z in boundaries:
        assert compose_and_identify(_row(outer_coh, 4, z), 4, inner, coh) == [0, 0]
        mixed = {k: rep.get(k, 0) + 3 * z.get(k, 0) for k in set(rep) | set(z)}
        assert compose_and_identify(_row(outer_coh, 4, mixed), 4, inner, coh) == want


def test_identify_in_a_two_dimensional_cohomology():
    # no hom between basic objects has dimension 2, but K0(1,1) against
    # R/(x^3, y^5, w) does in degree 4; all of term(4) are cocycles
    g = make_grading_group("loop", 3, 3)
    K = build_basic_object(g, ("K0", 1, 1))
    w = family_w("loop", 3, 3)
    coh = hom_cohomology(K, QuotientRing(g, [poly_x(3), poly_y(5), w]))
    assert hom_dim(coh, 4) == 2 and len(coh.image(4).basis) == 2
    assert coh.rep_strings(4) == ["x^2*y^2@1", "y^4@1"]
    rep0, rep1 = coh.classes(4).basis.values()
    assert coh.identify(4, rep0) == [1, 0] and coh.identify(4, rep1) == [0, 1]
    boundary = next(col for col in coh.diff(3) if col)
    mixed = {c: rep0.get(c, 0) + 2 * rep1.get(c, 0) + boundary.get(c, 0)
             for c in set(rep0) | set(rep1) | set(boundary)}
    assert coh.identify(4, mixed) == [1, 2]
    # only a one-dimensional hom has a generator to lift
    with pytest.raises(ArithmeticError, match="dimension 2"):
        generator_morphism(K, K, 4, coh)
    with pytest.raises(ArithmeticError, match="dimension 2"):
        generator_cocycle(coh, 4)
    # a non-cocycle: a unit vector whose diff(3) column is nonzero, in a
    # zero and in a one-dimensional cohomology
    j = next(j for j, col in enumerate(coh.diff(3)) if col)
    with pytest.raises(ArithmeticError, match="not a cocycle"):
        coh.identify(3, {j: Fraction(1)})
    coh = hom_cohomology(K, QuotientRing(g, [poly_x(2), poly_y(3), w]))
    assert hom_dim(coh, 3) == 1
    j = next(j for j, col in enumerate(coh.diff(3)) if col)
    with pytest.raises(ArithmeticError, match="not a cocycle"):
        coh.identify(3, {j: Fraction(1)})


@pytest.mark.parametrize("fam,p,q", [("loop", 4, 4), ("chain", 4, 5), ("bp", 5, 3), ("loop", 7, 4)])
def test_dim_from_ranks_equals_cohomology_dim(fam, p, q):
    # on every enumerated nonempty cell of the window, dim(n) reads two
    # ranks; a fresh HomCohomology's classes(n) builds the kernel of d_n by
    # nullspace and the classes modulo the image.  loop(7,4) has torsion in L
    from mfvc.bside import DEGREE_WINDOW, _complex_degree, basic_objects
    from mfvc.families import FamilySpec

    objects = basic_objects(FamilySpec(fam, p, q))
    lo, hi = DEGREE_WINDOW
    cells = 0
    for a, X in objects.items():
        for b, Y in objects.items():
            coh = hom_cohomology(X, Y.module)
            offset = _complex_degree(a, b)
            for n in range(lo + offset, hi + offset + 1):
                if coh.term(n):
                    reference = hom_dim(hom_cohomology(X, Y.module), n)
                    assert coh.dim(n) == reference, (a, b, n)
                    cells += bool(reference)
    assert cells >= len(objects)  # at least the identities


def _nf_diff(coh, n):
    """diff(n) built from one temporary Poly per entry and monomial:
    nf(entry * mono), its terms written into the column."""
    index = {c: i for i, c in enumerate(coh.term(n + 1))}
    P = coh.K.d(n)
    out = []
    for (t, mono) in coh.term(n):
        col = {}
        for s in range(coh.K.rank):
            if P[t][s]:
                for pm, pc in coh.module.nf(P[t][s] * Poly.monomial(*mono)).terms.items():
                    col[index[(s, pm)]] = pc
        out.append(col)
    return out


@pytest.mark.parametrize("fam,p,q", [("loop", 4, 4), ("chain", 4, 5)])
def test_diff_equals_normal_forms_of_products(fam, p, q):
    # Kf has the binomial entry F, so the normal forms of its two terms must
    # be summed, and in R/(f) they cancel.  (bp has no Kf and no binomial
    # entry.)
    from mfvc.bside import basic_objects
    from mfvc.families import FamilySpec

    objects = basic_objects(FamilySpec(fam, p, q))
    K = objects[("Kf",)]
    summed = 0
    for X in (K, K.shifted(K.group.x)):
        for Y in objects.values():
            coh = hom_cohomology(X, Y.module)
            for n in range(-8, 9):
                assert coh.diff(n) == _nf_diff(coh, n), (X.label, Y.label, n)
                summed += sum(len(col) for col in coh.diff(n))
    assert summed
