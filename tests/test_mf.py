from fractions import Fraction

import pytest

from mfvc.grading import make_grading_group
from mfvc.mf import (
    HomCohomology,
    MatrixFactorisation,
    build_basic_object,
    chain_map_space,
    compose_and_identify,
    generator_morphism,
    identity_morphism,
)
from mfvc.polyring import Poly, poly_x


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
    coh = HomCohomology(Kx, Kx.module)
    dims = {n: coh.cohomology(n).dim for n in range(-4, 5)}
    assert dims == {n: (1 if n == 0 else 0) for n in range(-4, 5)}


@pytest.mark.parametrize("p,q,i,j", [(4, 6, 2, 3), (3, 3, 1, 2), (2, 2, 1, 1)])
def test_k0_to_kf_generator_rep(p, q, i, j):
    g = make_grading_group("loop", p, q)
    K0 = build_basic_object(g, ("K0", i, j))
    Kf = build_basic_object(g, ("Kf",))
    coh = HomCohomology(K0, Kf.module)
    dims = {n: coh.cohomology(n).dim for n in range(-6, 7)}
    assert dims == {n: (1 if n == 3 else 0) for n in range(-6, 7)}
    # the degree-3 class is spanned by (y^{q-j-1}, -x^{p-i-1})
    data = coh.cohomology(3)
    vec = {}
    for k, (t, mono) in enumerate(data.coords):
        if t == 0 and mono == (0, q - j - 1):
            vec[k] = Fraction(1)
        if t == 1 and mono == (p - i - 1, 0):
            vec[k] = Fraction(-1)
    coeffs = data.identify(vec)
    assert len(coeffs) == 1 and coeffs[0] != 0


def test_k0_to_axis_objects_constant_reps():
    # the degree-3 generators into the axis objects are constants in one
    # summand of the raw complex
    g = make_grading_group("loop", 4, 6)
    K0 = build_basic_object(g, ("K0", 2, 3))
    kx = build_basic_object(g, ("Kx", 2))
    ky = build_basic_object(g, ("Ky", 3))
    assert HomCohomology(K0, kx.module).cohomology(3).rep_strings() == ["1@1"]
    assert HomCohomology(K0, ky.module).cohomology(3).rep_strings() == ["1@0"]
    gc = make_grading_group("chain", 3, 4)
    K0c = build_basic_object(gc, ("K0", 2, 2))
    kyc = build_basic_object(gc, ("Ky", 2))
    assert HomCohomology(K0c, kyc.module).cohomology(3).rep_strings() == ["1@0"]


def test_chain_kf_shift_is_shifted_ky():
    # Kf[1] and Ky(y) resolve the same hom functor in the chain family
    from mfvc.mf import CyclicModule
    from mfvc.polyring import QuotientRing, family_w, poly_y

    g = make_grading_group("chain", 3, 4)
    Kf = build_basic_object(g, ("Kf",))
    ky_shifted = CyclicModule(
        QuotientRing(g, [poly_y(), family_w("chain", 3, 4)]), extra=g.y
    )
    for lab in [("K0", 2, 2), ("K0", 1, 3), ("Ky", 1), ("Kf",)]:
        X = build_basic_object(g, lab)
        ca = HomCohomology(X, Kf.module)
        cb = HomCohomology(X, ky_shifted)
        for d in range(-5, 6):
            assert ca.cohomology(d + 1).dim == cb.cohomology(d).dim


def test_kx_orthogonal_to_k0():
    g = make_grading_group("loop", 4, 6)
    K0 = build_basic_object(g, ("K0", 2, 3))
    for i in range(1, 4):
        Kx = build_basic_object(g, ("Kx", i))
        coh = HomCohomology(Kx, K0.module)
        assert all(coh.cohomology(n).dim == 0 for n in range(-6, 7))


def test_periodicity_under_simultaneous_shift():
    # Hom^{n+2}(K, M) has the terms and dimensions of Hom^n(K, M(c))
    g = make_grading_group("chain", 3, 4)
    K = build_basic_object(g, ("K0", 2, 2))
    target = build_basic_object(g, ("K0", 1, 3))
    coh = HomCohomology(K, target.module)
    coh_shift = HomCohomology(K, target.module.shifted(g.c))
    for n in range(-4, 5):
        assert coh.cohomology(n + 2).dim == coh_shift.cohomology(n).dim


# ---------------------------------------------------------------------------
# chain maps and composition


def test_grid_generator_is_the_paper_matrix():
    g = make_grading_group("loop", 4, 6)
    K0a = build_basic_object(g, ("K0", 1, 2))
    K0b = build_basic_object(g, ("K0", 3, 5))
    coh = HomCohomology(K0a, K0b.module)
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
    mid = generator_morphism(K11, K22, 0, HomCohomology(K11, K22.module))
    top = generator_morphism(K22, Kf, 3, HomCohomology(K22, Kf.module))
    coeff = compose_and_identify(top, mid, HomCohomology(K11, Kf.module))
    assert len(coeff) == 1 and abs(coeff[0]) == 1

    # g composed with the identity is g
    assert compose_and_identify(mid, identity_morphism(K11), HomCohomology(K11, K22.module)) == [1]
    assert compose_and_identify(identity_morphism(K22), mid, HomCohomology(K11, K22.module)) == [1]


def test_composition_into_zero_hom_space_vanishes():
    # K0(1,2) -> K0(2,2) -> Kx(2) lands in Hom(K0(1,2), Kx(2)) = 0
    g = make_grading_group("loop", 3, 3)
    a = build_basic_object(g, ("K0", 1, 2))
    b = build_basic_object(g, ("K0", 2, 2))
    kx2 = build_basic_object(g, ("Kx", 2))
    f1 = generator_morphism(a, b, 0, HomCohomology(a, b.module))
    f2 = generator_morphism(b, kx2, 3, HomCohomology(b, kx2.module))
    coeff = compose_and_identify(f2, f1, HomCohomology(a, kx2.module))
    assert coeff == []


def test_compose_associativity_on_grid_triples():
    g = make_grading_group("loop", 4, 4)
    chain = [("K0", 1, 1), ("K0", 2, 2), ("K0", 3, 3)]
    objs = [build_basic_object(g, lab) for lab in chain]
    Kf = build_basic_object(g, ("Kf",))
    g01 = generator_morphism(objs[0], objs[1], 0, HomCohomology(objs[0], objs[1].module))
    g12 = generator_morphism(objs[1], objs[2], 0, HomCohomology(objs[1], objs[2].module))
    g2f = generator_morphism(objs[2], Kf, 3, HomCohomology(objs[2], Kf.module))
    coh = HomCohomology(objs[0], Kf.module)
    left = g2f.compose(g12).compose(g01)
    right = g2f.compose(g12.compose(g01))
    assert coh.cohomology(3).identify(left.buchweitz_vector(coh)) == \
        coh.cohomology(3).identify(right.buchweitz_vector(coh))


def test_chain_map_space_contains_no_fake_maps():
    # a hom space that vanishes: every chain map projects to a coboundary
    g = make_grading_group("loop", 3, 3)
    kx1 = build_basic_object(g, ("Kx", 1))
    kx2 = build_basic_object(g, ("Kx", 2))
    coh = HomCohomology(kx1, kx2.module)
    for n in range(0, 4):
        for f in chain_map_space(kx1, kx2, n):
            assert coh.cohomology(n).identify(f.buchweitz_vector(coh)) == []


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
    from mfvc.mf import MFMorphism, _boundary_matrices, _entry_degrees
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
                    b0, b1 = _boundary_matrices(K, H, n - 1, g0, g1)
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
        coh = HomCohomology(K, H.module)
        for n in range(-1, 5):
            assert mf_model_hom_dim(K, H, n) == coh.cohomology(n).dim, (la, lb, n)


def test_compose_and_identify_rejects_non_chain_maps():
    g = make_grading_group("loop", 3, 3)
    a = build_basic_object(g, ("K0", 1, 1))
    b = build_basic_object(g, ("K0", 2, 2))
    gen = generator_morphism(a, b, 0, HomCohomology(a, b.module))
    broken = type(gen)(a, b, 0, gen.f0, [[poly_x(), Poly()], [Poly(), Poly()]])
    assert not broken.is_chain_map()
    with pytest.raises(ValueError):
        compose_and_identify(gen, broken, HomCohomology(a, b.module))


def test_chain_map_check_runs_once_per_morphism(monkeypatch):
    from mfvc import mf

    g = make_grading_group("loop", 3, 3)
    a = build_basic_object(g, ("K0", 1, 1))
    b = build_basic_object(g, ("K0", 2, 2))
    gen = generator_morphism(a, b, 0, HomCohomology(a, b.module))
    original = mf._boundary_matrices
    calls = []

    def counting(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(mf, "_boundary_matrices", counting)
    ident = identity_morphism(a)
    for _ in range(3):
        compose_and_identify(gen, ident, HomCohomology(a, b.module))
    assert len(calls) == 2  # gen and ident, each checked once


def test_empty_term_has_zero_cohomology_without_differentials():
    g = make_grading_group("loop", 3, 3)
    a = build_basic_object(g, ("K0", 1, 1))
    b = build_basic_object(g, ("K0", 2, 2))
    coh = HomCohomology(a, b.module)
    n = next(n for n in range(-12, 13) if not coh.term(n))
    data = coh.cohomology(n)
    assert data.dim == 0
    assert data.identify({}) == []
    assert not coh._diffs  # decided before any differential is built
