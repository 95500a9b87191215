import random
from fractions import Fraction

import pytest

from mfvc._linalg import rank
from mfvc.grading import make_grading_group
from mfvc.polyring import (
    Poly,
    QuotientRing,
    brute_force_piece_dim,
    family_factor,
    family_w,
    groebner,
    mono_key,
    normal_form,
    poly_x,
    poly_y,
)


def test_poly_arithmetic_exact():
    f = Poly({(1, 0): 1, (0, 1): -1})
    g = Poly({(1, 0): 1, (0, 1): 1})
    assert (f * g).terms == {(2, 0): 1, (0, 2): -1}
    assert (f + g).terms == {(1, 0): 2}
    assert not (f - f)
    h = Poly({(0, 0): Fraction(1, 3)})
    assert (3 * h).terms == {(0, 0): 1}



def test_integral_coefficients_are_ints():
    # values that enter a Poly are held in canonical form
    f = Poly({(1, 0): Fraction(4, 2), (0, 1): Fraction(1, 2), (0, 0): Fraction(0)})
    assert f.terms == {(1, 0): 2, (0, 1): Fraction(1, 2)}
    assert type(f.terms[(1, 0)]) is int
    assert type(Poly.monomial(1, 1, Fraction(3, 3)).terms[(1, 1)]) is int
    assert type(Poly.constant(Fraction(-6, 2)).terms[(0, 0)]) is int


def test_monic_divides_exactly():
    m = Poly({(1, 0): 2, (0, 1): 3}).monic()
    assert m.terms == {(1, 0): 1, (0, 1): Fraction(3, 2)}
    assert type(m.terms[(1, 0)]) is int and type(m.terms[(0, 1)]) is Fraction
    assert Poly({(1, 0): -1, (0, 1): 4}).monic().terms == {(1, 0): 1, (0, 1): -4}


def test_groebner_of_non_monic_generators():
    # (2x^2 + 3y, 3xy + 1) has the reduced basis (x^2 + 3/2 y, xy + 1/3,
    # y^2 - 2/9 x): monic, with the exact rationals the divisions leave
    gb = groebner([Poly({(2, 0): 2, (0, 1): 3}), Poly({(1, 1): 3, (0, 0): 1})])
    assert [h.terms for h in gb] == [
        {(0, 2): 1, (1, 0): Fraction(-2, 9)},
        {(1, 1): 1, (0, 0): Fraction(1, 3)},
        {(2, 0): 1, (0, 1): Fraction(3, 2)},
    ]
    coeffs = [c for h in gb for c in h.terms.values()]
    assert all(type(c) is int or type(c) is Fraction and c.denominator != 1 for c in coeffs)
    # x^2 y = x (xy + 1/3) - x/3, and three times that has the int coefficient -1
    assert normal_form(Poly.monomial(2, 1), gb).terms == {(1, 0): Fraction(-1, 3)}
    r = normal_form(Poly.monomial(2, 1, 3), gb)
    assert r.terms == {(1, 0): -1} and type(r.terms[(1, 0)]) is int


def test_degrevlex_order():
    # x > y, and higher total degree wins
    assert mono_key((1, 0)) > mono_key((0, 1))
    assert mono_key((0, 3)) > mono_key((2, 0))
    assert mono_key((2, 1)) > mono_key((1, 2))


def test_groebner_loop22_example():
    # (x, y*(x+y)) has reduced basis {x, y^2}
    f = family_factor("loop", 2, 2)  # x + y
    gb = groebner([poly_x(), poly_y() * f])
    assert sorted(g.lead()[0] for g in gb) == [(0, 2), (1, 0)]
    assert {frozenset(g.terms.items()) for g in gb} == {
        frozenset({(0, 2): Fraction(1)}.items()),
        frozenset({(1, 0): Fraction(1)}.items()),
    }


def test_groebner_unit_ideal():
    gb = groebner([Poly.constant(1)])
    assert len(gb) == 1 and gb[0].terms == {(0, 0): 1}


def test_groebner_chain34_example():
    # (y, x^3 + y^3) -> {y, x^3}, checked against a by-hand Buchberger run
    gb = groebner([poly_y(), Poly({(3, 0): 1, (0, 3): 1})])
    assert [g.terms for g in gb] == [{(0, 1): 1}, {(3, 0): 1}]


def test_normal_form_is_linear_projection():
    rng = random.Random(5)
    gb = groebner([Poly({(2, 0): 1, (0, 2): -1}), Poly({(1, 1): 1})])
    for _ in range(20):
        f = Poly({(rng.randint(0, 4), rng.randint(0, 4)): rng.randint(-3, 3) for _ in range(4)})
        g = Poly({(rng.randint(0, 4), rng.randint(0, 4)): rng.randint(-3, 3) for _ in range(4)})
        lhs = normal_form(f + g, gb)
        rhs = normal_form(f, gb) + normal_form(g, gb)
        assert lhs == rhs
        assert normal_form(normal_form(f, gb), gb) == normal_form(f, gb)


def test_groebner_idempotent_unique():
    gens = [family_w("loop", 3, 4), Poly({(1, 0): 1})]
    gb1 = groebner(gens)
    gb2 = groebner(list(reversed(gens)))
    assert gb1 == gb2
    assert groebner(gb1) == gb1


# ---------------------------------------------------------------------------
# graded pieces


def test_piece_loop22_y_class():
    g = make_grading_group("loop", 2, 2)
    q = QuotientRing(g, [poly_x(), poly_y(2)])
    basis = q.graded_piece_basis(g.y)
    assert [m for m, _ in basis] == [(0, 1)]


def test_piece_contains_one_in_class_zero():
    g = make_grading_group("chain", 3, 4)
    q = QuotientRing(g, [poly_x(1), poly_y(2)])
    basis = q.graded_piece_basis(g.zero)
    assert ((0, 0), 0) in basis


def test_piece_exceptional_vanishing_loop():
    # (S/(x, y^q))_{a*x} = 0 for 1 <= a <= p-2: Hom-vanishing pattern behind
    # the pairwise orthogonality of the x-axis objects
    for p, q in [(3, 3), (4, 3), (5, 6)]:
        g = make_grading_group("loop", p, q)
        q_ring = QuotientRing(g, [poly_x(), poly_y(q)])
        for a in range(1, p - 1):
            assert q_ring.graded_piece_basis(g.element(a, 0)) == []


def test_shifted_ring_keeps_the_original_and_shares_its_basis():
    g = make_grading_group("bp", 4, 6)
    ring = QuotientRing(g, [poly_x(2), poly_y(3), family_w("bp", 4, 6)], shift=g.x)
    moved = ring.shifted(g.y + g.c)
    assert ring.shift == g.x
    assert moved.shift == g.x + g.y + g.c
    assert moved.gb is ring.gb
    # a piece is the same whichever copy enumerates it first
    fresh = QuotientRing(g, ring.generators, shift=moved.shift)
    assert moved.graded_piece_basis(g.zero) == fresh.graded_piece_basis(g.zero)
    assert ring.graded_piece_basis(g.zero) == \
        QuotientRing(g, ring.generators, shift=g.x).graded_piece_basis(g.zero)


def test_unbounded_piece_error():
    g = make_grading_group("loop", 3, 3)
    q = QuotientRing(g, [family_factor("loop", 3, 3)])
    assert q.staircase_bound() is None
    with pytest.raises(ValueError):
        q.graded_piece_basis(g.zero)
    # with a bound the enumeration is allowed
    assert ((0, 0), 0) in q.graded_piece_basis(g.zero, bound=9)


def test_brute_force_oracle_examples():
    g = make_grading_group("loop", 2, 2)
    assert brute_force_piece_dim(g, [poly_x(), poly_y(2)], g.zero, g.y, 6) == 1
    assert brute_force_piece_dim(g, [Poly.constant(1)], g.zero, g.y, 6) == 0
    # loop(3,3), ideal (x, y^3): class [x] is empty (a <= p-2, the range
    # the divisibility pattern covers), while class [2x] is spanned by y^2:
    # 2y = 2x exactly in L (x - y is 2-torsion here).
    g33 = make_grading_group("loop", 3, 3)
    assert brute_force_piece_dim(g33, [poly_x(), poly_y(3)], g33.zero, g33.element(1, 0), 10) == 0
    assert brute_force_piece_dim(g33, [poly_x(), poly_y(3)], g33.zero, g33.element(2, 0), 10) == 1


def test_brute_force_warns_when_bound_too_small():
    import warnings

    g = make_grading_group("loop", 3, 3)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        brute_force_piece_dim(g, [poly_x(9)], g.zero, g.zero, 4)
    assert any("staircase" in str(w.message) for w in caught)


def test_negative_bound_and_non_element_delta_are_rejected():
    import warnings

    g = make_grading_group("loop", 3, 3)
    for ring in (QuotientRing(g, [poly_x(2), poly_y(2)]), QuotientRing(g, [poly_x(2)])):
        with pytest.raises(ValueError, match="negative"):
            ring.graded_piece_basis(g.zero, bound=-1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="negative"):
            brute_force_piece_dim(g, [poly_x(2)], g.zero, g.zero, -1)
    with pytest.raises(TypeError, match="GroupElement"):
        brute_force_piece_dim(g, [poly_x(2)], g.zero, (0, 0), 4)


def randomized_cases():
    """(group, generators, delta, bound) for 200 cases on finite staircases."""
    rng = random.Random(2024)
    for _ in range(200):
        family = rng.choice(["loop", "chain", "bp"])
        p = rng.randint(2, 5)
        q = rng.randint(2, 5)
        g = make_grading_group(family, p, q)
        a = rng.randint(1, p)
        b = rng.randint(1, q)
        gens = [poly_x(a), poly_y(b)]
        if rng.random() < 0.5:
            gens.append(family_w(family, p, q))
        if rng.random() < 0.3:
            f = family_factor(family, p, q)
            if f is not None:
                gens.append(poly_x() * f if rng.random() < 0.5 else f)
        delta = g.element(rng.randint(-4, 4), rng.randint(-4, 4), rng.randint(-1, 1))
        yield g, gens, delta, 3 * p * q


def test_graded_piece_matches_oracle_randomized():
    for g, gens, delta, bound in randomized_cases():
        ring = QuotientRing(g, gens)
        dim = len(ring.graded_piece_basis(delta, bound=bound))
        oracle = brute_force_piece_dim(g, gens, g.zero, delta, bound)
        assert dim == oracle, (g.key, [str(x) for x in gens], delta)


def shifted_cases():
    """(group, generators, shift, delta, bound) for 150 cases: nonzero
    shifts on finite staircases (odd cases), and infinite staircases of
    monomial ideals with an exponent bound (even cases)."""
    rng = random.Random(5)
    for case in range(150):
        family = rng.choice(["loop", "chain", "bp"])
        p, q = rng.randint(2, 5), rng.randint(2, 5)
        g = make_grading_group(family, p, q)
        if case % 2:
            gens = [poly_x(rng.randint(1, p)), poly_y(rng.randint(1, q))]
            if rng.random() < 0.5:
                gens.append(family_w(family, p, q))
        else:
            gens = rng.choice([
                [poly_x(rng.randint(1, p))],
                [poly_y(rng.randint(1, q))],
                [Poly.monomial(rng.randint(1, p), rng.randint(1, q))],
                [poly_x(rng.randint(2, p + 1)), Poly.monomial(1, rng.randint(1, q))],
            ])
        shift = g.element(rng.randint(-4, 4), rng.randint(-4, 4), rng.randint(-1, 1))
        delta = g.element(rng.randint(-4, 4), rng.randint(-4, 4), rng.randint(-1, 1))
        yield g, gens, shift, delta, rng.randint(p + q, 3 * p * q)


def test_graded_piece_matches_oracle_shifted_and_unbounded():
    # On the infinite staircases of monomial ideals the oracle's box
    # truncation (multiples lying wholly inside the box) keeps exactly the
    # standard monomials of the box, so both counts agree.
    for case, (g, gens, shift, delta, bound) in enumerate(shifted_cases()):
        ring = QuotientRing(g, gens, shift=shift)
        assert (ring.staircase_bound() is None) == (not case % 2)
        basis = ring.graded_piece_basis(delta, bound=bound)
        for mono, m in basis:
            assert g.element(*mono) == delta + shift + m * g.c
            assert max(mono) <= bound and ring.is_standard(mono)
        oracle = brute_force_piece_dim(g, gens, shift, delta, bound)
        assert len(basis) == oracle, (g.key, [str(x) for x in gens], shift, delta)


def naive_piece_dim(group, generators, shift, delta_rep, bound):
    """The reference oracle: scans the whole exponent box for the monomials
    of the class, tries every shift of every generator, and builds each
    multiple inside the box and class as a dense row."""
    import warnings

    max_gen_exp = max(
        (max(u, v) for g in generators if g for (u, v) in g.terms), default=0
    )
    if bound < max_gen_exp:
        warnings.warn(
            f"bound {bound} does not enclose the ideal staircase "
            f"(generator exponent {max_gen_exp}); the count may be too large",
            stacklevel=2,
        )
    target = (delta_rep + shift).mod_c()
    monos = [
        (u, v)
        for u in range(bound + 1)
        for v in range(bound + 1)
        if group.element(u, v).mod_c() == target
    ]
    if not monos:
        return 0
    index = {m: i for i, m in enumerate(monos)}
    rows = []
    for gpoly in generators:
        if not gpoly:
            continue
        if gpoly.degree_in(group) is None:
            raise ValueError("oracle needs homogeneous generators")
        maxu = max(u for (u, v) in gpoly.terms)
        maxv = max(v for (u, v) in gpoly.terms)
        for su in range(bound - maxu + 1):
            for sv in range(bound - maxv + 1):
                shifted = {(su + u, sv + v): c for (u, v), c in gpoly.terms.items()}
                if any(m not in index for m in shifted):
                    continue
                first = next(iter(shifted))
                if group.element(*first).mod_c() != target:
                    continue
                row = [0] * len(monos)
                for m, c in shifted.items():
                    row[index[m]] = c
                rows.append(row)
    return len(monos) - rank([{c: a for c, a in enumerate(r) if a} for r in rows])


def test_oracle_matches_naive_reference():
    from test_acceptance import criterion_6_cases

    cases = [(g, gens, g.zero, delta, bound) for g, gens, delta, bound in criterion_6_cases()]
    cases += [(g, gens, g.zero, delta, bound) for g, gens, delta, bound in randomized_cases()]
    cases += list(shifted_cases())
    assert len(cases) == 550
    g = make_grading_group("loop", 3, 4)
    cases += [
        (g, [Poly.constant(1)], g.zero, g.y, 6),  # the unit ideal
        (g, [Poly(), poly_x(2), poly_y(3)], g.x, g.zero, 8),  # a zero generator
        (g, [], g.zero, g.x, 0),  # no monomial in the class
        (g, [], g.y, g.x, 7),  # no generator: every monomial of the class
        # a homogeneous binomial on an infinite staircase, where the box
        # truncation differs from graded_piece_basis's
        (g, [family_w("loop", 3, 4)], g.zero, g.zero, 12),
        (g, [family_factor("loop", 3, 4)], g.x, g.y, 11),
    ]
    for case in cases:
        assert brute_force_piece_dim(*case) == naive_piece_dim(*case), case
    # a bound below a generator exponent: both warn, and agree
    case = (g, [poly_x(9), poly_y(2)], g.zero, g.zero, 4)
    with pytest.warns(UserWarning, match="staircase"):
        got = brute_force_piece_dim(*case)
    with pytest.warns(UserWarning, match="staircase"):
        assert got == naive_piece_dim(*case)


# ---------------------------------------------------------------------------
# the divisibility facts behind every hom computation

from divisibility_utils import (  # noqa: E402
    chain_divisibility_counterexamples,
    loop_divisibility_counterexamples,
    loop_degree_zero_counterexamples,
)


@pytest.mark.parametrize("p", range(2, 7))
@pytest.mark.parametrize("q", range(2, 7))
def test_loop_divisibility_pattern(p, q):
    assert loop_divisibility_counterexamples(p, q) == []


@pytest.mark.parametrize("p", range(2, 7))
@pytest.mark.parametrize("q", range(2, 7))
def test_loop_degree_zero_pattern(p, q):
    assert loop_degree_zero_counterexamples(p, q) == []


@pytest.mark.parametrize("p", range(2, 7))
@pytest.mark.parametrize("q", range(2, 7))
def test_chain_divisibility_pattern(p, q):
    assert chain_divisibility_counterexamples(p, q) == []


@pytest.mark.parametrize("fam,p,q", [("loop", 4, 4), ("chain", 4, 5), ("bp", 5, 3), ("loop", 7, 4),
                                     ("loop", 3, 4)])
def test_indexed_staircase_equals_filtered_enumeration(fam, p, q):
    # every finite staircase among the basic objects' modules, and a larger
    # box with degrees of several monomials: its index against the standard
    # monomials of each degree, found by enumeration.  In loop(3,4) x is
    # heavier than y, so a degree's monomials in order of u are not in
    # degrevlex order
    from mfvc.bside import basic_objects
    from mfvc.families import FamilySpec
    from mfvc.polyring import mono_key, monomials_of_exact_degree

    rings = [K.module for K in basic_objects(FamilySpec(fam, p, q)).values()]
    box = QuotientRing(rings[0].group, [poly_x(2 * p), poly_y(2 * q)], label="box")
    assert any(len(monos) > 1 for monos in box._std_cache.values())
    finite = [r for r in rings if r.staircase_bound() is not None] + [box]
    for ring in finite:
        g = ring.group
        bx, by = ring.staircase_bound()
        for u in range(bx):
            for v in range(by):
                for d in (g.element(u, v), g.element(u, v) + g.c, g.element(u, v) - g.c):
                    want = sorted((m for m in monomials_of_exact_degree(g, d) if ring.is_standard(m)),
                                  key=mono_key)
                    assert list(ring.standard_monomials_exact(d)) == want, (ring.label, u, v)
        assert ring.shifted(g.x)._std_cache is ring._std_cache
