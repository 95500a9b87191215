import math
import random

import pytest

from mfvc.grading import make_grading_group

FAMILIES = ("loop", "chain", "bp")


def expected_order_mod_c(family, p, q):
    return {"loop": p * q - 1, "chain": p * q, "bp": p * q}[family]


def test_hnf_reduces_relations_to_zero():
    g = make_grading_group("loop", 2, 2)
    # c - 2x - y is a defining relation
    assert (g.c - 2 * g.x - g.y).is_zero()


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("p", range(2, 9))
@pytest.mark.parametrize("q", range(2, 9))
def test_structure_invariants(family, p, q):
    g = make_grading_group(family, p, q)
    assert g.order_mod_c == expected_order_mod_c(family, p, q)
    assert g.c.w > 0  # so c has infinite order: torsion has weight 0
    # L = Z + Z/d with d computed, not assumed
    d = {"loop": math.gcd(p - 1, q - 1), "chain": math.gcd(p, q - 1), "bp": math.gcd(p, q)}[family]
    assert g.free_rank == 1
    assert list(g.torsion) == ([d] if d > 1 else [])


@pytest.mark.parametrize("family", FAMILIES)
def test_mod_c_torsion_factors_by_enumeration(family):
    # L/Zc is generated by the classes of xv and yv, so a search from zero
    # reaches every class; with two generators it is Z/d1 + Z/d2, d1 | d2,
    # and d2 is the largest order of an element.
    for p in range(2, 9):
        for q in range(2, 9):
            g = make_grading_group(family, p, q)
            zero = g.zero.mod_c()
            seen, frontier = {zero}, [zero]
            while frontier:
                frontier = [n for e in frontier for n in ((e + g.x).mod_c(), (e + g.y).mod_c())
                            if n not in seen]
                seen.update(frontier)
            order = len(seen)
            assert g.order_mod_c == order
            divisors = [n for n in range(1, order + 1) if order % n == 0]
            d2 = max(next(n for n in divisors if (n * e).mod_c() == zero) for e in seen)
            assert list(g.torsion_mod_c) == [d for d in (order // d2, d2) if d > 1], (family, p, q)


def test_make_rejects_small_pq():
    for bad in [(1, 3), (3, 1), (0, 2), (2, -1)]:
        with pytest.raises(ValueError):
            make_grading_group("loop", *bad)
    with pytest.raises(ValueError):
        make_grading_group("fermat", 3, 3)


def test_elements_of_different_groups_do_not_combine():
    # an identity test, not an assert, so it holds under python -O too
    a = make_grading_group("loop", 3, 3).x
    b = make_grading_group("loop", 3, 4).x
    with pytest.raises(ArithmeticError):
        a + b
    with pytest.raises(ArithmeticError):
        a - b


def test_elements_of_two_builds_of_one_group_combine():
    # each call builds a new GradingGroup; builds of one (family, p, q)
    # share a key, so their elements add and compare equal
    a = make_grading_group("loop", 3, 3).x
    b = make_grading_group("loop", 3, 3).x
    assert a.group is not b.group and a.group.key == b.group.key
    assert a + b == b + a == 2 * a
    assert a == b and hash(a) == hash(b)
    assert (a - b).is_zero()
    assert a != make_grading_group("loop", 3, 4).x


def test_examples_from_each_family():
    # loop(2,2): |L/Zc| = 3
    assert make_grading_group("loop", 2, 2).order_mod_c == 3
    # chain(3,4): |L/Zc| = 12
    assert make_grading_group("chain", 3, 4).order_mod_c == 12
    # bp(3,3): L = Z + Z/3, frozen from a hand SNF of rows (3,0,-1), (0,3,-1):
    # gcd of entries 1, gcd of 2x2 minors gcd(9,3,3)=3, so invariants (1,3).
    g = make_grading_group("bp", 3, 3)
    assert g.free_rank == 1 and list(g.torsion) == [3]
    assert (3 * g.x - g.c).is_zero()


def test_loop_defining_relation_reduces_to_zero():
    for p in range(2, 7):
        for q in range(2, 7):
            g = make_grading_group("loop", p, q)
            assert ((p - 1) * g.x + (1 - q) * g.y).is_zero()


def test_mod_c_is_constant_on_c_cosets():
    rng = random.Random(11)
    for family in FAMILIES:
        g = make_grading_group(family, 4, 3)
        for _ in range(50):
            l = g.element(rng.randint(-8, 8), rng.randint(-8, 8), rng.randint(-3, 3))
            cls = l.mod_c()
            # the canonical element: weight in [0, c.w), differing from l by a multiple of c
            assert 0 <= cls.w < g.c.w
            assert cls.mod_c() == cls
            assert l - cls == ((l - cls).w // g.c.w) * g.c
            for m in range(-20, 21):
                assert (m * g.c + l).mod_c() == cls


def test_mod_c_same_and_different_classes():
    g = make_grading_group("loop", 2, 2)
    l = g.element(1, 2)
    assert (l + g.c).mod_c() == l.mod_c()
    # In loop(2,2) the defining relation collapses x and y to the same
    # element, so x and y share a class.
    assert (g.x - g.y).is_zero()
    assert g.x.mod_c() == g.y.mod_c()
    # Distinct classes: in loop(2,3), x - y = 3x is nonzero in L/Zc = Z/5,
    # so x is not y + m*c for any m.
    g23 = make_grading_group("loop", 2, 3)
    assert g23.x.mod_c() != g23.y.mod_c()
    assert all((m * g23.c + g23.y) != g23.x for m in range(-10, 11))


def test_weight_positive_on_monomials():
    for family in FAMILIES:
        for p in range(2, 7):
            for q in range(2, 7):
                g = make_grading_group(family, p, q)
                assert g.x.w > 0 and g.y.w > 0 and g.c.w > 0


def test_mod_c_classes_count():
    for family in FAMILIES:
        g = make_grading_group(family, 3, 4)
        seen = set()
        for a in range(-12, 13):
            for b in range(-12, 13):
                seen.add(g.element(a, b).mod_c())
        assert len(seen) == g.order_mod_c


def hermite_normal_form(rows):
    """Row-style HNF of an integer matrix: echelon rows with positive pivots,
    entries above each pivot reduced into [0, pivot)."""
    mat = [list(r) for r in rows if any(r)]
    ncols = len(rows[0]) if rows else 0
    result = []
    col = 0
    while mat and col < ncols:
        pivots = [r for r in mat if r[col] != 0]
        if not pivots:
            col += 1
            continue
        # Euclidean elimination in this column.
        while True:
            pivots = [r for r in mat if r[col] != 0]
            if len(pivots) <= 1:
                break
            pivots.sort(key=lambda r: abs(r[col]))
            small = pivots[0]
            for r in pivots[1:]:
                f = r[col] // small[col]
                for j in range(ncols):
                    r[j] -= f * small[j]
            mat = [r for r in mat if any(r)]
        pivots = [r for r in mat if r[col] != 0]
        if pivots:
            piv = pivots[0]
            if piv[col] < 0:
                piv = [-a for a in piv]
            result.append(piv)
            mat = [r for r in mat if r is not pivots[0] and any(r)]
        col += 1
    # Reduce above-pivot entries for a canonical echelon.
    for i in range(len(result) - 1, -1, -1):
        piv_col = next(j for j, a in enumerate(result[i]) if a != 0)
        for k in range(i):
            f = result[k][piv_col] // result[i][piv_col]
            if f:
                result[k] = [a - f * b for a, b in zip(result[k], result[i])]
    return result


def _hnf_reduce(hnf, vec):
    """Reference canonical form: reduce an integer 3-vector against the
    Hermite normal form of the relation lattice (coset representative)."""
    v = list(vec)
    for row in hnf:
        piv = next(j for j, a in enumerate(row) if a)
        f = v[piv] // row[piv]
        v = [a - f * b for a, b in zip(v, row)]
    return tuple(v)


def _reference_weight(g, vec):
    """The primitive functional killing both relations, positive on xv."""
    r1, r2 = g.relations
    phi = [r1[1] * r2[2] - r1[2] * r2[1], r1[2] * r2[0] - r1[0] * r2[2],
           r1[0] * r2[1] - r1[1] * r2[0]]
    k = math.gcd(*phi) * (1 if phi[0] > 0 else -1)
    return sum(a * b for a, b in zip(vec, phi)) // k


# larger shapes with torsion in L, g = gcd(p - f, q - e) > 1; all but
# loop(7,4) also have b' = (q - e)/g > 1
EXTRA_SHAPES = {"loop": [(7, 4), (10, 7)], "chain": [(4, 9)], "bp": [(12, 8)]}


@pytest.mark.parametrize("family", FAMILIES)
def test_smith_coordinates_agree_with_hnf_reference(family):
    rng = random.Random(2024)
    shapes = [(p, q) for p in range(2, 7) for q in range(2, 7)] + EXTRA_SHAPES[family]
    for p, q in shapes:
        g = make_grading_group(family, p, q)
        hnf = hermite_normal_form(g.relations)
        hnf_mod_c = hermite_normal_form(g.relations + [[0, 0, 1]])
        c_vec = (0, 0, 1)
        for _ in range(20):
            a = tuple(rng.randint(-8, 8) for _ in range(3))
            k1, k2 = rng.randint(-3, 3), rng.randint(-3, 3)
            # b is a plus a lattice vector, plus m*cv, or unrelated to a
            kind = rng.choice(("same", "c-multiple", "random"))
            if kind == "random":
                b = tuple(rng.randint(-8, 8) for _ in range(3))
            else:
                m = 0 if kind == "same" else rng.randint(-5, 5)
                b = tuple(x + k1 * r + k2 * s + m * y
                          for x, r, s, y in zip(a, *g.relations, c_vec))
            ea, eb = g.element(*a), g.element(*b)
            same = _hnf_reduce(hnf, a) == _hnf_reduce(hnf, b)
            assert (ea == eb) == same, (family, p, q, a, b)
            if same:
                assert hash(ea) == hash(eb)
            assert _hnf_reduce(hnf, ea.vec) == _hnf_reduce(hnf, a)
            assert ea.w == _reference_weight(g, a)
            # classes mod c against the HNF of the relations plus cv
            same_mod_c = _hnf_reduce(hnf_mod_c, a) == _hnf_reduce(hnf_mod_c, b)
            assert (ea.mod_c() == eb.mod_c()) == same_mod_c, (family, p, q, a, b)
            assert _hnf_reduce(hnf_mod_c, ea.mod_c().vec) == _hnf_reduce(hnf_mod_c, a)
            # and against a brute-force search for m with a = b + m*cv
            diff = tuple(x - y for x, y in zip(a, b))
            brute = [m for m in range(-30, 31)
                     if _hnf_reduce(hnf, tuple(x - m * y for x, y in zip(diff, c_vec)))
                     == (0, 0, 0)]
            assert len(brute) <= 1
            assert same_mod_c == bool(brute)
