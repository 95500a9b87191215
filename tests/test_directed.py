import random

import pytest

from mfvc.aside import assemble_directed_algebra
from mfvc.directed import DirectedAlgebra, _arrows_and_relations, _certify
from mfvc.families import FamilySpec


def naive_composable_triples(algebra):
    """Reference: the double loop over all nonzero pairs."""
    out = []
    for (a, b) in algebra.nonzero_pairs():
        for (b2, c) in algebra.nonzero_pairs():
            if b2 == b:
                out.append((a, b, c))
    return out


def coefficient(algebra, a, b, c):
    """The k in  gen(b,c) o gen(a,b) = k * gen(a,c) under the +1 law: 1 when
    the homs a->b, b->c and a->c are nonzero, 0 otherwise."""
    return int((a, b) in algebra.pairs and (b, c) in algebra.pairs and (a, c) in algebra.pairs)


def naive_check_associativity(algebra):
    """Reference: the 4-deep loop over the paths a->b->c->d of nonzero
    pairs, in position order, comparing the two bracketings through
    `coefficient`."""
    order = algebra.objects.index
    pairs = sorted(algebra.pairs, key=lambda ab: (order(ab[0]), order(ab[1])))
    succ = {}
    for (a, b) in pairs:
        succ.setdefault(a, []).append(b)
    bad = []
    for (a, b) in pairs:
        for c in succ.get(b, ()):
            for d in succ.get(c, ()):
                left = coefficient(algebra, a, b, c) * coefficient(algebra, a, c, d)
                right = coefficient(algebra, b, c, d) * coefficient(algebra, a, b, d)
                if left != right:
                    bad.append((a, b, c, d, left, right))
    return bad


def naive_arrows(algebra):
    """Reference: the nonzero pairs a->b with no z such that a->z and z->b."""
    return [(a, b) for (a, b) in algebra.nonzero_pairs()
            if not any((a, z) in algebra.pairs and (z, b) in algebra.pairs
                       for z in algebra.objects)]


def naive_arrow_path_violations(algebra):
    """Reference for (ii'): the triple loop over the pairs a->b1, b1->b and
    b->c, in position order, a->b1 an arrow, keeping the paths with a->b
    and a->c nonzero and b1->c zero."""
    order = algebra.objects.index
    pairs = sorted(algebra.pairs, key=lambda ab: (order(ab[0]), order(ab[1])))
    succ = {}
    for (a, b) in pairs:
        succ.setdefault(a, []).append(b)
    arrows = set(naive_arrows(algebra))
    bad = []
    for (a, b1) in pairs:
        if (a, b1) not in arrows:
            continue
        for b in succ.get(b1, ()):
            if (a, b) not in algebra.pairs:
                continue
            for c in succ.get(b, ()):
                if (a, c) in algebra.pairs and (b1, c) not in algebra.pairs:
                    bad.append((a, b1, b, c))
    return bad


def naive_non_arrows_factor_through_arrows(algebra):
    """The factoring lemma, checked pair by pair: every nonzero a->b that is
    not an arrow has an arrow a->b1 with b1->b nonzero."""
    arrows = naive_arrows(algebra)
    return all(any(a1 == a and (b1, b) in algebra.pairs for (a1, b1) in arrows)
               for (a, b) in algebra.pairs if (a, b) not in arrows)


@pytest.mark.parametrize("family", ["loop", "chain", "bp"])
def test_mask_associativity_and_arrows_match_the_references(family):
    algebra = assemble_directed_algebra(FamilySpec(family, 5, 5))
    assert algebra.arrow_path_violations() == naive_arrow_path_violations(algebra) == []
    assert naive_check_associativity(algebra) == []
    assert algebra.arrows() == naive_arrows(algebra)


def test_mask_associativity_matches_the_reference_on_broken_patterns():
    # two nonzero pairs deleted from loop(6,6): (ii') must list the
    # reference's violations in its order, each the `ac = 1` half of a full
    # associativity violation on an arrow first step; a pattern that passes
    # (ii') has every non-arrow pair factor through an arrow
    full = assemble_directed_algebra(FamilySpec("loop", 6, 6))
    violating = passing = 0
    for seed in range(200):
        dropped = set(random.Random(seed).sample(full.nonzero_pairs(), 2))
        algebra = DirectedAlgebra(full.objects, full.pairs - dropped)
        bad = algebra.arrow_path_violations()
        assert bad == naive_arrow_path_violations(algebra), seed
        assert {path + (1, 0) for path in bad} <= set(naive_check_associativity(algebra)), seed
        assert algebra.arrows() == naive_arrows(algebra), seed
        if bad:
            violating += 1
        else:
            assert naive_non_arrows_factor_through_arrows(algebra), seed
            passing += 1
    assert violating >= 150 and passing >= 10


def test_is_directed_reads_backward_pairs():
    assert DirectedAlgebra("abc", [("a", "b"), ("a", "c")]).is_directed()
    assert not DirectedAlgebra("abc", [("a", "b"), ("c", "b")]).is_directed()


def test_arrow_path_condition_at_loop_16_16():
    # 256 objects, more than any spec the mirror-check tests reach
    algebra = assemble_directed_algebra(FamilySpec("loop", 16, 16))
    assert algebra.arrow_path_violations() == []


def test_arrow_path_condition_flags_a_pattern_that_breaks_it():
    # a->b1 is an arrow, b1->b, a->b, b->c and a->c are nonzero, b1->c is
    # zero: gen(b,c) o gen(a,b) = gen(a,c), while the bracketing through
    # gen(b1,c) gives 0
    pairs = [("a", "b1"), ("b1", "b"), ("a", "b"), ("b", "c"), ("a", "c")]
    algebra = DirectedAlgebra(["a", "b1", "b", "c"], pairs)
    assert algebra.arrow_path_violations() == [("a", "b1", "b", "c")]
    algebra = DirectedAlgebra(["a", "b1", "b", "c"], pairs + [("b1", "c")])
    assert algebra.arrow_path_violations() == []


def test_check_associativity_flags_a_pattern_that_cannot_compose():
    # a->b->c->d with b->d and a->d nonzero but a->c zero:
    # (h o g) o f = 0 while h o (g o f) = gen(a,d).  (ii') does not look at
    # it, as a->c is zero; on the B side a composite on the arrow a->b
    # catches it
    pairs = [("a", "b"), ("b", "c"), ("c", "d"), ("b", "d"), ("a", "d")]
    algebra = DirectedAlgebra("abcd", pairs)
    assert naive_check_associativity(algebra) == [("a", "b", "c", "d", 0, 1)]
    assert algebra.arrow_path_violations() == []
    algebra = DirectedAlgebra("abcd", pairs + [("a", "c")])
    assert naive_check_associativity(algebra) == []


@pytest.mark.parametrize("family, terms", [("loop", 2), ("loop", 1), ("chain", 1)])
def test_certificate_rejects_a_dropped_relation(family, terms):
    # the length-2 relations are minimal, so each one dropped leaves more
    # classes of paths than the algebra has homs
    algebra = assemble_directed_algebra(FamilySpec(family, 4, 4))
    arrows, relations = _arrows_and_relations(algebra)
    _certify(algebra, arrows, relations)
    dropped = [k for k, rel in enumerate(relations) if len(rel) == terms]
    assert dropped  # squares (2 terms) and zero relations (1 term) both occur
    for k in dropped:
        with pytest.raises(ArithmeticError, match="classes of paths"):
            _certify(algebra, arrows, relations[:k] + relations[k + 1:])
