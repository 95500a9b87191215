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


@pytest.mark.parametrize("family", ["loop", "chain", "bp"])
def test_composable_triples_match_the_double_loop(family):
    algebra = assemble_directed_algebra(FamilySpec(family, 4, 5))
    triples = algebra.composable_triples()
    assert triples  # every family has composable generators at (4,5)
    assert triples == naive_composable_triples(algebra)


def test_check_associativity_flags_a_pattern_that_cannot_compose():
    # a->b->c->d with b->d and a->d nonzero but a->c zero:
    # (h o g) o f = 0 while h o (g o f) = gen(a,d)
    pairs = [("a", "b"), ("b", "c"), ("c", "d"), ("b", "d"), ("a", "d")]
    algebra = DirectedAlgebra("abcd", pairs)
    assert algebra.check_associativity() == [("a", "b", "c", "d", 0, 1)]
    algebra = DirectedAlgebra("abcd", pairs + [("a", "c")])
    assert algebra.check_associativity() == []


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
