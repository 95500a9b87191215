import pytest

from mfvc.aside import assemble_directed_algebra
from mfvc.directed import DirectedAlgebra
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
