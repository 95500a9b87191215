"""Shared helpers for the divisibility test suites (used by the polyring
tests and by the acceptance suite)."""

from mfvc.grading import make_grading_group

_BUCKET_CACHE = {}


def class_buckets(family, p, q, bound):
    """monomial class -> list of monomials with exponents <= bound."""
    key = (family, p, q, bound)
    if key not in _BUCKET_CACHE:
        g = make_grading_group(family, p, q)
        buckets = {}
        for u in range(bound + 1):
            for v in range(bound + 1):
                buckets.setdefault(g.element(u, v).mod_c(), []).append((u, v))
        _BUCKET_CACHE[key] = (g, buckets)
    return _BUCKET_CACHE[key]


def monomials_in_class(g, buckets, a, b):
    return buckets.get(g.element(a, b).mod_c(), [])


def in_monomial_ideal(mono, gens):
    """Membership of a monomial in an ideal (x^a y^b, ...); exponents <= 0
    count as absent factors."""
    u, v = mono
    for (a, b) in gens:
        if (a <= 0 or u >= a) and (b <= 0 or v >= b):
            return True
    return False


def loop_divisibility_counterexamples(p, q):
    """Monomial counterexamples to the loop divisibility pattern, if any."""
    g, buckets = class_buckets("loop", p, q, 3 * p * q)
    bad = []
    for a in range(-(p - 1), p):
        for b in range(-(q - 1), q):
            for mono in monomials_in_class(g, buckets, a, b):
                if not in_monomial_ideal(mono, [(a, 0), (0, q - 1 + b)]):
                    bad.append(("i-first", a, b, mono))
                if not in_monomial_ideal(mono, [(p - 1 + a, 0), (0, b)]):
                    bad.append(("i-second", a, b, mono))
                if a <= p - 2 and not in_monomial_ideal(mono, [(a, 0), (0, q + b)]):
                    bad.append(("ii", a, b, mono))
                if b <= q - 2 and not in_monomial_ideal(mono, [(p + a, 0), (0, b)]):
                    bad.append(("iii", a, b, mono))
    return bad


def loop_degree_zero_counterexamples(p, q):
    g, buckets = class_buckets("loop", p, q, 3 * p * q)
    bad = []
    for mono in monomials_in_class(g, buckets, 0, 0):
        if mono == (0, 0):
            continue
        if not in_monomial_ideal(mono, [(p * q - 1, 0), (p, 1), (1, q), (0, p * q - 1)]):
            bad.append((0, 0, mono))
    return bad


def chain_divisibility_counterexamples(p, q):
    g, buckets = class_buckets("chain", p, q, 3 * p * q)
    bad = []
    for a in range(-(p - 1), p):
        for b in range(-q, q):
            for mono in monomials_in_class(g, buckets, a, b):
                if a > 0 and mono[0] < a:
                    bad.append(("i", a, b, mono))
                if b <= q - 1 and not in_monomial_ideal(mono, [(a, b), (p + a, 0)]):
                    bad.append(("ii", a, b, mono))
    for mono in monomials_in_class(g, buckets, 0, 0):
        if mono == (0, 0):
            continue
        if not in_monomial_ideal(mono, [(p * q, 0), (p, 1), (0, q)]):
            bad.append(("iii", 0, 0, mono))
    return bad
