"""The Poly-matrix chain-map check and composite that `mfvc.mf` computes on
term dicts, kept as the reference the kernels are compared with (used by
the mf, bside and cli suites and by a CI step).

`boundary_matrices` forms D(f) as Poly matrices with four `mat_mul`s, and
`composite_vector` forms the row z . g_n with `mat_mul`, takes the normal
form of each entry and reads the row with `HomCohomology.vector`."""

from mfvc import bside
from mfvc.mf import MFMorphism, _precompose, mat_mul, mat_scale


def mat_add(A, B):
    return [[a + b for a, b in zip(ra, rb)] for ra, rb in zip(A, B)]


def mat_is_zero(A):
    return all(not e for row in A for e in row)


def boundary_matrices(K, H, n, f0, f1):
    """The hom differential of the degree-n map f = (f0, f1): on K^{-k-1},

        D(f) = H.d(k-n) f_{k+1} - (-1)^n f_k K.d(k),

    returned for k = 1, then k = 0."""
    f = MFMorphism(K, H, n, f0, f1)
    sign = 1 if n % 2 else -1
    return tuple(mat_add(mat_mul(H.d(k - n), f.component(k + 1)),
                         mat_scale(mat_mul(f.component(k), K.d(k)), sign))
                 for k in (1, 0))


def is_chain_map(f):
    """Whether both matrices of D(f) are zero."""
    return all(mat_is_zero(e) for e in boundary_matrices(f.source, f.target, f.degree,
                                                         f.f0, f.f1))


def projection(f):
    """nf(aug_H . f_n), the projection of f onto its target's module: one
    normal form per summand of K^{-n}."""
    H = f.target
    return [H.module.nf(v) for v in mat_mul([H.aug], f.component(f.degree))[0]]


def composite_vector(outer, degree, g, cohom):
    """The vector over cohom.term(n), n = degree + deg g, of the projection
    nf(z . g_n) of the composite z o g, for z the row `outer`."""
    n = degree + g.degree
    return cohom.vector(n, [cohom.module.nf(v) for v in mat_mul([outer], g.component(n))[0]])


def compare_with_reference(spec):
    """Run `composition_table(spec)` and compare every lift and composite
    it makes with the reference: the lift's `is_chain_map` with
    `is_chain_map`, the vector of its projection with the one read off
    `projection`, and each composite's vector and class coordinates with
    `composite_vector` and that vector's class.  Returns (lifts,
    composites, differences), the last a list of descriptions."""
    lift, compose = bside.generator_morphism, bside.compose_and_identify
    lifts, composites, differences = [], [], []

    def lifting(K, H, n, cohom):
        gen = lift(K, H, n, cohom)
        lifts.append((K.label, H.label))
        if gen.is_chain_map() != is_chain_map(gen):
            differences.append(f"chain-map check of the lift {K.label} -> {H.label}")
        if _precompose(H.aug, gen.component(n), cohom, n) != cohom.vector(n, projection(gen)):
            differences.append(f"projection of the lift {K.label} -> {H.label}")
        return gen

    def composing(outer, degree, g, cohom):
        got = compose(outer, degree, g, cohom)
        n = degree + g.degree
        want = composite_vector(outer, degree, g, cohom)
        composites.append((g.source.label, g.target.label, cohom.module.label))
        if _precompose(outer, g.component(n), cohom, n) != want or got != cohom.identify(n, want):
            differences.append(f"composite over {g.source.label} -> {g.target.label} "
                               f"into {cohom.module.label}")
        return got

    bside.generator_morphism, bside.compose_and_identify = lifting, composing
    try:
        bside.composition_table(spec)
    finally:
        bside.generator_morphism, bside.compose_and_identify = lift, compose
    return lifts, composites, differences
