"""The matrix-factorisation side: basic objects, hom tables checked against
the closed form (which is the tilting statement), composition, and quiver
extraction.

Objects supported at the origin carry no shift; the objects supported on
the components of w = 0 are shifted by [3] so that every morphism between
basic objects ends up in degree 0.
"""

from .directed import DirectedAlgebra, display_label, gabriel_presentation, object_shift
from .families import FamilySpec
from .grading import make_grading_group
from .mf import (
    HomCohomology,
    build_basic_object,
    buchweitz_pieces,
    compose_and_identify,
    generator_cocycle,
    generator_morphism,
)

DEGREE_WINDOW = (-6, 6)


def basic_objects(spec: FamilySpec):
    """The ordered exceptional collection for the family, as
    {label: MatrixFactorisation} in collection order."""
    group = make_grading_group(spec.family, spec.p, spec.q)
    (p, e), (f, q) = group.exponents
    grid = sorted(((i, j) for i in range(1, p) for j in range(1, q)),
                  key=lambda ij: (ij[0] + ij[1], ij[0]))
    labels = [("K0", i, j) for (i, j) in grid]
    if f == 1:
        labels += [("Kx", i) for i in range(1, p)]
    if e == 1:
        labels += [("Ky", j) for j in range(1, q)] + [("Kf",)]
    return {label: build_basic_object(group, label) for label in labels}


def _complex_degree(a, b, d=0):
    """The degree of the hom complex from the factorisation of a to the
    module of b that holds hom^d(a, b) between the shifted objects."""
    return d + object_shift(b) - object_shift(a)


def expected_homs(spec: FamilySpec, a, b):
    """The closed form the computation must reproduce: the nonzero hom
    dimensions from a to b, as {degree: dim}."""
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


class HomTable:
    """Computed per-degree hom dimensions between the basic objects, with
    class representatives.

    `objects` is `basic_objects(spec)`.  The table is built degree-first:
    one join (`mf.buchweitz_pieces`) finds every nonempty Buchweitz term of
    every pair from the staircases of the targets, and a `HomCohomology` is
    kept only for the pairs it finds.  A cell's dimension is computed only
    where its term is nonempty, from the ranks of its two differentials
    (`HomCohomology.dim`); representatives are built only where they are
    read, by `rows` and by composition.

    The check against the closed form (`expected_homs`) is sparse, over the
    pairs that have a nonempty term or an expected nonzero cell, in
    collection order.  A mismatch is a computed nonzero cell that the
    closed form does not give, or an expected cell in the window that is
    not computed nonzero; they are listed in (source, target, degree)
    order.  A finite-staircase target (every K0) is closed in every degree
    by construction, so its nonzero cells outside the window are checked
    too; `dims`, which holds the nonzero cells in (source, target, degree)
    order, and `rows` stay inside the window.  The targets R/(x), R/(y)
    and R/(f) are enumerated up to `top`, the highest degree the window
    reads, and degrees past the window rest on the divisibility lemma of
    the README."""

    def __init__(self, spec: FamilySpec, window=DEGREE_WINDOW):
        self.spec = spec
        self.window = window
        self.objects = basic_objects(spec)
        # the highest complex degree read: a dimension in the window's top
        # degree into the most shifted target, and the neighbour degree
        self.top = window[1] + max(map(object_shift, self.objects)) + 1
        pieces = buchweitz_pieces(self.objects, {b: Y.module for b, Y in self.objects.items()},
                                  self.top)
        self._coh = {}
        self.dims = {}
        self.mismatches = []
        lo, hi = window
        for a, X in self.objects.items():
            for b, Y in self.objects.items():
                found = pieces.get((a, b))
                expected = expected_homs(spec, a, b)
                if found is None and not expected:
                    continue
                # degree -> dim: the expected cells of the window, then the
                # computed ones, which override them
                cells = {d: 0 for d, want in expected.items() if want and lo <= d <= hi}
                if found is not None:
                    coh = self._coh[(a, b)] = HomCohomology(X, Y.module, self.top, found)
                    offset = _complex_degree(a, b)
                    for n in coh.degrees():
                        d = n - offset
                        if coh.top is None or lo <= d <= hi:
                            cells[d] = coh.dim(n)
                for d in sorted(cells):
                    dim, want = cells[d], expected.get(d, 0)
                    if dim and lo <= d <= hi:
                        self.dims[(a, b, d)] = dim
                    if dim != want:
                        self.mismatches.append(
                            {"source": display_label(a), "target": display_label(b),
                             "degree": d, "dim": dim, "expected": want}
                        )

    def cohomology(self, a, b):
        """The pair's `HomCohomology`; for a pair with no nonempty term, a
        fresh one with no pieces, over b's own module."""
        got = self._coh.get((a, b))
        if got is None:
            got = HomCohomology(self.objects[a], self.objects[b].module, self.top, {})
        return got

    def dim(self, a, b, degree=0):
        return self.dims.get((a, b, degree), 0)

    def rows(self):
        """Serializable rows for every nonzero hom space, in the order of
        `dims`."""
        return [{"source": display_label(a), "target": display_label(b), "degree": d,
                 "dim": dim, "basis": self._coh[(a, b)].rep_strings(_complex_degree(a, b, d))}
                for (a, b, d), dim in self.dims.items()]

    def skeleton(self):
        """The DirectedAlgebra on the nonzero homs between distinct objects.

        Raises ArithmeticError unless the table matches the closed form,
        which makes each of those homs one-dimensional in degree 0."""
        if self.mismatches:
            raise ArithmeticError(f"hom table deviates from the closed form: {self.mismatches[:3]}")
        return DirectedAlgebra(self.objects, [(a, b) for (a, b, _) in self.dims if a != b])


def hom_table(spec: FamilySpec, window=DEGREE_WINDOW):
    table = HomTable(spec, window)
    table.skeleton()  # raises unless the table matches the closed form
    return table


def composition_table(spec: FamilySpec, table: HomTable = None):
    """The B-side DirectedAlgebra, once every composite of generators is
    shown to be exactly +1 or 0.

    For every composable triple a -> b -> c, the class of
    gen(b,c) o gen(a,b) in hom(a,c) must be [1] (+1 times the generator)
    when (a, c) is a nonzero pair and [] (a coboundary) otherwise.  The
    composites are computed only where a -> b is an arrow, a pair that
    factors through no third object:
    * first the pairs must pass `check_associativity`;
    * then each arrow's generator is lifted once to a chain map, and
      composed with the generator of every (b, c), taken as the class
      representative from `generator_cocycle`, not lifted.
    Associativity carries the law to the other triples, by induction on
    the position gap of a -> b.  When a -> b factors, it does so through an
    arrow a -> b1, so gen(a,b) = gen(b1,b) o gen(a,b1); gen(b,c) o
    gen(b1,b) is gen(b1,c) or 0 (a smaller gap), which leaves the arrow
    composite gen(b1,c) o gen(a,b1) or 0, and associativity of the pattern
    on a -> b1 -> b -> c makes that [1] exactly when (a, c) is nonzero.
    Then the algebra is fixed by its homs, and the skeleton of
    the table is returned; ArithmeticError at the first associativity
    violation, lift or composite that fails, naming it and, for a lift or a
    composite, the degree of its hom complex."""
    table = table or hom_table(spec)
    skeleton = table.skeleton()
    violations = skeleton.check_associativity()
    if violations:
        *path, left, right = violations[0]
        route = " -> ".join(display_label(x) for x in path)
        raise ArithmeticError(f"the pairs are not associative on the path {route}: its two "
                              f"bracketings give {left} and {right} times the generator")
    objects = table.objects
    outer = {}  # (b, c) -> the class representative of gen(b, c)
    for (a, b) in skeleton.arrows():
        n = _complex_degree(a, b)
        try:
            gen = generator_morphism(objects[a], objects[b], n, table.cohomology(a, b))
            if not gen.is_chain_map():
                raise ArithmeticError("the lift is not a chain map, and composites need chain maps")
        except ArithmeticError as exc:
            raise ArithmeticError(f"lift of {display_label(a)} -> {display_label(b)} in degree "
                                  f"{n}: {exc}") from exc
        for c in skeleton.successors(b):
            m = _complex_degree(b, c)
            try:
                row = outer.get((b, c))
                if row is None:
                    row = outer[(b, c)] = generator_cocycle(table.cohomology(b, c), m)
                vec = compose_and_identify(row, m, gen, table.cohomology(a, c))
                want = [1] if (a, c) in skeleton.pairs else []
                if vec != want:
                    raise ArithmeticError(f"is {[str(v) for v in vec]}, not {want}")
            except ArithmeticError as exc:
                route = " -> ".join(display_label(x) for x in (a, b, c))
                raise ArithmeticError(f"composite {route} in degree {_complex_degree(a, c)}: "
                                      f"{exc}") from exc
    return skeleton


def gabriel_quiver(spec: FamilySpec):
    """The B side's Gabriel quiver with relations, certified to present its
    algebra."""
    return gabriel_presentation(composition_table(spec))
