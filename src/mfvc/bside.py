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
from .mf import HomCohomology, build_basic_object, compose_and_identify, generator_morphism

DEGREE_WINDOW = (-6, 6)


class BObject:
    """A basic object: a matrix factorisation plus a cohomological offset."""

    def __init__(self, label, factorisation, offset):
        self.label = label
        self.mf = factorisation
        self.offset = offset

    def display(self):
        return display_label(self.label)

    def __repr__(self):
        return self.display()


def basic_objects(spec: FamilySpec):
    """The ordered exceptional collection for the family."""
    group = make_grading_group(spec.family, spec.p, spec.q)
    (p, e), (f, q) = group.exponents
    grid = sorted(((i, j) for i in range(1, p) for j in range(1, q)),
                  key=lambda ij: (ij[0] + ij[1], ij[0]))
    labels = [("K0", i, j) for (i, j) in grid]
    if f == 1:
        labels += [("Kx", i) for i in range(1, p)]
    if e == 1:
        labels += [("Ky", j) for j in range(1, q)] + [("Kf",)]
    return [BObject(label, build_basic_object(group, label), object_shift(label))
            for label in labels]


def expected_hom_dim(spec: FamilySpec, a, b, degree):
    """The closed-form hom dimension the computation must reproduce."""
    if a == b:
        return 1 if degree == 0 else 0
    if degree != 0:
        return 0
    ka, kb = a[0], b[0]
    if ka == "K0" and kb == "K0":
        return 1 if (b[1] >= a[1] and b[2] >= a[2]) else 0
    if ka == "K0" and kb == "Kx":
        return 1 if b[1] == a[1] else 0
    if ka == "K0" and kb == "Ky":
        return 1 if b[1] == a[2] else 0
    if ka == "K0" and kb == "Kf":
        return 1
    return 0


class HomTable:
    """Computed per-degree hom dimensions, with class representatives.

    Every (pair, degree) cell of the window is compared with
    `expected_hom_dim`.  Dimensions are computed only for the cells inside
    the pair's `HomCohomology.degree_support`: outside it every Buchweitz
    term is empty, so the dim is 0 without building anything.  Inside it a
    cell's dimension comes from the ranks of its two differentials
    (`HomCohomology.dim`); representatives are built only where they are
    read, by `rows` and by composition.  For a finite-staircase target the
    support closes the pair in all degrees; for the targets R/(x), R/(y)
    and R/(f) it has no upper end, and degrees past the window rest on the
    divisibility lemma of the README."""

    def __init__(self, spec: FamilySpec, window=DEGREE_WINDOW):
        self.spec = spec
        self.window = window
        self.objects = basic_objects(spec)
        self._coh = {}
        self.dims = {}
        self.mismatches = []
        for X in self.objects:
            for Y in self.objects:
                coh = HomCohomology(X.mf, Y.mf.module)
                self._coh[(X.label, Y.label)] = coh
                lo, hi = coh.degree_support()
                for d in range(window[0], window[1] + 1):
                    n = d + Y.offset - X.offset
                    supported = lo <= n and (hi is None or n <= hi)
                    dim = coh.dim(n) if supported else 0
                    if dim:
                        self.dims[(X.label, Y.label, d)] = dim
                    want = expected_hom_dim(spec, X.label, Y.label, d)
                    if dim != want:
                        self.mismatches.append(
                            {"source": X.display(), "target": Y.display(),
                             "degree": d, "dim": dim, "expected": want}
                        )

    def matches_closed_form(self):
        return not self.mismatches

    def cohomology(self, a, b):
        return self._coh[(a, b)]

    def object(self, label):
        return next(o for o in self.objects if o.label == label)

    def dim(self, a, b, degree=0):
        return self.dims.get((a, b, degree), 0)

    def rows(self):
        """Serializable rows for every nonzero hom space."""
        out = []
        for X in self.objects:
            for Y in self.objects:
                for d in range(self.window[0], self.window[1] + 1):
                    dim = self.dim(X.label, Y.label, d)
                    if not dim:
                        continue
                    n = d + Y.offset - X.offset
                    reps = self._coh[(X.label, Y.label)].cohomology(n).rep_strings()
                    out.append({
                        "source": X.display(), "target": Y.display(),
                        "degree": d, "dim": dim, "basis": reps,
                    })
        return out

    def skeleton(self):
        """The DirectedAlgebra on the nonzero homs between distinct objects.

        Raises ArithmeticError unless the table matches the closed form,
        which makes each of those homs one-dimensional in degree 0."""
        if self.mismatches:
            raise ArithmeticError(f"hom table deviates from the closed form: {self.mismatches[:3]}")
        return DirectedAlgebra([o.label for o in self.objects],
                               [(a, b) for (a, b, _) in self.dims if a != b])


def hom_table(spec: FamilySpec, window=DEGREE_WINDOW):
    table = HomTable(spec, window)
    table.skeleton()  # raises unless the table matches the closed form
    return table


def composition_table(spec: FamilySpec, table: HomTable = None):
    """The B-side DirectedAlgebra, once every composite of generators is
    shown to be exactly +1 or 0.

    Each generator of a nonzero hom is lifted once to a chain map.  For
    every composable triple a -> b -> c, the class of gen(b,c) o gen(a,b)
    in hom(a,c) must be [1] (+1 times the generator) when (a, c) is a
    nonzero pair and [] (a coboundary) otherwise.  Then the algebra is
    fixed by its homs, and the skeleton of the table is returned;
    ArithmeticError at the first pair or triple that fails, naming it and
    the degree of its hom complex."""
    table = table or hom_table(spec)
    skeleton = table.skeleton()
    gens = {}
    for (a, b) in skeleton.nonzero_pairs():
        X, Y = table.object(a), table.object(b)
        n = Y.offset - X.offset  # displayed degree 0
        try:
            gens[(a, b)] = generator_morphism(X.mf, Y.mf, n, table.cohomology(a, b))
        except ArithmeticError as exc:
            raise ArithmeticError(f"lift of {X.display()} -> {Y.display()} in degree {n}: "
                                  f"{exc}") from exc
    for (a, b, c) in skeleton.composable_triples():
        try:
            vec = compose_and_identify(gens[(b, c)], gens[(a, b)], table.cohomology(a, c))
            want = [1] if (a, c) in skeleton.pairs else []
            if vec != want:
                raise ArithmeticError(f"is {[str(v) for v in vec]}, not {want}")
        except ArithmeticError as exc:
            n = table.object(c).offset - table.object(a).offset
            route = " -> ".join(display_label(x) for x in (a, b, c))
            raise ArithmeticError(f"composite {route} in degree {n}: {exc}") from exc
    return skeleton


def gabriel_quiver(spec: FamilySpec):
    """The B side's Gabriel quiver with relations, certified to present its
    algebra."""
    return gabriel_presentation(composition_table(spec))
