"""The matrix-factorisation side: basic objects, hom tables, composition,
tilting check, and quiver extraction.

Objects supported at the origin carry no shift; the objects supported on
the components of w = 0 are shifted by [3] so that every morphism between
basic objects ends up in degree 0.
"""

from fractions import Fraction

from .directed import (DirectedAlgebra, display_label, extract_quiver, object_shift,
                       path_algebra_dimension)
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
    p, q = spec.p, spec.q
    grid = sorted(((i, j) for i in range(1, p) for j in range(1, q)),
                  key=lambda ij: (ij[0] + ij[1], ij[0]))
    labels = [("K0", i, j) for (i, j) in grid]
    if spec.family == "loop":
        labels += [("Kx", i) for i in range(1, p)]
    if spec.family in ("loop", "chain"):
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
    `expected_hom_dim`.  Cohomology is computed only for the cells inside
    the pair's `HomCohomology.degree_support`: outside it every Buchweitz
    term is empty, so the dim is 0 without building anything.  For a
    finite-staircase target this bound closes the pair in all degrees; for
    the targets R/(x), R/(y) and R/(f) it has no upper end, and degrees
    past the window rest on the divisibility lemma of the README."""

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
                    dim = coh.cohomology(n).dim if supported else 0
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


def _raw_composition_table(table: HomTable):
    """(a, b, c) -> the class of  gen(b,c) o gen(a,b)  in hom(a,c), for every
    composable triple of generator morphisms: a nonzero scalar times the
    generator of hom(a,c), or 0 when hom(a,c) vanishes."""
    skeleton = table.skeleton()
    gens = {}
    for (a, b) in skeleton.nonzero_pairs():
        X, Y = table.object(a), table.object(b)
        n = Y.offset - X.offset  # displayed degree 0
        gens[(a, b)] = generator_morphism(X.mf, Y.mf, n, table.cohomology(a, b))
    coeffs = {}
    for (a, b, c) in skeleton.composable_triples():
        vec = compose_and_identify(gens[(b, c)], gens[(a, b)], table.cohomology(a, c))
        if table.dim(a, c):
            if len(vec) != 1 or vec[0] == 0:
                raise ArithmeticError(f"degenerate composition {a} -> {b} -> {c}")
            coeffs[(a, b, c)] = vec[0]
        else:
            # hom space vanishes; the composite must be a coboundary
            if vec:
                raise ArithmeticError(f"nonzero composite into zero hom space {a}->{b}->{c}")
            coeffs[(a, b, c)] = Fraction(0)
    return coeffs


def _rescale_to_positive(table: HomTable, coeffs):
    """Generator rescalings making every composition coefficient +1.

    Runs the row-by-row square sweep on the grid of K0 objects (the same
    procedure the vanishing-cycle side uses).  Every other nonzero pair
    (a, b), taken by increasing gap between the positions of a and b, gets
    the scale of its factorisation a -> z -> b through the first object z
    strictly between them whose two homs are nonzero, or 1 if there is no
    such z.  `composition_table` checks that the result is all +1."""
    from .aside import sweep_square_signs

    spec = table.spec
    p, q = spec.p, spec.q
    right_sign = {(i, j): Fraction(1) for i in range(1, p - 1) for j in range(1, q)}
    up_sign = {(i, j): Fraction(1) for i in range(1, p) for j in range(1, q - 1)}

    def square_values(i, j, rs, us):
        a, bR, bU, c = (("K0", i, j), ("K0", i + 1, j), ("K0", i, j + 1), ("K0", i + 1, j + 1))
        v1 = coeffs[(a, bR, c)] * rs[(i, j)] * us[(i + 1, j)]
        v2 = coeffs[(a, bU, c)] * us[(i, j)] * rs[(i, j + 1)]
        return v1, v2

    right_sign, up_sign = sweep_square_signs(p - 1, q - 1, right_sign, up_sign, square_values)

    scale = {}
    for (i, j), s in right_sign.items():
        scale[(("K0", i, j), ("K0", i + 1, j))] = s
    for (i, j), s in up_sign.items():
        scale[(("K0", i, j), ("K0", i, j + 1))] = s

    skeleton = table.skeleton()
    objects, position = skeleton.objects, skeleton.position
    nonzero = skeleton.pairs
    for (a, b) in sorted(skeleton.nonzero_pairs(), key=lambda ab: position[ab[1]] - position[ab[0]]):
        if (a, b) in scale:
            continue
        mid = next((z for z in objects[position[a] + 1:position[b]]
                    if (a, z) in nonzero and (z, b) in nonzero), None)
        scale[(a, b)] = (Fraction(1) if mid is None
                         else coeffs[(a, mid, b)] * scale[(a, mid)] * scale[(mid, b)])
    return scale


def composition_table(spec: FamilySpec, table: HomTable = None):
    """The B-side DirectedAlgebra, once its composites are shown to rectify.

    Every composite of generators into a nonzero hom must be a sign times
    the generator, and after the rescaling of `_rescale_to_positive` it
    must be +1 (v * s(a,b) * s(b,c) == s(a,c) for each raw value v).  Then
    the algebra is fixed by its homs, and the skeleton of the table is
    returned; ArithmeticError otherwise."""
    table = table or hom_table(spec)
    raw = _raw_composition_table(table)
    for v in raw.values():
        if v != 0 and abs(v) != 1:
            raise ArithmeticError(f"composition coefficient {v} is not a sign")
    scale = _rescale_to_positive(table, raw)
    for (a, b, c), v in raw.items():
        if v != 0 and v * scale[(a, b)] * scale[(b, c)] != scale[(a, c)]:
            raise ArithmeticError(f"sign rectification left {a} -> {b} -> {c} negative")
    return table.skeleton()


def check_exceptional_and_tilting(spec: FamilySpec, table: HomTable = None):
    """Machine form of the tilting statement, read off an accepted table.

    `HomTable.skeleton` raises unless every cell of the window matched
    `expected_hom_dim`, and that closed form is the whole statement:

    * End(X) is 1 in degree 0 and 0 in every other degree, so each object
      is exceptional;
    * between distinct objects it is nonzero only in degree 0, so all
      homs of the direct sum sit in degree 0 (tilting);
    * those homs point forward in the order: from a K0 to a K0 with
      componentwise larger indices, which `basic_objects` lists later, or
      from a K0 to an axis object or Kf, which follow every K0.

    So once `skeleton` returns, the report can only read exceptional,
    tilting, degrees [0].  Off the window, a pair with a finite-staircase
    target has no Buchweitz term outside `HomCohomology.degree_support`,
    an interval computed from weights that lies inside the default window
    (tests/test_bside.py checks this for 2 <= p,q <= 5).  Only the targets
    R/(x), R/(y) and R/(f) still rest on the window and the divisibility
    lemma of the README."""
    table = table or hom_table(spec)
    table.skeleton()  # raises unless the table matches the closed form
    objects = [o.display() for o in table.objects]
    return {
        "objects": objects,
        "collection_size": len(objects),
        "exceptional": True,
        "nonzero_degrees": [0],
        "tilting": True,
        "order": objects,
    }


def gabriel_quiver(spec: FamilySpec, algebra: DirectedAlgebra = None):
    algebra = algebra or composition_table(spec)
    quiver, paths = extract_quiver(algebra)
    # sanity: path algebra modulo relations has dimension = sum of hom dims
    if path_algebra_dimension(algebra, quiver, paths) != algebra.total_hom_dim():
        raise ArithmeticError("quiver relations do not present the algebra")
    return quiver
