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
    """Computed per-degree hom dimensions, with class representatives."""

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
                for d in range(window[0], window[1] + 1):
                    n = d + Y.offset - X.offset
                    dim = coh.cohomology(n).dim
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
        if a == b:
            return 1 if degree == 0 else 0
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
        homs = {}
        for (a, b, d), dim in self.dims.items():
            if a != b:
                homs.setdefault((a, b), {})[d] = dim
        return DirectedAlgebra([o.label for o in self.objects], homs)


def hom_table(spec: FamilySpec, window=DEGREE_WINDOW):
    table = HomTable(spec, window)
    if not table.matches_closed_form():
        raise ArithmeticError(f"hom table deviates from the closed form: {table.mismatches[:3]}")
    return table


def _raw_composition_table(table: HomTable):
    """Generator morphisms for every nonzero pair and the coefficients of
    all their pairwise composites."""
    gens = {}
    for (a, b) in table.skeleton().nonzero_pairs():
        X, Y = table.object(a), table.object(b)
        n = Y.offset - X.offset  # displayed degree 0
        gens[(a, b)] = generator_morphism(X.mf, Y.mf, n, table.cohomology(a, b))
    coeffs = {}
    pairs = list(gens)
    by_source = {}
    for (a, b) in pairs:
        by_source.setdefault(a, []).append(b)
    for (a, b) in pairs:
        for c in by_source.get(b, ()):
            f = gens[(b, c)]
            g = gens[(a, b)]
            coh = table.cohomology(a, c)
            vec = compose_and_identify(f, g, coh)
            if table.dim(a, c):
                if len(vec) != 1 or vec[0] == 0:
                    raise ArithmeticError(f"degenerate composition {a} -> {b} -> {c}")
                coeffs[(a, b, c)] = vec[0]
            else:
                # hom space vanishes; the composite must be a coboundary
                if vec:
                    raise ArithmeticError(f"nonzero composite into zero hom space {a}->{b}->{c}")
                coeffs[(a, b, c)] = Fraction(0)
    return gens, coeffs


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
    pairs = skeleton.nonzero_pairs()
    nonzero = set(pairs)
    for (a, b) in sorted(pairs, key=lambda ab: position[ab[1]] - position[ab[0]]):
        if (a, b) in scale:
            continue
        mid = next((z for z in objects[position[a] + 1:position[b]]
                    if (a, z) in nonzero and (z, b) in nonzero), None)
        scale[(a, b)] = (Fraction(1) if mid is None
                         else coeffs[(a, mid, b)] * scale[(a, mid)] * scale[(mid, b)])
    return scale


def composition_table(spec: FamilySpec, table: HomTable = None):
    """DirectedAlgebra with all composition coefficients rectified to +1."""
    table = table or hom_table(spec)
    gens, raw = _raw_composition_table(table)
    for v in raw.values():
        if v != 0 and abs(v) != 1:
            raise ArithmeticError(f"composition coefficient {v} is not a sign")
    scale = _rescale_to_positive(table, raw)
    rectified = {}
    for (a, b, c), v in raw.items():
        if v == 0:
            rectified[(a, b, c)] = Fraction(0)
        else:
            rectified[(a, b, c)] = v * scale[(a, b)] * scale[(b, c)] / scale[(a, c)]
    skeleton = table.skeleton()
    algebra = DirectedAlgebra(skeleton.objects, skeleton.homs, rectified)
    if not algebra.all_compositions_positive():
        raise ArithmeticError("sign rectification left a negative composition")
    return algebra


def check_exceptional_and_tilting(spec: FamilySpec, table: HomTable = None):
    """Machine form of the tilting statement, on the window of the table.

    Degrees outside the window vanish by the same graded-piece argument the
    divisibility facts quantify over all cohomological shifts; the window
    is exhaustive for the finite staircases involved."""
    table = table or hom_table(spec)
    window = table.window
    report = {
        "objects": [o.display() for o in table.objects],
        "collection_size": len(table.objects),
        "exceptional": True,
        "nonzero_degrees": sorted({d for (_, _, d) in table.dims}),
        "tilting": True,
        "order": [o.display() for o in table.objects],
    }
    for X in table.objects:
        coh = table.cohomology(X.label, X.label)
        for d in range(window[0], window[1] + 1):
            dim = coh.cohomology(d).dim
            if (d == 0 and dim != 1) or (d != 0 and dim != 0):
                report["exceptional"] = False
    if any(d != 0 for d in report["nonzero_degrees"]):
        report["tilting"] = False
    skeleton = table.skeleton()
    if not skeleton.is_directed():
        report["tilting"] = False
    report["tilting"] = report["tilting"] and report["exceptional"]
    return report


def gabriel_quiver(spec: FamilySpec, algebra: DirectedAlgebra = None):
    algebra = algebra or composition_table(spec)
    quiver, paths = extract_quiver(algebra)
    # sanity: path algebra modulo relations has dimension = sum of hom dims
    if path_algebra_dimension(algebra, quiver, paths) != algebra.total_hom_dim():
        raise ArithmeticError("quiver relations do not present the algebra")
    return quiver
