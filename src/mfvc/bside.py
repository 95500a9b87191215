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


def closed_form(objects):
    """The closed form the hom table must reproduce, which is the tilting
    statement, as the DirectedAlgebra of the grid rule on `objects` (the
    labels in collection order, as `basic_objects` keys them): K0(i,j) maps
    to K0(i',j') when i' >= i and j' >= j, and to Kx(i), Ky(j) and Kf, and
    no other object maps to a different object.  Every hom it gives, each
    endomorphism included, is one-dimensional and sits in degree 0; every
    other cell is zero."""
    grid = [b for b in objects if b[0] == "K0"]
    pairs = []
    for a in grid:
        _, i, j = a
        pairs += [(a, b) for b in grid if b != a and b[1] >= i and b[2] >= j]
        pairs += [(a, b) for b in (("Kx", i), ("Ky", j), ("Kf",)) if b in objects]
    return DirectedAlgebra(objects, pairs)


class OffClosedForm(ArithmeticError):
    """The hom table deviates from the closed form."""


def check_closed_form(found):
    """OffClosedForm unless the hom table is on the closed form.  `found`
    holds each source's mismatches in the order of the walk (the last
    source first); the error quotes the first three in (source, target,
    degree) order."""
    mismatches = [m for per_source in reversed(found) for m in per_source]
    if mismatches:
        raise OffClosedForm(f"hom table deviates from the closed form: {mismatches[:3]}")


class HomTable:
    """Computed per-degree hom dimensions between the basic objects, checked
    against the closed form source by source.

    The table holds only `objects` (`basic_objects(spec)`), `top` and
    `pattern` (`closed_form(objects)`).  `walk` runs one join
    (`mf.buchweitz_pieces`) that finds every nonempty Buchweitz term of
    every pair from the staircases of the targets, then takes the sources
    from last to first: for each source a it builds a `HomCohomology` for
    each pair (a, b) the join found, checks a's cells, and yields them to
    the caller (`rows` reads the representatives, `composition_table` the
    lifts and composites) before they are dropped.  So one source's
    cohomologies are alive at a time, and a walk can be run again.

    A cell's dimension is computed only where its term is nonempty, from
    the ranks of its two differentials (`HomCohomology.dim`).  The check is
    sparse: a source visits, in position order, the targets the join found
    and those the pattern gives a nonzero cell (itself and its successors;
    the cell is 1, in degree 0).  A mismatch is a computed nonzero cell
    that the closed form does not give, or an expected cell that is not
    computed nonzero; `check_closed_form` reports them.  A finite-staircase
    target (every K0) is closed in every degree by construction, so its
    nonzero cells outside the window are checked too; the cells a walk
    yields, and `rows`, stay inside the window.  R/(x), R/(y) and R/(f) are
    enumerated up to `top`, the highest degree the window reads, and
    degrees past the window rest on the divisibility lemma of the README.
    The window (lo, hi) must be two integers around degree 0, whose cells
    hold the pattern's pairs; any other raises `ValueError`."""

    def __init__(self, spec: FamilySpec, window=DEGREE_WINDOW):
        lo, hi = window
        if not (type(lo) is int and type(hi) is int and lo <= 0 <= hi):
            raise ValueError(f"degree window {window} is not two integers around degree 0")
        self.spec = spec
        self.window = window
        self.objects = basic_objects(spec)
        # the highest complex degree read: a dimension in the window's top
        # degree into the most shifted target, and the neighbour degree
        self.top = window[1] + max(map(object_shift, self.objects)) + 1
        self.pattern = closed_form(self.objects)

    def walk(self):
        """One pass over the sources, last to first: yields (a,
        {b: HomCohomology}, a's nonzero cells in the window as
        {(a, b, degree): dim}, a's mismatches) once a's cells are checked,
        and drops a's cohomologies when the caller asks for the next
        source."""
        objects, pattern = self.objects, self.pattern
        lo, hi = self.window
        # source -> {target: pieces}: the one join, by source.  Each source's
        # slice is popped whole, which frees more than popping pair by pair
        # from the join (at loop(24,24), a peak RSS of 101 against 108 MB on
        # a 2-core host)
        slices = {}
        for (a, b), found in buchweitz_pieces(
                objects, {b: Y.module for b, Y in objects.items()}, self.top).items():
            slices.setdefault(a, {})[b] = found
        for a in reversed(objects):
            X, slice_ = objects[a], slices.pop(a, {})
            cohs, dims, mismatches = {}, {}, []
            targets = slice_.keys() | set(pattern.successors(a)) | {a}
            for b in sorted(targets, key=pattern.position.__getitem__):
                want = pattern.hom_dim(a, b)
                # degree -> dim: the expected cell, then the computed ones,
                # which override it
                cells = {0: 0} if want else {}
                found = slice_.get(b)
                if found is not None:
                    coh = cohs[b] = HomCohomology(X, objects[b].module, self.top, found)
                    offset = _complex_degree(a, b)
                    for n in coh.degrees():
                        d = n - offset
                        if coh.top is None or lo <= d <= hi:
                            cells[d] = coh.dim(n)
                for d in sorted(cells):
                    dim, expected = cells[d], int(d == 0) * want
                    if dim and lo <= d <= hi:
                        dims[(a, b, d)] = dim
                    if dim != expected:
                        mismatches.append({"source": display_label(a), "target": display_label(b),
                                           "degree": d, "dim": dim, "expected": expected})
            yield a, cohs, dims, mismatches
            cohs.clear()

    def rows(self):
        """Serializable rows for every nonzero hom space of the window, in
        (source, target, degree) order, read off each source's
        cohomologies in one walk; OffClosedForm when the table is off the
        closed form."""
        rows, found = [], []
        for a, cohs, cells, mismatches in self.walk():
            rows.append([{"source": display_label(a), "target": display_label(b), "degree": d,
                          "dim": dim, "basis": cohs[b].rep_strings(_complex_degree(a, b, d))}
                         for (_, b, d), dim in cells.items()])
            found.append(mismatches)
        check_closed_form(found)
        return [row for source_rows in reversed(rows) for row in source_rows]


def hom_table(spec: FamilySpec, window=DEGREE_WINDOW):
    """The hom table of spec over the window: `composition_table` walks it
    with the composites, `rows` with the representatives."""
    return HomTable(spec, window)


def composition_table(spec: FamilySpec, window=DEGREE_WINDOW):
    """The B-side DirectedAlgebra, once the hom table over the window
    matches the closed form and every composite of generators is shown to
    be exactly +1 or 0.

    For every composable triple a -> b -> c, the class of
    gen(b,c) o gen(a,b) in hom(a,c) must be [1] (+1 times the generator)
    when (a, c) is a nonzero pair and [] (a coboundary) otherwise.  The
    composites are computed only where a -> b is an arrow, a pair that
    factors through no third object:
    * first the pairs must pass (ii'): for every arrow a -> b1, every b
      with b1 -> b and a -> b, and every c with b -> c and a -> c, the pair
      b1 -> c is nonzero (`DirectedAlgebra.arrow_path_violations`);
    * then each arrow's generator is lifted once to a chain map, and
      composed with the generator of every (b, c), taken as the class
      representative from `generator_cocycle`, not lifted.
    (ii') carries the law to the other triples.
    * Factoring: every non-arrow a -> b factors as a -> b1 -> b with
      a -> b1 an arrow.  By induction on the position gap: a -> z -> b for
      some z; if a -> z is not an arrow, it factors through an arrow
      a -> b1 with b1 -> z, and (ii') on a -> b1 -> z, with b after both a
      and z, gives b1 -> b.
    * The law, by induction on the gap of a -> b: when a -> b factors as
      above, gen(a,b) = gen(b1,b) o gen(a,b1), and composition in
      cohomology is associative, so gen(b,c) o gen(a,b) =
      (gen(b,c) o gen(b1,b)) o gen(a,b1).  The inner composite is
      [(b1,c)] gen(b1,c) (a smaller gap), and the arrow composite turns
      the whole into [(b1,c)][(a,c)] gen(a,c), where [(x,y)] is 1 for a
      pair and 0 otherwise; (ii') makes that [(a,c)] gen(a,c).
    Triples with a -> c zero and non-arrow first steps are never used, so
    the rest of the pattern's associativity is not checked: it follows,
    as the pattern is then the B side's real composition.  Then the algebra
    is fixed by its homs, and the table's pattern is returned.

    The pattern is the table's closed form (`HomTable.pattern`), and (ii')
    is checked on it before any lift.  A source a's lifts and composites
    run in a's pass of the table's walk: they read a's cohomologies and the
    `generator_cocycle` rows of the pairs (b, c) stored in the passes of
    the later sources b, each kept until its last reader.  ArithmeticError,
    in this order of precedence: the table off the closed form
    (`OffClosedForm`; every source's cells are checked first); a violation
    of (ii'), naming its path; the failed lift or composite that comes
    first in arrow position order, then by c, naming it and the degree of
    its hom complex."""
    table = hom_table(spec, window)
    pattern = table.pattern
    violations = pattern.arrow_path_violations()
    if violations:
        # a table off the closed form is reported first
        check_closed_form([mismatches for *_, mismatches in table.walk()])
        route = " -> ".join(display_label(x) for x in violations[0])
        raise ArithmeticError(f"the pairs are not associative on the path {route}: its two "
                              "bracketings give 1 and 0 times the generator")
    objects, top = table.objects, table.top
    arrows = {}  # source -> the targets of its arrows, in position order
    readers = {}  # b -> the sources of arrows into b not yet walked
    for (a, b) in pattern.arrows():
        arrows.setdefault(a, []).append(b)
        readers[b] = readers.get(b, 0) + 1
    outer = {}  # b -> {c: gen(b,c) as a generator_cocycle row}, until its last reader
    failure, found, off = None, [], False
    for a, cohs, _, mismatches in table.walk():
        found.append(mismatches)
        off = off or bool(mismatches)
        if off:
            continue  # the table will be reported; the walk only checks cells now
        X = objects[a]

        def coh(b):
            """a's cohomology into b; for a pair with no term, one with no pieces."""
            return cohs.get(b) or HomCohomology(X, objects[b].module, top, {})

        try:
            for b in arrows.get(a, ()):
                n = _complex_degree(a, b)
                try:
                    gen = generator_morphism(X, objects[b], n, coh(b))
                    if not gen.is_chain_map():
                        raise ArithmeticError("the lift is not a chain map, and composites "
                                              "need chain maps")
                except ArithmeticError as exc:
                    raise ArithmeticError(f"lift of {display_label(a)} -> {display_label(b)} "
                                          f"in degree {n}: {exc}") from exc
                for c in pattern.successors(b):
                    try:
                        row = outer[b][c]
                        if isinstance(row, ArithmeticError):
                            raise row
                        vec = compose_and_identify(row, _complex_degree(b, c), gen, coh(c))
                        want = [1] if (a, c) in pattern.pairs else []
                        if vec != want:
                            raise ArithmeticError(f"is {[str(v) for v in vec]}, not {want}")
                    except ArithmeticError as exc:
                        route = " -> ".join(display_label(x) for x in (a, b, c))
                        raise ArithmeticError(f"composite {route} in degree "
                                              f"{_complex_degree(a, c)}: {exc}") from exc
        except ArithmeticError as exc:
            failure = exc  # sources run last to first: the last failure met comes first
        for b in arrows.get(a, ()):
            readers[b] -= 1
            if not readers[b]:
                del outer[b]
        if readers.get(a):
            outer[a] = {}
            for c in pattern.successors(a):
                try:
                    outer[a][c] = generator_cocycle(coh(c), _complex_degree(a, c))
                except ArithmeticError as exc:  # raised by the composites that read it
                    outer[a][c] = exc
    check_closed_form(found)
    if failure is not None:
        raise failure
    return pattern


def gabriel_quiver(spec: FamilySpec):
    """The B side's Gabriel quiver with relations, certified to present its
    algebra."""
    return gabriel_presentation(composition_table(spec))
