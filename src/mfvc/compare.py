"""The mirror check: the vanishing-cycle algebra and the matrix-
factorisation algebra must agree under the index correspondence
i + l = p - 1, j + m = q - 1."""

from .aside import assemble_directed_algebra, interior_index_set
# hom_table is unused here, but perfbench's tracer test rebinds this import
from .bside import DEGREE_WINDOW, OffClosedForm, composition_table, hom_table  # noqa: F401
from .families import FamilySpec, exponents


def correspondence(spec: FamilySpec):
    """Bijection A-side label -> B-side label, read off (f, e)."""
    p, q = spec.p, spec.q
    (_, e), (f, _) = exponents(spec.family, p, q)
    mapping = {("V0", l, m): ("K0", p - 1 - l, q - 1 - m) for (l, m) in interior_index_set(spec)}
    if f:
        mapping.update({("Vyf", l): ("Kx", p - 1 - l) for l in range(p - 1)})
    if e:
        mapping.update({("Vxf", m): ("Ky", q - 1 - m) for m in range(q - 1)})
    mapping[("Vxy",)] = ("Kf",) if e else ("K0", 1, 1)
    return mapping


def _failure(spec, kind, stage, exc):
    return {
        "spec": spec.label(),
        "pass": False,
        "objects": spec.milnor(),
        "mismatches": [{"kind": kind, "stage": stage, "detail": str(exc)}],
    }


def mirror_check(spec: FamilySpec, window=DEGREE_WINDOW):
    """Compare the two sides under the object correspondence: (a) hom
    dimensions between distinct objects, then directedness.  Both sides
    read their objects off (f, e), so each side's object count is also
    compared with the Milnor number, counted apart from that table by
    `FamilySpec.milnor`.

    Each side checks, when it builds its algebra, that every hom between
    distinct objects is zero or one-dimensional in degree 0:
    `assemble_directed_algebra` from the A-side lifts, the hom table by the
    closed form (`bside.closed_form`, a pattern of pairs, each hom 1 in
    degree 0) in every degree of the window.  So (a) compares the two
    sets of nonzero pairs, once as sets; the mismatches pair by pair are
    listed only when the sets differ.

    The B side is one walk over its sources (`bside.HomTable.walk`), run
    by `composition_table` on a hom table over `window`: each source's
    cohomologies are built, its cells checked, its arrows lifted and
    composed, and then dropped, so the B side never holds the whole table.

    On each side every composite of generators into a nonzero hom is +1
    times the generator, and every other composite is 0.  On the B side
    `composition_table` proves it, with no rescaling: it checks the one
    condition (ii') on the pattern of pairs that its induction uses,
    computes the composites that start on an arrow, and (ii') carries the
    law to every other composable triple.  On the A side it is taken from
    the paper's thimble basis, not computed.  So each composition law is
    read off the nonzero pairs, and once (a) passes, the two patterns,
    hence the two composition tables, are equal under the correspondence.
    The B side's pattern is associative because it is the B side's real
    composition, so the A side's, being equal, is too.

    Returns a report dict with `pass` and a list of mismatches.  When a
    side cannot be built (an A-side generator off degree 0 or a grid-rule
    count that the transport profile contradicts, a B-side hom table that
    deviates from the closed form, a B-side pattern of pairs that breaks
    (ii'), or a B-side composite of generators that is not exactly +1
    or 0), the report names that side and stage instead; a B-side hom
    table off the closed form (`bside.OffClosedForm`) is named over a
    failed composite, as the stage `hom_table`."""
    mismatches = []
    corr = correspondence(spec)

    try:
        a_alg = assemble_directed_algebra(spec)
    except ArithmeticError as exc:
        return _failure(spec, "a_side", "assemble_directed_algebra", exc)
    try:
        b_alg = composition_table(spec, window)
    except OffClosedForm as exc:  # the table's own report comes first
        return _failure(spec, "b_side", "hom_table", exc)
    except ArithmeticError as exc:
        return _failure(spec, "b_side", "composition_table", exc)

    if sorted(corr) != sorted(a_alg.objects):
        mismatches.append({"kind": "objects", "detail": "A-side object set mismatch"})
    if sorted(corr.values()) != sorted(b_alg.objects):
        mismatches.append({"kind": "objects", "detail": "B-side object set mismatch"})
    for side, objects in (("A", a_alg.objects), ("B", b_alg.objects)):
        if len(objects) != spec.milnor():
            mismatches.append({"kind": "objects", "side": side, "detail":
                               f"{len(objects)} objects, Milnor number {spec.milnor()}"})

    # (a) hom dimensions under the correspondence, all in degree 0: the two
    # sets of pairs once, and pair by pair only when they differ.  An A
    # object outside the correspondence maps to None, which is in no B pair
    b_pairs = b_alg.pairs
    if {(corr.get(a), corr.get(b)) for (a, b) in a_alg.pairs} != b_pairs:
        for a_src in a_alg.objects:
            for a_tgt in a_alg.objects:
                if a_src == a_tgt:
                    continue
                da = int((a_src, a_tgt) in a_alg.pairs)
                db = int((corr.get(a_src), corr.get(a_tgt)) in b_pairs)
                if da != db:
                    mismatches.append({
                        "kind": "hom_dim",
                        "pair": (str(a_src), str(a_tgt)),
                        "degree": 0, "a": da, "b": db,
                    })

    if not a_alg.is_directed() or not b_alg.is_directed():
        mismatches.append({"kind": "directedness"})

    return {
        "spec": spec.label(),
        "pass": not mismatches,
        "objects": len(a_alg.objects),
        "mismatches": mismatches,
    }
