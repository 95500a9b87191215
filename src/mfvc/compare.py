"""The mirror check: the vanishing-cycle algebra and the matrix-
factorisation algebra must agree under the index correspondence
i + l = p - 1, j + m = q - 1."""

from .aside import assemble_directed_algebra
from .bside import DEGREE_WINDOW, basic_objects, composition_table, hom_table
from .families import FamilySpec


def correspondence(spec: FamilySpec):
    """Bijection A-side label -> B-side label."""
    p, q = spec.p, spec.q
    mapping = {}
    from .aside import interior_index_set

    for (l, m) in interior_index_set(spec):
        mapping[("V0", l, m)] = ("K0", p - 1 - l, q - 1 - m)
    if spec.family == "loop":
        for l in range(p - 1):
            mapping[("Vyf", l)] = ("Kx", p - 1 - l)
        for m in range(q - 1):
            mapping[("Vxf", m)] = ("Ky", q - 1 - m)
        mapping[("Vxy",)] = ("Kf",)
    elif spec.family == "chain":
        for m in range(q - 1):
            mapping[("Vxf", m)] = ("Ky", q - 1 - m)
        mapping[("Vxy",)] = ("Kf",)
    else:
        mapping[("Vxy",)] = ("K0", 1, 1)
    return mapping


def milnor_and_counts(spec: FamilySpec):
    a_objects = len(assemble_directed_algebra(spec).objects)
    b_objects = len(basic_objects(spec))
    return {
        "spec": spec.label(),
        "milnor": spec.milnor(),
        "decomposition": spec.milnor_decomposition(),
        "a_objects": a_objects,
        "b_objects": b_objects,
        "equal": a_objects == b_objects == spec.milnor(),
    }


def _b_side_failure(spec, a_alg, stage, exc):
    return {
        "spec": spec.label(),
        "pass": False,
        "objects": len(a_alg.objects),
        "mismatches": [{"kind": "b_side", "stage": stage, "detail": str(exc)}],
    }


def mirror_check(spec: FamilySpec, window=DEGREE_WINDOW, table=None):
    """Compare hom dimensions in every degree and the full composition
    tables of the two sides under the object correspondence.

    Returns a report dict with `pass` and a list of mismatches.  When the
    B side cannot be built (its hom table deviates from the closed form, or
    a composition is degenerate), the report names that stage instead."""
    mismatches = []
    corr = correspondence(spec)

    a_alg = assemble_directed_algebra(spec)
    if table is None or table.window != window:
        try:
            table = hom_table(spec, window)
        except ArithmeticError as exc:
            return _b_side_failure(spec, a_alg, "hom_table", exc)
    try:
        b_alg = composition_table(spec, table)
    except ArithmeticError as exc:
        return _b_side_failure(spec, a_alg, "composition_table", exc)

    if sorted(corr) != sorted(a_alg.objects):
        mismatches.append({"kind": "objects", "detail": "A-side object set mismatch"})
    if sorted(corr.values()) != sorted(b_alg.objects):
        mismatches.append({"kind": "objects", "detail": "B-side object set mismatch"})

    # (a) per-degree hom dimensions under the correspondence
    for a_src in a_alg.objects:
        for a_tgt in a_alg.objects:
            if a_src == a_tgt:
                continue
            b_src, b_tgt = corr[a_src], corr[a_tgt]
            for d in range(window[0], window[1] + 1):
                da = a_alg.hom_dim(a_src, a_tgt, d)
                db = table.dim(b_src, b_tgt, d)
                if da != db:
                    mismatches.append({
                        "kind": "hom_dim",
                        "pair": (str(a_src), str(a_tgt)),
                        "degree": d, "a": da, "b": db,
                    })

    # (b) composition tables (both rectified to +1 coefficients)
    a_triples = {t: a_alg.coefficient(*t) for t in a_alg.composable_triples()}
    b_triples = {t: b_alg.coefficient(*t) for t in b_alg.composable_triples()}
    for (a, b, c), coeff in a_triples.items():
        bt = (corr[a], corr[b], corr[c])
        if bt not in b_triples:
            mismatches.append({"kind": "composition_missing", "triple": str((a, b, c))})
        elif b_triples[bt] != coeff:
            mismatches.append({
                "kind": "composition", "triple": str((a, b, c)),
                "a": str(coeff), "b": str(b_triples[bt]),
            })
    extra = set(b_triples) - {(corr[a], corr[b], corr[c]) for (a, b, c) in a_triples}
    for t in sorted(extra):
        mismatches.append({"kind": "composition_extra", "triple": str(t)})

    # (c) both sides concentrated in degree 0 (formality witness)
    if not a_alg.degrees_concentrated_in_zero():
        mismatches.append({"kind": "degrees", "side": "A"})
    if not b_alg.degrees_concentrated_in_zero():
        mismatches.append({"kind": "degrees", "side": "B"})
    if not a_alg.is_directed() or not b_alg.is_directed():
        mismatches.append({"kind": "directedness"})
    for side, alg in (("A", a_alg), ("B", b_alg)):
        violations = alg.check_associativity()
        if violations:
            mismatches.append({"kind": "associativity", "side": side,
                               "detail": str(violations[:2])})

    return {
        "spec": spec.label(),
        "pass": not mismatches,
        "objects": len(a_alg.objects),
        "mismatches": mismatches,
    }
