"""Directed algebras on an ordered exceptional collection, shared by the
matrix-factorisation side and the vanishing-cycle side.

All hom spaces between distinct objects here are at most one-dimensional
and sit in degree 0, and endomorphisms are scalars.  When every composite
of generators into a nonzero hom is +1 times the generator, a directed
algebra is determined by the object order and the nonzero hom pairs.
"""

from fractions import Fraction

_ONE = Fraction(1)


def object_shift(label):
    """Cohomological shift of an object label: 3 for the B-side objects
    Kx(i), Ky(j) and Kf supported on the components of w = 0, 0 for every
    other object of either side."""
    return 3 if label[0] in ("Kx", "Ky", "Kf") else 0


def display_label(label):
    """Display name of an object label of either side: K0(i,j), Kx(i)[3],
    Ky(j)[3] and Kf[3] on the B side; V0(l,m), Vyf(l), Vxf(m) and Vxy on the
    A side."""
    kind, *index = label
    name = f"{kind}({','.join(map(str, index))})" if index else kind
    shift = object_shift(label)
    return f"{name}[{shift}]" if shift else name


class DirectedAlgebra:
    """Ordered objects and the pairs (a, b) of distinct objects with
    hom(a, b) nonzero.

    Every such hom is one-dimensional in degree 0, and endomorphisms are
    scalars.  Each side enforces this when it builds its algebra: the A side
    in `aside._grading_degrees` (its intersection counts are 0 or 1), the B
    side in `bside.hom_table`, which matches the closed form.  On both
    sides every composite of generators into a nonzero hom is +1 times the
    generator: `bside.composition_table` checks that each B-side composite
    is exactly +1 or 0, and the A side takes it from the paper's thimble
    basis without computing it.  So the algebra is fixed by its pairs and
    `coefficient` reads the composition law off them.
    """

    def __init__(self, objects, pairs):
        self.objects = list(objects)
        self.position = {obj: i for i, obj in enumerate(self.objects)}
        self.pairs = frozenset(pairs)

    def hom_dim(self, a, b):
        return int(a == b or (a, b) in self.pairs)

    def nonzero_pairs(self):
        position = self.position
        return sorted(self.pairs, key=lambda ab: (position[ab[0]], position[ab[1]]))

    def is_directed(self):
        """No morphisms backwards and scalar endomorphisms."""
        return all(self.position[a] < self.position[b] for (a, b) in self.pairs)

    def _pairs_and_successors(self):
        """nonzero_pairs() and, per object, its targets in the same order."""
        pairs = self.nonzero_pairs()
        succ = {}
        for (a, b) in pairs:
            succ.setdefault(a, []).append(b)
        return pairs, succ

    def composable_triples(self):
        pairs, succ = self._pairs_and_successors()
        return [(a, b, c) for (a, b) in pairs for c in succ.get(b, ())]

    def coefficient(self, a, b, c):
        """The k in  gen(b,c) o gen(a,b) = k * gen(a,c): 1 when the homs
        a->b, b->c and a->c are nonzero, 0 otherwise."""
        pairs = self.pairs
        return int((a, b) in pairs and (b, c) in pairs and (a, c) in pairs)

    def check_associativity(self):
        """(h o g) o f == h o (g o f) for all composable triples of generators.

        The coefficients come from the pairs alone, so this checks the
        pattern: each path a->b->c->d of nonzero homs with a->d nonzero
        needs a->c and b->d both nonzero or both zero."""
        bad = []
        pairs, succ = self._pairs_and_successors()
        for (a, b) in pairs:
            for c in succ.get(b, ()):
                for d in succ.get(c, ()):
                    left = self.coefficient(a, b, c) * self.coefficient(a, c, d)
                    right = self.coefficient(b, c, d) * self.coefficient(a, b, d)
                    if left != right:
                        bad.append((a, b, c, d, left, right))
        return bad


# ---------------------------------------------------------------------------
# quivers


class QuiverWithRelations:
    def __init__(self, vertices, arrows, relations):
        self.vertices = list(vertices)   # object labels
        self.arrows = list(arrows)       # (src, tgt)
        self.relations = list(relations) # [(coeff, [arrow indices])]

    def to_json_dict(self, display=str, shift_of=None):
        shift_of = shift_of or (lambda v: 0)
        return {
            "schema": "1",
            "vertices": [
                {"id": i, "label": display(v), "shift": shift_of(v)}
                for i, v in enumerate(self.vertices)
            ],
            "arrows": [
                {"id": k, "src": self.vertices.index(a), "tgt": self.vertices.index(b),
                 "label": f"a{k}"}
                for k, (a, b) in enumerate(self.arrows)
            ],
            "relations": [
                [{"coeff": str(c), "path": list(path)} for c, path in rel]
                for rel in self.relations
            ],
        }


def gabriel_presentation(algebra: DirectedAlgebra):
    """Gabriel quiver with relations of a directed algebra whose composites
    of generators into a nonzero hom are +1 times the generator.

    Arrows are the nonzero pairs that do not factor through a third object.
    The relations all have length 2: pair (a, c) by pair in position order,
    over the paths a -> m -> c ordered by m, they are -path0 + pathk for each
    k >= 1 when hom(a, c) is nonzero (every path evaluates to the generator)
    and each path alone otherwise.  No shorter relation exists, so none of
    them is a consequence of the others.  `_certify` then proves, without
    enumerating paths, that they present the algebra, and raises
    ArithmeticError if they do not, as when a longer relation is needed.
    """
    arrows, relations = _arrows_and_relations(algebra)
    _certify(algebra, arrows, relations)
    return QuiverWithRelations(algebra.objects, arrows, relations)


def _arrows_and_relations(algebra):
    pairs, succ = algebra._pairs_and_successors()
    arrows = [(a, b) for (a, b) in pairs if not any((z, b) in algebra.pairs for z in succ[a])]
    index = {ab: k for k, ab in enumerate(arrows)}
    out = _targets(arrows)
    middles = {}  # (a, c) -> the m of the paths a -> m -> c, in position order
    for (a, m) in arrows:
        for c in out.get(m, ()):
            middles.setdefault((a, c), []).append(m)
    position = algebra.position
    relations = []
    for (a, c) in sorted(middles, key=lambda ac: (position[ac[0]], position[ac[1]])):
        paths = [[index[(a, m)], index[(m, c)]] for m in middles[(a, c)]]
        if (a, c) in algebra.pairs:
            relations += [[(-_ONE, paths[0]), (_ONE, path)] for path in paths[1:]]
        else:
            relations += [[(_ONE, path)] for path in paths]
    return arrows, relations


def _targets(arrows):
    out = {}
    for (a, m) in arrows:
        out.setdefault(a, []).append(m)
    return out


def _certify(algebra, arrows, relations):
    """Check that the length-2 relations present the algebra: for a before
    b, the paths a ~> b modulo the relations span hom(a, b).

    For fixed b, sources a are taken from last to first, so the claim holds
    already for every later m.  Then the paths a ~> b modulo the relations
    are spanned by one class per arrow a -> m with hom(m, b) nonzero (or
    m = b): the arrow followed by the generator of hom(m, b).  A relation at
    a ending in c, followed by the generator of hom(c, b), relates these
    classes, provided hom(c, b) is nonzero or c = b.  Its path through m
    survives exactly when m has a class, since gen(m,c) o gen(c,b) =
    gen(m,b).  A square with both paths surviving merges their classes, a
    relation with one surviving path kills that path's class.  The number
    of live classes must be hom_dim(a, b); ArithmeticError otherwise."""
    pairs, objects = algebra.pairs, algebra.objects
    out = _targets(arrows)
    at = {}  # a -> [(c, the m of each path of the relation)]
    for rel in relations:
        (a, _), (_, c) = arrows[rel[0][1][0]], arrows[rel[0][1][-1]]
        at.setdefault(a, []).append((c, [arrows[path[0]][1] for _, path in rel]))
    for i, b in enumerate(objects):
        reach = {x for x in objects if x == b or (x, b) in pairs}
        for a in reversed(objects[:i]):
            parent = {m: m for m in out.get(a, ()) if m in reach}

            def find(m):
                while parent[m] != m:
                    m = parent[m]
                return m

            killed = []
            for c, ms in at.get(a, ()):
                if c in reach:
                    live = [m for m in ms if m in parent]
                    if len(live) == 2:
                        parent[find(live[0])] = find(live[1])
                    elif live:
                        killed.append(live[0])
            classes = {find(m) for m in parent} - {find(m) for m in killed}
            if len(classes) != algebra.hom_dim(a, b):
                raise ArithmeticError(
                    f"the length-2 relations leave {len(classes)} classes of paths "
                    f"{display_label(a)} -> {display_label(b)}, not {algebra.hom_dim(a, b)}")
