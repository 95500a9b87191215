"""Directed algebras on an ordered exceptional collection, shared by the
matrix-factorisation side and the vanishing-cycle side.

All hom spaces between distinct objects here are at most one-dimensional
and sit in degree 0, and endomorphisms are scalars.  When every composite
of generators into a nonzero hom is +1 times the generator, a directed
algebra is determined by the object order and the nonzero hom pairs.
"""


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


def _bits(mask):
    """Positions of the set bits of mask, low to high."""
    while mask:
        yield (mask & -mask).bit_length() - 1
        mask &= mask - 1


def _masks(position, pairs):
    """Per position, the bitmask of the pairs' targets and of their sources."""
    succ, pred = [0] * len(position), [0] * len(position)
    for (a, b) in pairs:
        succ[position[a]] |= 1 << position[b]
        pred[position[b]] |= 1 << position[a]
    return succ, pred


class DirectedAlgebra:
    """Ordered objects and the pairs (a, b) of distinct objects with
    hom(a, b) nonzero, also held as one pair graph on bitmasks: bit j of
    succ[i] is set iff (objects[i], objects[j]) is a pair; pred[j] is the
    transpose.

    The A side enforces the one-dimensional degree-0 homs in
    `aside._grading_degrees`, the B side in each walk of a `bside.HomTable`,
    which checks every cell against a DirectedAlgebra, the closed form's
    pattern (`bside.closed_form`) that the table builds once.  The +1 law
    is taken from the paper's thimble basis on the A side.  On the B side
    `bside.composition_table` proves it from the composites that start on
    an arrow together with `arrow_path_violations`, the one condition (ii')
    on the pattern that carries it to every other composable triple; the
    pattern is then associative because it is the B side's real
    composition, so the full associativity of the pattern is not checked.
    Under that law the pairs fix every composite; the pair listings,
    (ii'), the arrows and the quiver certificate read it off the masks."""

    def __init__(self, objects, pairs):
        self.objects = list(objects)
        self.position = {obj: i for i, obj in enumerate(self.objects)}
        self.pairs = frozenset(pairs)
        self.succ, self.pred = _masks(self.position, self.pairs)

    def hom_dim(self, a, b):
        return int(a == b or (a, b) in self.pairs)

    def _position_pairs(self):
        """(i, j) for every pair, in position order."""
        return [(i, j) for i, targets in enumerate(self.succ) for j in _bits(targets)]

    def nonzero_pairs(self):
        return [(self.objects[i], self.objects[j]) for i, j in self._position_pairs()]

    def successors(self, a):
        """The objects b with (a, b) a pair, in position order."""
        objects = self.objects
        return [objects[j] for j in _bits(self.succ[self.position[a]])]

    def is_directed(self):
        """No morphisms backwards and scalar endomorphisms."""
        return all(not sources >> j for j, sources in enumerate(self.pred))

    def arrow_path_violations(self):
        """The paths a -> b1 -> b -> c of pairs, a -> b1 an arrow and a -> b,
        a -> c pairs, with b1 -> c zero: the violations of (ii'), for every
        arrow a -> b1 and every b in succ(b1) & succ(a),
        succ(a) & succ(b) & ~succ(b1) == 0.  Listed by arrow in position
        order, then by b and by c.  (ii') is the part of associativity that
        `bside.composition_table`'s induction uses: on such a path
        gen(b,c) o gen(a,b) is gen(a,c), while the bracketing through
        b1 -> c gives 0."""
        objects, succ, pred = self.objects, self.succ, self.pred
        bad = []
        for i, si in enumerate(succ):
            for j in _bits(si):
                if si & pred[j]:
                    continue  # a -> b1 factors: not an arrow
                sj = succ[j]
                for k in _bits(sj & si):
                    cs = si & succ[k] & ~sj
                    if cs:
                        a, b1, b = objects[i], objects[j], objects[k]
                        bad += [(a, b1, b, objects[m]) for m in _bits(cs)]
        return bad

    def arrows(self):
        """The pairs that factor through no third object: succ(a) & pred(b) == 0."""
        objects, succ, pred = self.objects, self.succ, self.pred
        return [(objects[i], objects[j]) for i, j in self._position_pairs()
                if not succ[i] & pred[j]]


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

    The arrows are `algebra.arrows()`.  The relations all have length 2:
    pair (a, c) by pair in position order, over the paths a -> m -> c
    ordered by m, they are -path0 + pathk for each k >= 1 when hom(a, c) is
    nonzero (every path evaluates to the generator) and each path alone
    otherwise.  No shorter relation exists, so none of them is a consequence
    of the others.  `_certify` then proves, without enumerating paths, that
    they present the algebra, and raises ArithmeticError if they do not, as
    when a longer relation is needed."""
    arrows, relations = _arrows_and_relations(algebra)
    _certify(algebra, arrows, relations)
    return QuiverWithRelations(algebra.objects, arrows, relations)


def _arrows_and_relations(algebra):
    arrows = algebra.arrows()
    index = {ab: k for k, ab in enumerate(arrows)}
    objects, succ = algebra.objects, algebra.succ
    out, into = _masks(algebra.position, arrows)
    relations = []
    for i, a in enumerate(objects):
        two_step = 0
        for m in _bits(out[i]):
            two_step |= out[m]
        for k in _bits(two_step):  # the c of the paths a -> m -> c in order, then m
            paths = [[index[(a, objects[m])], index[(objects[m], objects[k])]]
                     for m in _bits(out[i] & into[k])]
            if succ[i] >> k & 1:
                relations += [[(-1, paths[0]), (1, path)] for path in paths[1:]]
            else:
                relations += [[(1, path)] for path in paths]
    return arrows, relations


def _certify(algebra, arrows, relations):
    """Check that the length-2 relations present the algebra: for a before
    b, the paths a ~> b modulo the relations span hom(a, b).

    Sources a are taken from last to first, so this holds for every later
    m, and with reach = pred(b) | bit(b) the paths are spanned by one class
    per arrow a -> m with m in reach.  A relation at a ending in c in reach
    keeps its path through m iff m is in reach (gen(m,c) o gen(c,b) =
    gen(m,b)): keeping two paths merges their classes, keeping one kills
    its class.  The live classes must number hom_dim(a, b); ArithmeticError
    otherwise."""
    objects, position = algebra.objects, algebra.position
    out, _ = _masks(position, arrows)
    ends = [(position[a], position[b]) for a, b in arrows]
    at = {}  # position of a -> [(position of c, [position of each path's m])]
    for rel in relations:
        (i, _), (_, k) = ends[rel[0][1][0]], ends[rel[0][1][-1]]
        at.setdefault(i, []).append((k, [ends[path[0]][1] for _, path in rel]))
    for j, b in enumerate(objects):
        reach = algebra.pred[j] | 1 << j
        for i in reversed(range(j)):
            cls = {m: m for m in _bits(out[i] & reach)}  # class of each arrow a -> m
            for k, ms in at.get(i, ()):
                live = [cls[m] for m in ms if m in cls and reach >> k & 1]
                if live:  # two classes merge, one dies; None marks a dead class
                    new = live[1] if len(live) == 2 and None not in live else None
                    cls = {m: new if r in live else r for m, r in cls.items()}
            classes = set(cls.values()) - {None}
            a = objects[i]
            if len(classes) != algebra.hom_dim(a, b):
                raise ArithmeticError(
                    f"the length-2 relations leave {len(classes)} classes of paths "
                    f"{display_label(a)} -> {display_label(b)}, not {algebra.hom_dim(a, b)}")
