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
    `aside._grading_degrees`, the B side in `bside.hom_table`.  The +1 law
    is checked by `bside.composition_table` on the B side and taken from
    the paper's thimble basis on the A side.  Under that law the pairs fix
    every composite; the pair listings, the associativity check, the arrows
    and the quiver certificate read it off the masks."""

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

    def is_directed(self):
        """No morphisms backwards and scalar endomorphisms."""
        return all(not sources >> j for j, sources in enumerate(self.pred))

    def composable_triples(self):
        objects, succ = self.objects, self.succ
        return [(objects[i], objects[j], objects[k])
                for i, j in self._position_pairs() for k in _bits(succ[j])]

    def check_associativity(self):
        """The violations (a, b, c, d, left, right) of (h o g) o f = h o (g o f)
        on paths a->b->c->d of generators, in the order of composable_triples
        and then of d.  Read off the pairs, left = [a->c][a->d] and right =
        [b->d][a->d], so one AND per composable a->b->c gives the bad d:
        succ(a) & succ(c) & ~succ(b), with (1, 0), when a->c is nonzero, and
        succ(a) & succ(b) & succ(c), with (0, 1), otherwise."""
        objects, succ = self.objects, self.succ
        bad = []
        for i, j in self._position_pairs():
            for k in _bits(succ[j]):
                ac = succ[i] >> k & 1
                ds = succ[i] & succ[k] & (~succ[j] if ac else succ[j])
                if ds:
                    a, b, c = objects[i], objects[j], objects[k]
                    bad += [(a, b, c, objects[m], ac, 1 - ac) for m in _bits(ds)]
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
