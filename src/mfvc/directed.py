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
    is exactly +1 or 0, and `aside.assemble_directed_algebra` argues it
    for the A side.  So the algebra is fixed by its pairs and
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

    def total_hom_dim(self):
        """Identities plus all generators."""
        return len(self.objects) + len(self.pairs)

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


def extract_quiver(algebra: DirectedAlgebra):
    """Gabriel quiver with relations of a directed algebra with scalar
    endomorphisms, one-dimensional homs and nondegenerate composition.

    Arrows are generators not expressible as composites; relations form a
    basis of the kernel of the path algebra surjection, computed path
    length by path length modulo consequences of shorter relations.
    """
    from ._linalg import Subspace

    pairs = algebra.pairs
    arrows = []
    for (a, b) in algebra.nonzero_pairs():
        composite = any(
            (a, z) in pairs and (z, b) in pairs
            for z in algebra.objects
            if z != a and z != b
        )
        if not composite:
            arrows.append((a, b))
    arrow_index = {ab: k for k, ab in enumerate(arrows)}
    out_arrows = {}
    for (a, b) in arrows:
        out_arrows.setdefault(a, []).append(b)

    # enumerate arrow paths by length
    paths = {1: {ab: [[arrow_index[ab]]] for ab in arrows}}
    maxlen = 1
    while True:
        nxt = {}
        for (a, b), plist in paths[maxlen].items():
            for c in out_arrows.get(b, ()):
                bucket = nxt.setdefault((a, c), [])
                for p in plist:
                    bucket.append(p + [arrow_index[(b, c)]])
        if not nxt:
            break
        maxlen += 1
        paths[maxlen] = nxt

    relations = []
    # vectors over the paths a->b of one length are sparse dicts keyed by
    # position in plist
    for length in range(2, maxlen + 1):
        for (a, b), plist in sorted(paths[length].items(),
                                    key=lambda kv: (algebra.position[kv[0][0]], algebra.position[kv[0][1]])):
            pindex = {tuple(p): i for i, p in enumerate(plist)}
            # kernel of the evaluation: all paths evaluate to the generator
            # (coefficient exactly +1) or to zero
            if (a, b) in pairs:
                kernel = [{0: -_ONE, k: _ONE} for k in range(1, len(plist))]
            else:
                kernel = [{k: _ONE} for k in range(len(plist))]
            if not kernel:
                continue
            # consequences of shorter relations: u * r * v inside paths a->b
            consequence = Subspace(_consequences(relations, arrows, paths, a, b, length, pindex))
            for vec in kernel:
                if consequence.add(vec):
                    relations.append([(vec[k], list(plist[k])) for k in sorted(vec)])

    return QuiverWithRelations(algebra.objects, arrows, relations), paths


def path_algebra_dimension(algebra: DirectedAlgebra, quiver: QuiverWithRelations, paths):
    """Total dimension of the path algebra modulo the extracted relations.

    Used as a consistency check against the sum of hom dimensions."""
    from ._linalg import Subspace

    total = len(algebra.objects) + len(quiver.arrows)
    by_pair = {}
    for length, buckets in paths.items():
        if length < 2:
            continue
        for (a, b), plist in buckets.items():
            by_pair.setdefault((a, b, length), plist)
    for (a, b, length), plist in by_pair.items():
        pindex = {tuple(p): i for i, p in enumerate(plist)}
        span = Subspace(_consequences(quiver.relations, quiver.arrows, paths, a, b, length, pindex))
        total += len(plist) - span.dim()
    return total


def _consequences(relations, arrows, paths, a, b, length, pindex):
    """The products pre * r * post of each relation r with arrow paths pre
    into its start and post out of its end, as sparse vectors over the
    length-`length` paths a -> b numbered by pindex.  The terms of a
    relation are distinct paths, so each product is nonzero."""
    for rel in relations:
        ra = arrows[rel[0][1][0]][0]
        rb = arrows[rel[0][1][-1]][1]
        rlen = len(rel[0][1])
        for pre_len in range(0, length - rlen + 1):
            post_len = length - rlen - pre_len
            pres = ([[]] if a == ra else []) if pre_len == 0 else paths.get(pre_len, {}).get((a, ra), [])
            posts = ([[]] if b == rb else []) if post_len == 0 else paths.get(post_len, {}).get((rb, b), [])
            for pre in pres:
                for post in posts:
                    vec = {}
                    for c, rpath in rel:
                        k = pindex.get(tuple(pre + list(rpath) + post))
                        if k is None:
                            break
                        vec[k] = c
                    else:
                        yield vec
