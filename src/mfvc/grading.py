"""Exact arithmetic in the maximal grading group of an invertible curve polynomial.

The group L is generated by xv, yv, cv (the degrees of x, y and of the
polynomial w) subject to two relations depending on the family:

    loop :  p*xv + yv = cv,   xv + q*yv = cv
    chain:  p*xv + yv = cv,   q*yv = cv
    bp   :  p*xv      = cv,   q*yv = cv

The Smith normal form of the relation matrix gives L = Z/d + Z, and elements
are stored in those coordinates: a residue mod d and an integer weight.
Integer 3-vectors over (xv, yv, cv) convert in and out through the Smith
transform.  Since cv has positive weight, each class of the quotient L/Zc
has exactly one element of weight in [0, weight(cv)), which serves as its
canonical form.  Everything is plain python integers, so all of it is exact.
"""

from .families import FAMILIES


def _relation_rows(family, p, q):
    if family == "loop":
        return [[p, 1, -1], [1, q, -1]]
    if family == "chain":
        return [[p, 1, -1], [0, q, -1]]
    if family == "bp":
        return [[p, 0, -1], [0, q, -1]]
    raise ValueError(f"unknown family {family!r}")


def smith_normal_form(rows):
    """Smith normal form with transforms: returns (D, U, V) with U*A*V = D,
    U and V unimodular, D diagonal with d1 | d2 | ...  Small matrices only."""
    A = [list(r) for r in rows]
    m = len(A)
    n = len(A[0]) if m else 0
    U = [[int(i == j) for j in range(m)] for i in range(m)]
    V = [[int(i == j) for j in range(n)] for i in range(n)]

    def row_op(i, j, f):  # row_i -= f*row_j
        A[i] = [a - f * b for a, b in zip(A[i], A[j])]
        U[i] = [a - f * b for a, b in zip(U[i], U[j])]

    def col_op(i, j, f):  # col_i -= f*col_j
        for r in A:
            r[i] -= f * r[j]
        for r in V:
            r[i] -= f * r[j]

    def swap_rows(i, j):
        A[i], A[j] = A[j], A[i]
        U[i], U[j] = U[j], U[i]

    def swap_cols(i, j):
        for r in A:
            r[i], r[j] = r[j], r[i]
        for r in V:
            r[i], r[j] = r[j], r[i]

    t = 0
    while t < min(m, n):
        # Find a nonzero pivot in the remaining block.
        pos = [(i, j) for i in range(t, m) for j in range(t, n) if A[i][j] != 0]
        if not pos:
            break
        i0, j0 = min(pos, key=lambda ij: abs(A[ij[0]][ij[1]]))
        swap_rows(t, i0)
        swap_cols(t, j0)
        dirty = True
        while dirty:
            dirty = False
            for i in range(t + 1, m):
                if A[i][t]:
                    f = A[i][t] // A[t][t]
                    row_op(i, t, f)
                    if A[i][t]:
                        swap_rows(t, i)
                        dirty = True
            for j in range(t + 1, n):
                if A[t][j]:
                    f = A[t][j] // A[t][t]
                    col_op(j, t, f)
                    if A[t][j]:
                        swap_cols(t, j)
                        dirty = True
        # Divisibility: pivot must divide the rest of the block.
        for i in range(t + 1, m):
            bad = next((j for j in range(t + 1, n) if A[i][j] % A[t][t]), None)
            if bad is not None:
                row_op(t, i, -1)
                t -= 1
                break
        t += 1
    for i in range(min(m, n)):
        if A[i][i] < 0:
            A[i] = [-a for a in A[i]]
            U[i] = [-a for a in U[i]]
    D = A
    return D, U, V


class GroupElement:
    """Element of a GradingGroup in Smith coordinates.

    L is Z/d + Z with d = group.torsion_order, so an element is stored
    canonically as its torsion residue r in [0, d) and its weight w, the
    free coordinate signed to be positive on xv and yv.  Group operations,
    equality and hashing act on (r, w) directly; no lattice reduction is
    needed.
    """

    __slots__ = ("group", "r", "w")

    def __init__(self, group, r, w):
        self.group = group
        self.r = r
        self.w = w

    def __add__(self, other):
        assert self.group is other.group
        g = self.group
        return GroupElement(g, (self.r + other.r) % g.torsion_order, self.w + other.w)

    def __sub__(self, other):
        assert self.group is other.group
        g = self.group
        return GroupElement(g, (self.r - other.r) % g.torsion_order, self.w - other.w)

    def __neg__(self):
        g = self.group
        return GroupElement(g, -self.r % g.torsion_order, -self.w)

    def __rmul__(self, n):
        g = self.group
        return GroupElement(g, n * self.r % g.torsion_order, n * self.w)

    def __eq__(self, other):
        return (isinstance(other, GroupElement) and self.group is other.group
                and self.w == other.w and self.r == other.r)

    def __hash__(self):
        return hash((self.r, self.w))

    def is_zero(self):
        return self.r == 0 and self.w == 0

    def weight(self):
        return self.w

    @property
    def vec(self):
        """A canonical integer 3-vector over (xv, yv, cv) representing this element."""
        return self.group._vector(self.r, self.w)

    def mod_c(self):
        """The canonical element of this class in L/Zc: the one with weight
        in [0, c.w), unique because c has positive weight."""
        g = self.group
        c = g.c
        k = self.w // c.w
        return GroupElement(g, (self.r - k * c.r) % g.torsion_order, self.w - k * c.w)

    def __repr__(self):
        return f"L{self.vec}"


def _inverse_unimodular(V):
    """Integer inverse of a 3x3 matrix of determinant +-1 (adjugate / det)."""
    det = sum(V[0][j] * (V[1][(j + 1) % 3] * V[2][(j + 2) % 3]
                         - V[1][(j + 2) % 3] * V[2][(j + 1) % 3]) for j in range(3))
    if det not in (1, -1):
        raise ArithmeticError("Smith transform is not unimodular")
    return [[det * (V[(j + 1) % 3][(i + 1) % 3] * V[(j + 2) % 3][(i + 2) % 3]
                    - V[(j + 1) % 3][(i + 2) % 3] * V[(j + 2) % 3][(i + 1) % 3])
             for j in range(3)] for i in range(3)]


class GradingGroup:
    """The maximal grading group L for one family, plus its quotient L/Z*cv."""

    def __init__(self, family, p, q):
        if family not in FAMILIES:
            raise ValueError(f"unknown family {family!r}")
        if p < 2 or q < 2:
            raise ValueError("p and q must both be at least 2")
        self.family = family
        self.p = p
        self.q = q
        self.relations = _relation_rows(family, p, q)

        D, _, V = smith_normal_form(self.relations)
        diag = [D[i][i] for i in range(min(len(D), 3)) if D[i][i] != 0]
        if len(diag) != 2:
            raise ValueError("relation lattice is expected to have rank 2")
        if diag[0] != 1:
            raise ValueError("torsion of L is expected to be cyclic")
        self.torsion = tuple(d for d in diag if d > 1)
        self.free_rank = 3 - len(diag)
        # Coordinates y = v*V split L into Z/1 + Z/d + Z, d = torsion_order
        # (free part last), so (y1 mod d, +-y2) is a canonical form; y0
        # carries no information.
        self.torsion_order = diag[1]
        sign = 1 if V[0][2] > 0 else -1
        self._residue_col = [V[i][1] for i in range(3)]
        self._weight_col = [sign * V[i][2] for i in range(3)]
        Vinv = _inverse_unimodular(V)
        self._residue_row = Vinv[1]
        self._weight_row = [sign * a for a in Vinv[2]]
        # degree -> monomials, filled by polyring.monomials_of_exact_degree;
        # held here so that it is freed together with the group
        self.monomials_by_degree = {}

        Dq, _, _ = smith_normal_form(self.relations + [[0, 0, 1]])
        dq = [Dq[i][i] for i in range(3)]
        if any(d == 0 for d in dq):
            raise ValueError("L/Zc is expected to be finite")
        self.order_mod_c = abs(dq[0] * dq[1] * dq[2])
        self.torsion_mod_c = tuple(abs(d) for d in dq if abs(d) > 1)

        self.x = self.element(1, 0)
        self.y = self.element(0, 1)
        self.c = self.element(0, 0, 1)
        self.zero = self.element(0, 0)
        if self.x.weight() <= 0 or self.y.weight() <= 0:
            raise ValueError("monomial degrees must have positive free part")
        if self.c.weight() <= 0:  # so cv has infinite order and mod_c is canonical
            raise ValueError("cv is expected to have positive weight")

    # -- raw vector helpers ------------------------------------------------

    def _vector(self, r, w):
        """The integer 3-vector with Smith coordinates (0, r, +-w)."""
        return tuple(r * a + w * b for a, b in zip(self._residue_row, self._weight_row))

    # -- public api ---------------------------------------------------------

    def element(self, a, b, c=0):
        """The element a*xv + b*yv + c*cv."""
        rc, wc = self._residue_col, self._weight_col
        return GroupElement(self, (a * rc[0] + b * rc[1] + c * rc[2]) % self.torsion_order,
                            a * wc[0] + b * wc[1] + c * wc[2])

    def invariants(self):
        """(free rank, torsion factors) of L and of L/Z*cv."""
        return {
            "L": {"free_rank": self.free_rank, "torsion": list(self.torsion)},
            "L_mod_c": {"order": self.order_mod_c, "torsion": list(self.torsion_mod_c)},
        }

    def __repr__(self):
        return f"GradingGroup({self.family}, p={self.p}, q={self.q})"


def make_grading_group(family, p, q):
    return GradingGroup(family, p, q)
