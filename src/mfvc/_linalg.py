"""Small exact linear algebra over Q (lists of Fraction rows)."""

from fractions import Fraction


def rref(rows):
    """Reduced row echelon form; returns (rref rows, pivot column list)."""
    mat = [list(r) for r in rows]
    if not mat:
        return [], []
    ncols = len(mat[0])
    pivots = []
    r = 0
    for c in range(ncols):
        pivot_row = next((i for i in range(r, len(mat)) if mat[i][c] != 0), None)
        if pivot_row is None:
            continue
        mat[r], mat[pivot_row] = mat[pivot_row], mat[r]
        pv = mat[r][c]
        mat[r] = [a / pv for a in mat[r]]
        for i in range(len(mat)):
            if i != r and mat[i][c] != 0:
                f = mat[i][c]
                mat[i] = [a - f * b for a, b in zip(mat[i], mat[r])]
        pivots.append(c)
        r += 1
        if r == len(mat):
            break
    return mat[:r], pivots


def rank(rows):
    return len(rref(rows)[0])


def nullspace(rows, ncols=None):
    """Basis of the right nullspace of the matrix (rows over Q)."""
    if not rows:
        return [[Fraction(1) if i == j else Fraction(0) for j in range(ncols)] for i in range(ncols)] if ncols else []
    ncols = len(rows[0])
    red, pivots = rref(rows)
    pivset = set(pivots)
    free = [c for c in range(ncols) if c not in pivset]
    basis = []
    for fc in free:
        v = [Fraction(0)] * ncols
        v[fc] = Fraction(1)
        for i, pc in enumerate(pivots):
            v[pc] = -red[i][fc]
        basis.append(v)
    return basis


def solve(rows, rhs):
    """One solution of A x = b, or None if inconsistent.  rhs is a column."""
    if not rows:
        return [] if all(b == 0 for b in rhs) else None
    ncols = len(rows[0])
    aug = [list(r) + [b] for r, b in zip(rows, rhs)]
    red, pivots = rref(aug)
    for row in red:
        if all(a == 0 for a in row[:ncols]) and row[ncols] != 0:
            return None
    x = [Fraction(0)] * ncols
    for i, pc in enumerate(pivots):
        if pc == ncols:
            return None
        x[pc] = red[i][ncols]
    return x


class Subspace:
    """Row space with incremental membership testing and reduction."""

    def __init__(self, vectors=(), ncols=None):
        self.rows = []
        self.pivots = []
        self.ncols = ncols
        for v in vectors:
            self.add(v)

    def reduce(self, vec):
        v = list(vec)
        for row, p in zip(self.rows, self.pivots):
            if v[p] != 0:
                f = v[p]
                v = [a - f * b for a, b in zip(v, row)]
        return v

    def add(self, vec):
        """Add a vector; returns True if it enlarged the space."""
        if self.ncols is None:
            self.ncols = len(vec)
        v = self.reduce(vec)
        p = next((i for i, a in enumerate(v) if a != 0), None)
        if p is None:
            return False
        pv = v[p]
        v = [a / pv for a in v]
        for i, row in enumerate(self.rows):
            if row[p] != 0:
                f = row[p]
                self.rows[i] = [a - f * b for a, b in zip(row, v)]
        self.rows.append(v)
        self.pivots.append(p)
        order = sorted(range(len(self.pivots)), key=lambda i: self.pivots[i])
        self.rows = [self.rows[i] for i in order]
        self.pivots = [self.pivots[i] for i in order]
        return True

    def contains(self, vec):
        return all(a == 0 for a in self.reduce(vec))

    def dim(self):
        return len(self.rows)
