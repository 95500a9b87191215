"""Small exact linear algebra over Q, eliminating on sparse rows.

The public functions take and return dense rows (lists of Fraction).
Inside, a row is a dict {column: Fraction} that holds only nonzero
entries; the matrices here are monomial or binomial differentials and
chain-map equations, so most entries are zero and are never touched.

A row space is kept in reduced row echelon form as a dict from pivot column
to its row, scaled to 1 at the pivot.  Every other pivot column is zero in
each row.  Two helpers do all the elimination: `_reduce` clears the pivot
columns of a vector and `_insert` adds a reduced vector as a new pivot row.
`rref`, `nullspace`, `solve` and `Subspace` run on them; `rank` needs only
forward elimination.  The reduced echelon form of a matrix is unique, so
the results do not depend on the order rows are inserted in.
"""

from fractions import Fraction

_ZERO = Fraction(0)
_ONE = Fraction(1)


def _sparse(vec):
    return {c: a if type(a) is Fraction else Fraction(a) for c, a in enumerate(vec) if a}


def _dense(row, ncols):
    return [row.get(c, _ZERO) for c in range(ncols)]


def _axpy(target, f, row):
    """target -= f * row, in place, dropping entries that cancel."""
    for c, a in row.items():
        x = target.get(c, 0) - f * a
        if x:
            target[c] = x
        else:
            del target[c]


def _reduce(vec, pivots):
    """vec (sparse) reduced against the pivot rows, as a new dict.

    One pass over the pivot columns vec touches is enough: a pivot row is
    zero in every other pivot column, so subtracting it leaves the vector's
    entries there as they were.
    """
    out = dict(vec)
    for p, f in vec.items():
        row = pivots.get(p)
        if row is not None:
            _axpy(out, f, row)
    return out


def _insert(vec, pivots):
    """Add a nonzero vector, already reduced, as the pivot row of its
    leading column, and clear that column from the other pivot rows."""
    p = min(vec)
    pv = vec[p]
    row = vec if pv == 1 else {c: a / pv for c, a in vec.items()}
    for other in pivots.values():
        f = other.get(p)
        if f is not None:
            _axpy(other, f, row)
    pivots[p] = row


def _echelon(rows):
    """Reduced echelon form of the row space: {pivot column: sparse row}."""
    pivots = {}
    for r in rows:
        v = _reduce(_sparse(r), pivots)
        if v:
            _insert(v, pivots)
    return pivots


def rref(rows):
    """Reduced row echelon form; returns (rref rows, pivot column list)."""
    if not rows:
        return [], []
    ncols = len(rows[0])
    pivots = _echelon(rows)
    cols = sorted(pivots)
    return [_dense(pivots[p], ncols) for p in cols], cols


def rank(rows):
    """Rank by forward elimination: pivot rows are not cleared above."""
    pivots = {}
    for r in rows:
        v = _sparse(r)
        while v:
            p = min(v)
            row = pivots.get(p)
            if row is None:
                pivots[p] = v
                break
            _axpy(v, v[p] / row[p], row)
    return len(pivots)


def nullspace(rows, ncols=None):
    """Basis of the right nullspace of the matrix (rows over Q), one vector
    per free column in ascending order, with 1 there and 0 at the others."""
    if not rows:
        return [[_ONE if i == j else _ZERO for j in range(ncols)] for i in range(ncols)] if ncols else []
    ncols = len(rows[0])
    pivots = _echelon(rows)
    by_free = {}
    for p, row in pivots.items():
        for c, a in row.items():
            if c != p:
                by_free.setdefault(c, []).append((p, a))
    basis = []
    for fc in range(ncols):
        if fc in pivots:
            continue
        v = [_ZERO] * ncols
        v[fc] = _ONE
        for p, a in by_free.get(fc, ()):
            v[p] = -a
        basis.append(v)
    return basis


def solve(rows, rhs):
    """One solution of A x = b, or None if inconsistent.  rhs is a column.
    Free variables are set to 0."""
    if not rows:
        return [] if all(b == 0 for b in rhs) else None
    ncols = len(rows[0])
    pivots = _echelon(list(r) + [b] for r, b in zip(rows, rhs))
    if ncols in pivots:
        return None
    x = [_ZERO] * ncols
    for p, row in pivots.items():
        x[p] = row.get(ncols, _ZERO)
    return x


class Subspace:
    """Row space with incremental membership testing and reduction."""

    def __init__(self, vectors=(), ncols=None):
        self.ncols = ncols
        self._pivots = {}
        for v in vectors:
            self.add(v)

    @property
    def rows(self):
        """Reduced echelon basis, dense, in ascending pivot order."""
        return [_dense(self._pivots[p], self.ncols) for p in sorted(self._pivots)]

    def reduce(self, vec):
        return _dense(_reduce(_sparse(vec), self._pivots), len(vec))

    def add(self, vec):
        """Add a vector; returns True if it enlarged the space."""
        if self.ncols is None:
            self.ncols = len(vec)
        v = _reduce(_sparse(vec), self._pivots)
        if not v:
            return False
        _insert(v, self._pivots)
        return True

    def contains(self, vec):
        return not _reduce(_sparse(vec), self._pivots)

    def dim(self):
        return len(self._pivots)
