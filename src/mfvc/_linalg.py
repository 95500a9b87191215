"""Small exact linear algebra over Q, eliminating on sparse rows.

A row or vector is a dict {column: Fraction} that holds only nonzero
entries; the matrices here are monomial or binomial differentials and
chain-map equations, so most entries are zero and are never touched.
`nullspace`, `solve` and `Subspace` take and return such dicts, and take
the column count where a dict cannot supply it.  Entries given as `int`
are accepted: every dict that comes back holds `Fraction`s, and zero
entries given on input are dropped.  `rank` alone takes dense rows (lists),
since its callers, the brute-force piece-dimension oracle and the benchmark
harness, build dense rows.

A row space is kept in reduced row echelon form as a dict from pivot column
to its row, scaled to 1 at the pivot.  Every other pivot column is zero in
each row.  Two helpers do all the elimination: `_reduce` clears the pivot
columns of a vector and `_insert` adds a reduced vector as a new pivot row.
`nullspace`, `solve` and `Subspace` run on them; `rank` needs only forward
elimination.  The reduced echelon form of a matrix is unique, so the
results do not depend on the order rows are inserted in.
"""

from fractions import Fraction

_ONE = Fraction(1)


def _axpy(target, f, row):
    """target -= f * row, in place, dropping entries that cancel."""
    for c, a in row.items():
        x = target.get(c, 0) - f * a
        if x:
            target[c] = x
        else:
            del target[c]


def _reduce(vec, pivots):
    """vec reduced against the pivot rows, as a new dict of Fractions.

    One pass over the pivot columns vec touches is enough: a pivot row is
    zero in every other pivot column, so subtracting it leaves the vector's
    entries there as they were.
    """
    out = {c: a if type(a) is Fraction else Fraction(a) for c, a in vec.items() if a}
    for p, f in vec.items():
        row = pivots.get(p)
        if row is not None and f:
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
        v = _reduce(r, pivots)
        if v:
            _insert(v, pivots)
    return pivots


def rank(rows):
    """Rank of a matrix given as dense rows, by forward elimination: pivot
    rows are not cleared above."""
    pivots = {}
    for r in rows:
        v = {c: a if type(a) is Fraction else Fraction(a) for c, a in enumerate(r) if a}
        while v:
            p = min(v)
            row = pivots.get(p)
            if row is None:
                pivots[p] = v
                break
            _axpy(v, v[p] / row[p], row)
    return len(pivots)


def nullspace(rows, ncols):
    """Basis of the right nullspace of the matrix with these rows and ncols
    columns: one vector per free column in ascending order, with 1 there,
    0 at the other free columns and minus the column's reduced entries at
    the pivots."""
    pivots = _echelon(rows)
    by_free = {}
    for p, row in pivots.items():
        for c, a in row.items():
            if c != p:
                by_free.setdefault(c, {})[p] = -a
    return [{fc: _ONE, **by_free.get(fc, {})} for fc in range(ncols) if fc not in pivots]


def solve(rows, rhs, ncols):
    """One solution x of A x = b, or None if there is none.

    rows are the rows of A over columns 0..ncols-1, and rhs is b as a dict
    {row index: value}.  Free variables are set to 0."""
    pivots = _echelon({**r, ncols: rhs[i]} if i in rhs else r for i, r in enumerate(rows))
    if ncols in pivots:
        return None
    return {p: row[ncols] for p, row in pivots.items() if ncols in row}


class Subspace:
    """Row space with incremental membership testing and reduction."""

    def __init__(self, vectors=()):
        self._pivots = {}
        for v in vectors:
            self.add(v)

    def reduce(self, vec):
        """vec reduced against the reduced echelon basis: zero in every
        pivot column, and equal to vec modulo the space."""
        return _reduce(vec, self._pivots)

    def add(self, vec):
        """Add a vector; returns True if it enlarged the space."""
        v = _reduce(vec, self._pivots)
        if not v:
            return False
        _insert(v, self._pivots)
        return True

    def contains(self, vec):
        return not _reduce(vec, self._pivots)

    def dim(self):
        return len(self._pivots)
