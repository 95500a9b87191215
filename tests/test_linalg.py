"""The sparse elimination of `mfvc._linalg` against dense reference code.

The reference functions below are a dense `Fraction` elimination.  The
reduced row echelon form of a matrix is unique, so both must agree exactly:
the same rank, the same nullspace basis, the same echelon basis and the
same reduced vectors.  `_linalg` takes and returns sparse dict rows
(all but `rank`); the tests convert to and from dense lists only here, at
the boundary.
"""

import random
from fractions import Fraction

from mfvc._linalg import Subspace, nullspace, rank


# ---------------------------------------------------------------------------
# dense reference


def ref_rref(rows):
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


def ref_nullspace(rows, ncols=None):
    if not rows:
        return [[Fraction(1) if i == j else Fraction(0) for j in range(ncols)] for i in range(ncols)] if ncols else []
    ncols = len(rows[0])
    red, pivots = ref_rref(rows)
    basis = []
    for fc in (c for c in range(ncols) if c not in pivots):
        v = [Fraction(0)] * ncols
        v[fc] = Fraction(1)
        for i, pc in enumerate(pivots):
            v[pc] = -red[i][fc]
        basis.append(v)
    return basis


def ref_reduce(basis, pivots, vec):
    v = list(vec)
    for row, p in zip(basis, pivots):
        if v[p] != 0:
            f = v[p]
            v = [a - f * b for a, b in zip(v, row)]
    return v


# ---------------------------------------------------------------------------
# random matrices


def random_matrix(rng):
    nrows = rng.randint(1, 9)
    ncols = rng.randint(1, 9)
    density = rng.choice([0.1, 0.25, 0.5, 1.0])
    entries = rng.choice([(-1, 1), (-3, -2, -1, 1, 2, 3)])
    rows = [[Fraction(rng.choice(entries)) if rng.random() < density else Fraction(0)
             for _ in range(ncols)] for _ in range(nrows)]
    # dependent rows: a combination of earlier ones
    for _ in range(rng.randint(0, 2)):
        a, b = rng.randrange(nrows), rng.randrange(nrows)
        k = Fraction(rng.choice(entries))
        rows.append([x + k * y for x, y in zip(rows[a], rows[b])])
    rng.shuffle(rows)
    return rows


def random_cases(seed, count):
    rng = random.Random(seed)
    return [random_matrix(rng) for _ in range(count)]


def sparse(vec):
    return {c: a for c, a in enumerate(vec) if a}


def dense(vec, ncols):
    """A returned dict as a dense list, after checking that it holds only
    nonzero Fractions inside the column range."""
    assert all(type(a) is Fraction and a != 0 for a in vec.values()), vec
    assert all(0 <= c < ncols for c in vec), vec
    return [vec.get(c, Fraction(0)) for c in range(ncols)]


def unit(c, ncols):
    return [Fraction(1) if i == c else Fraction(0) for i in range(ncols)]


def test_rank_matches_reference():
    for rows in random_cases(11, 300):
        assert rank(rows) == len(ref_rref(rows)[1])


def test_nullspace_matches_reference():
    for rows in random_cases(12, 300):
        ncols = len(rows[0])
        basis = [dense(v, ncols) for v in nullspace([sparse(r) for r in rows], ncols)]
        assert basis == ref_nullspace(rows)
        for v in basis:
            assert all(sum(a * b for a, b in zip(r, v)) == 0 for r in rows)


def test_subspace_matches_reference():
    rng = random.Random(15)
    for rows in random_cases(16, 300):
        ncols = len(rows[0])
        span = Subspace()
        for i, v in enumerate(rows):
            before_red, before_piv = ref_rref(rows[:i])
            after_red, after_piv = ref_rref(rows[:i + 1])
            grows = len(after_piv) > len(before_piv)
            assert span.contains(sparse(v)) is not grows
            assert dense(span.reduce(sparse(v)), ncols) == ref_reduce(before_red, before_piv, v)
            assert span.add(sparse(v)) is grows
            assert len(span.basis) == len(after_piv)
            # the reductions of the unit vectors determine the echelon basis
            for c in range(ncols):
                assert dense(span.reduce({c: Fraction(1)}), ncols) == \
                    ref_reduce(after_red, after_piv, unit(c, ncols))
        probe = [Fraction(rng.randint(-2, 2)) for _ in range(ncols)]
        red, piv = ref_rref(rows)
        assert dense(span.reduce(sparse(probe)), ncols) == ref_reduce(red, piv, probe)
        whole = Subspace([sparse(r) for r in rows])
        assert len(whole.basis) == len(span.basis)
        for c in range(ncols):
            assert whole.reduce({c: Fraction(1)}) == span.reduce({c: Fraction(1)})


def test_subspace_basis_matches_reference():
    # the basis holds the reference echelon rows, keyed by pivot in the order
    # the pivots were found; a member's coordinates in it are its entries at
    # the pivots
    rng = random.Random(17)
    for rows in random_cases(18, 300):
        ncols = len(rows[0])
        span = Subspace([sparse(r) for r in rows])
        red, piv = ref_rref(rows)
        basis = span.basis
        assert {p: dense(row, ncols) for p, row in basis.items()} == dict(zip(piv, red))
        found = []
        for i in range(len(rows)):
            found += [p for p in ref_rref(rows[:i + 1])[1] if p not in found]
        assert list(basis) == found
        coeffs = [Fraction(rng.randint(-2, 2)) for _ in basis]
        member = {}
        for k, row in zip(coeffs, basis.values()):
            member = {c: member.get(c, 0) + k * row.get(c, 0) for c in set(member) | set(row)}
        assert [member[p] for p in basis] == coeffs


def test_subspace_add_reports_growth():
    span = Subspace()
    v = {1: Fraction(2), 2: Fraction(-1)}
    assert span.add(v) is True
    assert span.add(v) is False
    assert span.add({c: 2 * a for c, a in v.items()}) is False
    assert len(span.basis) == 1
    assert span.reduce({1: Fraction(1)}) == {2: Fraction(1, 2)}
    assert span.contains({}) and not span.contains({0: Fraction(1)})
    assert span.add({}) is False


def test_zero_rows_and_empty_input():
    zero = [{}, {}]
    assert rank([[Fraction(0)] * 3, [Fraction(0)] * 3]) == 0
    assert nullspace(zero, 3) == [sparse(r) for r in ref_nullspace([[Fraction(0)] * 3] * 2)] == [
        {0: 1}, {1: 1}, {2: 1}]
    assert rank([]) == 0
    assert nullspace([], 0) == []
    empty = Subspace()
    assert len(empty.basis) == 0 and empty.reduce({}) == {}
    assert empty.reduce({0: Fraction(0), 1: Fraction(3)}) == {1: Fraction(3)}


def test_nullspace_ncols_without_rows_is_identity():
    basis = nullspace([], 3)
    assert [dense(v, 3) for v in basis] == ref_nullspace([], ncols=3)
    assert basis == [{0: 1}, {1: 1}, {2: 1}]
    assert nullspace([], 0) == []


def test_integer_input_gives_fractions():
    # entries may arrive as ints; results are exact Fractions, never floats
    assert rank([[2, 1], [4, 3]]) == 2 and rank([[2, 1], [4, 2]]) == 1
    [v, w] = nullspace([{0: 2, 1: 1}], 3)
    assert dense(v, 3) == [Fraction(-1, 2), 1, 0] and dense(w, 3) == [0, 0, 1]
    span = Subspace([{0: 2, 1: 1}])
    assert dense(span.reduce({1: 1}), 2) == [0, 1]
    assert dense(span.reduce({0: 1}), 2) == [0, Fraction(-1, 2)]
    assert dense(span.reduce({0: 3, 1: 0}), 2) == [0, Fraction(-3, 2)]
    assert span.contains({0: 4, 1: 2}) and not span.contains({1: 1})
