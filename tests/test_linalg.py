"""The sparse elimination of `mfvc._linalg` against dense reference code.

The reference functions below are the dense `Fraction` elimination that
`_linalg` used before it moved to sparse rows.  The reduced row echelon form
of a matrix is unique, so both must agree exactly: the same pivots, the same
nullspace basis, the same particular solution and the same reduced vectors.
"""

import random
from fractions import Fraction

from mfvc._linalg import Subspace, nullspace, rank, rref, solve


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


def ref_solve(rows, rhs):
    if not rows:
        return [] if all(b == 0 for b in rhs) else None
    ncols = len(rows[0])
    red, pivots = ref_rref([list(r) + [b] for r, b in zip(rows, rhs)])
    if ncols in pivots:
        return None
    x = [Fraction(0)] * ncols
    for i, pc in enumerate(pivots):
        x[pc] = red[i][ncols]
    return x


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


def assert_exact(got, want):
    """Equal values, and every entry a Fraction as in the reference."""
    assert got == want
    for row in got:
        assert all(type(a) is Fraction for a in row)


def test_rref_and_rank_match_reference():
    for rows in random_cases(11, 300):
        red, piv = rref(rows)
        want_red, want_piv = ref_rref(rows)
        assert piv == want_piv
        assert_exact(red, want_red)
        assert rank(rows) == len(want_piv)


def test_nullspace_matches_reference():
    for rows in random_cases(12, 300):
        basis = nullspace(rows, ncols=len(rows[0]))
        assert_exact(basis, ref_nullspace(rows))
        for v in basis:
            assert all(sum(a * b for a, b in zip(r, v)) == 0 for r in rows)


def test_solve_matches_reference():
    rng = random.Random(13)
    for rows in random_cases(14, 300):
        if rng.random() < 0.5:
            # consistent: the image of a random vector
            x0 = [Fraction(rng.randint(-2, 2)) for _ in rows[0]]
            rhs = [sum(a * b for a, b in zip(r, x0)) for r in rows]
        else:
            rhs = [Fraction(rng.randint(-2, 2)) for _ in rows]
        got = solve(rows, rhs)
        want = ref_solve(rows, rhs)
        if want is None:
            assert got is None
        else:
            assert_exact([got], [want])
            assert [sum(a * b for a, b in zip(r, got)) for r in rows] == rhs


def test_subspace_matches_reference():
    rng = random.Random(15)
    for rows in random_cases(16, 300):
        ncols = len(rows[0])
        span = Subspace(ncols=ncols)
        for i, v in enumerate(rows):
            before_red, before_piv = ref_rref(rows[:i])
            after_red, after_piv = ref_rref(rows[:i + 1])
            grows = len(after_piv) > len(before_piv)
            assert span.contains(v) is not grows
            assert_exact([span.reduce(v)], [ref_reduce(before_red, before_piv, v)])
            assert span.add(v) is grows
            assert span.dim() == len(after_piv)
            assert_exact(span.rows, after_red)
        probe = [Fraction(rng.randint(-2, 2)) for _ in range(ncols)]
        red, piv = ref_rref(rows)
        assert_exact([span.reduce(probe)], [ref_reduce(red, piv, probe)])
        assert Subspace(rows).rows == span.rows


def test_subspace_add_reports_growth():
    span = Subspace()
    v = [Fraction(0), Fraction(2), Fraction(-1)]
    assert span.add(v) is True
    assert span.add(v) is False
    assert span.add([2 * a for a in v]) is False
    assert span.dim() == 1 and span.ncols == 3
    assert span.rows == [[0, 1, Fraction(-1, 2)]]
    assert span.contains([0, 0, 0]) and not span.contains([1, 0, 0])
    assert span.add([0, 0, 0]) is False


def test_zero_rows_and_empty_input():
    zero = [[Fraction(0)] * 3, [Fraction(0)] * 3]
    assert rref(zero) == ([], [])
    assert rank(zero) == 0
    assert nullspace(zero) == ref_nullspace(zero) == [
        [1, 0, 0], [0, 1, 0], [0, 0, 1]]
    assert solve(zero, [0, 0]) == [0, 0, 0]
    assert solve(zero, [0, 1]) is None
    assert rref([]) == ([], [])
    assert rank([]) == 0
    assert nullspace([]) == []
    assert solve([], []) == [] and solve([], [0]) == []
    assert solve([], [1]) is None
    empty = Subspace()
    assert empty.dim() == 0 and empty.rows == [] and empty.ncols is None
    assert Subspace(ncols=0).rows == []


def test_nullspace_ncols_without_rows_is_identity():
    basis = nullspace([], ncols=3)
    assert_exact(basis, ref_nullspace([], ncols=3))
    assert basis == [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    assert nullspace([], ncols=0) == []


def test_inconsistent_solve():
    rows = [[Fraction(1), Fraction(1)], [Fraction(2), Fraction(2)]]
    assert solve(rows, [Fraction(1), Fraction(3)]) is None
    assert ref_solve(rows, [Fraction(1), Fraction(3)]) is None
    assert solve(rows, [Fraction(1), Fraction(2)]) == [1, 0]


def test_integer_input_gives_fractions():
    # entries may arrive as ints; results are exact Fractions, never floats
    red, piv = rref([[2, 1], [4, 3]])
    assert piv == [0, 1]
    assert_exact(red, [[1, 0], [0, 1]])
    assert_exact(nullspace([[2, 1, 0]]), [[Fraction(-1, 2), 1, 0], [0, 0, 1]])
    assert_exact([solve([[2, 0], [0, 3]], [1, 1])], [[Fraction(1, 2), Fraction(1, 3)]])
