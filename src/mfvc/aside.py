"""The vanishing-cycle side: critical data of the resonant perturbation
w~ - eps*x*y, the vanishing-path schedule, intersection combinatorics,
grading lifts, signs, and the resulting directed algebra.

w~ is the Berglund-Huebsch transpose of w: its exponent matrix is E^T,
E = ((p, e), (f, q)) from `families.exponents`, so w~ = x^p y^f + x^e y^q
and everything here is read off its (p, q, f, e), from `families.transpose`.
Rotating the real-positive interior critical point of w~ - eps*x*y by
(X, Y) turns rotates x^a y^b by aX + bY turns; the point stays critical iff
every monomial of w~ turns with xy, i.e. iff (E^T - J)(X, Y)^T is in Z^2
(J all ones).  So `interior_args` is one 2x2 inverse for all three families.

Angles are measured in full turns (1 = 2*pi) and held as integer
numerators over one denominator per spec, det = det(E^T - J), so the
strict inequalities behind the path combinatorics are integer comparisons;
`interior_args` and `theta_turns` read them as Fractions.  The numerical
checks live in `transport` and in the Newton enumeration here.
"""

import math
import random
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from math import gcd

from .directed import DirectedAlgebra
from .families import FamilySpec, transpose


# ---------------------------------------------------------------------------
# critical data


@dataclass(frozen=True)
class CriticalDatum:
    kind: str                 # origin | axis_x | axis_y | interior
    index: tuple              # () | (l,) | (m,) | (l, m)
    x_arg: Fraction | None    # argument of the x-coordinate, in turns
    y_arg: Fraction | None
    value_arg: Fraction | None  # argument of the critical value (None for value 0)
    theta: Fraction | None    # total angle of the preliminary vanishing path, turns


def interior_index_set(spec: FamilySpec):
    """The (l, m) in [0, p-2] x [0, q-2], less the corner (p-2, q-2) when
    f = e = 0: its rotation is then (1, 1), the point (0, 0) again."""
    p, q, f, e = transpose(spec.family, spec.p, spec.q)
    corner = (p - 2, q - 2) if f == e == 0 else None
    return [(l, m) for l in range(p - 1) for m in range(q - 1) if (l, m) != corner]


def _arg_numerators(spec: FamilySpec):
    """(det, (a, b, c, d)) with det = det(E^T - J) and det (E^T - J)^{-1} =
    ((a, b), (c, d)): the arguments of the interior point (l, m) are
    (a*l + b*m, c*l + d*m) over det."""
    p, q, f, e = transpose(spec.family, spec.p, spec.q)
    return (p - 1) * (q - 1) - (f - 1) * (e - 1), (q - 1, 1 - f, 1 - e, p - 1)


def interior_args(spec: FamilySpec, l, m):
    """(x_arg, y_arg) of the interior critical point (l, m), in turns:
    (X, Y) = (E^T - J)^{-1} (l, m), not reduced mod 1."""
    det, (a, b, c, d) = _arg_numerators(spec)
    return Fraction(a * l + b * m, det), Fraction(c * l + d * m, det)


def theta_turns(spec: FamilySpec, l, m):
    """Angle of the preliminary vanishing path of (l, m): X + Y, the
    rotation of xy, not reduced mod 1."""
    det, (a, b, c, d) = _arg_numerators(spec)
    return Fraction((a + c) * l + (b + d) * m, det)


def enumerate_critical_data(spec: FamilySpec):
    """All critical points of the resonant perturbation, with exact angles.

    The real-positive interior point has negative real critical value; the
    others are rotated copies, so every interior critical value lies on the
    ray opposite to the product of the coordinate rotations.  Axis points
    exist iff f = 1 (x^(p-1) = eps on the x-axis) or e = 1 (y^(q-1) = eps);
    their arguments are interior_args at m = 0, resp. l = 0."""
    p, q, f, e = transpose(spec.family, spec.p, spec.q)
    data = []
    half = Fraction(1, 2)
    if f:
        data += [CriticalDatum("axis_x", (l,), interior_args(spec, l, 0)[0], None, None, None)
                 for l in range(p - 1)]
    if e:
        data += [CriticalDatum("axis_y", (m,), None, interior_args(spec, 0, m)[1], None, None)
                 for m in range(q - 1)]
    data.append(CriticalDatum("origin", (), None, None, None, None))
    for (l, m) in interior_index_set(spec):
        xa, ya = interior_args(spec, l, m)
        th = xa + ya
        data.append(CriticalDatum("interior", (l, m), xa % 1, ya % 1, (half + th) % 1, th))
    if len(data) != spec.milnor():
        raise ArithmeticError(
            f"{spec.label()} has {len(data)} critical points, Milnor number {spec.milnor()}")
    return data


# ---------------------------------------------------------------------------
# the path schedule


@dataclass
class PathSchedule:
    """Exact data of the vanishing-path system.

    The geometric construction also involves small perturbation parameters
    (the radial offsets delta', the slope lambda, the endpoint rotation
    theta', and the Morsification scale eps itself); the category does not
    depend on them, so they stay symbolic and never receive values here.
    """

    spec: FamilySpec
    det: int                         # the denominator of every angle below
    args: dict                       # (l, m) -> numerators of interior_args
    theta: dict                      # (l, m) -> numerator of theta_turns
    order: list                      # object labels, category order
    fingers: list                    # ((l,m), (L,M)) pairs
    waist_first: bool


def path_schedule(spec: FamilySpec):
    """Vanishing-path schedule: exact angles, ordering, finger pairs.

    Ordering is by decreasing path angle (ties broken lexicographically;
    tied cycles are disjoint so the ambiguity is orthogonal).  The waist
    curves come after all interior cycles, except that the single waist
    comes first when f = e = 0 (the bp family), where the starting
    direction of the clockwise ordering is flipped.

    A finger is a pair (l, m) -> (L, M) whose angles differ by more than a
    full turn.  Every finger must satisfy l >= L + f and m >= M + e, and
    when e = 1 (loop, chain) its disjointness certificate must hold;
    either failure raises ArithmeticError.  For f = e = 0 the rule holds
    for all p, q: with n = pq - p - q the angle is (ql + pm)/n, so a finger
    needs q(l-L) + p(m-M) > n.  If l < L this forces p(m-M) > pq - p,
    i.e. m - M > q - 1, which is impossible as m, M lie in [0, q-2]; the
    case m < M is the same with p and q swapped.

    The certificate: after translating by the symmetry taking (L, M) to
    (0, 0), the x-argument profile of the transported cycle at t = 2*pi is
    monotone in s between 1 - Y and X, (X, Y) = interior_args(l - L, m - M);
    both must lie strictly inside (0, 1) turns, so the profile never
    crosses the real-positive locus occupied by the stationary cycle."""
    p, q, f, e = transpose(spec.family, spec.p, spec.q)
    det, (a, b, c, d) = _arg_numerators(spec)
    args = {(l, m): (a * l + b * m, c * l + d * m) for (l, m) in interior_index_set(spec)}
    theta = {lm: x + y for lm, (x, y) in args.items()}
    interior_sorted = sorted(theta, key=lambda lm: (-theta[lm], lm))
    waists = [("Vyf", l) for l in range(p - 1)] if f else []
    if e:
        waists += [("Vxf", m) for m in range(q - 1)]
    waists.append(("Vxy",))
    order = [("V0", l, m) for (l, m) in interior_sorted]
    waist_first = f == e == 0
    order = waists + order if waist_first else order + waists
    # the angles fall along interior_sorted, so the fingers of each cycle
    # are a suffix of it: those with -theta > det - theta[lm]
    rising = [-theta[lm] for lm in interior_sorted]
    fingers = []
    for lm in interior_sorted:
        (l, m), (x, y) = lm, args[lm]
        for LM in interior_sorted[bisect_right(rising, det - theta[lm]):]:
            fingers.append((lm, LM))
            L, M = LM
            if not (l >= L + f and m >= M + e):
                raise ArithmeticError(
                    f"finger pair {lm}->{LM} violates l >= L + {f}, m >= M + {e}")
            if e:
                X, Y = args[LM]
                if not (0 < det - (y - Y) < det and 0 < x - X < det):
                    raise ArithmeticError(
                        f"disjointness certificate failed for {(lm, LM)}: endpoints "
                        f"{Fraction(det - (y - Y), det)}, {Fraction(x - X, det)} turns")
    return PathSchedule(spec, det, args, theta, order, fingers, waist_first)


def phi_profile(spec: FamilySpec, l, m, s, t):
    """Argument (radians) of the x-coordinate during local parallel
    transport from angle theta_{l,m} down to t, at hyperbola parameter s."""
    xa, ya = interior_args(spec, l, m)
    th = 2 * math.pi * float(xa + ya)
    A = 2 * math.pi * float(xa)
    e2, em2 = math.exp(2 * s), math.exp(-2 * s)
    return A + em2 * (t - th) / (e2 + em2)


# ---------------------------------------------------------------------------
# intersections, gradings, signs


def _waist_count(v, w):
    """Intersections of the interior cycle v with the waist curve w: one
    with Vxy, and one with Vyf(l), resp. Vxf(m), of its own l, resp. m."""
    if w[0] == "Vxy":
        return 1
    if w[0] == "Vyf":
        return int(w[1] == v[1])
    if w[0] == "Vxf":
        return int(w[1] == v[2])
    raise ArithmeticError(f"no intersection rule for {v}, {w}")


def intersection_table(schedule: PathSchedule):
    """Geometric intersection counts between distinct vanishing cycles,
    keyed by ordered pairs (earlier, later) in the schedule order.

    Counts come from the grid rule: two interior cycles meet once unless
    their index differences dl, dm have opposite signs.  For every pair of
    interior cycles with both dl and dm nonzero the rule is checked against
    the transport profile: the difference of the two x-argument profiles
    is monotone between the endpoints -dy and dx, (dx, dy) = interior_args
    of (dl, dm) (interior_args is linear), which must lie strictly inside
    (-1, 1) turns, and the cycles cross once iff the endpoints straddle
    zero, i.e. iff dx and dy have one sign; a range failure or a
    disagreement raises ArithmeticError.  The other pairs rest on the grid
    rule alone: two interior cycles sharing an index, and every pair with
    a waist curve (`_waist_count`; waist curves are pairwise disjoint).
    Any other label met by an interior cycle raises ArithmeticError."""
    det, args, order = schedule.det, schedule.args, schedule.order
    det2 = det * det
    cycles = [(lab[1], lab[2], *args[lab[1:]]) if lab[0] == "V0" and lab[1:] in args else None
              for lab in order]
    table = {}
    for i, (a, ca) in enumerate(zip(order, cycles)):
        later = zip(order[i + 1:], cycles[i + 1:])
        if ca is None:
            for b, cb in later:
                if cb is not None and _waist_count(b, a):
                    table[(a, b)] = 1
            continue
        l, m, x, y = ca
        for b, cb in later:
            if cb is None:
                if _waist_count(a, b):
                    table[(a, b)] = 1
                continue
            L, M, X, Y = cb
            dl, dm = l - L, m - M
            if dl and dm:
                dx, dy = x - X, y - Y
                if not (0 < dx * dx < det2 and 0 < dy * dy < det2):
                    raise ArithmeticError(f"profile endpoints {Fraction(-dy, det)}, "
                                          f"{Fraction(dx, det)} of {a}, {b} out of range")
                if (dx * dy > 0) != (dl * dm > 0):
                    raise ArithmeticError(f"grid rule and transport profile disagree on {a}, {b}")
            if dl * dm >= 0:
                table[(a, b)] = 1
    return table


def _grading_degrees(schedule: PathSchedule, table):
    """Grading lifts for every cycle and the induced generator degrees.

    The lifts are integer numerators over den = 2(nlevels + 1), nlevels the
    number of distinct path angles.  Interior cycles get lifts in (0, 1/2)
    strictly increasing with the path angle (a steeper cycle on the neck
    has the larger lift); waist curves sit at -1/2, except the bp waist
    which moves first in the order and takes +1/2.  The generator a -> b
    has degree floor(lift(b) - lift(a)) + 1, and every generator must land
    in degree 0; the degrees are checked, not kept.  Returns (den, lifts)."""
    theta = schedule.theta
    rank = {th: k for k, th in enumerate(sorted(set(theta.values())))}
    den = 2 * (len(rank) + 1)
    waist = den // 2 if schedule.waist_first else -den // 2
    lifts = {lab: rank[theta[lab[1:]]] + 1 if lab[0] == "V0" else waist
             for lab in schedule.order}
    for (a, b) in table:
        deg = (lifts[b] - lifts[a]) // den + 1
        if deg:
            raise ArithmeticError(f"generator {a} -> {b} has degree {deg}, not 0")
    return den, lifts


def sweep_square_signs(A, B, right, up):
    """Row-by-row sweep making every little square commute, then a check.

    right[(i, j)] signs the arrow (i, j) -> (i+1, j) (1 <= i <= A-1,
    1 <= j <= B); up[(i, j)] signs (i, j) -> (i, j+1).  The two composites
    of the square at (i, j) are the products of its edge signs.  When they
    disagree the sign of the square's top edge is flipped, which no earlier
    square sees; one pass bottom-to-top therefore leaves every square
    commuting.  Raises ArithmeticError if, after the pass, some square does
    not (a zero edge, say)."""
    right = dict(right)
    up = dict(up)

    def square_values(i, j):
        return right[(i, j)] * up[(i + 1, j)], up[(i, j)] * right[(i, j + 1)]

    squares = [(i, j) for j in range(1, B) for i in range(1, A)]
    for (i, j) in squares:
        v1, v2 = square_values(i, j)
        if v1 != v2:
            right[(i, j + 1)] = -right[(i, j + 1)]
    for (i, j) in squares:
        v1, v2 = square_values(i, j)
        if v1 != v2:
            raise ArithmeticError(f"square ({i}, {j}) does not commute after the sign sweep")
    return right, up


def random_grid_signs(A, B, seed):
    rng = random.Random(seed)
    right = {(i, j): rng.choice((1, -1)) for i in range(1, A) for j in range(1, B + 1)}
    up = {(i, j): rng.choice((1, -1)) for i in range(1, A + 1) for j in range(1, B)}
    return right, up


# ---------------------------------------------------------------------------
# the directed algebra


def assemble_directed_algebra(spec: FamilySpec):
    """Directed algebra of the vanishing cycles.

    The nonzero homs are the pairs of the intersection table, whose counts
    are 0 or 1, and `_grading_degrees` raises ArithmeticError unless the
    lift computation puts every generator in degree 0.  The composition
    law is not computed: it is taken from the paper's thimble basis, in
    which every composite of generators into a nonzero hom is +1 times the
    generator and every other one is 0.  The pairs fix that law.  Its
    associativity is not checked here: once `compare.mirror_check` finds
    the pairs equal to the B side's, the law is the B side's composition,
    which is associative.  (`sweep_square_signs` rectifies the signs of a
    grid, but runs only on random grids, never on this algebra.)"""
    schedule = path_schedule(spec)
    table = intersection_table(schedule)
    _grading_degrees(schedule, table)
    return DirectedAlgebra(schedule.order, table)


def surface_invariants(spec: FamilySpec):
    """Genus and puncture count of the smoothed fibre, with the rank check
    mu = 2g + punctures - 1."""
    p, q = spec.p, spec.q
    if spec.family == "loop":
        punctures = gcd(p - 1, q - 1) + 2
        twice_g = p * q - gcd(p - 1, q - 1) - 1
    elif spec.family == "chain":
        punctures = gcd(p - 1, q) + 1
        twice_g = p * q - p + 1 - gcd(p - 1, q)
    else:
        punctures = gcd(p, q)
        twice_g = (p - 1) * (q - 1) - gcd(p, q) + 1
    if twice_g % 2:
        raise ArithmeticError(f"genus is not an integer for {spec}")
    g = twice_g // 2
    if spec.milnor() != 2 * g + punctures - 1:
        raise ArithmeticError(f"rank identity fails for {spec}")
    return {"genus": g, "punctures": punctures, "milnor": spec.milnor()}


# ---------------------------------------------------------------------------
# numeric Morsification oracle


def numeric_morsification_check(spec: FamilySpec, eps=0.1, seed=0, tol=1e-10):
    """Newton enumeration of the critical points of w~ - eps*x~*y~.

    Independent of the symbolic enumeration: seeds come from a coarse grid
    plus random jitter, Newton iterates on the gradient, and the converged
    points are deduplicated and compared against the predicted count,
    Morse-ness, and critical-value arguments."""
    import numpy as np

    from ._kernels import newton_enumerate

    rng = random.Random(seed)
    p, q = spec.p, spec.q
    mags = [0.05 * (1.6 ** k) for k in range(9)]
    angles = [k / 12 for k in range(12)]
    seeds = []
    for rx in mags:
        for ax in angles:
            ry = rng.choice(mags)
            ay = rng.random()
            seeds.append((
                rx * complex(math.cos(2 * math.pi * ax), math.sin(2 * math.pi * ax)),
                ry * complex(math.cos(2 * math.pi * ay), math.sin(2 * math.pi * ay)),
            ))
    zx = np.array([s[0] for s in seeds], dtype=np.complex128)
    zy = np.array([s[1] for s in seeds], dtype=np.complex128)
    X, Y, converged = newton_enumerate(spec.family, p, q, eps, zx, zy, iters=80, tol=tol)
    n_conv = int(converged.sum())
    frac = n_conv / len(seeds)

    pts = []
    for ok, x, y in zip(converged, X, Y):
        if not ok:
            continue
        for (px, py) in pts:
            if abs(px - x) < 1e-6 and abs(py - y) < 1e-6:
                break
        else:
            pts.append((complex(x), complex(y)))

    from ._kernels import gradient_and_hessian

    hess_ok = True
    min_det = float("inf")
    value_args = []
    n_interior = 0
    for (x, y) in pts:
        W, _, _, hxx, hxy, hyy = gradient_and_hessian(spec.family, p, q, eps, x, y)
        det = hxx * hyy - hxy * hxy
        min_det = min(min_det, abs(det))
        if abs(det) <= 1e-8:
            hess_ok = False
        # interior points have both coordinates bounded away from zero;
        # axis and origin points have extremely small critical values whose
        # arguments are meaningless numerically
        if min(abs(x), abs(y)) > 1e-5:
            n_interior += 1
            value_args.append(math.atan2(W.imag, W.real))

    predicted = [
        2 * math.pi * float(d.value_arg)
        for d in enumerate_critical_data(spec)
        if d.kind == "interior"
    ]
    # greedy circular matching: multiplicities matter (resonant values repeat)
    args_ok = len(value_args) == len(predicted)
    remaining = list(predicted)
    for a in value_args:
        if not remaining:
            args_ok = False
            break
        dists = [min(abs(a - b) % (2 * math.pi), 2 * math.pi - abs(a - b) % (2 * math.pi)) for b in remaining]
        k = min(range(len(remaining)), key=dists.__getitem__)
        if dists[k] >= 1e-8:
            args_ok = False
            break
        remaining.pop(k)

    report = {
        "spec": spec.label(),
        "eps": eps,
        "count": len(pts),
        "expected_count": spec.milnor(),
        "interior_count": n_interior,
        "count_ok": len(pts) == spec.milnor()
        and n_interior == len(interior_index_set(spec)),
        "min_abs_hessian_det": min_det if pts else None,
        "morse_ok": hess_ok,
        "value_args_ok": args_ok,
        "converged_fraction": frac,
        "inconclusive": frac < 0.99 and len(pts) != spec.milnor(),
    }
    report["ok"] = report["count_ok"] and report["morse_ok"] and report["value_args_ok"]
    return report
