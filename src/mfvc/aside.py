"""The vanishing-cycle side: critical data of the resonant perturbation
w~ - eps*x~*y~, the vanishing-path schedule, intersection combinatorics,
grading lifts, signs, and the resulting directed algebra.

All angles are exact Fractions measured in full turns (1 = 2*pi), so the
strict inequalities behind the path combinatorics never touch floats; the
numerical checks live in `transport` and in the Newton enumeration here.
"""

import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd

from .directed import DirectedAlgebra
from .families import FamilySpec


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
    p, q = spec.p, spec.q
    if spec.family in ("loop", "chain"):
        return [(l, m) for l in range(p - 1) for m in range(q - 1)]
    return [
        (l, m) for l in range(p - 1) for m in range(q - 1)
        if (l, m) != (p - 2, q - 2)
    ]


def theta_turns(spec: FamilySpec, l, m):
    p, q = spec.p, spec.q
    if spec.family == "loop":
        return Fraction(l, p - 1) + Fraction(m, q - 1)
    if spec.family == "chain":
        return Fraction(l, p - 1) + Fraction(p * m, (p - 1) * (q - 1))
    return Fraction(q * l + p * m, p * q - p - q)


def interior_args(spec: FamilySpec, l, m):
    """(x_arg, y_arg) of the interior critical point, in turns."""
    p, q = spec.p, spec.q
    if spec.family == "loop":
        return Fraction(l, p - 1), Fraction(m, q - 1)
    if spec.family == "chain":
        return Fraction(l, p - 1) + Fraction(m, (p - 1) * (q - 1)), Fraction(m, q - 1)
    n = p * q - p - q
    return Fraction((q - 1) * l + m, n), Fraction(l + (p - 1) * m, n)


def enumerate_critical_data(spec: FamilySpec):
    """All critical points of the resonant perturbation, with exact angles.

    The real-positive interior point has negative real critical value; the
    others are rotated copies, so every interior critical value lies on the
    ray opposite to the product of the coordinate rotations."""
    p, q = spec.p, spec.q
    data = []
    half = Fraction(1, 2)
    if spec.family == "loop":
        for l in range(p - 1):
            data.append(CriticalDatum("axis_x", (l,), Fraction(l, p - 1), None, None, None))
        for m in range(q - 1):
            data.append(CriticalDatum("axis_y", (m,), None, Fraction(m, q - 1), None, None))
        data.append(CriticalDatum("origin", (), None, None, None, None))
    elif spec.family == "chain":
        for m in range(q - 1):
            data.append(CriticalDatum("axis_y", (m,), None, Fraction(m, q - 1), None, None))
        data.append(CriticalDatum("origin", (), None, None, None, None))
    else:
        data.append(CriticalDatum("origin", (), None, None, None, None))
    for (l, m) in interior_index_set(spec):
        th = theta_turns(spec, l, m)
        xa, ya = interior_args(spec, l, m)
        data.append(CriticalDatum("interior", (l, m), xa % 1, ya % 1, (half + th) % 1, th))
    assert len(data) == spec.milnor()
    return data


def shared_value_counts(spec: FamilySpec):
    """How many interior critical points share each critical value."""
    values = {}
    for (l, m) in interior_index_set(spec):
        xa, ya = interior_args(spec, l, m)
        key = (xa + ya) % 1
        values[key] = values.get(key, 0) + 1
    return values


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
    theta: dict                      # (l, m) -> Fraction, turns
    order: list                      # object labels, category order
    fingers: list = field(default_factory=list)  # ((l,m), (L,M)) pairs
    waist_first: bool = False


def object_labels(spec: FamilySpec):
    interior = [("V0", l, m) for (l, m) in interior_index_set(spec)]
    if spec.family == "loop":
        waists = [("Vyf", l) for l in range(spec.p - 1)]
        waists += [("Vxf", m) for m in range(spec.q - 1)]
        waists.append(("Vxy",))
    elif spec.family == "chain":
        waists = [("Vxf", m) for m in range(spec.q - 1)]
        waists.append(("Vxy",))
    else:
        waists = [("Vxy",)]
    return interior, waists


def path_schedule(spec: FamilySpec):
    """Vanishing-path schedule: exact angles, ordering, finger pairs.

    Ordering is by decreasing path angle (ties broken lexicographically;
    tied cycles are disjoint so the ambiguity is orthogonal).  The waist
    curves come after all interior cycles, except that the single waist
    comes first in the bp family, where the starting direction of the
    clockwise ordering is flipped."""
    theta = {lm: theta_turns(spec, *lm) for lm in interior_index_set(spec)}
    interior_sorted = sorted(theta, key=lambda lm: (-theta[lm], lm))
    interior, waists = object_labels(spec)
    order = [("V0", l, m) for (l, m) in interior_sorted]
    waist_first = spec.family == "bp"
    if waist_first:
        order = waists + order
    else:
        order = order + waists
    fingers = []
    for lm in interior_sorted:
        for LM in interior_sorted:
            if theta[lm] > theta[LM] + 1:
                fingers.append((lm, LM))
                l, m = lm
                L, M = LM
                if spec.family == "loop" and not (l > L and m > M):
                    raise ArithmeticError(f"finger pair {lm}->{LM} violates l>L, m>M")
                if spec.family == "chain" and not (l >= L and m > M):
                    raise ArithmeticError(f"finger pair {lm}->{LM} violates l>=L, m>M")
    schedule = PathSchedule(spec, theta, order, fingers, waist_first)
    for pair in fingers:
        if spec.family in ("loop", "chain"):
            cert = disjointness_certificate(spec, pair[0], pair[1])
            if not cert["ok"]:
                raise ArithmeticError(f"disjointness certificate failed for {pair}: {cert}")
    return schedule


def phi_profile(spec: FamilySpec, l, m, s, t):
    """Argument (radians) of the x-coordinate during local parallel
    transport from angle theta_{l,m} down to t, at hyperbola parameter s."""
    th = 2 * math.pi * float(theta_turns(spec, l, m))
    xa, _ = interior_args(spec, l, m)
    A = 2 * math.pi * float(xa)
    e2, em2 = math.exp(2 * s), math.exp(-2 * s)
    return A + em2 * (t - th) / (e2 + em2)


def phi_profile_end(spec: FamilySpec, l, m, s):
    """phi at the end of the transport (t = 0)."""
    return phi_profile(spec, l, m, s, 0.0)


def disjointness_certificate(spec: FamilySpec, lm, LM):
    """Exact certificate that the finger detour cannot move the cycle.

    After translating by the symmetry taking (L, M) to (0, 0), the
    x-argument profile of the transported cycle at angle one full turn is
    monotone between two endpoints; the certificate checks both endpoints
    lie strictly inside (0, 1) turns, so the profile never crosses the
    real-positive locus occupied by the stationary cycle."""
    p, q = spec.p, spec.q
    l, m = lm[0] - LM[0], lm[1] - LM[1]
    th = theta_turns(spec, l, m)
    if spec.family == "loop":
        # end of transport t = 2*pi: endpoints of phi(s, 2*pi) in turns
        end_minus = 1 - Fraction(m, q - 1)   # s -> -infinity
        end_plus = Fraction(l, p - 1)        # s -> +infinity
    elif spec.family == "chain":
        # y-argument endpoints of the transported cycle
        end_minus = Fraction(m, q - 1)
        end_plus = 1 - Fraction(l, p - 1) - Fraction(m, (p - 1) * (q - 1))
    else:
        raise ValueError("certificate applies to loop and chain local models")
    increasing = th > 1  # the profile coefficient (2*pi - theta) is negative
    ok = 0 < end_minus < 1 and 0 < end_plus < 1
    return {
        "pair": (tuple(lm), tuple(LM)),
        "endpoints_turns": (end_minus, end_plus),
        "monotone": True,
        "increasing_in_s": increasing,
        "ok": ok,
    }


# ---------------------------------------------------------------------------
# intersections, gradings, signs


def neck_crossings_from_profile(spec: FamilySpec, lm, LM):
    """Intersection count of two interior cycles on the origin neck,
    re-derived from the transport profile instead of the grid rule.

    The difference of the two x-argument profiles is monotone between
    exact rational endpoints (-dya, dxa) lying strictly inside (-1, 1)
    turns, so the cycles cross once iff the endpoints straddle zero.
    Only applies when both index differences are nonzero; the remaining
    pairs are resolved by the perturbation step, not by the profile."""
    dl, dm = lm[0] - LM[0], lm[1] - LM[1]
    if dl == 0 or dm == 0:
        raise ValueError("profile argument applies to pairs with both indices distinct")
    xa1, ya1 = interior_args(spec, *lm)
    xa2, ya2 = interior_args(spec, *LM)
    dxa = xa1 - xa2
    dya = ya1 - ya2
    start, end = -dya, dxa
    assert -1 < start < 1 and -1 < end < 1 and start != 0 and end != 0
    return 1 if (start < 0 < end or end < 0 < start) else 0


def intersection_table(spec: FamilySpec):
    """Geometric intersection counts between distinct vanishing cycles,
    keyed by ordered pairs (earlier, later) in the schedule order."""
    return _intersections(path_schedule(spec))


def _intersections(schedule: PathSchedule):
    order = schedule.order
    pos = {lab: k for k, lab in enumerate(order)}
    table = {}

    def count(a, b):
        ka, kb = a[0], b[0]
        if ka == "V0" and kb == "V0":
            (l, m), (L, M) = a[1:], b[1:]
            if (l, m) == (L, M):
                return 0
            if (l >= L and m >= M) or (l <= L and m <= M):
                return 1
            return 0
        if ka != "V0" and kb != "V0":
            return 0  # waist curves are pairwise disjoint
        v, w = (a, b) if ka == "V0" else (b, a)
        l, m = v[1], v[2]
        if w[0] == "Vxy":
            return 1
        if w[0] == "Vyf":
            return 1 if w[1] == l else 0
        if w[0] == "Vxf":
            return 1 if w[1] == m else 0
        raise ValueError((a, b))

    for i, a in enumerate(order):
        for b in order[i + 1:]:
            c = count(a, b)
            if c:
                table[(a, b)] = c
    # directedness sanity: every intersection pairs an earlier object with
    # a later one by construction of the keying above
    assert all(pos[a] < pos[b] for (a, b) in table)
    return table


def grading_degrees(spec: FamilySpec):
    """Grading lifts for every cycle and the induced generator degrees.

    Interior cycles get lifts in (0, 1/2) strictly increasing with the path
    angle (a steeper cycle on the neck has the larger lift); waist curves
    sit at -1/2, except the bp waist which moves first in the order and
    takes +1/2.  Every generator must land in degree 0."""
    schedule = path_schedule(spec)
    return _grading_degrees(schedule, _intersections(schedule))


def _grading_degrees(schedule: PathSchedule, table):
    thetas = sorted({th for th in schedule.theta.values()})
    rank = {th: k for k, th in enumerate(thetas)}
    nlevels = len(thetas)
    lifts = {}
    for lab in schedule.order:
        if lab[0] == "V0":
            th = schedule.theta[(lab[1], lab[2])]
            lifts[lab] = Fraction(rank[th] + 1, 2 * (nlevels + 1))
        else:
            lifts[lab] = Fraction(1, 2) if schedule.waist_first else Fraction(-1, 2)
    degrees = {}
    for (a, b) in table:
        deg = math.floor(lifts[b] - lifts[a]) + 1
        degrees[(a, b)] = deg
        if deg != 0:
            raise ArithmeticError(f"generator {a} -> {b} has degree {deg}, not 0")
    return lifts, degrees


def sweep_square_signs(A, B, right, up, square_values=None):
    """Row-by-row sweep making every little square commute, then a check.

    right[(i, j)] signs the arrow (i, j) -> (i+1, j) (1 <= i <= A-1,
    1 <= j <= B); up[(i, j)] signs (i, j) -> (i, j+1).  square_values may
    supply the two raw composite values of the square at (i, j); by default
    they are the plain edge-sign products.  When a square's two values
    disagree the sign of its top edge is flipped, which no earlier square
    sees; one pass bottom-to-top therefore leaves every square commuting.
    Raises ArithmeticError if, after the pass, some square does not."""
    right = dict(right)
    up = dict(up)
    if square_values is None:
        def square_values(i, j, rs, us):
            return rs[(i, j)] * us[(i + 1, j)], us[(i, j)] * rs[(i, j + 1)]
    squares = [(i, j) for j in range(1, B) for i in range(1, A)]
    for (i, j) in squares:
        v1, v2 = square_values(i, j, right, up)
        if v1 != v2:
            right[(i, j + 1)] = -right[(i, j + 1)]
    for (i, j) in squares:
        v1, v2 = square_values(i, j, right, up)
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

    Hom dimensions come from the intersection table, all generators in
    degree 0 by the lift computation.  Compositions: each composable triple
    bounds exactly one triangular region, so composites of generators are
    signed generators; `sweep_square_signs` shows that the signs of the
    grid can always be rectified, so every composite into a nonzero hom is
    set to +1 and every other one to 0."""
    schedule = path_schedule(spec)
    table = _intersections(schedule)
    _, degrees = _grading_degrees(schedule, table)
    homs = {pair: {degrees[pair]: c} for pair, c in table.items()}
    algebra = DirectedAlgebra(schedule.order, homs)
    comps = {}
    for (a, b, c) in algebra.composable_triples():
        if algebra.hom_dim(a, c):
            comps[(a, b, c)] = Fraction(1)
        else:
            comps[(a, b, c)] = Fraction(0)
    algebra.compositions = comps
    return algebra


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
