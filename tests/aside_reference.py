"""The A side in `Fraction`s: the path schedule, the intersection table with
its transport-profile cross-check, and the grading lifts that `mfvc.aside`
computes on integer numerators over one denominator per spec, kept as the
reference they are compared with (used by the aside, compare and cli
suites and by a CI step).

Every angle here is a `Fraction` in full turns, computed from its own copy
of the interior arguments; only the index set and the family offsets are
read from `mfvc`, through the module, so a test that patches
`aside.interior_index_set` reaches both sides."""

import math
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction

from mfvc import aside
from mfvc.families import FamilySpec, transpose


def interior_args(spec: FamilySpec, l, m):
    """(X, Y) = (E^T - J)^{-1} (l, m), in turns."""
    p, q, f, e = transpose(spec.family, spec.p, spec.q)
    det = (p - 1) * (q - 1) - (f - 1) * (e - 1)
    return (Fraction((q - 1) * l + (1 - f) * m, det),
            Fraction((1 - e) * l + (p - 1) * m, det))


def theta_turns(spec: FamilySpec, l, m):
    x_arg, y_arg = interior_args(spec, l, m)
    return x_arg + y_arg


@dataclass
class Schedule:
    spec: FamilySpec
    theta: dict                      # (l, m) -> Fraction, turns
    order: list
    fingers: list
    waist_first: bool


def disjointness_certificate(spec: FamilySpec, lm, LM):
    """The finger certificate: the endpoints 1 - Y and X of the monotone
    x-argument profile, (X, Y) = interior_args(l - L, m - M), must lie
    strictly inside (0, 1) turns.  Raises ValueError when f = e = 0."""
    _, _, f, e = transpose(spec.family, spec.p, spec.q)
    if f == e == 0:
        raise ValueError("certificate applies to loop and chain local models")
    xa, ya = interior_args(spec, lm[0] - LM[0], lm[1] - LM[1])
    ends = (1 - ya, xa)
    return {
        "pair": (tuple(lm), tuple(LM)),
        "endpoints_turns": ends,
        # the profile coefficient (2*pi - theta) is negative
        "increasing_in_s": xa + ya > 1,
        "ok": all(0 < end < 1 for end in ends),
    }


def path_schedule(spec: FamilySpec):
    """The schedule of `aside.path_schedule`, its angles in Fractions; raises
    ArithmeticError on a finger off the rule l >= L + f, m >= M + e or
    with a failed certificate."""
    p, q, f, e = transpose(spec.family, spec.p, spec.q)
    theta = {lm: theta_turns(spec, *lm) for lm in aside.interior_index_set(spec)}
    interior_sorted = sorted(theta, key=lambda lm: (-theta[lm], lm))
    waists = [("Vyf", l) for l in range(p - 1)] if f else []
    if e:
        waists += [("Vxf", m) for m in range(q - 1)]
    waists.append(("Vxy",))
    order = [("V0", l, m) for (l, m) in interior_sorted]
    waist_first = f == e == 0
    order = waists + order if waist_first else order + waists
    rising = [-theta[lm] for lm in interior_sorted]
    fingers = []
    for lm in interior_sorted:
        for LM in interior_sorted[bisect_right(rising, 1 - theta[lm]):]:
            fingers.append((lm, LM))
            if not (lm[0] >= LM[0] + f and lm[1] >= LM[1] + e):
                raise ArithmeticError(
                    f"finger pair {lm}->{LM} violates l >= L + {f}, m >= M + {e}")
            if e and not disjointness_certificate(spec, lm, LM)["ok"]:
                raise ArithmeticError(f"disjointness certificate failed for {(lm, LM)}")
    return Schedule(spec, theta, order, fingers, waist_first)


def neck_crossings_from_profile(spec: FamilySpec, lm, LM):
    """Intersection count of two interior cycles with both index
    differences nonzero, from the endpoints (-dya, dxa) of the monotone
    difference of their x-argument profiles: once iff they straddle zero."""
    dl, dm = lm[0] - LM[0], lm[1] - LM[1]
    if dl == 0 or dm == 0:
        raise ValueError("profile argument applies to pairs with both indices distinct")
    dxa, dya = interior_args(spec, dl, dm)
    if not (0 < abs(dxa) < 1 and 0 < abs(dya) < 1):
        raise ArithmeticError(f"profile endpoints {-dya}, {dxa} of {lm}, {LM} out of range")
    return 1 if (dxa > 0) == (dya > 0) else 0


def intersection_table(schedule: Schedule):
    """The table of `aside.intersection_table`: the grid rule, checked
    against `neck_crossings_from_profile` on every pair of interior cycles
    with both index differences nonzero, and the waist rules."""
    order = schedule.order
    table = {}

    def count(a, b):
        ka, kb = a[0], b[0]
        if ka == "V0" and kb == "V0":
            (l, m), (L, M) = a[1:], b[1:]
            c = 1 if (l >= L and m >= M) or (l <= L and m <= M) else 0
            if l != L and m != M and c != neck_crossings_from_profile(schedule.spec, a[1:], b[1:]):
                raise ArithmeticError(f"grid rule and transport profile disagree on {a}, {b}")
            return c
        if ka != "V0" and kb != "V0":
            return 0
        v, w = (a, b) if ka == "V0" else (b, a)
        if w[0] == "Vxy":
            return 1
        if w[0] == "Vyf":
            return 1 if w[1] == v[1] else 0
        if w[0] == "Vxf":
            return 1 if w[1] == v[2] else 0
        raise ArithmeticError(f"no intersection rule for {v}, {w}")

    for i, a in enumerate(order):
        for b in order[i + 1:]:
            c = count(a, b)
            if c:
                table[(a, b)] = c
    return table


def grading_degrees(schedule: Schedule, table):
    """The lifts of `aside._grading_degrees`, as Fractions, and the generator
    degrees that it checks."""
    thetas = sorted(set(schedule.theta.values()))
    rank = {th: k for k, th in enumerate(thetas)}
    lifts = {}
    for lab in schedule.order:
        if lab[0] == "V0":
            lifts[lab] = Fraction(rank[schedule.theta[lab[1:]]] + 1, 2 * (len(thetas) + 1))
        else:
            lifts[lab] = Fraction(1, 2) if schedule.waist_first else Fraction(-1, 2)
    degrees = {}
    for (a, b) in table:
        degrees[(a, b)] = deg = math.floor(lifts[b] - lifts[a]) + 1
        if deg != 0:
            raise ArithmeticError(f"generator {a} -> {b} has degree {deg}, not 0")
    return lifts, degrees


def compare_with_reference(spec: FamilySpec):
    """Build spec's A side in integers (`mfvc.aside`) and here, and compare
    the angles (`interior_args`, `theta_turns` and the schedule's), the
    order, the fingers, the certificate verdicts (the integer side raises
    on a failed one, so every verdict here must be ok), the intersection
    table with its order, the lifts and the degrees.  Returns (counts,
    differences): the numbers of cycles, fingers, intersections and
    generator degrees compared, and a list of what differs."""
    got, want = aside.path_schedule(spec), path_schedule(spec)
    differences = []
    if any((aside.interior_args(spec, *lm), aside.theta_turns(spec, *lm))
           != (interior_args(spec, *lm), th) for lm, th in want.theta.items()):
        differences.append("interior_args or theta_turns")
    if {lm: Fraction(th, got.det) for lm, th in got.theta.items()} != want.theta:
        differences.append("schedule angles")
    if got.order != want.order or got.waist_first != want.waist_first:
        differences.append("order")
    if got.fingers != want.fingers:
        differences.append("fingers")
    if spec.family != "bp" and not all(disjointness_certificate(spec, *pair)["ok"]
                                       for pair in want.fingers):
        differences.append("certificate verdicts")
    got_table, want_table = aside.intersection_table(got), intersection_table(want)
    if list(got_table.items()) != list(want_table.items()):
        differences.append("intersection table")
    den, lifts = aside._grading_degrees(got, got_table)
    # the degrees by the formula of `_grading_degrees`, which checks them
    # but does not keep them
    degrees = {(a, b): (lifts[b] - lifts[a]) // den + 1 for (a, b) in got_table}
    want_lifts, want_degrees = grading_degrees(want, want_table)
    if {lab: Fraction(n, den) for lab, n in lifts.items()} != want_lifts:
        differences.append("lifts")
    if list(degrees.items()) != list(want_degrees.items()):
        differences.append("degrees")
    counts = {"cycles": len(want.theta), "fingers": len(want.fingers),
              "intersections": len(want_table), "degrees": len(want_degrees)}
    return counts, differences
