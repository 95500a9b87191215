import cmath
import math
from fractions import Fraction
from math import gcd

import pytest

from mfvc import aside
from mfvc._kernels import gradient_and_hessian
from mfvc.aside import (
    _grading_degrees,
    assemble_directed_algebra,
    enumerate_critical_data,
    interior_args,
    interior_index_set,
    intersection_table,
    numeric_morsification_check,
    path_schedule,
    phi_profile,
    random_grid_signs,
    surface_invariants,
    sweep_square_signs,
    theta_turns,
)
from mfvc.bside import HomTable
from mfvc.compare import correspondence
from mfvc.families import FamilySpec, exponents
import aside_reference
from aside_reference import compare_with_reference, disjointness_certificate, neck_crossings_from_profile
from test_bside import SWEEP, checked_pattern
from test_directed import naive_check_associativity

ALL_FAMILIES = ("loop", "chain", "bp")


def shared_value_counts(spec: FamilySpec):
    """How many interior critical points share each critical value."""
    values = {}
    for (l, m) in interior_index_set(spec):
        key = theta_turns(spec, l, m) % 1
        values[key] = values.get(key, 0) + 1
    return values


def grading_degrees(spec: FamilySpec):
    """The grading lifts of `aside._grading_degrees` on spec's path schedule
    and intersection table, as Fractions, and the generator degrees that its
    docstring's formula floor(lift(b) - lift(a)) + 1 derives from them."""
    schedule = path_schedule(spec)
    table = intersection_table(schedule)
    den, lifts = _grading_degrees(schedule, table)
    lifts = {lab: Fraction(n, den) for lab, n in lifts.items()}
    return lifts, {(a, b): math.floor(lifts[b] - lifts[a]) + 1 for (a, b) in table}


# ---------------------------------------------------------------------------
# critical data and the schedule


def test_counts_match_milnor():
    for fam in ALL_FAMILIES:
        for p in range(2, 9):
            for q in range(2, 9):
                spec = FamilySpec(fam, p, q)
                assert len(enumerate_critical_data(spec)) == spec.milnor()


def test_interior_args_rotate_exact_critical_points():
    # w~ - eps*x*y with w~ = x^p y^f + x^e y^q (the transposed exponent
    # matrix).  At an interior critical point a = x^p y^f, b = x^e y^q and
    # c = eps*x*y satisfy p*a + e*b = c = f*a + q*b, which fixes the
    # real-positive point by a linear system in (log x, log y).  Its
    # rotations by interior_args, and the axis points, must be critical,
    # and the rotations pairwise distinct
    eps = 0.1

    def turn(r, arg):
        return cmath.rect(r, 2 * math.pi * arg)

    for fam in ALL_FAMILIES:
        (_, e), (f, _) = exponents(fam, 2, 2)
        for p in range(2, 9):
            for q in range(2, 9):
                spec = FamilySpec(fam, p, q)
                idx = interior_index_set(spec)
                points = []
                if idx:
                    r1 = math.log(eps * (q - e) / (p * q - e * f))
                    r2 = math.log(eps * (p - f) / (p * q - e * f))
                    det = (p - 1) * (q - 1) - (f - 1) * (e - 1)
                    rx = math.exp(((q - 1) * r1 - (f - 1) * r2) / det)
                    ry = math.exp(((p - 1) * r2 - (e - 1) * r1) / det)
                    for (l, m) in idx:
                        xa, ya = interior_args(spec, l, m)
                        points.append((turn(rx, xa), turn(ry, ya)))
                    distinct = {tuple(round(c, 9) for z in pt for c in (z.real, z.imag))
                                for pt in points}
                    assert len(distinct) == len(idx), (fam, p, q)
                for d in enumerate_critical_data(spec):
                    if d.kind == "axis_x":
                        points.append((turn(eps ** (1 / (p - 1)), d.x_arg), 0j))
                    elif d.kind == "axis_y":
                        points.append((0j, turn(eps ** (1 / (q - 1)), d.y_arg)))
                for x, y in points:
                    _, wx, wy, _, _, _ = gradient_and_hessian(fam, p, q, eps, x, y)
                    assert abs(wx) < 1e-12 and abs(wy) < 1e-12, (fam, p, q, x, y)


def test_theta_examples():
    assert theta_turns(FamilySpec("loop", 4, 6), 1, 2) == Fraction(11, 15)
    assert theta_turns(FamilySpec("chain", 5, 3), 0, 0) == 0
    spec = FamilySpec("bp", 3, 4)
    assert interior_index_set(spec) == [(0, 0), (0, 1), (0, 2), (1, 0), (1, 1)]
    for (l, m) in interior_index_set(spec):
        assert theta_turns(spec, l, m) == Fraction(4 * l + 3 * m, 5)


def test_theta_in_range():
    for fam in ALL_FAMILIES:
        for p in range(2, 9):
            for q in range(2, 9):
                spec = FamilySpec(fam, p, q)
                for (l, m) in interior_index_set(spec):
                    assert 0 <= theta_turns(spec, l, m) < 2


def test_loop_resonance_multiplicity():
    # gcd(p-1, q-1) critical points share each interior critical value
    for p in range(2, 9):
        for q in range(2, 9):
            counts = shared_value_counts(FamilySpec("loop", p, q))
            assert set(counts.values()) == {gcd(p - 1, q - 1)}


def test_finger_example_loop46():
    sched = path_schedule(FamilySpec("loop", 4, 6))
    fingers_of_24 = sorted(LM for (lm, LM) in sched.fingers if lm == (2, 4))
    assert fingers_of_24 == [(0, 0), (0, 1), (0, 2), (1, 0)]


def test_no_finger_at_small_angle_gap():
    spec = FamilySpec("loop", 4, 6)
    sched = path_schedule(spec)
    for (lm, LM) in sched.fingers:
        assert theta_turns(spec, *lm) > theta_turns(spec, *LM) + 1


def test_bp_finger_scan():
    spec = FamilySpec("bp", 3, 4)
    sched = path_schedule(spec)
    expected = [
        (lm, LM)
        for lm in interior_index_set(spec)
        for LM in interior_index_set(spec)
        if theta_turns(spec, *lm) > theta_turns(spec, *LM) + 1
    ]
    assert sorted(sched.fingers) == sorted(expected)


@pytest.mark.parametrize("fam,p,q", SWEEP + [("loop", 16, 16)])
def test_fingers_are_the_all_pairs_filter(fam, p, q):
    # the fingers found by bisection are the pairs of cycles whose angles
    # differ by more than a full turn, in the order of the scan of every
    # pair over the cycles sorted by falling angle
    spec = FamilySpec(fam, p, q)
    theta = {lm: theta_turns(spec, *lm) for lm in interior_index_set(spec)}
    ordered = sorted(theta, key=lambda lm: (-theta[lm], lm))
    want = [(lm, LM) for lm in ordered for LM in ordered if theta[lm] > theta[LM] + 1]
    assert path_schedule(spec).fingers == want


def test_finger_implications_exhaustive():
    for fam in ALL_FAMILIES:
        for p in range(2, 9):
            for q in range(2, 9):
                sched = path_schedule(FamilySpec(fam, p, q))  # raises on violation
                for ((l, m), (L, M)) in sched.fingers:
                    if fam == "loop":
                        assert l > L and m > M
                    elif fam == "chain":
                        assert l >= L and m > M
                    else:
                        assert l >= L and m >= M


def test_disjointness_certificates_exhaustive():
    for fam in ("loop", "chain"):
        for p in range(2, 9):
            for q in range(2, 9):
                spec = FamilySpec(fam, p, q)
                sched = path_schedule(spec)
                for pair in sched.fingers:
                    cert = disjointness_certificate(spec, *pair)
                    assert cert["ok"], (fam, p, q, pair)
                    e0, e1 = cert["endpoints_turns"]
                    assert 0 < e0 < 1 and 0 < e1 < 1


@pytest.mark.parametrize("stray,failure", [
    ((0, 5), r"\(0, 5\)->\(1, 1\) violates l >= L \+ 1"),
    ((3, 2), r"disjointness certificate failed for \(\(3, 2\), \(1, 1\)\)"),
])
def test_a_stray_cycle_fails_the_finger_checks(monkeypatch, stray, failure):
    # an index outside [0, p-2] x [0, q-2] puts a cycle of loop(3,3) 2.5
    # turns up, with fingers to every other cycle: V0(0,5) -> V0(1,1) has
    # l < L + 1, and V0(3,2) -> V0(1,1) keeps the rule but its certificate
    # endpoint X is a full turn.  Both sides raise on the same pair
    index_set = aside.interior_index_set
    monkeypatch.setattr(aside, "interior_index_set", lambda spec: index_set(spec) + [stray])
    for build in (path_schedule, aside_reference.path_schedule):
        with pytest.raises(ArithmeticError, match=failure):
            build(FamilySpec("loop", 3, 3))


@pytest.mark.parametrize("fam", ALL_FAMILIES)
def test_integer_a_side_equals_the_fraction_reference(fam):
    # angles, order, fingers, certificate verdicts, the intersection table
    # in its order, lifts and degrees, against tests/aside_reference.py
    for p in range(2, 13):
        for q in range(2, 13):
            counts, differences = compare_with_reference(FamilySpec(fam, p, q))
            assert differences == [], (fam, p, q, differences)


def test_bp_order_puts_waist_first():
    sched = path_schedule(FamilySpec("bp", 3, 3))
    assert sched.order[0] == ("Vxy",)
    assert sched.waist_first
    sched = path_schedule(FamilySpec("loop", 3, 3))
    assert sched.order[-1] == ("Vxy",)
    assert not sched.waist_first


# ---------------------------------------------------------------------------
# the argument profile


def test_phi_zero_case():
    # theta_{0,0} = 0 so the transport has zero length: its initial time is
    # its end, t = 0, and phi vanishes there for every s
    spec = FamilySpec("loop", 4, 6)
    for s in (-2.0, 0.0, 1.5):
        assert phi_profile(spec, 0, 0, s, 0.0) == 0.0


def test_phi_example_loop43():
    spec = FamilySpec("loop", 4, 3)
    assert math.isclose(phi_profile(spec, 1, 1, 0.0, 0.0), -math.pi / 6, abs_tol=1e-12)


def test_phi_limits():
    spec = FamilySpec("loop", 4, 6)
    l, m = 2, 4
    assert math.isclose(phi_profile(spec, l, m, 12.0, 0.0), 2 * math.pi * 2 / 3, abs_tol=1e-9)
    assert math.isclose(phi_profile(spec, l, m, -12.0, 0.0), -2 * math.pi * 4 / 5, abs_tol=1e-9)


def test_certificate_monotone_endpoints_loop46():
    spec = FamilySpec("loop", 4, 6)
    cert = disjointness_certificate(spec, (2, 4), (0, 0))
    assert cert["ok"] and cert["increasing_in_s"]
    # the t = 2*pi profile interpolates the certified endpoints
    l, m = 2, 4
    lo = phi_profile(spec, l, m, -14.0, 2 * math.pi) / (2 * math.pi)
    hi = phi_profile(spec, l, m, 14.0, 2 * math.pi) / (2 * math.pi)
    e0, e1 = cert["endpoints_turns"]
    assert math.isclose(lo, float(e0), abs_tol=1e-9)
    assert math.isclose(hi, float(e1), abs_tol=1e-9)
    # a chain finger: the endpoints are the limits of the x-profile of the
    # index difference (1, 2)
    spec = FamilySpec("chain", 5, 4)
    assert ((3, 2), (2, 0)) in path_schedule(spec).fingers
    cert = disjointness_certificate(spec, (3, 2), (2, 0))
    assert cert["ok"] and cert["increasing_in_s"]
    assert cert["endpoints_turns"] == (Fraction(1, 3), Fraction(5, 12))
    lo = phi_profile(spec, 1, 2, -14.0, 2 * math.pi) / (2 * math.pi)
    hi = phi_profile(spec, 1, 2, 14.0, 2 * math.pi) / (2 * math.pi)
    assert math.isclose(lo, 1 / 3, abs_tol=1e-9)
    assert math.isclose(hi, 5 / 12, abs_tol=1e-9)


# ---------------------------------------------------------------------------
# intersections, degrees, signs


def test_intersection_examples_loop33():
    table = intersection_table(path_schedule(FamilySpec("loop", 3, 3)))
    def count(a, b):
        return table.get((a, b), table.get((b, a), 0))
    assert count(("V0", 1, 1), ("V0", 0, 0)) == 1
    assert count(("V0", 1, 0), ("V0", 0, 1)) == 0
    assert all(a != b for (a, b) in table)


def test_intersection_examples_chain34():
    table = intersection_table(path_schedule(FamilySpec("chain", 3, 4)))
    def count(a, b):
        return table.get((a, b), table.get((b, a), 0))
    for (l, m) in interior_index_set(FamilySpec("chain", 3, 4)):
        for M in range(3):
            assert count(("V0", l, m), ("Vxf", M)) == (1 if M == m else 0)
        assert count(("V0", l, m), ("Vxy",)) == 1


def test_profile_rederives_grid_intersections():
    # the transport profile endpoints re-derive the intersection rule for
    # every pair of interior cycles with both indices distinct
    for fam in ALL_FAMILIES:
        for p in range(2, 9):
            for q in range(2, 9):
                spec = FamilySpec(fam, p, q)
                table = intersection_table(path_schedule(spec))

                def count(a, b):
                    return table.get((a, b), table.get((b, a), 0))

                idx = interior_index_set(spec)
                for lm in idx:
                    for LM in idx:
                        if lm[0] == LM[0] or lm[1] == LM[1]:
                            continue
                        want = count(("V0", *lm), ("V0", *LM))
                        got = neck_crossings_from_profile(spec, lm, LM)
                        assert got == want, (fam, p, q, lm, LM)


@pytest.mark.parametrize("moved,failure", [
    ((2, -2), "grid rule and transport profile disagree"),
    ((6, 2), r"profile endpoints -1/2, 3/2 of \('V0', 1, 1\), \('V0', 0, 0\) out of range"),
])
def test_a_moved_profile_fails_the_cross_check(moved, failure):
    # V0(1,1) of loop(3,3) has argument numerators (2, 2) over det 4.  With
    # the y numerator negated its profile no longer crosses that of V0(0,0),
    # where the grid rule says it does; with x = 6 the pair's endpoint dx
    # is 3/2 turns.  V0(0,0) is the only cycle it shares no index with
    schedule = path_schedule(FamilySpec("loop", 3, 3))
    assert schedule.det == 4 and schedule.args[(1, 1)] == (2, 2)
    schedule.args[(1, 1)] = moved
    with pytest.raises(ArithmeticError, match=failure):
        intersection_table(schedule)


def test_waists_pairwise_disjoint():
    table = intersection_table(path_schedule(FamilySpec("loop", 4, 5)))
    for (a, b) in table:
        assert a[0] == "V0" or b[0] == "V0"


def test_intersection_table_iterates_in_schedule_order():
    # the invariants command lists the table as it iterates: each (earlier,
    # later) pair in the order of its two schedule positions
    specs = [FamilySpec(fam, p, q) for fam in ALL_FAMILIES for p in range(2, 7) for q in range(2, 7)]
    for spec in specs + [FamilySpec("loop", 16, 16)]:
        sched = path_schedule(spec)
        pos = {lab: i for i, lab in enumerate(sched.order)}
        pairs = list(intersection_table(sched))
        assert pairs == sorted(pairs, key=lambda ab: (pos[ab[0]], pos[ab[1]])), spec.label()


def test_degree_formula_spot_checks():
    assert math.floor(Fraction(1, 10) - Fraction(4, 10)) + 1 == 0
    assert math.floor(Fraction(-1, 2) - Fraction(3, 10)) + 1 == 0
    assert math.floor(Fraction(2, 10) - Fraction(1, 2)) + 1 == 0


def test_all_generator_degrees_zero():
    for fam in ALL_FAMILIES:
        for p in range(2, 7):
            for q in range(2, 7):
                lifts, degrees = grading_degrees(FamilySpec(fam, p, q))
                assert all(d == 0 for d in degrees.values())


def test_lifts_ordered_by_theta():
    spec = FamilySpec("loop", 4, 6)
    lifts, _ = grading_degrees(spec)
    for (l, m) in interior_index_set(spec):
        for (L, M) in interior_index_set(spec):
            if theta_turns(spec, l, m) > theta_turns(spec, L, M):
                assert lifts[("V0", l, m)] > lifts[("V0", L, M)]
    for lab, alpha in lifts.items():
        if lab[0] == "V0":
            assert 0 < alpha < Fraction(1, 2)
        else:
            assert alpha == Fraction(-1, 2)


def test_bp_waist_lift_flipped():
    lifts, degrees = grading_degrees(FamilySpec("bp", 3, 4))
    assert lifts[("Vxy",)] == Fraction(1, 2)
    assert all(d == 0 for d in degrees.values())


def test_sign_sweep_fixpoint_on_positive_input():
    A, B = 4, 5
    right = {(i, j): 1 for i in range(1, A) for j in range(1, B + 1)}
    up = {(i, j): 1 for i in range(1, A + 1) for j in range(1, B)}
    r2, u2 = sweep_square_signs(A, B, dict(right), dict(up))
    assert r2 == right and u2 == up


def test_sign_sweep_single_square_all_assignments():
    for bits in range(16):
        signs = [1 if bits & (1 << k) else -1 for k in range(4)]
        right = {(1, 1): signs[0], (1, 2): signs[1]}
        up = {(1, 1): signs[2], (2, 1): signs[3]}
        r2, u2 = sweep_square_signs(2, 2, right, up)
        assert r2[(1, 1)] * u2[(2, 1)] == u2[(1, 1)] * r2[(1, 2)]


def test_sign_sweep_random_grids():
    for n, seeds in ((5, range(100)), (3, range(20))):
        for seed in seeds:
            right, up = random_grid_signs(n, n, seed)
            r2, u2 = sweep_square_signs(n, n, right, up)
            for i in range(1, n):
                for j in range(1, n):
                    assert r2[(i, j)] * u2[(i + 1, j)] == u2[(i, j)] * r2[(i, j + 1)]
            # idempotent
            r3, u3 = sweep_square_signs(n, n, r2, u2)
            assert r3 == r2 and u3 == u2


def test_sign_sweep_raises_when_no_flip_fixes_a_square():
    # a zero edge makes one composite of the square at (1, 1) vanish, so no
    # sign of its top edge makes it commute
    right, up = random_grid_signs(3, 3, 0)
    up[(1, 1)] = 0
    with pytest.raises(ArithmeticError, match=r"square \(1, 1\)"):
        sweep_square_signs(3, 3, right, up)


def test_bp22_degenerate_algebra():
    # mu = 1: the single waist curve is the whole collection
    spec = FamilySpec("bp", 2, 2)
    assert interior_index_set(spec) == []
    alg = assemble_directed_algebra(spec)
    assert alg.objects == [("Vxy",)]
    assert alg.nonzero_pairs() == []


def test_algebra_directed_and_positive():
    for fam, p, q in [("loop", 3, 3), ("chain", 3, 2), ("bp", 2, 2), ("bp", 4, 4)]:
        alg = assemble_directed_algebra(FamilySpec(fam, p, q))
        assert alg.is_directed()
        assert alg.arrow_path_violations() == naive_check_associativity(alg) == []


def test_a_total_dim_equals_b_total_dim():
    # the nonzero pairs agree under the correspondence, so the total
    # dimensions (identities plus generators) do too
    for fam, p, q in [("loop", 3, 4), ("chain", 4, 3), ("bp", 3, 3)]:
        spec = FamilySpec(fam, p, q)
        corr = correspondence(spec)
        a_alg = assemble_directed_algebra(spec)
        b_alg = checked_pattern(HomTable(spec))
        assert {(corr[a], corr[b]) for (a, b) in a_alg.pairs} == b_alg.pairs
        assert len(a_alg.objects) + len(a_alg.pairs) == len(b_alg.objects) + len(b_alg.pairs)


# ---------------------------------------------------------------------------
# surfaces


def test_surface_examples():
    assert surface_invariants(FamilySpec("loop", 4, 6)) == {"genus": 11, "punctures": 3, "milnor": 24}
    assert surface_invariants(FamilySpec("chain", 3, 4)) == {"genus": 4, "punctures": 3, "milnor": 10}
    assert surface_invariants(FamilySpec("bp", 3, 3)) == {"genus": 1, "punctures": 3, "milnor": 4}


def test_surface_identity_all_families():
    for fam in ALL_FAMILIES:
        for p in range(2, 9):
            for q in range(2, 9):
                inv = surface_invariants(FamilySpec(fam, p, q))
                assert inv["milnor"] == 2 * inv["genus"] + inv["punctures"] - 1


# ---------------------------------------------------------------------------
# the numeric oracle


def test_numeric_morsification_small_cases():
    r = numeric_morsification_check(FamilySpec("loop", 2, 2))
    assert r["ok"] and r["count"] == 4
    r = numeric_morsification_check(FamilySpec("chain", 3, 2))
    assert r["ok"] and r["count"] == 4  # D4: pq - p + 1 = 4
    r = numeric_morsification_check(FamilySpec("bp", 3, 3))
    assert r["ok"] and r["count"] == 4
    # the three interior bp(3,3) critical values coincide (resonance)
    assert set(shared_value_counts(FamilySpec("bp", 3, 3)).values()) == {3}
