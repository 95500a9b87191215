"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion
lines; each test also enforces its stated runtime budget.
"""

import random
import time

from divisibility_utils import (
    chain_divisibility_counterexamples,
    loop_divisibility_counterexamples,
    loop_degree_zero_counterexamples,
)
from mfvc.aside import (
    numeric_morsification_check,
    path_schedule,
    random_grid_signs,
    surface_invariants,
    sweep_square_signs,
)
from mfvc.bside import basic_objects, check_closed_form, closed_form, hom_table
from mfvc.compare import mirror_check
from mfvc.families import FamilySpec
from mfvc.grading import make_grading_group
from mfvc.polyring import QuotientRing, brute_force_piece_dim, family_factor, family_w, poly_x, poly_y
from mfvc.transport import convergence_study, verification_grid
from test_bside import walk_cells

ALL_FAMILIES = ("loop", "chain", "bp")
_TABLE_CACHE = {}


def cached_table(spec):
    """The hom table of spec, with its nonzero cells and its mismatches
    read off one walk."""
    if spec not in _TABLE_CACHE:
        table = hom_table(spec)
        _TABLE_CACHE[spec] = (table, *walk_cells(table))
    return _TABLE_CACHE[spec]


def report(n, ok, detail):
    line = f"criterion {n}: {'PASS' if ok else 'FAIL'} - {detail}"
    print(line)
    assert ok, line


def test_criterion_1_hom_table_fixture_loop46():
    t0 = time.monotonic()
    spec = FamilySpec("loop", 4, 6)
    table, dims, mismatches = cached_table(spec)
    objects = table.objects
    assert len(objects) == 24
    pattern = closed_form(objects)
    checked = 0
    for a in objects:
        for b in objects:
            for d in range(-6, 7):
                got = dims.get((a, b, d), 0)
                want = int(d == 0) * pattern.hom_dim(a, b)
                assert got == want, (a, b, d, got, want)
                checked += 1
    elapsed = time.monotonic() - t0
    report(1, not mismatches and elapsed < 60,
           f"loop(4,6) hom table matches closed form in {checked} cells ({elapsed:.1f}s)")


def test_criterion_2_mirror_check_sweep():
    t0 = time.monotonic()
    failures = []
    count = 0
    for fam in ALL_FAMILIES:
        for p in range(2, 7):
            for q in range(2, 7):
                spec = FamilySpec(fam, p, q)
                r = mirror_check(spec)
                count += 1
                if not r["pass"]:
                    failures.append((spec.label(), r["mismatches"][:2]))
    elapsed = time.monotonic() - t0
    report(2, not failures and elapsed < 300,
           f"mirror check passed for {count} specs across all families ({elapsed:.1f}s)")


def test_criterion_3_milnor_counts():
    bad = []
    for fam in ALL_FAMILIES:
        for p in range(2, 9):
            for q in range(2, 9):
                spec = FamilySpec(fam, p, q)
                mu = spec.milnor()
                b = len(basic_objects(spec))
                a = len(path_schedule(spec).order)
                if not (mu == a == b):
                    bad.append((spec.label(), mu, a, b))
    report(3, not bad, f"object counts equal the Milnor number for {3 * 49} specs")


def test_criterion_4_surface_invariants():
    fixtures = {
        ("loop", 4, 6): (11, 3),
        ("chain", 3, 4): (4, 3),
        ("bp", 3, 3): (1, 3),
    }
    ok = True
    for (fam, p, q), (g, n) in fixtures.items():
        inv = surface_invariants(FamilySpec(fam, p, q))
        ok = ok and inv["genus"] == g and inv["punctures"] == n
    checked = 0
    for fam in ALL_FAMILIES:
        for p in range(2, 9):
            for q in range(2, 9):
                inv = surface_invariants(FamilySpec(fam, p, q))
                ok = ok and inv["milnor"] == 2 * inv["genus"] + inv["punctures"] - 1
                checked += 1
    report(4, ok, f"fixtures and the rank identity hold for {checked} specs")


def test_criterion_5_transport_verification():
    t0 = time.monotonic()
    grid_specs = [FamilySpec("loop", 2, 2), FamilySpec("loop", 4, 3),
                  FamilySpec("loop", 4, 6), FamilySpec("chain", 3, 4)]
    worst_angle = worst_mod = 0.0
    n_runs = 0
    ok = True
    for spec in grid_specs:
        for r in verification_grid(spec, s_values=(-2, -1, 0, 1, 2)):
            ok = ok and r["ok"]
            worst_angle = max(worst_angle, r["angle_error"])
            worst_mod = max(worst_mod, r["modulus_error"])
            n_runs += 1
    errs = convergence_study(FamilySpec("loop", 4, 6), 2, 4, 1.0, base_steps=60)
    halving = min(errs[0] / errs[1], errs[1] / errs[2])
    ok = ok and halving >= 8
    elapsed = time.monotonic() - t0
    report(5, ok and worst_angle <= 1e-6 and worst_mod <= 1e-6 and elapsed < 120,
           f"{n_runs} transports, worst angle {worst_angle:.1e}, worst modulus "
           f"{worst_mod:.1e}, halving factor {halving:.1f} ({elapsed:.1f}s)")


def criterion_6_cases():
    """(group, generators, delta, bound) for criterion 6's 200 seeded
    graded-piece cases."""
    rng = random.Random(2024)
    for _ in range(200):
        family = rng.choice(list(ALL_FAMILIES))
        p, q = rng.randint(2, 5), rng.randint(2, 5)
        g = make_grading_group(family, p, q)
        gens = [poly_x(rng.randint(1, p)), poly_y(rng.randint(1, q))]
        if rng.random() < 0.5:
            gens.append(family_w(family, p, q))
        if rng.random() < 0.3:
            f = family_factor(family, p, q)
            if f is not None:
                gens.append(f)
        delta = g.element(rng.randint(-4, 4), rng.randint(-4, 4), rng.randint(-1, 1))
        yield g, gens, delta, 3 * p * q


def test_criterion_6_property_suites():
    mismatches = 0
    for g, gens, delta, bound in criterion_6_cases():
        dim = len(QuotientRing(g, gens).graded_piece_basis(delta, bound=bound))
        if dim != brute_force_piece_dim(g, gens, g.zero, delta, bound):
            mismatches += 1
    counterexamples = 0
    for p in range(2, 7):
        for q in range(2, 7):
            counterexamples += len(loop_divisibility_counterexamples(p, q))
            counterexamples += len(loop_degree_zero_counterexamples(p, q))
            counterexamples += len(chain_divisibility_counterexamples(p, q))
    report(6, mismatches == 0 and counterexamples == 0,
           f"200 oracle cases exact, {counterexamples} divisibility counterexamples")


def test_criterion_7_sign_rectification():
    # (A, B, seed): 4 seeds on every grid up to 6x6, and seeds 0-9 on the
    # 6x6 grid of loop(7,7)'s interior cycles
    grids = [(A, B, seed * 31 + A * 7 + B)
             for A in range(2, 7) for B in range(2, 7) for seed in range(4)]
    grids += [(6, 6, seed) for seed in range(10)]
    bad = 0
    for A, B, seed in grids:
        right, up = random_grid_signs(A, B, seed)
        r2, u2 = sweep_square_signs(A, B, right, up)
        for i in range(1, A):
            for j in range(1, B):
                if r2[(i, j)] * u2[(i + 1, j)] != u2[(i, j)] * r2[(i, j + 1)]:
                    bad += 1
    report(7, bad == 0 and len(grids) >= 100,
           f"{len(grids)} random grids rectified, every square commutes")


def test_criterion_8_numeric_morsification():
    t0 = time.monotonic()
    failures = []
    for fam in ALL_FAMILIES:
        for p in range(2, 5):
            for q in range(2, 5):
                spec = FamilySpec(fam, p, q)
                r = numeric_morsification_check(spec, eps=0.1)
                if not (r["count_ok"] and r["morse_ok"] and r["value_args_ok"]):
                    failures.append((spec.label(), r))
    elapsed = time.monotonic() - t0
    report(8, not failures and elapsed < 60,
           f"Newton enumeration exact for {3 * 9} specs ({elapsed:.1f}s)")


def test_criterion_9_tilting():
    bad = []
    for fam in ALL_FAMILIES:
        for p in range(2, 7):
            for q in range(2, 7):
                spec = FamilySpec(fam, p, q)
                table, dims, mismatches = cached_table(spec)
                # End^i of the direct sum: all pairs, all degrees in window
                for a in table.objects:
                    for b in table.objects:
                        for d in range(-6, 7):
                            if d == 0:
                                continue
                            if dims.get((a, b, d), 0) != 0:
                                bad.append((spec.label(), a, b, d))
                check_closed_form([mismatches])
                if not table.pattern.is_directed():
                    bad.append((spec.label(), "order"))
    report(9, not bad, "End^i of the tilting object vanishes for i != 0, "
                       "all families, 2<=p,q<=6 (window [-6,6], periodicity documented)")
