import math

import pytest

from mfvc.aside import phi_profile, theta_turns
from mfvc.families import FamilySpec
from mfvc.transport import (
    TransportError,
    convergence_study,
    integrate_parallel_transport,
    local_start_point,
    verification_grid,
    verify_local_model,
)


def test_zero_length_path_is_identity():
    spec = FamilySpec("loop", 4, 3)
    x0, y0 = local_start_point(spec, 0, 0, 0.0, 1e-3, 0.1)
    res = integrate_parallel_transport(0.1, 1e-3, x0, y0, 0.0, 0.0)
    assert res["x"] == x0 and res["y"] == y0 and res["steps"] == 0


def test_start_point_lies_on_fibre():
    spec = FamilySpec("chain", 3, 4)
    for (l, m) in [(0, 0), (1, 2)]:
        for s in (-1.0, 0.5):
            x0, y0 = local_start_point(spec, l, m, s, 1e-3, 0.1)
            theta = 2 * math.pi * float(theta_turns(spec, l, m))
            target = -1e-3 * complex(math.cos(theta), math.sin(theta))
            assert abs(-0.1 * x0 * y0 - target) < 1e-15


def test_off_fibre_start_rejected():
    with pytest.raises(TransportError):
        integrate_parallel_transport(0.1, 1e-3, 1.0 + 0j, 1.0 + 0j, 0.0, 1.0)


def test_step_budget_abort():
    spec = FamilySpec("loop", 4, 6)
    x0, y0 = local_start_point(spec, 2, 4, 0.0, 1e-3, 0.1)
    theta = 2 * math.pi * 22 / 15
    with pytest.raises(TransportError):
        integrate_parallel_transport(0.1, 1e-3, x0, y0, theta, 0.0, max_steps=3)


def test_step_budget_counts_the_step_that_reaches_the_end():
    # this transport takes exactly 129 steps: a budget of 129 suffices
    spec = FamilySpec("loop", 4, 3)
    r = verify_local_model(spec, 1, 1, 0.0, max_steps=129)
    assert r["ok"] and r["steps"] == 129
    with pytest.raises(TransportError, match="step budget exhausted"):
        verify_local_model(spec, 1, 1, 0.0, max_steps=128)


def test_closed_form_example_loop43():
    # transport of the (1,1) hyperbola point at s=0 ends at argument -pi/6
    r = verify_local_model(FamilySpec("loop", 4, 3), 1, 1, 0.0, delta=1e-3, eps=0.1)
    assert r["ok"]
    assert r["angle_error"] <= 1e-6 and r["modulus_error"] <= 1e-6
    # and the angle itself is -pi/6 up to the verified error
    assert abs(-math.pi / 6 - phi_profile(FamilySpec("loop", 4, 3), 1, 1, 0.0, 0.0)) < 1e-12


def test_s_out_of_range_rejected():
    with pytest.raises(ValueError):
        verify_local_model(FamilySpec("loop", 4, 3), 1, 1, 3.5)


def test_modulus_preserved_along_transport():
    r = verify_local_model(FamilySpec("loop", 4, 6), 1, 2, 1.0)
    assert r["modulus_drift"] <= 1e-6


def test_fibre_membership_along_accepted_steps():
    r = verify_local_model(FamilySpec("chain", 3, 4), 1, 1, -1.0)
    assert r["defect"] <= 1e-9


def test_convergence_fourth_order():
    errs = convergence_study(FamilySpec("loop", 4, 6), 1, 2, 1.0, base_steps=40)
    assert errs[0] / errs[1] >= 8
    assert errs[1] / errs[2] >= 8


@pytest.mark.parametrize("base_steps,rounds", [(0, 3), (-2, 3), (40, 0), (40, -1)])
def test_convergence_study_rejects_an_empty_schedule(base_steps, rounds):
    with pytest.raises(ValueError, match="at least 1"):
        convergence_study(FamilySpec("loop", 4, 6), 1, 2, 1.0, base_steps=base_steps, rounds=rounds)


@pytest.mark.parametrize("fam,p,q", [("loop", 2, 2), ("loop", 4, 3), ("chain", 3, 4)])
def test_verification_grid_small(fam, p, q):
    reports = verification_grid(FamilySpec(fam, p, q), s_values=(-1, 0, 1))
    assert reports and all(r["ok"] for r in reports)
    assert all(r["angle_error"] <= 1e-6 and r["modulus_error"] <= 1e-6 for r in reports)
