"""Symplectic parallel transport: numerical integration of the transport
ODE of the neck model W = -eps*x*y, and verification of its closed-form
solution, which is exact for that model.
"""

import math

from . import _kernels
from .aside import interior_args, phi_profile, theta_turns
from .families import FamilySpec


class TransportError(ArithmeticError):
    pass


def integrate_parallel_transport(eps, delta, x0, y0, t_start, t_end, max_steps=100000):
    """Endpoint of parallel transport in the neck model along the circular
    arc c(t) = -delta e^{it}, t from t_start to t_end.

    Raises TransportError on a start point off the fibre, a near-critical
    gradient or an exhausted step budget; otherwise the endpoint sits on
    the target fibre to within the projection tolerance (reported as
    `defect`)."""
    W0 = -eps * x0 * y0
    start_target = -delta * complex(math.cos(t_start), math.sin(t_start))
    if abs(W0 - start_target) > 1e-12 * max(1.0, abs(start_target)):
        raise TransportError(f"initial point is not on the fibre: defect {abs(W0 - start_target):.3e}")
    x, y, steps, defect, drift, status = _kernels.transport(
        eps, delta, x0, y0, t_start, t_end, max_steps)
    if status == 1:
        raise TransportError("aborted near a critical point (|dW| too small)")
    if status == 2:
        raise TransportError("step budget exhausted")
    if defect > 1e-9:
        raise TransportError(f"fibre defect {defect:.3e} exceeds 1e-9")
    return {"x": x, "y": y, "steps": steps, "defect": defect, "modulus_drift": drift}


def local_start_point(spec: FamilySpec, l, m, s, delta, eps):
    """Start point on the neck hyperbola over the fibre at angle theta_{l,m}."""
    r = math.sqrt(delta / eps)
    xa, ya = interior_args(spec, l, m)
    ax = 2 * math.pi * float(xa)
    ay = 2 * math.pi * float(ya)
    x0 = r * math.exp(s) * complex(math.cos(ax), math.sin(ax))
    y0 = r * math.exp(-s) * complex(math.cos(ay), math.sin(ay))
    return x0, y0


def _neck_path(spec: FamilySpec, l, m, s, delta, eps):
    """(x0, y0, theta, phi, r): the start point of (l, m) at s, the angle of
    its fibre, and the closed-form endpoint r e^{i phi} of x over the fibre
    at angle 0."""
    x0, y0 = local_start_point(spec, l, m, s, delta, eps)
    theta = 2 * math.pi * float(theta_turns(spec, l, m))
    phi = phi_profile(spec, l, m, s, 0.0)
    return x0, y0, theta, phi, math.sqrt(delta / eps) * math.exp(s)


def angle_error(z, phi):
    """|arg z - phi| up to full turns."""
    rot = z * complex(math.cos(-phi), math.sin(-phi))
    return abs(math.atan2(rot.imag, rot.real))


def verify_local_model(spec: FamilySpec, l, m, s, delta=1e-3, eps=0.1,
                       tol=1e-6, max_steps=100000):
    """Integrate the exact neck model and compare with the closed form.

    Returns a report with the achieved angle and modulus errors; `ok` is
    True when both are within tol."""
    if abs(s) > 3:
        raise ValueError("|s| <= 3 is required (the hyperbola leaves the neck)")
    x0, y0, theta, phi, r_expected = _neck_path(spec, l, m, s, delta, eps)
    res = integrate_parallel_transport(eps, delta, x0, y0, theta, 0.0, max_steps)
    a_err = angle_error(res["x"], phi)
    m_err = abs(abs(res["x"]) - r_expected)
    return {
        "l": l, "m": m, "s": s,
        "angle_error": a_err,
        "modulus_error": m_err,
        "modulus_drift": res["modulus_drift"],
        "steps": res["steps"],
        "defect": res["defect"],
        "ok": a_err <= tol and m_err <= tol,
    }


def convergence_study(spec: FamilySpec, l, m, s, delta=1e-3, eps=0.1,
                      base_steps=40, rounds=3):
    """Endpoint errors of the fixed-step integrator at N, 2N, 4N, ... steps.

    A fourth-order method should shrink the error by about 16x per halving;
    the acceptance threshold is 8x."""
    if base_steps < 1 or rounds < 1:
        raise ValueError(f"base_steps and rounds must be at least 1, got {base_steps}, {rounds}")
    x0, y0, theta, phi, r_expected = _neck_path(spec, l, m, s, delta, eps)
    target = r_expected * complex(math.cos(phi), math.sin(phi))
    errors = []
    n = base_steps
    for _ in range(rounds):
        x, _ = _kernels.transport_fixed(eps, delta, x0, y0, theta, 0.0, n)
        errors.append(abs(x - target))
        n *= 2
    return errors


def verification_grid(spec: FamilySpec, s_values=(-2, -1, 0, 1, 2),
                      delta=1e-3, eps=0.1, tol=1e-6):
    """The (l, m) x s verification sweep; returns the list of reports."""
    from .aside import interior_index_set

    reports = []
    for (l, m) in interior_index_set(spec):
        for s in s_values:
            reports.append(verify_local_model(spec, l, m, s, delta, eps, tol))
    return reports
