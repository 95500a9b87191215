"""The numeric kernels on fixed probes: Newton lands on critical points,
the derivatives of w~ - eps*x*y match the polynomial written out, and the
adaptive transport of the neck model completes on its fibre.  The fused
transport step is pinned bit for bit to the unfused RK4 kept below as the
reference (run on larger shapes by CI through `neck_transports`)."""

import math

import numpy as np
import pytest

from mfvc import _kernels
from mfvc.aside import interior_index_set, theta_turns
from mfvc.families import FamilySpec
from mfvc.transport import TransportError, integrate_parallel_transport, local_start_point

# w~, the Berglund-Huebsch transpose of w, written out per family
W_TRANSPOSE = {
    "loop": lambda p, q, x, y: x ** p * y + x * y ** q,
    "chain": lambda p, q, x, y: x ** p + x * y ** q,
    "bp": lambda p, q, x, y: x ** p + y ** q,
}
PROBES = [(0.3 + 0.1j, 0.2 - 0.3j), (-0.7 + 0.4j, 0.5 + 0.6j), (1.1 - 0.2j, -0.4 - 0.9j)]


def test_backend_name_is_numpy():
    assert _kernels.backend_name() == "numpy"


@pytest.mark.parametrize("fam", sorted(W_TRANSPOSE))
def test_gradient_and_hessian_match_the_written_out_polynomial(fam):
    eps, h = 0.1, 1e-4

    def close(got, want, rel):
        return abs(got - want) <= rel * max(1.0, abs(want))

    for p in range(2, 9):
        for q in range(2, 9):
            def W(x, y):
                return W_TRANSPOSE[fam](p, q, x, y) - eps * x * y

            for x, y in PROBES:
                w, wx, wy, hxx, hxy, hyy = _kernels.gradient_and_hessian(fam, p, q, eps, x, y)
                assert abs(w - W(x, y)) <= 1e-12 * abs(W(x, y)), (fam, p, q, x, y)
                # W is holomorphic, so real central differences give its derivatives
                assert close(wx, (W(x + h, y) - W(x - h, y)) / (2 * h), 1e-5)
                assert close(wy, (W(x, y + h) - W(x, y - h)) / (2 * h), 1e-5)
                assert close(hxx, (W(x + h, y) - 2 * W(x, y) + W(x - h, y)) / h ** 2, 1e-5)
                assert close(hyy, (W(x, y + h) - 2 * W(x, y) + W(x, y - h)) / h ** 2, 1e-5)
                assert close(hxy, (W(x + h, y + h) - W(x + h, y - h)
                                   - W(x - h, y + h) + W(x - h, y - h)) / (4 * h ** 2), 1e-5)


def test_newton_converged_seeds_are_critical_points():
    zx = np.array([0.3 + 0.1j, 0.5 - 0.2j, 0.05 + 0.4j])
    zy = np.array([0.2 - 0.3j, 0.1 + 0.1j, 0.6 + 0.0j])
    tol = 1e-12
    X, Y, ok = _kernels.newton_enumerate("loop", 3, 3, 0.1, zx, zy, iters=60, tol=tol)
    assert int(ok.sum()) == 3
    for x, y in zip(X[ok], Y[ok]):
        _, wx, wy, *_ = _kernels.gradient_and_hessian("loop", 3, 3, 0.1, x, y)
        assert abs(wx) < tol and abs(wy) < tol


def test_transport_of_local_probe_completes_on_fibre():
    eps, delta = 0.1, 1e-3
    r = math.sqrt(delta / eps)
    x, y, steps, defect, drift, status = _kernels.transport(
        eps, delta, complex(r), complex(r), 2 * math.pi * (1 / 3 + 1 / 2), 0.0,
    )
    assert status == 0 and steps > 0
    assert abs(-eps * x * y + delta) < 1e-9


# ---------------------------------------------------------------------------
# Reference: the unfused transport, three separate RK4 steps per attempt and
# twelve field evaluations, as `_kernels` had it before the fused step; only
# the counter of rejected attempts is added.

_STEP_TOL = 1e-11
naive_rejections = [0]


def _rhs(eps, delta, x, y, t):
    # c(t) = -delta * exp(i t); dot c = -i delta exp(i t)
    cdot = -delta * 1j * (math.cos(t) + 1j * math.sin(t))
    wx = -eps * y
    wy = -eps * x
    norm2 = (wx * wx.conjugate()).real + (wy * wy.conjugate()).real
    fx = cdot * wx.conjugate() / norm2
    fy = cdot * wy.conjugate() / norm2
    return fx, fy, norm2


def _rk4_step(eps, delta, x, y, t, h):
    k1x, k1y, n1 = _rhs(eps, delta, x, y, t)
    k2x, k2y, n2 = _rhs(eps, delta, x + 0.5 * h * k1x, y + 0.5 * h * k1y, t + 0.5 * h)
    k3x, k3y, n3 = _rhs(eps, delta, x + 0.5 * h * k2x, y + 0.5 * h * k2y, t + 0.5 * h)
    k4x, k4y, n4 = _rhs(eps, delta, x + h * k3x, y + h * k3y, t + h)
    nx = x + h * (k1x + 2 * k2x + 2 * k3x + k4x) / 6.0
    ny = y + h * (k1y + 2 * k2y + 2 * k3y + k4y) / 6.0
    nmin = min(min(n1, n2), min(n3, n4))
    return nx, ny, nmin


def _project_to_fibre(eps, delta, x, y, t):
    # Newton in the gradient direction: move z by lam * conj(grad W)
    target = -delta * (math.cos(t) + 1j * math.sin(t))
    for _ in range(3):
        W = -eps * x * y
        wx = -eps * y
        wy = -eps * x
        norm2 = (wx * wx.conjugate()).real + (wy * wy.conjugate()).real
        if norm2 < 1e-16:
            break
        lam = (target - W) / norm2
        x = x + lam * wx.conjugate()
        y = y + lam * wy.conjugate()
    return x, y


def naive_transport(eps, delta, x0, y0, t0, t1, max_steps=100000):
    x, y = complex(x0), complex(y0)
    t = t0 = float(t0)
    t1 = float(t1)
    span = t1 - t0
    if span == 0.0:
        return x, y, 0, 0.0, 0.0, 0
    h = span / 64.0
    steps = 0
    max_defect = 0.0
    max_drift = 0.0
    r0 = abs(x)
    while (span > 0 and t < t1) or (span < 0 and t > t1):
        if steps >= max_steps:
            return x, y, steps, max_defect, max_drift, 2
        if (span > 0 and t + h > t1) or (span < 0 and t + h < t1):
            h = t1 - t
        x1, y1, n1 = _rk4_step(eps, delta, x, y, t, h)
        xa, ya, n2 = _rk4_step(eps, delta, x, y, t, 0.5 * h)
        x2, y2, n3 = _rk4_step(eps, delta, xa, ya, t + 0.5 * h, 0.5 * h)
        if min(n1, min(n2, n3)) < 1e-16:
            return x, y, steps, max_defect, max_drift, 1
        err = max(abs(x1 - x2), abs(y1 - y2))
        if err > _STEP_TOL and abs(h) > 1e-13:
            naive_rejections[0] += 1
            h = 0.5 * h
            continue
        x, y = x2, y2
        t = t + h
        x, y = _project_to_fibre(eps, delta, x, y, t)
        W = -eps * x * y
        target = -delta * (math.cos(t) + 1j * math.sin(t))
        defect = abs(W - target)
        if defect > max_defect:
            max_defect = defect
        drift = abs(abs(x) - r0)
        if drift > max_drift:
            max_drift = drift
        steps += 1
        if err < 0.01 * _STEP_TOL:
            h = 2.0 * h
    return x, y, steps, max_defect, max_drift, 0


def naive_transport_fixed(eps, delta, x0, y0, t0, t1, n_steps):
    x, y = complex(x0), complex(y0)
    t0, t1, n_steps = float(t0), float(t1), int(n_steps)
    h = (t1 - t0) / n_steps
    t = t0
    for _ in range(n_steps):
        x, y, _ = _rk4_step(eps, delta, x, y, t, h)
        t = t + h
    return x, y


def neck_transports(spec, both_ways=True):
    """The transports `transport-verify` runs on spec at its defaults, as
    argument tuples of `_kernels.transport`: every (l, m) and s in -2..2,
    from the fibre at angle theta to angle 0.  With both_ways also the
    reverse span 0 -> theta, from the start point turned onto the fibre at
    angle 0."""
    eps, delta = 0.1, 1e-3
    for (l, m) in interior_index_set(spec):
        theta = 2 * math.pi * float(theta_turns(spec, l, m))
        turn = complex(math.cos(theta / 2), -math.sin(theta / 2))
        for s in range(-2, 3):
            x0, y0 = local_start_point(spec, l, m, s, delta, eps)
            yield eps, delta, x0, y0, theta, 0.0, 100000
            if both_ways:
                yield eps, delta, x0 * turn, y0 * turn, 0.0, theta, 100000


def assert_bitwise_equal(got, want, case):
    """Equal values, and equal reprs, so the sign of a zero counts too."""
    assert got == want and repr(got) == repr(want), case


PINNED_SHAPES = [("loop", 2, 2), ("loop", 4, 3), ("chain", 3, 4), ("bp", 3, 3)]


def test_fused_transport_is_the_reference_bit_for_bit():
    before = naive_rejections[0]
    cases = [args for shape in PINNED_SHAPES for args in neck_transports(FamilySpec(*shape))]
    x0, y0 = local_start_point(FamilySpec("loop", 4, 6), 2, 4, 0.0, 1e-3, 0.1)
    cases += [
        (0.1, 1e-3, x0, y0, 2 * math.pi * 22 / 15, 0.0, 3),  # budget exhausted
        (0.1, 1e-3, x0, y0, 1.5, 1.5, 100000),  # span 0
        (0.1, 1e-3, 1e-9, 1e-9, 1.0, 0.0, 100000),  # |dW|^2 < 1e-16, not 0
    ]
    statuses = set()
    for args in cases:
        want = naive_transport(*args)
        assert_bitwise_equal(_kernels.transport(*args), want, args)
        statuses.add(want[5])
    assert len(cases) == 163 and statuses == {0, 1, 2}
    # the retry after a rejected attempt is compared too
    assert naive_rejections[0] > before


@pytest.mark.parametrize("n_steps", [40, 80, 160])
def test_fixed_step_transport_is_the_reference_bit_for_bit(n_steps):
    spec = FamilySpec("loop", 4, 6)
    x0, y0 = local_start_point(spec, 1, 2, 1.0, 1e-3, 0.1)
    theta = 2 * math.pi * float(theta_turns(spec, 1, 2))
    args = (0.1, 1e-3, x0, y0, theta, 0.0, n_steps)
    assert_bitwise_equal(_kernels.transport_fixed(*args), naive_transport_fixed(*args), args)


def test_critical_start_point_aborts_with_status_1():
    # dW = 0 at the origin, which lies on the fibre W = 0 of delta = 0
    x, y, steps, defect, drift, status = _kernels.transport(0.1, 0.0, 0j, 0j, 1.0, 0.0)
    assert (x, y, steps, defect, drift, status) == (0j, 0j, 0, 0.0, 0.0, 1)
    with pytest.raises(TransportError, match="critical point"):
        integrate_parallel_transport(0.1, 0.0, 0j, 0j, 1.0, 0.0)
    with pytest.raises(_kernels.NearCriticalError, match="critical point"):
        _kernels.transport_fixed(0.1, 0.0, 0j, 0j, 1.0, 0.0, 10)


@pytest.mark.parametrize("n_steps", [0, -3])
def test_fixed_step_transport_rejects_a_step_count_below_1(n_steps):
    with pytest.raises(ValueError, match="n_steps"):
        _kernels.transport_fixed(0.1, 1e-3, 0.1 + 0j, 0.1 + 0j, 1.0, 0.0, n_steps)
