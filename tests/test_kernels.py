"""The numeric kernels on fixed probes: Newton lands on critical points and
the adaptive transport of the local model completes on its fibre."""

import math

import numpy as np

from mfvc import _kernels


def test_backend_name_is_numpy():
    assert _kernels.backend_name() == "numpy"


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
        "local", 4, 3, eps, delta, complex(r), complex(r),
        2 * math.pi * (1 / 3 + 1 / 2), 0.0,
    )
    assert status == 0 and steps > 0
    W, *_ = _kernels.gradient_and_hessian("local", 4, 3, eps, x, y)
    assert abs(W + delta) < 1e-9
