"""The numeric kernels on fixed probes: Newton lands on critical points,
the derivatives of w~ - eps*x*y match the polynomial written out, and the
adaptive transport of the neck model completes on its fibre."""

import math

import numpy as np
import pytest

from mfvc import _kernels

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
