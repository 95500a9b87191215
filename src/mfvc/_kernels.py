"""Numeric kernels: Newton enumeration and parallel-transport integration.

Newton finds the critical points of w~ - eps*x*y, where w~ = x^p y^f +
x^e y^q is the Berglund-Huebsch transpose of w, read off the (p, q, f, e)
of `families.transpose`; it runs in numpy, vectorised over all its seeds.
The adaptive RK4 transport integrates the neck model W = -eps*x*y only, on
complex scalars.
"""

import math

import numpy as np

from .families import transpose


def backend_name():
    """Always "numpy"; kept for callers that report the kernel backend."""
    return "numpy"


_STEP_TOL = 1e-11  # local error tolerance of the adaptive transport step


def _w_and_grad(p, q, f, e, eps, x, y):
    """(W, Wx, Wy) of w~ - eps*x*y, w~ = x^p y^f + x^e y^q; f, e are 0 or 1,
    so e*x^(e-1) = e and f*y^(f-1) = f."""
    W = x ** p * y ** f + x ** e * y ** q - eps * x * y
    Wx = p * x ** (p - 1) * y ** f + e * y ** q - eps * y
    Wy = f * x ** p + q * x ** e * y ** (q - 1) - eps * x
    return W, Wx, Wy


def _hessian(p, q, f, e, eps, x, y):
    hxx = p * (p - 1) * x ** (p - 2) * y ** f
    hxy = f * p * x ** (p - 1) + e * q * y ** (q - 1) - eps
    hyy = q * (q - 1) * x ** e * y ** (q - 2)
    return hxx, hxy, hyy


def gradient_and_hessian(family, p, q, eps, x, y):
    """(W, Wx, Wy, hxx, hxy, hyy) of w~ - eps*x*y at the point (x, y)."""
    exps = transpose(family, p, q)
    W, Wx, Wy = _w_and_grad(*exps, eps, complex(x), complex(y))
    hxx, hxy, hyy = _hessian(*exps, eps, complex(x), complex(y))
    return W, Wx, Wy, hxx, hxy, hyy


# ---------------------------------------------------------------------------
# Newton enumeration of critical points


def newton_enumerate(family, p, q, eps, zx, zy, iters=80, tol=1e-10):
    """Vectorised Newton from every seed (zx[k], zy[k]) at once, with masking.

    Returns (x, y, ok) arrays; ok marks the seeds that reached |Wx|, |Wy| < tol."""
    exps = transpose(family, p, q)
    x = zx.astype(np.complex128).copy()
    y = zy.astype(np.complex128).copy()
    active = np.ones(x.shape, dtype=bool)
    for _ in range(iters):
        _, wx, wy = _w_and_grad(*exps, eps, x, y)
        done = (np.abs(wx) < tol) & (np.abs(wy) < tol)
        active &= ~done
        if not active.any():
            break
        hxx, hxy, hyy = _hessian(*exps, eps, x, y)
        det = hxx * hyy - hxy * hxy
        bad = np.abs(det) < 1e-14
        det = np.where(bad, 1.0, det)
        dx = np.where(active & ~bad, (wx * hyy - wy * hxy) / det, 0.0)
        dy = np.where(active & ~bad, (wy * hxx - wx * hxy) / det, 0.0)
        x = x - dx
        y = y - dy
        diverged = (np.abs(x) > 1e6) | (np.abs(y) > 1e6)
        active &= ~diverged
    _, wx, wy = _w_and_grad(*exps, eps, x, y)
    ok = (np.abs(wx) < tol) & (np.abs(wy) < tol)
    return x, y, ok


# ---------------------------------------------------------------------------
# parallel transport


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


def transport(eps, delta, x0, y0, t0, t1, max_steps=100000):
    """Parallel transport of (x0, y0) in the neck model W = -eps*x*y along
    c(t) = -delta*e^{it}, t from t0 to t1: adaptive RK4 with step doubling
    (local error tolerance _STEP_TOL) and a projection back to the fibre
    after every step.

    Returns (x, y, steps, max_defect, max_drift, status); status 0 = ok,
    1 = near-critical abort, 2 = step budget exhausted (max_steps accepted
    steps without reaching t1)."""
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


def transport_fixed(eps, delta, x0, y0, t0, t1, n_steps):
    """n_steps fixed RK4 steps of the neck-model transport, without
    projection; returns (x, y)."""
    x, y = complex(x0), complex(y0)
    t0, t1, n_steps = float(t0), float(t1), int(n_steps)
    h = (t1 - t0) / n_steps
    t = t0
    for _ in range(n_steps):
        x, y, _ = _rk4_step(eps, delta, x, y, t, h)
        t = t + h
    return x, y
