"""Numeric kernels: Newton enumeration and parallel-transport integration.

Newton finds the critical points of w~ - eps*x*y, where w~ = x^p y^f +
x^e y^q is the Berglund-Huebsch transpose of w, read off the (p, q, f, e)
of `families.transpose`; it runs in numpy, vectorised over all its seeds.

The transport integrates the neck model W = -eps*x*y only, on Python
complex scalars, by adaptive RK4 with step doubling. Each attempt is one
fused step: the full step and both half-steps share their first stage and
one e^{i tau} per distinct time, 11 field evaluations and 5 cos/sin pairs
where three plain RK4 steps make 12 and 14. Its output is pinned bit for
bit to the unfused reference in tests/test_kernels.py.
"""

from math import cos, sin

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
    import numpy as np

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


class NearCriticalError(ArithmeticError):
    """An RK4 stage met |dW|^2 < 1e-16, where the transport field blows up."""


def _slope(ne, c, x, y):
    """The transport field c*conj(dW)/|dW|^2 at (x, y) of W = ne*x*y, c the
    fibre velocity -delta*i*e^{it}."""
    wx, wy = ne * y, ne * x
    cx, cy = wx.conjugate(), wy.conjugate()
    n = (wx * cx).real + (wy * cy).real
    if n < 1e-16:
        raise NearCriticalError(f"|dW|^2 = {n:.1e} near a critical point")
    return c * cx / n, c * cy / n


def _rk4(ne, x, y, h, k1x, k1y, cm, ce):
    """One RK4 step of length h from (x, y), given its first stage k1 and the
    fibre velocities cm, ce at its middle and end; `_slope` written out."""
    hm = 0.5 * h
    wx, wy = ne * (y + hm * k1y), ne * (x + hm * k1x)
    cx, cy = wx.conjugate(), wy.conjugate()
    n = (wx * cx).real + (wy * cy).real
    if n < 1e-16:
        raise NearCriticalError(f"|dW|^2 = {n:.1e} near a critical point")
    k2x, k2y = cm * cx / n, cm * cy / n
    wx, wy = ne * (y + hm * k2y), ne * (x + hm * k2x)
    cx, cy = wx.conjugate(), wy.conjugate()
    n = (wx * cx).real + (wy * cy).real
    if n < 1e-16:
        raise NearCriticalError(f"|dW|^2 = {n:.1e} near a critical point")
    k3x, k3y = cm * cx / n, cm * cy / n
    wx, wy = ne * (y + h * k3y), ne * (x + h * k3x)
    cx, cy = wx.conjugate(), wy.conjugate()
    n = (wx * cx).real + (wy * cy).real
    if n < 1e-16:
        raise NearCriticalError(f"|dW|^2 = {n:.1e} near a critical point")
    k4x, k4y = ce * cx / n, ce * cy / n
    return (x + h * (k1x + 2 * k2x + 2 * k3x + k4x) / 6.0,
            y + h * (k1y + 2 * k2y + 2 * k3y + k4y) / 6.0)


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
    ne, nd, dj = -eps, -delta, -delta * 1j
    h = span / 64.0
    steps, max_defect, max_drift, r0 = 0, 0.0, 0.0, abs(x)
    e = cos(t) + 1j * sin(t)
    while (span > 0 and t < t1) or (span < 0 and t > t1):
        if steps >= max_steps:
            return x, y, steps, max_defect, max_drift, 2
        if (span > 0 and t + h > t1) or (span < 0 and t + h < t1):
            h = t1 - t
        # the full step and the two half-steps share k1 and each time's e^{it}
        hh = 0.5 * h
        tm, te, tq = t + hh, t + h, t + 0.5 * hh
        tr, ts = tm + 0.5 * hh, tm + hh  # ts is not te: it may round apart
        cm, e1 = dj * (cos(tm) + 1j * sin(tm)), cos(te) + 1j * sin(te)
        try:
            k1x, k1y = _slope(ne, dj * e, x, y)
            x1, y1 = _rk4(ne, x, y, h, k1x, k1y, cm, dj * e1)
            xa, ya = _rk4(ne, x, y, hh, k1x, k1y, dj * (cos(tq) + 1j * sin(tq)), cm)
            x2, y2 = _rk4(ne, xa, ya, hh, *_slope(ne, cm, xa, ya),
                          dj * (cos(tr) + 1j * sin(tr)), dj * (cos(ts) + 1j * sin(ts)))
        except NearCriticalError:
            return x, y, steps, max_defect, max_drift, 1
        err = max(abs(x1 - x2), abs(y1 - y2))
        if err > _STEP_TOL and abs(h) > 1e-13:
            h = hh
            continue
        x, y, t, e = x2, y2, te, e1
        # Newton onto the fibre W = target, moving z by lam * conj(dW)
        target = nd * e
        for _ in range(3):
            W, wx, wy = ne * x * y, ne * y, ne * x
            norm2 = (wx * wx.conjugate()).real + (wy * wy.conjugate()).real
            if norm2 < 1e-16:
                break
            lam = (target - W) / norm2
            x, y = x + lam * wx.conjugate(), y + lam * wy.conjugate()
        max_defect = max(max_defect, abs(ne * x * y - target))
        max_drift = max(max_drift, abs(abs(x) - r0))
        steps += 1
        if err < 0.01 * _STEP_TOL:
            h = 2.0 * h
    return x, y, steps, max_defect, max_drift, 0


def transport_fixed(eps, delta, x0, y0, t0, t1, n_steps):
    """n_steps >= 1 fixed RK4 steps of the neck-model transport, without
    projection; returns (x, y). Raises NearCriticalError where `transport`
    would return status 1."""
    x, y = complex(x0), complex(y0)
    t0, t1, n_steps = float(t0), float(t1), int(n_steps)
    if n_steps < 1:
        raise ValueError(f"n_steps must be at least 1, got {n_steps}")
    ne, dj = -eps, -delta * 1j
    h = (t1 - t0) / n_steps
    t = t0
    c = dj * (cos(t) + 1j * sin(t))
    for _ in range(n_steps):
        tm, te = t + 0.5 * h, t + h
        ce = dj * (cos(te) + 1j * sin(te))
        x, y = _rk4(ne, x, y, h, *_slope(ne, c, x, y), dj * (cos(tm) + 1j * sin(tm)), ce)
        t, c = te, ce
    return x, y
