"""The Dormand-Prince 8(5,3) pair with dense output (Hairer, Norsett &
Wanner, *Solving ODEs I*, 2nd ed., 1993, sec. II.10) and Brent's root
finder (Brent, *Algorithms for Minimization without Derivatives*, 1973),
operation for operation as scipy 1.17's solve_ivp(method="DOP853") and
brentq compute them, without importing scipy.integrate, scipy.optimize
or the scipy.special they load. The tableau is scipy's own
dop853_coefficients.py, loaded by file path: it imports only numpy.
"""

from __future__ import annotations

import importlib.util
import math
import os
from typing import NamedTuple, Optional

import numpy as np


def _scipy_tableau():
    root = importlib.util.find_spec("scipy").submodule_search_locations[0]
    spec = importlib.util.spec_from_file_location(
        "stillwave._dop853_coefficients",
        os.path.join(root, "integrate", "_ivp", "dop853_coefficients.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


_TABLEAU = _scipy_tableau()
_STAGES = _TABLEAU.N_STAGES
TOO_SMALL_STEP = "Required step size is less than spacing between numbers."


class Ivp(NamedTuple):
    """A dop853 run: its nodes t, the states y there (shape (n, len(t))),
    with dense=True every step's interpolant coefficients F (shape
    (len(t) - 1, 7, n)), the index of the event that ended the run, the
    right-hand-side evaluations and the failure message, if any."""

    t: np.ndarray
    y: np.ndarray
    F: Optional[np.ndarray]
    event: Optional[int]
    nfev: int
    failure: Optional[str]


def _rms(x):
    return np.linalg.norm(x) / x.size ** 0.5


def _interpolant(F, y_old, x):
    """Steps' dense-output polynomials, coefficients F[0..6], at x."""
    y = np.zeros_like(y_old)
    for i, f in enumerate(F[::-1]):
        y += f
        y *= 1 - x if i % 2 else x
    return y + y_old


def dop853(fun, t_end, y0, rtol, atol, events=(), dense=False,
           interpolated_end=False) -> Ivp:
    """Integrate y' = fun(t, y) from y(0) = y0 to t_end (either sign).

    events are (g, direction) pairs, all terminal: the run ends at the
    first zero of a g(t, y) that direction admits (+1 rising, -1 falling,
    0 both), found by brentq on the step's interpolant. dense=True keeps
    every step's interpolant for dense_value, in runs that no event ends.
    interpolated_end=True takes the state at t_end from the interpolant,
    as t_eval=(t_end,) does; where the interpolant overflows that is NaN.
    """
    nfev = 0

    def f(t, y):
        nonlocal nfev
        nfev += 1
        return np.asarray(fun(t, y), dtype=float)

    def end(event=None, failure=None):
        return Ivp(np.array(ts), np.vstack(ys).T,
                   np.array(Fs) if dense else None, event, nfev, failure)

    def stages(first, last):  # of the step h from (t, y)
        for s in range(first, last):
            K_ext[s] = f(t + _TABLEAU.C[s] * h, y + np.dot(
                K_ext[:s].T, _TABLEAU.A[s, :s]) * h)

    t, y = 0.0, np.asarray(y0, dtype=float)
    direction = np.sign(t_end)
    fy = f(t, y)
    scale = atol + np.abs(y) * rtol
    d0, d1 = _rms(y / scale), _rms(fy / scale)
    h0 = min(1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1, abs(t_end))
    d2 = _rms((f(t + h0 * direction, y + h0 * direction * fy) - fy)
              / scale) / h0
    h1 = (max(1e-6, h0 * 1e-3) if d1 <= 1e-15 and d2 <= 1e-15
          else (0.01 / max(d1, d2)) ** (1 / 8))
    h_abs = min(100 * h0, h1, abs(t_end))
    K_ext = np.empty((_TABLEAU.N_STAGES_EXTENDED, y.size))
    K = K_ext[:_STAGES + 1]
    g = [gi(t, y) for gi, _ in events]
    ts, ys, Fs = [t], [y], []
    while True:
        min_step = 10 * np.abs(np.nextafter(t, direction * np.inf) - t)
        h_abs, rejected = max(h_abs, min_step), False
        while True:
            if h_abs < min_step:
                return end(failure=TOO_SMALL_STEP)
            t_new = t + h_abs * direction
            if direction * (t_new - t_end) > 0:
                t_new = t_end
            h = t_new - t
            h_abs = np.abs(h)
            K[0] = fy
            stages(1, _STAGES)
            y_new = y + h * np.dot(K[:-1].T, _TABLEAU.B)
            f_new = K[-1] = f(t + h, y_new)
            scale = atol + np.maximum(np.abs(y), np.abs(y_new)) * rtol
            e5 = np.linalg.norm(np.dot(K.T, _TABLEAU.E5) / scale) ** 2
            e3 = np.linalg.norm(np.dot(K.T, _TABLEAU.E3) / scale) ** 2
            err = (0.0 if e5 == 0 and e3 == 0
                   else h_abs * e5 / np.sqrt((e5 + 0.01 * e3) * y.size))
            if err < 1:  # the error is of order 7: steps scale by err^-1/8
                factor = 10 if err == 0 else min(10, 0.9 * err ** (-1 / 8))
                h_abs *= min(1, factor) if rejected else factor
                break
            h_abs *= max(0.2, 0.9 * err ** (-1 / 8))
            rejected = True
        done = direction * (t_new - t_end) >= 0
        g_new = [gi(t_new, y_new) for gi, _ in events]
        active = [i for i, (gi, gn, (_, d)) in enumerate(zip(g, g_new, events))
                  if (gi <= 0 <= gn and d >= 0) or (gi >= 0 >= gn and d <= 0)]
        if dense or active or done and interpolated_end:
            stages(_STAGES + 1, _TABLEAU.N_STAGES_EXTENDED)
            F = np.empty((7, y.size))
            F[0] = y_new - y
            F[1] = h * fy - F[0]
            F[2] = 2 * F[0] - h * (f_new + fy)
            F[3:] = h * np.dot(_TABLEAU.D, K_ext)
            Fs.append(F)

            def at(u):
                return _interpolant(F, y, (u - t) / h)
        if active:
            roots = np.array([brentq(lambda u: events[i][0](u, at(u)), t,
                                     t_new, 4 * np.finfo(float).eps)
                              for i in active])
            first = np.argsort(roots if direction > 0 else -roots)[0]
            ts.append(roots[first])
            ys.append(at(roots[first]))
            return end(event=active[first])
        ts.append(t_new)
        ys.append(at(t_new) if done and interpolated_end else y_new)
        if done:
            return end()
        t, y, fy, g = t_new, y_new, f_new, g_new


def dense_value(ivp: Ivp, t, k: int):
    """Component k of a dense dop853 run at t, a scalar or an array, with
    scipy OdeSolution's choice of step (a node takes the step that ends
    there, a point beyond an end the end step), for all points at once."""
    t, ts = np.asarray(t), ivp.t
    sign = 1.0 if ts[-1] >= ts[0] else -1.0
    seg = np.clip(np.searchsorted(sign * ts, sign * t) - 1, 0, ts.size - 2)
    return _interpolant(np.moveaxis(ivp.F[seg, :, k], -1, 0), ivp.y[k, seg],
                        (t - ts[seg]) / (ts[seg + 1] - ts[seg]))


def brentq(f, a, b, xtol):
    """A zero of f on [a, b], where f(a) and f(b) differ in sign, to
    within xtol + 4 eps |x|. Raises ValueError when they do not, and
    RuntimeError after 100 iterations without convergence, with scipy's
    messages."""
    rtol = 4 * np.finfo(float).eps
    xpre, xcur = a, b
    fpre, fcur = float(f(xpre)), float(f(xcur))
    xblk = fblk = spre = scur = 0.0
    if fpre == 0 or fcur == 0:
        return xpre if fpre == 0 else xcur
    if math.copysign(1, fpre) == math.copysign(1, fcur):
        raise ValueError("f(a) and f(b) must have different signs")
    for _ in range(100):
        if fpre != 0 and fcur != 0 and \
                math.copysign(1, fpre) != math.copysign(1, fcur):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0 or abs(sbis) < delta:
            return xcur
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:  # interpolate
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:  # extrapolate
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = -fcur * (fblk * dblk - fpre * dpre) \
                    / (dblk * dpre * (fblk - fpre))
            good = 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta)
        else:
            good = False
        spre, scur = (scur, stry) if good else (sbis, sbis)  # else bisect
        xpre, fpre = xcur, fcur
        xcur += scur if abs(scur) > delta else (delta if sbis > 0 else -delta)
        fcur = float(f(xcur))
    raise RuntimeError("Failed to converge after 100 iterations.")
