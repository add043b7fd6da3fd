"""Closed-form oracles for the benchmark's output checks.

Nothing here imports stillwave: every expected value is derived by hand
from the problem, so a check fails when the program is wrong, not when it
merely changed.

Flows solve U'' + omega(U) = 0, U(0) = 0, U'(0) = s, cut at the first
depth h with U(h) = 1. The first integral U'^2 + 2 Omega(U) = s^2 gives
the surface speed U'(h) = sqrt(s^2 - 2 Omega(1)) of a rising flow.
"""

from __future__ import annotations

import math

import numpy as np

# int_0^1 (1 - t^3)^(-1/2) dt, the depth integral of the quadratic family
CUBIC_DEPTH_INTEGRAL = (math.gamma(1.0 / 3.0) * math.gamma(0.5)
                        / (3.0 * math.gamma(5.0 / 6.0)))


def omega(family: str, b: float, R: float | None = None):
    """Vorticity omega(tau) as a numpy function (R only for the quadratic)."""
    if family == "constant":
        return lambda tau: np.full_like(np.asarray(tau, dtype=float), b)
    if family == "linear":
        return lambda tau: b * np.asarray(tau, dtype=float)
    if family == "quadratic_truncated":
        return lambda tau: b * np.minimum(np.abs(np.asarray(tau, dtype=float)),
                                          R) ** 2
    raise ValueError(f"no oracle for family {family!r}")


def least_still_depth(family: str, b: float) -> float:
    """Depth of the still flow of least depth, for b > 0.

    constant: sqrt(2/b); linear: pi / (2 sqrt(b)); quadratic (R > 1, so
    omega = b tau^2 on [0, 1]): sqrt(3 / (2b)) Gamma(1/3) Gamma(1/2) /
    (3 Gamma(5/6)).
    """
    if family == "constant":
        return math.sqrt(2.0 / b)
    if family == "linear":
        return math.pi / (2.0 * math.sqrt(b))
    if family == "quadratic_truncated":
        return math.sqrt(3.0 / (2.0 * b)) * CUBIC_DEPTH_INTEGRAL
    raise ValueError(f"no oracle for family {family!r}")


def spectral_margin(family: str, b: float, h: float,
                    R: float | None = None) -> float:
    """(pi/h)^2 - sup omega' over [0, 1]: {0, b, 2bR} by family."""
    sup = {"constant": 0.0, "linear": b,
           "quadratic_truncated": 2.0 * b * (R or 0.0)}[family]
    return (math.pi / h) ** 2 - sup


def still_profile(family: str, b: float, y):
    """Closed-form U of the least-depth still flow, or None.

    constant: U = sqrt(2b) y - b y^2 / 2; linear: U = sin(sqrt(b) y).
    The quadratic family has no elementary closed form.
    """
    y = np.asarray(y, dtype=float)
    if family == "constant":
        return math.sqrt(2.0 * b) * y - 0.5 * b * y ** 2
    if family == "linear":
        return np.sin(math.sqrt(b) * y)
    return None


def shear_flow(family: str, b: float, s: float) -> tuple[float, float]:
    """(h, U'(h)) of the flow with bed slope s, constant or linear omega.

    constant: U = s y - b y^2 / 2, h = (s - sqrt(s^2 - 2b)) / b.
    linear, m = sqrt(|b|): U = s sinh(m y)/m for b < 0, s sin(m y)/m for
    b > 0. In every case U'(h) = sqrt(s^2 - 2 Omega(1)).
    """
    if family == "constant":
        disc = s * s - 2.0 * b
        h = 1.0 / s if b == 0.0 else (s - math.sqrt(disc)) / b
        return h, math.sqrt(disc)
    if family == "linear":
        m = math.sqrt(abs(b))
        h = math.asinh(m / s) / m if b < 0 else math.asin(m / s) / m
        return h, math.sqrt(s * s - b)
    raise ValueError(f"no shear oracle for family {family!r}")


def dispersion_sigma(family: str, b: float, s: float, k):
    """sigma(k) = U'(h)^2 f'(h) - (1 - U'(h) omega(1)) f(h), vectorised in k.

    omega' is constant (0 or b), so the mode f'' = (k^2 - omega') f,
    f(0) = 0, f'(0) = 1 is sinh(kappa y)/kappa for kappa^2 = k^2 - omega'
    > 0, sin(kappa y)/kappa for kappa^2 < 0 and y at kappa = 0.
    """
    h, uy = shear_flow(family, b, s)
    wprime = 0.0 if family == "constant" else b
    k = np.asarray(k, dtype=float)
    kap2 = k * k - wprime
    kap = np.sqrt(np.abs(kap2))
    safe = np.where(kap > 0.0, kap, 1.0)
    f = np.where(kap2 > 0.0, np.sinh(kap * h) / safe,
                 np.where(kap2 < 0.0, np.sin(kap * h) / safe, h))
    fp = np.where(kap2 > 0.0, np.cosh(kap * h),
                  np.where(kap2 < 0.0, np.cos(kap * h), 1.0))
    return (uy * uy * fp - (1.0 - uy * b) * f)[()]


def bisect(fn, lo: float, hi: float, xtol: float = 1e-14) -> float:
    """Root of fn in [lo, hi] by bisection; fn must change sign there."""
    f_lo = fn(lo)
    if f_lo * fn(hi) > 0.0:
        raise ValueError(f"no sign change on [{lo}, {hi}]")
    while hi - lo > xtol:
        mid = 0.5 * (lo + hi)
        f_mid = fn(mid)
        if (f_mid <= 0.0) == (f_lo <= 0.0):
            lo, f_lo = mid, f_mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def dispersion_roots(family: str, b: float, s: float, k_lo: float = 0.0,
                     k_hi: float = 5.0, samples: int = 2001) -> list:
    """Zeros of the closed-form sigma on [k_lo, k_hi]: a sign scan on
    `samples` points, then bisection of every bracket."""
    ks = np.linspace(k_lo, k_hi, samples)
    sig = dispersion_sigma(family, b, s, ks)
    brackets = np.flatnonzero(np.sign(sig[:-1]) * np.sign(sig[1:]) < 0)
    return [bisect(lambda k: float(dispersion_sigma(family, b, s, k)),
                   float(ks[i]), float(ks[i + 1])) for i in brackets]


def column_residual(col: np.ndarray, depth: float, omega_fn) -> np.ndarray:
    """Discrete vertical equation of one psi column on ny + 1 q-nodes:
    second differences / (depth dq)^2 + omega, at the interior nodes."""
    col = np.asarray(col, dtype=float)
    dq = 1.0 / (col.shape[-1] - 1)
    return (np.diff(col, 2, axis=-1) / (depth * dq) ** 2
            + omega_fn(col[..., 1:-1]))
