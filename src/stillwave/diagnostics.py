"""Perturbation diagnostics around a stream solution.

A wave state close to a flat still flow decomposes as

    psi(x, q) = U(q eta(x)) + phi(x, q),        zeta = h - eta,

and phi splits further into the vertical-shear comparison field

    u(x, q) = (1 - U(eta(x))) q

(which absorbs the surface mismatch of U, and is quadratically small in
zeta because U'(h) = 0 for a still flow) and a remainder w = phi - u that
vanishes on both the bed and the surface. The functionals here measure w
and zeta in exponentially weighted norms localised near a station t: the
weight sums exp(-delta |t - x|) over all periodic copies, so the values
are translation-covariant and independent of where the period window was
cut. They are the computational faces of the energy estimates behind the
small-amplitude rigidity argument.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import DepthMismatch
from .stream import StreamSolution
from .vorticity import VorticityDistribution
from .wavesolver import (FLAT_TOL, StripGrid, WaveState,
                         _FlatBlocks, _difference_matrices, flat_state)

__all__ = [
    "PerturbationFields",
    "perturbation_fields",
    "windowed_norm",
    "weighted_energy",
    "surface_quartic_weighted",
    "trace_norm",
    "bernoulli_check",
    "default_decay_rate",
    "manufactured_fields",
    "quartic_scaling",
    "DiagnosticsReport",
    "diagnostics_report",
]


@dataclass
class PerturbationFields:
    """Deviation fields of a state relative to a stream solution."""

    state: WaveState
    grid: StripGrid    # the state's periodic grid
    ex: np.ndarray     # (nx,): discrete eta_x
    phi: np.ndarray    # (nx, ny+1): psi - U(q eta)
    zeta: np.ndarray   # (nx,): h - eta
    u: np.ndarray      # (nx, ny+1): (1 - U(eta)) q
    w: np.ndarray      # (nx, ny+1): phi - u; zero on bed and surface
    slope_sup: float   # sup |eta_x|
    amp_sup: float     # sup (h - eta), signed


def perturbation_fields(state: WaveState,
                        sol: StreamSolution) -> PerturbationFields:
    """Split a state into stream part and perturbation fields.

    Raises DepthMismatch when the state's mean depth is more than 50%
    away from the stream solution's depth; the decomposition is
    meaningless across such a gap.
    """
    h = sol.depth
    mean_eta = float(np.mean(state.eta))
    if abs(mean_eta - h) > 0.5 * h:
        raise DepthMismatch(
            f"state mean depth {mean_eta:.6g} vs stream depth {h:.6g}")

    q = state.q
    eta = state.eta
    y = q[None, :] * eta[:, None]
    Ugrid = np.asarray(sol.U(y.ravel()), dtype=float).reshape(y.shape)
    phi = state.psi - Ugrid
    zeta = h - eta
    surf_gap = 1.0 - np.asarray(sol.U(eta), dtype=float)
    u = surf_gap[:, None] * q[None, :]
    w = phi - u
    grid = StripGrid(state.period_L, state.nx, state.ny, "periodic")
    ex = grid.Dx @ eta
    return PerturbationFields(state=state, grid=grid, ex=ex,
                              phi=phi, zeta=zeta, u=u, w=w,
                              slope_sup=float(np.max(np.abs(ex))),
                              amp_sup=float(np.max(zeta)))


def windowed_norm(values: np.ndarray, t: float, p: float,
                  period_L: float) -> float:
    """L^p norm of the periodic extension of surface samples over the
    unit window (t, t+1).

    values are samples at x_i = i L / n; in between they are interpolated
    linearly, and |v|^p is integrated by the trapezoid rule on the
    partition made of the grid points inside the window plus both window
    endpoints.
    """
    if p < 1:
        raise ValueError("p must be at least 1")
    values = np.asarray(values, dtype=float)
    n = values.shape[0]
    if n < 2:
        raise ValueError("need at least two samples")
    dx = period_L / n

    lo, hi = float(t), float(t) + 1.0
    j0 = int(math.floor(lo / dx)) + 1
    j1 = int(math.ceil(hi / dx)) - 1
    pts = np.concatenate(([lo], np.arange(j0, j1 + 1) * dx, [hi]))
    pts = pts[(pts >= lo) & (pts <= hi)]

    xg = np.arange(n + 1) * dx
    vg = np.append(values, values[0])
    v = np.interp(np.mod(pts, period_L), xg, vg)
    integral = float(np.trapezoid(np.abs(v) ** p, pts))
    return integral ** (1.0 / p)


def _copy_weight(x: np.ndarray, t: float, delta: float,
                 period_L: float) -> np.ndarray:
    """Sum of exp(-delta |t - (x + m L)|) over periodic copies m.

    Copies are truncated once their peak contribution drops below 1e-16,
    which bounds the truncation by one part in 1e16 of the total.
    """
    if delta <= 0:
        raise ValueError("delta must be positive")
    span = -math.log(1e-16) / delta
    m_lo = int(math.floor((t - span - float(np.max(x))) / period_L))
    m_hi = int(math.ceil((t + span - float(np.min(x))) / period_L))
    ms = np.arange(m_lo, m_hi + 1)
    return np.exp(-delta * np.abs(t - (x[:, None] + ms[None, :] * period_L))).sum(axis=1)


def _physical_gradient(field: np.ndarray, fields: PerturbationFields):
    """Physical (d/dx, d/dy) of a mapped field f(x, q) on the grid of
    fields, with q = y / eta(x), by the chain rule."""
    grid, eta, ex = fields.grid, fields.state.eta, fields.ex
    fq = (grid.Dq @ field.T).T
    return (grid.Dx @ field - grid.q[None, :] * (ex / eta)[:, None] * fq,
            fq / eta[:, None])


def weighted_energy(fields: PerturbationFields, delta: float,
                    t: float = 0.0) -> float:
    """Exponentially weighted H^1-type energy of w over the fluid domain.

    integral of e^{-delta |t-x|} (w^2 + |grad w|^2) dy dx, evaluated in
    mapped coordinates (dy = eta dq, gradients via the chain rule) with
    trapezoid weights in q and the periodic-copy weight in x.
    """
    grid, w = fields.grid, fields.w
    wx, wy = _physical_gradient(w, fields)
    dens = w ** 2 + wx ** 2 + wy ** 2

    tq = np.full(grid.ny + 1, grid.dq)
    tq[0] = tq[-1] = 0.5 * grid.dq
    cols = (dens * tq[None, :]).sum(axis=1) * fields.state.eta
    W = _copy_weight(grid.x, t, delta, grid.period_L)
    return float(np.sum(W * cols) * grid.dx)


def surface_quartic_weighted(zeta: np.ndarray, delta: float, t: float,
                             period_L: float) -> float:
    """Weighted quartic surface functional
    integral of e^{-delta |t-x|} zeta^2 (zeta^2 + zeta_x^2) dx."""
    zeta = np.asarray(zeta, dtype=float)
    n = zeta.shape[0]
    dx = period_L / n
    zx = _difference_matrices(n, dx, "periodic")[0] @ zeta
    x = np.arange(n) * dx
    W = _copy_weight(x, t, delta, period_L)
    return float(np.sum(W * zeta ** 2 * (zeta ** 2 + zx ** 2)) * dx)


def _surface_normal_derivative(fields: PerturbationFields) -> np.ndarray:
    """Normal derivative of phi at the free surface."""
    ex = fields.ex
    fx, fy = _physical_gradient(fields.phi, fields)
    return (-ex * fx[:, -1] + fy[:, -1]) / np.sqrt(1.0 + ex ** 2)


def trace_norm(fields: PerturbationFields, t: float = 0.0) -> float:
    """Windowed L^2 norm of phi's normal derivative on the free surface."""
    return windowed_norm(_surface_normal_derivative(fields), t, 2.0,
                         fields.state.period_L)


def bernoulli_check(fields: PerturbationFields, sol: StreamSolution) -> float:
    """Sup defect of the still-surface Bernoulli identity

        sqrt(zeta) = |d_n phi + U_y(eta) / sqrt(1 + zeta_x^2)| / sqrt(2)

    on the free surface. zeta is clamped at zero under the square root;
    for a flat still state both sides vanish.
    """
    dn_phi = _surface_normal_derivative(fields)
    zx = fields.grid.Dx @ fields.zeta
    uy_eta = np.asarray(sol.Uy(fields.state.eta), dtype=float)
    rhs = np.abs(dn_phi + uy_eta / np.sqrt(1.0 + zx ** 2)) / math.sqrt(2.0)
    lhs = np.sqrt(np.clip(fields.zeta, 0.0, None))
    return float(np.max(np.abs(lhs - rhs)))


def default_decay_rate(sol: StreamSolution,
                       dist: VorticityDistribution) -> float:
    """Half the largest decay rate compatible with the spectral margin:
    delta = 0.5 sqrt(((pi/h)^2 - mu) / (5 + (pi/h)^2)).

    Raises ValueError when the margin is not positive (no admissible
    decay rate exists then).
    """
    h = sol.depth
    mu = float(dist.sup_derivative())
    num = (math.pi / h) ** 2 - mu
    if num <= 0:
        raise ValueError(
            f"no admissible decay rate: sup omega' = {mu:.6g} >= (pi/h)^2")
    return 0.5 * math.sqrt(num / (5.0 + (math.pi / h) ** 2))


def _solve_first_order_model(sol: StreamSolution, dist: VorticityDistribution,
                             zeta: np.ndarray, grid: StripGrid):
    """Linearised remainder problem on the flat strip 0 < y < h:

        laplace(w) + omega'(U) w = -(omega'(U) u + laplace(u)),

    periodic in x, w = 0 on both horizontal boundaries, with the data
    field u = (1 - U(h - zeta)) y / (h - zeta). The discrete Laplacian of
    u on the right is built with the same stencils as the operator, so w
    inherits exactly the quadratic smallness of the boundary data; zeta
    and the solution live on the periodic grid.
    """
    nx, ny = grid.nx, grid.ny
    h = sol.depth

    y = grid.q * h
    ucol = np.asarray(sol.U(y), dtype=float)
    wp_col = np.asarray(dist.derivative(ucol), dtype=float)

    eta = h - np.asarray(zeta, dtype=float)
    gap = (1.0 - np.asarray(sol.U(eta), dtype=float)) / eta
    u = gap[:, None] * y[None, :]

    lap_u = grid.Dxx @ u + ((grid.Dqq / h ** 2) @ u.T).T
    rhs = -(wp_col[None, :] * u + lap_u)[:, 1:ny]

    # the flat psi-block of the free-boundary Jacobian at depth h, one
    # tridiagonal block per rfft mode in x
    blocks = _FlatBlocks(grid, h ** -2.0, wp_col[1:ny])
    w_hat = blocks.solve(np.fft.rfft(rhs.T))
    w_int = np.fft.irfft(w_hat, nx).T

    w = np.zeros((nx, ny + 1))
    w[:, 1:ny] = w_int
    return w, u


def manufactured_fields(sol: StreamSolution, dist: VorticityDistribution,
                        amplitude: float, period_L: float,
                        nx: int = 64, ny: int = 48) -> PerturbationFields:
    """PerturbationFields for a cosine surface dip of the given amplitude
    with w from the first-order model (experimental probe).

    The surface is eta = h - zeta with zeta = amplitude cos(2 pi x / L);
    u comes from the exact surface gap and w solves the linearised
    remainder problem on the flat strip.
    """
    h = sol.depth
    grid = StripGrid(period_L, nx, ny, "periodic")
    zeta = amplitude * np.cos(2.0 * math.pi * grid.x / period_L)
    w, u = _solve_first_order_model(sol, dist, zeta, grid)

    base = flat_state(sol, dist, period_L, nx, ny)
    state = WaveState(period_L=period_L, nx=nx, ny=ny,
                      psi=base.psi + u + w, eta=h - zeta, r=base.r)
    ex = grid.Dx @ state.eta
    return PerturbationFields(state=state, grid=grid, ex=ex,
                              phi=u + w, zeta=zeta, u=u, w=w,
                              slope_sup=float(np.max(np.abs(ex))),
                              amp_sup=float(np.max(zeta)))


def quartic_scaling(sol: StreamSolution, dist: VorticityDistribution,
                    amplitudes, period_L: float = 2.0,
                    nx: int = 64, ny: int = 48) -> dict:
    """Energy-vs-amplitude study of the first-order remainder model.

    Returns amplitudes, weighted energies of w, the ratios energy /
    quartic surface functional, and the fitted log-log slope (4 when the
    surface gap is exactly quadratic in the amplitude). The weights are
    centred at t = 0 with the default decay rate.
    """
    delta = default_decay_rate(sol, dist)
    amps = [float(a) for a in amplitudes]
    energies = []
    ratios = []
    for a in amps:
        fields = manufactured_fields(sol, dist, a, period_L, nx=nx, ny=ny)
        e = weighted_energy(fields, delta, 0.0)
        s4 = surface_quartic_weighted(fields.zeta, delta, 0.0, period_L)
        energies.append(e)
        ratios.append(e / s4 if s4 > 0 else math.inf)
    slope = float(np.polyfit(np.log(amps), np.log(energies), 1)[0])
    return {"amplitudes": amps, "energies": energies, "ratios": ratios,
            "loglog_slope": slope, "delta": delta}


@dataclass
class DiagnosticsReport:
    t: float
    delta: float
    slope_sup: float
    amp_sup: float
    windowed_zeta: float
    energy: float
    surface_quartic: float
    energy_ratio: Optional[float]
    trace_phi: float
    bernoulli_defect: float


def diagnostics_report(state: WaveState, sol: StreamSolution,
                       dist: VorticityDistribution, t: float = 0.0,
                       delta: Optional[float] = None) -> DiagnosticsReport:
    """Evaluate all perturbation functionals of one state."""
    if delta is None:
        delta = default_decay_rate(sol, dist)
    fields = perturbation_fields(state, sol)
    energy = weighted_energy(fields, delta, t)
    quart = surface_quartic_weighted(fields.zeta, delta, t, state.period_L)
    # on a state flat to FLAT_TOL the ratio divides roundoff by roundoff
    flat = float(np.max(np.abs(fields.zeta))) < FLAT_TOL
    ratio = energy / quart if quart > 0 and not flat else None
    return DiagnosticsReport(
        t=float(t), delta=float(delta),
        slope_sup=fields.slope_sup, amp_sup=fields.amp_sup,
        windowed_zeta=windowed_norm(fields.zeta, t, 2.0, state.period_L),
        energy=energy, surface_quartic=quart, energy_ratio=ratio,
        trace_phi=trace_norm(fields, t),
        bernoulli_defect=bernoulli_check(fields, sol))
