"""Finite-difference solver for the steady free-boundary wave problem.

The unknowns are the stream function psi and the surface elevation eta
over one horizontal period, with

    psi_xx + psi_yy + omega(psi) = 0        in 0 < y < eta(x),
    psi = 0 on y = 0,   psi = 1 on y = eta(x),
    |grad psi|^2 + 2 eta = 3 r              on y = eta(x).

The strip is mapped onto a rectangle by q = y / eta(x), which turns the
Laplacian into a variable-coefficient operator

    Psi_xx + (1 + q^2 eta_x^2) / eta^2 Psi_qq
           - 2 q eta_x / eta Psi_xq
           + (2 q eta_x^2 / eta^2 - q eta_xx / eta) Psi_q,

discretized with second-order centered differences in both directions
(one-sided second-order stencils close the q boundary rows). Newton's
method with an exact sparse Jacobian drives the coupled system, and every
solve starts as chord steps on one reference Jacobian. Near-flat solves
use the flat-state Jacobian, built from one stream column and the depth
(_FlatSolver). It commutes with shifts in x and is solved mode by mode
after an rfft in x, through one eigendecomposition in q shared by every
mode and a Schur step on eta. A pinned-amplitude variant releases the
Bernoulli constant for continuation off a bifurcation point and runs its
chord steps on one SuperLU factor of the bordered Jacobian at its seed.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field
from functools import cache, cached_property, partial
from typing import Callable, NamedTuple, Optional

import numpy as np
import scipy.sparse as sp
from scipy.integrate import solve_ivp
from scipy.linalg import eigh_tridiagonal, solve_banded
from scipy.optimize import brentq
from scipy.sparse.linalg import splu

from .errors import (InvalidSweepCase, NewtonDiverged, StepFailure,
                     SurfaceCollapse)
from .hypotheses import HypothesisReport, check_hypotheses
from .stream import StreamSolution, _cauchy_rhs
from .vorticity import VorticityDistribution

_log = logging.getLogger("stillwave")

__all__ = [
    "StripGrid",
    "WaveState",
    "ResidualNorms",
    "NewtonResult",
    "SweepReport",
    "flat_state",
    "perturbed_state",
    "residual_norms",
    "residual_fields",
    "newton_solve",
    "nonexistence_sweep",
    "dispersion_sigma",
    "dispersion_mode",
    "find_bifurcation_points",
    "bifurcation_branch",
    "VERDICT_CONSISTENT",
    "VERDICT_NOT_APPLICABLE",
    "VERDICT_INCONSISTENT",
    "VERDICT_INCONCLUSIVE",
]

NEWTON_TOL = 1e-10
MAX_NEWTON_ITER = 40
MAX_HALVINGS = 8
# a chord step is kept only if it cuts max |F| at least this much
CHORD_CONTRACTION = 0.25
# max |h - eta| below which a state counts as the flat one
FLAT_TOL = 1e-8

VERDICT_CONSISTENT = "consistent with nonexistence prediction"
VERDICT_NOT_APPLICABLE = "hypotheses not applicable"
VERDICT_INCONSISTENT = "inconsistent: nontrivial state found"
VERDICT_INCONCLUSIVE = "inconclusive: solver failures"


def _difference_matrices(n: int, h: float, closure: str):
    """First and second difference matrices (CSR) on n nodes of spacing h.

    Inside, the three-point centered stencils. The end rows are closed by
    closure: "periodic" wraps the stencils around, "reflect" mirrors the
    nodes evenly about each end, f(-h) = f(h), so the first difference
    vanishes there, and "one-sided" uses second-order one-sided stencils.
    """
    c1, c2 = 1.0 / (2.0 * h), 1.0 / h ** 2
    if closure == "one-sided":
        ends = ((-3.0 * c1, 4.0 * c1, -c1),
                (2.0 * c2, -5.0 * c2, 4.0 * c2, -c2))
    else:
        ends = ((), (-2.0 * c2, 2.0 * c2))
    width = 4 if closure == "one-sided" else 3
    if n < width:
        raise ValueError(f"{closure} stencils need at least {width} nodes")
    mats = []
    # row 0 takes its end stencil at offsets 0, 1, ...; row n-1 the mirror
    # image at offsets 0, -1, ..., with the sign flipped for D1
    for centered, end, sign in (((-c1, 0.0, c1), ends[0], -1.0),
                                ((c2, -2.0 * c2, c2), ends[1], 1.0)):
        diags = {k: np.full(n - abs(k), v)
                 for k, v in zip((-1, 0, 1), centered)}
        if closure == "periodic":
            diags[n - 1], diags[1 - n] = [centered[0]], [centered[2]]
        else:
            # the end stencils replace the centered one in the end rows
            diags[0][[0, -1]] = diags[1][0] = diags[-1][-1] = 0.0
            for k, v in enumerate(end):
                diags.setdefault(k, np.zeros(n - k))[0] = v
                diags.setdefault(-k, np.zeros(n - k))[-1] = sign * v
        offsets = sorted(diags)
        D = sp.diags([diags[k] for k in offsets], offsets, shape=(n, n),
                     format="csr")
        D.eliminate_zeros()
        mats.append(D)
    return tuple(mats)


class StripGrid:
    """Difference operators on the mapped rectangle.

    topology "periodic": nx nodes cover one full period, spacing L / nx,
    with circulant x-stencils. topology "reflect": nx nodes cover half a
    period [0, L/2] endpoints included, with even reflection closing the
    x-stencils; this is the natural grid for waves with a crest at x = 0
    and a trough at x = L/2.
    """

    def __init__(self, period_L: float, nx: int, ny: int,
                 topology: str = "periodic"):
        if period_L <= 0:
            raise ValueError("period_L must be positive")
        if topology not in ("periodic", "reflect"):
            raise ValueError(f"unknown topology {topology!r}")
        if nx < 4 or ny < 4:
            raise ValueError("need nx >= 4 and ny >= 4")
        self.period_L = float(period_L)
        self.nx = int(nx)
        self.ny = int(ny)
        self.topology = topology

        self.dx = (self.period_L / nx if topology == "periodic"
                   else (self.period_L / 2.0) / (nx - 1))
        self.x = np.arange(nx) * self.dx
        self.dq = 1.0 / ny
        self.q = np.linspace(0.0, 1.0, ny + 1)

        self.Dx, self.Dxx = _difference_matrices(nx, self.dx, topology)
        self.Dq, self.Dqq = _difference_matrices(ny + 1, self.dq, "one-sided")

    @cached_property
    def _jacobian_factors(self):
        """Constant factors of the Jacobian, built on the first assembly:
        Dxx, Dqq, Dx Dq and Dq of the psi-block on interior nodes, E, E Dx
        and E Dxx of the eta-block (E spreads each x node over its interior
        rows), and S, the surface row of Dq on interior columns."""
        inner = slice(1, self.ny)
        Dq, Dqq = self.Dq[inner, inner], self.Dqq[inner, inner]
        Ix = sp.identity(self.nx, format="csr")
        col = np.ones((self.ny - 1, 1))
        return (sp.kron(self.Dxx, sp.identity(self.ny - 1, format="csr"),
                        format="csr"),
                sp.kron(Ix, Dqq, format="csr"),
                sp.kron(self.Dx, Dq, format="csr"),
                sp.kron(Ix, Dq, format="csr"),
                *(sp.kron(D, col, format="csr")
                  for D in (Ix, self.Dx, self.Dxx)),
                sp.kron(Ix, self.Dq[-1:, inner], format="csr"))


@dataclass(eq=False)
class WaveState:
    """One periodic steady state: psi on the mapped grid, eta, and r.

    psi has shape (nx, ny + 1) with q running along the second axis;
    eta has shape (nx,). period_L is the full horizontal period even
    when the state was produced on a half-period grid.
    """

    period_L: float
    nx: int
    ny: int
    psi: np.ndarray
    eta: np.ndarray
    r: float

    def __post_init__(self):
        self.psi = np.asarray(self.psi, dtype=float)
        self.eta = np.asarray(self.eta, dtype=float)
        self.validate()

    def validate(self):
        if self.period_L <= 0:
            raise ValueError("period_L must be positive")
        if self.psi.shape != (self.nx, self.ny + 1):
            raise ValueError(
                f"psi shape {self.psi.shape} != ({self.nx}, {self.ny + 1})")
        if self.eta.shape != (self.nx,):
            raise ValueError(f"eta shape {self.eta.shape} != ({self.nx},)")
        if not (np.isfinite(self.psi).all() and np.isfinite(self.eta).all()
                and math.isfinite(self.r)):
            raise ValueError("state contains non-finite entries")
        if np.any(self.eta <= 0):
            raise ValueError("eta must be strictly positive")

    @property
    def x(self) -> np.ndarray:
        return np.arange(self.nx) * (self.period_L / self.nx)

    @property
    def q(self) -> np.ndarray:
        return np.linspace(0.0, 1.0, self.ny + 1)

    @classmethod
    def from_dict(cls, d: dict) -> "WaveState":
        try:
            return cls(period_L=float(d["period_L"]), nx=int(d["nx"]),
                       ny=int(d["ny"]), psi=np.asarray(d["psi"], dtype=float),
                       eta=np.asarray(d["eta"], dtype=float), r=float(d["r"]))
        except (KeyError, TypeError) as exc:
            raise ValueError(f"missing or bad state field: {exc}") from exc


class ResidualNorms(NamedTuple):
    pde: float
    bottom: float
    top: float
    bernoulli: float

    def max(self) -> float:
        return max(self)


@dataclass
class NewtonResult:
    state: WaveState
    iterations: int
    norms: ResidualNorms


@dataclass
class SweepReport:
    verdict: str
    hypothesis: HypothesisReport
    cases: list = field(default_factory=list)


def _polish_flat_column(col: np.ndarray, h: float, ny: int,
                        dist: VorticityDistribution) -> np.ndarray:
    """Newton-polish a sampled stream profile into the exact solution of
    the discrete vertical system (second differences over h^2 plus omega).

    Sampled ODE values sit within a hair of the discrete solution, but
    the 1/dq^2 amplification of the second difference turns that hair
    into a visible collocation residual; two or three Newton steps on the
    1-D system remove it. Second differences are evaluated by nested
    np.diff, which keeps the cancellation clean near the roundoff floor.
    """
    if ny < 3:
        raise ValueError("one-sided q stencils need at least 4 nodes")
    dq = 1.0 / ny
    col = col.copy()
    col[0], col[-1] = 0.0, 1.0
    # the m = 0 block of the flat psi-block, as LAPACK's banded storage
    bands = np.full((3, ny - 1), 1.0 / dq ** 2 / h ** 2)
    best = col.copy()
    best_norm = math.inf
    for _ in range(12):
        G = np.diff(col, 2) / (dq * h) ** 2 \
            + np.asarray(dist.omega(col[1:ny]), dtype=float)
        norm = float(np.max(np.abs(G)))
        if norm < best_norm:
            best_norm = norm
            best = col.copy()
        if norm <= 1e-13:
            break
        bands[1] = (np.asarray(dist.derivative(col[1:ny]), dtype=float)
                    - 2.0 * bands[0])
        try:
            step = solve_banded((1, 1), bands, -G, check_finite=False)
        except np.linalg.LinAlgError:
            break
        if not np.all(np.isfinite(step)):
            break
        col[1:ny] += step
    return best


def flat_state(sol: StreamSolution, dist: VorticityDistribution,
               period_L: float, nx: int, ny: int) -> WaveState:
    """The stream solution written as a periodic wave state (eta = h).

    The column is polished into the exact discrete vertical solution and
    r is set from the discrete surface derivative, so the returned state
    is a fixed point of newton_solve up to roundoff.
    """
    h = sol.depth
    q = np.linspace(0.0, 1.0, ny + 1)
    col = np.asarray(sol.U(q * h), dtype=float)
    col = _polish_flat_column(col, h, ny, dist)
    psi = np.tile(col, (nx, 1))
    eta = np.full(nx, h)
    dq = 1.0 / ny
    pq_s = (3.0 * col[-1] - 4.0 * col[-2] + col[-3]) / (2.0 * dq)
    r = ((pq_s / h) ** 2 + 2.0 * h) / 3.0
    return WaveState(period_L=float(period_L), nx=nx, ny=ny, psi=psi,
                     eta=eta, r=r)


def perturbed_state(sol: StreamSolution, dist: VorticityDistribution,
                    period_L: float, nx: int, ny: int,
                    amplitude: float, mode: int = 1) -> WaveState:
    """Flat state with a cosine ripple of the given amplitude on eta."""
    state = flat_state(sol, dist, period_L, nx, ny)
    state.eta = _rippled(state, amplitude, mode)
    state.validate()
    return state


def _rippled(state: WaveState, amplitude: float, mode: int = 1) -> np.ndarray:
    """state.eta plus a cosine ripple of the given amplitude and mode."""
    k = 2.0 * math.pi * mode / state.period_L
    return state.eta + amplitude * np.cos(k * state.x)


class _ResidualParts(NamedTuple):
    """Residual rows of one state and the derivatives its Jacobian reuses."""
    pde: np.ndarray        # (nx, ny - 1), interior collocation rows
    bern: np.ndarray       # (nx,)
    bottom: np.ndarray     # (nx,)
    top: np.ndarray        # (nx,)
    ex: np.ndarray         # (nx,), discrete eta_x
    exx: np.ndarray        # (nx,), discrete eta_xx
    pq: np.ndarray         # (nx, ny + 1), Psi_q
    pqq: np.ndarray        # (nx, ny + 1), Psi_qq
    pxq: np.ndarray        # (nx, ny + 1), Psi_xq


def _residual_parts(psi, eta, r, grid: StripGrid,
                    dist: VorticityDistribution) -> _ResidualParts:
    ny = grid.ny
    q = grid.q[None, :]
    ex = grid.Dx @ eta
    exx = grid.Dxx @ eta
    inv_eta = 1.0 / eta[:, None]

    pxx = grid.Dxx @ psi
    pq = (grid.Dq @ psi.T).T
    pqq = (grid.Dqq @ psi.T).T
    pxq = (grid.Dq @ (grid.Dx @ psi).T).T

    c_qq = (1.0 + (q * ex[:, None]) ** 2) * inv_eta ** 2
    c_xq = -2.0 * q * ex[:, None] * inv_eta
    c_q = q * (2.0 * (ex[:, None] * inv_eta) ** 2 - exx[:, None] * inv_eta)

    lap = pxx + c_qq * pqq + c_xq * pxq + c_q * pq
    pde = lap[:, 1:ny] + np.asarray(dist.omega(psi[:, 1:ny]), dtype=float)

    bern = (1.0 + ex ** 2) * (pq[:, ny] / eta) ** 2 + 2.0 * eta - 3.0 * r
    return _ResidualParts(pde=pde, bern=bern, bottom=psi[:, 0],
                          top=psi[:, ny] - 1.0, ex=ex, exx=exx, pq=pq,
                          pqq=pqq, pxq=pxq)


def _residual_vec(parts: _ResidualParts) -> np.ndarray:
    """F = [pde rows; bernoulli rows], the rows Newton drives to zero."""
    return np.concatenate([parts.pde.ravel(), parts.bern])


def _norms(parts: _ResidualParts) -> ResidualNorms:
    return ResidualNorms(*(float(np.max(np.abs(a))) for a in
                           (parts.pde, parts.bottom, parts.top, parts.bern)))


def residual_fields(state: WaveState, dist: VorticityDistribution) -> dict:
    """Pointwise residuals of a state on its own grid (periodic topology)."""
    grid = StripGrid(state.period_L, state.nx, state.ny, "periodic")
    parts = _residual_parts(state.psi, state.eta, state.r, grid, dist)
    return {"pde": parts.pde, "bernoulli": parts.bern,
            "bottom": parts.bottom, "top": parts.top}


def residual_norms(state: WaveState, dist: VorticityDistribution) -> ResidualNorms:
    grid = StripGrid(state.period_L, state.nx, state.ny, "periodic")
    return _norms(_residual_parts(state.psi, state.eta, state.r, grid, dist))


def _factor(A):
    """SuperLU factor of A with a minimum-degree ordering on A^T + A, which
    on the strip Jacobians makes about half the fill of the default COLAMD.
    Raises RuntimeError when A is exactly singular."""
    return splu(A.tocsc(), permc_spec="MMD_AT_PLUS_A")


def _assemble_jacobian(psi, eta, parts: _ResidualParts, grid: StripGrid,
                       dist, pin: Optional[tuple] = None):
    """Jacobian of [pde rows; bernoulli rows] wrt [interior psi; eta], exact
    and sparse. The psi-block is K_xx + diag(c_qq) K_qq + diag(c_xq) K_xq
    + diag(c_q) K_q + diag(omega'(Psi)). A pde row depends on eta only
    through eta, eta_x and eta_xx at its own x node, so the eta-block is
    diag(d_eta) E + diag(d_ex) E_x + diag(d_exx) E_xx, with d_* the
    derivatives of c_qq, c_xq and c_q times the Psi terms they scale (E
    spreads each x node over its interior rows). The Bernoulli rows are
    diag(bern_psi) S and diag(bern_eta) + diag(bern_ex) Dx. With pin =
    (index, value) the system is bordered: r joins the unknowns and the
    equation eta[index] = value joins the rows.
    """
    nx, inner = grid.nx, slice(1, grid.ny)
    K_xx, K_qq, K_xq, K_q, E, E_x, E_xx, S = grid._jacobian_factors
    ex, exx, pq, pqq, pxq = parts.ex, parts.exx, parts.pq, parts.pqq, parts.pxq
    q = grid.q[None, :]
    inv_eta = 1.0 / eta[:, None]
    qe = q * ex[:, None] * inv_eta
    metric = 1.0 + (q * ex[:, None]) ** 2
    pq_s = pq[:, grid.ny]
    s2 = (pq_s / eta) ** 2

    def diag(coef):  # of a coefficient on the interior nodes
        return sp.diags(coef[:, inner].ravel())

    J_pp = (K_xx + diag(metric * inv_eta ** 2) @ K_qq
            + diag(-2.0 * qe) @ K_xq
            + diag(q * (2.0 * (ex[:, None] * inv_eta) ** 2
                        - exx[:, None] * inv_eta)) @ K_q
            + sp.diags(np.asarray(dist.derivative(psi[:, inner]),
                                  dtype=float).ravel()))
    # a diags() product would drop S's entries where pq_s = 0
    J_bp = S.multiply((2.0 * (1.0 + ex ** 2) * pq_s / eta ** 2)[:, None])
    J_pe = (diag(-2.0 * metric * inv_eta ** 3 * pqq
                 + 2.0 * qe * inv_eta * pxq
                 + q * (exx[:, None] - 4.0 * ex[:, None] ** 2 * inv_eta)
                 * inv_eta ** 2 * pq) @ E
            + diag(2.0 * q * qe * inv_eta * pqq - 2.0 * q * inv_eta * pxq
                   + 4.0 * qe * inv_eta * pq) @ E_x
            + diag(-q * inv_eta * pq) @ E_xx)
    J_be = (sp.diags(2.0 - 2.0 * (1.0 + ex ** 2) * s2 / eta)
            + sp.diags(2.0 * ex * s2) @ grid.Dx)

    if pin is None:
        return sp.bmat([[J_pp, J_pe], [J_bp, J_be]], format="csr")
    r_col = sp.csr_matrix(np.full((nx, 1), -3.0))
    pin_row = sp.csr_matrix(([1.0], ([0], [pin[0]])), shape=(1, nx))
    return sp.bmat([[J_pp, J_pe, None], [J_bp, J_be, r_col],
                    [None, pin_row, None]], format="csr")


def _dxx_symbol(grid: StripGrid) -> np.ndarray:
    """Eigenvalues of the periodic Dxx on the rfft modes m = 0 .. nx//2."""
    m = np.arange(grid.nx // 2 + 1)
    return -(2.0 - 2.0 * np.cos(2.0 * math.pi * m / grid.nx)) / grid.dx ** 2


class _FlatBlocks:
    """The blocks T_m = A + lam_m I of the psi-block at an x-independent
    state, one per rfft mode m = 0 .. nx//2 (lam_m: the symbol of Dxx),
    with A = c Dqq + diag(wprime) on the interior q nodes. c_qq = c is the
    same on every node of such a state, so A is symmetric tridiagonal and
    one eigendecomposition A = V diag(mu) V^T diagonalises every block
    (the fast diagonalisation of Lynch, Rice & Thomas, Numer. Math. 6,
    1964): T_m^-1 = V diag(1 / (mu + lam_m)) V^T, with no pivots. Raises
    RuntimeError when some mu_i + lam_m vanishes to roundoff."""

    def __init__(self, grid: StripGrid, c: float, wprime):
        Dqq = grid.Dqq[1:grid.ny, 1:grid.ny]
        mu, self.V = eigh_tridiagonal(c * Dqq.diagonal() + wprime,
                                      c * Dqq.diagonal(1))
        lam = _dxx_symbol(grid)
        self.denom = mu[:, None] + lam
        if np.any(np.abs(self.denom) <= np.finfo(float).eps
                  * (np.max(np.abs(mu)) + np.abs(lam))):
            raise RuntimeError("flat Jacobian is singular: a Fourier block "
                               "is singular")

    def solve(self, rhs):
        """T_m^-1 rhs[:, m] for every mode m; rhs is (ny - 1, nx//2 + 1),
        real or complex."""
        return self.V @ ((self.V.T @ rhs) / self.denom)


class _FlatSolver:
    """The Jacobian at the x-independent state of stream column col and
    depth h, solved mode by mode in x.

    That Jacobian commutes with shifts in x (Strang, Stud. Appl. Math. 74,
    1986; Chan, SIAM J. Sci. Stat. Comput. 9, 1988): after an rfft in x,
    mode m holds T_m bordered by the eta column d_eta + lam_m d_exx, the
    Bernoulli row bern_psi S and the corner bern_eta, the coefficients of
    _assemble_jacobian that survive eta_x = eta_xx = Psi_x = 0. They are
    built from Psi_q = Dq col and Psi_qq = Dqq col in that function's order
    of operations, on numpy arrays (whose powers round unlike Python's),
    so each is bit-identical to the assembly's at the tiled state. The
    build keeps the blocks (_FlatBlocks), Y_m = T_m^-1 (eta column) and
    the Schur complements bern_eta - bern_psi S Y_m, and raises
    RuntimeError when a block is singular or a Schur complement vanishes
    to roundoff. A solve is an rfft, one block solve, the Schur step and
    an irfft.
    """

    def __init__(self, col, h, grid: StripGrid, dist):
        self.nx = grid.nx
        inner = slice(1, grid.ny)
        q = grid.q[inner]
        pq, pqq = grid.Dq @ col, grid.Dqq @ col
        pq_s = pq[grid.ny]
        eta = np.full(1, h)
        inv_eta = 1.0 / eta
        self.blocks = _FlatBlocks(grid, inv_eta ** 2, np.asarray(
            dist.derivative(col[inner]), dtype=float))
        bern_psi = 2.0 * pq_s / eta ** 2
        bern_eta = 2.0 - 2.0 * (pq_s / eta) ** 2 / eta
        self.border = bern_psi * grid.Dq[-1, inner].toarray()[0]
        column = ((-2.0 * inv_eta ** 3 * pqq[inner])[:, None]
                  + (-q * inv_eta * pq[inner])[:, None] * _dxx_symbol(grid))
        self.Y = self.blocks.solve(column)
        self.schur = bern_eta - self.border @ self.Y
        if not np.all(np.abs(self.schur)
                      > np.finfo(float).eps * np.abs(bern_eta)):
            raise RuntimeError("flat Jacobian is singular: a Schur "
                               "complement vanishes")

    def solve(self, b):
        nx = self.nx
        n_int = b.size - nx
        f = np.empty((n_int // nx + 1, nx))
        f[:-1], f[-1] = b[:n_int].reshape(nx, -1).T, b[n_int:]
        f = np.fft.rfft(f)
        z = self.blocks.solve(f[:-1])
        f[-1] = (f[-1] - self.border @ z) / self.schur
        f[:-1] = z - self.Y * f[-1]
        out = np.fft.irfft(f, nx)
        return np.concatenate([out[:-1].T.ravel(), out[-1]])


def _newton_core(psi, eta, r, grid: StripGrid, dist, tol, max_iter,
                 pin: Optional[tuple] = None,
                 reference: Optional[Callable] = None):
    """Damped Newton on the reduced unknowns. Returns psi, eta, r, the
    iteration count and the residual parts of that final state.

    Boundary rows of psi are held exact throughout; with pin the
    Bernoulli constant r is released and eta[pin0] = pin1 is enforced.

    reference, when given, is called before the first step for a solver
    (an object with solve: a _FlatSolver or a SuperLU factor) of a
    Jacobian near the solution, and the iteration starts as the chord
    method on it (Kelley, Iterative Methods for Linear and Nonlinear
    Equations, SIAM 1995, ch. 5): dz = -lu.solve(F), full
    steps only. A chord step is accepted when it keeps the surface
    positive and reaches tol or contracts max|F| by CHORD_CONTRACTION.
    Otherwise, and when reference raises RuntimeError (an exactly singular
    Jacobian), that same iteration and every later one take the exact
    damped Newton step, so a failed chord trial costs a solve and a
    residual evaluation, never an iteration. Both fallbacks are logged at
    debug level.
    """
    nx, ny = grid.nx, grid.ny
    n_int = nx * (ny - 1)
    psi = psi.copy()
    eta = eta.copy()
    psi[:, 0] = 0.0
    psi[:, ny] = 1.0

    def evaluate(ps, et, rr):
        parts = _residual_parts(ps, et, rr, grid, dist)
        F = _residual_vec(parts)
        if pin is not None:
            F = np.append(F, et[pin[0]] - pin[1])
        return parts, F, float(np.max(np.abs(F)))

    def trial(dz, alpha):
        """The state z + alpha dz with its residual, or None when its
        surface is not positive."""
        eta_t = eta + alpha * dz[n_int:n_int + nx]
        if np.min(eta_t) <= 0.0:
            return None
        psi_t = psi.copy()
        psi_t[:, 1:ny] += alpha * dz[:n_int].reshape(nx, ny - 1)
        r_t = r + alpha * (float(dz[-1]) if pin is not None else 0.0)
        return (psi_t, eta_t, r_t, *evaluate(psi_t, eta_t, r_t))

    parts, F, norm = evaluate(psi, eta, r)
    lu = None

    for it in range(max_iter):
        if norm <= tol:
            return psi, eta, r, it, parts
        if reference is not None:
            try:
                lu = reference()
            except RuntimeError as exc:
                _log.debug("singular chord reference (%s): exact steps only",
                           exc)
            reference = None
        if lu is not None:
            new = trial(lu.solve(-F), 1.0)
            if new is not None and (new[-1] <= tol
                                    or new[-1] <= CHORD_CONTRACTION * norm):
                psi, eta, r, parts, F, norm = new
                continue
            # after = nan: the chord step drove the surface nonpositive
            _log.debug("chord step rejected at iteration %d: max|F| %.3g -> "
                       "%.3g; exact steps from here", it, norm,
                       math.nan if new is None else new[-1])
            lu = None
        J = _assemble_jacobian(psi, eta, parts, grid, dist, pin=pin)
        try:
            dz = _factor(J).solve(-F)
        except RuntimeError as exc:
            raise NewtonDiverged(f"singular Jacobian ({exc})") from exc
        if not np.all(np.isfinite(dz)):
            raise NewtonDiverged("singular Jacobian (non-finite Newton step)")

        alpha = 1.0
        collapse_only = True
        for _ in range(MAX_HALVINGS + 1):
            new = trial(dz, alpha)
            if new is not None:
                collapse_only = False
                if new[-1] < norm or new[-1] <= tol:
                    psi, eta, r, parts, F, norm = new
                    break
            alpha *= 0.5
        else:
            if collapse_only:
                raise SurfaceCollapse(
                    f"every damped step drove the surface nonpositive "
                    f"(min eta + d = "
                    f"{float(np.min(eta + dz[n_int:n_int + nx])):.3g})")
            raise NewtonDiverged(
                f"line search stalled at iteration {it} (residual {norm:.3g})")

    if norm <= tol:
        return psi, eta, r, max_iter, parts
    raise NewtonDiverged(
        f"no convergence in {max_iter} iterations (residual {norm:.3g})")


def newton_solve(state: WaveState, dist: VorticityDistribution,
                 tol: float = NEWTON_TOL,
                 max_iter: int = MAX_NEWTON_ITER) -> NewtonResult:
    """Solve the free-boundary system from the given initial state.

    The Bernoulli constant r is held fixed at state.r. The steps start as
    chord steps on the Jacobian at the x-average of the initial state,
    which for a perturbed_state is the flat state to roundoff. That
    Jacobian is solved through its Fourier blocks (a _FlatSolver of the
    mean column and mean depth, with no sparse factorization), built only
    if a step is needed, and a chord step that does not contract hands
    the solve to exact Newton (see _newton_core). Raises NewtonDiverged
    or SurfaceCollapse on failure.
    """
    grid = StripGrid(state.period_L, state.nx, state.ny, "periodic")
    reference = partial(_FlatSolver, state.psi.mean(axis=0),
                        state.eta.mean(), grid, dist)
    psi, eta, r, its, parts = _newton_core(
        state.psi, state.eta, state.r, grid, dist, tol, max_iter,
        reference=reference)
    out = WaveState(period_L=state.period_L, nx=state.nx, ny=state.ny,
                    psi=psi, eta=eta, r=r)
    return NewtonResult(state=out, iterations=its, norms=_norms(parts))


def nonexistence_sweep(sol: StreamSolution, dist: VorticityDistribution,
                       amplitudes, wavelengths, slope_cap: float,
                       nx: int = 64, ny: int = 32,
                       amplitude_cap: Optional[float] = None,
                       flat_tol: float = FLAT_TOL) -> SweepReport:
    """Perturb the flat state over an (amplitude, wavelength) grid and
    record whether Newton falls back to flat.

    Every case must respect the slope cap (2 pi a / L as proxy for the
    seeded surface slope) and the amplitude cap (default a tenth of the
    depth); a violating case raises InvalidSweepCase rather than running
    an experiment outside the hypothesis regime. flat_tol must be a
    positive finite number (ValueError otherwise). Both are checked
    before any solve.

    One loop runs over the distinct wavelengths. For each it builds the
    grid and the flat state, and solves every distinct amplitude by chord
    Newton on the Fourier-block solver of the flat-state Jacobian
    (_FlatSolver of the flat column and h, no sparse factorization),
    built on the first case that takes a step (exact Newton where a chord
    step does not contract or the Jacobian is singular; see _newton_core).
    The cache keeps no exception, so a singular build is retried, and
    logged, on each case. Entries come back in sorted (amplitude,
    wavelength) order, duplicates included.
    """
    if not 0.0 < flat_tol < math.inf:
        raise ValueError(
            f"flat_tol must be a positive finite number, got {flat_tol!r}")
    h = sol.depth
    if amplitude_cap is None:
        amplitude_cap = 0.1 * h
    cases = [(float(a), float(L)) for a in sorted(amplitudes)
             for L in sorted(wavelengths)]
    for a, L in cases:
        if a <= 0 or L <= 0:
            raise InvalidSweepCase(f"case (a={a}, L={L}): must be positive")
        if a >= amplitude_cap:
            raise InvalidSweepCase(
                f"case (a={a}, L={L}): amplitude exceeds cap {amplitude_cap:.6g}")
        if 2.0 * math.pi * a / L > slope_cap:
            raise InvalidSweepCase(
                f"case (a={a}, L={L}): seeded slope {2 * math.pi * a / L:.6g} "
                f"exceeds cap {slope_cap:.6g}")

    report = check_hypotheses(dist, sol, slope_cap)
    solved = {}
    for L in dict.fromkeys(L for _, L in cases):
        grid = StripGrid(L, nx, ny, "periodic")
        flat = flat_state(sol, dist, L, nx, ny)
        reference = cache(partial(_FlatSolver, flat.psi[0], h, grid, dist))
        for a in dict.fromkeys(a for a, _ in cases):
            entry = {"amplitude": a, "wavelength": L,
                     "converged_to_flat": False, "final_max_zeta": math.nan,
                     "newton_iterations": 0, "error": None}
            try:
                _, eta, _, its, _ = _newton_core(
                    flat.psi, _rippled(flat, a), flat.r, grid, dist,
                    NEWTON_TOL, MAX_NEWTON_ITER, reference=reference)
                zeta_max = float(np.max(np.abs(h - eta)))
                entry["final_max_zeta"] = zeta_max
                entry["converged_to_flat"] = zeta_max < flat_tol
                entry["newton_iterations"] = its
            except (NewtonDiverged, SurfaceCollapse) as exc:
                entry["error"] = f"{type(exc).__name__}: {exc}"
            solved[a, L] = entry
    entries = [dict(solved[c]) for c in cases]

    if not report.applicable:
        verdict = VERDICT_NOT_APPLICABLE
    elif any(e["error"] is None and not e["converged_to_flat"]
             for e in entries):
        verdict = VERDICT_INCONSISTENT
    elif any(e["error"] is not None for e in entries):
        verdict = VERDICT_INCONCLUSIVE
    else:
        verdict = VERDICT_CONSISTENT
    return SweepReport(verdict=verdict, hypothesis=report, cases=entries)


def _dispersion_solve(sol: StreamSolution, dist: VorticityDistribution,
                      ks, dense_output: bool = False):
    """Jointly integrate the stream profile and the transverse modes of
    every wavenumber in ks.

    The state is [U, U_y, f_1..f_n, f'_1..f'_n]. Each f_i solves
    f'' + (omega'(U) - k_i^2) f = 0, f(0) = 0, f'(0) = 1, riding on the
    exact U of the flow, up to the surface y = h. The mode equation is
    linear and k enters only through k^2, so one integration serves them
    all. out.y holds only the surface values; dense_output adds the
    interpolant over [0, h]. Raises ValueError when some k^2 is not
    finite, which the step control would never get past, and StepFailure
    when the integrator fails.
    """
    ksq = np.asarray(ks, dtype=float).ravel() ** 2
    if not np.all(np.isfinite(ksq)):
        raise ValueError(f"wavenumbers must have finite squares, got {ks!r}")
    n = ksq.size
    cauchy = _cauchy_rhs(dist)

    def rhs(y, st):
        fpp = (ksq - float(dist.derivative(st[0]))) * st[2:2 + n]
        return np.concatenate((cauchy(y, st), st[2 + n:], fpp))

    h = sol.depth
    y0 = np.concatenate(((0.0, float(sol.profile.s)), np.zeros(n), np.ones(n)))
    # overflow in a failing step surfaces as the StepFailure below, not as
    # numpy warnings ahead of it
    with np.errstate(over="ignore", invalid="ignore"):
        out = solve_ivp(rhs, (0.0, h), y0, method="DOP853", rtol=1e-12,
                        atol=1e-14, t_eval=(h,), dense_output=dense_output)
    if not out.success:
        raise StepFailure(f"dispersion integration failed: {out.message}")
    return out


def dispersion_sigma(sol: StreamSolution, dist: VorticityDistribution, k):
    """Boundary functional whose zeros mark linear bifurcation points.

    sigma(k) = U_y(h)^2 f'(h) - (1 + U_y(h) U_yy(h)) f(h), with U_yy(h)
    = -omega(1). For a still flow it reduces to -f(h), strictly negative
    while f keeps its sign on (0, h].

    k is one wavenumber (giving a scalar) or an array (giving k's shape),
    all read off one integration. The step control sees every mode at
    once, so values agree with one-wavenumber integrations to the
    integrator's tolerance, not bit for bit.
    """
    ks = np.asarray(k, dtype=float)
    end = _dispersion_solve(sol, dist, ks).y[:, -1]
    uy_h, (f_h, fp_h) = end[1], np.split(end[2:], 2)
    sig = uy_h ** 2 * fp_h - (1.0 - uy_h * float(dist.omega(1.0))) * f_h
    return sig.reshape(ks.shape)[()]


def dispersion_mode(sol: StreamSolution, dist: VorticityDistribution,
                    k: float):
    """Dense-output callable y -> f(y) for the transverse mode, plus h."""
    out = _dispersion_solve(sol, dist, [k], dense_output=True)

    def f(y):
        return out.sol(y)[2]

    return f, sol.depth


def find_bifurcation_points(sol: StreamSolution, dist: VorticityDistribution,
                            k_min: float = 0.0, k_max: float = 5.0,
                            scan_points: int = 201) -> np.ndarray:
    """Zeros of the dispersion functional in [k_min, k_max].

    One dispersion_sigma call evaluates the functional at scan_points
    equispaced wavenumbers; each sign change brackets a root, which brentq
    polishes to 1e-12 on scalar calls. Where the scalar path gives both
    ends of a bracket one sign, sigma vanishes to roundoff at one of them,
    and that node is reported. For still flows the functional is negative
    throughout and the result is empty. Raises ValueError unless k_min <
    k_max are finite and scan_points >= 2.
    """
    if not (math.isfinite(k_min) and math.isfinite(k_max) and k_min < k_max):
        raise ValueError(
            f"need finite k_min < k_max, got [{k_min!r}, {k_max!r}]")
    if scan_points < 2:
        raise ValueError(f"need scan_points >= 2, got {scan_points!r}")

    sigma = partial(dispersion_sigma, sol, dist)
    ks = np.linspace(k_min, k_max, scan_points)
    sig = dispersion_sigma(sol, dist, ks)
    roots = [float(ks[i]) for i in np.flatnonzero(sig == 0.0)]
    for i in np.flatnonzero(np.sign(sig[:-1]) * np.sign(sig[1:]) < 0):
        lo, hi = sigma(ks[i]), sigma(ks[i + 1])
        if lo * hi < 0:
            roots.append(brentq(sigma, ks[i], ks[i + 1], xtol=1e-12))
        else:
            # the scan and the scalar path disagree only in roundoff, so
            # sigma vanishes to roundoff at the end nearer zero
            node = float(ks[i] if abs(lo) <= abs(hi) else ks[i + 1])
            _log.debug("sigma changes sign on [%.17g, %.17g] in the scan but "
                       "not on scalar calls (%.3g, %.3g): root at the node "
                       "%.17g", ks[i], ks[i + 1], lo, hi, node)
            roots.append(node)
    return np.unique(roots)


def bifurcation_branch(sol: StreamSolution, dist: VorticityDistribution,
                       k: float, amplitude: float = 0.01,
                       nx: int = 64, ny: int = 32) -> NewtonResult:
    """Continue off a bifurcation point to a genuinely wavy state.

    Works on the half-period reflecting grid with the crest elevation
    pinned at h + amplitude and the Bernoulli constant released, which
    removes the horizontal-translation null direction. The seed is the
    linear mode in mapped coordinates. Newton gets up to 60 iterations,
    which start as chord steps on one SuperLU factor of the bordered
    Jacobian at the seed; a chord step that does not contract hands the
    solve to exact damped steps (see _newton_core). So one factorization
    usually serves the whole call, and iterations counts chord steps,
    which take more iterations than exact Newton to the same tolerance.
    The result is unfolded to the full periodic grid (nx must be even;
    the half grid has nx/2 + 1 nodes).
    Raises ValueError unless 0 < k < inf and 0 < amplitude < inf, and
    NewtonDiverged when Newton lands on the raised flat state
    eta = h + amplitude, which also satisfies the pin, instead of a wave.
    """
    if not (0.0 < k < math.inf and 0.0 < amplitude < math.inf):
        raise ValueError(f"need 0 < k < inf and 0 < amplitude < inf, got "
                         f"k={k!r}, amplitude={amplitude!r}")
    if nx % 2:
        raise ValueError("nx must be even so the half grid unfolds cleanly")
    L = 2.0 * math.pi / k
    nxh = nx // 2 + 1
    grid = StripGrid(L, nxh, ny, "reflect")
    h = sol.depth
    uy_h = float(sol.surface_speed)

    fmode, _ = dispersion_mode(sol, dist, k)
    f_h = float(fmode(h))
    if abs(f_h) < 1e-12:
        raise ValueError("mode vanishes at the surface; cannot scale the seed")
    c = -uy_h * amplitude / f_h

    qh = grid.q * h
    ucol = np.asarray(sol.U(qh), dtype=float)
    uycol = np.asarray(sol.Uy(qh), dtype=float)
    fcol = np.asarray(fmode(qh), dtype=float)
    cosx = np.cos(k * grid.x)

    eta = h + amplitude * cosx
    psi = (ucol[None, :]
           + cosx[:, None] * (c * fcol[None, :]
                              + amplitude * grid.q[None, :] * uycol[None, :]))
    psi[:, 0] = 0.0
    psi[:, -1] = 1.0

    r0 = (uy_h ** 2 + 2.0 * h) / 3.0
    pin = (0, h + amplitude)
    seed_factor = lambda: _factor(_assemble_jacobian(
        psi, eta, _residual_parts(psi, eta, r0, grid, dist), grid, dist,
        pin=pin))
    psi_h, eta_h, r_out, its, _ = _newton_core(
        psi, eta, r0, grid, dist, NEWTON_TOL, 60, pin=pin,
        reference=seed_factor)
    # the pinned crest alone also admits the raised flat state h + amplitude
    ptp = float(np.ptp(eta_h))
    if ptp < amplitude:
        raise NewtonDiverged(
            f"continuation at k={k:.6g} on the {nx}x{ny} grid converged in "
            f"{its} iterations to a flat state: peak-to-trough {ptp:.3g} is "
            f"below the amplitude {amplitude:.3g}")

    psi_full = np.vstack([psi_h, psi_h[-2:0:-1]])
    eta_full = np.concatenate([eta_h, eta_h[-2:0:-1]])
    state = WaveState(period_L=L, nx=nx, ny=ny, psi=psi_full, eta=eta_full,
                      r=r_out)
    return NewtonResult(state=state, iterations=its,
                        norms=residual_norms(state, dist))
