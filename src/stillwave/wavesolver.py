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
method with an exact sparse Jacobian, summed into CSC on a pattern cached
per grid shape in a nested-dissection order that SuperLU factors as it
stands, drives the coupled system, and every solve starts as
chord steps on one reference Jacobian. Near-flat solves use the
flat-state Jacobian (_FlatModel, one per flow), solved mode by mode after
an rfft in x through one eigendecomposition in q and a Schur step on eta.
Continuation off a bifurcation point pins the amplitude, releases the
Bernoulli constant, seeds from that model and runs chord steps on one
SuperLU factor. The dispersion IVPs run on ode.dop853 and the root polish
on ode.brentq, so dispersion_sigma, find_bifurcation_points and
bifurcation_branch import neither scipy.integrate nor scipy.optimize.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field, replace
from functools import cache, cached_property, lru_cache, partial
from typing import Callable, NamedTuple, Optional

import numpy as np
import scipy.sparse as sp
from scipy.linalg import eigh_tridiagonal, solve_banded
from scipy.sparse.linalg import splu

from .errors import (InvalidSweepCase, NewtonDiverged, StepFailure,
                     SurfaceCollapse)
from .hypotheses import HypothesisReport, check_hypotheses
from .ode import brentq, dense_value, dop853
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


@lru_cache(maxsize=8)
def _difference_matrices(n: int, closure: str):
    """First and second difference matrices (CSR) on n nodes, built once
    per (n, closure) and shared, so their arrays are read-only.

    Inside, the three-point centered stencils. The end rows are closed by
    closure: "periodic" wraps the stencils around, "reflect" mirrors the
    nodes evenly about each end, f(-h) = f(h), so the first difference
    vanishes there, and "one-sided" uses second-order one-sided stencils.
    The one-sided pair spans [0, 1]. The x pairs have unit spacing: scaled
    by 1/h and 1/h^2 they are the stencils at spacing h to the bit.
    """
    width = 4 if closure == "one-sided" else 3
    if n < width:
        raise ValueError(f"{closure} stencils need at least {width} nodes")
    h = 1.0 / (n - 1) if closure == "one-sided" else 1.0
    c1, c2 = 1.0 / (2.0 * h), 1.0 / h ** 2
    if closure == "one-sided":
        ends = ((-3.0 * c1, 4.0 * c1, -c1),
                (2.0 * c2, -5.0 * c2, 4.0 * c2, -c2))
    else:
        ends = ((), (-2.0 * c2, 2.0 * c2))
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
        for a in (D.data, D.indices, D.indptr):
            a.flags.writeable = False
        mats.append(D)
    return tuple(mats)


def _scaled(D, s: float):
    """s D, sharing D's read-only index arrays, with read-only data."""
    data = D.data * s
    data.flags.writeable = False
    return sp.csr_matrix((data, D.indices, D.indptr), shape=D.shape)


class StripGrid:
    """Difference operators on the mapped rectangle.

    topology "periodic": nx nodes cover one full period, spacing L / nx,
    with circulant x-stencils. topology "reflect": nx nodes cover half a
    period [0, L/2] endpoints included, with even reflection closing the
    x-stencils; this is the natural grid for waves with a crest at x = 0
    and a trough at x = L/2. Grids of one shape share their q matrices
    and the index arrays of their x pair, which each grid scales from the
    unit-spacing stencils; Jacobian patterns are cached per grid shape.
    """

    def __init__(self, period_L: float, nx: int, ny: int,
                 topology: str = "periodic"):
        if not 0 < period_L < math.inf:
            raise ValueError(f"period_L must be positive and finite, got "
                             f"{period_L!r}")
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

        Dx, Dxx = _difference_matrices(nx, topology)
        self.Dx = _scaled(Dx, 1.0 / self.dx)
        self.Dxx = _scaled(Dxx, 1.0 / self.dx ** 2)
        self.Dq, self.Dqq = _difference_matrices(ny + 1, "one-sided")

    @cached_property
    def _dxx_symbol(self) -> np.ndarray:
        """Eigenvalues of Dxx on the modes cos(2 pi m x / L), m = 0 .. n//2,
        of n = nx (periodic) or 2 (nx - 1) (reflect) nodes per period."""
        n = self.nx if self.topology == "periodic" else 2 * (self.nx - 1)
        m = np.arange(n // 2 + 1)
        return -(2.0 - 2.0 * np.cos(2.0 * math.pi * m / n)) / self.dx ** 2


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
        if not 0 < self.period_L < math.inf:
            raise ValueError(f"period_L must be positive and finite, got "
                             f"{self.period_L!r}")
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
    r is set from Psi_q(h) by the grid's own one-sided Dq, so the state
    meets its Bernoulli rows to an ulp of 3 r: a fixed point of newton_solve.
    """
    h, Dq = sol.depth, _difference_matrices(ny + 1, "one-sided")[0]
    q = np.linspace(0.0, 1.0, ny + 1)
    col = _polish_flat_column(np.asarray(sol.U(q * h), float), h, ny, dist)
    r = (((Dq @ col)[-1] / h) ** 2 + 2.0 * h) / 3.0
    return WaveState(period_L=float(period_L), nx=nx, ny=ny,
                     psi=np.tile(col, (nx, 1)), eta=np.full(nx, h), r=r)


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
    """Residual rows of one state and the fields its Jacobian reuses."""
    pde: np.ndarray        # (nx, ny - 1), interior collocation rows
    bern: np.ndarray       # (nx,)
    bottom: np.ndarray     # (nx,)
    top: np.ndarray        # (nx,)
    ex: np.ndarray         # (nx,), discrete eta_x
    exx: np.ndarray        # (nx,), discrete eta_xx
    pq: np.ndarray         # (nx, ny + 1), Psi_q
    pqq: np.ndarray        # (nx, ny + 1), Psi_qq
    pxq: np.ndarray        # (nx, ny + 1), Psi_xq
    c_qq: np.ndarray       # (nx, ny - 1), the mapped Laplacian's
    c_xq: np.ndarray       # coefficients of Psi_qq, Psi_xq and Psi_q
    c_q: np.ndarray        # on the interior q nodes


def _residual_parts(psi, eta, r, grid: StripGrid,
                    dist: VorticityDistribution) -> _ResidualParts:
    ny, inner = grid.ny, slice(1, grid.ny)
    q = grid.q[None, inner]
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

    pde = (pxx[:, inner] + c_qq * pqq[:, inner] + c_xq * pxq[:, inner]
           + c_q * pq[:, inner]
           + np.asarray(dist.omega(psi[:, inner]), dtype=float))

    bern = (1.0 + ex ** 2) * (pq[:, ny] / eta) ** 2 + 2.0 * eta - 3.0 * r
    return _ResidualParts(pde=pde, bern=bern, bottom=psi[:, 0],
                          top=psi[:, ny] - 1.0, ex=ex, exx=exx, pq=pq,
                          pqq=pqq, pxq=pxq, c_qq=c_qq, c_xq=c_xq, c_q=c_q)


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


def _factor(A, grid: StripGrid, pin: Optional[tuple]):
    """SuperLU factor of a Jacobian A of _assemble_jacobian on grid (with
    pin), whose rows and columns follow the order of _layout_of(grid, pin),
    as a solve function that takes and returns vectors in the natural
    order. SuperLU takes the columns as they stand (permc_spec "NATURAL"),
    so that order is the fill-reducing one: on the strip Jacobians the
    nested dissection of _jacobian_layout makes less fill than a
    minimum-degree order of A^T + A, and costs nothing per call (Li, ACM
    TOMS 31, 2005). Raises RuntimeError when A is exactly singular."""
    lu = splu(A.tocsc(), permc_spec="NATURAL")
    order = _layout_of(grid, pin).order

    def solve(b):
        x = np.empty(b.shape)
        x[order] = lu.solve(b[order])
        return x
    return solve


def _nested_dissection(nx: int, ny: int, periodic: bool) -> np.ndarray:
    """The interior psi unknowns i (ny - 1) + j in nested-dissection order
    (George, SIAM J. Numer. Anal. 10, 1973). A box of nodes is split along
    its longer side by a line one node wide, which separates the halves
    because every stencil reaches only the eight nearest nodes; the halves
    come first, one after the other, then the line. Boxes of at most 8
    nodes keep the natural order. On a periodic grid column 0 is cut
    first, which opens the ring, and comes last."""
    m, parts = ny - 1, []

    def split(x0, x1, y0, y1):
        if (x1 - x0) * (y1 - y0) <= 8:
            parts.append((np.arange(x0, x1)[:, None] * m
                          + np.arange(y0, y1)).ravel())
        elif x1 - x0 >= y1 - y0:
            c = (x0 + x1) // 2
            split(x0, c, y0, y1)
            split(c + 1, x1, y0, y1)
            parts.append(c * m + np.arange(y0, y1))
        else:
            c = (y0 + y1) // 2
            split(x0, x1, y0, c)
            split(x0, x1, c + 1, y1)
            parts.append(np.arange(x0, x1) * m + c)

    split(int(periodic), nx, 0, m)
    if periodic:
        parts.append(np.arange(m))
    return np.concatenate(parts)


class _Layout(NamedTuple):
    """The Jacobian on grids of one shape, with its rows and columns in
    order: row and column i stand for unknown order[i]."""
    indices: np.ndarray  # int32 CSC row indices
    indptr: np.ndarray   # int32 CSC column pointers
    pos: np.ndarray      # the place in indices of each term entry
    terms: tuple         # per term (a, b, coef, rows, span, keeps_zeros)
    order: np.ndarray


@lru_cache(maxsize=8)
def _jacobian_layout(nx: int, ny: int, topology: str, pin_index) -> _Layout:
    """The terms of _assemble_jacobian on grids of this shape, summed into
    one CSC pattern whose rows and columns follow a nested-dissection
    order: the interior psi unknowns by _nested_dissection, then eta, then
    r (each eta column spans every interior row of three x nodes, and r
    every Bernoulli row). Each term diag(coef) kron(A, B) fills pos[span]
    with the products a b of the entries of A and B in row-major order,
    times the values at rows (each entry's row in the term) of the
    coefficient that _assemble_jacobian names coef; a is the name of the
    grid's x operator ("Dx", "Dxx"), whose entries depend on its spacing,
    or A's entries, and b holds B's, which depend on ny alone. Only
    bern_psi S keeps its exact zeros. The pattern keys col * n + row are
    int32 when n^2 fits."""
    def entries(M):  # row, column and value of each entry, row-major
        M = sp.csr_matrix(M)
        return (np.repeat(np.arange(M.shape[0], dtype=np.int32),
                          np.diff(M.indptr)), M.indices, M.data, M.shape)
    inner, n_int = slice(1, ny), nx * (ny - 1)
    n = n_int + nx + (pin_index is not None)
    x_ops = dict(zip(("Dx", "Dxx"), _difference_matrices(nx, topology)))
    Dq, Dqq = _difference_matrices(ny + 1, "one-sided")
    Ix, Im, one = sp.identity(nx, format="csr"), np.eye(ny - 1), np.eye(1)
    col, Dqi, Dqqi = np.ones((ny - 1, 1)), Dq[inner, inner], Dqq[inner, inner]
    terms = [(0, 0, "Dxx", Im, None), (0, 0, Ix, Dqqi, "c_qq"),
             (0, 0, "Dx", Dqi, "c_xq"), (0, 0, Ix, Dqi, "c_q"),
             (0, 0, Ix, Im, "omega_psi"), (0, n_int, Ix, col, "d_eta"),
             (0, n_int, "Dx", col, "d_ex"), (0, n_int, "Dxx", col, "d_exx"),
             (n_int, 0, Ix, Dq[ny:, inner], "bern_psi"),
             (n_int, n_int, Ix, one, "bern_eta"),
             (n_int, n_int, "Dx", one, "bern_ex")]
    if pin_index is not None:  # the r column and the pin row
        terms += [(n_int, n_int + nx, np.full((nx, 1), -3.0), one, None),
                  (n_int + nx, n_int, np.eye(1, nx, pin_index), one, None)]
    order = np.concatenate([_nested_dissection(nx, ny, topology == "periodic"),
                            np.arange(n_int, n)])
    key = np.int32 if n * n < 2 ** 31 else np.int64
    rank = np.empty(n, key)
    rank[order] = np.arange(n, dtype=key)
    keys, specs, lo = [], [], 0
    for r, c, A, B, coef in terms:
        ar, ac, a, _ = entries(x_ops[A] if isinstance(A, str) else A)
        br, bc, b, (mb, nb) = entries(B)
        rows = (ar[:, None] * mb + br).ravel()
        keys.append(rank[(c + ac[:, None] * nb + bc).ravel()] * n
                    + rank[r + rows])
        specs.append((A if isinstance(A, str) else a, b, coef,
                      rows if coef else None, slice(lo, lo + rows.size),
                      coef == "bern_psi"))
        lo += rows.size
    union = np.sort(np.concatenate(keys))
    union = union[np.append(True, union[1:] != union[:-1])]
    indptr = np.searchsorted(union, np.arange(n + 1, dtype=key) * n)
    return _Layout((union % n).astype(np.int32), indptr.astype(np.int32),
                   np.concatenate([np.searchsorted(union, k).astype(np.int32)
                                   for k in keys]), tuple(specs), order)


def _layout_of(grid: StripGrid, pin: Optional[tuple]) -> _Layout:
    """The _jacobian_layout of grid's shape, bordered when pin is given."""
    return _jacobian_layout(grid.nx, grid.ny, grid.topology,
                            None if pin is None else pin[0])


def _linear_coefficients(q, eta, ex, exx, pq, pqq, pxq) -> dict:
    """d_eta, d_ex, d_exx (on the interior q nodes) and bern_psi, bern_eta,
    bern_ex (like eta) of _assemble_jacobian, by name, at a state with the
    fields of _ResidualParts and q = grid.q as a row."""
    inv_eta = 1.0 / eta[:, None]
    pq_s, s2 = pq[:, -1], (pq[:, -1] / eta) ** 2
    q, pq, pqq, pxq = (a[:, 1:-1] for a in (q, pq, pqq, pxq))
    qe = q * ex[:, None] * inv_eta
    return dict(
        d_eta=(-2.0 * (1.0 + (q * ex[:, None]) ** 2) * inv_eta ** 3 * pqq
               + 2.0 * qe * inv_eta * pxq
               + q * (exx[:, None] - 4.0 * ex[:, None] ** 2 * inv_eta)
               * inv_eta ** 2 * pq),
        d_ex=(2.0 * q * qe * inv_eta * pqq - 2.0 * q * inv_eta * pxq
              + 4.0 * qe * inv_eta * pq),
        d_exx=-q * inv_eta * pq,
        bern_psi=2.0 * (1.0 + ex ** 2) * pq_s / eta ** 2,
        bern_eta=2.0 - 2.0 * (1.0 + ex ** 2) * s2 / eta,
        bern_ex=2.0 * ex * s2)


def _assemble_jacobian(psi, eta, parts: _ResidualParts, grid: StripGrid,
                       dist, pin: Optional[tuple] = None):
    """Jacobian of [pde rows; bernoulli rows] wrt [interior psi; eta], exact
    and sparse, in CSC, with its rows and columns in the nested-dissection
    order of _layout_of(grid, pin) (factor it with _factor).
    The psi-block is K_xx + diag(c_qq) K_qq + diag(c_xq) K_xq + diag(c_q)
    K_q + diag(omega'(Psi)), the c_* read off parts. A pde row depends on
    eta only through eta, eta_x and eta_xx at its own x node, so the
    eta-block is diag(d_eta) E + diag(d_ex) E_x + diag(d_exx) E_xx (E
    spreads each x node over its interior rows). The Bernoulli rows are
    diag(bern_psi) S and diag(bern_eta) + diag(bern_ex) Dx, with d_* and
    bern_* from _linear_coefficients. With pin = (index, value) the system
    is bordered: r joins the unknowns and the equation eta[index] = value
    joins the rows. Each K is a kron of the grid's difference matrices, on
    a pattern, entry places and coefficient gathers cached per grid shape
    (_jacobian_layout); the terms are summed in the order above by one
    bincount (Cuvelier, Japhet & Scarella, BIT Numer. Math. 56, 2016), and
    exact zeros go, except in bern_psi S.
    """
    # a value per row of its terms: at each interior node or x node
    coefs = _linear_coefficients(grid.q[None, :], eta, parts.ex, parts.exx,
                                 parts.pq, parts.pqq, parts.pxq)
    coefs.update(c_qq=parts.c_qq, c_xq=parts.c_xq, c_q=parts.c_q,
                 omega_psi=np.asarray(dist.derivative(psi[:, 1:-1]), float))
    layout = _layout_of(grid, pin)
    pos, indices, indptr = layout.pos, layout.indices, layout.indptr
    vals = np.empty(pos.size)
    for a, b, coef, rows, span, _ in layout.terms:
        if isinstance(a, str):
            a = getattr(grid, a).data
        np.multiply.outer(a, b, out=vals[span].reshape(a.size, b.size))
        if coef is not None:
            vals[span] *= coefs[coef].take(rows)
    data = np.bincount(pos, vals, indices.size)
    keep = data != 0.0
    for *_, span, keeps_zeros in layout.terms:
        if keeps_zeros:  # alone at its places: zeros keep their signs
            data[pos[span]], keep[pos[span]] = vals[span], True
    kept = np.flatnonzero(keep)
    return sp.csc_matrix((data[kept], indices[kept],
                          np.searchsorted(kept, indptr)),
                         shape=(indptr.size - 1,) * 2)


class _FlatModel:
    """The Jacobian at the x-independent state of stream column col and
    depth h, mode by mode in x (Strang, Stud. Appl. Math. 74, 1986; Chan,
    SIAM J. Sci. Stat. Comput. 9, 1988). It reads only the q operators,
    so one model serves every grid on ny. The mode of Dxx symbol lam
    (StripGrid._dxx_symbol) holds T(lam) = c Dqq + diag(omega'(col)) + lam I
    on the interior q nodes, bordered by the eta column, the Bernoulli row
    (border) and the corner bern_eta, all from _linear_coefficients at
    eta_x = eta_xx = Psi_xq = 0. One eigendecomposition V diag(mu) V^T of
    the symmetric tridiagonal T(0) solves every block with no pivots
    (Lynch, Rice & Thomas, Numer. Math. 6, 1964).
    """

    def __init__(self, col, h, ny: int, dist):
        inner, zero, eta = slice(1, ny), np.zeros(1), np.full(1, h)
        Dq, Dqq = _difference_matrices(ny + 1, "one-sided")
        pq, pqq = ((D @ col)[None, :] for D in (Dq, Dqq))
        d = _linear_coefficients(np.linspace(0.0, 1.0, ny + 1)[None, :], eta,
                                 zero, zero, pq, pqq, np.zeros_like(pq))
        # the eta column at lam is column[0] + column[1] lam
        self.column = (d["d_eta"].T, d["d_exx"].T)
        self.border = d["bern_psi"] * Dq[-1, inner].toarray()[0]
        self.bern_eta = d["bern_eta"]
        c, Dqq = (1.0 / eta) ** 2, Dqq[inner, inner]
        self.mu, self.V = eigh_tridiagonal(
            c * Dqq.diagonal()
            + np.asarray(dist.derivative(col[inner]), dtype=float),
            c * Dqq.diagonal(1))

    def at(self, lam):
        """rhs -> T(lam[m])^-1 rhs[:, m] for each m, rhs real or complex
        (both products are real GEMMs on its view as floats); raises
        RuntimeError when some mu_i + lam[m] vanishes to roundoff."""
        denom, V = self.mu[:, None] + lam, self.V
        if np.any(np.abs(denom) <= np.finfo(float).eps
                  * (np.max(np.abs(self.mu)) + np.abs(lam))):
            raise RuntimeError("flat Jacobian is singular: a Fourier block "
                               "is singular")

        def solve(rhs):
            b = np.ascontiguousarray(rhs, np.result_type(rhs, float))
            z = (V.T @ b.view(float)).view(b.dtype) / denom
            return (V @ z.view(float)).view(b.dtype)
        return solve

    def response(self, lam):
        """Y[:, m] = T(lam[m])^-1 (eta column at lam[m]): minus psi's
        response to a unit eta in the mode of lam[m]."""
        return self.at(lam)(self.column[0] + self.column[1] * lam)

    def schur(self, lam):
        """The Schur complements bern_eta - border Y(lam): the discrete
        dispersion functional, which vanishes where mode lam of the flat
        Jacobian is singular."""
        return self.bern_eta - self.border @ self.response(lam)

    def solver(self, grid: StripGrid):
        """The Jacobian on grid, as a solve function: an rfft in x, one
        block solve, the Schur step and an irfft. Raises RuntimeError
        when a block or a Schur complement is singular."""
        nx, lam = grid.nx, grid._dxx_symbol
        block_solve, Y = self.at(lam), self.response(lam)
        schur = self.bern_eta - self.border @ Y
        if not np.all(np.abs(schur)
                      > np.finfo(float).eps * np.abs(self.bern_eta)):
            raise RuntimeError("flat Jacobian is singular: a Schur "
                               "complement vanishes")

        def solve(b):
            n_int = b.size - nx
            f = np.empty((n_int // nx + 1, nx))
            f[:-1], f[-1] = b[:n_int].reshape(nx, -1).T, b[n_int:]
            f = np.fft.rfft(f)
            z = block_solve(f[:-1])
            f[-1] = (f[-1] - self.border @ z) / schur
            f[:-1] = z - Y * f[-1]
            out = np.fft.irfft(f, nx)
            return np.concatenate([out[:-1].T.ravel(), out[-1]])
        return solve


def _newton_core(psi, eta, r, grid: StripGrid, dist, tol, max_iter,
                 pin: Optional[tuple] = None,
                 reference: Optional[Callable] = None):
    """Damped Newton on the reduced unknowns from a surface eta > 0.
    Returns psi, eta, r, the iteration count and the residual parts of
    that final state.

    Boundary rows of psi are held exact throughout; with pin the
    Bernoulli constant r is released and eta[pin0] = pin1 is enforced.

    reference, when given, is called before the first step for the solve
    function (a _FlatModel.solver or a _factor) of a Jacobian near the
    solution, and the iteration starts as the chord method on it (Kelley,
    Iterative Methods for Linear and Nonlinear Equations, SIAM 1995,
    ch. 5): dz = -solve(F), full steps only. A chord step is accepted
    when it keeps the surface positive and reaches tol or contracts
    max|F| by CHORD_CONTRACTION.
    Otherwise, and when reference raises RuntimeError (an exactly singular
    Jacobian), that same iteration and every later one take the exact
    damped Newton step, so a failed chord trial costs a solve and a
    residual evaluation, never an iteration. Both fallbacks are logged at
    debug level. An exact step takes the first length 2^-k, k = 0 ...
    MAX_HALVINGS, that keeps the surface positive and lowers max|F|.
    Raises ValueError, before any evaluation, unless 0 < tol < inf and
    max_iter >= 0; SurfaceCollapse when no length keeps the surface
    positive; and NewtonDiverged when the line search stalls, when the
    exact Jacobian is singular or when max|F| > tol after max_iter steps.
    """
    if not 0 < tol < math.inf:
        raise ValueError(f"tol must be positive and finite, got {tol!r}")
    if not max_iter >= 0:
        raise ValueError(f"max_iter must be nonnegative, got {max_iter!r}")
    nx, ny = grid.nx, grid.ny
    n_int = nx * (ny - 1)
    psi = psi.copy()
    psi[:, 0] = 0.0
    psi[:, ny] = 1.0

    def state(ps, et, rr):
        parts = _residual_parts(ps, et, rr, grid, dist)
        F = _residual_vec(parts)
        if pin is not None:
            F = np.append(F, et[pin[0]] - pin[1])
        return ps, et, rr, parts, F, float(np.max(np.abs(F)))

    def trial(dz, alpha):
        """The state z + alpha dz, or None if its surface is not positive."""
        eta_t = eta + alpha * dz[n_int:n_int + nx]
        if np.min(eta_t) <= 0.0:
            return None
        psi_t = psi.copy()
        psi_t[:, 1:ny] += alpha * dz[:n_int].reshape(nx, ny - 1)
        return state(psi_t, eta_t,
                     r + alpha * (float(dz[-1]) if pin is not None else 0.0))

    psi, eta, r, parts, F, norm = state(psi, eta.copy(), r)
    chord = None

    for it in range(max_iter + 1):
        if norm <= tol:
            return psi, eta, r, it, parts
        if it == max_iter:
            raise NewtonDiverged(f"no convergence in {max_iter} iterations "
                                 f"(residual {norm:.3g})")
        if reference is not None:
            try:
                chord = reference()
            except RuntimeError as exc:
                _log.debug("singular chord reference (%s): exact steps only",
                           exc)
            reference = None
        if chord is not None:
            new = trial(chord(-F), 1.0)
            if new is not None and (new[-1] <= tol
                                    or new[-1] <= CHORD_CONTRACTION * norm):
                psi, eta, r, parts, F, norm = new
                continue
            # after = nan: the chord step drove the surface nonpositive
            _log.debug("chord step rejected at iteration %d: max|F| %.3g -> "
                       "%.3g; exact steps from here", it, norm,
                       math.nan if new is None else new[-1])
            chord = None
        J = _assemble_jacobian(psi, eta, parts, grid, dist, pin=pin)
        try:
            dz = _factor(J, grid, pin)(-F)
        except RuntimeError as exc:
            raise NewtonDiverged(f"singular Jacobian ({exc})") from exc
        if not np.all(np.isfinite(dz)):
            raise NewtonDiverged("singular Jacobian (non-finite Newton step)")
        for k in range(MAX_HALVINGS + 1):
            new = trial(dz, 0.5 ** k)
            if new is not None and (new[-1] < norm or new[-1] <= tol):
                psi, eta, r, parts, F, norm = new
                break
        else:
            # eta > 0 and eta + alpha d is monotone: positive alphas start at 0
            if new is None:
                raise SurfaceCollapse(
                    f"every damped step drove the surface nonpositive "
                    f"(min eta + d = "
                    f"{float(np.min(eta + dz[n_int:n_int + nx])):.3g})")
            raise NewtonDiverged(
                f"line search stalled at iteration {it} (residual {norm:.3g})")


def newton_solve(state: WaveState, dist: VorticityDistribution,
                 tol: float = NEWTON_TOL,
                 max_iter: int = MAX_NEWTON_ITER) -> NewtonResult:
    """Solve the free-boundary system from the given initial state.

    The Bernoulli constant r is held fixed at state.r. The steps start as
    chord steps on the Jacobian at the x-average of the initial state,
    which for a perturbed_state is the flat state to roundoff: the
    _FlatModel of the mean column and mean depth, solved through its
    Fourier blocks and built only if a step is needed. A chord step that
    does not contract hands the solve to exact Newton (see _newton_core).
    Raises NewtonDiverged or SurfaceCollapse on failure.
    """
    grid = StripGrid(state.period_L, state.nx, state.ny, "periodic")
    col, h = state.psi.mean(axis=0), state.eta.mean()
    psi, eta, r, its, parts = _newton_core(
        state.psi, state.eta, state.r, grid, dist, tol, max_iter,
        reference=lambda: _FlatModel(col, h, grid.ny, dist).solver(grid))
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
    seeded surface slope), the amplitude cap (default a tenth of the depth
    h) and a < h (the seeded trough above the bed). A violating case or an
    empty amplitudes or wavelengths list raises InvalidSweepCase rather
    than running outside the hypothesis regime; flat_tol and both caps must
    be positive finite numbers (ValueError; a NaN cap would reject
    nothing). All are checked before any solve.

    The flat state and, once a case takes a step, its _FlatModel are built
    once per call. Each distinct wavelength gets its grid and the model's
    solver on it, on which every distinct amplitude runs chord Newton (see
    _newton_core). The caches keep no exception, so a singular build is
    retried, and logged, on each case. Entries come back in sorted
    (amplitude, wavelength) order, duplicates included.
    """
    h = sol.depth
    amplitude_cap = 0.1 * h if amplitude_cap is None else amplitude_cap
    for name, value in (("flat_tol", flat_tol), ("slope_cap", slope_cap),
                        ("amplitude_cap", amplitude_cap)):
        if not 0.0 < value < math.inf:
            raise ValueError(
                f"{name} must be a positive finite number, got {value!r}")
    cases = [(float(a), float(L)) for a in sorted(amplitudes)
             for L in sorted(wavelengths)]
    if not cases:
        raise InvalidSweepCase("amplitudes and wavelengths must each hold "
                               "at least one value")
    for a, L in cases:
        if a <= 0 or L <= 0:
            raise InvalidSweepCase(f"case (a={a}, L={L}): must be positive")
        if a >= amplitude_cap:
            raise InvalidSweepCase(
                f"case (a={a}, L={L}): amplitude exceeds cap {amplitude_cap:.6g}")
        if a >= h:
            raise InvalidSweepCase(f"case (a={a}, L={L}): amplitude reaches "
                                   f"the depth h={h:.6g}")
        if 2.0 * math.pi * a / L > slope_cap:
            raise InvalidSweepCase(
                f"case (a={a}, L={L}): seeded slope {2 * math.pi * a / L:.6g} "
                f"exceeds cap {slope_cap:.6g}")

    report = check_hypotheses(dist, sol, slope_cap)
    solved = {}
    flat = flat_state(sol, dist, cases[0][1], nx, ny)
    model = cache(partial(_FlatModel, flat.psi[0], h, ny, dist))
    for L in dict.fromkeys(L for _, L in cases):
        grid = StripGrid(L, nx, ny, "periodic")
        flat = replace(flat, period_L=L)
        reference = cache(lambda: model().solver(grid))
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
                      ks, dense: bool = False):
    """Jointly integrate the stream profile and the transverse modes of
    every wavenumber in ks.

    The state is [U, U_y, f_1..f_n, f'_1..f'_n]. Each f_i solves
    f'' + (omega'(U) - k_i^2) f = 0, f(0) = 0, f'(0) = 1, riding on the
    exact U of the flow, up to the surface y = h. The mode equation is
    linear and k enters only through k^2, so one integration serves them
    all; dense keeps the interpolant over [0, h] for dense_value. Raises
    ValueError when some k^2 is not finite, which the step control would
    never get past, and StepFailure when the integrator fails.
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
        out = dop853(rhs, h, y0, 1e-12, 1e-14, dense=dense,
                     interpolated_end=True)
    if out.failure:
        raise StepFailure(f"dispersion integration failed: {out.failure}")
    return out


def dispersion_sigma(sol: StreamSolution, dist: VorticityDistribution, k):
    """Boundary functional whose zeros mark linear bifurcation points.

    sigma(k) = U_y(h)^2 f'(h) - (1 + U_y(h) U_yy(h)) f(h), with U_yy(h)
    = -omega(1). For a still flow it reduces to -f(h), strictly negative
    while f keeps its sign on (0, h].

    k is one wavenumber (giving a scalar) or an array (giving k's shape),
    all read off one integration. The step control sees every mode at
    once, so values agree with one-wavenumber integrations to the
    integrator's tolerance, not bit for bit. Raises StepFailure naming any
    wavenumber whose sigma is not finite (the modes overflow near kh = 700).
    """
    ks = np.asarray(k, dtype=float)
    end = _dispersion_solve(sol, dist, ks).y[:, -1]
    uy_h, (f_h, fp_h) = end[1], np.split(end[2:], 2)
    sig = uy_h ** 2 * fp_h - (1.0 - uy_h * float(dist.omega(1.0))) * f_h
    if not np.all(np.isfinite(sig)):
        raise StepFailure(f"dispersion functional is not finite at k = "
                          f"{ks.ravel()[~np.isfinite(sig)].tolist()}")
    return sig.reshape(ks.shape)[()]


def dispersion_mode(sol: StreamSolution, dist: VorticityDistribution,
                    k: float):
    """Dense-output callable y -> f(y) for the transverse mode, plus h: the
    continuous mode that bifurcation_branch's discrete seed approximates."""
    out = _dispersion_solve(sol, dist, [k], dense=True)

    def f(y):
        return dense_value(out, y, 2)

    return f, sol.depth


# Chebyshev-Lobatto points cos(pi j / 8), from +1 down to -1
_LOBATTO = np.cos(np.pi * np.arange(9) / 8)
# values at _LOBATTO -> Chebyshev coefficients of their degree-8
# interpolant: the type-I discrete cosine transform, with the end terms
# halved in both indices. It is a matrix product, so the polish calls no
# LAPACK routine (chebfit's lstsq and chebroots' eigvals would add their
# pages to a run's peak RSS).
_TO_CHEB = np.cos(np.outer(np.arange(9), np.pi * np.arange(9) / 8)) / 4.0
_TO_CHEB[:, [0, -1]] /= 2.0
_TO_CHEB[[0, -1]] /= 2.0
# trailing Chebyshev coefficients below this fraction of the largest are
# at the integrator's noise (rtol 1e-12): the interpolant is resolved
_RESOLVED = 1e-12
_POLISH_PASSES = 8


def _polished_roots(sol: StreamSolution, dist: VorticityDistribution,
                    ks: np.ndarray, sig: np.ndarray) -> np.ndarray:
    """Zeros of the dispersion functional from its values sig at the
    increasing wavenumbers ks.

    A node where sig vanishes is a root, and each sign change of sig
    brackets one more. One dispersion_sigma call samples every bracket at
    9 Chebyshev-Lobatto nodes; sigma is entire in k, so the degree-8
    interpolant on a bracket locates its zero to roundoff once its
    trailing Chebyshev coefficients are at roundoff, and brentq finds that
    zero on the interpolant. A bracket whose interpolant is not resolved
    narrows to the adjacent pair of nodes across which sigma changes sign
    nearest that zero, and is sampled again, for at most _POLISH_PASSES
    calls in all. Where a call (or the interpolant) gives both ends of a
    bracket one sign, sigma vanishes to roundoff at one of them, and the
    end nearer zero is reported.
    """
    roots = [float(k) for k in ks[sig == 0.0]]
    i = np.flatnonzero(np.sign(sig[:-1]) * np.sign(sig[1:]) < 0)
    lo, hi = ks[i], ks[i + 1]
    for npass in range(1, _POLISH_PASSES + 1):
        if not lo.size:
            break
        mid, half = (lo + hi) / 2.0, (hi - lo) / 2.0
        nodes = mid[:, None] + half[:, None] * _LOBATTO
        nodes[:, 0], nodes[:, -1] = hi, lo
        narrowed = []
        for k, v, m, d in zip(nodes, dispersion_sigma(sol, dist, nodes),
                              mid, half):
            p = np.polynomial.Chebyshev(_TO_CHEB @ v)
            sign = np.sign(v)
            ends = np.sign([p(1.0), p(-1.0)])
            if sign[0] * sign[-1] > 0.0 or ends[0] * ends[1] > 0.0:
                node = float(k[0] if abs(v[0]) < abs(v[-1]) else k[-1])
                _log.debug("sigma changes sign on [%.17g, %.17g] in one call "
                           "but not in the next (%.3g, %.3g): root at the "
                           "node %.17g", k[-1], k[0], v[-1], v[0], node)
                roots.append(node)
                continue
            x = brentq(p, -1.0, 1.0, 1e-15)
            tail = np.max(np.abs(p.coef[-2:])) / np.max(np.abs(p.coef))
            if tail <= _RESOLVED or npass == _POLISH_PASSES:
                roots.append(float(m + d * x))
                continue
            j = np.flatnonzero(sign[:-1] * sign[1:] <= 0.0)
            j = j[np.argmin(np.abs(_LOBATTO[j] + _LOBATTO[j + 1] - 2.0 * x))]
            narrowed.append((k[j + 1], k[j]))
        lo, hi = np.array(narrowed, dtype=float).reshape(-1, 2).T
    return np.unique(roots)


def find_bifurcation_points(sol: StreamSolution, dist: VorticityDistribution,
                            k_min: float = 0.0, k_max: float = 5.0,
                            scan_points: int = 201) -> np.ndarray:
    """Zeros of the dispersion functional in [k_min, k_max].

    One dispersion_sigma call evaluates the functional at scan_points
    equispaced wavenumbers; each sign change brackets a root, and one more
    call polishes every bracket at once on Chebyshev nodes (a coarse scan
    may take a few more; see _polished_roots). For still flows the
    functional is negative throughout and the result is empty. Raises
    ValueError unless k_min < k_max are finite and scan_points >= 2.
    """
    if not (math.isfinite(k_min) and math.isfinite(k_max) and k_min < k_max):
        raise ValueError(
            f"need finite k_min < k_max, got [{k_min!r}, {k_max!r}]")
    if scan_points < 2:
        raise ValueError(f"need scan_points >= 2, got {scan_points!r}")
    ks = np.linspace(k_min, k_max, scan_points)
    return _polished_roots(sol, dist, ks, dispersion_sigma(sol, dist, ks))


def bifurcation_branch(sol: StreamSolution, dist: VorticityDistribution,
                       k: float, amplitude: float = 0.01,
                       nx: int = 64, ny: int = 32) -> NewtonResult:
    """Continue off a bifurcation point to a genuinely wavy state.

    Works on the half-period reflecting grid with the crest elevation
    pinned at h + amplitude and the Bernoulli constant released, which
    removes the horizontal-translation null direction. The seed is the
    discrete linear mode, with no IVP: the grid's flat_state (and its r)
    plus amplitude cos(kx) on eta and its _FlatModel response on psi.
    Newton gets up to 60 iterations, which start as chord steps on one
    SuperLU factor of the bordered Jacobian at the seed (see _newton_core),
    so one factorization usually serves the whole call and iterations
    counts chord steps. The result is unfolded to the full grid.
    Raises ValueError unless 0 < k < inf, 0 < amplitude < h (the seed's
    trough is above the bed) and nx is even and at least 6 (the half grid
    has nx/2 + 1 nodes), or when the flat psi-block is singular at k;
    NewtonDiverged when Newton lands on the raised flat state eta = h +
    amplitude, which also satisfies the pin, instead of a wave.
    """
    h = sol.depth
    if not (0.0 < k < math.inf and 0.0 < amplitude < h):
        raise ValueError(f"need 0 < k < inf and 0 < amplitude < depth h, got "
                         f"k={k!r}, amplitude={amplitude!r}, h={h!r}")
    if nx % 2 or nx < 6:
        raise ValueError(f"need an even nx >= 6 (the half grid has nx/2 + 1 "
                         f"nodes and unfolds), got nx={nx!r}")
    L = 2.0 * math.pi / k
    nxh = nx // 2 + 1
    grid = StripGrid(L, nxh, ny, "reflect")
    flat = flat_state(sol, dist, L, nxh, ny)
    try:  # cos(kx) is the grid's mode 1
        Y = _FlatModel(flat.psi[0], h, ny, dist).response(
            grid._dxx_symbol[1:2])
    except RuntimeError as exc:
        raise ValueError(f"no linear seed at k={k:.6g} on the {nx}x{ny} "
                         f"grid: {exc}") from exc
    cosx = np.cos(k * grid.x)
    eta = h + amplitude * cosx
    psi, r0 = flat.psi, flat.r
    psi[:, 1:ny] -= amplitude * np.outer(cosx, Y)
    pin = (0, h + amplitude)
    seed_factor = lambda: _factor(_assemble_jacobian(
        psi, eta, _residual_parts(psi, eta, r0, grid, dist), grid, dist,
        pin=pin), grid, pin)
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
