"""Free-boundary solver tests.

The flat checks lean on closed-form profiles (parabola for constant
vorticity, sine for linear). Dispersion checks use the constant-vorticity
mode f = sinh(k y) / k, for which the boundary functional is computable by
hand; the frozen root below was located by a separate bisection on that
closed form before being wired into these tests.
"""

import dataclasses
import json
import logging
import math
import subprocess
import sys
import tracemalloc
import warnings
from functools import partial
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.linalg import eigh_tridiagonal
from scipy.optimize import brentq
from scipy.sparse.linalg import splu
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import stillwave
from stillwave import cli, stream, wavesolver
from stillwave.errors import (InvalidSweepCase, NewtonDiverged,
                              StepFailure, SurfaceCollapse)
from stillwave.stream import shear_solution, still_depth_family
from stillwave.vorticity import (ConstantVorticity, LinearVorticity,
                                 QuadraticTruncatedVorticity,
                                 TabulatedVorticity)
from stillwave.wavesolver import (StripGrid, WaveState,
                                  VERDICT_CONSISTENT,
                                  VERDICT_NOT_APPLICABLE,
                                  _assemble_jacobian, _newton_core,
                                  _residual_parts, _residual_vec, _rippled,
                                  bifurcation_branch, dispersion_mode,
                                  dispersion_sigma, find_bifurcation_points,
                                  flat_state, newton_solve,
                                  nonexistence_sweep, perturbed_state,
                                  residual_fields, residual_norms)

# zero of 2k cosh(sqrt(2) k) - (1 + sqrt(2)) sinh(sqrt(2) k), bisected
# separately to 1e-14
BIFURCATION_K = 1.1057421457577874

B2 = ConstantVorticity(b=2.0)
LIN = LinearVorticity(b=1.0)
QUAD = QuadraticTruncatedVorticity(b=1.5, R=1.1)
BM1 = ConstantVorticity(b=-1.0)
TAB = TabulatedVorticity(nodes=[0.0, 1.0], values=[0.5, 1.5])
# (distribution, bed slope) per family, still (s = None: least still
# depth) and moving; the moving constant and linear flows have a root
SCAN_FLOWS = [(B2, None), (BM1, 0.0), (LIN, None),
              (LinearVorticity(b=-1.0), 0.5), (QUAD, None), (QUAD, 2.0),
              (TAB, None), (TAB, 2.5)]


def _solution(dist, s):
    """The least still depth of dist (s = None) or its shear flow at s."""
    return still_depth_family(dist)[0] if s is None \
        else shear_solution(dist, s)


@pytest.fixture(scope="module")
def still_b2():
    return still_depth_family(B2)[0]


@pytest.fixture(scope="module")
def still_lin():
    return still_depth_family(LIN)[0]


@pytest.fixture(scope="module")
def still_quad():
    return still_depth_family(QUAD)[0]


@pytest.fixture(scope="module")
def moving_bm1():
    return shear_solution(BM1, s=0.0)


@pytest.fixture
def sigma_calls(monkeypatch):
    """The wavenumber shape of each dispersion_sigma call the solver makes."""
    shapes = []
    sigma = wavesolver.dispersion_sigma

    def recording(sol, dist, k):
        shapes.append(np.shape(k))
        return sigma(sol, dist, k)

    monkeypatch.setattr(wavesolver, "dispersion_sigma", recording)
    return shapes


def _stencils_at(n, h, closure):
    """Dx and Dxx on n nodes as built at spacing h itself: integer
    multiples of c1 = 1 / (2 h) and c2 = 1 / h^2, the oracle of the scaled
    unit-spacing stencils."""
    c1, c2 = 1.0 / (2.0 * h), 1.0 / h ** 2
    if closure == "one-sided":
        ends = ((-3.0 * c1, 4.0 * c1, -c1),
                (2.0 * c2, -5.0 * c2, 4.0 * c2, -c2))
    else:
        ends = ((), (-2.0 * c2, 2.0 * c2))
    mats = []
    for centered, end, sign in (((-c1, 0.0, c1), ends[0], -1.0),
                                ((c2, -2.0 * c2, c2), ends[1], 1.0)):
        diags = {k: np.full(n - abs(k), v)
                 for k, v in zip((-1, 0, 1), centered)}
        if closure == "periodic":
            diags[n - 1], diags[1 - n] = [centered[0]], [centered[2]]
        else:
            diags[0][[0, -1]] = diags[1][0] = diags[-1][-1] = 0.0
            for k, v in enumerate(end):
                diags.setdefault(k, np.zeros(n - k))[0] = v
                diags.setdefault(-k, np.zeros(n - k))[-1] = sign * v
        offsets = sorted(diags)
        D = sp.diags([diags[k] for k in offsets], offsets, shape=(n, n),
                     format="csr")
        D.eliminate_zeros()
        mats.append(D)
    return mats


class TestStripGrid:
    def test_periodic_trig_eigenvalue(self):
        g = StripGrid(2.0, 16, 8, "periodic")
        k = 2.0 * np.pi / 2.0
        v = np.cos(k * g.x)
        lam = -(2.0 - 2.0 * np.cos(k * g.dx)) / g.dx ** 2
        assert np.max(np.abs(g.Dxx @ v - lam * v)) < 1e-10
        w = np.sin(k * g.x)
        mu = np.sin(k * g.dx) / g.dx
        assert np.max(np.abs(g.Dx @ v + mu * w)) < 1e-10

    def test_reflect_closes_even_functions(self):
        # cos(k x) is even about both ends of the half period, so the
        # reflecting stencil must satisfy the same eigenrelation at the
        # boundary rows as in the interior
        g = StripGrid(2.0, 9, 8, "reflect")
        k = 2.0 * np.pi / 2.0
        v = np.cos(k * g.x)
        lam = -(2.0 - 2.0 * np.cos(k * g.dx)) / g.dx ** 2
        assert np.max(np.abs(g.Dxx @ v - lam * v)) < 1e-9

    @pytest.mark.parametrize("ny", [4, 5, 16])
    def test_q_closures_exact_on_low_degree(self, ny):
        # the one-sided boundary rows are second order like the centered
        # ones: Dq reproduces quadratics and Dqq cubics at every row
        g = StripGrid(2.0, 8, ny)
        q = g.q
        quad, cubic = 1.0 - 3.0 * q + 2.5 * q ** 2, 0.5 + q - 2.0 * q ** 2 + 3.0 * q ** 3
        assert np.max(np.abs(g.Dq @ quad - (-3.0 + 5.0 * q))) < 1e-11
        assert np.max(np.abs(g.Dqq @ cubic - (-4.0 + 18.0 * q))) < 1e-9

    def test_reflect_first_difference_vanishes_at_the_ends(self):
        g = StripGrid(2.0, 9, 8, "reflect")
        assert g.Dx.getrow(0).nnz == 0 and g.Dx.getrow(8).nnz == 0
        v = np.exp(g.x)
        assert np.all((g.Dx @ v)[1:-1] != 0.0)
        assert (g.Dx @ v)[0] == 0.0 and (g.Dx @ v)[-1] == 0.0

    @pytest.mark.parametrize("topology", ["periodic", "reflect"])
    def test_grids_of_one_shape_share_their_operators(self, topology):
        # the cache is keyed by shape, so new periods add no entry: each
        # grid scales the shared unit-spacing x pair by its own spacing
        first = StripGrid(2.37, 40, 20, topology)
        info = wavesolver._difference_matrices.cache_info()
        for L in np.linspace(0.5, 50.0, 50):
            grid = StripGrid(L, 40, 20, topology)
            assert grid.Dq is first.Dq and grid.Dqq is first.Dqq
            for name in ("Dx", "Dxx"):
                for a in ("indices", "indptr"):
                    assert np.shares_memory(getattr(getattr(grid, name), a),
                                            getattr(getattr(first, name), a))
        after = wavesolver._difference_matrices.cache_info()
        assert (after.currsize, after.misses) == (info.currsize, info.misses)

    @pytest.mark.parametrize("topology", ["periodic", "reflect"])
    def test_operators_match_the_stencils_built_at_their_spacing(
            self, topology):
        # Dx, Dxx at random spacings, and Dq, Dqq at random ny, bit for bit
        rng = np.random.default_rng(40 if topology == "periodic" else 41)
        for _ in range(60):
            nx, ny = (int(n) for n in rng.integers(4, 300, 2))
            g = StripGrid(10.0 ** rng.uniform(-3.0, 3.0), nx, ny, topology)
            for ours, theirs in (
                    ((g.Dx, g.Dxx), _stencils_at(nx, g.dx, topology)),
                    ((g.Dq, g.Dqq), _stencils_at(ny + 1, 1.0 / ny,
                                                 "one-sided"))):
                for D, R in zip(ours, theirs):
                    assert np.array_equal(D.data.view(np.uint64),
                                          R.data.view(np.uint64))
                    assert np.array_equal(D.indices, R.indices)
                    assert np.array_equal(D.indptr, R.indptr)

    def test_flat_state_builds_no_operator_once_dq_is_cached(self, still_b2):
        StripGrid(1.9, 24, 20)
        misses = wavesolver._difference_matrices.cache_info().misses
        flat_state(still_b2, B2, 1.9, 24, 20)
        assert wavesolver._difference_matrices.cache_info().misses == misses

    def test_shared_operators_are_read_only(self):
        g = StripGrid(2.0, 16, 8)
        for D in (g.Dx, g.Dxx, g.Dq, g.Dqq):
            for a in (D.data, D.indices, D.indptr):
                with pytest.raises(ValueError):
                    a[0] = a[0]
        with pytest.raises(ValueError):
            g.Dx.data[:] = 0.0
        assert np.array_equal(g.Dx @ np.ones(16), np.zeros(16))

    def test_validation(self):
        with pytest.raises(ValueError):
            StripGrid(-1.0, 8, 8)
        with pytest.raises(ValueError):
            StripGrid(2.0, 3, 8)
        with pytest.raises(ValueError):
            StripGrid(2.0, 8, 8, "moebius")


class TestWaveState:
    def _valid(self):
        ny = 6
        psi = np.tile(np.linspace(0.0, 1.0, ny + 1), (8, 1))
        return dict(period_L=2.0, nx=8, ny=ny, psi=psi,
                    eta=np.ones(8), r=0.5)

    def test_round_trip(self):
        st = WaveState(**self._valid())
        st2 = WaveState.from_dict(json.loads(cli._render(st)))
        assert st2.r == st.r
        assert np.array_equal(st2.psi, st.psi)
        assert np.array_equal(st2.eta, st.eta)

    def test_shape_checks(self):
        bad = self._valid()
        bad["eta"] = np.ones(7)
        with pytest.raises(ValueError):
            WaveState(**bad)
        bad = self._valid()
        bad["psi"] = bad["psi"][:, :-1]
        with pytest.raises(ValueError):
            WaveState(**bad)

    def test_positivity_and_finiteness(self):
        bad = self._valid()
        bad["eta"] = bad["eta"].copy()
        bad["eta"][3] = 0.0
        with pytest.raises(ValueError):
            WaveState(**bad)
        bad = self._valid()
        bad["r"] = math.nan
        with pytest.raises(ValueError):
            WaveState(**bad)

    def test_from_dict_missing_field(self):
        d = dataclasses.asdict(WaveState(**self._valid()))
        del d["eta"]
        with pytest.raises(ValueError):
            WaveState.from_dict(d)


class TestFlatState:
    def test_constant_flat_residual(self, still_b2):
        st = flat_state(still_b2, B2, 2.0, 32, 24)
        assert residual_norms(st, B2).max() < 1e-12

    def test_linear_flat_residual(self, still_lin):
        st = flat_state(still_lin, LIN, 2.0, 32, 24)
        assert residual_norms(st, LIN).max() < 1e-12

    def test_quadratic_flat_residual(self, still_quad):
        st = flat_state(still_quad, QUAD, 2.0, 32, 24)
        assert residual_norms(st, QUAD).max() < 1e-12

    def test_flat_is_newton_fixed_point(self, still_b2):
        st = flat_state(still_b2, B2, 2.0, 16, 12)
        res = newton_solve(st, B2)
        assert res.iterations == 0
        assert np.array_equal(res.state.eta, st.eta)

    @pytest.mark.parametrize("ny", [8, 32, 128])
    @pytest.mark.parametrize("dist, s", [
        (B2, None), (LIN, None), (QUAD, None), (BM1, 0.0),
        (LinearVorticity(b=-1.0), 0.5), (QUAD, 2.0)],
        ids=["constant", "linear", "quadratic", "criterion_6",
             "moving_linear", "moving_quadratic"])
    def test_meets_its_bernoulli_rows_to_an_ulp(self, dist, s, ny):
        # r comes from the residual's own surface stencil, so only the
        # rounding of 3 r and of the sum is left
        st = flat_state(_solution(dist, s), dist, 2.0, 8, ny)
        bern = residual_fields(st, dist)["bernoulli"]
        assert np.max(np.abs(bern)) <= np.spacing(3.0 * st.r)

    def test_bernoulli_row_linear_in_r(self, still_b2):
        st = flat_state(still_b2, B2, 2.0, 16, 12)
        base = residual_norms(st, B2)
        st.r += 0.01
        shifted = residual_norms(st, B2)
        assert shifted.bernoulli == pytest.approx(0.03, abs=1e-12)
        assert shifted.pde == base.pde

    def test_polish_solves_an_indefinite_column(self):
        # omega' = b = 1 / (h dq)^2 on h = 1: the vertical system is
        # indefinite, with an exactly zero second pivot if unpivoted
        ny, dist = 16, LinearVorticity(b=256.0)
        q = np.linspace(0.0, 1.0, ny + 1)
        col = wavesolver._polish_flat_column(np.sin(16.0 * q) / math.sin(16.0),
                                             1.0, ny, dist)
        G = np.diff(col, 2) * ny ** 2 + dist.omega(col[1:ny])
        assert np.max(np.abs(G)) <= 1e-12

    @pytest.mark.parametrize("ny", [1, 2])
    def test_too_few_q_nodes_is_value_error(self, still_b2, ny):
        # the one-sided q closures need four nodes, ny + 1 >= 4
        with pytest.raises(ValueError, match="at least 4 nodes"):
            flat_state(still_b2, B2, 2.0, 8, ny)
        with pytest.raises(ValueError, match="at least 4 nodes"):
            perturbed_state(still_b2, B2, 2.0, 8, ny, amplitude=0.01)

    def test_perturbed_state_ripple(self, still_b2):
        st = perturbed_state(still_b2, B2, 2.0, 16, 12, amplitude=0.01,
                             mode=2)
        expected = 1.0 + 0.01 * np.cos(4.0 * np.pi * st.x / 2.0)
        assert np.max(np.abs(st.eta - expected)) < 1e-14


def _order(grid, pin=None):
    """The order of the Jacobian's rows and columns on grid, from an
    uncached layout, so the tests that count layout builds count only the
    solver's own."""
    return wavesolver._jacobian_layout.__wrapped__(
        grid.nx, grid.ny, grid.topology, None if pin is None else pin[0]).order


def _renumbered(M, new):
    """M with entry (i, j) moved to (new[i], new[j]), in CSC with sorted
    indices; explicit zeros and the signs of zeros stay."""
    M = M.tocoo()
    return sp.csc_matrix((M.data, (new[M.row], new[M.col])), shape=M.shape)


def _assert_matches_central_differences(grid, st, dist, pin=None):
    """J d against (F(z + eps d) - F(z - eps d)) / (2 eps) for three random
    unit directions d, both in the Jacobian's order. With pin, r and the
    pin row join the system."""
    nx, ny = grid.nx, grid.ny
    n_int = nx * (ny - 1)
    parts = _residual_parts(st.psi, st.eta, st.r, grid, dist)
    J = _assemble_jacobian(st.psi, st.eta, parts, grid, dist, pin=pin)
    order = _order(grid, pin)

    def residual(z):
        ps = st.psi.copy()
        ps[:, 1:ny] += z[:n_int].reshape(nx, ny - 1)
        et = st.eta + z[n_int:n_int + nx]
        if pin is None:
            return _residual_vec(_residual_parts(ps, et, st.r, grid, dist))
        F = _residual_vec(_residual_parts(ps, et, st.r + z[-1], grid, dist))
        return np.append(F, et[pin[0]] - pin[1])

    rng = np.random.default_rng(11)
    eps = 1e-6
    for _ in range(3):
        d = rng.standard_normal(J.shape[1])
        d /= np.linalg.norm(d)
        fd = ((residual(eps * d) - residual(-eps * d)) / (2.0 * eps))[order]
        Jd = J @ d[order]
        assert np.max(np.abs(Jd - fd)) < 5e-5 * max(1.0, np.max(np.abs(Jd)))


def _wavy_state(sol, dist, grid):
    """A rippled state on the grid's own nodes. Its psi varies in x, so
    the Psi_xq terms of the eta-block are nonzero; on a flow moving at the
    surface the Bernoulli eta_x term is nonzero too."""
    st = flat_state(sol, dist, grid.period_L, grid.nx, grid.ny)
    kx = 2.0 * math.pi * grid.x / grid.period_L
    st.eta = sol.depth * (1.0 + 0.03 * np.cos(kx))
    st.psi[:, 1:-1] += 0.02 * np.outer(np.sin(kx) + 0.5,
                                       np.sin(math.pi * st.q[1:-1]))
    return st


def _scipy_jacobian(psi, eta, parts, grid, dist, pin=None):
    """The Jacobian as sp.kron factors, diags products and sp.bmat formed
    it before the assembly on a cached pattern: the oracle of its bits."""
    nx, ny, inner = grid.nx, grid.ny, slice(1, grid.ny)
    Ix, col = sp.identity(nx, format="csr"), np.ones((ny - 1, 1))
    Dq, Dqq = grid.Dq[inner, inner], grid.Dqq[inner, inner]
    K_xx, K_qq, K_xq, K_q, E, E_x, E_xx, S = (
        sp.kron(grid.Dxx, sp.identity(ny - 1, format="csr"), format="csr"),
        sp.kron(Ix, Dqq, format="csr"), sp.kron(grid.Dx, Dq, format="csr"),
        sp.kron(Ix, Dq, format="csr"),
        *(sp.kron(D, col, format="csr") for D in (Ix, grid.Dx, grid.Dxx)),
        sp.kron(Ix, grid.Dq[-1:, inner], format="csr"))
    ex, exx, pq, pqq, pxq = parts.ex, parts.exx, parts.pq, parts.pqq, parts.pxq
    q = grid.q[None, :]
    inv_eta = 1.0 / eta[:, None]
    qe = q * ex[:, None] * inv_eta
    metric = 1.0 + (q * ex[:, None]) ** 2
    pq_s = pq[:, ny]
    s2 = (pq_s / eta) ** 2

    def diag(coef):
        return sp.diags(coef[:, inner].ravel())

    J_pp = (K_xx + diag(metric * inv_eta ** 2) @ K_qq
            + diag(-2.0 * qe) @ K_xq
            + diag(q * (2.0 * (ex[:, None] * inv_eta) ** 2
                        - exx[:, None] * inv_eta)) @ K_q
            + sp.diags(np.asarray(dist.derivative(psi[:, inner]),
                                  dtype=float).ravel()))
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


def _assert_bits_match_the_oracle(grid, st, dist, pin=None):
    """The assembled Jacobian against _scipy_jacobian's CSC arrays, taken
    in the layout's order, the signs of zeros included. Returns the
    assembled one."""
    parts = _residual_parts(st.psi, st.eta, st.r, grid, dist)
    J = _assemble_jacobian(st.psi, st.eta, parts, grid, dist, pin=pin)
    ref = _renumbered(
        _scipy_jacobian(st.psi, st.eta, parts, grid, dist, pin=pin),
        np.argsort(_order(grid, pin)))
    assert J.format == "csc"
    for a, b in ((J.indptr, ref.indptr), (J.indices, ref.indices),
                 (J.data, ref.data), (np.signbit(J.data),
                                      np.signbit(ref.data))):
        assert np.array_equal(a, b)
    return J


class TestJacobian:
    def test_matches_central_differences(self, still_b2):
        grid = StripGrid(2.0, 8, 6, "periodic")
        st = perturbed_state(still_b2, B2, 2.0, 8, 6, amplitude=0.03)
        _assert_matches_central_differences(grid, st, B2)

    @pytest.mark.parametrize("topology, nx", [("reflect", 9), ("periodic", 11)])
    def test_other_grids_match_central_differences(self, moving_bm1,
                                                   topology, nx):
        grid = StripGrid(2.0, nx, 6, topology)
        _assert_matches_central_differences(
            grid, _wavy_state(moving_bm1, BM1, grid), BM1)

    def test_bordered_system_matches_central_differences(self, moving_bm1):
        grid = StripGrid(2.0, 9, 6, "reflect")
        st = _wavy_state(moving_bm1, BM1, grid)
        _assert_matches_central_differences(grid, st, BM1,
                                            pin=(0, st.eta[0] + 0.01))

    def test_assembly_memory_scales_with_nonzeros(self, still_lin):
        # cold: the first grid of the shape builds its layout inside the
        # traced span; warm: a second grid of the shape reuses it
        wavesolver._jacobian_layout.cache_clear()
        for L in (3.0, 4.0):
            grid = StripGrid(L, 128, 64, "periodic")
            st = perturbed_state(still_lin, LIN, L, 128, 64, amplitude=0.006)
            tracemalloc.start()
            try:
                parts = _residual_parts(st.psi, st.eta, st.r, grid, LIN)
                J = _assemble_jacobian(st.psi, st.eta, parts, grid, LIN)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            csr_bytes = J.data.nbytes + J.indices.nbytes + J.indptr.nbytes
            assert peak < 8.0 * csr_bytes
        assert wavesolver._jacobian_layout.cache_info().misses == 1

    @pytest.mark.parametrize("dist", [B2, LIN, QUAD, TAB],
                             ids=lambda d: d.family)
    @pytest.mark.parametrize("kind", ["flat", "rippled", "pinned-reflect"])
    def test_bits_match_the_scipy_assembly(self, dist, kind):
        sol = still_depth_family(dist)[0]
        if kind == "pinned-reflect":
            grid = StripGrid(2.0, 17, 12, "reflect")
            st = _wavy_state(sol, dist, grid)
            _assert_bits_match_the_oracle(grid, st, dist,
                                          pin=(0, st.eta[0] + 0.01))
            return
        grid = StripGrid(2.0, 16, 12, "periodic")
        st = flat_state(sol, dist, 2.0, 16, 12)
        if kind == "rippled":
            st.eta = _rippled(st, 0.02 * sol.depth)
        J = _assert_bits_match_the_oracle(grid, st, dist)
        if kind == "flat":
            # eta_x = 0: the exact zeros of its terms are dropped
            indices = wavesolver._jacobian_layout(16, 12, "periodic", None)[0]
            assert J.nnz < indices.size

    def test_zero_surface_derivative_keeps_explicit_zeros(self, moving_bm1):
        # Psi = 1 on the top three q nodes of one column makes the one-sided
        # Psi_q vanish exactly there, and the Bernoulli row's psi entries
        # stay as explicit zeros
        grid = StripGrid(2.0, 9, 6, "reflect")
        st = _wavy_state(moving_bm1, BM1, grid)
        st.psi[3, -3:] = 1.0
        parts = _residual_parts(st.psi, st.eta, st.r, grid, BM1)
        assert parts.pq[3, -1] == 0.0
        J = _assert_bits_match_the_oracle(grid, st, BM1,
                                          pin=(0, st.eta[0] + 0.01))
        assert np.count_nonzero(J.data == 0.0) == 2

    def test_layout_is_built_once_per_shape(self, moving_bm1):
        layout = wavesolver._jacobian_layout
        layout.cache_clear()
        for L in (2.0, 3.0):
            grid = StripGrid(L, 9, 6, "reflect")
            st = _wavy_state(moving_bm1, BM1, grid)
            _assert_matches_central_differences(grid, st, BM1,
                                                pin=(0, st.eta[0] + 0.01))
        assert layout.cache_info()[:2] == (1, 1)  # hits, misses
        # another topology, pin index or no pin: a layout each
        for topology, pin in (("periodic", 0), ("reflect", 2),
                              ("reflect", None)):
            grid = StripGrid(2.0, 9, 6, topology)
            st = _wavy_state(moving_bm1, BM1, grid)
            _assert_matches_central_differences(
                grid, st, BM1, pin=None if pin is None else (pin, 1.0))
        assert layout.cache_info()[:2] == (1, 4)


@pytest.fixture
def captured_factors(monkeypatch):
    """Each (matrix, SuperLU factor) the solver makes."""
    out = []

    def capture(A, **kwargs):
        out.append((A, splu(A, **kwargs)))
        return out[-1][1]
    splu = wavesolver.splu
    monkeypatch.setattr(wavesolver, "splu", capture)
    return out


def _relative_residual(A, x, b):
    return np.linalg.norm(A @ x - b) / np.linalg.norm(b)


class TestOrder:
    """The nested-dissection order of the Jacobian and its factor."""

    @pytest.mark.parametrize("nx, ny", [(16, 12), (64, 32), (65, 64)])
    @pytest.mark.parametrize("topology", ["periodic", "reflect"])
    @pytest.mark.parametrize("pin_index", [None, 0])
    def test_order_is_a_permutation_with_eta_and_r_last(self, nx, ny,
                                                        topology, pin_index):
        order = wavesolver._jacobian_layout(nx, ny, topology, pin_index).order
        n_int, n = nx * (ny - 1), nx * ny + (pin_index is not None)
        assert np.array_equal(np.sort(order), np.arange(n))
        assert np.array_equal(order[n_int:], np.arange(n_int, n))

    @pytest.mark.parametrize("nx, periodic, expected", [
        # a 5 x 3 box: two 2 x 3 leaves, then the middle column
        (5, False, [0, 1, 2, 3, 4, 5, 9, 10, 11, 12, 13, 14, 6, 7, 8]),
        # column 0 opens the ring and goes last; the rest is that box
        (6, True, [3, 4, 5, 6, 7, 8, 12, 13, 14, 15, 16, 17, 9, 10, 11,
                   0, 1, 2])])
    def test_small_boxes_split_at_the_middle_line(self, nx, periodic,
                                                  expected):
        assert wavesolver._nested_dissection(nx, 4, periodic).tolist() \
            == expected

    def test_a_tall_box_splits_across_q(self):
        # 3 x 7 interior nodes: the middle row q = 3 separates the halves
        order = wavesolver._nested_dissection(3, 8, False)
        assert order[-3:].tolist() == [3, 10, 17]
        assert sorted(order[:9] % 7) == [0, 0, 0, 1, 1, 1, 2, 2, 2]

    @pytest.mark.parametrize("topology, nx, pin", [
        ("periodic", 16, None), ("reflect", 9, (0, 1.01)),
        ("periodic", 11, (3, 0.99))])
    def test_solves_match_dense_solves(self, moving_bm1, topology, nx, pin):
        grid = StripGrid(2.0, nx, 12, topology)
        st = _wavy_state(moving_bm1, BM1, grid)
        J = _assemble_jacobian(st.psi, st.eta, _residual_parts(
            st.psi, st.eta, st.r, grid, BM1), grid, BM1, pin=pin)
        dense = _renumbered(J, _order(grid, pin)).toarray()
        lu = wavesolver._factor(J, grid, pin)
        for b in np.random.default_rng(nx).standard_normal((2, J.shape[0])):
            ref = np.linalg.solve(dense, b)
            assert np.max(np.abs(lu(b) - ref)) <= 1e-10 * np.max(
                np.abs(ref))

    def test_seed_factor_makes_less_fill_than_minimum_degree(
            self, moving_bm1, captured_factors):
        # the continuation's seed Jacobian at 128 x 64: a 65 x 64 half
        # grid with the pin, 4161 unknowns
        wavesolver.bifurcation_branch(moving_bm1, BM1, BIFURCATION_K,
                                      amplitude=0.01, nx=128, ny=64)
        J, lu = captured_factors[0]
        assert J.shape == (4161, 4161)
        grid = StripGrid(2.0, 65, 64, "reflect")
        natural = _renumbered(J, _order(grid, (0, 1.0)))
        mmd = splu(natural, permc_spec="MMD_AT_PLUS_A")
        assert lu.L.nnz + lu.U.nnz <= mmd.L.nnz + mmd.U.nnz
        assert lu.L.nnz + lu.U.nnz <= 279_277
        b = np.random.default_rng(4161).standard_normal(4161)
        x = wavesolver._factor(J, grid, (0, 1.0))(b)
        assert _relative_residual(natural, x, b) <= 1e-10
        ref = mmd.solve(b)
        assert np.max(np.abs(x - ref)) <= 1e-10 * np.max(np.abs(ref))

    def test_fine_periodic_factor_matches_minimum_degree(self, still_b2):
        grid = StripGrid(3.0, 256, 128)
        st = perturbed_state(still_b2, B2, 3.0, 256, 128, amplitude=0.05)
        J = _assemble_jacobian(st.psi, st.eta, _residual_parts(
            st.psi, st.eta, st.r, grid, B2), grid, B2)
        natural = _renumbered(J, _order(grid))
        b = np.random.default_rng(256).standard_normal(J.shape[0])
        x = wavesolver._factor(J, grid, None)(b)
        assert _relative_residual(natural, x, b) <= 1e-10
        ref = splu(natural, permc_spec="MMD_AT_PLUS_A").solve(b)
        assert np.max(np.abs(x - ref)) <= 1e-10 * np.max(np.abs(ref))

    def test_order_is_built_once_per_shape(self, moving_bm1,
                                           captured_factors):
        # two continuations, two grids of one shape: one layout and one
        # order, shared by both seed factors
        wavesolver._jacobian_layout.cache_clear()
        for a in (0.01, 0.012):
            wavesolver.bifurcation_branch(moving_bm1, BM1, BIFURCATION_K,
                                          amplitude=a, nx=128, ny=64)
        info = wavesolver._jacobian_layout.cache_info()
        assert info.misses == 1 and info.hits >= 1
        assert len(captured_factors) >= 2


def _singular_flat_solver(*args):
    raise RuntimeError("flat Jacobian is singular")


class TestNewton:
    def test_small_ripple_flattens(self, still_b2):
        st = perturbed_state(still_b2, B2, 2.0, 32, 16, amplitude=0.01)
        res = newton_solve(st, B2)
        assert np.max(np.abs(res.state.eta - 1.0)) < 1e-8
        assert res.norms.max() < 1e-10
        assert res.iterations <= 8

    def test_norms_are_those_of_the_returned_state(self, still_lin):
        st = perturbed_state(still_lin, LIN, 2.0, 32, 16, amplitude=0.01)
        res = newton_solve(st, LIN)
        assert res.norms == residual_norms(res.state, LIN)

    def test_prime_nx_converges_as_fast(self, still_b2):
        its = [newton_solve(perturbed_state(still_b2, B2, 2.0, nx, 16,
                                            amplitude=0.01), B2).iterations
               for nx in (31, 32)]
        assert its[0] == its[1]

    def test_singular_jacobian_is_newton_diverged(self, still_b2,
                                                  monkeypatch):
        def zero_jacobian(psi, eta, parts, grid, dist, pin=None):
            n = grid.nx * grid.ny
            return sp.csr_matrix((n, n))

        # the flat reference raises, so the solve takes exact steps on the
        # zero Jacobian, whose SuperLU factor fails
        monkeypatch.setattr(wavesolver, "_assemble_jacobian", zero_jacobian)
        monkeypatch.setattr(wavesolver, "_FlatModel", _singular_flat_solver)
        st = perturbed_state(still_b2, B2, 2.0, 16, 12, amplitude=0.01)
        with pytest.raises(NewtonDiverged, match="singular"):
            newton_solve(st, B2)

    def test_singular_reference_falls_back_to_exact(self, still_b2, caplog):
        caplog.set_level(logging.DEBUG, logger="stillwave")
        st = perturbed_state(still_b2, B2, 2.0, 16, 12, amplitude=0.01)
        grid = StripGrid(2.0, 16, 12)
        n = grid.nx * grid.ny
        singular = partial(wavesolver._factor, sp.csc_matrix((n, n)), grid,
                           None)
        chord = _newton_core(st.psi, st.eta, st.r, grid, B2, 1e-10, 40,
                             reference=singular)
        assert [r.getMessage().split(" (")[0] for r in caplog.records] == [
            "singular chord reference"]
        exact = _newton_core(st.psi, st.eta, st.r, grid, B2, 1e-10, 40)
        assert chord[3] == exact[3]
        assert np.array_equal(chord[1], exact[1])

    def test_singular_flat_solver_falls_back_to_exact(self, still_b2):
        # Psi = q on h = 1: Psi_q(1) = 1 and Psi_qq = 0 exactly at ny = 16,
        # so bern_eta = 0, the m = 0 eta column is 0 and the m = 0 Schur
        # complement is exactly 0 (at ny = 12 roundoff leaves 5.5e-15)
        st = perturbed_state(still_b2, B2, 2.0, 16, 16, amplitude=0.01)
        grid = StripGrid(2.0, 16, 16)
        def singular():
            return wavesolver._FlatModel(grid.q, 1.0, 16, B2).solver(grid)
        with pytest.raises(RuntimeError, match="singular"):
            singular()
        chord = _newton_core(st.psi, st.eta, st.r, grid, B2, 1e-10, 40,
                             reference=singular)
        exact = _newton_core(st.psi, st.eta, st.r, grid, B2, 1e-10, 40)
        assert chord[3] == exact[3]
        assert np.array_equal(chord[1], exact[1])

    def test_unreachable_bernoulli_level_fails(self, still_b2):
        st = flat_state(still_b2, B2, 2.0, 16, 12)
        st.r = -10.0
        with pytest.raises((NewtonDiverged, SurfaceCollapse)):
            newton_solve(st, B2, max_iter=30)


class TestDispersion:
    def test_still_constant_closed_form(self, still_b2):
        # omega' = 0: f = sinh(k y) / k and the functional is -f(h)
        for k in (0.5, 1.0, 2.0):
            sig = dispersion_sigma(still_b2, B2, k)
            assert sig == pytest.approx(-math.sinh(k) / k, abs=1e-10)
            f, h = dispersion_mode(still_b2, B2, k)
            assert sig == pytest.approx(-float(f(h)), abs=1e-10)

    def test_integrator_failure_raises_step_failure(self, still_b2):
        # at k = 1000 the mode grows like e^(k y) past the float range
        with np.errstate(over="ignore", invalid="ignore"), \
                pytest.raises(StepFailure, match="dispersion integration"):
            dispersion_sigma(still_b2, B2, 1000.0)

    def test_non_finite_sigma_is_step_failure(self, still_b2):
        # at k = 700 on h = 1 the integration reports success with f'(h)
        # past the float maximum, and sigma would be nan
        for k in (700.0, [1.0, 700.0]):
            with pytest.raises(StepFailure,
                               match=r"not finite at k = \[700\.0\]"):
                dispersion_sigma(still_b2, B2, k)
        assert math.isfinite(dispersion_sigma(still_b2, B2, 600.0))

    def test_moving_constant_closed_form(self, moving_bm1):
        s2 = math.sqrt(2.0)
        for k in (0.25, 0.8, 1.5, 3.0):
            expected = (2.0 * math.cosh(s2 * k)
                        - (1.0 + s2) * math.sinh(s2 * k) / k)
            assert dispersion_sigma(moving_bm1, BM1, k) == pytest.approx(
                expected, abs=1e-9)

    def test_zero_wavenumber_limit(self, moving_bm1):
        # f = y at k = 0, so the functional is 2 - (1 + sqrt 2) sqrt 2
        assert dispersion_sigma(moving_bm1, BM1, 0.0) == pytest.approx(
            -math.sqrt(2.0), abs=1e-10)

    def test_still_flow_has_no_bifurcation(self, still_b2):
        assert find_bifurcation_points(still_b2, B2, 0.0, 5.0,
                                       scan_points=81).size == 0

    def test_moving_flow_single_root(self, moving_bm1):
        roots = find_bifurcation_points(moving_bm1, BM1, 0.0, 5.0)
        assert roots.size == 1
        assert roots[0] == pytest.approx(BIFURCATION_K, abs=1e-8)

    @pytest.mark.parametrize(
        "dist, s", SCAN_FLOWS,
        ids=[f"{d.family}-{'still' if s is None else 'moving'}"
             for d, s in SCAN_FLOWS])
    def test_scan_matches_scalar_path(self, dist, s):
        sol = _solution(dist, s)
        ks = np.linspace(0.0, 5.0, 21)
        scan = dispersion_sigma(sol, dist, ks)
        ref = np.array([dispersion_sigma(sol, dist, k) for k in ks])
        assert np.all(np.abs(scan - ref) <= 1e-9 * np.maximum(1.0, np.abs(ref)))
        assert np.array_equal(np.sign(scan), np.sign(ref))

    def test_root_at_a_scan_node(self, monkeypatch, caplog):
        # omega' = 2 on [0, 1] gives f = sin(sqrt 2 y) / sqrt 2 at k = 0 and
        # h = pi / sqrt 2, so sigma(0) = -f(h) = 0 and the sign of either
        # path at that node is roundoff. Flipping the scan's sign there
        # makes a bracket whose ends the polish gives one sign.
        hat = TabulatedVorticity(nodes=[0.0, 1.0], values=[-1.0, 1.0])
        sol = still_depth_family(hat)[0]
        sigma0 = dispersion_sigma(sol, hat, 0.0)
        assert sigma0 == pytest.approx(0.0, abs=1e-12)
        sigma = wavesolver.dispersion_sigma

        def flipped(sol, dist, k):
            sig = sigma(sol, dist, k)
            if np.ndim(sig) == 1:  # the scan, not the polish
                sig[0] = -math.copysign(abs(sig[0]), sigma0)
            return sig

        monkeypatch.setattr(wavesolver, "dispersion_sigma", flipped)
        caplog.set_level(logging.DEBUG, logger="stillwave")
        roots = find_bifurcation_points(sol, hat, 0.0, 5.0, scan_points=21)
        assert roots.tolist() == [0.0]
        (record,) = caplog.records
        assert record.levelno == logging.DEBUG
        assert record.getMessage().endswith("root at the node 0")

    def test_array_keeps_shape_and_scalar_stays_scalar(self, moving_bm1):
        ks = np.array([[0.25, 0.8], [1.5, 3.0]])
        assert dispersion_sigma(moving_bm1, BM1, ks).shape == (2, 2)
        assert dispersion_sigma(moving_bm1, BM1, ks[:1, :1]).shape == (1, 1)
        sig = dispersion_sigma(moving_bm1, BM1, 0.8)
        assert np.ndim(sig) == 0 and isinstance(sig, float)

    @pytest.mark.filterwarnings("ignore:overflow encountered")
    @pytest.mark.parametrize("k", [math.nan, math.inf, -math.inf, 1e200,
                                   [0.5, math.nan]])
    def test_unintegrable_wavenumber_rejected(self, moving_bm1, k):
        with pytest.raises(ValueError, match="finite"):
            dispersion_sigma(moving_bm1, BM1, k)
        if np.ndim(k) == 0:
            with pytest.raises(ValueError, match="finite"):
                dispersion_mode(moving_bm1, BM1, k)

    def test_one_scan_and_one_polish_call(self, moving_bm1, still_b2,
                                           sigma_calls):
        # the default scan's one bracket is resolved by one polish call on
        # its 9 Chebyshev nodes; a still flow has no bracket to polish
        assert find_bifurcation_points(moving_bm1, BM1, 0.0, 5.0).size == 1
        assert sigma_calls == [(201,), (1, 9)]
        sigma_calls.clear()
        assert find_bifurcation_points(still_b2, B2, 0.0, 5.0).size == 0
        assert sigma_calls == [(201,)]

    @pytest.mark.parametrize("dist, s", [
        (BM1, 0.0), (LinearVorticity(b=-1.0), 0.5),
        # one flow from each of the benchmark's branch families
        (ConstantVorticity(b=-1.4), 0.2), (LinearVorticity(b=-1.3), 0.5),
    ], ids=["constant-bm1", "linear-bm1", "constant-band", "linear-band"])
    def test_polish_matches_brentq(self, dist, s):
        sol = shear_solution(dist, s)
        (root,) = find_bifurcation_points(sol, dist, 0.0, 5.0)
        ref = brentq(partial(dispersion_sigma, sol, dist), root - 0.02,
                     root + 0.02, xtol=1e-14)
        assert abs(root - ref) <= 1e-11

    def test_coarse_scan_narrows_its_bracket(self, moving_bm1, sigma_calls):
        # the scan [0.5, 1.25, 2] leaves a bracket too wide for one
        # degree-8 interpolant, so the polish narrows it and calls again
        (root,) = find_bifurcation_points(moving_bm1, BM1, 0.5, 2.0,
                                          scan_points=3)
        assert sigma_calls[0] == (3,) and len(sigma_calls) > 2
        assert set(sigma_calls[1:]) == {(1, 9)}
        ref = brentq(partial(dispersion_sigma, moving_bm1, BM1), 0.5, 1.25,
                     xtol=1e-14)
        assert abs(root - ref) <= 1e-11
        assert abs(root - BIFURCATION_K) <= 1e-11

    def test_polishes_every_bracket_in_one_call_per_pass(self, moving_bm1,
                                                         monkeypatch):
        # sigma = cos 2k has zeros pi/4, 3pi/4 and 5pi/4 in [0, 5]; the scan
        # at 0, 1, ..., 5 brackets each in a unit interval, which takes
        # more than one pass, and each pass is one call on every bracket
        # still open
        calls = []

        def cosine(sol, dist, k):
            calls.append(np.shape(k))
            return np.cos(2.0 * np.asarray(k, dtype=float))[()]

        monkeypatch.setattr(wavesolver, "dispersion_sigma", cosine)
        roots = find_bifurcation_points(moving_bm1, BM1, 0.0, 5.0,
                                        scan_points=6)
        want = np.pi / 4.0 * np.array([1.0, 3.0, 5.0])
        assert roots.shape == (3,)
        assert np.max(np.abs(roots - want)) <= 1e-12
        assert calls[0] == (6,) and len(calls) > 2
        assert all(len(c) == 2 and c[1] == 9 for c in calls[1:])
        assert calls[1] == (3, 9)
        counts = [c[0] for c in calls[1:]]
        assert counts == sorted(counts, reverse=True)

    @pytest.mark.parametrize("k_min, k_max, scan_points", [
        (0.0, 5.0, 1), (0.0, 5.0, 0), (2.0, 2.0, 11), (3.0, 1.0, 11),
        (0.0, math.inf, 11), (math.nan, 5.0, 11),
    ])
    def test_bad_scan_rejected(self, moving_bm1, k_min, k_max, scan_points):
        with pytest.raises(ValueError):
            find_bifurcation_points(moving_bm1, BM1, k_min, k_max,
                                    scan_points=scan_points)


def _exact_branch(monkeypatch, *args, **kwargs):
    """bifurcation_branch on exact Newton: its _newton_core gets no
    reference."""
    core = wavesolver._newton_core
    with monkeypatch.context() as m:
        m.setattr(wavesolver, "_newton_core",
                  lambda *a, reference=None, **kw: core(*a, **kw))
        return bifurcation_branch(*args, **kwargs)


class TestBifurcationBranch:
    def test_nontrivial_branch(self, moving_bm1):
        res = bifurcation_branch(moving_bm1, BM1, BIFURCATION_K,
                                 amplitude=0.02, nx=64, ny=32)
        eta = res.state.eta
        h = moving_bm1.depth
        assert res.norms.max() < 1e-9
        assert np.max(np.abs(eta - h)) > 1e-4
        # crest pinned at x = 0
        assert eta[0] == np.max(eta)
        assert eta[0] == pytest.approx(h + 0.02, abs=1e-10)
        # unfolded state is even about x = 0
        idx = (64 - np.arange(64)) % 64
        assert np.max(np.abs(eta - eta[idx])) < 1e-12

    def test_raised_flat_state_rejected(self):
        # the pinned crest also admits eta = h + a, where Newton lands for
        # this flow instead of on a wave
        dist = ConstantVorticity(b=-0.5)
        sol = shear_solution(dist, s=0.0)
        k = float(find_bifurcation_points(sol, dist)[0])
        with pytest.raises(NewtonDiverged,
                           match="on the 64x32 grid .* flat state"):
            bifurcation_branch(sol, dist, k, amplitude=0.01, nx=64, ny=32)

    @pytest.mark.parametrize("dist, s, amplitude", [
        (BM1, 0.0, 0.02), (LinearVorticity(b=-1.3), 0.5, 0.01)],
        ids=["criterion_6", "linear"])
    def test_factors_once_at_its_seed(self, dist, s, amplitude,
                                      factorizations, monkeypatch):
        # criterion 6's flow and a flow from the benchmark's linear band:
        # every step is a chord step on the seed's bordered Jacobian
        sol = shear_solution(dist, s)
        (k,) = find_bifurcation_points(sol, dist)
        res = bifurcation_branch(sol, dist, k, amplitude=amplitude,
                                 nx=128, ny=64)
        # the flat model builds the seed; no chord step solves on it
        assert factorizations == {"splu": 1, "flat": 1}
        assert res.norms.max() < 1e-9
        exact = _exact_branch(monkeypatch, sol, dist, k, amplitude=amplitude,
                              nx=128, ny=64)
        assert np.max(np.abs(res.state.eta - exact.state.eta)) <= 1e-8
        assert abs(res.state.r - exact.state.r) <= 1e-8

    def test_rejected_chord_trial_falls_back_to_exact(
            self, moving_bm1, factorizations, monkeypatch, caplog):
        # at 64x32 a chord step after the first does not contract 4x; the
        # first equals exact Newton's, which also starts from the seed
        caplog.set_level(logging.DEBUG, logger="stillwave")
        res = bifurcation_branch(moving_bm1, BM1, BIFURCATION_K,
                                 amplitude=0.02, nx=64, ny=32)
        (rejected,) = caplog.records
        it, before, after = rejected.args
        assert rejected.msg.startswith("chord step rejected")
        assert it >= 1 and after > wavesolver.CHORD_CONTRACTION * before
        # the seed factor, then one per exact step from the rejection on;
        # the flat model builds the seed
        assert factorizations == {"splu": 1 + res.iterations - it, "flat": 1}
        exact = _exact_branch(monkeypatch, moving_bm1, BM1, BIFURCATION_K,
                              amplitude=0.02, nx=64, ny=32)
        assert res.iterations == exact.iterations
        assert np.max(np.abs(res.state.eta - exact.state.eta)) <= 1e-12

    @pytest.mark.parametrize("k, amplitude", [
        (0.0, 0.01), (-BIFURCATION_K, 0.01), (math.nan, 0.01),
        (math.inf, 0.01), (BIFURCATION_K, 0.0), (BIFURCATION_K, -0.01),
        (BIFURCATION_K, math.nan), (BIFURCATION_K, math.inf),
    ])
    def test_bad_wavenumber_or_amplitude_rejected(self, moving_bm1, k,
                                                  amplitude):
        with pytest.raises(ValueError, match="0 < k < inf"):
            bifurcation_branch(moving_bm1, BM1, k, amplitude=amplitude,
                               nx=16, ny=8)

    @pytest.mark.parametrize("fraction", [1.0, 1.5])
    def test_amplitude_at_or_above_the_depth_rejected(self, moving_bm1,
                                                      fraction):
        # the seed's trough h - a would touch or cross the bed
        h = moving_bm1.depth
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=r"amplitude < depth h, got "
                               r"k=.*, amplitude=%r, h=%r"
                               % (fraction * h, h)):
                bifurcation_branch(moving_bm1, BM1, BIFURCATION_K,
                                   amplitude=fraction * h, nx=32, ny=16)

    def test_odd_nx_rejected(self, moving_bm1):
        # nx = 4 would give a half grid of 3 nodes
        for nx in (63, 4):
            with pytest.raises(ValueError, match=r"even nx >= 6 \(the half "
                               r"grid has nx/2 \+ 1 nodes.*got nx=%d" % nx):
                bifurcation_branch(moving_bm1, BM1, BIFURCATION_K, nx=nx)

    @pytest.mark.parametrize("dist, s", [(BM1, 0.0),
                                         (LinearVorticity(b=-1.3), 0.5)],
                             ids=["criterion_6", "linear"])
    def test_seed_converges_to_the_continuous_mode(self, dist, s,
                                                   monkeypatch):
        # the seed's psi perturbation at the crest against the IVP mode in
        # mapped coordinates, c f(qh) + a q U_y(qh) with c f(h) = -a U_y(h)
        # (psi = 1 on the surface), at a = 1 on grids refined in x and q
        sol = shear_solution(dist, s)
        (k,) = find_bifurcation_points(sol, dist)
        fmode, h = dispersion_mode(sol, dist, k)
        c = -float(sol.surface_speed) / float(fmode(h))
        seeds = []

        def capture(psi, eta, r, *args, **kwargs):
            seeds.append((psi, eta, r))
            raise StopIteration

        monkeypatch.setattr(wavesolver, "_newton_core", capture)
        errors = []
        for ny in (16, 32, 64, 128):
            with pytest.raises(StopIteration):
                bifurcation_branch(sol, dist, k, amplitude=1.0, nx=2 * ny,
                                   ny=ny)
            psi, eta, r = seeds.pop()
            flat = flat_state(sol, dist, 2.0 * math.pi / k, ny + 1, ny)
            assert r == flat.r
            assert eta[0] == h + 1.0
            q = flat.q
            mode = c * fmode(q * h) + q * sol.Uy(q * h)
            errors.append(np.max(np.abs(psi[0] - flat.psi[0] - mode)))
        ratios = np.array(errors[:-1]) / errors[1:]
        assert np.all((3.5 <= ratios) & (ratios <= 4.5)), (errors, ratios)

    def test_solves_no_ivp(self, moving_bm1, monkeypatch):
        calls = []
        for module in (wavesolver, stream):
            def counted(*args, _ivp=module.solve_ivp, **kwargs):
                calls.append(args)
                return _ivp(*args, **kwargs)
            monkeypatch.setattr(module, "solve_ivp", counted)
        res = bifurcation_branch(moving_bm1, BM1, BIFURCATION_K,
                                 amplitude=0.02, nx=64, ny=32)
        assert res.norms.max() < 1e-9
        assert calls == []

    def test_singular_seed_block_is_value_error(self, moving_bm1,
                                                monkeypatch):
        def singular(*args):
            raise RuntimeError("a Fourier block is singular")

        monkeypatch.setattr(wavesolver, "_FlatModel", singular)
        with pytest.raises(ValueError, match=r"no linear seed at k=1\.10574 "
                           r"on the 16x8 grid: a Fourier block is singular"):
            bifurcation_branch(moving_bm1, BM1, BIFURCATION_K, nx=16, ny=8)


class TestSweep:
    def test_consistent_verdict(self, still_b2):
        rep = nonexistence_sweep(still_b2, B2, amplitudes=[0.005, 0.02],
                                 wavelengths=[2.0], slope_cap=1.0,
                                 nx=32, ny=16)
        assert rep.verdict == VERDICT_CONSISTENT
        assert len(rep.cases) == 2
        for c in rep.cases:
            assert c["converged_to_flat"]
            assert c["final_max_zeta"] < 1e-8
            assert c["error"] is None

    def test_not_applicable_verdict(self, moving_bm1):
        rep = nonexistence_sweep(moving_bm1, BM1, amplitudes=[0.01],
                                 wavelengths=[2.0], slope_cap=1.0,
                                 nx=32, ny=16)
        assert rep.verdict == VERDICT_NOT_APPLICABLE
        assert not rep.hypothesis.applicable

    def test_reports_are_deterministic(self, still_b2):
        amps, lams = [0.01, 0.02], [2.0, 4.0]
        orders = [(amps, lams), (amps[::-1], lams[::-1]),
                  (amps + amps[:1], lams[::-1] + lams)]
        blobs = set()
        for a_in, L_in in orders:
            rep = nonexistence_sweep(still_b2, B2, amplitudes=a_in,
                                     wavelengths=L_in, slope_cap=1.0,
                                     nx=32, ny=16)
            assert len(rep.cases) == len(a_in) * len(L_in)
            d = dataclasses.asdict(rep)
            # duplicates repeat their case's entry in place
            d["cases"] = list({(c["amplitude"], c["wavelength"]): c
                               for c in d["cases"]}.values())
            blobs.add(json.dumps(d, sort_keys=True))
        assert len(blobs) == 1

    def test_case_preconditions(self, still_b2, factorizations):
        for flat_tol in (0.0, -1.0, math.inf, math.nan):
            with pytest.raises(ValueError, match="flat_tol"):
                nonexistence_sweep(still_b2, B2, amplitudes=[0.01],
                                   wavelengths=[2.0], slope_cap=1.0,
                                   flat_tol=flat_tol)
        # zero cases would otherwise read as a consistent verdict
        for amps, waves in (([], [2.0]), ([0.01], []), ([], [])):
            with pytest.raises(InvalidSweepCase, match="at least one"):
                nonexistence_sweep(still_b2, B2, amps, waves, slope_cap=1.0)
        assert factorizations == {"splu": 0, "flat": 0}
        with pytest.raises(InvalidSweepCase):
            nonexistence_sweep(still_b2, B2, amplitudes=[0.2],
                               wavelengths=[2.0], slope_cap=1.0)
        with pytest.raises(InvalidSweepCase):
            nonexistence_sweep(still_b2, B2, amplitudes=[0.05],
                               wavelengths=[0.1], slope_cap=1.0)
        with pytest.raises(InvalidSweepCase):
            nonexistence_sweep(still_b2, B2, amplitudes=[-0.01],
                               wavelengths=[2.0], slope_cap=1.0)

    @pytest.mark.parametrize("cap, value, a, L", [
        # a = h / 2, five times the default cap, at a slope of 0.157
        ("amplitude_cap", math.nan, 0.5, 20.0),
        ("amplitude_cap", math.inf, 0.5, 20.0),
        ("amplitude_cap", 0.0, 0.01, 2.0),
        # a seeded slope of 2 pi
        ("slope_cap", math.nan, 0.05, 0.05),
        ("slope_cap", math.inf, 0.05, 0.05),
        ("slope_cap", -1.0, 0.01, 2.0)])
    def test_caps_must_be_positive_and_finite(self, still_b2, factorizations,
                                              cap, value, a, L):
        # a nan cap compares False with every case, so it rejected none
        kw = {"slope_cap": 1.0, cap: value}
        with pytest.raises(ValueError,
                           match=f"{cap} must be a positive finite number"):
            nonexistence_sweep(still_b2, B2, [a], [L], nx=16, ny=8, **kw)
        assert factorizations == {"splu": 0, "flat": 0}

    def test_flat_column_is_polished_once_per_sweep(self, still_b2,
                                                    monkeypatch):
        calls = []
        polish = wavesolver._polish_flat_column

        def counted(*args):
            calls.append(args)
            return polish(*args)

        monkeypatch.setattr(wavesolver, "_polish_flat_column", counted)
        rep = nonexistence_sweep(still_b2, B2, amplitudes=[0.01],
                                 wavelengths=[4.0, 2.0], slope_cap=1.0,
                                 nx=32, ny=16)
        assert len(calls) == 1
        assert [c["wavelength"] for c in rep.cases] == [2.0, 4.0]
        assert rep.verdict == VERDICT_CONSISTENT


# random still flows of the four families, in the benchmark's bands
_STILL_FLOWS = st.one_of(
    st.builds(ConstantVorticity, b=st.floats(1.1, 3.0)),
    st.builds(LinearVorticity, b=st.floats(0.5, 3.0)),
    st.builds(QuadraticTruncatedVorticity, b=st.floats(0.5, 3.0),
              R=st.floats(1.05, 1.6)),
    st.builds(lambda v0, v1: TabulatedVorticity(nodes=[0.0, 1.0],
                                                values=[v0, v1]),
              st.floats(0.2, 2.0), st.floats(0.2, 2.0)))


@pytest.fixture
def factorizations(monkeypatch):
    """Counts every SuperLU factorization ("splu") and every flat-state
    model build ("flat") the solver makes."""
    count = {"splu": 0, "flat": 0}

    def counting(name, fn):
        def counted(*args, **kwargs):
            count[name] += 1
            return fn(*args, **kwargs)
        return counted

    monkeypatch.setattr(wavesolver, "splu",
                        counting("splu", wavesolver.splu))
    monkeypatch.setattr(wavesolver, "_FlatModel",
                        counting("flat", wavesolver._FlatModel))
    return count


class TestChord:
    """Chord Newton on the flat-state reference against exact Newton."""

    @pytest.mark.parametrize("dist", [B2, LIN, QUAD],
                             ids=lambda d: d.family)
    def test_sweep_factors_once_per_wavelength(self, dist, factorizations):
        sol = still_depth_family(dist)[0]
        h = sol.depth
        rep = nonexistence_sweep(sol, dist,
                                 amplitudes=[0.005 * h, 0.01 * h, 0.02 * h],
                                 wavelengths=[4.0, 2.0], slope_cap=1.0,
                                 nx=32, ny=16)
        assert rep.verdict == VERDICT_CONSISTENT
        # one flat model serves both wavelengths
        assert factorizations == {"splu": 0, "flat": 1}

    @pytest.mark.parametrize("nx, ny", [(32, 16), (64, 32)])
    @pytest.mark.parametrize("dist", [B2, LIN, QUAD, TAB],
                             ids=lambda d: d.family)
    def test_matches_exact_newton(self, dist, nx, ny, factorizations):
        sol = still_depth_family(dist)[0]
        st = perturbed_state(sol, dist, 2.0, nx, ny, 0.01 * sol.depth)
        res = newton_solve(st, dist)
        assert factorizations == {"splu": 0, "flat": 1}
        _, eta, _, its, _ = _newton_core(st.psi, st.eta, st.r,
                                         StripGrid(2.0, nx, ny), dist,
                                         wavesolver.NEWTON_TOL,
                                         wavesolver.MAX_NEWTON_ITER)
        assert res.iterations == its
        assert np.max(np.abs(res.state.eta - eta)) < 1e-12

    def test_no_contraction_falls_back_to_exact(self, still_lin,
                                                factorizations):
        # from a ripple of a fifth of the depth the first chord step does
        # not contract 4x, so the solve is exact Newton from its start
        st = perturbed_state(still_lin, LIN, 2.0, 32, 16,
                             0.2 * still_lin.depth)
        res = newton_solve(st, LIN)
        assert res.norms.max() <= wavesolver.NEWTON_TOL
        # the flat reference, then one factor per exact step
        assert factorizations == {"splu": res.iterations, "flat": 1}
        _, eta, _, its, _ = _newton_core(st.psi, st.eta, st.r,
                                         StripGrid(2.0, 32, 16), LIN,
                                         wavesolver.NEWTON_TOL,
                                         wavesolver.MAX_NEWTON_ITER)
        assert res.iterations == its
        assert np.array_equal(res.state.eta, eta)

    def test_converged_start_factors_nothing(self, still_b2, factorizations):
        newton_solve(flat_state(still_b2, B2, 2.0, 16, 12), B2)
        assert factorizations == {"splu": 0, "flat": 0}

    # the counts are shared by every example, and each must leave them 0
    @settings(max_examples=20, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(dist=_STILL_FLOWS, L=st.floats(1.5, 8.0),
           size=st.sampled_from([(32, 16), (64, 32)]))
    def test_flat_state_is_a_fixed_point(self, dist, L, size, factorizations):
        flat = flat_state(still_depth_family(dist)[0], dist, L, *size)
        res = newton_solve(flat, dist)
        assert res.iterations == 0
        assert np.array_equal(res.state.eta, flat.eta)
        assert factorizations == {"splu": 0, "flat": 0}

    def test_case_depends_only_on_its_own_inputs(self, still_b2):
        # grouped by wavelength, duplicates included, each entry equals
        # that of a sweep of its case alone
        kw = dict(slope_cap=1.0, nx=32, ny=16)
        rep = nonexistence_sweep(still_b2, B2, amplitudes=[0.02, 0.01, 0.01],
                                 wavelengths=[4.0, 2.0, 4.0], **kw)
        assert [(c["amplitude"], c["wavelength"]) for c in rep.cases] == [
            (a, L) for a in (0.01, 0.01, 0.02) for L in (2.0, 4.0, 4.0)]
        for c in rep.cases:
            alone = nonexistence_sweep(still_b2, B2, [c["amplitude"]],
                                       [c["wavelength"]], **kw)
            assert alone.cases == [c]

    def test_sweep_singular_reference_is_logged_per_case(
            self, still_b2, monkeypatch, caplog):
        # functools.cache keeps no exception, so every case of the
        # wavelength retries the build, logs it and takes exact steps
        caplog.set_level(logging.DEBUG, logger="stillwave")
        monkeypatch.setattr(wavesolver, "_FlatModel", _singular_flat_solver)
        amps, L, nx, ny = [0.01, 0.02], 2.0, 32, 16
        rep = nonexistence_sweep(still_b2, B2, amps, [L], slope_cap=1.0,
                                 nx=nx, ny=ny)
        assert [r.getMessage().split(" (")[0] for r in caplog.records] == [
            "singular chord reference"] * len(amps)
        flat = flat_state(still_b2, B2, L, nx, ny)
        for a, case in zip(amps, rep.cases):
            _, eta, _, its, _ = _newton_core(
                flat.psi, _rippled(flat, a), flat.r, StripGrid(L, nx, ny),
                B2, wavesolver.NEWTON_TOL, wavesolver.MAX_NEWTON_ITER)
            assert case["error"] is None
            assert case["newton_iterations"] == its
            assert case["final_max_zeta"] == float(
                np.max(np.abs(still_b2.depth - eta)))


def _assert_flat_solver_matches_splu(flat, dist):
    """The Fourier-block solver of the Jacobian at the flat state against
    the SuperLU factor of its sparse assembly, on random right-hand sides."""
    nx, ny = flat.nx, flat.ny
    grid = StripGrid(flat.period_L, nx, ny)
    solve = wavesolver._FlatModel(flat.psi[0], flat.eta[0], ny,
                                  dist).solver(grid)
    parts = _residual_parts(flat.psi, flat.eta, flat.r, grid, dist)
    lu = wavesolver._factor(
        _assemble_jacobian(flat.psi, flat.eta, parts, grid, dist), grid, None)
    for b in np.random.default_rng(nx * ny).standard_normal((2, nx * ny)):
        ref = lu(b)
        assert np.max(np.abs(solve(b) - ref)) <= 1e-12 * np.max(
            np.abs(ref))


class TestFlatSolver:
    """The Fourier-block flat-state reference against SuperLU."""

    @settings(max_examples=20, deadline=None)
    @given(dist=_STILL_FLOWS, L=st.floats(1.5, 8.0),
           size=st.sampled_from([(32, 16), (64, 32)]))
    def test_matches_splu_on_random_still_flows(self, dist, L, size):
        sol = still_depth_family(dist)[0]
        _assert_flat_solver_matches_splu(flat_state(sol, dist, L, *size), dist)

    @pytest.mark.parametrize("nx, ny", [(31, 16), (128, 64), (256, 128)])
    @pytest.mark.parametrize("dist", [B2, LIN, QUAD, TAB],
                             ids=lambda d: d.family)
    def test_matches_splu_on_fixed_grids(self, dist, nx, ny):
        sol = still_depth_family(dist)[0]
        _assert_flat_solver_matches_splu(flat_state(sol, dist, 3.0, nx, ny),
                                         dist)

    @pytest.mark.parametrize("nx, ny", [(31, 16), (64, 32), (128, 64)])
    def test_matches_splu_on_a_moving_flow(self, moving_bm1, nx, ny):
        # Psi_q(h) is far from zero, so the Bernoulli border couples
        assert abs(moving_bm1.surface_speed) > 0.5
        _assert_flat_solver_matches_splu(
            flat_state(moving_bm1, BM1, 3.0, nx, ny), BM1)

    def test_blocks_match_dense_solves_when_indefinite(self):
        # c = 1 and omega' = ny^2 make T(0) indefinite, with an exactly zero
        # second pivot under elimination without pivoting
        nx, ny = 16, 16
        grid = StripGrid(2.0, nx, ny)
        blocks = wavesolver._FlatModel(grid.q, 1.0, ny,
                                       LinearVorticity(b=float(ny ** 2)))
        # the periodic grid's symbols, then -k^2 at a k that no mode of
        # this grid has
        lam = np.append(grid._dxx_symbol, -1.3 ** 2)
        rng = np.random.default_rng(ny)
        rhs = rng.standard_normal((ny - 1, lam.size, 2)) @ [1.0, 1j]
        A = grid.Dqq[1:ny, 1:ny].toarray() + ny ** 2 * np.eye(ny - 1)
        out = blocks.at(lam)(rhs)
        for m, lam_m in enumerate(lam):
            ref = np.linalg.solve(A + lam_m * np.eye(ny - 1), rhs[:, m])
            assert np.max(np.abs(out[:, m] - ref)) <= 1e-12 * np.max(
                np.abs(ref))
        # lam_m is the eigenvalue of Dxx on mode m: cos(2 pi m x / L), with
        # nx nodes per period (periodic) or 2 (nx - 1) (reflecting)
        for topology, per_period in (("periodic", nx),
                                     ("reflect", 2 * (nx - 1))):
            g = StripGrid(2.0, nx, ny, topology)
            for m, lam_m in enumerate(g._dxx_symbol):
                mode = np.cos(2.0 * math.pi * m * np.arange(nx) / per_period)
                assert np.allclose(g.Dxx @ mode, lam_m * mode, rtol=0.0,
                                   atol=1e-10)

    @pytest.mark.parametrize("nx, ny", [(32, 16), (64, 32), (256, 128)])
    @pytest.mark.parametrize("dist", [B2, QUAD], ids=lambda d: d.family)
    def test_complex_rhs_matches_dense_solves(self, dist, nx, ny):
        # the chord solve's rfft data, a Fortran-ordered copy and a strided
        # view: none of the last two can be viewed as floats directly
        sol = still_depth_family(dist)[0]
        grid = StripGrid(2.5, nx, ny)
        col = flat_state(sol, dist, 2.5, nx, ny).psi[0]
        lam = grid._dxx_symbol
        model = wavesolver._FlatModel(col, sol.depth, ny, dist)
        solve = model.at(lam)
        rng = np.random.default_rng(nx)
        rhs = np.fft.rfft(rng.standard_normal((ny - 1, nx)))
        wide = np.fft.rfft(rng.standard_normal((ny - 1, 2 * nx)))[:, ::2]
        T = (grid.Dqq[1:ny, 1:ny].toarray() / sol.depth ** 2
             + np.diag(dist.derivative(col[1:ny])))
        # T's condition number grows as ny^2, and so does the gap between a
        # dense LU solve and the eigenbasis solve (2.5e-13 relative at
        # 256x128, in real and complex arithmetic alike)
        dense_tol = 1e-13 * (ny / 16) ** 2
        V = model.V.astype(complex)
        cases = (rhs, np.asfortranarray(rhs), wide[:, :lam.size])
        outs = [solve(b) for b in cases]
        for b, out in zip(cases, outs):
            assert out.shape == b.shape and np.iscomplexobj(out)
            # the same products in complex arithmetic
            ref = V @ ((V.T @ b) / (model.mu[:, None] + lam))
            assert np.max(np.abs(out - ref)) <= 1e-13 * np.max(np.abs(ref))
        for m, lam_m in enumerate(lam):
            ref = np.linalg.solve(T + lam_m * np.eye(ny - 1),
                                  np.stack([b[:, m] for b in cases], 1))
            for j, out in enumerate(outs):
                assert np.max(np.abs(out[:, m] - ref[:, j])) <= dense_tol \
                    * np.max(np.abs(ref[:, j]))

    def test_indefinite_block_matches_splu(self, factorizations):
        # the flat state of linear b = ny^2 on h = 1: its m = 0 block is
        # the indefinite one above
        nx, ny, L = 16, 16, 2.0
        dist = LinearVorticity(b=float(ny ** 2))
        T = (np.diag(np.full(ny - 1, -dist.b))
             + dist.b * (np.eye(ny - 1, k=1) + np.eye(ny - 1, k=-1)))
        col = np.concatenate(
            ([0.0], np.linalg.solve(T, -dist.b * np.eye(ny - 1)[-1]), [1.0]))
        pq_s = (3.0 * col[-1] - 4.0 * col[-2] + col[-3]) * ny / 2.0
        grid = StripGrid(L, nx, ny)
        flat = WaveState(L, nx, ny, np.tile(col, (nx, 1)), np.ones(nx),
                         (pq_s ** 2 + 2.0) / 3.0)
        st_ = dataclasses.replace(flat, eta=_rippled(flat, 0.01))
        res = newton_solve(st_, dist)
        assert factorizations == {"splu": 0, "flat": 1}
        assert res.norms.max() <= wavesolver.NEWTON_TOL
        _assert_flat_solver_matches_splu(flat, dist)
        parts = _residual_parts(flat.psi, flat.eta, flat.r, grid, dist)
        lu = partial(wavesolver._factor, _assemble_jacobian(
            flat.psi, flat.eta, parts, grid, dist), grid, None)
        _, eta, _, its, _ = _newton_core(st_.psi, st_.eta, st_.r, grid, dist,
                                         wavesolver.NEWTON_TOL,
                                         wavesolver.MAX_NEWTON_ITER,
                                         reference=lu)
        assert res.iterations == its
        assert np.max(np.abs(res.state.eta - eta)) <= 1e-12

    @pytest.mark.parametrize("dist, s", [(BM1, 0.0),
                                         (LinearVorticity(b=-1.0), 0.5)],
                             ids=["criterion_6", "linear"])
    def test_discrete_root_converges_at_second_order(self, dist, s):
        # the Schur complement sigma_h(lam) = bern_eta - border Y(lam)
        # vanishes at lam* = -k_h^2, the discrete dispersion root, which
        # depends only on ny; k_h tends to the bisected root as ny^-2
        if dist is BM1:
            root = BIFURCATION_K
        else:  # U = s sinh y, f = sinh(m y) / m with m^2 = 1 + k^2
            h = math.asinh(1.0 / s)
            uy = s * math.cosh(h)

            def sigma(k):
                m = math.sqrt(1.0 + k * k)
                return (uy ** 2 * math.cosh(m * h)
                        - (1.0 + uy) * math.sinh(m * h) / m)
            root = brentq(sigma, 0.5, 2.0, xtol=1e-15)
        sol = shear_solution(dist, s)
        errors = []
        for ny in (8, 16, 32, 64, 128):
            grid = StripGrid(1.0, 4, ny)
            model = wavesolver._FlatModel(
                flat_state(sol, dist, 1.0, 4, ny).psi[0], sol.depth, ny, dist)
            lam = brentq(lambda lam: model.schur(np.array([lam]))[0],
                         -(root + 0.5) ** 2, -(root - 0.5) ** 2)
            errors.append(math.sqrt(-lam) - root)
        ratios = np.array(errors[:-1]) / errors[1:]
        assert np.all((3.5 <= ratios) & (ratios <= 4.5)), (errors, ratios)

    @pytest.mark.parametrize("nx, ny", [(32, 16), (128, 64)])
    @pytest.mark.parametrize("dist, s", [
        (B2, None), (LIN, None), (QUAD, None), (TAB, None), (BM1, 0.0)],
        ids=["constant", "linear", "quadratic", "tabulated", "criterion_6"])
    def test_model_is_the_assembled_jacobian(self, dist, s, nx, ny):
        # at the tiled flat state, node i's Bernoulli row, its corner and
        # its eta column in the assembled Jacobian are the model's border,
        # bern_eta and column at the Dxx diagonal, bit for bit
        sol = _solution(dist, s)
        st = flat_state(sol, dist, 3.0, nx, ny)
        grid = StripGrid(3.0, nx, ny)
        model = wavesolver._FlatModel(st.psi[0], sol.depth, ny, dist)
        J = _renumbered(_assemble_jacobian(st.psi, st.eta, _residual_parts(
            st.psi, st.eta, st.r, grid, dist), grid, dist),
            _order(grid))
        n_int = nx * (ny - 1)
        rows = J[n_int:, :n_int].toarray().reshape(nx, nx, ny - 1)
        cols = J[:n_int, n_int:].toarray().reshape(nx, ny - 1, nx)
        corner = J[n_int:, n_int:].toarray()
        for i in range(nx):
            assert np.array_equal(rows[i, i], model.border)
            assert np.array_equal(corner[i, i], model.bern_eta[0])
            assert np.array_equal(
                cols[i, :, i],
                (model.column[0] + model.column[1] * grid.Dxx[i, i])[:, 0])

    def test_one_eigendecomposition_per_flow(self, still_b2, moving_bm1,
                                             monkeypatch):
        # the q-blocks depend on the column, h and ny, not on the period:
        # a sweep over two wavelengths, a Newton solve and a continuation
        # each decompose once
        calls = []

        def counted(*args, **kwargs):
            calls.append(args[0].size)
            return eigh_tridiagonal(*args, **kwargs)

        monkeypatch.setattr(wavesolver, "eigh_tridiagonal", counted)
        rep = nonexistence_sweep(still_b2, B2, amplitudes=[0.01, 0.02],
                                 wavelengths=[4.0, 2.0], slope_cap=1.0,
                                 nx=32, ny=16)
        assert all(c["newton_iterations"] > 0 for c in rep.cases)
        assert calls == [15]
        calls.clear()
        newton_solve(perturbed_state(still_b2, B2, 2.0, 32, 16, 0.01), B2)
        assert calls == [15]
        calls.clear()
        bifurcation_branch(moving_bm1, BM1, BIFURCATION_K, amplitude=0.02,
                           nx=64, ny=32)
        assert calls == [31]


def test_import_installs_no_log_handler():
    # a fresh interpreter, since this one's logging is pytest's
    code = ("import logging, stillwave, stillwave.cli; "
            "assert not logging.getLogger('stillwave').handlers; "
            "assert not logging.getLogger().handlers")
    subprocess.run([sys.executable, "-c", code], check=True,
                   cwd=Path(stillwave.__file__).parents[1])
