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
from functools import partial
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import stillwave
from stillwave import cli, wavesolver
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
                                  residual_norms)

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


def _assert_matches_central_differences(grid, st, dist, pin=None):
    """J d against (F(z + eps d) - F(z - eps d)) / (2 eps) for three random
    unit directions d. With pin, r and the pin row join the system."""
    nx, ny = grid.nx, grid.ny
    n_int = nx * (ny - 1)
    parts = _residual_parts(st.psi, st.eta, st.r, grid, dist)
    J = _assemble_jacobian(st.psi, st.eta, parts, grid, dist, pin=pin)

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
        fd = (residual(eps * d) - residual(-eps * d)) / (2.0 * eps)
        Jd = J @ d
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
        grid = StripGrid(3.0, 128, 64, "periodic")
        st = perturbed_state(still_lin, LIN, 3.0, 128, 64, amplitude=0.006)
        tracemalloc.start()
        try:
            parts = _residual_parts(st.psi, st.eta, st.r, grid, LIN)
            J = _assemble_jacobian(st.psi, st.eta, parts, grid, LIN)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        csr_bytes = J.data.nbytes + J.indices.nbytes + J.indptr.nbytes
        assert peak < 8.0 * csr_bytes


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
        monkeypatch.setattr(wavesolver, "_FlatSolver", _singular_flat_solver)
        st = perturbed_state(still_b2, B2, 2.0, 16, 12, amplitude=0.01)
        with pytest.raises(NewtonDiverged, match="singular"):
            newton_solve(st, B2)

    def test_singular_reference_falls_back_to_exact(self, still_b2, caplog):
        caplog.set_level(logging.DEBUG, logger="stillwave")
        st = perturbed_state(still_b2, B2, 2.0, 16, 12, amplitude=0.01)
        grid = StripGrid(2.0, 16, 12)
        n = grid.nx * grid.ny
        singular = partial(wavesolver._factor, sp.csc_matrix((n, n)))
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
        singular = partial(wavesolver._FlatSolver, grid.q, 1.0, grid, B2)
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
        sol = still_depth_family(dist)[0] if s is None \
            else shear_solution(dist, s)
        ks = np.linspace(0.0, 5.0, 21)
        scan = dispersion_sigma(sol, dist, ks)
        ref = np.array([dispersion_sigma(sol, dist, k) for k in ks])
        assert np.all(np.abs(scan - ref) <= 1e-9 * np.maximum(1.0, np.abs(ref)))
        assert np.array_equal(np.sign(scan), np.sign(ref))

    def test_root_at_a_scan_node(self, monkeypatch, caplog):
        # omega' = 2 on [0, 1] gives f = sin(sqrt 2 y) / sqrt 2 at k = 0 and
        # h = pi / sqrt 2, so sigma(0) = -f(h) = 0 and the sign of either
        # path at that node is roundoff. Flipping the scan's sign there
        # makes a bracket whose ends the scalar path gives one sign.
        hat = TabulatedVorticity(nodes=[0.0, 1.0], values=[-1.0, 1.0])
        sol = still_depth_family(hat)[0]
        sigma0 = dispersion_sigma(sol, hat, 0.0)
        assert sigma0 == pytest.approx(0.0, abs=1e-12)
        sigma = wavesolver.dispersion_sigma

        def flipped(sol, dist, k):
            sig = sigma(sol, dist, k)
            if np.ndim(sig):
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
        assert factorizations == {"splu": 1, "flat": 0}
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
        # the seed factor, then one per exact step from the rejection on
        assert factorizations == {"splu": 1 + res.iterations - it, "flat": 0}
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

    def test_odd_nx_rejected(self, moving_bm1):
        with pytest.raises(ValueError):
            bifurcation_branch(moving_bm1, BM1, BIFURCATION_K, nx=63)


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
    reference build ("flat") the solver makes."""
    count = {"splu": 0, "flat": 0}

    def counting(name, fn):
        def counted(*args, **kwargs):
            count[name] += 1
            return fn(*args, **kwargs)
        return counted

    monkeypatch.setattr(wavesolver, "splu",
                        counting("splu", wavesolver.splu))
    monkeypatch.setattr(wavesolver, "_FlatSolver",
                        counting("flat", wavesolver._FlatSolver))
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
        assert factorizations == {"splu": 0, "flat": 2}

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
        monkeypatch.setattr(wavesolver, "_FlatSolver", _singular_flat_solver)
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
    solver = wavesolver._FlatSolver(flat.psi[0], flat.eta[0], grid, dist)
    parts = _residual_parts(flat.psi, flat.eta, flat.r, grid, dist)
    lu = wavesolver._factor(
        _assemble_jacobian(flat.psi, flat.eta, parts, grid, dist))
    for b in np.random.default_rng(nx * ny).standard_normal((2, nx * ny)):
        ref = lu.solve(b)
        assert np.max(np.abs(solver.solve(b) - ref)) <= 1e-12 * np.max(
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
        # c = 1 and omega' = ny^2 make T_0 indefinite, with an exactly zero
        # second pivot under elimination without pivoting
        nx, ny = 16, 16
        grid = StripGrid(2.0, nx, ny)
        blocks = wavesolver._FlatBlocks(grid, 1.0, np.full(ny - 1, ny ** 2.0))
        rng = np.random.default_rng(ny)
        rhs = rng.standard_normal((ny - 1, nx // 2 + 1, 2)) @ [1.0, 1j]
        A = grid.Dqq[1:ny, 1:ny].toarray() + ny ** 2 * np.eye(ny - 1)
        out = blocks.solve(rhs)
        for m, lam in enumerate(wavesolver._dxx_symbol(grid)):
            ref = np.linalg.solve(A + lam * np.eye(ny - 1), rhs[:, m])
            assert np.max(np.abs(out[:, m] - ref)) <= 1e-12 * np.max(
                np.abs(ref))

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
            flat.psi, flat.eta, parts, grid, dist))
        _, eta, _, its, _ = _newton_core(st_.psi, st_.eta, st_.r, grid, dist,
                                         wavesolver.NEWTON_TOL,
                                         wavesolver.MAX_NEWTON_ITER,
                                         reference=lu)
        assert res.iterations == its
        assert np.max(np.abs(res.state.eta - eta)) <= 1e-12


def test_import_installs_no_log_handler():
    # a fresh interpreter, since this one's logging is pytest's
    code = ("import logging, stillwave, stillwave.cli; "
            "assert not logging.getLogger('stillwave').handlers; "
            "assert not logging.getLogger().handlers")
    subprocess.run([sys.executable, "-c", code], check=True,
                   cwd=Path(stillwave.__file__).parents[1])
