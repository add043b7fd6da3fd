"""Perturbation-functional tests.

Windowed norms are compared with hand integrals over the unit window:
cos(pi x) has L2 norm 1/sqrt(2) over any unit window, sin(pi x) has L1
norm 2/pi over (0, 1), and constants are exact. Energy checks exploit
exact quadratic homogeneity in the remainder field.
"""

import copy
import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

from stillwave import diagnostics
from stillwave.diagnostics import (bernoulli_check, default_decay_rate,
                                   diagnostics_report, manufactured_fields,
                                   perturbation_fields, quartic_scaling,
                                   surface_quartic_weighted, trace_norm,
                                   weighted_energy, windowed_norm)
from stillwave.errors import DepthMismatch
from stillwave.stream import still_depth_family
from stillwave.vorticity import (ConstantVorticity, LinearVorticity,
                                 TabulatedVorticity)
from stillwave.wavesolver import (FLAT_TOL, StripGrid, flat_state,
                                  newton_solve, perturbed_state)

B2 = ConstantVorticity(b=2.0)
LIN = LinearVorticity(b=1.0)
HAT = TabulatedVorticity(nodes=(0.0, 1.0), values=(-1.0, 1.0))


@pytest.fixture(scope="module")
def still_b2():
    return still_depth_family(B2)[0]


@pytest.fixture(scope="module")
def still_lin():
    # depth pi/2, so a slip in a 1/eta or 1/h scaling shows
    return still_depth_family(LIN)[0]


@pytest.fixture(scope="module")
def still_hat():
    return still_depth_family(HAT)[0]


class TestPerturbationFields:
    def test_flat_state_decomposes_to_zero(self, still_b2):
        st = flat_state(still_b2, B2, 2.0, 16, 12)
        f = perturbation_fields(st, still_b2)
        assert np.max(np.abs(f.zeta)) == 0.0
        assert f.slope_sup == 0.0
        assert np.max(np.abs(f.phi)) < 1e-10
        assert np.max(np.abs(f.w)) < 1e-10

    def test_remainder_vanishes_on_boundaries(self, still_b2):
        st = perturbed_state(still_b2, B2, 2.0, 16, 12, amplitude=0.03)
        f = perturbation_fields(st, still_b2)
        assert np.all(f.w[:, 0] == 0.0)
        assert np.all(f.w[:, -1] == 0.0)

    def test_surface_gap_is_quadratic(self, still_b2):
        # U'(h) = 0 makes 1 - U(eta) shrink like zeta^2
        gaps = []
        for a in (0.01, 0.005):
            st = perturbed_state(still_b2, B2, 2.0, 16, 12, amplitude=a)
            f = perturbation_fields(st, still_b2)
            gaps.append(np.max(np.abs(f.u)))
        assert gaps[0] / gaps[1] == pytest.approx(4.0, rel=0.05)

    def test_depth_mismatch(self, still_b2):
        st = flat_state(still_b2, B2, 2.0, 16, 12)
        st.eta = st.eta * 2.2
        with pytest.raises(DepthMismatch):
            perturbation_fields(st, still_b2)


class TestWindowedNorm:
    def test_cosine_l2(self):
        n = 512
        x = np.arange(n) * (2.0 / n)
        v = np.cos(np.pi * x)
        for t in (0.0, 0.3, 7.9):
            assert windowed_norm(v, t, 2.0, 2.0) == pytest.approx(
                1.0 / math.sqrt(2.0), abs=2e-4)

    def test_sine_l1(self):
        n = 512
        x = np.arange(n) * (2.0 / n)
        v = np.sin(np.pi * x)
        assert windowed_norm(v, 0.0, 1.0, 2.0) == pytest.approx(
            2.0 / math.pi, abs=2e-4)

    def test_constant_any_p(self):
        v = np.full(64, 1.5)
        for p in (1.0, 2.0, 3.0):
            assert windowed_norm(v, 0.2, p, 2.0) == pytest.approx(
                1.5, rel=1e-12)

    def test_p_validation(self):
        with pytest.raises(ValueError):
            windowed_norm(np.ones(8), 0.0, 0.5, 2.0)


class TestWeightedEnergy:
    def test_quadratic_homogeneity(self, still_b2):
        f = manufactured_fields(still_b2, B2, 0.01, 2.0, nx=32, ny=24)
        delta = default_decay_rate(still_b2, B2)
        e1 = weighted_energy(f, delta)
        f2 = copy.copy(f)
        f2.w = 2.0 * f.w
        assert weighted_energy(f2, delta) == pytest.approx(4.0 * e1,
                                                           rel=1e-12)

    def test_station_periodicity(self, still_b2):
        f = manufactured_fields(still_b2, B2, 0.01, 2.0, nx=32, ny=24)
        delta = default_decay_rate(still_b2, B2)
        assert weighted_energy(f, delta, t=0.4) == pytest.approx(
            weighted_energy(f, delta, t=0.4 + 2.0), rel=1e-12)

    def test_grid_refinement_consistency(self, still_b2):
        delta = default_decay_rate(still_b2, B2)
        coarse = weighted_energy(
            manufactured_fields(still_b2, B2, 0.01, 2.0, nx=32, ny=24), delta)
        fine = weighted_energy(
            manufactured_fields(still_b2, B2, 0.01, 2.0, nx=64, ny=48), delta)
        assert abs(fine - coarse) < 0.05 * fine

    def test_delta_validation(self, still_b2):
        f = manufactured_fields(still_b2, B2, 0.01, 2.0, nx=16, ny=12)
        with pytest.raises(ValueError):
            weighted_energy(f, 0.0)

    def test_closed_form_on_a_flat_strip(self, still_lin):
        # w = sin(pi y / h) on the flat strip of depth h: the density
        # integrates to (h + pi^2 / h) / 2 over a column, the copy weight
        # to 2 / delta over a period
        h = still_lin.depth
        st = flat_state(still_lin, LIN, 2.0, 64, 96)
        f = perturbation_fields(st, still_lin)
        f.w = np.tile(np.sin(np.pi * st.q), (64, 1))
        assert weighted_energy(f, 0.5) == pytest.approx(
            (h + np.pi ** 2 / h) / 0.5, rel=1e-3)


class TestFirstOrderModel:
    def test_remainder_solves_the_linearised_problem(self, still_lin):
        # laplace(w + u) + omega'(U) (w + u) = 0 at interior nodes, with
        # the strip's own stencils scaled to depth h
        h = still_lin.depth
        f = manufactured_fields(still_lin, LIN, 0.01, 2.0, nx=16, ny=12)
        grid = StripGrid(2.0, 16, 12)
        wp = np.asarray(LIN.derivative(still_lin.U(grid.q * h)), dtype=float)
        v = f.w + f.u
        lap_u = grid.Dxx @ f.u + (grid.Dqq @ f.u.T).T / h ** 2
        res = grid.Dxx @ v + (grid.Dqq @ v.T).T / h ** 2 + wp * v
        assert np.max(np.abs(res[:, 1:-1])) < 1e-9 * np.max(np.abs(lap_u))


class TestSurfaceQuartic:
    def test_quartic_homogeneity(self):
        n = 64
        x = np.arange(n) * (2.0 / n)
        z = 0.01 * np.cos(np.pi * x)
        s1 = surface_quartic_weighted(z, 0.7, 0.0, 2.0)
        s2 = surface_quartic_weighted(3.0 * z, 0.7, 0.0, 2.0)
        assert s2 == pytest.approx(81.0 * s1, rel=1e-12)


class TestCopyWeight:
    @pytest.mark.parametrize("delta", [0.35, 3.0])
    def test_matches_the_sum_over_copies(self, delta):
        # beyond m = +-400 the copies weigh below exp(-0.35 * 790)
        x = np.arange(64) * (2.0 / 64)
        ms = np.arange(-400, 401)
        for t in (0.0, 0.37, -1.3, 5.9):
            brute = np.exp(-delta * np.abs(
                t - (x[:, None] + 2.0 * ms[None, :]))).sum(axis=1)
            assert np.allclose(diagnostics._copy_weight(x, t, delta, 2.0),
                               brute, rtol=1e-14, atol=0.0)

    def test_tiny_decay_rate_is_finite_in_constant_memory(self):
        # a sum truncated at exp(-37) would take 2 * 37 / (delta L) copies
        # per node here: 274 GiB
        x = np.arange(64) * (2.0 / 64)
        tracemalloc.start()
        try:
            w = diagnostics._copy_weight(x, 0.3, 1e-9, 2.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 1024
        # every copy within reach weighs about 1: 2 / (delta L) in all
        assert np.allclose(w, 1e9, rtol=1e-8, atol=0.0)


    @pytest.mark.parametrize("delta", [math.nan, math.inf, 0.0, -1.0])
    def test_decay_rate_must_be_finite_and_positive(self, still_b2, delta):
        st = perturbed_state(still_b2, B2, 2.0, 16, 12, amplitude=0.01)
        with pytest.raises(ValueError, match="delta must be positive and "
                                             "finite"):
            diagnostics_report(st, still_b2, B2, delta=delta)

    @pytest.mark.parametrize("t", [math.nan, math.inf])
    def test_station_must_be_finite(self, still_b2, t):
        st = perturbed_state(still_b2, B2, 2.0, 16, 12, amplitude=0.01)
        with pytest.raises(ValueError, match="window start t must be finite"):
            diagnostics_report(st, still_b2, B2, t=t)
        with pytest.raises(ValueError, match="window start t must be finite"):
            windowed_norm(st.eta, t, 2.0, st.period_L)


class TestDecayRate:
    def test_closed_form_constant(self, still_b2):
        # h = 1, mu = 0
        expected = 0.5 * math.sqrt(np.pi ** 2 / (5.0 + np.pi ** 2))
        assert default_decay_rate(still_b2, B2) == pytest.approx(
            expected, abs=1e-10)

    def test_zero_margin_rejected(self, still_hat):
        with pytest.raises(ValueError):
            default_decay_rate(still_hat, HAT)


class TestReports:
    def test_flat_report_is_quiet(self, still_b2):
        st = flat_state(still_b2, B2, 2.0, 32, 24)
        rep = diagnostics_report(st, still_b2, B2)
        assert rep.amp_sup == 0.0
        assert rep.slope_sup == 0.0
        assert rep.windowed_zeta == 0.0
        assert rep.surface_quartic == 0.0
        assert rep.energy_ratio is None
        assert rep.energy < 1e-18
        assert rep.bernoulli_defect < 1e-12
        assert rep.trace_phi < 1e-10

    def test_flat_trace_and_bernoulli_other_family(self, still_b2):
        st = flat_state(still_b2, B2, 2.0, 16, 12)
        fields = perturbation_fields(st, still_b2)
        assert trace_norm(fields) < 1e-10
        assert bernoulli_check(fields, still_b2) < 1e-12

    def test_solved_near_flat_state_has_no_ratio(self, still_b2):
        # Newton returns the flat state up to roundoff, and the ratio of
        # two roundoff functionals means nothing
        st = perturbed_state(still_b2, B2, 2.0, 16, 12, amplitude=0.01)
        res = newton_solve(st, B2)
        assert 0.0 < np.max(np.abs(still_b2.depth - res.state.eta)) < FLAT_TOL
        rep = diagnostics_report(res.state, still_b2, B2)
        assert rep.energy_ratio is None
        assert rep.surface_quartic < 1e-40

    def test_report_builds_one_grid(self, still_b2, monkeypatch):
        builds = []

        class CountingGrid(StripGrid):
            def __init__(self, *args, **kwargs):
                builds.append(args)
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(diagnostics, "StripGrid", CountingGrid)
        st = perturbed_state(still_b2, B2, 2.0, 16, 12, amplitude=0.01)
        diagnostics_report(st, still_b2, B2)
        assert len(builds) == 1

    @pytest.mark.parametrize("nx, ny", [(32, 16), (256, 128)])
    @pytest.mark.parametrize("sol_name, dist", [("still_b2", B2),
                                                ("still_lin", LIN)])
    def test_trace_and_bernoulli_alone_equal_the_report(self, request,
                                                        sol_name, dist,
                                                        nx, ny):
        # the fields hold phi's surface normal derivative for both
        sol = request.getfixturevalue(sol_name)
        st = perturbed_state(sol, dist, 2.3, nx, ny, amplitude=0.02)
        fields = perturbation_fields(st, sol)
        for t in (0.0, 0.7):
            rep = diagnostics_report(st, sol, dist, t=t)
            assert rep.trace_phi > 1e-3 and rep.bernoulli_defect > 1e-3
            assert trace_norm(fields, t) == rep.trace_phi
            assert bernoulli_check(fields, sol) == rep.bernoulli_defect

    def test_surface_derivative_is_the_gradient_column(self, still_lin):
        st = perturbed_state(still_lin, LIN, 2.3, 64, 32, amplitude=0.05)
        fields = perturbation_fields(st, still_lin)
        fx, fy = diagnostics._physical_gradient(fields.phi, fields)
        ex = fields.ex
        full = (-ex * fx[:, -1] + fy[:, -1]) / np.sqrt(1.0 + ex ** 2)
        assert np.array_equal(
            fields.dn_phi.view(np.uint64),
            full.view(np.uint64))

    def test_report_dict_keys(self, still_b2):
        st = perturbed_state(still_b2, B2, 2.0, 16, 12, amplitude=0.01)
        d = dataclasses.asdict(diagnostics_report(st, still_b2, B2))
        assert set(d) == {"t", "delta", "slope_sup", "amp_sup",
                          "windowed_zeta", "energy", "surface_quartic",
                          "energy_ratio", "trace_phi", "bernoulli_defect"}
        assert d["amp_sup"] == pytest.approx(0.01, rel=1e-10)


class TestQuarticScaling:
    def test_slope_near_four(self, still_b2):
        out = quartic_scaling(still_b2, B2, [1e-3, 3e-3, 1e-2],
                              period_L=2.0, nx=32, ny=24)
        assert out["loglog_slope"] == pytest.approx(4.0, abs=0.3)
        ratios = out["ratios"]
        assert all(np.isfinite(ratios))
        assert max(ratios) < 1e6
