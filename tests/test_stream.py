"""Stream-solution tests against closed forms.

Every expected number here comes from solving U'' + omega(U) = 0 by hand:
constant omega = b gives the parabola U = s y - b y^2 / 2, linear
omega(tau) = b tau gives U = s sin(sqrt(b) y) / sqrt(b), and the
piecewise-linear profile omega = 2 tau - 1 gives U = (1 - cos(sqrt(2) y)) / 2.
The cubic depth integral is checked against a Beta-function oracle.
"""

import dataclasses
import math

import numpy as np
import pytest
from scipy.integrate import DenseOutput, solve_ivp
from scipy.special import gamma

from stillwave import ode, stream
from stillwave.errors import (DivergentDepth, NoStillSolution, NotStill,
                              StepFailure)
from stillwave.stream import (critical_surface_speed, least_still_depth,
                              monotone_interval_lower, shear_solution,
                              solve_cauchy, still_depth_family)
from stillwave.vorticity import (ConstantVorticity, LinearVorticity,
                                 QuadraticTruncatedVorticity,
                                 TabulatedVorticity)


# int_0^1 (1 - tau^3)^(-1/2) dtau = B(1/3, 1/2) / 3
CUBIC_DEPTH = gamma(1.0 / 3.0) * gamma(0.5) / (3.0 * gamma(5.0 / 6.0))

HAT = TabulatedVorticity(nodes=(0.0, 1.0), values=(-1.0, 1.0))


class TestCriticalSpeed:
    def test_constant_b2(self):
        crit = critical_surface_speed(ConstantVorticity(b=2.0))
        assert crit.speed == pytest.approx(2.0, abs=1e-12)
        assert crit.maximiser == pytest.approx(1.0, abs=1e-12)
        assert not crit.degenerate

    def test_linear_b1(self):
        crit = critical_surface_speed(LinearVorticity(b=1.0))
        assert crit.speed == pytest.approx(1.0, abs=1e-12)
        assert crit.maximiser == pytest.approx(1.0, abs=1e-12)

    def test_descending_linear_max_at_origin(self):
        # omega = -tau: antiderivative -tau^2/2 peaks at tau = 0
        crit = critical_surface_speed(LinearVorticity(b=-1.0))
        assert crit.speed == 0.0
        assert crit.maximiser == pytest.approx(0.0, abs=1e-10)

    def test_hat_tie_resolves_to_surface(self):
        # antiderivative tau^2 - tau vanishes at both endpoints; the tie
        # must resolve to tau = 1 so the still branch engages
        crit = critical_surface_speed(HAT)
        assert crit.speed == 0.0
        assert crit.maximiser == 1.0
        assert not crit.degenerate

    def test_degenerate_zero_vorticity(self):
        crit = critical_surface_speed(ConstantVorticity(b=0.0))
        assert crit.degenerate
        assert crit.speed == 0.0


class TestCauchyProblem:
    def test_parabola_profile(self):
        prof = solve_cauchy(ConstantVorticity(b=2.0), s=2.0, y_max=1.5)
        y = np.linspace(0.0, 1.0, 201)
        assert np.max(np.abs(prof.U(y) - (2.0 * y - y ** 2))) < 1e-10
        assert np.max(np.abs(prof.Uy(y) - (2.0 - 2.0 * y))) < 1e-10

    def test_sine_profile(self):
        prof = solve_cauchy(LinearVorticity(b=1.0), s=1.0, y_max=2.0)
        y = np.linspace(0.0, 2.0, 101)
        assert np.max(np.abs(prof.U(y) - np.sin(y))) < 1e-9

    def test_first_integral_random_slopes(self):
        rng = np.random.default_rng(7)
        dist = LinearVorticity(b=1.0)
        for s in rng.uniform(0.3, 2.0, size=4):
            prof = solve_cauchy(dist, s=float(s), y_max=3.0)
            assert prof.first_integral_defect(dist) < 1e-9


def _bits(a):
    """The bytes of a float array, so that -0.0 and 0.0 tell apart."""
    return np.asarray(a, dtype=float).view(np.uint64)


# (distribution, bed slope, y_max) of profiles integrated upward, and
# downward for a negative y_max
DENSE_PROFILES = [(ConstantVorticity(b=2.0), 2.0, 1.5),
                  (LinearVorticity(b=1.0), 1.0, 3.0),
                  (LinearVorticity(b=1.0), 1.0, -5.0),
                  (ConstantVorticity(b=-1.0), 0.3, -2.0)]


class TestDenseEvaluation:
    """U and Uy evaluate all points of a call in one pass; every value must
    be that of scipy's OdeSolution.__call__ on the same IVP, bit for bit."""

    @pytest.fixture(params=DENSE_PROFILES,
                    ids=["constant", "linear", "linear-down", "constant-down"])
    def profile(self, request):
        """(the profile, scipy's OdeSolution of its IVP)"""
        dist, s, y_max = request.param
        prof = solve_cauchy(dist, s=s, y_max=y_max)
        ref = solve_ivp(stream._cauchy_rhs(dist), (0.0, y_max), (0.0, s),
                        method="DOP853", rtol=stream.INTEGRATOR_RTOL,
                        atol=stream.INTEGRATOR_ATOL, dense_output=True).sol
        assert ref.ascending == (y_max > 0)
        assert np.array_equal(_bits(prof._ivp.t), _bits(ref.ts))
        return prof, ref

    def _points(self, ref):
        lo, hi = sorted((0.0, float(ref.ts[-1])))
        rng = np.random.default_rng(11)
        return {"interior": rng.uniform(lo, hi, 2000),
                "nodes": ref.ts,
                "nodes-reversed": ref.ts[::-1].copy(),
                "beyond": np.array([lo - 1.0, hi + 1.0, lo - 1e-3, hi + 1e-3,
                                    lo, hi])}

    def test_arrays_match_scipy(self, profile):
        profile, ref = profile
        assert ref.n_segments > 3
        for name, y in self._points(ref).items():
            want = ref(y)
            for k, f in enumerate((profile.U, profile.Uy)):
                assert np.array_equal(_bits(f(y)), _bits(want[k])), name

    def test_nodes_take_scipy_segment(self, profile):
        # adjacent steps agree at their shared node to the last bit, so
        # shift each step's y_old by its own amount: then only the choice of
        # step (OdeSolution's side rule) decides the value at a node
        profile, ref = profile
        ivp = profile._ivp
        shift = 1e-3 * np.arange(ivp.t.size)
        profile = dataclasses.replace(profile, _ivp=ivp._replace(
            y=ivp.y + shift))
        for i, step in enumerate(ref.interpolants):
            step.y_old = step.y_old + shift[i]
        ts = ref.ts
        for y in (ts, ts[::-1].copy(), ts[1]):
            want = ref(y)
            assert not np.array_equal(want, ref(np.nextafter(
                y, np.inf if ref.ascending else -np.inf)))
            for k, f in enumerate((profile.U, profile.Uy)):
                assert np.array_equal(_bits(f(y)), _bits(want[k]))

    def test_zero_d_inputs_match_scipy(self, profile):
        profile, ref = profile
        for y in (0.3 * ref.ts[-1], ref.ts[2]):
            want = ref(y)
            for k, f in enumerate((profile.U, profile.Uy)):
                for arg in (float(y), np.float64(y), np.array(y)):
                    got = f(arg)
                    assert np.ndim(got) == 0
                    assert np.array_equal(_bits(got), _bits(want[k]))

    def test_calls_run_no_segment_interpolant(self, profile, monkeypatch):
        # a call evaluates all its points in one polynomial pass, and
        # scipy's per-step interpolants take no part
        profile, ref = profile
        y = self._points(ref)["interior"]
        want, want0 = ref(y), ref(y[0])

        def forbidden(*args):
            raise AssertionError("per-segment interpolant call")

        passes = []

        def counted(*args, _interpolant=ode._interpolant):
            passes.append(np.shape(args[2]))
            return _interpolant(*args)

        monkeypatch.setattr(DenseOutput, "__call__", forbidden)
        monkeypatch.setattr(ode, "_interpolant", counted)
        for k, f in enumerate((profile.U, profile.Uy)):
            assert np.array_equal(_bits(f(y)), _bits(want[k]))
            assert np.array_equal(_bits(f(float(y[0]))), _bits(want0[k]))
        assert passes == [y.shape, ()] * 2
        with pytest.raises(AssertionError, match="per-segment"):
            ref(y)


class TestLeastDepth:
    def test_constant_b2_exact(self):
        assert least_still_depth(ConstantVorticity(b=2.0)) == pytest.approx(
            1.0, abs=1e-10)

    def test_linear_b1_quarter_period(self):
        assert least_still_depth(LinearVorticity(b=1.0)) == pytest.approx(
            np.pi / 2.0, abs=1e-10)

    def test_cubic_against_beta_oracle(self):
        # b = 3/2 makes the critical slope exactly 1, so the depth is the
        # bare cubic integral
        h0 = least_still_depth(QuadraticTruncatedVorticity(b=1.5, R=1.1))
        assert h0 == pytest.approx(CUBIC_DEPTH, abs=1e-10)

    def test_hat_double_zero(self):
        # zero critical slope: integrable inverse-sqrt at both ends
        assert least_still_depth(HAT) == pytest.approx(
            np.pi / np.sqrt(2.0), abs=1e-10)

    def test_not_still(self):
        with pytest.raises(NotStill):
            least_still_depth(LinearVorticity(b=-1.0))

    def test_divergent_when_vorticity_dies_at_surface(self):
        dist = TabulatedVorticity(nodes=(0.0, 1.0), values=(1.0, 0.0))
        with pytest.raises(DivergentDepth):
            least_still_depth(dist)


class TestMonotoneInterval:
    def test_unbounded_for_constant(self):
        dist = ConstantVorticity(b=2.0)
        assert monotone_interval_lower(
            dist, 2.0, horizon=100.0 * least_still_depth(dist)) == -math.inf

    def test_linear_half_period_below(self):
        dist = LinearVorticity(b=1.0)
        y_minus = monotone_interval_lower(
            dist, 1.0, horizon=100.0 * least_still_depth(dist))
        assert y_minus == pytest.approx(-np.pi / 2.0, abs=1e-8)


    @pytest.mark.parametrize("dist, s0", [
        (ConstantVorticity(b=2.0), 2.0),
        (QuadraticTruncatedVorticity(b=1.5, R=1.2), 1.0),
        (TabulatedVorticity(nodes=(-1.0, 0.5, 1.0), values=(0.5, 0.0, 2.0)),
         1.0)],
        ids=["constant", "quadratic", "tabulated"])
    def test_nonnegative_vorticity_below_the_bed_integrates_nothing(
            self, monkeypatch, dist, s0):
        # omega >= 0 for tau <= 0 keeps U' >= s0 below the bed: no turn
        assert dist.inf_omega_nonpositive() >= 0.0
        assert monotone_interval_lower(dist, s0, horizon=100.0) == -math.inf

        def no_ivp(*args, **kwargs):
            raise AssertionError("dop853 called")
        monkeypatch.setattr(stream, "dop853", no_ivp)
        assert monotone_interval_lower(dist, s0, horizon=100.0) == -math.inf

    @pytest.mark.parametrize("dist", [
        ConstantVorticity(b=-1.0), LinearVorticity(b=1.0),
        TabulatedVorticity(nodes=(-1.0, 0.0, 1.0), values=(-0.5, 1.0, 1.0)),
        TabulatedVorticity(nodes=(-1.0, 1.0), values=(1.0, -3.0)),
        TabulatedVorticity(nodes=(0.5, 1.0), values=(-1.0, 1.0))],
        ids=["constant", "linear", "tabulated-node", "tabulated-zero",
             "tabulated-left-end"])
    def test_vorticity_negative_below_the_bed_still_integrates(
            self, monkeypatch, dist):
        assert dist.inf_omega_nonpositive() < 0.0
        calls = []

        def counted(*args, **kwargs):
            calls.append(args)
            return ode.dop853(*args, **kwargs)
        monkeypatch.setattr(stream, "dop853", counted)
        monotone_interval_lower(dist, 1.0, horizon=10.0)
        assert len(calls) == 1

    @pytest.mark.parametrize("b, s0, y_minus", [
        (1.0, 1.0, "-0x1.921fb5445684bp+0"),
        (2.5, 0.7, "-0x1.fca6a2a438cc7p-1")])
    def test_linear_positive_b_keeps_its_bits(self, b, s0, y_minus):
        # the integration that finds the turn is the one it always was
        dist = LinearVorticity(b=b)
        got = monotone_interval_lower(
            dist, s0, horizon=100.0 * least_still_depth(dist))
        assert got.hex() == y_minus


class TestDepthFamily:
    def test_constant_single_member(self):
        members = still_depth_family(ConstantVorticity(b=2.0), k_max=3)
        assert len(members) == 1
        m = members[0]
        assert m.depth == pytest.approx(1.0, abs=1e-10)
        assert m.still
        assert abs(m.U(m.depth) - 1.0) < 1e-8

    def test_linear_ladder(self):
        members = still_depth_family(LinearVorticity(b=1.0), k_max=1)
        depths = [m.depth for m in members]
        expected = [np.pi / 2.0, 3.0 * np.pi / 2.0,
                    5.0 * np.pi / 2.0, 7.0 * np.pi / 2.0]
        assert len(depths) == 4
        assert np.max(np.abs(np.array(depths) - expected)) < 1e-8
        assert all(m.still for m in members)
        assert all(b - a > 0 for a, b in zip(depths, depths[1:]))
        signs = [m.branch[0] for m in members]
        assert signs == ["+", "-", "+", "-"]

    def test_family_first_integral(self):
        dist = LinearVorticity(b=1.0)
        for m in still_depth_family(dist, k_max=1):
            assert m.profile.first_integral_defect(dist) < 1e-9

    def test_rest_start_ladder(self):
        # omega(0) = -1 < 0 starts the rise from rest; reflections stack
        # odd multiples of the least depth
        members = still_depth_family(HAT, k_max=2)
        depths = np.array([m.depth for m in members])
        base = np.pi / np.sqrt(2.0)
        assert np.max(np.abs(depths - base * np.array([1.0, 3.0, 5.0]))) < 1e-8
        assert all(m.still for m in members)

    def test_rest_start_requires_negative_origin(self):
        dist = TabulatedVorticity(nodes=(0.0, 0.5, 1.0), values=(0.0, 1.0, -1.0))
        # antiderivative peaks inside (0, 1): no still configuration
        with pytest.raises(NoStillSolution):
            still_depth_family(dist)

    def test_no_still_for_descending_linear(self):
        with pytest.raises(NoStillSolution):
            still_depth_family(LinearVorticity(b=-1.0))

    def test_degenerate_rejected(self):
        with pytest.raises(NoStillSolution):
            still_depth_family(ConstantVorticity(b=0.0))

    def test_negative_k_max(self):
        with pytest.raises(ValueError):
            still_depth_family(LinearVorticity(b=1.0), k_max=-1)


class TestShearProbe:
    def test_transversal_crossing(self):
        # U = y^2/2 crosses 1 at sqrt(2) with nonzero slope
        sol = shear_solution(ConstantVorticity(b=-1.0), s=0.0)
        assert sol.depth == pytest.approx(np.sqrt(2.0), abs=1e-8)
        assert not sol.still
        assert sol.surface_speed == pytest.approx(np.sqrt(2.0), abs=1e-6)

    def test_tangential_arrival(self):
        sol = shear_solution(ConstantVorticity(b=2.0), s=2.0)
        assert sol.depth == pytest.approx(1.0, abs=1e-6)
        assert sol.still

    @pytest.mark.parametrize("dist, s", [
        (ConstantVorticity(b=-1.0), 0.0), (LinearVorticity(b=-1.0), 0.5),
        (TabulatedVorticity(nodes=[0.0, 1.0], values=[0.5, 1.5]), 2.5),
        (ConstantVorticity(b=2.0), 2.0),
    ], ids=["constant-moving", "linear-moving", "tabulated-moving",
            "constant-still"])
    def test_search_stops_at_the_surface(self, monkeypatch, dist, s):
        # the search stops at the first crossing of 1 (a moving surface)
        # or maximum of U at 1 (a still one), yet finds what solve_ivp
        # finds with the same events run over the whole first interval,
        # bit for bit
        integrate, ends = stream._integrate, []

        def run(*args, **kwargs):
            sol = integrate(*args, **kwargs)
            ends.append(float(sol.t[-1]))
            return sol

        monkeypatch.setattr(stream, "_integrate", run)
        got = shear_solution(dist, s)

        def reach(y, st):
            return st[0] - 1.0

        def top(y, st):
            return st[1]
        top.direction = -1.0
        ref = solve_ivp(stream._cauchy_rhs(dist), (0.0, 10.0), (0.0, s),
                        method="DOP853", rtol=stream.INTEGRATOR_RTOL,
                        atol=stream.INTEGRATOR_ATOL, events=(reach, top))
        assert ref.t[-1] == 10.0
        (crossings, peaks), (_, tops) = ref.t_events, ref.y_events
        want = min([t for t in crossings if t > 1e-12]
                   + [t for t, (u, _) in zip(peaks, tops)
                      if t > 1e-12 and abs(u - 1.0) <= 1e-6])
        assert ends[0] < 5.0
        assert got.depth.hex() == float(want).hex()
        cut = stream._cut(dist, s, float(want))
        assert (got.surface_speed, got.still) == (cut.surface_speed,
                                                  cut.still)
        assert np.array_equal(got.profile.U_values, cut.profile.U_values)

    def test_subcritical_never_reaches(self):
        # U = y - y^2 tops out at 1/4
        with pytest.raises(ValueError):
            shear_solution(ConstantVorticity(b=2.0), s=1.0)

    def test_oscillating_flow_reported(self):
        with pytest.raises(ValueError, match="oscillates"):
            shear_solution(LinearVorticity(b=1.0), s=0.5)

    def test_integrator_failure_raises_step_failure(self):
        # U = 1 lies near y = 1.4e-100, below the step the integrator can
        # take, so every IVP of the search stops before reaching it
        with np.errstate(over="ignore", invalid="ignore"), \
                pytest.raises(StepFailure, match="step size"):
            shear_solution(ConstantVorticity(b=-1e200), s=0.5)
