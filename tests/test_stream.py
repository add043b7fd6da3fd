"""Stream-solution tests against closed forms.

Every expected number here comes from solving U'' + omega(U) = 0 by hand:
constant omega = b gives the parabola U = s y - b y^2 / 2, linear
omega(tau) = b tau gives U = s sin(sqrt(b) y) / sqrt(b), and the
piecewise-linear profile omega = 2 tau - 1 gives U = (1 - cos(sqrt(2) y)) / 2.
The cubic depth integral is checked against a Beta-function oracle.
"""

import math

import numpy as np
import pytest
from scipy.integrate import DenseOutput, solve_ivp
from scipy.special import gamma

from stillwave import stream
from stillwave.errors import (DivergentDepth, NoStillSolution, NotStill,
                              StepFailure)
from stillwave.stream import (critical_surface_speed, least_still_depth,
                              monotone_interval_lower, shear_solution,
                              solve_cauchy, still_depth_family)
from stillwave.vorticity import (ConstantVorticity, LinearVorticity,
                                 QuadraticTruncatedVorticity,
                                 TabulatedVorticity)


def _released(event):
    """A non-terminal copy of an event function."""
    def copy(y, st):
        return event(y, st)
    copy.terminal = False
    return copy


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
    be scipy's OdeSolution.__call__ bit for bit."""

    @pytest.fixture(params=DENSE_PROFILES,
                    ids=["constant", "linear", "linear-down", "constant-down"])
    def profile(self, request):
        dist, s, y_max = request.param
        prof = solve_cauchy(dist, s=s, y_max=y_max)
        assert prof._dense.ascending == (y_max > 0)
        return prof

    def _points(self, prof):
        lo, hi = sorted((0.0, float(prof._dense.ts[-1])))
        rng = np.random.default_rng(11)
        return {"interior": rng.uniform(lo, hi, 2000),
                "nodes": prof._dense.ts,
                "nodes-reversed": prof._dense.ts[::-1].copy(),
                "beyond": np.array([lo - 1.0, hi + 1.0, lo - 1e-3, hi + 1e-3,
                                    lo, hi])}

    def test_arrays_match_scipy(self, profile):
        assert profile._dense.n_segments > 3
        for name, y in self._points(profile).items():
            ref = profile._dense(y)
            for k, f in enumerate((profile.U, profile.Uy)):
                assert np.array_equal(_bits(f(y)), _bits(ref[k])), name

    def test_nodes_take_scipy_segment(self, profile):
        # adjacent steps agree at their shared node to the last bit, so
        # shift each step's y_old by its own amount: then only the choice of
        # step (OdeSolution's side rule) decides the value at a node
        for i, step in enumerate(profile._dense.interpolants):
            step.y_old = step.y_old + 1e-3 * i
        ts = profile._dense.ts
        for y in (ts, ts[::-1].copy(), ts[1]):
            ref = profile._dense(y)
            assert not np.array_equal(ref, profile._dense(np.nextafter(
                y, np.inf if profile._dense.ascending else -np.inf)))
            for k, f in enumerate((profile.U, profile.Uy)):
                assert np.array_equal(_bits(f(y)), _bits(ref[k]))

    def test_zero_d_inputs_match_scipy(self, profile):
        for y in (0.3 * profile._dense.ts[-1], profile._dense.ts[2]):
            ref = profile._dense(y)
            for k, f in enumerate((profile.U, profile.Uy)):
                for arg in (float(y), np.float64(y), np.array(y)):
                    got = f(arg)
                    assert np.ndim(got) == 0
                    assert np.array_equal(_bits(got), _bits(ref[k]))

    def test_calls_run_no_segment_interpolant(self, profile, monkeypatch):
        y = self._points(profile)["interior"]
        ref, ref0 = profile._dense(y), profile._dense(y[0])

        def forbidden(self, t):
            raise AssertionError("per-segment DenseOutput call")

        monkeypatch.setattr(DenseOutput, "__call__", forbidden)
        for k, f in enumerate((profile.U, profile.Uy)):
            assert np.array_equal(_bits(f(y)), _bits(ref[k]))
            assert np.array_equal(_bits(f(float(y[0]))), _bits(ref0[k]))
        with pytest.raises(AssertionError, match="per-segment"):
            profile._dense(y)


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
            raise AssertionError("solve_ivp called")
        monkeypatch.setattr(stream, "solve_ivp", no_ivp)
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
            return solve_ivp(*args, **kwargs)
        monkeypatch.setattr(stream, "solve_ivp", counted)
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
        # the search stops at the first crossing of 1, yet finds what a
        # search whose every IVP runs its full length finds, bit for bit
        integrate = stream._integrate
        ends = {True: [], False: []}

        def search(terminal):
            def run(dist, s, y_end, events=(), **options):
                if not terminal:
                    events = tuple(_released(e) for e in events)
                sol = integrate(dist, s, y_end, events=events, **options)
                ends[terminal].append((float(sol.t[-1]), y_end))
                return sol
            with monkeypatch.context() as m:
                m.setattr(stream, "_integrate", run)
                return shear_solution(dist, s)

        got, want = search(True), search(False)
        # the first IVP of each search: the reference runs its full
        # length, and the search stops short of it at the surface, a
        # crossing of 1 (moving) or a maximum of U at 1 (still)
        (t_ref, y_ref), (t_got, _) = ends[False][0], ends[True][0]
        assert t_ref == y_ref
        assert t_got < 0.5 * y_ref
        assert (got.depth, got.surface_speed, got.still) == \
            (want.depth, want.surface_speed, want.still)
        assert np.array_equal(got.profile.U_values, want.profile.U_values)

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
