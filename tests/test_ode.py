"""The in-repo DOP853 integrator and brentq against scipy's, bit for bit.

Each IVP that the package runs is recorded as the package passes it to
dop853, run again through solve_ivp(method="DOP853") with the same
right-hand side, tolerances and events, and compared: the nodes and the
values there, the dense output at and between the nodes, the event that
ended the run, the number of right-hand-side evaluations and the failure
message. brentq is compared with scipy.optimize.brentq root for root.
"""

import math

import numpy as np
import pytest
import scipy.integrate._ivp.dop853_coefficients as scipy_tableau
from scipy.integrate import solve_ivp
from scipy.optimize import brentq as scipy_brentq

from stillwave import ode, stream, wavesolver
from stillwave.errors import StepFailure
from stillwave.stream import (monotone_interval_lower, shear_solution,
                              solve_cauchy, still_depth_family)
from stillwave.vorticity import (ConstantVorticity, LinearVorticity,
                                 QuadraticTruncatedVorticity,
                                 TabulatedVorticity)
from stillwave.wavesolver import (dispersion_mode, dispersion_sigma,
                                  find_bifurcation_points)

BM1 = ConstantVorticity(b=-1.0)
B2 = ConstantVorticity(b=2.0)


def _bits(a):
    """The bytes of a float array, so that -0.0 and 0.0 (and the payloads
    of NaNs) tell apart."""
    return np.asarray(a, dtype=float).view(np.uint64)


def _same(a, b):
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and np.array_equal(_bits(a), _bits(b))


def _record(monkeypatch):
    """Every dop853 call of stream and wavesolver as (args, kwargs, result)."""
    calls = []

    def recorded(*args, **kwargs):
        out = ode.dop853(*args, **kwargs)
        calls.append((args, kwargs, out))
        return out

    for module in (stream, wavesolver):
        monkeypatch.setattr(module, "dop853", recorded)
    return calls


def _scipy_run(fun, t_end, y0, rtol, atol, events=(), dense=False,
               interpolated_end=False):
    """solve_ivp on what the package passed to dop853."""
    terminal = []
    for g, direction in events:
        def copy(t, y, g=g):
            return g(t, y)
        copy.terminal, copy.direction = True, direction
        terminal.append(copy)
    return solve_ivp(fun, (0.0, t_end), y0, method="DOP853", rtol=rtol,
                     atol=atol, events=terminal or None, dense_output=dense,
                     t_eval=(t_end,) if interpolated_end else None)


def _check_against_scipy(args, kwargs, got):
    ref = _scipy_run(*args, **kwargs)
    assert got.nfev == ref.nfev
    assert got.failure == (None if ref.success else ref.message)
    t_end = args[1]
    if kwargs.get("interpolated_end"):
        # solve_ivp keeps only the t_eval value (none if a step failed)
        if got.failure is None:
            assert _same(got.y[:, -1:], ref.y) and _same(got.t[-1:], ref.t)
            assert got.t[-1] == t_end
    else:
        assert _same(got.t, ref.t) and _same(got.y, ref.y)
    events = kwargs.get("events", ())
    if events:
        fired = [i for i, te in enumerate(ref.t_events) if te.size]
        assert fired == ([] if got.event is None else [got.event])
        for i in fired:
            assert _same(ref.t_events[i], got.t[-1:])
            assert _same(ref.y_events[i], got.y[:, -1:].T)
    if kwargs.get("dense"):
        ts = ref.sol.ts
        assert _same(got.t, ts)
        mid = (ts[:-1] + ts[1:]) / 2
        lo, hi = sorted((0.0, float(t_end)))
        beyond = np.array([lo - 1.0, lo, hi, hi + 1e-3])
        for y in (ts, mid, np.random.default_rng(3).uniform(lo, hi, 500),
                  beyond, ts[1], mid[0]):
            want = ref.sol(y)
            for k in range(want.shape[0]):
                assert _same(ode.dense_value(got, y, k), want[k])
    return ref


def test_tableau_is_scipys():
    for name in ("N_STAGES", "N_STAGES_EXTENDED", "INTERPOLATOR_POWER"):
        assert getattr(ode._TABLEAU, name) == getattr(scipy_tableau, name)
    for name in ("A", "B", "C", "D", "E3", "E5"):
        assert _same(getattr(ode._TABLEAU, name),
                     getattr(scipy_tableau, name)), name
    assert ode._TABLEAU.__name__ == "stillwave._dop853_coefficients"
    assert ode._STAGES == 12


# (distribution, bed slope, y_max) as solve_cauchy is called, upward and
# downward
CAUCHY = [(B2, 2.0, 2.1), (LinearVorticity(b=1.0), 1.0, 3.0),
          (LinearVorticity(b=1.0), 1.0, -5.0), (BM1, 0.3, -2.0),
          (QuadraticTruncatedVorticity(b=1.5, R=1.1), 1.0, 1.7),
          (TabulatedVorticity(nodes=(-1.0, 0.0, 1.0),
                              values=(-0.5, 1.0, 1.0)), 1.0, 4.0)]


class TestStreamIvps:
    @pytest.mark.parametrize("dist, s, y_max", CAUCHY)
    def test_dense_profile(self, monkeypatch, dist, s, y_max):
        calls = _record(monkeypatch)
        solve_cauchy(dist, s, y_max)
        (args, kwargs, got), = calls
        assert kwargs == {"dense": True}
        _check_against_scipy(args, kwargs, got)

    @pytest.mark.parametrize("dist, s0, event", [
        (LinearVorticity(b=1.0), 1.0, 0), (LinearVorticity(b=2.5), 0.7, 0),
        (BM1, 1.0, 0), (TabulatedVorticity(nodes=(-1.0, 1.0),
                                            values=(1.0, -3.0)), 1.0, None)])
    def test_backward_turning_event(self, monkeypatch, dist, s0, event):
        calls = _record(monkeypatch)
        monotone_interval_lower(dist, s0, horizon=100.0)
        (args, kwargs, got), = calls
        assert got.event == event
        _check_against_scipy(args, kwargs, got)

    @pytest.mark.parametrize("dist, s", [
        (BM1, 0.0), (LinearVorticity(b=-1.0), 0.5), (B2, 2.0),
        (TabulatedVorticity(nodes=[0.0, 1.0], values=[0.5, 1.5]), 2.5),
        (LinearVorticity(b=1.0), 0.5), (B2, 1.0)],
        ids=["crossing", "crossing-linear", "still", "crossing-tabulated",
             "oscillating", "subcritical"])
    def test_surface_search(self, monkeypatch, dist, s):
        calls = _record(monkeypatch)
        try:
            shear_solution(dist, s)
        except ValueError:
            pass
        assert len(calls) >= 1
        # every IVP of the search and the cut's dense profile
        for args, kwargs, got in calls:
            _check_against_scipy(args, kwargs, got)

    def test_still_family(self, monkeypatch):
        calls = _record(monkeypatch)
        assert len(still_depth_family(LinearVorticity(b=2.5), k_max=1)) == 4
        assert len(calls) == 5
        for args, kwargs, got in calls:
            _check_against_scipy(args, kwargs, got)

    def test_step_failure(self, monkeypatch):
        # U = 1 lies near y = 1.4e-100, below the step the integrator can
        # take
        calls = _record(monkeypatch)
        with np.errstate(over="ignore", invalid="ignore"), \
                pytest.raises(StepFailure, match="step size"):
            shear_solution(ConstantVorticity(b=-1e200), s=0.5)
        assert calls[0][2].failure == ode.TOO_SMALL_STEP
        with np.errstate(over="ignore", invalid="ignore"):
            for args, kwargs, got in calls:
                _check_against_scipy(args, kwargs, got)


class TestDispersionIvps:
    def test_joint_scan(self, monkeypatch):
        # the dispersion CLI's integration: 21 samples and a 201-point scan
        sol = shear_solution(BM1, 0.0)
        ks = np.concatenate((np.linspace(0.0, 5.0, 21),
                             np.linspace(0.0, 5.0, 201)))
        calls = _record(monkeypatch)
        dispersion_sigma(sol, BM1, ks)
        (args, kwargs, got), = calls
        assert kwargs == {"dense": False, "interpolated_end": True}
        assert got.y.shape[0] == 2 + 2 * ks.size
        _check_against_scipy(args, kwargs, got)

    def test_polish_and_mode(self, monkeypatch):
        sol = shear_solution(LinearVorticity(b=-1.0), 0.5)
        calls = _record(monkeypatch)
        (root,) = find_bifurcation_points(sol, LinearVorticity(b=-1.0))
        f, h = dispersion_mode(sol, LinearVorticity(b=-1.0), root)
        assert len(calls) >= 3
        for args, kwargs, got in calls:
            _check_against_scipy(args, kwargs, got)
        assert calls[-1][1]["dense"]

    @pytest.mark.parametrize("k, match", [
        (700.0, r"not finite at k = \[700\.0\]"),
        (800.0, "dispersion integration failed: Required step size")])
    def test_overflow(self, monkeypatch, k, match):
        # at k h = 700 the interpolant's extra stages overflow, so the end
        # value is NaN although the step's own value is finite; at 800 the
        # step control fails
        sol = still_depth_family(B2)[0]
        calls = _record(monkeypatch)
        with pytest.raises(StepFailure, match=match):
            dispersion_sigma(sol, B2, [1.0, k])
        (args, kwargs, got), = calls
        with np.errstate(over="ignore", invalid="ignore"):
            ref = _check_against_scipy(args, kwargs, got)
        if k == 700.0:
            assert np.isnan(ref.y[-1, 0]) and np.isfinite(got.y[-1, -2])


class TestBrentq:
    FUNCTIONS = {
        "cubic": (lambda x: x ** 3 - 2.0, 0.0, 2.0),
        "cos": (lambda x: math.cos(x) - x, 0.0, 1.0),
        "steep": (lambda x: math.tanh(50.0 * (x - 0.3)), -1.0, 1.0),
        "flat": (lambda x: (x - 0.7) ** 3 + 1e-3 * (x - 0.7), 0.0, 1.0),
        "reversed": (lambda x: 1.0 - math.exp(x), -1.0, 3.0),
        "negative-zero": (lambda x: -x, -0.0, 1.0),
        "left-root": (lambda x: x - 0.25, 0.25, 1.0),
        "right-root": (lambda x: x - 1.0, 0.25, 1.0),
    }

    @pytest.mark.parametrize("name", FUNCTIONS)
    @pytest.mark.parametrize("xtol", [1e-15, 4 * np.finfo(float).eps, 1e-6])
    def test_matches_scipy(self, name, xtol):
        f, a, b = self.FUNCTIONS[name]
        for lo, hi in ((a, b), (b, a)):
            want = scipy_brentq(f, lo, hi, xtol=xtol)
            assert ode.brentq(f, lo, hi, xtol).hex() == want.hex()

    def test_matches_scipy_on_chebyshev_interpolants(self):
        # as _polished_roots calls it
        rng = np.random.default_rng(5)
        n = 0
        for _ in range(200):
            p = np.polynomial.Chebyshev(rng.normal(size=9)
                                        * 0.5 ** np.arange(9))
            if p(-1.0) * p(1.0) >= 0:
                continue
            n += 1
            want = scipy_brentq(p, -1.0, 1.0, xtol=1e-15)
            assert float(ode.brentq(p, -1.0, 1.0, 1e-15)).hex() == want.hex()
        assert n > 50

    def test_failures_match_scipy(self):
        f = self.FUNCTIONS["cubic"][0]
        for args, error in [((f, 2.0, 3.0), ValueError),
                            ((lambda x: (x - 0.7) ** 5, 0.0, 1.0),
                             RuntimeError)]:
            with pytest.raises(error) as want:
                scipy_brentq(*args, xtol=1e-15)
            with pytest.raises(error) as got:
                ode.brentq(*args, 1e-15)
            assert str(got.value) == str(want.value)
