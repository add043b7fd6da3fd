"""Tests of the benchmark's closed-form oracles against independent
numerics (scipy quadrature and ODE integration), without stillwave.

    python3 -m pytest bench/test_oracles.py
"""

import math

import numpy as np
import pytest
from scipy.integrate import quad, solve_ivp

import oracles

STILL = [("constant", 0.7), ("constant", 2.5), ("linear", 0.6),
         ("linear", 2.0), ("quadratic_truncated", 0.8),
         ("quadratic_truncated", 2.9)]


def _antiderivative(family, b, tau):
    return {"constant": b * tau, "linear": 0.5 * b * tau ** 2,
            "quadratic_truncated": b * tau ** 3 / 3.0}[family]


@pytest.mark.parametrize("family,b", STILL)
def test_least_still_depth_matches_quadrature(family, b):
    # h = int_0^1 dtau / sqrt(2 Omega(1) - 2 Omega(tau)); tau = 1 - u^2
    # removes the square-root endpoint singularity
    top = 2.0 * _antiderivative(family, b, 1.0)

    def integrand(u):
        return 2.0 * u / math.sqrt(top - 2.0 * _antiderivative(family, b,
                                                               1.0 - u * u))

    h, _ = quad(integrand, 0.0, 1.0, epsabs=1e-14, epsrel=1e-13)
    assert abs(oracles.least_still_depth(family, b) - h) < 1e-11


def test_cubic_depth_integral_value():
    assert abs(oracles.CUBIC_DEPTH_INTEGRAL - 1.4021821) < 1e-6


@pytest.mark.parametrize("family,b", STILL[:4])
def test_still_profile_solves_the_still_problem(family, b):
    h = oracles.least_still_depth(family, b)
    y = np.linspace(0.0, h, 401)
    U = oracles.still_profile(family, b, y)
    step = 1e-4
    Upp = (oracles.still_profile(family, b, y + step) - 2.0 * U
           + oracles.still_profile(family, b, y - step)) / step ** 2
    assert np.max(np.abs(Upp + oracles.omega(family, b)(U))) < 1e-5
    assert abs(U[0]) < 1e-15 and abs(U[-1] - 1.0) < 1e-12
    Up = (oracles.still_profile(family, b, h + step)
          - oracles.still_profile(family, b, h - step)) / (2.0 * step)
    assert abs(Up) < 1e-7
    assert oracles.still_profile("quadratic_truncated", b, y) is None


def test_spectral_margin_by_family():
    b = 1.7
    h = oracles.least_still_depth("constant", b)
    assert oracles.spectral_margin("constant", b, h) == pytest.approx(
        math.pi ** 2 * b / 2.0, rel=1e-14)
    h = oracles.least_still_depth("linear", b)
    assert oracles.spectral_margin("linear", b, h) == pytest.approx(
        3.0 * b, rel=1e-13)
    # quadratic: (pi/h)^2 - 2bR changes sign at R = pi^2 / (3 C^2) ~ 1.673
    h = oracles.least_still_depth("quadratic_truncated", b)
    r_star = math.pi ** 2 / (3.0 * oracles.CUBIC_DEPTH_INTEGRAL ** 2)
    assert 1.67 < r_star < 1.68
    assert oracles.spectral_margin("quadratic_truncated", b, h, 1.66) > 0
    assert oracles.spectral_margin("quadratic_truncated", b, h, 1.68) < 0


def _ode_flow_and_sigma(family, b, s, k):
    """sigma(k) and (h, U'(h)) by integrating U and the mode numerically."""
    w = oracles.omega(family, b)
    wprime = 0.0 if family == "constant" else b

    def rhs(y, z):
        u, uy, f, fp = z
        return (uy, -float(w(u)), fp, (k * k - wprime) * f)

    def reach(y, z):
        return z[0] - 1.0

    reach.terminal = True
    out = solve_ivp(rhs, (0.0, 50.0), (0.0, s, 0.0, 1.0), method="DOP853",
                    rtol=1e-13, atol=1e-15, events=reach)
    h = float(out.t_events[0][0])
    _, uy, f, fp = out.y_events[0][0]
    return uy * uy * fp - (1.0 - uy * b) * f, h, uy


@pytest.mark.parametrize("family,b,s", [("constant", -1.0, 0.0),
                                        ("constant", -1.3, 0.25),
                                        ("linear", -1.2, 0.5),
                                        ("linear", 2.0, 3.0)])
@pytest.mark.parametrize("k", [0.0, 0.7, 1.2, 2.5])
def test_dispersion_sigma_matches_ode(family, b, s, k):
    # linear b = 2 with k^2 < 2 takes the sin branch of the mode
    sigma, h, uy = _ode_flow_and_sigma(family, b, s, k)
    h_cf, uy_cf = oracles.shear_flow(family, b, s)
    assert abs(h - h_cf) < 1e-10 and abs(uy - uy_cf) < 1e-10
    assert abs(oracles.dispersion_sigma(family, b, s, k) - sigma) \
        < 1e-8 * max(1.0, abs(sigma))


def test_constant_bm1_root_matches_reduced_equation():
    s2 = math.sqrt(2.0)

    def g(k):
        return 2.0 * k * math.cosh(s2 * k) - (1.0 + s2) * math.sinh(s2 * k)

    roots = oracles.dispersion_roots("constant", -1.0, 0.0)
    assert len(roots) == 1
    assert abs(roots[0] - oracles.bisect(g, 0.5, 2.0)) < 1e-12
    assert abs(g(roots[0])) < 1e-12


def test_bisect_finds_known_root():
    assert abs(oracles.bisect(lambda x: x * x - 2.0, 0.0, 2.0)
               - math.sqrt(2.0)) < 1e-14
    with pytest.raises(ValueError):
        oracles.bisect(lambda x: x * x + 1.0, 0.0, 2.0)


def test_column_residual_vanishes_on_a_quadratic_profile():
    # second differences are exact on quadratics, so the sampled constant-
    # vorticity profile solves the discrete vertical equation to roundoff
    b, ny = 1.3, 64
    h = oracles.least_still_depth("constant", b)
    col = oracles.still_profile("constant", b, np.linspace(0.0, h, ny + 1))
    res = oracles.column_residual(col, h, oracles.omega("constant", b))
    assert res.shape == (ny - 1,)
    assert np.max(np.abs(res)) < 1e-9
    # a linear profile is not a solution: the residual is omega itself
    lin = np.linspace(0.0, 1.0, ny + 1)
    assert np.allclose(oracles.column_residual(lin, h,
                                               oracles.omega("constant", b)), b)
