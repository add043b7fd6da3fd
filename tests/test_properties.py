"""Property-based oracles: identities checked over random inputs.

dispersion_sigma on an array of wavenumbers reads sigma at every one of
them off one vectorised integration; a scalar call integrates its
wavenumber on its own and is the reference here. The least still depth
has closed forms for the constant and the linear families.
singular_quadrature is checked against QUADPACK's algebraic-weight rule,
elliptic_F against scipy's ellipkinc, and each family's antiderivative
against its omega by central differences.
"""

import math

import numpy as np
from hypothesis import assume, example, given, reject, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.special import ellipkinc

from stillwave import wavesolver
from stillwave.errors import InvalidFamilyParams
from stillwave.special import (SingularIntegrandSpec, elliptic_F,
                               singular_quadrature)
from stillwave.stream import least_still_depth, shear_solution
from stillwave.vorticity import (ConstantVorticity, LinearVorticity,
                                 make_distribution)


@settings(max_examples=25, deadline=None)
@given(family=st.sampled_from([ConstantVorticity, LinearVorticity]),
       b=st.floats(-2.0, -0.2),
       s=st.floats(0.2, 2.5),
       ks=st.lists(st.floats(0.0, 5.0), min_size=1, max_size=4))
def test_dispersion_scan_matches_scalar_path(family, b, s, ks):
    dist = family(b=b)
    sol = shear_solution(dist, s)
    scan = wavesolver.dispersion_sigma(sol, dist, ks)
    ref = np.array([wavesolver.dispersion_sigma(sol, dist, k) for k in ks])
    # the bound also fixes the sign wherever |sigma| exceeds it
    assert np.all(np.abs(scan - ref) <= 1e-9 * np.maximum(1.0, np.abs(ref)))


@settings(max_examples=50, deadline=None)
@given(b=st.floats(0.05, 10.0))
# constant b values whose quadrature error estimates once failed a
# tolerance tighter than the one quad was asked for
@example(b=0.052)
@example(b=0.504)
@example(b=1.064)
def test_least_still_depth_closed_forms(b):
    # U = (1 - (1 - y/h)^2) with h = sqrt(2/b) for constant b, and
    # U = sin(sqrt(b) y) with h = pi / (2 sqrt(b)) for linear b
    for dist, h0 in ((ConstantVorticity(b=b), math.sqrt(2.0 / b)),
                     (LinearVorticity(b=b), math.pi / (2.0 * math.sqrt(b)))):
        assert abs(least_still_depth(dist) - h0) <= 1e-12 * h0


@settings(max_examples=60, deadline=None)
@given(alpha=st.floats(-0.95, 0.0, exclude_min=True),
       beta=st.floats(-0.95, 0.0, exclude_min=True),
       a=st.floats(-2.0, 2.0), width=st.floats(0.1, 3.0),
       c=st.floats(-1.0, 1.0), w=st.floats(0.0, 3.0), p=st.floats(0.0, 6.3))
def test_singular_quadrature_matches_algebraic_weight_rule(alpha, beta, a,
                                                           width, c, w, p):
    # f is smooth and lies in [0.5 e^-|c x|, 2.5 e^|c x|], so the integral
    # is positive and a relative bound is meaningful
    def f(x):
        return math.exp(c * x) * (1.5 + math.sin(w * x + p))

    b = a + width
    spec = SingularIntegrandSpec(f, left_exponent=alpha, right_exponent=beta)
    ref, _ = quad(f, a, b, weight="alg", wvar=(alpha, beta), epsabs=0.0,
                  epsrel=1e-13, limit=200)
    assert abs(singular_quadrature(spec, a, b) - ref) <= 1e-11 * abs(ref)


@settings(max_examples=200, deadline=None)
@given(phi=st.floats(0.0, math.pi / 2.0, allow_subnormal=False),
       alpha=st.floats(0.0, 1.5))
@example(phi=1e-8, alpha=1.5)
@example(phi=1e-300, alpha=1.5)
def test_elliptic_F_matches_ellipkinc(phi, alpha):
    # alpha stops at 1.5: closer to pi/2, ellipkinc itself loses digits.
    # Subnormal phi is checked below: there ellipkinc rounds to values
    # under phi (2e-323 for phi = 2.5e-323), which F never is.
    ref = ellipkinc(phi, math.sin(alpha) ** 2)
    assert abs(elliptic_F(phi, alpha) - ref) <= 1e-13 * ref


@given(phi=st.floats(0.0, 2.2e-308), alpha=st.floats(0.0, 1.5))
@example(phi=5e-324, alpha=1.5)
def test_elliptic_F_is_phi_for_subnormal_phi(phi, alpha):
    # F = phi + sin(alpha)^2 phi^3 / 6 + ..., and phi^3 underflows
    assert elliptic_F(phi, alpha) == phi


@st.composite
def _family_specs(draw):
    family = draw(st.sampled_from(["constant", "linear",
                                   "quadratic_truncated", "tabulated"]))
    if family == "quadratic_truncated":
        return {"family": family, "b": draw(st.floats(0.1, 3.0)),
                "R": draw(st.floats(1.05, 2.5))}
    if family == "tabulated":
        nodes = sorted(draw(st.lists(st.floats(-2.5, 2.5), min_size=2,
                                     max_size=6, unique=True)))
        values = draw(st.lists(st.floats(-3.0, 3.0), min_size=len(nodes),
                               max_size=len(nodes)))
        return {"family": family, "nodes": nodes, "values": values}
    return {"family": family, "b": draw(st.floats(-3.0, 3.0))}


@settings(max_examples=100, deadline=None)
@given(spec=_family_specs(), tau=st.floats(-3.0, 3.0))
def test_antiderivative_differentiates_to_omega(spec, tau):
    try:
        dist = make_distribution(spec)
    except InvalidFamilyParams:
        # nodes so close that a slope overflows; test_vorticity covers these
        reject()
    kinks = spec.get("nodes", [])
    if "R" in spec:
        kinks = [-spec["R"], spec["R"]]
    # omega has a kink there, so the difference quotient straddles two
    # slopes
    assume(all(abs(tau - k) > 1e-4 for k in kinks))
    step = 1e-5
    slope = (float(dist.antiderivative(tau + step))
             - float(dist.antiderivative(tau - step))) / (2.0 * step)
    assert abs(slope - float(dist.omega(tau))) <= 1e-8
