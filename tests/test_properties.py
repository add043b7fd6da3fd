"""Property-based oracles: identities checked over random inputs.

dispersion_sigma on an array of wavenumbers reads sigma at every one of
them off one vectorised integration; a scalar call integrates its
wavenumber on its own and is the reference here. The least still depth
has closed forms for the constant and the linear families.
"""

import math

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from stillwave import wavesolver
from stillwave.stream import least_still_depth, shear_solution
from stillwave.vorticity import ConstantVorticity, LinearVorticity


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
