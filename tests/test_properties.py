"""Property-based oracles: identities checked over random inputs.

The dispersion root scan reads sigma at every scan wavenumber off one
vectorised integration; the scalar dispersion_sigma integrates each
wavenumber on its own and is the reference here.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from stillwave import wavesolver
from stillwave.stream import shear_solution
from stillwave.vorticity import ConstantVorticity, LinearVorticity


@settings(max_examples=25, deadline=None)
@given(family=st.sampled_from([ConstantVorticity, LinearVorticity]),
       b=st.floats(-2.0, -0.2),
       s=st.floats(0.2, 2.5),
       ks=st.lists(st.floats(0.0, 5.0), min_size=1, max_size=4))
def test_dispersion_scan_matches_scalar_path(family, b, s, ks):
    dist = family(b=b)
    sol = shear_solution(dist, s)
    scan = wavesolver._dispersion_scan(sol, dist, ks)
    ref = np.array([wavesolver.dispersion_sigma(sol, dist, k) for k in ks])
    # the bound also fixes the sign wherever |sigma| exceeds it
    assert np.all(np.abs(scan - ref) <= 1e-9 * np.maximum(1.0, np.abs(ref)))
