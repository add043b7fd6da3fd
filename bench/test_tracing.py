"""Tests of the benchmark's tracer on scipy alone, without stillwave.

    python3 -m pytest bench/test_tracing.py
"""

import numpy as np
import pytest
import scipy.integrate
import scipy.sparse
import scipy.sparse.linalg

from tracing import LINSOLVE_ENTRY_POINTS, Tracer


@pytest.fixture
def tracer():
    saved = {name: getattr(scipy.sparse.linalg, name)
             for name in LINSOLVE_ENTRY_POINTS}
    saved_ivp = scipy.integrate.solve_ivp
    t = Tracer()
    t.install_scipy()
    try:
        yield t
    finally:
        for name, fn in saved.items():
            setattr(scipy.sparse.linalg, name, fn)
        scipy.integrate.solve_ivp = saved_ivp


def test_splu_solve_is_a_linsolve_span(tracer):
    A = scipy.sparse.csc_matrix(np.array([[4.0, 1.0, 0.0],
                                          [1.0, 3.0, 1.0],
                                          [0.0, 1.0, 2.0]]))
    b = np.array([1.0, 2.0, 3.0])
    tracer.item = 0
    lu = scipy.sparse.linalg.splu(A)
    x = lu.solve(b)
    np.testing.assert_allclose(A @ x, b)
    assert lu.shape == (3, 3)
    assert [s.layer for s in tracer.spans] == ["wavesolver.linsolve"] * 2
    assert tracer.spans[1].name.endswith("solve")
    metrics = tracer.item_metrics(0)
    assert metrics["wavesolver.linsolve.calls"] == 2
    assert metrics["wavesolver.linsolve.nnz"] == A.nnz
    assert metrics["wavesolver.linsolve.unknowns"] == 3


def test_solve_inside_another_layer_is_its_child_span(tracer):
    A = scipy.sparse.identity(4, format="csc")
    outer_fn = tracer.wrap(
        "diagnostics",
        lambda: scipy.sparse.linalg.splu(A).solve(np.ones(4)))
    tracer.item = 0
    np.testing.assert_allclose(outer_fn(), np.ones(4))
    outer, *inner = tracer.spans
    assert outer.layer == "diagnostics"
    assert [s.layer for s in inner] == ["wavesolver.linsolve"] * 2
    assert [s.parent for s in inner] == [outer.id, outer.id]
    inner_s = sum(s.end - s.start for s in inner)
    assert outer.self_s == pytest.approx(outer.end - outer.start - inner_s)
