import math

import numpy as np
import pytest
from scipy.integrate import quad

from stillwave.errors import InvalidFamilyParams
from stillwave.vorticity import (ConstantVorticity, LinearVorticity,
                                 QuadraticTruncatedVorticity,
                                 TabulatedVorticity, make_distribution)

ALL_SPECS = [
    {"family": "constant", "b": 2.0},
    {"family": "constant", "b": -1.0},
    {"family": "linear", "b": 1.0},
    {"family": "linear", "b": -0.7},
    {"family": "quadratic_truncated", "b": 1.5, "R": 1.1},
    {"family": "tabulated", "nodes": [0.0, 0.3, 1.0], "values": [-1.0, 0.2, 1.0]},
]


def test_factory_builds_each_family():
    classes = [ConstantVorticity, ConstantVorticity, LinearVorticity,
               LinearVorticity, QuadraticTruncatedVorticity, TabulatedVorticity]
    for spec, cls in zip(ALL_SPECS, classes):
        assert isinstance(make_distribution(spec), cls)


@pytest.mark.parametrize("spec", [
    {"b": 1.0},
    {"family": "cubic", "b": 1.0},
    {"family": "constant"},
    {"family": "constant", "b": 1.0, "c": 2.0},
    {"family": "quadratic_truncated", "b": 1.5, "R": 0.9},
    {"family": "quadratic_truncated", "b": -1.0, "R": 1.1},
    {"family": "tabulated", "nodes": [0.0], "values": [1.0]},
    {"family": "tabulated", "nodes": [0.0, 0.0], "values": [1.0, 2.0]},
    {"family": "tabulated", "nodes": [1.0, 0.0], "values": [1.0, 2.0]},
    {"family": "tabulated", "nodes": [0.0, 1.0], "values": [1.0]},
    {"family": "constant", "b": "2"},
    {"family": "constant", "b": None},
    {"family": "constant", "b": math.nan},
    {"family": "tabulated", "nodes": ["a", "b"], "values": [1.0, 2.0]},
    {"family": "constant", "b": True},
    {"family": "quadratic_truncated", "b": math.inf, "R": 1.1},
    {"family": "tabulated", "nodes": [0.0, 1e-308], "values": [0.0, 2.0]},
])
def test_factory_rejects_bad_specs(spec):
    with pytest.raises(InvalidFamilyParams):
        make_distribution(spec)


def test_constant_values():
    d = make_distribution({"family": "constant", "b": 2.0})
    assert d.omega(0.3) == 2.0
    assert d.antiderivative(0.5) == 1.0
    assert d.derivative(0.7) == 0.0
    assert d.sup_derivative() == 0.0


def test_linear_values():
    d = make_distribution({"family": "linear", "b": 1.0})
    assert d.omega(0.25) == 0.25
    assert d.antiderivative(1.0) == 0.5
    assert d.sup_derivative() == 1.0
    neg = make_distribution({"family": "linear", "b": -0.7})
    # signed sup: a falling omega has negative derivative everywhere
    assert neg.sup_derivative() == -0.7


def test_quadratic_truncation_values():
    d = make_distribution({"family": "quadratic_truncated", "b": 1.5, "R": 1.1})
    assert d.omega(2.0) == pytest.approx(1.5 * 1.1 ** 2, abs=0)
    assert d.omega(-2.0) == pytest.approx(1.5 * 1.1 ** 2, abs=0)
    assert d.antiderivative(1.0) == pytest.approx(0.5, abs=1e-15)
    assert d.sup_derivative() == pytest.approx(3.3, abs=1e-15)
    # continuity across the truncation radius
    eps = 1e-9
    assert abs(d.omega(1.1 - eps) - d.omega(1.1 + eps)) < 1e-8


def test_quadratic_antiderivative_is_odd_symmetric_growth():
    d = make_distribution({"family": "quadratic_truncated", "b": 1.5, "R": 1.1})
    # beyond R the antiderivative grows linearly at rate b R^2
    slope = (d.antiderivative(3.0) - d.antiderivative(2.0)) / 1.0
    assert slope == pytest.approx(1.5 * 1.1 ** 2, rel=1e-12)


@pytest.mark.parametrize("spec", ALL_SPECS)
def test_derivative_consistent_with_omega(spec):
    # numerical derivative of the antiderivative must reproduce omega
    d = make_distribution(spec)
    rng = np.random.default_rng(7)
    taus = rng.uniform(-1.5, 1.5, size=100)
    step = 1e-6
    fd = (np.asarray(d.antiderivative(taus + step))
          - np.asarray(d.antiderivative(taus - step))) / (2 * step)
    assert np.max(np.abs(fd - np.asarray(d.omega(taus)))) < 1e-8


@pytest.mark.parametrize("spec", ALL_SPECS)
def test_antiderivative_vanishes_at_zero(spec):
    d = make_distribution(spec)
    assert abs(float(d.antiderivative(0.0))) < 1e-15


def test_tabulated_antiderivative_matches_quadrature():
    d = make_distribution({"family": "tabulated",
                           "nodes": [0.0, 0.3, 1.0],
                           "values": [-1.0, 0.2, 1.0]})
    for t in [-0.5, 0.1, 0.3, 0.77, 1.0, 1.6]:
        ref, _ = quad(lambda s: float(d.omega(s)), 0.0, t, limit=200)
        assert float(d.antiderivative(t)) == pytest.approx(ref, abs=1e-10)


def test_tabulated_constant_extension():
    d = make_distribution({"family": "tabulated",
                           "nodes": [0.0, 1.0], "values": [-1.0, 1.0]})
    assert d.omega(-5.0) == -1.0
    assert d.omega(5.0) == 1.0
    assert d.derivative(-5.0) == 0.0
    assert d.derivative(0.5) == pytest.approx(2.0, abs=1e-14)
    assert d.sup_derivative() == pytest.approx(2.0, abs=1e-14)


def test_vectorised_evaluation_shapes():
    for spec in ALL_SPECS:
        d = make_distribution(spec)
        arr = np.linspace(-1, 2, 13).reshape(13, 1) * np.ones((1, 4))
        for meth in (d.omega, d.antiderivative, d.derivative):
            out = np.asarray(meth(arr))
            assert out.shape == arr.shape
        assert np.isscalar(float(d.omega(0.5)))


@pytest.mark.parametrize("spec", ALL_SPECS,
                         ids=[f"{s['family']}-{i}" for i, s in
                              enumerate(ALL_SPECS)])
def test_scalar_and_array_paths_agree_bit_for_bit(spec):
    # constant and linear answer a float tau without building an array;
    # every family must give the array path's values, bit for bit
    d = make_distribution(spec)
    taus = [-1.3, -0.0, 0.0, 1e-300, 0.3, 0.5, 1.0, 1.1, 2.7]
    for meth in (d.omega, d.derivative):
        want = meth(np.array(taus))
        for i, t in enumerate(taus):
            got = [meth(t), meth(np.float64(t)), meth(np.array(t)),
                   meth(np.array([t]))[0]]
            assert all(np.asarray(g).tobytes() == want[i].tobytes()
                       for g in got), (meth.__name__, t, got, want[i])
            assert np.ndim(meth(t)) == 0
