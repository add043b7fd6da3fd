"""Vorticity distributions omega(tau) and their antiderivatives.

A distribution assigns the scalar vorticity omega to each value tau of the
stream function. The solvers only ever need five things from it:

    omega(tau)               pointwise values (vectorised)
    antiderivative(tau)      Omega(tau) = integral of omega from 0 to tau
    derivative(tau)          omega'(tau), one-sided at kinks
    sup_derivative()         ess sup of omega' over the real line
    inf_omega_nonpositive()  a lower bound of omega over tau <= 0

Four families are provided. "constant", "linear" and "quadratic_truncated"
carry closed-form antiderivatives; "tabulated" interpolates node data
piecewise linearly with constant extension outside the node range, and its
antiderivative is the exact integral of that interpolant.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidFamilyParams

__all__ = [
    "VorticityDistribution",
    "ConstantVorticity",
    "LinearVorticity",
    "QuadraticTruncatedVorticity",
    "TabulatedVorticity",
    "make_distribution",
]


class VorticityDistribution:
    """Common interface of all vorticity families."""

    family = "abstract"

    def omega(self, tau):
        raise NotImplementedError

    def antiderivative(self, tau):
        raise NotImplementedError

    def derivative(self, tau):
        raise NotImplementedError

    def sup_derivative(self) -> float:
        """ess sup of omega' over the real line (signed)."""
        raise NotImplementedError

    def inf_omega_nonpositive(self) -> float:
        """A lower bound of omega on (-inf, 0]: -inf, the safe answer, for
        a family that knows no better one."""
        return -math.inf


@dataclass(frozen=True)
class ConstantVorticity(VorticityDistribution):
    b: float

    family = "constant"

    # omega and derivative answer a float tau (Python or NumPy) without
    # the array round trip: the IVP right-hand sides call them every step
    def omega(self, tau):
        if isinstance(tau, float):
            return float(self.b)
        return np.full_like(np.asarray(tau, dtype=float), self.b)[()]

    def antiderivative(self, tau):
        return self.b * np.asarray(tau, dtype=float)[()]

    def derivative(self, tau):
        if isinstance(tau, float):
            return 0.0
        return np.zeros_like(np.asarray(tau, dtype=float))[()]

    def sup_derivative(self) -> float:
        return 0.0

    def inf_omega_nonpositive(self) -> float:
        return float(self.b)


@dataclass(frozen=True)
class LinearVorticity(VorticityDistribution):
    b: float

    family = "linear"

    # a float tau takes the fast path, as for ConstantVorticity
    def omega(self, tau):
        if isinstance(tau, float):
            return self.b * tau
        return self.b * np.asarray(tau, dtype=float)[()]

    def antiderivative(self, tau):
        t = np.asarray(tau, dtype=float)
        return (0.5 * self.b * t * t)[()]

    def derivative(self, tau):
        if isinstance(tau, float):
            return float(self.b)
        return np.full_like(np.asarray(tau, dtype=float), self.b)[()]

    def sup_derivative(self) -> float:
        return self.b


@dataclass(frozen=True)
class QuadraticTruncatedVorticity(VorticityDistribution):
    """omega(tau) = b tau^2 on [-R, R], frozen at b R^2 outside.

    The truncation keeps omega globally Lipschitz; R > 1 guarantees the
    quadratic law holds on the whole range [0, 1] the stream function
    takes between bed and surface.
    """

    b: float
    R: float

    family = "quadratic_truncated"

    def __post_init__(self):
        if not self.b > 0:
            raise InvalidFamilyParams(
                f"quadratic_truncated requires b > 0, got b={self.b}")
        if not self.R > 1:
            raise InvalidFamilyParams(
                f"quadratic_truncated requires R > 1, got R={self.R}")

    def omega(self, tau):
        t = np.asarray(tau, dtype=float)
        return (self.b * np.minimum(np.abs(t), self.R) ** 2)[()]

    def antiderivative(self, tau):
        t = np.asarray(tau, dtype=float)
        core = self.b * np.clip(t, -self.R, self.R) ** 3 / 3.0
        over = self.b * self.R ** 2 * np.maximum(np.abs(t) - self.R, 0.0)
        return (core + np.sign(t) * over)[()]

    def derivative(self, tau):
        t = np.asarray(tau, dtype=float)
        return np.where(np.abs(t) <= self.R, 2.0 * self.b * t, 0.0)[()]

    def sup_derivative(self) -> float:
        return 2.0 * self.b * self.R

    def inf_omega_nonpositive(self) -> float:
        return 0.0  # b > 0


@dataclass(frozen=True, eq=False)
class TabulatedVorticity(VorticityDistribution):
    """Piecewise-linear interpolant of (node, value) data.

    Outside the node range omega is extended by its endpoint values, so the
    antiderivative grows linearly there. The cumulative integral at the
    nodes is the exact trapezoid sum, which is exact for this interpolant.
    """

    nodes: np.ndarray
    values: np.ndarray
    _cum: np.ndarray = field(init=False, repr=False, compare=False)

    family = "tabulated"

    def __post_init__(self):
        nodes = np.asarray(self.nodes, dtype=float)
        values = np.asarray(self.values, dtype=float)
        if nodes.ndim != 1 or nodes.size < 2:
            raise InvalidFamilyParams("tabulated needs at least two nodes")
        if values.shape != nodes.shape:
            raise InvalidFamilyParams("nodes and values must have equal length")
        if not np.all(np.diff(nodes) > 0):
            raise InvalidFamilyParams("nodes must be strictly increasing")
        if not (np.all(np.isfinite(nodes)) and np.all(np.isfinite(values))):
            raise InvalidFamilyParams("nodes and values must be finite")
        with np.errstate(over="ignore"):
            slopes = np.diff(values) / np.diff(nodes)
        if not np.all(np.isfinite(slopes)):
            raise InvalidFamilyParams(
                "nodes too close for their values: a slope overflows")
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "values", values)
        cum = np.concatenate(
            ([0.0], np.cumsum(np.diff(nodes) * 0.5 * (values[1:] + values[:-1]))))
        object.__setattr__(self, "_cum", cum)

    def omega(self, tau):
        t = np.asarray(tau, dtype=float)
        return np.interp(t, self.nodes, self.values)[()]

    def _raw_antiderivative(self, t):
        # integral of the interpolant from nodes[0] to t
        x, v, cum = self.nodes, self.values, self._cum
        idx = np.clip(np.searchsorted(x, t, side="right") - 1, 0, x.size - 2)
        x0, x1 = x[idx], x[idx + 1]
        v0, v1 = v[idx], v[idx + 1]
        dt = np.clip(t, x[0], x[-1]) - x0
        slope = (v1 - v0) / (x1 - x0)
        inside = cum[idx] + v0 * dt + 0.5 * slope * dt * dt
        below = v[0] * np.minimum(t - x[0], 0.0)
        above = v[-1] * np.maximum(t - x[-1], 0.0)
        return inside + below + above

    def antiderivative(self, tau):
        t = np.asarray(tau, dtype=float)
        # shift so the antiderivative vanishes at tau = 0
        return (self._raw_antiderivative(t) - self._raw_antiderivative(np.asarray(0.0)))[()]

    def derivative(self, tau):
        t = np.asarray(tau, dtype=float)
        x, v = self.nodes, self.values
        idx = np.clip(np.searchsorted(x, t, side="right") - 1, 0, x.size - 2)
        slope = (v[idx + 1] - v[idx]) / (x[idx + 1] - x[idx])
        outside = (t < x[0]) | (t > x[-1])
        return np.where(outside, 0.0, slope)[()]

    def sup_derivative(self) -> float:
        # constant extension outside the nodes contributes slope 0
        slopes = np.diff(self.values) / np.diff(self.nodes)
        return float(max(np.max(slopes), 0.0))

    def inf_omega_nonpositive(self) -> float:
        # the interpolant is linear between nodes and constant left of
        # them, so its least value on (-inf, 0] sits at a node there or at 0
        return float(np.min(np.append(self.values[self.nodes <= 0.0],
                                      self.omega(0.0))))


_FAMILIES = {
    "constant": ConstantVorticity,
    "linear": LinearVorticity,
    "quadratic_truncated": QuadraticTruncatedVorticity,
    "tabulated": TabulatedVorticity,
}


def _is_number(v) -> bool:
    """A finite int or float, not a bool: the test every numeric value
    read from JSON must pass."""
    return (isinstance(v, (int, float)) and not isinstance(v, bool)
            and math.isfinite(v))


def make_distribution(spec: dict) -> VorticityDistribution:
    """Build a distribution from a JSON-style mapping.

    Examples: {"family": "constant", "b": 2.0},
    {"family": "quadratic_truncated", "b": 1.5, "R": 1.1},
    {"family": "tabulated", "nodes": [...], "values": [...]}.
    Every parameter must be a finite number (not a bool), and tabulated
    nodes and values lists of them; anything else raises
    InvalidFamilyParams.
    """
    if not isinstance(spec, dict) or "family" not in spec:
        raise InvalidFamilyParams("distribution spec must be a mapping with a 'family' key")
    spec = dict(spec)
    name = spec.pop("family", None)
    if name not in _FAMILIES:
        raise InvalidFamilyParams(
            f"unknown family {name!r}; expected one of {sorted(_FAMILIES)}")
    for key, v in spec.items():
        if name == "tabulated" and key in ("nodes", "values"):
            if not (isinstance(v, (list, tuple)) and all(map(_is_number, v))):
                raise InvalidFamilyParams(
                    f"family {name!r}: {key!r} must be a list of finite "
                    f"numbers, got {v!r}")
        elif not _is_number(v):
            raise InvalidFamilyParams(
                f"family {name!r}: {key!r} must be a finite number, got {v!r}")
    try:
        return _FAMILIES[name](**spec)
    except TypeError as exc:
        raise InvalidFamilyParams(f"bad parameters for family {name!r}: {exc}") from exc
