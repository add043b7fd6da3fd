"""Stream (shear) solutions of U'' + omega(U) = 0, U(0) = 0, U'(0) = s.

These are the x-independent flows of the water-wave problem: U is the
stream function of a unidirectional shear current over a flat bed, s its
slope at the bed. Multiplying the equation by U' and integrating gives the
first integral

    U'(y)^2 + 2 Omega(U(y)) = s^2,     Omega(tau) = int_0^tau omega,

so a flow whose free surface (where U = 1) is still, meaning U' vanishes
there, must start with the critical slope s0 = sqrt(2 max_[0,1] Omega),
and the maximum must sit at tau = 1. The least depth of such a flow is

    h0 = int_0^1 dtau / sqrt(s0^2 - 2 Omega(tau)),

finite exactly when omega does not vanish at the maximiser. When the rise
is preceded by a finite monotonicity interval (y_minus > -infinity the
flow is periodic in y) reflections generate a whole ladder of still
depths; otherwise h0 is the only one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple, Optional

import numpy as np
from scipy.integrate import solve_ivp
from scipy.optimize import minimize_scalar

from .errors import (DivergentDepth, NonIntegrable, NoStillSolution, NotStill,
                     StepFailure)
from .special import SingularIntegrandSpec, singular_quadrature
from .vorticity import VorticityDistribution

__all__ = [
    "StreamProfile",
    "StreamSolution",
    "CriticalSpeed",
    "solve_cauchy",
    "critical_surface_speed",
    "least_still_depth",
    "monotone_interval_lower",
    "still_depth_family",
    "shear_solution",
    "INTEGRATOR_RTOL",
    "INTEGRATOR_ATOL",
    "STILLNESS_TOL",
    "SURFACE_VALUE_TOL",
    "SURFACE_SPEED_TOL",
]

INTEGRATOR_RTOL = 1e-10
INTEGRATOR_ATOL = 1e-12
# |s0^2 - 2 Omega(1)| below this counts as a still configuration
STILLNESS_TOL = 1e-10
# |U(h) - 1| allowed for a validated family member
SURFACE_VALUE_TOL = 1e-8
# |U'(h)| below this flags the surface as still
SURFACE_SPEED_TOL = 1e-7
# |omega| below this counts as vanishing at the maximiser
_VORTICITY_ZERO_TOL = 1e-12


@dataclass
class StreamProfile:
    """Dense solution of the bed Cauchy problem for one slope s."""

    s: float
    U_values: np.ndarray
    Uy_values: np.ndarray
    _dense: object = field(repr=False)

    def U(self, y):
        return self._dense(y)[0]

    def Uy(self, y):
        return self._dense(y)[1]

    def first_integral_defect(self, dist: VorticityDistribution) -> float:
        """sup over the solver nodes of |U'(y)^2 + 2 Omega(U) - s^2|."""
        e = self.Uy_values ** 2 + 2.0 * dist.antiderivative(self.U_values) - self.s ** 2
        return float(np.max(np.abs(e)))


@dataclass
class StreamSolution:
    """A stream flow cut at a depth where the surface condition U = 1 holds."""

    profile: StreamProfile
    depth: float
    surface_speed: float
    still: bool
    branch: Optional[tuple] = None  # (sign, k) for family members

    def U(self, y):
        return self.profile.U(y)

    def Uy(self, y):
        return self.profile.Uy(y)


class CriticalSpeed(NamedTuple):
    speed: float
    maximiser: float
    degenerate: bool


def _cauchy_rhs(dist: VorticityDistribution):
    """U'' = -omega(U) as a first-order system in (U, U')."""
    def rhs(y, st):
        return (st[1], -float(dist.omega(st[0])))
    return rhs


def _turning_event(terminal: bool = False):
    """Event function of the system above that fires where U' vanishes."""
    def turning(y, st):
        return st[1]
    turning.terminal = terminal
    return turning


def _integrate(dist: VorticityDistribution, s: float, y_end: float,
               **options):
    """solve_ivp of the system above from (U, U') = (0, s) at the bed to
    y_end. A step that overflows is the integrator's to reject or report
    as a failure, so numpy's floating-point warnings are silenced here."""
    with np.errstate(over="ignore", invalid="ignore"):
        return solve_ivp(_cauchy_rhs(dist), (0.0, y_end), (0.0, float(s)),
                         method="DOP853", rtol=INTEGRATOR_RTOL,
                         atol=INTEGRATOR_ATOL, **options)


def solve_cauchy(dist: VorticityDistribution, s: float,
                 y_max: float) -> StreamProfile:
    """Integrate U'' = -omega(U) from the bed with dense output.

    y_max may be negative (integration toward negative y).
    """
    sol = _integrate(dist, s, y_max, dense_output=True)
    if not sol.success:
        raise StepFailure(f"integrator failed on [0, {y_max}]: {sol.message}")
    return StreamProfile(s=float(s), U_values=sol.y[0],
                         Uy_values=sol.y[1], _dense=sol.sol)


def critical_surface_speed(dist: VorticityDistribution) -> CriticalSpeed:
    """Locate max of the antiderivative over [0, 1] and the slope it buys.

    The critical slope is sqrt(2 max Omega); a flow started below it turns
    before reaching the surface value 1. Ties between maximisers resolve
    toward the largest, so a maximum attained at tau = 1 is reported
    there. degenerate flags an antiderivative that is identically zero
    (omega vanishes on [0, 1]); the maximiser is arbitrary then.
    """
    grid = np.linspace(0.0, 1.0, 2001)
    vals = np.asarray(dist.antiderivative(grid), dtype=float)
    degenerate = float(vals.max() - vals.min()) < 1e-15

    candidates = [(0.0, float(vals[0])), (1.0, float(vals[-1]))]
    interior = np.flatnonzero((vals[1:-1] >= vals[:-2]) & (vals[1:-1] >= vals[2:])) + 1
    if interior.size:
        # refine only the best few local maxima
        best = interior[np.argsort(vals[interior])[::-1][:16]]
        for i in best:
            res = minimize_scalar(lambda t: -float(dist.antiderivative(t)),
                                  bounds=(grid[i - 1], grid[i + 1]),
                                  method="bounded",
                                  options={"xatol": 1e-13})
            candidates.append((float(res.x), float(-res.fun)))

    vbest = max(v for _, v in candidates)
    tie = 1e-13 * max(1.0, abs(vbest))
    tau0 = max(t for t, v in candidates if v >= vbest - tie)
    s0 = math.sqrt(2.0 * max(vbest, 0.0))
    return CriticalSpeed(speed=s0, maximiser=tau0, degenerate=degenerate)


def least_still_depth(dist: VorticityDistribution) -> float:
    """Depth of the monotone still rise, by singular quadrature.

    The integrand 1 / sqrt(s0^2 - 2 Omega) has a square-root singularity
    at tau = 1, and also at tau = 0 when the flow rises from rest (zero
    critical slope); both are mapped out by singular_quadrature. Raises
    NotStill when the antiderivative maximiser sits below 1 and
    DivergentDepth when omega vanishes there (the integral diverges).
    """
    crit = critical_surface_speed(dist)
    omega1 = float(dist.antiderivative(1.0))
    if abs(crit.speed ** 2 - 2.0 * omega1) > STILLNESS_TOL:
        raise NotStill(
            f"antiderivative maximum sits at tau={crit.maximiser:.8g}, not at 1; "
            "the monotone rise turns before the surface value")
    if abs(float(dist.omega(1.0))) < _VORTICITY_ZERO_TOL:
        raise DivergentDepth(
            "omega(1) = 0 at the antiderivative maximiser; depth integral diverges")

    # enforce exact stillness inside the integrand so the square root sees
    # a clean double zero at tau = 1
    s0sq = 2.0 * omega1
    from_rest = crit.speed < 1e-8

    def smooth(tau):
        den = s0sq - 2.0 * float(dist.antiderivative(tau))
        if den <= 0.0:
            return math.inf
        return math.sqrt((tau if from_rest else 1.0) * (1.0 - tau) / den)

    spec = SingularIntegrandSpec(
        smooth, left_exponent=-0.5 if from_rest else 0.0, right_exponent=-0.5)
    try:
        return singular_quadrature(spec, 0.0, 1.0)
    except NonIntegrable as exc:
        raise DivergentDepth(f"depth integral diverges: {exc}") from exc


def monotone_interval_lower(dist: VorticityDistribution, s0: float,
                            horizon: float) -> float:
    """Largest y < 0 where U'(y; s0) vanishes, or -inf if none is found
    in [-|horizon|, 0); still_depth_family passes 100 still depths. A
    zero s0 gives 0, since the rise then starts from rest at the bed."""
    if s0 < 1e-13:
        return 0.0
    sol = _integrate(dist, s0, -abs(horizon),
                     events=(_turning_event(terminal=True),))
    if not sol.success:
        raise StepFailure(f"backward integration failed: {sol.message}")
    if sol.t_events[0].size:
        return float(sol.t_events[0][0])
    return -math.inf


def _cut(dist, s, depth, branch=None) -> StreamSolution:
    """The flow of bed slope s cut at depth: its profile integrated to
    1.1 depth + 1, U_y(depth) and whether that makes the surface still."""
    profile = solve_cauchy(dist, s, 1.1 * depth + 1.0)
    uy_h = float(profile.Uy(depth))
    return StreamSolution(profile=profile, depth=float(depth),
                          surface_speed=uy_h,
                          still=abs(uy_h) <= SURFACE_SPEED_TOL, branch=branch)


def _validated_member(dist, s, depth, sign, k) -> StreamSolution:
    sol = _cut(dist, s, depth, (sign, k))
    u_h = float(sol.U(depth))
    if abs(u_h - 1.0) > SURFACE_VALUE_TOL:
        raise StepFailure(
            f"family member ({sign}, {k}) failed validation: U({depth:.8g}) = {u_h:.12g}")
    return sol


def still_depth_family(dist: VorticityDistribution, k_max: int = 0) -> list:
    """All still-surface stream solutions up to the k_max-th reflections.

    When the monotone interval is bounded below the flow is periodic in y
    and each k in 0..k_max contributes two depths, one per sign of the bed
    slope; otherwise only the least depth exists. Members come back sorted
    by depth, each validated against U(h) = 1 and U'(h) = 0.

    The zero-critical-slope case (the bed slope vanishes and omega(0) < 0
    starts the rise from rest) is enumerated from the same reflection
    formula with y_minus = 0; this branch is experimental and only engages
    for a genuine oscillation.
    """
    if k_max < 0:
        raise ValueError("k_max must be nonnegative")
    crit = critical_surface_speed(dist)
    if crit.degenerate:
        raise NoStillSolution(
            "omega vanishes identically on [0, 1]; the flow never reaches the surface value")
    try:
        h0 = least_still_depth(dist)
    except (NotStill, DivergentDepth) as exc:
        raise NoStillSolution(str(exc)) from exc

    s0 = crit.speed
    members = []
    if s0 < 1e-13:
        if not float(dist.omega(0.0)) < 0.0:
            raise NoStillSolution(
                "critical slope is zero and omega(0) >= 0: the flow cannot rise from rest")
        for k in range(k_max + 1):
            members.append(_validated_member(dist, 0.0, (2 * k + 1) * h0, "+", k))
    else:
        y_minus = monotone_interval_lower(dist, s0, horizon=100.0 * h0)
        if y_minus == -math.inf:
            members.append(_validated_member(dist, s0, h0, "+", 0))
        else:
            for k in range(k_max + 1):
                h_plus = h0 + 2.0 * k * (h0 - y_minus)
                h_minus = h_plus - 2.0 * y_minus
                members.append(_validated_member(dist, s0, h_plus, "+", k))
                members.append(_validated_member(dist, -s0, h_minus, "-", k))

    members.sort(key=lambda m: m.depth)
    return members


def shear_solution(dist: VorticityDistribution, s: float) -> StreamSolution:
    """First depth at which the flow with bed slope s takes the value 1.

    Works for both transversal crossings (moving surface) and tangential
    arrivals (still surface). The search runs to y = 10, then 100, then
    1000. Raises ValueError when the flow provably oscillates below 1 or
    exhausts the search limit, and StepFailure when the integrator fails
    before the flow reaches 1.
    """

    def reach(y, st):
        return st[0] - 1.0

    for Y in (10.0, 100.0, 1000.0):
        sol = _integrate(dist, s, Y, dense_output=True,
                         events=(reach, _turning_event()))
        candidates = [float(t) for t in sol.t_events[0] if t > 1e-12]
        for t in sol.t_events[1]:
            if t > 1e-12 and abs(float(sol.sol(t)[0]) - 1.0) <= 1e-6:
                candidates.append(float(t))
        if candidates:
            return _cut(dist, s, min(candidates))
        if not sol.success:
            raise StepFailure(f"integrator failed on [0, {Y}]: {sol.message}")
        if sol.t_events[1].size >= 2:
            # completed at least half a period without touching 1
            top = float(np.max(sol.y[0]))
            if top < 1.0 - 1e-6:
                raise ValueError(
                    f"flow oscillates below the surface value (max U = {top:.6g})")
    raise ValueError("surface value 1 not reached within the search limit")
