"""Sufficient conditions under which small steady waves cannot ride a
still shear flow.

The check compares the supremum of omega' over [0, 1] against the lowest
Dirichlet eigenvalue (pi / h)^2 of -d^2/dy^2 on (0, h). When the flow is
still and the eigenvalue wins with positive margin, every wave of small
enough amplitude and slope must be the flat shear state itself, so a
perturbation sweep is expected to fall back to flat.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .stream import StreamSolution
from .vorticity import VorticityDistribution

__all__ = ["HypothesisReport", "check_hypotheses", "MARGIN_TOL"]

# margin below this counts as failing the spectral condition
MARGIN_TOL = 1e-12


@dataclass
class HypothesisReport:
    still_flow: bool
    depth: float
    sup_derivative: float
    dirichlet_bound: float
    margin: float
    slope_bound: float
    applicable: bool
    notes: list = field(default_factory=list)


def check_hypotheses(dist: VorticityDistribution, sol: StreamSolution,
                     slope_bound: float) -> HypothesisReport:
    """Evaluate the nonexistence hypotheses for one still stream solution.

    slope_bound, the caller's cap on surface slopes, must be positive and
    finite (ValueError otherwise); it is recorded, not used in the test.
    """
    if not 0.0 < slope_bound < math.inf:
        raise ValueError(f"slope_bound must be a positive finite number, "
                         f"got {slope_bound!r}")
    h = sol.depth
    mu = float(dist.sup_derivative())
    bound = (math.pi / h) ** 2
    margin = bound - mu

    notes = []
    if not sol.still:
        notes.append("surface speed is nonzero; the flow is not still")
    if margin <= MARGIN_TOL:
        notes.append(
            f"sup of omega' ({mu:.6g}) is not below the Dirichlet bound "
            f"({bound:.6g}) with margin")
    applicable = sol.still and margin > MARGIN_TOL
    if applicable:
        notes.append("hypotheses hold: small-amplitude waves must be flat")

    return HypothesisReport(still_flow=sol.still, depth=h, sup_derivative=mu,
                            dirichlet_bound=bound, margin=margin,
                            slope_bound=float(slope_bound),
                            applicable=applicable, notes=notes)
