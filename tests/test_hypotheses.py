"""Applicability of the nonexistence conditions across families.

Linear vorticity b tau with b > 0 is the sharp case: depth pi / (2 sqrt(b))
gives a Dirichlet bound of 4b against sup omega' = b, so the first family
member passes with margin 3b while every reflection fails. The
piecewise-linear profile 2 tau - 1 lands exactly on the boundary.
"""

import dataclasses
import math

import numpy as np
import pytest

from stillwave.hypotheses import MARGIN_TOL, check_hypotheses
from stillwave.stream import shear_solution, still_depth_family
from stillwave.vorticity import (ConstantVorticity, LinearVorticity,
                                 QuadraticTruncatedVorticity,
                                 TabulatedVorticity)


class TestLinearFamilies:
    @pytest.mark.parametrize("b", [0.5, 1.0, 2.0])
    def test_only_first_depth_applicable(self, b):
        dist = LinearVorticity(b=b)
        members = still_depth_family(dist, k_max=1)
        verdicts = [check_hypotheses(dist, m, slope_bound=1.0).applicable
                    for m in members]
        assert verdicts == [True, False, False, False]

    def test_margin_closed_form(self):
        dist = LinearVorticity(b=1.0)
        m0 = still_depth_family(dist, k_max=0)[0]
        rep = check_hypotheses(dist, m0, slope_bound=1.0)
        # (pi / (pi/2))^2 - 1 = 3
        assert rep.margin == pytest.approx(3.0, abs=1e-8)
        assert rep.dirichlet_bound == pytest.approx(4.0, abs=1e-8)
        assert rep.sup_derivative == 1.0


class TestOtherFamilies:
    def test_constant_always_applicable_at_first_depth(self):
        dist = ConstantVorticity(b=2.0)
        m = still_depth_family(dist)[0]
        rep = check_hypotheses(dist, m, slope_bound=1.0)
        # omega' = 0 beats any positive bound
        assert rep.sup_derivative == 0.0
        assert rep.applicable
        assert rep.margin == pytest.approx(np.pi ** 2, abs=1e-8)

    def test_quadratic_truncated(self):
        dist = QuadraticTruncatedVorticity(b=1.5, R=1.1)
        m = still_depth_family(dist)[0]
        rep = check_hypotheses(dist, m, slope_bound=1.0)
        assert rep.sup_derivative == pytest.approx(3.3, abs=1e-12)
        assert rep.applicable
        assert rep.margin > 1.0

    def test_hat_margin_exactly_on_boundary(self):
        # depth pi/sqrt(2) gives bound 2 = sup omega': zero margin fails
        dist = TabulatedVorticity(nodes=(0.0, 1.0), values=(-1.0, 1.0))
        m = still_depth_family(dist)[0]
        rep = check_hypotheses(dist, m, slope_bound=1.0)
        assert abs(rep.margin) < 1e-8
        assert not rep.applicable
        assert any("margin" in n for n in rep.notes)


class TestReportMechanics:
    def test_moving_surface_not_applicable(self):
        dist = ConstantVorticity(b=-1.0)
        sol = shear_solution(dist, s=0.0)
        rep = check_hypotheses(dist, sol, slope_bound=1.0)
        assert not rep.still_flow
        assert not rep.applicable
        assert any("not still" in n for n in rep.notes)

    def test_slope_bound_validation(self):
        dist = ConstantVorticity(b=2.0)
        m = still_depth_family(dist)[0]
        for bad in (0.0, -1.0):
            with pytest.raises(ValueError):
                check_hypotheses(dist, m, slope_bound=bad)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_slope_bound_rejected(self, bad):
        # nan <= 0 is False, so a positivity test alone lets nan through
        dist = ConstantVorticity(b=2.0)
        m = still_depth_family(dist)[0]
        with pytest.raises(ValueError, match="positive finite number"):
            check_hypotheses(dist, m, slope_bound=bad)

    def test_asdict_round_trip(self):
        dist = LinearVorticity(b=1.0)
        m = still_depth_family(dist)[0]
        rep = check_hypotheses(dist, m, slope_bound=0.5)
        d = dataclasses.asdict(rep)
        assert d["applicable"] is True
        assert d["slope_bound"] == 0.5
        assert isinstance(d["notes"], list)
        assert math.isfinite(d["margin"])
