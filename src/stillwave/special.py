"""Singular endpoint quadrature and the incomplete elliptic integral.

The depth integrals this package needs look like

    I = int_a^b f(x) (x-a)^alpha (b-x)^beta dx,   -1 < alpha, beta <= 0,

with f evaluable and smooth on the open interval. Substituting
x = a + sigma^p with p = 1/(1+alpha) absorbs the endpoint weight and the
Jacobian into a constant factor p, so each half becomes a smooth integral
that an adaptive Gauss-Kronrod rule finishes at full accuracy. For a
square-root endpoint (alpha = -1/2) this is exactly the x = a + sigma^2
substitution; for a regular endpoint it is the identity. Divergence hiding
inside f (an endpoint where the true exponent is -1 or worse) shows up as
growth of the transformed integrand as sigma -> 0 and is reported instead
of silently returning a large number.

elliptic_F(phi, alpha) is the incomplete elliptic integral of the first
kind in the modular-angle convention,

    F(phi \\ alpha) = int_0^phi dtheta / sqrt(1 - sin^2(alpha) sin^2(theta)),

which is scipy's ellipkinc at the parameter m = sin^2(alpha). Angles are
radians. quad and ellipkinc are imported inside the functions that call
them: scipy.integrate and scipy.special load only with a quadrature or an
elliptic_F call, never with the package.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import NonIntegrable, OutOfDomain

__all__ = ["SingularIntegrandSpec", "singular_quadrature", "elliptic_F"]

# growth of the transformed integrand across one probe decade that flags a
# non-integrable endpoint; honest integrands stay bounded there
_GROWTH_RATIO = 3.0


@dataclass(frozen=True)
class SingularIntegrandSpec:
    """Integrand f(x) (x-a)^alpha (b-x)^beta with f smooth on (a, b).

    The exponents describe the algebraic endpoint weights; both must lie in
    (-1, 0] for the integral to exist.
    """

    smooth_part: Callable[[float], float]
    left_exponent: float = 0.0
    right_exponent: float = 0.0

    def __post_init__(self):
        for name, e in (("left_exponent", self.left_exponent),
                        ("right_exponent", self.right_exponent)):
            if not (-1.0 < e <= 0.0):
                raise OutOfDomain(f"{name} must lie in (-1, 0], got {e}")


def _half_integral(f, a, b, expo, other_expo, span, tol, from_left):
    """Integrate over half the interval with the singular end mapped out.

    from_left=True covers [a, a+span] with x = a + sigma^p; otherwise
    [b-span, b] with x = b - sigma^p, where p = 1/(1+expo). The weight
    (distance to the mapped endpoint)^expo times the Jacobian reduces to
    the constant p, so the sigma integrand is smooth when the declared
    exponent is honest.
    """
    from scipy.integrate import IntegrationWarning, quad

    p = 1.0 / (1.0 + expo)
    smax = span ** (1.0 + expo)
    width = b - a
    # end + (-1.0) * step rounds exactly as end - step
    end, sign = (a, 1.0) if from_left else (b, -1.0)

    def g(sigma):
        step = sigma ** p
        return p * f(end + sign * step) * (width - step) ** other_expo

    _check_endpoint_growth(g, smax, p)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", IntegrationWarning)
        val, err = quad(g, 0.0, smax, epsabs=0.5 * tol, epsrel=1e-12, limit=200)
    if not math.isfinite(val) or err > max(tol, 1e-12 * abs(val)):
        raise NonIntegrable(
            f"quadrature failed to reach tolerance (estimate {err:.3e})")
    return val


def _check_endpoint_growth(g, smax, p):
    """Probe g along a geometric sequence of sigma; sustained growth means
    the true singularity is stronger than the declared one."""
    # keep sigma^p above ~1e-12 * span so the mapped abscissa stays
    # distinguishable from the endpoint in double precision
    decades = min(6.0, 12.0 / p)
    fracs = np.logspace(-1.0, -decades, num=max(4, int(decades) + 1))
    samples = []
    for frac in fracs:
        try:
            val = g(frac * smax)
        except (ZeroDivisionError, OverflowError, ValueError):
            raise NonIntegrable("integrand not evaluable near endpoint")
        if not math.isfinite(val):
            raise NonIntegrable("integrand diverges at endpoint faster than declared")
        samples.append(abs(val))
    growing = 0
    for lo, hi in zip(samples, samples[1:]):
        if hi > _GROWTH_RATIO * max(lo, 1e-300):
            growing += 1
        else:
            growing = 0
        if growing >= 2:
            raise NonIntegrable(
                "transformed integrand grows toward the endpoint; "
                "integral diverges for the declared exponent")


def singular_quadrature(spec: SingularIntegrandSpec, a: float,
                        b: float) -> float:
    """Integrate spec over [a, b] to absolute accuracy 1e-12.

    Raises NonIntegrable when the integrand's true endpoint behaviour is
    stronger than the declared exponents.
    """
    if not b > a:
        raise OutOfDomain(f"need b > a, got [{a}, {b}]")
    f = spec.smooth_part
    half = 0.5 * (b - a)
    left = _half_integral(f, a, b, spec.left_exponent, spec.right_exponent,
                          half, 0.5e-12, from_left=True)
    right = _half_integral(f, a, b, spec.right_exponent, spec.left_exponent,
                           half, 0.5e-12, from_left=False)
    return left + right


def elliptic_F(phi: float, alpha: float) -> float:
    """Incomplete elliptic integral of the first kind, modular angle form:
    ellipkinc(phi, sin(alpha)^2).

    phi in [0, pi/2], alpha in [0, pi/2), both in radians.
    """
    from scipy.special import ellipkinc

    if not (0.0 <= phi <= math.pi / 2.0 + 1e-15):
        raise OutOfDomain(f"phi must lie in [0, pi/2], got {phi}")
    if not (0.0 <= alpha < math.pi / 2.0):
        raise OutOfDomain(f"alpha must lie in [0, pi/2), got {alpha}")
    if phi < 1e-8:
        # F = phi + sin(alpha)^2 phi^3 / 6 + O(phi^5); ellipkinc rounds a
        # subnormal phi to less than phi
        return phi * (1.0 + math.sin(alpha) ** 2 * phi * phi / 6.0)
    return float(ellipkinc(phi, math.sin(alpha) ** 2))
