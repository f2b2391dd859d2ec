"""Model constants, tolerance policy, and the general-parameter embedding solver.

The whole construction is driven by a handful of algebraic numbers: the
coordinates (x0, y0) and (x1, z1) at which a regular 4-simplex can be placed
with three vertices on a hyperboloid of revolution and two on an ellipse, the
two quadrics being focal to each other.  ``compute_model_constants(a_sq)``
builds them for any a^2 > 1: from closed radical forms at the canonical
a^2 = 3/2, otherwise from ``solve_focal_embedding``, a bracketed root solve.

Everything here is pure and immutable.  ``ModelConstants`` is the only
carrier of a^2: every later layer takes it as an explicit argument, so one
code path serves the canonical body and its broken-closure controls alike.
"""

import math
from dataclasses import dataclass

from scipy.optimize import brentq


class NoConvergence(Exception):
    """Raised when the embedding root solve fails to bracket or converge."""


class UnknownKind(Exception):
    """Raised for a tolerance-policy lookup with an unrecognized check class."""


# Central tolerance policy.  Keep every default here so the verification
# suites stay auditable in one place.
_TOLERANCES = {
    "algebraic-identity": 1e-12,
    "geometric-residual": 1e-10,
    "sampled-width": 1e-3,
    "diameter": 1e-9,
}


def tolerance_policy(kind):
    """Default absolute tolerance for a class of checks.

    kind must be one of 'algebraic-identity', 'geometric-residual',
    'sampled-width', 'diameter'.
    """
    try:
        return _TOLERANCES[kind]
    except KeyError:
        raise UnknownKind(f"unknown check class: {kind!r}") from None


@dataclass(frozen=True)
class ModelConstants:
    """Scalar data of the focally embedded simplex configuration.

    a_sq        ellipse major-axis squared (3/2 for the canonical body)
    x0, x1      x-coordinates of the hyperboloid / ellipse vertices
    y0, z1      half-widths: vertex circle radius and half the body width
    width       2*z1, the constant width of the body
    focus_e     focal distance of the ellipse (foci at x = +-1)
    focus_h     focal distance of the hyperboloid (foci at x = +-a)
    r_splus_e   radius of the circle S+ about (focus_e, 0, 0, 0) through p1, p2
    r_splus_h   radius of the sphere about (focus_h, 0, 0, 0) through the
                vertex circle C
    """

    a_sq: float
    x0: float
    x1: float
    y0: float
    z1: float
    width: float
    focus_e: float
    focus_h: float
    r_splus_e: float
    r_splus_h: float


def compute_model_constants(a_sq=1.5):
    """ModelConstants for the ellipse parameter a_sq > 1.

    At the canonical a_sq = 3/2 every coordinate comes from an explicit
    radical, with no iteration; any other value goes through
    solve_focal_embedding.  The ellipse always has foci at +-1 and the
    hyperboloid at +-sqrt(a_sq).
    """
    if a_sq == 1.5:
        s10 = math.sqrt(10.0)
        x0 = math.sqrt((41.0 - 4.0 * s10) / 27.0)
        y0 = math.sqrt((7.0 - 2.0 * s10) / 27.0)
        x1 = math.sqrt((11.0 + 2.0 * s10) / 12.0)
        z1 = math.sqrt(3.0) / 2.0 * y0
    else:
        x0, x1, y0, z1 = solve_focal_embedding(a_sq)
    a = math.sqrt(a_sq)
    return ModelConstants(
        a_sq=a_sq,
        x0=x0,
        x1=x1,
        y0=y0,
        z1=z1,
        width=2.0 * z1,
        focus_e=1.0,
        focus_h=a,
        # distance from the ellipse focus to p1 = (x1, 0, z1, 0)
        r_splus_e=math.hypot(x1 - 1.0, z1),
        # distance from the hyperboloid focus to p3 = (x0, y0, 0, 0)
        r_splus_h=math.hypot(a - x0, y0),
    )


# the older name of compute_model_constants; some callers still import it
model_constants_for = compute_model_constants


def _edge_mismatch(t, a_sq):
    """Edge-equality residual as a function of t = x0^2.

    With x0 fixed, the on-quadric conditions force
        y0 = sqrt((a^2-1)(x0^2-1)),   z1 = (sqrt3/2) y0,
        x1^2 = a^2 (7 - 3 x0^2) / 4,
    and the remaining requirement (all simplex edges equal) reduces to
        x1 - x0 = (sqrt5/2) y0.
    This function returns the signed mismatch of that last equation; it is
    strictly increasing in t on the bracket, so a sign change pins the root.
    """
    a = math.sqrt(a_sq)
    x0 = math.sqrt(t)
    y0 = math.sqrt((a_sq - 1.0) * (t - 1.0))
    # 7 - 3 t > 0 is guaranteed by the bracket cap below
    x1 = a / 2.0 * math.sqrt(7.0 - 3.0 * t)
    return x0 + math.sqrt(5.0) / 2.0 * y0 - x1


def solve_focal_embedding(a_sq):
    """Solve the focal embedding for a general ellipse parameter a_sq > 1.

    Returns (x0, x1, y0, z1) such that the five points

        (x1, 0, +-z1, 0),  (x0, y0 cos(2 pi k/3), 0, y0 sin(2 pi k/3))

    form a regular 4-simplex with two vertices on the ellipse
    z^2 = (a^2-1)(1 - x^2/a^2) and three on the hyperboloid sheet
    y^2 + w^2 = (a^2-1)(x^2-1).

    Raises NoConvergence if the bracketing solve fails or the returned
    tuple does not satisfy the defining equations to 1e-12.
    """
    if not (a_sq > 1.0 and math.isfinite(a_sq)):
        raise ValueError(f"a_sq must be a finite number above 1, got {a_sq}")

    # Bracket t = x0^2 in (1, a^2); the sqrt(7 - 3t) factor additionally
    # requires t < 7/3, which matters once a^2 > 7/3.
    eps = 1e-13
    lo = 1.0 + eps
    hi = min(a_sq, 7.0 / 3.0) - eps
    try:
        f_lo = _edge_mismatch(lo, a_sq)
        f_hi = _edge_mismatch(hi, a_sq)
        if not (f_lo < 0.0 < f_hi):
            raise NoConvergence(
                f"no sign change for a_sq={a_sq}: F({lo})={f_lo}, F({hi})={f_hi}"
            )
        t = brentq(_edge_mismatch, lo, hi, args=(a_sq,), xtol=1e-15, rtol=8.9e-16)
    except NoConvergence:
        raise
    except Exception as exc:  # scipy signals failures as ValueError/RuntimeError
        raise NoConvergence(f"root solve failed for a_sq={a_sq}: {exc}") from exc

    x0 = math.sqrt(t)
    y0 = math.sqrt((a_sq - 1.0) * (t - 1.0))
    x1 = x0 + math.sqrt(5.0) / 2.0 * y0
    z1 = math.sqrt(3.0) / 2.0 * y0

    # defining residuals: both quadric memberships, the equilateral ratio,
    # and the edge-length equation
    r_ell = z1 * z1 - (a_sq - 1.0) * (1.0 - x1 * x1 / a_sq)
    r_hyp = y0 * y0 - (a_sq - 1.0) * (x0 * x0 - 1.0)
    r_ratio = z1 - math.sqrt(3.0) / 2.0 * y0
    r_edge = math.sqrt((x1 - x0) ** 2 + y0 * y0 + z1 * z1) - 2.0 * z1
    worst = max(abs(r_ell), abs(r_hyp), abs(r_ratio), abs(r_edge))
    if not worst <= 1e-12:
        raise NoConvergence(f"residual {worst:.3e} exceeds 1e-12 for a_sq={a_sq}")
    return x0, x1, y0, z1
