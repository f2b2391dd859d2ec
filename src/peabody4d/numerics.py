"""Model constants, tolerance policy, and the closed-form focal embedding.

The whole construction is driven by a handful of algebraic numbers: the
coordinates (x0, y0) and (x1, z1) at which a regular 4-simplex can be placed
with three vertices on a hyperboloid of revolution and two on an ellipse, the
two quadrics being focal to each other.  ``compute_model_constants(a_sq)``
builds them for any a^2 > 1 from one closed form, ``solve_focal_embedding``,
with no iteration and no special case for the canonical a^2 = 3/2.

Everything here is pure and immutable.  ``ModelConstants`` is the only
carrier of a^2: every later layer takes it as an explicit argument, so one
code path serves the canonical body and its broken-closure controls alike.
"""

import math
from dataclasses import dataclass


class NoConvergence(Exception):
    """Raised when the embedding misses its defining equations."""


class UnknownKind(Exception):
    """Raised for a tolerance-policy lookup with an unrecognized check class."""


# Central tolerance policy.  Keep every default here so the verification
# suites stay auditable in one place.
_TOLERANCES = {
    "algebraic-identity": 1e-12,
    "geometric-residual": 1e-10,
    "diameter": 1e-9,
}


def tolerance_policy(kind):
    """Default absolute tolerance for a class of checks.

    kind must be one of 'algebraic-identity', 'geometric-residual',
    'diameter'.
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

    The coordinates come from solve_focal_embedding for every a_sq.  The
    ellipse always has foci at +-1 and the hyperboloid at +-sqrt(a_sq).
    """
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


def solve_focal_embedding(a_sq):
    """The focal embedding for a general ellipse parameter a_sq > 1.

    Returns (x0, x1, y0, z1) such that the five points

        (x1, 0, +-z1, 0),  (x0, y0 cos(2 pi k/3), 0, y0 sin(2 pi k/3))

    form a regular 4-simplex with two vertices on the ellipse
    z^2 = (a^2-1)(1 - x^2/a^2) and three on the hyperboloid sheet
    y^2 + w^2 = (a^2-1)(x^2-1).

    With u = x0^2 - 1 the quadrics give y0^2 = (a^2-1) u and
    x1^2 = a^2 (1 - 3u/4).  Squaring x1 = x0 + (sqrt5/2) y0 twice leaves a
    quadratic in u whose small root is u = 4(a^2-1)/D with
    D = 8a^2 + 4 sqrt15 a + 9, so y0 = 2(a^2-1)/sqrt(D).

    Raises NoConvergence if the returned tuple does not satisfy the
    defining equations to 1e-12, as happens in doubles above a_sq ~ 1e4.
    """
    if not (a_sq > 1.0 and math.isfinite(a_sq)):
        raise ValueError(f"a_sq must be a finite number above 1, got {a_sq}")

    a = math.sqrt(a_sq)
    d = 8.0 * a_sq + 4.0 * math.sqrt(15.0) * a + 9.0
    x0 = math.sqrt(1.0 + 4.0 * (a_sq - 1.0) / d)
    y0 = 2.0 * (a_sq - 1.0) / math.sqrt(d)
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
