"""Focal-distance identities and Steiner-chain radius laws.

Two facts carry the whole construction:

  * the four-point identity: for a_e, b_e on the ellipse and a_h, b_h on one
    sheet of the hyperboloid,  a_e a_h + b_e b_h = a_h b_e + a_e b_h
    (distances between ellipse and hyperboloid points);
  * its two-point specialization obtained by substituting the two exchanged
    foci (the hyperboloid focus lies on the ellipse and vice versa):
        a_e a_h - a_h f_h - a_e f_e = -(f_h f_e),
    i.e. pairing each running point with its own curve's near focus yields a
    constant, -(sqrt(3/2) - 1) for the canonical pair.

The Steiner chains are kept implicit: a chain is its center locus (the arc
E12 or the patch H345) together with the radius law

    R_y = r_S+  - |y - f_e|   (circles inside S+, outside S-),
    Rx  = r_HS+ - |x - f_h|   (balls inside the sphere about f_h through C),

and the two laws interlock through the constant-sum identity
|x - y| + Rx + R_y = 2 z1, which is what makes the ball envelopes meet at
distance exactly 2 z1.  Both laws are the one function ``chain_radius``;
the skeleton faces evaluate it about their transported foci.

Every function here that needs the configuration (the base domains E12 and
H345, their cut planes, the foci, the radius laws) takes the
``ModelConstants`` ``c`` as an explicit argument, so it serves any a^2 > 1,
just as E and H are functions of ``c`` in ``geometry``.  Every point
argument is a 4-vector or a (..., 4) batch: the functions broadcast their
point arguments together and return one value per point, and a domain
exception is raised when any point is out of its domain.
"""

import functools
import math

import numpy as np

from .geometry import (
    as_points,
    ellipse_residual,
    hyperboloid_residual,
    simplex_vertices,
)


class NotSameComponent(Exception):
    """The two hyperboloid points lie on different sheets."""


class WrongComponent(Exception):
    """The hyperboloid point is on the sheet not used by the construction."""


class OffArc(Exception):
    """Point is not on the edge arc E12 (within tolerance)."""


class OffPatch(Exception):
    """Point is not on the triangle patch H345 (within tolerance)."""


_S5 = math.sqrt(5.0)
_S3 = math.sqrt(3.0)


@functools.lru_cache(maxsize=8)
def patch_cut_planes(c):
    """The three planes bounding the triangle patch H345, as (normal, point).

    Each plane is spanned by an edge line of the vertex triangle and the
    dual axis line through that edge's midpoint and the opposite barycenter;
    it contains the corresponding boundary arc of the patch.  The normals
    point to the inside of the patch.  The {4,5} normal comes from the dual
    axis direction (2/3, sqrt5/3, 0, 0) -- a direction independent of the
    ellipse parameter -- and the other two are its images under the 2pi/3
    revolution that cycles p3 -> p5 -> p4.  Cached per ModelConstants, as
    the membership tests below run thousands of times on the same
    constants; callers share the arrays and must not write to them.
    """
    v = simplex_vertices(c)
    return (
        (np.array([-_S5, 2.0, 0.0, 0.0]) / 3.0, 0.5 * (v[3] + v[4])),
        (np.array([-_S5, -1.0, 0.0, _S3]) / 3.0, 0.5 * (v[2] + v[3])),
        (np.array([-_S5, -1.0, 0.0, -_S3]) / 3.0, 0.5 * (v[2] + v[4])),
    )


def base_arc_contains(y, c, tol=1e-9):
    """True where y lies on the edge arc E12 (the x >= x1 piece of E)."""
    v = as_points(y)
    return ((np.abs(ellipse_residual(c, v)) <= tol)
            & (np.hypot(v[..., 1], v[..., 3]) <= tol) & (v[..., 0] >= c.x1 - tol))


def base_patch_contains(x, c, tol=1e-9):
    """True where x lies on the triangle patch H345.

    The patch is the part of the right sheet of H cut out by the three
    boundary-arc planes; its corners are p3, p4, p5 and it contains the
    sheet vertex (1, 0, 0, 0).
    """
    v = as_points(x)
    inside = ((np.abs(hyperboloid_residual(c, v)) <= tol)
              & (np.abs(v[..., 2]) <= tol) & (v[..., 0] >= 1.0 - tol))
    for n, p in patch_cut_planes(c):
        inside &= (v - p) @ n >= -tol
    return inside


def sheet_sign(p):
    """+1 / -1 for the right / left sheet of H, judged by the x-coordinate."""
    return np.where(as_points(p)[..., 0] >= 0.0, 1, -1)


# ============================================================================
# residual oracles and radius laws
# ============================================================================

def _dist(p, q):
    return np.linalg.norm(p - q, axis=-1)


def focal_sum_residual(a_e, b_e, a_h, b_h):
    """Residual of the four-point identity.

    Returns (a_e a_h + b_e b_h) - (a_h b_e + a_e b_h); at most ~1e-10 in
    magnitude when a_e, b_e lie on an ellipse and a_h, b_h on a hyperboloid
    focal to it.  a_h and b_h must lie on the same sheet.
    """
    va_e, vb_e = as_points(a_e), as_points(b_e)
    va_h, vb_h = as_points(a_h), as_points(b_h)
    if np.any(sheet_sign(va_h) != sheet_sign(vb_h)):
        raise NotSameComponent("a_h and b_h lie on different sheets")
    lhs = _dist(va_e, va_h) + _dist(vb_e, vb_h)
    rhs = _dist(va_h, vb_e) + _dist(va_e, vb_h)
    return lhs - rhs


def focal_const_residual(c, a_e, a_h):
    """Residual of the two-point constant identity on E and H.

    Evaluates  a_e a_h - a_h f_h - a_e f_e + f_h f_e  where f_e = (focus_e,
    0, 0, 0) and f_h = (focus_h, 0, 0, 0) are the near foci of E and H for
    the ModelConstants c (each point is paired with its own curve's focus --
    the pairing produced by substituting the exchanged foci into the
    four-point identity, and the one its proof actually uses).  Zero up to
    roundoff for points of E and H; a_h must be on the near sheet.
    """
    va_e, va_h = as_points(a_e), as_points(a_h)
    if np.any(sheet_sign(va_h) < 0):
        raise WrongComponent("a_h is on the far sheet")
    f_e, f_h = _on_axis(c.focus_e), _on_axis(c.focus_h)
    return (_dist(va_e, va_h) - _dist(va_h, f_h) - _dist(va_e, f_e)
            + _dist(f_h, f_e))


def chain_radius(r_splus, focus, p):
    """The chain radius law r_S+ - |p - f| at a center p or a (..., 4) batch.

    focus is the near focus f as a 4-vector and r_splus the radius of the
    tangent circle/sphere S+ about it.
    """
    return r_splus - np.linalg.norm(np.asarray(p, dtype=float) - focus, axis=-1)


def _on_axis(x):
    return np.array([x, 0.0, 0.0, 0.0])


def steiner_radius_elliptic(c, y):
    """Radii R_y of the elliptic-chain circles centered at y on E12.

    R_y = r_S+ - |y - f_e|; nonnegative on the arc, zero at p1 and p2.
    """
    v = as_points(y)
    off = ~base_arc_contains(v, c)
    if np.any(off):
        raise OffArc(f"{v[off][0]} is not on the edge arc")
    return chain_radius(c.r_splus_e, _on_axis(c.focus_e), v)


def steiner_radius_hyperbolic(c, x):
    """Radii Rx of the hyperbolic-chain balls centered at x on H345.

    Rx = r_HS+ - |x - f_h|; nonnegative on the patch, zero exactly on the
    vertex circle C (in particular at p3, p4, p5).
    """
    v = as_points(x)
    off = ~base_patch_contains(v, c)
    if np.any(off):
        raise OffPatch(f"{v[off][0]} is not on the triangle patch")
    return chain_radius(c.r_splus_h, _on_axis(c.focus_h), v)


def interlock_residual(c, x, y):
    """Residual of the interlock identity (|x-y| + Rx + R_y) - 2 z1.

    x must lie on the patch H345 and y on the arc E12 (domain errors from
    the radius laws propagate).  Zero up to roundoff: this is the identity
    that gives the assembled body its constant width.
    """
    rx = steiner_radius_hyperbolic(c, x)
    ry = steiner_radius_elliptic(c, y)
    return _dist(as_points(x), as_points(y)) + rx + ry - c.width
