"""Rigid motions from vertex permutations, and the focal conics E and H.

World frame convention (fixed once, used everywhere):

  * the ellipse E lives in the {x, z} plane:   z^2 = (a^2-1)(1 - x^2/a^2)
  * the hyperboloid of revolution H lives in the {x, y, w} 3-space:
        y^2 + w^2 = (a^2-1)(x^2 - 1)        (only the x >= 1 sheet is used)
  * E has foci (+-1, 0, 0, 0); H has foci (+-a, 0, 0, 0); each focus lies on
    the other quadric, which is the focal property driving the construction.

The canonical simplex vertices in this frame are

    p1 = ( x1, 0,       z1, 0)        p4 = (x0, -y0/2, 0, -(sqrt3/2) y0)
    p2 = ( x1, 0,      -z1, 0)        p5 = (x0, -y0/2, 0, +(sqrt3/2) y0)
    p3 = ( x0, y0,       0, 0)

with p1, p2 on E and p3, p4, p5 on H.

E and H are the only quadrics, and both are fixed by a^2 alone, so they are
plain functions of the ModelConstants c: ``ellipse_point`` and
``hyperboloid_point`` parametrize them, ``ellipse_residual`` and
``hyperboloid_residual`` evaluate their equations.  Every skeleton face is a
piece of E or H moved by its generator motion, so a face's points are tested
against E or H after mapping them back through that motion's inverse.
"""

import math
from dataclasses import dataclass

import numpy as np


class DegenerateSimplex(Exception):
    """Vertex set does not span 4-space; the aligning motion is not unique."""


class OutOfDomain(Exception):
    """Parameter outside a conic's parametrization domain."""


def as_vec4(p):
    """Any length-4 array-like as a float ndarray."""
    a = np.asarray(p, dtype=float)
    if a.shape != (4,):
        raise ValueError(f"expected a 4-vector, got shape {a.shape}")
    return a


def as_points(p):
    """A 4-vector or a (..., 4) batch of them as a float ndarray."""
    a = np.asarray(p, dtype=float)
    if a.ndim == 0 or a.shape[-1] != 4:
        raise ValueError(f"expected 4-vectors, got shape {a.shape}")
    return a


# ============================================================================
# rigid motions
# ============================================================================

@dataclass(frozen=True)
class Isometry4:
    """Rigid motion x -> linear @ x + translation of R^4.

    linear must be orthogonal (to 1e-12 per entry) with determinant +-1;
    reflections are deliberately allowed, since odd vertex permutations of
    the simplex realize them.
    """

    linear: np.ndarray
    translation: np.ndarray

    def __post_init__(self):
        L = np.asarray(self.linear, dtype=float)
        t = np.asarray(self.translation, dtype=float)
        if L.shape != (4, 4) or t.shape != (4,):
            raise ValueError("linear must be 4x4 and translation a 4-vector")
        if np.max(np.abs(L.T @ L - np.eye(4))) > 1e-12:
            raise ValueError("linear part is not orthogonal to 1e-12")
        if abs(abs(np.linalg.det(L)) - 1.0) > 1e-12:
            raise ValueError("determinant must be +-1")
        object.__setattr__(self, "linear", L)
        object.__setattr__(self, "translation", t)

    @staticmethod
    def identity():
        return Isometry4(np.eye(4), np.zeros(4))

    def apply(self, pts):
        """Apply to a 4-vector or a (..., 4) batch; einsum, unlike BLAS,
        moves a point to the same bits alone as in a batch."""
        a = np.asarray(pts, dtype=float)
        return np.einsum("...j,ij->...i", a, self.linear) + self.translation

    def compose(self, other):
        """Motion equal to: first apply `other`, then self."""
        return Isometry4(self.linear @ other.linear,
                         self.linear @ other.translation + self.translation)

    def inverse(self):
        Lt = self.linear.T
        return Isometry4(Lt, -Lt @ self.translation)

    def det(self):
        return float(np.linalg.det(self.linear))


def simplex_vertices(mc):
    """The canonical vertex matrix, shape (5, 4), rows p1..p5 (see module doc)."""
    x0, x1, y0, z1 = mc.x0, mc.x1, mc.y0, mc.z1
    return np.array([
        [x1, 0.0, z1, 0.0],
        [x1, 0.0, -z1, 0.0],
        [x0, y0, 0.0, 0.0],
        [x0, -0.5 * y0, 0.0, -z1],
        [x0, -0.5 * y0, 0.0, z1],
    ])


def isometry_from_vertex_permutation(vertices, perm):
    """Rigid motion sending vertex i to vertex perm(i) for a regular simplex.

    Args:
        vertices: (5, 4) array of regular-simplex vertices.
        perm: sequence of 5 integers, a permutation of 1..5; vertex k is
            mapped to vertex perm[k-1].

    Solved as an orthogonal alignment of the centroid-centered vertex sets
    (polar factor of the cross-covariance).  For a regular simplex this is
    exact up to roundoff; the motion fixes the centroid.

    Raises DegenerateSimplex when the centered vertex matrix has rank < 4.
    """
    V = np.asarray(vertices, dtype=float)
    if V.shape != (5, 4):
        raise ValueError("need exactly five 4-dimensional vertices")
    p = list(perm)
    if sorted(p) != [1, 2, 3, 4, 5]:
        raise ValueError(f"not a permutation of 1..5: {perm}")

    g = V.mean(axis=0)
    X = V - g                       # source, centered
    Y = V[[k - 1 for k in p]] - g   # target: row i must be the image of row i

    M = Y.T @ X                     # cross-covariance, maps source to target
    U, s, Vt = np.linalg.svd(M)
    if s[-1] <= 1e-8 * s[0]:
        raise DegenerateSimplex("centered vertices do not span 4-space")
    L = U @ Vt                      # nearest orthogonal matrix; det may be -1
    return Isometry4(L, g - L @ g)


# ============================================================================
# the focal conics E and H
# ============================================================================

def ellipse_residual(c, p):
    """Residual z^2 - (a^2-1)(1 - x^2/a^2) of E's equation, one per point.

    c is the ModelConstants and p a world point (4,) or a batch (..., 4).
    Zero where (x, z) lies on the ellipse; a point of E also has y = w = 0
    (the {x, z} carrier plane).
    """
    x, y, z, w = np.moveaxis(as_points(p), -1, 0)
    k = c.a_sq - 1.0
    return z * z - k * (1.0 - x * x / c.a_sq)


def hyperboloid_residual(c, p):
    """Residual y^2 + w^2 - (a^2-1)(x^2 - 1) of H's equation, one per point.

    c is the ModelConstants and p a world point (4,) or a batch (..., 4).
    Zero where (x, y, w) lies on the hyperboloid; a point of H also has
    z = 0 (the {x, y, w} carrier space).
    """
    x, y, z, w = np.moveaxis(as_points(p), -1, 0)
    k = c.a_sq - 1.0
    return y * y + w * w - k * (x * x - 1.0)


def _point(*coords):
    # (..., 4) points from broadcast coordinates; + 0.0 writes -0.0 as +0.0
    return np.stack(np.broadcast_arrays(*coords), axis=-1) + 0.0


def ellipse_point(c, t):
    """Points of E at eccentric angles t, for the ModelConstants c.

    t is a number or an array; the result has shape t.shape + (4,).  t = 0
    is the vertex on the +x axis.
    """
    t = np.asarray(t, dtype=float)
    if not np.all(np.isfinite(t)):
        raise OutOfDomain(f"bad eccentric angle {t}")
    return _point(math.sqrt(c.a_sq) * np.cos(t), 0.0,
                  math.sqrt(c.a_sq - 1.0) * np.sin(t), 0.0)


def hyperboloid_point(c, x, theta):
    """Points of the right sheet of H, for the ModelConstants c.

    The sheet is parametrized by the axial coordinate x >= 1 and the
    revolution angle theta, numbers or arrays that broadcast together; the
    result has their broadcast shape + (4,).  The radius of the circle at
    height x is rho = sqrt((a^2-1)(x^2-1)).
    """
    x, theta = np.asarray(x, dtype=float), np.asarray(theta, dtype=float)
    if not (np.all(np.isfinite(x)) and np.all(np.isfinite(theta))):
        raise OutOfDomain(f"bad parameters x={x}, theta={theta}")
    if np.any(x < 1.0):
        raise OutOfDomain(f"x={x} is left of the sheet vertex (right sheet only)")
    rho = np.sqrt((c.a_sq - 1.0) * (x * x - 1.0))
    return _point(x, rho * np.cos(theta), 0.0, rho * np.sin(theta))
