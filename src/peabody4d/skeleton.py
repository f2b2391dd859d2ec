"""The embedded simplex, its 120 symmetries, and the curved 2-skeleton.

The skeleton replaces the flat 2-skeleton of the regular 4-simplex by twenty
curved faces: each edge p_i p_j is replaced by an ellipse arc E_ij (the
subarc of a transported copy of E between the two vertices, bulging away
from the simplex), and each triangle p_i p_j p_k by a hyperboloid patch
H_ijk (a curvilinear triangle on a transported copy of H).  All twenty are
images of the two base faces E_12 and H_345 under the symmetry group, which
is why the whole skeleton inherits the S5 symmetry of the simplex.

The crucial closure fact (special to a^2 = 3/2) is that the rotation taking
p1 -> p4, p2 -> p5 and fixing p3 maps E_12 onto the boundary curve that the
{4,5} cut plane carves out of the *base* hyperboloid -- the transported arcs
lie on H itself, so patch boundaries and edge arcs agree.
"""

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .focal import (
    OffArc,
    base_arc_contains,
    base_patch_contains,
    chain_radius,
    patch_cut_planes,
)
from .geometry import (
    Isometry4,
    as_points,
    as_vec4,
    ellipse_point,
    hyperboloid_point,
    hyperboloid_residual,
    isometry_from_vertex_permutation,
    simplex_vertices,
)

_LABELS_EDGE = tuple(itertools.combinations(range(1, 6), 2))
_LABELS_TRI = tuple(itertools.combinations(range(1, 6), 3))
_ALL_PERMS = tuple(itertools.permutations(range(1, 6)))  # lexicographic


def dual_label(label):
    """The complementary label: {i,j} <-> {k,l,m} within {1..5}."""
    return tuple(k for k in range(1, 6) if k not in label)


@dataclass(frozen=True)
class Line4:
    """A straight line, stored as a point and a unit direction."""

    point: np.ndarray
    direction: np.ndarray

    def distance_to(self, p):
        d = as_vec4(p) - self.point
        return float(np.linalg.norm(d - (d @ self.direction) * self.direction))


@dataclass(frozen=True)
class Simplex4:
    """The focally embedded regular 4-simplex plus its derived anchors.

    vertices     (5, 4), rows p1..p5
    midpoints    {(i, j): p_ij}
    barycenters  {(i, j, k): p_ijk}
    centroid     g, on the x-axis
    axes         {(i, j): line through p_ij and the complementary barycenter}
    """

    vertices: np.ndarray
    midpoints: dict
    barycenters: dict
    centroid: np.ndarray
    axes: dict


def build_simplex(c):
    """Build the canonical Simplex4 from model constants and validate it."""
    V = simplex_vertices(c)
    edges = [np.linalg.norm(V[i] - V[j]) for i, j in itertools.combinations(range(5), 2)]
    if max(edges) - min(edges) > 1e-12:
        raise ValueError(f"edge spread {max(edges) - min(edges):.3e} too large")
    if max(abs(e - c.width) for e in edges) > 1e-12:
        raise ValueError("edges do not have length 2 z1")

    mid = {(i, j): 0.5 * (V[i - 1] + V[j - 1]) for i, j in _LABELS_EDGE}
    bary = {t: (V[t[0] - 1] + V[t[1] - 1] + V[t[2] - 1]) / 3.0 for t in _LABELS_TRI}
    g = V.mean(axis=0)
    axes = {}
    for i, j in _LABELS_EDGE:
        other = bary[dual_label((i, j))]
        d = other - mid[(i, j)]
        axes[(i, j)] = Line4(mid[(i, j)], d / np.linalg.norm(d))
    return Simplex4(vertices=V, midpoints=mid,
                    barycenters=bary, centroid=g, axes=axes)


def build_symmetry_group(s):
    """All 120 motions realizing vertex permutations, in lexicographic order.

    Index k corresponds to the k-th permutation of (1,2,3,4,5) in
    lexicographic order, so callers can map permutations to motions.
    """
    return [isometry_from_vertex_permutation(s.vertices, p) for p in _ALL_PERMS]


# ============================================================================
# base-face sampling in parameter space
# ============================================================================

def base_arc_axes(c):
    """Semi-axes (a, b) of the base ellipse and the eccentric angle t1 of p1.

    E_12 is the arc (a cos t, 0, b sin t, 0) for t in [-t1, t1].
    """
    a = math.sqrt(c.a_sq)
    return a, math.sqrt(c.a_sq - 1.0), math.acos(c.x1 / a)


def base_arc_points(c, n):
    """n points of E_12 at symmetric eccentric angles (endpoints included)."""
    t1 = base_arc_axes(c)[2]
    return ellipse_point(c, np.linspace(-t1, t1, n))


def base_patch_grid_params(c, nx, ntheta):
    """Clipped (x, theta) grid of the base patch: (params (N, 2), points (N, 4)).

    The product grid over [1, x0] x [0, 2pi) is clipped to the patch by
    base_patch_contains.  ntheta should be divisible by 3 so the grid is
    exactly invariant under the patch's own dihedral symmetry -- that makes
    transported face samples agree across group motions to roundoff instead
    of to grid resolution.
    """
    X = np.repeat(np.linspace(1.0, c.x0, nx), ntheta)
    T = np.tile(2.0 * math.pi * np.arange(ntheta) / ntheta, nx)
    pts = hyperboloid_point(c, X, T)
    keep = base_patch_contains(pts, c)
    return np.column_stack([X, T])[keep], pts[keep]


def base_patch_grid(c, nx, ntheta):
    """Grid samples of the base patch H345, shape (N, 4)."""
    return base_patch_grid_params(c, nx, ntheta)[1]


def base_patch_rim(c, theta):
    """s = acosh x of the base patch boundary at revolution angles theta.

    For theta in [2pi/3, 4pi/3] the boundary is the {4,5} cut, where
    sqrt5 cosh s - 2 sqrt(a^2-1) cos(theta) sinh s = sqrt5 x0 + y0: a
    quadratic in e^s whose larger root is the rim.  The other two arcs are
    its images under the 2pi/3 revolution, so theta is first reduced to its
    offset from the nearest arc midpoint (theta = pi/3, pi, 5pi/3).
    """
    cos_t = -np.cos(np.mod(theta, 2.0 * math.pi / 3.0) - math.pi / 3.0)
    k, r5 = math.sqrt(c.a_sq - 1.0), math.sqrt(5.0)
    rhs = r5 * c.x0 + c.y0
    alpha, beta = 0.5 * r5 - k * cos_t, 0.5 * r5 + k * cos_t
    return np.log((rhs + np.sqrt(rhs * rhs - 4.0 * alpha * beta)) / (2.0 * alpha))


def base_patch_mesh(c, ns, ntheta):
    """Triangle mesh of the base patch H345 on a structured (s, theta) grid.

    Row k of ns (k = 1..ns-1) holds the points at s = (k / (ns - 1)) times
    base_patch_rim(theta) for ntheta angles 2 pi j / ntheta; row 0 is the
    sheet vertex alone.  The last row lies on the cut planes, so every
    boundary arc is covered, with the corners at j = 0, ntheta/3, 2 ntheta/3
    when ntheta is divisible by 3.  Returns the points (N, 4), the triangles
    (F, 3) as point indices (a fan around the vertex, then two per grid
    cell) and the indices of the last row.
    """
    theta = 2.0 * math.pi * np.arange(ntheta) / ntheta
    S = np.arange(1, ns)[:, None] / (ns - 1) * base_patch_rim(c, theta)
    pts = np.vstack([[1.0, 0.0, 0.0, 0.0],
                     hyperboloid_point(c, np.cosh(S), theta).reshape(-1, 4)])
    j = np.arange(ntheta)

    def row(k, j):
        return 1 + (k - 1) * ntheta + j % ntheta
    tris = [np.column_stack([np.zeros(ntheta, dtype=int), row(1, j), row(1, j + 1)])]
    for k in range(1, ns - 1):
        tris += [np.column_stack([row(k, j), row(k + 1, j), row(k + 1, j + 1)]),
                 np.column_stack([row(k, j), row(k + 1, j + 1), row(k, j + 1)])]
    return pts, np.vstack(tris), row(ns - 1, j)


# ============================================================================
# skeleton faces
# ============================================================================

@dataclass(frozen=True)
class SkeletonFace:
    """One curved face of the skeleton: an edge arc or a triangle patch.

    label       sorted vertex tuple: (i, j) for an arc, (i, j, k) for a patch
    kind        'edge-arc' or 'triangle-patch'
    generator   motion taking the base face (E_12 or H_345) onto this face;
                the face lies on the base ellipse / hyperboloid moved by it
    focus_plus  transported near focus -- center of the tangent circle/sphere
    r_splus     radius of that tangent circle/sphere
    constants   the ModelConstants the skeleton was built from
    """

    label: tuple
    kind: str
    generator: Isometry4
    focus_plus: np.ndarray
    r_splus: float
    constants: object

    # ---- chain radius law -------------------------------------------------
    def radius(self, p):
        """Chain radius at center(s) p; works on a single point or (N, 4)."""
        return chain_radius(self.r_splus, self.focus_plus, p)

    # ---- membership -------------------------------------------------------
    def contains(self, p, tol=1e-9):
        """Membership of a point or (..., 4) batch, decided in the base frame."""
        v = self.generator.inverse().apply(as_points(p))
        if self.kind == "triangle-patch":
            return base_patch_contains(v, self.constants, tol)
        return base_arc_contains(v, self.constants, tol)

    # ---- sampling ---------------------------------------------------------
    def points(self, n):
        """n parameter-space samples for an arc face (world coordinates)."""
        if self.kind != "edge-arc":
            raise ValueError("points(n) is for arc faces; use grid_points")
        return self.generator.apply(base_arc_points(self.constants, n))

    def grid_points(self, nx, ntheta):
        """Clipped (x, theta) grid samples for a patch face (world coords)."""
        if self.kind != "triangle-patch":
            raise ValueError("grid_points is for patch faces; use points(n)")
        return self.generator.apply(base_patch_grid(self.constants, nx, ntheta))


@dataclass(frozen=True)
class FocalSkeleton:
    """The twenty curved faces plus the data they were built from."""

    constants: object
    simplex: Simplex4
    faces: list

    def face(self, label):
        return self._by_label[tuple(sorted(label))]

    def __post_init__(self):
        object.__setattr__(self, "_by_label", {f.label: f for f in self.faces})

    def edge_faces(self):
        return [f for f in self.faces if f.kind == "edge-arc"]

    def triangle_faces(self):
        return [f for f in self.faces if f.kind == "triangle-patch"]


def _lex_min_generator(group, base, target):
    """Motion of the lexicographically smallest permutation with
    perm(base) == target as sets."""
    bset, tset = set(base), set(target)
    for idx, perm in enumerate(_ALL_PERMS):
        if {perm[b - 1] for b in bset} == tset:
            return group[idx]
    raise ValueError(f"no permutation maps {base} to {target}")


def _make_face(label, c, gen):
    """The face with the given label, carried from its base face by gen."""
    if len(label) == 2:
        focus = gen.apply(np.array([c.focus_e, 0.0, 0.0, 0.0]))
        return SkeletonFace(label=label, kind="edge-arc", generator=gen,
                            focus_plus=focus, r_splus=c.r_splus_e, constants=c)
    focus = gen.apply(np.array([c.focus_h, 0.0, 0.0, 0.0]))
    return SkeletonFace(label=label, kind="triangle-patch", generator=gen,
                        focus_plus=focus, r_splus=c.r_splus_h, constants=c)


def build_focal_skeleton(c, s, group):
    """All twenty faces: ten edge arcs and ten triangle patches."""
    faces = [_make_face(lab, c, _lex_min_generator(group, base, lab))
             for base, labels in (((1, 2), _LABELS_EDGE),
                                  ((3, 4, 5), _LABELS_TRI))
             for lab in labels]
    return FocalSkeleton(constants=c, simplex=s, faces=faces)


# ============================================================================
# closure and consistency checks
# ============================================================================

def rotation_closure_check(c, s, n=200):
    """Residual of the closure fact Phi(E_12) = H ∩ (cut plane of {4,5}).

    Phi is the rotation fixing p3 with p1 -> p4, p2 -> p5.  Returns the
    maximum hyperboloid residual over n sampled image points plus their
    maximum out-of-plane distance from the {4,5} cut plane.  Small only for
    a^2 = 3/2; order 1e-4 already at a^2 = 1.4.
    """
    phi = isometry_from_vertex_permutation(s.vertices, (4, 5, 3, 1, 2))
    img = phi.apply(base_arc_points(c, n))
    res = np.max(np.abs(hyperboloid_residual(c, img)))
    nrm, p0 = patch_cut_planes(c)[0]
    in_carrier = (img - p0) @ nrm       # offset inside the {x,y,w} space
    out_carrier = img[:, 2]             # z component
    plane_dist = float(np.max(np.hypot(in_carrier, out_carrier)))
    return float(res) + plane_dist


def tangent_slopes(c, s):
    """Three routes to the arc tangent slope at a vertex; all equal -3 z1/x1.

    Returns (base, transported, gradient):
      base         slope of E's tangent at p1 against the z axis, in {x,z};
      transported  slope of the Phi-image tangent at p4 against the w axis,
                   measured in the (dual-axis, w) plane of the {4,5} cut;
      gradient     the same slope obtained only from the hyperboloid's
                   implicit gradient at p4 -- no motion involved.
    """
    a, b, t1 = base_arc_axes(c)
    v_e = np.array([-a * math.sin(t1), 0.0, b * math.cos(t1), 0.0])
    slope_base = v_e[0] / v_e[2]

    phi = isometry_from_vertex_permutation(s.vertices, (4, 5, 3, 1, 2))
    v_t = phi.linear @ v_e
    p45 = s.midpoints[(4, 5)]
    bary = s.barycenters[(1, 2, 3)]
    u_l = (bary - p45) / np.linalg.norm(bary - p45)
    w_hat = np.array([0.0, 0.0, 0.0, 1.0])
    if v_t @ w_hat < 0.0:
        v_t = -v_t
    slope_transported = float((v_t @ u_l) / (v_t @ w_hat))

    p4 = s.vertices[3]
    grad = np.array([-2.0 * (c.a_sq - 1.0) * p4[0], 2.0 * p4[1], 0.0, 2.0 * p4[3]])
    slope_gradient = float(-(w_hat @ grad) / (u_l @ grad))
    return float(slope_base), slope_transported, slope_gradient


def radius_consistency_residual(skeleton, x):
    """Difference of the two radius laws at points of E_45, (4,) or (..., 4).

    E_45 bounds the patch H_345 but also carries its own elliptic chain (as
    the edge arc of the dual pair with H_123).  The elliptic radius of that
    chain and the hyperbolic radius of the base H chain must agree -- this
    is what lets the wedge pieces assemble seamlessly.
    """
    face45 = skeleton.face((4, 5))
    v = as_points(x)
    off = ~face45.contains(v)
    if np.any(off):
        raise OffArc(f"{v[off][0]} is not on the arc between p4 and p5")
    c = skeleton.constants
    focus_h = np.array([c.focus_h, 0.0, 0.0, 0.0])
    return face45.radius(v) - chain_radius(c.r_splus_h, focus_h, v)
