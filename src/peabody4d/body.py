"""The ball-intersection model of the body, envelope maps, and width checks.

Two independent representations of the same body are kept in play:

  * the envelope maps phi1/phi2, which push dual-pair points (x, y), one
    pair or (..., 4) batches, outward along the line x-y by the chain radii
    -- their images are exact boundary points, and the pair (phi1, phi2) is
    always a binormal of length 2 z1;
  * an intersection of balls: one ball of radius 2 z1 around each vertex
    (their intersection alone is the Reuleaux simplex) and, for each grid
    sample c of each skeleton face, a ball of radius 2 z1 - r(c) where r is
    the face's chain radius.  A body of constant width w equals the
    intersection of all balls of radius w centered on its own boundary;
    since the chain spheres around skeleton points are internally tangent
    to the body, the shrunken balls above recover it, up to grid
    resolution.

Everything downstream cross-validates one representation against the
other: ray casts probe the ball model, phi samples must land on its
boundary, and boundary samples are classified by which ball is tight.
A population of samples is one BoundaryPopulation, its points and the
active ball of each, and the samplers yield populations block by block.
Ball slack, ray hits and the envelope step each have one array kernel
(_min_slack, _ray_hits, _envelope), in any dimension; a hyperplane slice
(slice_surface) runs the first two on the 3-balls in which the plane cuts
the model's balls, and a chord through the interior point (chord_lengths)
is two ray casts.  Slack and ray hits keep one value per row, so they
screen every (row, ball) pair with one float32 product per block of rows,
against a per-row threshold widened by a bound on the float32 error and
rounded outward, which keeps every ball that can attain the row's minimum.
An exact step then computes the survivors (np.flatnonzero) in float64 by
the direct formula and keeps each row's least value and first argmin
(_screened_min), so both return the all-ball direct formula bit for bit,
whatever the block partition.  _screened_min runs on a block engine
(_row_blocks): blocks of rows of about 2^19 (row, ball) cells, a 2 MB
float32 screen and a 0.5 MB mask, run by the calling thread and one pool
thread per other CPU this process may use, with results bit-identical for
any thread count.  Cap directions need no test at all: each is a positive
combination of a cap cone's axis and rim directions, drawn from the fan of
its rim mesh (_cap_cone, built once per model as BallModel.caps), so the
convex cone holds it by construction.  The package needs numpy alone.

A BallModel carries the skeleton it was built on, so every query of the
body (sampling, residuals, the cap cones) takes the model alone.

Labels for the 25 boundary pieces are digit strings: "2345"-style caps
(the spherical piece around the region antipodal to a vertex), "345"-style
triangle wedges (phi1 images over a patch), and "12"-style edge wedges
(phi2 images over an arc).  A ball centered on a patch is tight exactly at
phi2 points of the dual arc and vice versa, and a vertex ball is tight on
the opposite cap, so each ball carries the piece code of the face dual to
its own (BallModel.sample_face) and a sample's piece is its active ball's,
model.sample_face[pop.active]; a population stores no piece of its own.
"""

import functools
import itertools
import math
import os
import threading
from concurrent.futures import ThreadPoolExecutor, wait
from dataclasses import dataclass, field, fields

import numpy as np

from .focal import base_patch_contains
from .geometry import (
    as_points,
    as_vec4,
    ellipse_point,
    hyperboloid_point,
)
from .skeleton import (
    FocalSkeleton,
    base_arc_axes,
    base_arc_points,
    base_patch_grid_params,
    base_patch_mesh,
    dual_label,
)


class DomainError(Exception):
    """phi1/phi2 arguments are not a dual pair point configuration."""


class InteriorPointNotInterior(Exception):
    """The designated interior point is not strictly inside every ball."""


class UnclassifiedSample(Exception):
    """A piece label is unknown, or a sample sits at its active center."""


class TooFewSamples(Exception):
    """Not enough samples for the requested statistic."""


class NonConvexCap(Exception):
    """A cap's rim mesh is not a closed sphere fanned once around its axis."""


class EmptySlice(Exception):
    """The requested hyperplane does not meet the body."""


# the 25 piece labels (10 edge wedges, 10 triangle wedges, 5 caps); a
# population stores indices into this tuple
PIECE_LABELS = tuple(sorted("".join(map(str, t)) for k in (2, 3, 4)
                            for t in itertools.combinations(range(1, 6), k)))


def piece_code(label):
    """Index into PIECE_LABELS of a piece label, as a tuple such as (3, 4, 5)
    or a string such as "345" (UnclassifiedSample if there is no such piece)."""
    try:
        return PIECE_LABELS.index("".join(map(str, sorted(label))))
    except ValueError:
        raise UnclassifiedSample(f"unknown piece label {label!r}") from None


# ============================================================================
# array kernels
# ============================================================================

# the calling thread and one pool thread per other CPU this process may use
# run a call's blocks; the executor starts its threads on first use
_HELPERS = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1) - 1
_POOL = ThreadPoolExecutor(max(1, _HELPERS))
_GATHER_ROWS = 2 ** 13


def _block_rows(n_cols):
    """Rows per block, so that a block holds about 2^19 (row, ball) cells:
    a 2 MB float32 screen and a 0.5 MB mask."""
    return max(16, 2 ** 19 // max(1, n_cols))


def _row_blocks(run, n_rows, n_cols):
    """run(rows) on each block of rows, at most _block_rows(n_cols) of them.

    The calling thread and up to _HELPERS pool threads (one submit each,
    none for one block) take block starts from one lock-guarded hand-out
    (numpy and BLAS release the GIL); a block that writes only its own rows
    of a result makes it bit-identical for any thread count.  An exception
    in a block propagates once no block runs.
    """
    step = _block_rows(n_cols)
    starts, lock = iter(range(0, n_rows, step)), threading.Lock()

    def take():
        with lock:
            return next(starts, None)

    def drain():
        for start in iter(take, None):
            run(slice(start, start + step))

    helpers = [_POOL.submit(drain)
               for _ in range(min(_HELPERS, (n_rows - 1) // step))]
    try:
        drain()
    finally:
        # stop the hand-out; cancel unstarted helpers, await and read the rest
        starts = iter(())
        for f in wait([f for f in helpers if not f.cancel()]).done:
            f.result()


# unit roundoff of float32, the precision of the screening products
_U32 = 2.0 ** -24


def _screen_margin(k, size):
    """Bound on |computed - exact| for a float32 product of k terms whose
    |a_i| |b_i| sum to at most size: gamma_(k+3) size.  k roundings come
    from the product and two from rounding its operands to float32; the
    third covers the float64 steps and float32 underflow, each far below
    _U32 times size."""
    g = (k + 3) * _U32
    return g / (1.0 - g) * size


def _f32_down(x):
    """x as float32, rounded toward -inf."""
    y = x.astype(np.float32)
    return np.where(y > x, np.nextafter(y, np.float32(-np.inf)), y)


def _dot(X, Y):
    """Row-wise X . Y of two (n, d) arrays, summed in column order."""
    s = X[:, 0] * Y[:, 0]
    for i in range(1, X.shape[1]):
        s += X[:, i] * Y[:, i]
    return s


def _screened_min(screen, exact, n_rows, n_cols):
    """Row-wise min and first argmin of exact values, over screen survivors.

    screen(rows) returns a boolean (len(rows), n_cols) mask that holds every
    column able to attain its row's minimum, and one column per row that is
    kept whatever the mask says, so that no row comes out empty (a row of
    non-finite input keeps that column alone).
    exact(rows, r, c) returns the float64 values at local rows r and
    columns c, for at most _GATHER_ROWS survivors a call (a block's float64
    gathers).  The survivors come in row-major order, so a row's columns
    ascend and the least column attaining its minimum is the first argmin.
    """
    out = np.empty(n_rows)
    arg = np.empty(n_rows, dtype=np.intp)

    def run(rows):
        keep, ref = screen(rows)
        n = len(keep)
        keep[np.arange(n), ref] = True
        r, c = np.divmod(np.flatnonzero(keep), n_cols)
        v = np.empty(len(r))
        for i in range(0, len(r), _GATHER_ROWS):
            g = slice(i, i + _GATHER_ROWS)
            v[g] = exact(rows, r[g], c[g])
        at = np.searchsorted(r, np.arange(n))
        out[rows] = low = np.minimum.reduceat(v, at)
        # v > low is false at every survivor of a NaN row
        arg[rows] = np.minimum.reduceat(np.where(v > low[r], n_cols, c), at)

    _row_blocks(run, n_rows, n_cols)
    return out, arg


def _min_slack(C, R, P):
    """Smallest ball slack R - |p - c| per row p of P, and the first ball
    attaining it.

    Works in any dimension d.  Negative slack means outside some ball; zero
    means on a sphere.  Each value is the direct R - sqrt(sum (p - c)^2) in
    float64, computed only for the balls that a float32 screen keeps.  The
    screen reads e = (|p - c|^2 - R^2)/(2R) from one K = d + 2 product
    [q, |q|^2, 1] . [-c/R, 1/(2R), (|c|^2 - R^2)/(2R)], with q and c taken
    about the centers' mean.  The slack s of a ball has e = -s + s^2/(2R),
    which is at least -t + t^2/(2 R_max) whenever s <= t <= R_max.  So with
    t the exact slack at the row's largest e, every ball of slack at most t
    has e >= -t + t^2/(2 R_max), and the screen keeps e at or above that
    less m, _screen_margin's bound on the float32 error, rounded outward.
    """
    # the centers' mean as one BLAS pass: C.mean(axis=0) is several times
    # slower, and a one-row call pays it in full
    o = np.full(len(C), 1.0 / len(C)) @ C
    Co = C - o
    d = C.shape[1]
    c2 = np.einsum("ij,ij->i", Co, Co)
    E = np.empty((d + 2, len(C)), dtype=np.float32)
    np.divide(Co.T, -R, out=E[:d])
    E[d] = 0.5 / R
    E[d + 1] = (c2 - R * R) / (2.0 * R)
    # per row, sum |a_i| |b_i| <= |q| lead + |q|^2 quad + const
    lead, quad = np.max(np.sqrt(c2) / R), np.max(0.5 / R)
    const = np.max((c2 + R * R) / (2.0 * R))
    curve = 0.5 / np.max(R)

    Q = P - o
    q2 = np.einsum("ij,ij->i", Q, Q)
    A = np.column_stack([Q, q2, np.ones(len(Q))]).astype(np.float32)
    m = _screen_margin(d + 2, np.sqrt(q2) * lead + q2 * quad + const)

    def slack(rows, r, c):
        X = P[rows][r] - C[c]
        return R[c] - np.sqrt(_dot(X, X))

    def screen(rows):
        V = A[rows] @ E
        ref = np.argmax(V, axis=1)
        t = slack(rows, np.arange(len(V)), ref)
        return V >= _f32_down(t * (curve * t - 1.0) - m[rows])[:, None], ref
    return _screened_min(screen, slack, len(P), len(C))


# the balls whose least hit bounds every ray's screen: the first rows, a
# model's vertex balls.  They meet in the Reuleaux simplex, whose caps are
# the body's, so most rays end on one of them.
_BOUND_BALLS = 5


def _ray_hits(C, R, origin, U):
    """First sphere hit t along origin + t u per row u of U, and the first
    ball attaining it.

    Works in any dimension.  origin must lie strictly inside every ball, so
    each sphere has exactly one positive root t = b + sqrt(b^2 + c), with
    b = u.D, D = C - origin and c = R^2 - |D|^2, and the smallest is the
    exit.  Each value is that root in float64, computed only for the balls
    that a float32 screen keeps.  tau, the least exact hit over the first
    _BOUND_BALLS balls, bounds the row's minimum, and t <= tau exactly when
    2 tau u.D + c <= tau^2: one K = d + 1 product [tau u, 1] . [2 D, c],
    kept at or below tau^2 + m (_screen_margin), rounded outward.
    """
    D = C - origin
    d = C.shape[1]
    D2 = _dot(D, D)
    r2md2 = R * R - D2
    G = np.empty((d + 1, len(C)), dtype=np.float32)
    G[:d] = 2.0 * D.T
    G[d] = r2md2
    # per row, sum |a_i| |b_i| <= tau |u| reach + const
    reach, const = 2.0 * np.sqrt(np.max(D2)), np.max(R * R + D2)
    bound = np.arange(min(_BOUND_BALLS, len(C)))

    def hits(rows, r, c):
        b = _dot(U[rows][r], D[c])
        return b + np.sqrt(b * b + r2md2[c])

    n = len(U)
    t = hits(slice(None), np.repeat(np.arange(n), len(bound)),
             np.tile(bound, n)).reshape(n, len(bound))
    ref = np.argmin(t, axis=1)
    tau = t[np.arange(n), ref]
    A = np.column_stack([tau[:, None] * U, np.ones(n)]).astype(np.float32)
    m = _screen_margin(d + 1, tau * np.linalg.norm(U, axis=1) * reach + const)
    top = -_f32_down(-(tau * tau + m))[:, None]

    def screen(rows):
        return A[rows] @ G <= top[rows], ref[rows]
    return _screened_min(screen, hits, n, len(C))


# ============================================================================
# envelope maps
# ============================================================================

def _envelope(p, q, r):
    """p pushed away from q by r: p + (r / |p - q|) (p - q), row by row."""
    d = p - q
    return p + (r / np.linalg.norm(d, axis=-1))[..., None] * d


def _dual_pair_points(patch, arc, x, y):
    if patch.kind != "triangle-patch" or arc.kind != "edge-arc":
        raise DomainError("phi maps take (triangle-patch, edge-arc)")
    if set(patch.label) | set(arc.label) != {1, 2, 3, 4, 5}:
        raise DomainError(f"faces {patch.label} and {arc.label} are not dual")
    x, y = as_points(x), as_points(y)
    if not np.all(patch.contains(x, tol=1e-8)):
        raise DomainError("x is not on the patch")
    if not np.all(arc.contains(y, tol=1e-8)):
        raise DomainError("y is not on the arc")
    return x, y


def phi1(patch, arc, x, y):
    """Envelope points on the triangle-wedge side: x pushed away from y.

    x rides the patch, y the dual arc, each a point or a (..., 4) batch;
    the image is x + Rx * (x-y)/|x-y| with Rx the hyperbolic chain radius
    at x.  At a patch corner Rx = 0 and the map fixes x.
    """
    x, y = _dual_pair_points(patch, arc, x, y)
    return _envelope(x, y, patch.radius(x))


def phi2(patch, arc, x, y):
    """Envelope points on the edge-wedge side: y pushed away from x."""
    x, y = _dual_pair_points(patch, arc, x, y)
    return _envelope(y, x, arc.radius(y))


# ============================================================================
# the ball model
# ============================================================================

@dataclass(frozen=True)
class BallModel:
    """The body as an immutable intersection of balls on its skeleton.

    centers      (N, 4) ball centers: the 5 vertices first (rows 0-4,
                 vertex i in row i - 1), then grid samples of the 10 arcs,
                 then of the 10 patches
    radii        (N,) ball radii: 2 z1 for vertices, 2 z1 - r(c) else
    sample_face  (N,) int8 piece code (index into PIECE_LABELS) that a
                 boundary sample gets when this ball is the active one:
                 the face dual to the ball's own face, the cap opposite
                 for a vertex ball
    face_slices  skeleton face label (a tuple such as (1, 2)) -> slice of
                 the rows of that face's balls
    skeleton     the FocalSkeleton the balls were built on; the interior
                 point, the width and the caps are read from it

    A model made by dataclasses.replace (say, with scaled radii) keeps the
    skeleton, so its caps are the true ones.
    """

    centers: np.ndarray
    radii: np.ndarray
    sample_face: np.ndarray
    face_slices: dict
    # the skeleton's repr runs to some 80,000 characters
    skeleton: FocalSkeleton = field(repr=False)

    def __post_init__(self):
        slack, _ = self.min_slack(self.interior_point)
        if not slack >= 1e-6:
            raise InteriorPointNotInterior(f"centroid slack {slack:.3e}")

    @property
    def interior_point(self):
        """The simplex centroid g."""
        return self.skeleton.simplex.centroid

    @property
    def width(self):
        """2 z1."""
        return self.skeleton.constants.width

    @functools.cached_property
    def caps(self):
        """The five cap cones (_cap_cone), cap i at index i - 1, built on
        first use."""
        return tuple(_cap_cone(self.skeleton, i) for i in range(1, 6))

    def min_slack(self, pts):
        """Smallest ball slack rho(c) - |p - c| and its argmin, vectorized.

        Negative slack means outside the model; zero means on a sphere.
        """
        P = np.atleast_2d(np.asarray(pts, dtype=float))
        out, arg = _min_slack(self.centers, self.radii, P)
        if np.ndim(pts) == 1:
            return float(out[0]), int(arg[0])
        return out, arg


def build_ball_model(skeleton, patch_grid=(64, 96), arc_n=257):
    """Assemble the ball model from a skeleton at the given grid resolution.

    ntheta must be divisible by 3 and the arc grids are symmetric, so the
    center set is (up to roundoff) invariant under all 120 motions.  An odd
    arc_n makes each arc apex a grid node; the binormal from it to the
    sheet vertex of the dual patch is a diameter along a dual-pair axis, so
    the model's chords along those axes are the width to roundoff.
    """
    nx, ntheta = patch_grid
    if ntheta % 3 != 0:
        raise ValueError("ntheta must be divisible by 3")
    c = skeleton.constants
    V = skeleton.simplex.vertices
    w = c.width

    centers, radii = [V], [np.full(5, w)]
    codes = [np.array([piece_code(dual_label((i,))) for i in range(1, 6)])]
    face_slices = {}

    arc_base = base_arc_points(c, arc_n)
    patch_params, patch_base = base_patch_grid_params(c, nx, ntheta)
    # the x = 1 grid row collapses to the sheet vertex; keep one copy
    patch_base = patch_base[(patch_params[:, 0] > 1.0) | (patch_params[:, 1] == 0.0)]

    start = 5
    for face in skeleton.edge_faces() + skeleton.triangle_faces():
        base = arc_base if face.kind == "edge-arc" else patch_base
        pts = face.generator.apply(base)
        # drop centers that duplicate a vertex ball (arc endpoints, patch
        # corners): the copies differ by roundoff, and whichever wins the
        # ray-cast argmin would mislabel cap hits
        dv = np.min(np.linalg.norm(pts[:, None, :] - V[None, :, :], axis=2), axis=1)
        pts = pts[dv > 1e-12]
        centers.append(pts)
        radii.append(w - face.radius(pts))
        codes.append(np.full(len(pts), piece_code(dual_label(face.label))))
        face_slices[face.label] = slice(start, start + len(pts))
        start += len(pts)

    return BallModel(
        centers=np.concatenate(centers),
        radii=np.concatenate(radii),
        sample_face=np.concatenate(codes).astype(np.int8),
        face_slices=face_slices,
        skeleton=skeleton,
    )


# ============================================================================
# boundary populations
# ============================================================================

@dataclass(frozen=True)
class BoundaryPopulation:
    """Boundary samples as parallel arrays, one row per sample.

    points  (N, 4) boundary points
    active  (N,) index of the model ball that is tight at each point

    A sample's piece is its active ball's, model.sample_face[active] (an
    index into PIECE_LABELS).  A cap sample's direction is (p - c)/w with c
    its active vertex center and w the width; a ray sample's is
    (p - g)/|p - g| with g the interior point.  Slices, boolean masks and
    index arrays select rows; concat joins.
    """

    points: np.ndarray
    active: np.ndarray

    def __len__(self):
        return len(self.points)

    def __getitem__(self, index):
        return BoundaryPopulation(*(getattr(self, f.name)[index]
                                    for f in fields(self)))

    @classmethod
    def concat(cls, pops):
        return cls(*(np.concatenate([getattr(p, f.name) for p in pops])
                     for f in fields(cls)))


def unit_directions(rng, n):
    """n random unit 4-vectors, uniform on the sphere: the rows of
    rng.standard_normal((n, 4)), each divided by its norm."""
    U = rng.standard_normal((n, 4))
    U /= np.linalg.norm(U, axis=1)[:, None]
    return U


def _ray_cast_many(model, U):
    """Smallest positive sphere hit along g + t u for each row of U."""
    return _ray_hits(model.centers, model.radii, model.interior_point, U)


def chord_lengths(model, U):
    """Length t(u) + t(-u) of the model chord through the interior point
    along each row u of U: the sum of two ray casts."""
    return _ray_cast_many(model, U)[0] + _ray_cast_many(model, -U)[0]


def ray_cast_boundary(model, U):
    """Population of the boundary hits from the interior point along U.

    U is one unit direction (a one-sample population) or an (N, 4) array.
    """
    U = np.atleast_2d(np.asarray(U, dtype=float))
    if U.shape[1:] != (4,) or np.any(np.abs(np.linalg.norm(U, axis=1) - 1.0) > 1e-8):
        raise ValueError("directions must be unit 4-vectors")
    ts, args = _ray_cast_many(model, U)
    return BoundaryPopulation(model.interior_point + ts[:, None] * U, args)


# steps of the slice's start walk before the hyperplane counts as missing;
# planes 1e-2 to 3e-7 inside the support needed at most 19 steps at grid
# 16x24 (300 random normals) and 3 at 64x96 (100 normals)
_START_STEPS = 200


def _slice_start(C3, R3, q):
    """A point of 3-D slack above 1e-9 in every ball (C3, R3), walked from q.

    The slack q -> min_j (R_j - |q - C_j|) is concave.  Each step projects q
    onto its most violated ball (_min_slack), shrunk by 1e-8; after
    _START_STEPS steps the balls count as disjoint (EmptySlice).
    """
    for _ in range(_START_STEPS):
        (s,), (j,) = _min_slack(C3, R3, q[None])
        if s > 1e-9:
            return q
        D = q - C3[j]
        q = C3[j] + ((R3[j] - 1e-8) / np.sqrt(np.einsum("i,i->", D, D))) * D
    raise EmptySlice("hyperplane misses the body")


def _uv_sphere(res):
    """Closed latitude-longitude triangulation of the unit 2-sphere."""
    m = 2 * res
    phis = np.linspace(0.0, 2.0 * math.pi, m, endpoint=False)
    dirs = [np.array([0.0, 0.0, 1.0])]
    index = {}
    for i in range(1, res - 1):
        theta = math.pi * i / (res - 1)
        st, ct = math.sin(theta), math.cos(theta)
        for j, phi in enumerate(phis):
            index[i, j] = len(dirs)
            dirs.append(np.array([st * math.cos(phi), st * math.sin(phi), ct]))
    south = len(dirs)
    dirs.append(np.array([0.0, 0.0, -1.0]))

    faces = []
    for j in range(m):
        faces.append((0, index[1, j], index[1, (j + 1) % m]))
    for i in range(1, res - 2):
        for j in range(m):
            a, b = index[i, j], index[i, (j + 1) % m]
            c, e = index[i + 1, j], index[i + 1, (j + 1) % m]
            faces.append((a, c, e))
            faces.append((a, e, b))
    for j in range(m):
        faces.append((south, index[res - 2, (j + 1) % m], index[res - 2, j]))
    return np.array(dirs), faces


def slice_surface(model, normal, offset, resolution):
    """Vertices (M, 3) and triangles of the section by normal . p = offset.

    A vertex v stands for the 4-D point (offset/|normal|) n + v B, with n the
    unit normal and B = complement_basis(n).T.  Each ball meets the plane in
    a 3-ball (C3, R3), and the rays of a _uv_sphere of the given resolution
    are cast in-plane (_ray_hits) from a start inside all of them.  A zero
    or non-finite normal or offset is a ValueError.
    """
    with np.errstate(over="ignore"):     # an overflowing norm is refused below
        scale = np.linalg.norm(normal)
    if not (np.all(np.isfinite(normal)) and math.isfinite(offset)
            and 0.0 < scale < math.inf):
        raise ValueError("the hyperplane needs a finite, nonzero normal and "
                         "a finite offset")
    n_hat = normal / scale
    off = offset / scale
    d = model.centers @ n_hat - off
    if np.any(np.abs(d) >= model.radii):
        raise EmptySlice("a bounding ball misses the hyperplane entirely")

    B = complement_basis(n_hat).T
    origin = off * n_hat
    C3 = (model.centers - origin - np.outer(d, n_hat)) @ B.T
    R3 = np.sqrt(model.radii ** 2 - d ** 2)
    # the projected centroid, or where the walk from it first gets inside
    g3 = (model.interior_point - origin) @ B.T
    p0 = _slice_start(C3, R3, g3)

    dirs, faces = _uv_sphere(resolution)
    t, _ = _ray_hits(C3, R3, p0, dirs)
    verts = p0 + t[:, None] * dirs
    if p0 is not g3:
        # a walked start sits 1e-8 inside a sphere, where half the rays end
        # at once: cast again from the mean of the hits, inside by convexity
        p0 = _slice_start(C3, R3, verts.mean(axis=0))
        t, _ = _ray_hits(C3, R3, p0, dirs)
        verts = p0 + t[:, None] * dirs
    return verts, faces


def binormal_partner(model, pop):
    """The opposite ends of the diameters through a population, (N, 4).

    Every boundary point p with tight ball (c, rho) continues through c to
    the boundary point p - 2 z1 * (p - c)/|p - c|: for caps that is the
    opposite vertex, for wedges the phi-image on the dual side.
    """
    C = model.centers[pop.active]
    if np.any(np.linalg.norm(pop.points - C, axis=1) < 1e-12):
        raise UnclassifiedSample("sample coincides with its active center")
    return _envelope(pop.points, C, -model.width)


# ----------------------------------------------------------------------------
# exact boundary population
# ----------------------------------------------------------------------------

# (rows in s, angles in theta) of the base patch mesh whose projection from
# p_i outlines the cap opposite p_i
_CAP_RIM_GRID = (7, 24)


def complement_basis(a):
    """(4, 3) orthonormal basis of the complement of the unit vector a: the
    last three rows of V in the SVD of the 1 x 4 matrix a, as columns."""
    return np.linalg.svd(a[None, :])[2][1:].T


def _cap_mesh(skeleton, i):
    """The rim mesh of the cap opposite p_i, in gnomonic coordinates.

    -u is an outer normal at p_i for every cap direction u, so the u fill a
    convex cone whose rim is the projection (x - p_i)/|x - p_i| of the four
    patches x without i.  The _CAP_RIM_GRID mesh of each patch
    (base_patch_mesh) is carried there, its seam nodes merged, and the nodes
    projected into gnomonic coordinates Y = (u.E)/(u.a) about the unit axis
    a from p_i to the centroid, with E the complement of a.  Every triangle
    is oriented so that its fan tetrahedron (0, Y_a, Y_b, Y_c) has positive
    volume.  Returns a, E, Y and the triangles.
    """
    p = skeleton.simplex.vertices[i - 1]
    a = skeleton.simplex.centroid - p
    a /= np.linalg.norm(a)
    E = complement_basis(a)
    base, tri, last = base_patch_mesh(skeleton.constants, *_CAP_RIM_GRID)
    faces = [f for f in skeleton.triangle_faces() if i not in f.label]
    rim = np.concatenate([f.generator.apply(base) - p for f in faces])
    T = np.concatenate([tri + k * len(base) for k in range(len(faces))])
    # the patches meet along their last rows: each node there goes to the
    # first node at its place
    seam = np.concatenate([last + k * len(base) for k in range(len(faces))])
    gap = np.linalg.norm(rim[seam, None] - rim[None, seam], axis=2)
    node = np.arange(len(rim))
    node[seam] = seam[np.argmax(gap < 1e-9, axis=1)]
    node, index = np.unique(node, return_inverse=True)
    rim, T = rim[node], index[T]
    Y = (rim @ E) / (rim @ a)[:, None]
    inward = _fan_volumes(Y, T) < 0.0
    T[inward] = T[inward][:, ::-1]
    return a, E, Y, T


def _fan_volumes(Y, T):
    """Signed volumes of the fan tetrahedra (0, Y_a, Y_b, Y_c), one per
    triangle (a, b, c) of T."""
    return np.einsum("ij,ij->i", Y[T[:, 0]], np.cross(Y[T[:, 1]], Y[T[:, 2]])) / 6.0


def _closed_fan(Y, T):
    """Cumulative fan volumes of the rim mesh T of Y, once it is checked.

    The mesh must be a closed, consistently oriented sphere: every directed
    edge appears once and its reverse once, F = 2 V - 4, and every fan
    tetrahedron has positive volume (NonConvexCap otherwise).  Radial
    projection from 0 then maps the sphere onto the sphere of directions
    with positive orientation, once, so the fan tiles its star polytope
    once.
    """
    n = len(Y)
    tail, head = T.ravel(), np.roll(T, -1, axis=1).ravel()
    edges = np.sort(tail * n + head)
    if not (len(T) == 2 * n - 4 and np.all(edges[1:] != edges[:-1])
            and np.array_equal(edges, np.sort(head * n + tail))):
        raise NonConvexCap("the rim mesh is not a closed, oriented sphere")
    vol = _fan_volumes(Y, T)
    if not np.all(vol > 0.0):
        raise NonConvexCap("a fan tetrahedron of the rim mesh is not positive")
    return np.cumsum(vol)


def _cap_cone(skeleton, i):
    """The directions u of the cap points p_i + 2 z1 u opposite p_i.

    Returns the unit axis a, its complement basis E, the gnomonic rim nodes
    Y and the triangles of the rim mesh (_cap_mesh), and the cumulative
    volumes of its checked fan (_closed_fan).  Every point Y of a fan
    tetrahedron is a convex combination of 0 and three nodes, so a + E Y
    is a positive combination of the axis and three rim directions: a
    direction of the convex cone.  Built from the skeleton alone; a model
    keeps its five (BallModel.caps).
    """
    a, E, Y, T = _cap_mesh(skeleton, i)
    return a, E, Y, T, _closed_fan(Y, T)


def _cap_directions(cone, count, rng):
    """count directions u, uniform over the fan of a cap's cone (_cap_cone).

    Each proposal, every draw on rng, picks a fan tetrahedron by volume and
    a point Y of it by Dirichlet(1, 1, 1, 1) weights, and is kept with
    probability (1 + |Y|^2)^-2, the Jacobian of the gnomonic chart on the
    unit sphere; u is a + E Y normalized.  Every u lies in the convex cone,
    so every cap point is exact, whatever the model.
    """
    a, E, Y, T, cum = cone
    out, need = [], count
    while need > 0:
        # about 77 % of the proposals are kept, so one round nearly always
        # suffices
        m = 3 * need // 2 + 64
        f = np.searchsorted(cum, cum[-1] * rng.random(m))
        L = rng.exponential(size=(m, 4))
        # one (m, 3) gather per corner, not the (m, 3, 3) one of every corner
        P = L[:, 1, None] * Y[T[f, 0]]
        P += L[:, 2, None] * Y[T[f, 1]]
        P += L[:, 3, None] * Y[T[f, 2]]
        P /= L.sum(axis=1)[:, None]
        keep = rng.random(m) * (1.0 + _dot(P, P)) ** 2 <= 1.0
        U = a + P[keep][:need] @ E.T
        U /= np.linalg.norm(U, axis=1)[:, None]
        out.append(U)
        need -= len(U)
    return np.concatenate(out)


def exact_boundary_blocks(model, n, seed=0):
    """n exact boundary samples as BoundaryPopulation blocks: phi images,
    cap points, vertices.

    On the as-built model all points lie on the true body boundary to
    roundoff (none come from ray casts against the discretized model), as
    the diameter check requires.  phi samples use the model's own face grids
    and radii, so their active ball is tight exactly, and corrupted radii
    move them (at 16x24 by up to 2.7e-4 for radii scaled by 1 + 1e-3): that
    is how the diameter check sees a corrupted radius law.  Cap directions
    come from the model's skeleton alone (BallModel.caps), so such a model
    keeps the true caps, and they show up in its slack checks.

    One block per phi piece with rows, in order, then one per cap with rows,
    then the vertices; all draw on default_rng(seed), in that order.
    """
    rng = np.random.default_rng(seed)
    skeleton = model.skeleton
    V = skeleton.simplex.vertices
    w = model.width

    n_caps = max(int(round(0.18 * n)) - 5, 0)
    n_phi = max(n - n_caps - 5, 0)

    # phi1 images over each patch, then phi2 images over each arc
    pieces = skeleton.triangle_faces() + skeleton.edge_faces()
    for k, face in enumerate(pieces):
        cnt = n_phi // len(pieces) + (1 if k < n_phi % len(pieces) else 0)
        if cnt == 0:
            continue
        lab, dual = face.label, dual_label(face.label)
        phi1_side = face.kind == "triangle-patch"
        xs = model.face_slices[lab if phi1_side else dual]
        ys = model.face_slices[dual if phi1_side else lab]
        xi = rng.integers(xs.start, xs.stop, size=cnt)
        yi = rng.integers(ys.start, ys.stop, size=cnt)
        # phi1 pushes x by its hyperbolic radius, phi2 y by its elliptic one,
        # away from the other point, whose ball is the tight one
        p, q = (xi, yi) if phi1_side else (yi, xi)
        yield BoundaryPopulation(
            _envelope(model.centers[p], model.centers[q], w - model.radii[p]), q)

    for i in range(1, 6):
        cnt = n_caps // 5 + (1 if i <= n_caps % 5 else 0)
        if cnt:
            U = _cap_directions(model.caps[i - 1], cnt, rng)
            yield BoundaryPopulation(V[i - 1] + w * U, np.full(cnt, i - 1))

    # vertex p_i on the tight ball of p_j; any j != i works.  Below five
    # samples only the first n vertices fit.
    yield BoundaryPopulation(V[:n].copy(), np.array([1, 0, 0, 0, 0])[:n])


# ray rows drawn and cast at a time; chunked draws equal one draw bit for bit
_RAY_ROWS = 2 ** 13


def boundary_blocks(model, n, seed=0):
    """The n rows of sample_theta as BoundaryPopulation blocks: the exact
    blocks (exact_boundary_blocks), then ray casts in blocks of _RAY_ROWS."""
    n_ray = int(round(0.15 * n))
    yield from exact_boundary_blocks(model, n - n_ray, seed=seed)
    rng = np.random.default_rng([seed, 1])
    for k in range(0, n_ray, _RAY_ROWS):
        yield ray_cast_boundary(model, unit_directions(rng, min(_RAY_ROWS, n_ray - k)))


def _population(blocks, n):
    """The n rows of blocks as one population, each block written in place."""
    points = np.empty((n, 4))
    active = np.empty(n, dtype=np.intp)
    start = 0
    for block in blocks:
        rows, start = slice(start, start + len(block)), start + len(block)
        points[rows], active[rows] = block.points, block.active
    return BoundaryPopulation(points, active)


def sample_exact_boundary(model, n, seed=0):
    """The n rows of exact_boundary_blocks as one population."""
    return _population(exact_boundary_blocks(model, n, seed=seed), n)


def sample_theta(model, n, seed=0):
    """Mixed boundary population: exact phi/cap/vertex samples plus ray casts.

    Ray-cast samples (about 15%, the last rows) sit on the discretized
    model's boundary, within the grid residual of the true one; everything
    else is exact.  The exact samples draw from default_rng(seed), the ray
    directions from a stream of their own, default_rng([seed, 1]).
    """
    return _population(boundary_blocks(model, n, seed=seed), n)


# ============================================================================
# width and diameter verifiers
# ============================================================================

def width_in_direction(samples, u):
    """Support width along u of a boundary population."""
    if len(samples) < 10 ** 4:
        raise TooFewSamples(f"{len(samples)} samples; need at least 10^4")
    u = as_vec4(u)
    if abs(np.linalg.norm(u) - 1.0) > 1e-8:
        raise ValueError("direction must be a unit vector")
    proj = samples.points @ u
    return float(proj.max() - proj.min())


# random pairs are drawn _PAIR_DRAWS at a time (ia, then ib) and measured
# _PAIR_ROWS at a time, so the sweep holds two small gathered arrays, not
# two of every draw
_PAIR_DRAWS = 200000
_PAIR_ROWS = 2 ** 14


def diameter_check(model, samples, pairs=10 ** 6, seed=0):
    """Largest pairwise distance found: partner sweep plus random pairs.

    The binormal partner of every sample is at distance exactly 2 z1, so
    the returned value can never fall below the width; the random-pair
    sweep hunts for anything above it.
    """
    pts = samples.points
    X = pts - binormal_partner(model, samples)
    best = np.max(_dot(X, X))

    rng = np.random.default_rng(seed)
    for done in range(0, pairs, _PAIR_DRAWS):
        m = min(_PAIR_DRAWS, pairs - done)
        ia = rng.integers(0, len(pts), size=m)
        ib = rng.integers(0, len(pts), size=m)
        for k in range(0, m, _PAIR_ROWS):
            X = pts[ia[k:k + _PAIR_ROWS]] - pts[ib[k:k + _PAIR_ROWS]]
            best = max(best, np.max(_dot(X, X)))
    # sqrt is monotone and correctly rounded, so the root of the largest
    # square is the largest distance, bit for bit
    return float(np.sqrt(best))


# ============================================================================
# grid-convergence diagnostics
# ============================================================================

def _random_arc_points(c, n, rng):
    t1 = base_arc_axes(c)[2]
    return ellipse_point(c, rng.uniform(-t1, t1, size=n))


def _random_patch_points(c, n, rng):
    # rounds of exactly the missing count draw and accept what drawing one
    # point at a time would, and leave the generator in the same state
    out = np.empty((0, 4))
    while len(out) < n:
        xt = rng.uniform([1.0, 0.0], [c.x0, 2.0 * math.pi], size=(n - len(out), 2))
        q = hyperboloid_point(c, xt[:, 0], xt[:, 1])
        out = np.concatenate([out, q[base_patch_contains(q, c)]])
    return out


def boundary_residual(model, probes=256, seed=0):
    """Empirical bound on how far the model boundary sits outside the body.

    Exact phi points at generic (off-grid) parameters are probed against
    the model; their worst min-slack, doubled plus a floor, bounds the
    displacement the grid resolution can cause anywhere.
    """
    rng = np.random.default_rng(seed)
    skeleton = model.skeleton
    c = skeleton.constants
    per = max(probes // 20, 4)
    probe = []
    for patch in skeleton.triangle_faces():
        arc = skeleton.face(dual_label(patch.label))
        X = patch.generator.apply(_random_patch_points(c, per, rng))
        Y = arc.generator.apply(_random_arc_points(c, per, rng))
        probe += [phi1(patch, arc, X, Y), phi2(patch, arc, X, Y)]
    s, _ = model.min_slack(np.concatenate(probe))
    return 2.0 * float(np.max(np.abs(s))) + 1e-10
