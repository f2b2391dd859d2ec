"""Array-native primitives: a batch gives exactly what its points give.

Every geometric primitive takes one point (4,) or a batch (..., 4) and
broadcasts its point arguments.  Here each one is evaluated on an (N, 4)
batch and on a broadcast (N, M, 4) batch, the shape the radius-sum grid
uses, and compared bit for bit with its one-point calls.  Membership masks
include rows off the face.  The random patch sampler and the base-face
grids are compared with the one-point loop and the closed-form grids they
replaced, kept below as references.
"""

import math

import numpy as np
import pytest

from peabody4d.body import (
    DomainError,
    _random_arc_points,
    _random_patch_points,
    phi1,
    phi2,
    ray_cast_boundary,
    unit_directions,
)
from peabody4d.focal import (
    NotSameComponent,
    OffArc,
    OffPatch,
    WrongComponent,
    base_arc_contains,
    base_patch_contains,
    focal_const_residual,
    focal_sum_residual,
    interlock_residual,
    patch_cut_planes,
    steiner_radius_elliptic,
    steiner_radius_hyperbolic,
)
from peabody4d.geometry import (
    OutOfDomain,
    ellipse_point,
    ellipse_residual,
    hyperboloid_point,
    hyperboloid_residual,
)
from peabody4d.numerics import compute_model_constants
from peabody4d.skeleton import (
    base_arc_axes,
    base_arc_points,
    base_patch_grid_params,
    radius_consistency_residual,
)

N = 12


def _mixed_points(c, rng):
    """N points of E past the arc ends, N of H past the patch, N off both."""
    t1 = base_arc_axes(c)[2]
    e = ellipse_point(c, rng.uniform(-1.5 * t1, 1.5 * t1, N))
    h = hyperboloid_point(c, rng.uniform(1.0, 1.1, N),
                          rng.uniform(0.0, 2.0 * math.pi, N))
    off = np.array([c.x0, 0.0, 0.0, 0.0]) + 0.05 * rng.standard_normal((N, 4))
    return np.concatenate([e, h, off])


def _cases(c, skeleton, rng):
    """name -> (function, its point or parameter arguments, their core ranks).

    The conic primitives run on E and H, the only quadrics there are;
    face membership and motions run on a moved face.
    """
    patch, arc = skeleton.face((3, 4, 5)), skeleton.face((1, 2))
    moved_patch = skeleton.face((1, 3, 4))
    mixed = _mixed_points(c, rng)
    near_face = np.concatenate([
        moved_patch.generator.apply(_random_patch_points(c, N, rng)),
        moved_patch.generator.apply(mixed)])
    x, y = _random_patch_points(c, N, rng), _random_arc_points(c, N, rng)
    angles = rng.uniform(0.0, 2.0 * math.pi, (4, N))
    heights = rng.uniform(1.0, 2.5, (2, N))
    a_e, b_e = ellipse_point(c, angles[0]), ellipse_point(c, angles[1])
    a_h = hyperboloid_point(c, heights[0], angles[2])
    b_h = hyperboloid_point(c, heights[1], angles[3])
    arc45 = skeleton.face((4, 5)).points(N + 2)[1:-1]
    return {
        "ellipse_point": (lambda t: ellipse_point(c, t), [angles[0]], 0),
        "hyperboloid_point": (lambda s, t: hyperboloid_point(c, s, t),
                              [heights[0], angles[2]], 0),
        "hyperboloid_residual": (lambda p: hyperboloid_residual(c, p), [mixed], 1),
        "ellipse_residual": (lambda p: ellipse_residual(c, p), [mixed], 1),
        "base_arc_contains": (lambda p: base_arc_contains(p, c), [mixed], 1),
        "base_patch_contains": (lambda p: base_patch_contains(p, c), [mixed], 1),
        "SkeletonFace.contains": (moved_patch.contains, [near_face], 1),
        "Isometry4.apply": (moved_patch.generator.apply, [mixed], 1),
        "focal_sum_residual": (focal_sum_residual, [a_e, b_e, a_h, b_h], 1),
        "focal_const_residual": (lambda p, q: focal_const_residual(c, p, q),
                                 [a_e, a_h], 1),
        "steiner_radius_elliptic": (lambda p: steiner_radius_elliptic(c, p),
                                    [y], 1),
        "steiner_radius_hyperbolic": (lambda p: steiner_radius_hyperbolic(c, p),
                                      [x], 1),
        "interlock_residual": (lambda p, q: interlock_residual(c, p, q),
                               [x, y], 1),
        "radius_consistency_residual": (
            lambda p: radius_consistency_residual(skeleton, p), [arc45], 1),
        "phi1": (lambda p, q: phi1(patch, arc, p, q), [x, y], 1),
        "phi2": (lambda p, q: phi2(patch, arc, p, q), [x, y], 1),
    }


CASE_NAMES = (
    "ellipse_point", "hyperboloid_point", "hyperboloid_residual",
    "ellipse_residual", "base_arc_contains", "base_patch_contains",
    "SkeletonFace.contains", "Isometry4.apply", "focal_sum_residual", "focal_const_residual",
    "steiner_radius_elliptic", "steiner_radius_hyperbolic",
    "interlock_residual", "radius_consistency_residual", "phi1", "phi2")


def _grid(args):
    """The broadcast (N, M) layout: one argument split into rows of M, or
    alternate arguments spread along the two batch axes."""
    if len(args) == 1:
        a = args[0]
        return [a[:len(a) // 4 * 4].reshape((4, -1) + a.shape[1:])]
    return [a[:, None] if i % 2 == 0 else a[None] for i, a in enumerate(args)]


@pytest.mark.parametrize("layout", ["rows", "grid"])
@pytest.mark.parametrize("name", CASE_NAMES)
def test_batch_equals_its_one_point_calls(constants, skeleton, name, layout):
    cases = _cases(constants, skeleton, np.random.default_rng(8))
    assert sorted(cases) == sorted(CASE_NAMES)
    f, args, core = cases[name]
    if layout == "grid":
        args = _grid(args)
    out = f(*args)
    points = np.broadcast_arrays(*args)
    shape = points[0].shape[:points[0].ndim - core]
    assert out.shape[:len(shape)] == shape and len(shape) == (
        1 if layout == "rows" else 2)
    each = np.array([f(*(p[i] for p in points)) for i in np.ndindex(shape)])
    assert np.array_equal(out, each.reshape(out.shape)), name
    if out.dtype == bool:      # the masks see rows on and off the face
        assert out.any() and not out.all()


def test_one_bad_row_raises_the_domain_exception(constants, skeleton):
    c, rng = constants, np.random.default_rng(3)
    patch, arc = skeleton.face((3, 4, 5)), skeleton.face((1, 2))
    x, y = _random_patch_points(c, 6, rng), _random_arc_points(c, 6, rng)
    far = x * np.array([-1.0, 1.0, 1.0, 1.0])     # mirrored to the far sheet
    bad_x, bad_y = x.copy(), y.copy()
    bad_x[4], bad_y[4] = y[4], x[4]               # swapped in one row
    arc45 = skeleton.face((4, 5)).points(8)[1:-1]
    calls = [
        (OutOfDomain, lambda: ellipse_point(c, [0.1, np.nan, 0.3])),
        (OutOfDomain, lambda: hyperboloid_point(c, [1.2, 0.9, 1.1], 0.0)),
        (NotSameComponent, lambda: focal_sum_residual(
            y, y, x, np.where(np.arange(6)[:, None] == 2, far, x))),
        (WrongComponent, lambda: focal_const_residual(
            c, y, np.where(np.arange(6)[:, None] == 2, far, x))),
        (OffArc, lambda: steiner_radius_elliptic(c, bad_y)),
        (OffPatch, lambda: steiner_radius_hyperbolic(c, bad_x)),
        (OffPatch, lambda: interlock_residual(c, bad_x[:, None], y[None])),
        (OffArc, lambda: radius_consistency_residual(
            skeleton, np.vstack([arc45, x[:1]]))),
        (DomainError, lambda: phi1(patch, arc, bad_x, y)),
        (DomainError, lambda: phi2(patch, arc, x, bad_y)),
    ]
    for exc, call in calls:
        with pytest.raises(exc):
            call()


def _random_patch_points_one_at_a_time(c, n, rng):
    # the sampler as it was before batching: draw, test, keep, repeat
    out = []
    while len(out) < n:
        x = rng.uniform(1.0, c.x0)
        th = rng.uniform(0.0, 2.0 * math.pi)
        rho = math.sqrt((c.a_sq - 1.0) * (x * x - 1.0))
        q = np.array([x, rho * math.cos(th), 0.0, rho * math.sin(th)])
        if base_patch_contains(q, c):
            out.append(q)
    return np.array(out)


@pytest.mark.parametrize("a_sq", [1.4, 1.5, 2.0])
def test_random_patch_points_replay_the_one_point_loop(a_sq):
    c = compute_model_constants(a_sq)
    for seed in range(5):
        for n in (1, 4, 13, 50):
            mine, ref = np.random.default_rng(seed), np.random.default_rng(seed)
            got = _random_patch_points(c, n, mine)
            assert got.shape == (n, 4)
            assert np.array_equal(got, _random_patch_points_one_at_a_time(c, n, ref))
            assert mine.bit_generator.state == ref.bit_generator.state


@pytest.mark.parametrize("a_sq", [1.4, 1.5, 2.0])
@pytest.mark.parametrize("grid", [(16, 24), (64, 96)])
def test_base_grids_equal_their_closed_forms(a_sq, grid):
    """The grids through the two parametrizations equal the formulas the
    ball model was built from, bit for bit."""
    c = compute_model_constants(a_sq)
    a, b, t1 = base_arc_axes(c)
    ts = np.linspace(-t1, t1, 8 * grid[1] // 3)
    arc = np.zeros((len(ts), 4))
    arc[:, 0], arc[:, 2] = a * np.cos(ts), b * np.sin(ts)
    assert np.array_equal(base_arc_points(c, len(ts)), arc)

    nx, ntheta = grid
    xs = np.linspace(1.0, c.x0, nx)
    rho = np.repeat(np.sqrt((c.a_sq - 1.0) * (xs * xs - 1.0)), ntheta)
    X = np.repeat(xs, ntheta)
    T = np.tile(2.0 * math.pi * np.arange(ntheta) / ntheta, nx)
    pts = np.column_stack([X, rho * np.cos(T), np.zeros_like(X), rho * np.sin(T)])
    keep = np.ones(len(pts), dtype=bool)
    for nrm, p0 in patch_cut_planes(c):
        keep &= (pts - p0) @ nrm >= -1e-9
    params, points = base_patch_grid_params(c, nx, ntheta)
    assert np.array_equal(params, np.column_stack([X, T])[keep])
    assert np.array_equal(points, pts[keep])


# OpenBLAS's last bit of a product row depends on the call's row count, so a
# one-point slack or ray hit agrees with its batch row to 1e-15, not bit for
# bit
def test_one_point_slack_agrees_with_its_batch_row(model, exact_pop):
    P = exact_pop.points[::67]
    batch, _ = model.min_slack(P)
    one = np.array([model.min_slack(p)[0] for p in P])
    assert len(P) == 299
    assert np.max(np.abs(one - batch)) <= 1e-15


def test_one_point_ray_hit_agrees_with_its_batch_row(model):
    U = unit_directions(np.random.default_rng(46), 300)
    batch = ray_cast_boundary(model, U)
    for u, p in zip(U, batch.points):
        assert np.max(np.abs(ray_cast_boundary(model, u).points[0] - p)) <= 1e-15
