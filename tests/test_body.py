"""Tests for the envelope maps, the ball model, and the width verifiers.

The body is represented two ways: as phi-images of the curved-face product
domains and as an intersection of balls (one per vertex, one per face grid
node).  Most tests here cross-validate the two representations against each
other; the width and diameter checks then measure the claimed constant-width
behaviour on large sampled populations.
"""

import dataclasses
import sys
import threading
import time
import warnings
from itertools import combinations
from unittest import mock

import numpy as np
import pytest
from scipy.spatial import ConvexHull, cKDTree
from scipy.stats import ks_2samp, norm, qmc

from diagnostics import ray_displacements, traced_peak
from frozen_values import FROZEN
from peabody4d import body
from peabody4d.body import (
    PIECE_LABELS,
    BallModel,
    BoundaryPopulation,
    DomainError,
    InteriorPointNotInterior,
    NonConvexCap,
    TooFewSamples,
    UnclassifiedSample,
    _block_rows,
    _cap_cone,
    _cap_directions,
    _cap_mesh,
    _closed_fan,
    _min_slack,
    _random_arc_points,
    _random_patch_points,
    _ray_cast_many,
    _ray_hits,
    _row_blocks,
    binormal_partner,
    boundary_residual,
    boundary_blocks,
    build_ball_model,
    chord_lengths,
    complement_basis,
    diameter_check,
    exact_boundary_blocks,
    phi1,
    phi2,
    piece_code,
    ray_cast_boundary,
    sample_exact_boundary,
    sample_theta,
    slice_surface,
    unit_directions,
    width_in_direction,
)
from peabody4d.numerics import compute_model_constants
from peabody4d.skeleton import (
    base_arc_points,
    base_patch_grid,
    base_patch_mesh,
    build_focal_skeleton,
    build_simplex,
    build_symmetry_group,
    dual_label,
)

ALL_PIECE_LABELS = {
    "".join(map(str, comb))
    for k in (2, 3, 4)
    for comb in combinations(range(1, 6), k)
}


def unit(v):
    return v / np.linalg.norm(v)


def sobol_directions(count, seed):
    m = 1 << max(2, (count - 1).bit_length())
    eng = qmc.Sobol(d=4, scramble=True, seed=seed)
    U = norm.ppf(eng.random(m))[:count]
    return U / np.linalg.norm(U, axis=1, keepdims=True)


def piece_labels(model, pop):
    """Piece label string of each sample: its active ball's."""
    return np.array(PIECE_LABELS)[model.sample_face[pop.active]]


def phi_samples(model, pop):
    """Wedge samples only: the cap and vertex samples carry 4-digit labels."""
    return pop[np.char.str_len(piece_labels(model, pop)) < 4]


def at_vertex(pop, simplex):
    """Rows that lie at a simplex vertex: the vertex samples."""
    V = simplex.vertices
    return np.linalg.norm(pop.points[:, None] - V[None], axis=2).min(axis=1) <= 1e-12


def cap_samples(model, pop):
    """Cap samples only: the 4-digit rows that are not at a vertex."""
    return pop[(np.char.str_len(piece_labels(model, pop)) == 4)
               & ~at_vertex(pop, model.skeleton.simplex)]


def cap_directions(model, caps):
    """(p - p_active)/w of each cap sample: the unit direction that pushed
    its vertex, the center of its active ball, out to the cap."""
    return (caps.points - model.centers[caps.active]) / model.width


# ----------------------------------------------------------------------------
# envelope maps
# ----------------------------------------------------------------------------

def test_phi_fixed_point_at_shared_patch_vertex(skeleton, simplex):
    patch = skeleton.face((3, 4, 5))
    arc = skeleton.face((1, 2))
    p3 = simplex.vertices[2]
    assert patch.contains(p3)
    assert abs(float(patch.radius(p3))) <= 1e-12
    y = np.array([FROZEN["a"], 0.0, 0.0, 0.0])  # arc apex
    assert np.allclose(phi1(patch, arc, p3, y), p3, atol=1e-12, rtol=0)


def test_phi_fixed_point_at_arc_endpoint(skeleton, simplex, constants):
    patch = skeleton.face((3, 4, 5))
    arc = skeleton.face((1, 2))
    p1 = simplex.vertices[0]
    assert arc.contains(p1)
    assert abs(float(arc.radius(p1))) <= 1e-12
    x = np.array([1.0, 0.0, 0.0, 0.0])  # the patch's deepest point
    assert patch.contains(x)
    assert np.allclose(phi2(patch, arc, x, p1), p1, atol=1e-12, rtol=0)
    far = phi1(patch, arc, x, p1)
    assert abs(np.linalg.norm(far - p1) - constants.width) <= 1e-12


def test_phi_images_separated_by_width_everywhere(skeleton, constants):
    omega = np.array([FROZEN["omega_x"], FROZEN["omega_y"], 0.0, 0.0])
    apex = np.array([FROZEN["a"], 0.0, 0.0, 0.0])
    patch = skeleton.face((3, 4, 5))
    arc = skeleton.face((1, 2))
    gap = np.linalg.norm(phi1(patch, arc, omega, apex)
                         - phi2(patch, arc, omega, apex))
    assert abs(gap - constants.width) <= 1e-12

    # random interior parameters on every dual pair
    rng = np.random.default_rng(21)
    worst = 0.0
    for patch in skeleton.triangle_faces():
        arc = skeleton.face(dual_label(patch.label))
        X = patch.generator.apply(_random_patch_points(constants, 8, rng))
        Y = arc.generator.apply(_random_arc_points(constants, 8, rng))
        for x, y in zip(X, Y):
            gap = np.linalg.norm(phi1(patch, arc, x, y) - phi2(patch, arc, x, y))
            worst = max(worst, abs(gap - constants.width))
    assert worst <= 1e-12


def test_phi_rejects_points_off_the_faces(skeleton, simplex):
    patch = skeleton.face((3, 4, 5))
    arc = skeleton.face((1, 2))
    apex = np.array([FROZEN["a"], 0.0, 0.0, 0.0])
    deep = np.array([1.0, 0.0, 0.0, 0.0])
    g = simplex.centroid
    with pytest.raises(DomainError):
        phi1(patch, arc, g, apex)           # x interior, not on the patch
    with pytest.raises(DomainError):
        phi1(patch, arc, apex, apex)        # x on the arc, not the patch
    with pytest.raises(DomainError):
        phi2(patch, arc, deep, deep)        # y on the patch, not the arc
    with pytest.raises(DomainError):
        phi1(patch, skeleton.face((1, 3)), deep, apex)  # not a dual pair
    with pytest.raises(DomainError):
        phi1(arc, patch, apex, deep)        # arguments swapped


# ----------------------------------------------------------------------------
# ball model structure
# ----------------------------------------------------------------------------

def test_ball_radii_follow_the_chain_radius_law(model, skeleton, constants):
    w = constants.width
    assert np.all(model.radii[:5] == w)
    assert np.allclose(model.centers[:5], skeleton.simplex.vertices,
                       atol=0, rtol=0)
    arc_sizes, patch_sizes = set(), set()
    for lab, sl in model.face_slices.items():
        face = skeleton.face(lab)
        r = face.radius(model.centers[sl])
        assert np.max(np.abs(model.radii[sl] - (w - r))) <= 1e-12
        assert np.all(r > 0)  # vertex-coincident nodes were dropped
        (arc_sizes if len(lab) == 2 else patch_sizes).add(sl.stop - sl.start)
    # symmetric grids: every arc, and every patch, holds the same count; the
    # 64 arc nodes lose their two ends, which are vertex balls
    assert arc_sizes == {64 - 2}
    assert len(patch_sizes) == 1


def test_face_slices_tile_the_face_rows_in_order(model, skeleton):
    assert set(model.face_slices) == {face.label for face in skeleton.faces}
    assert len(model.face_slices) == 20
    # rows 0-4 are the vertex balls; the faces follow, one block each
    slices = list(model.face_slices.values())
    assert [sl.start for sl in slices] == [5] + [sl.stop for sl in slices[:-1]]
    assert slices[-1].stop == len(model.centers)
    assert all(sl.step is None and sl.stop > sl.start for sl in slices)


def test_every_ball_carries_the_piece_dual_to_its_face(model):
    assert model.sample_face.dtype == np.int8
    assert model.sample_face.shape == (len(model.centers),)
    caps = [piece_code(dual_label((i,))) for i in range(1, 6)]
    assert model.sample_face[:5].tolist() == caps
    assert [PIECE_LABELS[k] for k in caps] == ["2345", "1345", "1245", "1235",
                                               "1234"]
    for lab, sl in model.face_slices.items():
        assert np.all(model.sample_face[sl] == piece_code(dual_label(lab)))


@pytest.mark.parametrize("grid, arc_n", [((16, 24), 64), ((64, 96), 256),
                                         ((16, 24), 65), ((64, 96), 257)])
def test_no_face_center_sits_near_a_vertex(skeleton, grid, arc_n):
    # the build drops the face centers that duplicate a vertex; every other
    # one keeps clear of the vertices, so no roundoff copy of a vertex ball
    # is left to win a ray-cast argmin and mislabel a cap hit
    m = build_ball_model(skeleton, patch_grid=grid, arc_n=arc_n)
    V = skeleton.simplex.vertices
    dist = np.linalg.norm(m.centers[5:, None, :] - V[None, :, :], axis=2)
    assert dist.min() > 1e-4


def test_every_sample_takes_its_piece_from_its_active_ball(model, exact_pop,
                                                           mixed_pop):
    # a population stores no piece: a row's is its active ball's, and that
    # ball is tight at the row's point
    rays = ray_cast_boundary(model, sobol_directions(5000, seed=7))
    for pop in (exact_pop, mixed_pop, rays):
        d = np.linalg.norm(pop.points - model.centers[pop.active], axis=1)
        assert np.max(np.abs(d - model.radii[pop.active])) <= 1e-9


def test_interior_point_is_the_centroid_and_is_deep(model):
    assert np.allclose(model.interior_point,
                       [FROZEN["g_x"], 0.0, 0.0, 0.0], atol=1e-12, rtol=0)
    slack, _ = model.min_slack(model.interior_point)
    assert slack >= 1e-6
    slack, _ = model.min_slack(np.array([10.0, 0.0, 0.0, 0.0]))
    assert slack < -1e-9


def test_a_model_is_its_balls_and_its_skeleton(model, skeleton):
    assert ([f.name for f in dataclasses.fields(BallModel)]
            == ["centers", "radii", "sample_face", "face_slices", "skeleton"])
    assert model.skeleton is skeleton
    assert model.interior_point is skeleton.simplex.centroid
    assert model.width == skeleton.constants.width


def test_center_set_invariant_under_all_motions(model, group):
    tree = cKDTree(model.centers)
    for motion in group:
        moved = motion.apply(model.centers)
        dist, idx = tree.query(moved)
        assert dist.max() <= 1e-8
        assert np.max(np.abs(model.radii[idx] - model.radii)) <= 1e-8


def test_build_rejects_theta_grid_not_divisible_by_three(skeleton):
    with pytest.raises(ValueError, match="divisible by 3"):
        build_ball_model(skeleton, patch_grid=(8, 10), arc_n=16)


def test_interior_guard_catches_a_broken_construction(skeleton):
    # shrink the claimed width so every ball excludes the centroid
    bad = dataclasses.replace(
        skeleton, constants=dataclasses.replace(skeleton.constants, width=0.1))
    with pytest.raises(InteriorPointNotInterior):
        build_ball_model(bad, patch_grid=(8, 12), arc_n=16)


def test_vertex_balls_alone_give_the_reuleaux_simplex(model, skeleton,
                                                      exact_pop):
    V = skeleton.simplex.vertices
    w = model.width
    vertex_only = BallModel(
        centers=V.copy(), radii=np.full(5, w),
        sample_face=model.sample_face[:5], face_slices={}, skeleton=skeleton)
    # each vertex touches the four other vertex spheres
    for v in V:
        slack, _ = vertex_only.min_slack(v)
        assert abs(slack) <= 1e-12
    # the full body lies inside: sampled boundary never leaves a vertex ball,
    # and every ray exits the full model no later than the vertex-only one
    ms, _ = vertex_only.min_slack(exact_pop.points)
    assert ms.min() >= -1e-9
    U = sobol_directions(2000, seed=17)
    t_full, _ = _ray_cast_many(model, U)
    t_reuleaux, _ = _ray_cast_many(vertex_only, U)
    assert np.all(t_full <= t_reuleaux + 1e-12)


def test_all_samples_within_width_of_every_vertex(mixed_pop, simplex,
                                                  constants):
    pts = mixed_pop.points
    for v in simplex.vertices:
        assert np.linalg.norm(pts - v, axis=1).max() <= constants.width + 1e-9


# ----------------------------------------------------------------------------
# ray casting and piece classification
# ----------------------------------------------------------------------------

def test_ray_cast_along_the_symmetry_axis(model, model_fine, constants):
    # Both ends of the x-axis chord are forced by the axis-fixing motions:
    # the positive end is the sheet-vertex ball exit (a grid node at every
    # resolution, so the hit is exact), the negative end is governed by the
    # arc-apex ball, which the even arc grid only straddles.
    x_plus = FROZEN["a"] + FROZEN["R_mid"]
    x_minus = x_plus - FROZEN["width"]

    plus = ray_cast_boundary(model, np.array([1.0, 0.0, 0.0, 0.0]))
    assert len(plus) == 1
    assert not np.any(plus.points[0, 1:])
    assert abs(plus.points[0, 0] - x_plus) <= 1e-9
    assert piece_labels(model, plus)[0] == "12"
    patch_rows = model.face_slices[(3, 4, 5)]
    assert patch_rows.start <= plus.active[0] < patch_rows.stop

    minus = ray_cast_boundary(model, np.array([-1.0, 0.0, 0.0, 0.0]))
    assert not np.any(minus.points[0, 1:])
    assert abs(minus.points[0, 0] - x_minus) <= 1e-5
    assert piece_labels(model, minus)[0] == "345"
    arc_rows = model.face_slices[(1, 2)]
    assert arc_rows.start <= minus.active[0] < arc_rows.stop

    # the chord realizes the width, and the two active families are dual
    chord = plus.points[0, 0] - minus.points[0, 0]
    assert abs(chord - constants.width) <= 2e-5
    assert set("345") | set("12") == set("12345")

    err_coarse = abs(minus.points[0, 0] - x_minus)
    minus_fine = ray_cast_boundary(model_fine, np.array([-1.0, 0.0, 0.0, 0.0]))
    err_fine = abs(minus_fine.points[0, 0] - x_minus)
    assert err_fine < err_coarse and err_fine <= 1e-6


def test_ray_cast_toward_a_vertex_sits_on_its_active_sphere(model, simplex):
    u = unit(simplex.vertices[0] - model.interior_point)
    s = ray_cast_boundary(model, u)
    (j,) = s.active
    d = np.linalg.norm(s.points[0] - model.centers[j])
    assert abs(d - model.radii[j]) <= 1e-9
    # the sample lies along u from the interior point
    assert np.max(np.abs(unit(s.points[0] - model.interior_point) - u)) <= 1e-15
    (t,), _ = _ray_cast_many(model, u[None, :])
    assert abs(np.linalg.norm(s.points[0] - model.interior_point) - t) <= 1e-12


def test_ray_cast_requires_a_unit_direction(model):
    with pytest.raises(ValueError):
        ray_cast_boundary(model, np.array([2.0, 0.0, 0.0, 0.0]))
    with pytest.raises(ValueError):
        ray_cast_boundary(model, np.zeros(4))
    with pytest.raises(ValueError):
        ray_cast_boundary(model, np.array([[1.0, 0, 0, 0], [0, 2.0, 0, 0]]))


def test_ray_sweep_invariants_and_full_piece_census(model):
    U = sobol_directions(100000, seed=11)
    ts, act = _ray_cast_many(model, U)
    pts = model.interior_point + ts[:, None] * U
    ms, _ = model.min_slack(pts)
    assert ms.min() >= -1e-9   # inside every ball
    assert ms.max() <= 1e-9    # with the active one tight
    labels = {PIECE_LABELS[k] for k in model.sample_face[act]}
    assert labels == ALL_PIECE_LABELS

    # the scalar interface agrees with the batch sweep
    for u, j in zip(U[:50], act[:50]):
        s = ray_cast_boundary(model, u)
        assert s.active[0] == j
        slack, _ = model.min_slack(s.points[0])
        assert abs(slack) <= 1e-9


# ----------------------------------------------------------------------------
# array kernels
# ----------------------------------------------------------------------------

def ragged_count(n_balls):
    """A row count that spans three full kernel blocks and a ragged fourth."""
    return 3 * _block_rows(n_balls) + 7


def kernel_inputs(model):
    """Balls in 4-D and in 3-D, each with a start inside all of them, unit
    vectors v at which the last ball alone is tight, at C[-1] + R[-1] v, and
    the simplex vertices in the balls' space, where many spheres meet.

    The 4-D balls are the model's (last_ball_normals), with all five
    vertices.  The 3-D balls are those of the w = 0 slice, as slice_surface
    casts them (slice_balls), with the three vertices of that plane.
    """
    return [(model.centers, model.radii, model.interior_point,
             last_ball_normals(model), model.centers[:5]),
            slice_balls(model)]


def slice_balls(model):
    """The 3-D balls and start of the w = 0 slice, with its busiest ball last.

    slice_surface's own cast is replayed: the ball on which most of its
    vertices end is moved to the last row, and the unit vectors from its
    center to those vertices are returned, with the simplex vertices of the
    plane (p1, p2, p3) in its coordinates.  In the model's order no ray of
    the slice ends on the last ball.
    """
    casts = []

    def spy(C, R, origin, U):
        t, arg = _ray_hits(C, R, origin, U)
        casts.append((C, R, origin, origin + t[:, None] * U, arg))
        return t, arg
    with mock.patch.object(body, "_ray_hits", spy):
        slice_surface(model, np.array([0.0, 0.0, 0.0, 1.0]), 0.0, 24)
    (C, R, origin, verts, arg), = casts
    b = np.argmax(np.bincount(arg))
    order = np.append(np.delete(np.arange(len(C)), b), b)
    v = verts[arg == b] - C[b]
    V = model.centers[:5]
    in_plane = V[V[:, 3] == 0.0] @ complement_basis(np.array([0.0, 0.0, 0.0, 1.0]))
    assert len(in_plane) == 3
    return (C[order], R[order], origin, v / np.linalg.norm(v, axis=1)[:, None],
            in_plane)


def last_ball_normals(model, n=1025):
    """Unit vectors v at which the last ball alone is tight, at C[-1] + R[-1] v.

    The last ball is centered at a node x of the last patch.  Each point y of
    the dual arc gives the exact boundary point x + R[-1] (y - x)/|y - x| (a
    phi2 image), on that ball's sphere and, since every model ball holds the
    exact body, inside every other ball.  The arc is taken at the n - 2
    inner points of base_arc_points, off the model's arc grid.
    """
    skeleton, x = model.skeleton, model.centers[-1]
    patch = next(label for label, rows in model.face_slices.items()
                 if rows.stop == len(model.centers))
    arc = skeleton.face(dual_label(patch))
    v = arc.generator.apply(base_arc_points(skeleton.constants, n)[1:-1]) - x
    return v / np.linalg.norm(v, axis=1)[:, None]


def direct_slack(C, R, P):
    """R - |p - c| for every row p of P and every ball, in float64, with the
    squares summed in column order; 256 rows at a time."""
    return np.concatenate([
        R - np.sqrt(sum(X[..., k] * X[..., k] for k in range(C.shape[1])))
        for X in (P[lo:lo + 256, None, :] - C[None, :, :]
                  for lo in range(0, len(P), 256))])


def direct_hits(C, R, origin, U):
    """b + sqrt(b^2 + R^2 - |D|^2) with b = u.D, D = C - origin, for every
    row u of U and every ball, in float64, summed in column order."""
    D = C - origin
    c = R * R - sum(D[:, k] * D[:, k] for k in range(C.shape[1]))
    out = []
    for lo in range(0, len(U), 256):
        b = sum(U[lo:lo + 256, None, k] * D[None, :, k] for k in range(C.shape[1]))
        out.append(b + np.sqrt(b * b + c))
    return np.concatenate(out)


def assert_first_minima(value, arg, matrix):
    """value and arg are each row's minimum of matrix and its first argmin."""
    j = np.argmin(matrix, axis=1)
    assert np.array_equal(arg, j)
    assert np.array_equal(value, matrix[np.arange(len(matrix)), j])


def slack_rows(C, R, origin, normals, vertices, rng):
    """ragged_count(len(C)) random points about the start, then points 1e-4
    outside the last ball where it alone is tight, so that the last column
    holds row minima, then the vertices, where the screen keeps many balls
    (1,112 of the 2,465 in 4-D)."""
    return np.concatenate([
        origin + 0.2 * rng.standard_normal((ragged_count(len(C)), C.shape[1])),
        C[-1] + (R[-1] + 1e-4) * normals,
        vertices])


def ray_rows(C, R, origin, normals, vertices, seed):
    """ragged_count(len(C)) Sobol directions, then the directions that end on
    the last ball where it alone is tight, then those toward the vertices."""
    U = np.concatenate([
        sobol_directions(ragged_count(len(C)), seed=seed)[:, :C.shape[1]],
        C[-1] + R[-1] * normals - origin,
        vertices - origin])
    return U / np.linalg.norm(U, axis=1, keepdims=True)


def test_slack_kernel_equals_the_one_shot_formula(model):
    rng = np.random.default_rng(31)
    for C, R, origin, normals, vertices in kernel_inputs(model):
        P = slack_rows(C, R, origin, normals, vertices, rng)
        s, arg = _min_slack(C, R, P)
        aimed = ragged_count(len(C)) + np.arange(len(normals))
        assert np.all(arg[aimed] == len(C) - 1)
        assert_first_minima(s, arg, direct_slack(C, R, P))


def test_slack_kernel_agrees_with_brute_force_distances(model):
    C, R = model.centers, model.radii
    rng = np.random.default_rng(32)
    P = model.interior_point + 0.2 * rng.standard_normal((ragged_count(len(C)), 4))
    s, arg = _min_slack(C, R, P)
    for lo in range(0, len(P), 256):
        Q = P[lo:lo + 256]
        brute = R[None, :] - np.linalg.norm(Q[:, None, :] - C[None, :, :], axis=2)
        assert_first_minima(s[lo:lo + 256], arg[lo:lo + 256], brute)


def test_ray_kernel_equals_the_one_shot_formula(model):
    for C, R, origin, normals, vertices in kernel_inputs(model):
        U = ray_rows(C, R, origin, normals, vertices, seed=33)
        t, arg = _ray_hits(C, R, origin, U)
        aimed = ragged_count(len(C)) + np.arange(len(normals))
        assert np.all(arg[aimed] == len(C) - 1)
        assert_first_minima(t, arg, direct_hits(C, R, origin, U))


def test_ray_kernel_agrees_with_brute_force_distances(model):
    for C, R, origin, *_ in kernel_inputs(model):
        U = sobol_directions(ragged_count(len(C)), seed=34)[:, :C.shape[1]]
        U /= np.linalg.norm(U, axis=1, keepdims=True)
        t, arg = _ray_hits(C, R, origin, U)
        hits = origin + t[:, None] * U
        # each hit sits on its ball's sphere and inside every other ball
        on_sphere = np.linalg.norm(hits - C[arg], axis=1) - R[arg]
        assert np.max(np.abs(on_sphere)) <= 1e-12
        for lo in range(0, len(hits), 256):
            Q = hits[lo:lo + 256]
            dist = np.linalg.norm(Q[:, None, :] - C[None, :, :], axis=2)
            assert np.min(R[None, :] - dist) >= -1e-12


def kernel_outputs(model):
    """Every block kernel's arrays at ragged_count rows of its column count,
    the slack and ray kernels' with the aimed and vertex rows."""
    rng = np.random.default_rng(35)
    outputs = []
    for inputs in kernel_inputs(model):
        C, R, origin = inputs[:3]
        outputs += _min_slack(C, R, slack_rows(*inputs, rng))
        outputs += _ray_hits(C, R, origin, ray_rows(*inputs, seed=36))
    U = sobol_directions(ragged_count(len(model.centers)), seed=38)
    outputs.append(chord_lengths(model, U))
    return outputs


def test_kernels_are_bit_identical_for_any_worker_count(model, monkeypatch):
    # the calling thread alone, and with two helper threads
    results = []
    for helpers in (0, 2):
        monkeypatch.setattr(body, "_HELPERS", helpers)
        results.append(kernel_outputs(model))
    assert len(results[1]) == 9
    for one, three in zip(*results):
        assert np.array_equal(one, three)
    # and for another row partition: blocks of 7 rows give every array the
    # same bits
    monkeypatch.setattr(body, "_block_rows", lambda n_cols: 7)
    for one, seven in zip(results[0], kernel_outputs(model)):
        assert np.array_equal(one, seven)


def test_chords_equal_two_ray_casts_bit_for_bit(model, monkeypatch):
    U = unit_directions(np.random.default_rng(37), ragged_count(len(model.centers)))
    for helpers in (0, 2):
        monkeypatch.setattr(body, "_HELPERS", helpers)
        both = _ray_cast_many(model, U)[0] + _ray_cast_many(model, -U)[0]
        assert np.array_equal(chord_lengths(model, U), both)


def test_only_the_dual_pair_axes_carry_a_diameter_through_the_centroid(model):
    # a chord through the centroid reaches the width only along a diameter,
    # and by the simplex symmetry those are the ten dual-pair axes: 2,048
    # random chords per seed fall short by 3.7e-4 or more, while the longest
    # axis chord is over the width by the grid residual alone (1.26e-6)
    axes = np.array([line.direction
                     for line in model.skeleton.simplex.axes.values()])
    longest_axis = np.max(chord_lengths(model, axes))
    assert 0.0 < longest_axis - model.width < 1e-5
    for seed in (4, 5, 6, 7):
        U = unit_directions(np.random.default_rng(seed), 2048)
        assert np.max(chord_lengths(model, U)) <= model.width - 3e-4


@pytest.mark.parametrize("normal, offset", [
    ([0.0, 0.0, 0.0, 0.0], 0.0),
    ([np.nan, 0.0, 0.0, 1.0], 0.0),
    ([0.0, 0.0, 0.0, -np.inf], 0.0),
    ([0.0, 0.0, 0.0, 1.0], np.nan),
    ([0.0, 0.0, 0.0, 1.0], np.inf),
    ([1e308, 1e308, 0.0, 0.0], 0.0),     # finite, but its norm overflows
])
def test_slice_rejects_a_zero_or_non_finite_hyperplane(model, normal, offset):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="hyperplane"):
            slice_surface(model, np.array(normal), offset, 8)


def run_blocks_raising_in(raiser):
    """_row_blocks over 4 blocks of 16 rows, on the caller and its helper
    threads, with every block raising in the thread that raiser names
    ("caller", "helper" or None).

    Returns the exception the call raised (None if it returned), the number
    of blocks still running when it ended, and the block starts taken by
    then and 50 ms later.
    """
    n_cols = 10 ** 5     # a block of _block_rows(n_cols) = 16 rows
    caller = threading.current_thread()
    ran = {True: threading.Event(), False: threading.Event()}
    lock = threading.Lock()
    running, started = [0], []

    def run(rows):
        mine = threading.current_thread() is caller
        with lock:
            running[0] += 1
            started.append(rows.start)
        try:
            # each block waits until the caller and a helper thread have both
            # started one, so that both run blocks
            ran[mine].set()
            ran[not mine].wait(10)
            time.sleep(1e-3)
            if raiser == ("caller" if mine else "helper"):
                raise FloatingPointError(f"{raiser} block failed")
        finally:
            with lock:
                running[0] -= 1

    error = None
    try:
        _row_blocks(run, ragged_count(n_cols), n_cols)
    except FloatingPointError as raised:
        error = raised
    with lock:
        left, taken = running[0], sorted(started)
    time.sleep(0.05)
    assert ran[True].is_set() and ran[False].is_set()
    return error, left, taken, sorted(started)


def test_an_exception_in_one_block_propagates(monkeypatch):
    # raised in the caller's block or in a helper thread's, it ends the call
    # only once no block runs, and no block starts afterwards
    monkeypatch.setattr(body, "_HELPERS", 2)
    for raiser in ("caller", "helper", None):
        error, left, taken, later = run_blocks_raising_in(raiser)
        assert str(error) == f"{raiser} block failed" if raiser else error is None
        assert left == 0
        assert later == taken
    assert taken == [0, 16, 32, 48]


def test_an_exception_stops_the_hand_out(monkeypatch):
    # the first block to start fails; a block the other thread holds then
    # lingers 50 ms, and that thread takes no block after it: two of the
    # four blocks start at most
    monkeypatch.setattr(body, "_HELPERS", 1)
    lock, failed, started = threading.Lock(), threading.Event(), []

    def run(rows):
        with lock:
            started.append(rows.start)
            first = len(started) == 1
        if first:
            failed.set()
            raise FloatingPointError("first block failed")
        failed.wait(10)
        time.sleep(0.05)

    with pytest.raises(FloatingPointError, match="first block failed"):
        _row_blocks(run, 64, 10 ** 5)     # blocks of 16 rows
    assert len(started) <= 2


def test_every_block_runs_once_on_more_threads_than_cores(monkeypatch):
    # eight helper threads and the caller share one hand-out of 2,001 blocks,
    # switching threads every microsecond
    n_cols = 10 ** 6     # a block of 16 rows
    n_rows = 16 * 2000 + 7
    starts = []
    monkeypatch.setattr(body, "_HELPERS", 8)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        caller = threading.Thread(
            target=_row_blocks, daemon=True,
            args=(lambda rows: starts.append(rows.start), n_rows, n_cols))
        caller.start()
        caller.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not caller.is_alive()
    assert sorted(starts) == list(range(0, n_rows, 16))


def test_a_call_submits_one_task_per_helper_and_none_for_one_block(model,
                                                                   monkeypatch):
    # a call starts one thread per helper it needs, and none for one block
    starts = []

    class Counted(threading.Thread):
        def start(self):
            starts.append(self)
            super().start()

    monkeypatch.setattr(body, "_HELPERS", 2)
    monkeypatch.setattr(threading, "Thread", Counted)
    C, R = model.centers, model.radii
    step = _block_rows(len(C))
    counts = []
    for rows in (1, step, step + 1, ragged_count(len(C))):
        _min_slack(C, R, C[np.arange(rows) % len(C)])
        counts.append(len(starts))
        # and joins them before it returns
        assert not any(thread.is_alive() for thread in starts)
    chord_lengths(model, np.eye(4))
    assert counts == [0, 0, 1, 3]
    assert len(starts) == 3


def test_the_vertex_rows_slack_holds_a_few_megabytes(skeleton):
    # at 64x96 each simplex vertex is tight on about 14,300 balls, so the
    # five rows keep 71,600 survivors in one block; gathered in float64 at
    # once they trace 8.1 MB
    model = build_ball_model(skeleton, (64, 96), 257)
    vertices = model.skeleton.simplex.vertices
    (slack, _), peak = traced_peak(lambda: model.min_slack(vertices))
    assert np.all(np.abs(slack) <= 1e-12)
    assert peak < 5.5e6


# ----------------------------------------------------------------------------
# boundary populations
# ----------------------------------------------------------------------------

def test_population_slices_masks_and_concatenates(model, exact_pop):
    n = len(exact_pop)
    head, tail = exact_pop[:100], exact_pop[100:]
    assert (len(head), len(tail)) == (100, n - 100)
    joined = BoundaryPopulation.concat([head, tail])
    for f in dataclasses.fields(BoundaryPopulation):
        assert np.array_equal(getattr(joined, f.name), getattr(exact_pop, f.name),
                              equal_nan=True)
    mask = piece_labels(model, exact_pop) == "12"
    sub = exact_pop[mask]
    assert len(sub) == int(mask.sum()) > 0
    assert set(piece_labels(model, sub)) == {"12"}
    assert np.array_equal(sub.points, exact_pop.points[mask])
    assert np.array_equal(sub.active, exact_pop.active[mask])
    picked = exact_pop[np.array([7, 3])]
    assert len(picked) == 2
    assert np.array_equal(picked.points, exact_pop.points[[7, 3]])


def test_population_labels_round_trip(model, mixed_pop):
    assert ([piece_code(lab) for lab in PIECE_LABELS]
            == list(range(len(PIECE_LABELS))))
    assert set(PIECE_LABELS) == ALL_PIECE_LABELS
    labels, rows = np.unique(piece_labels(model, mixed_pop), return_inverse=True)
    codes = np.array([piece_code(lab) for lab in labels])
    assert np.array_equal(codes[rows], model.sample_face[mixed_pop.active])


def test_population_rejects_invalid_face_codes():
    # a population holds no piece code; the codes come from piece_code,
    # which has none for a label outside the 25
    for bad in ("6", (1,), (1, 6), (), (1, 2, 3, 4, 5)):
        with pytest.raises(UnclassifiedSample):
            piece_code(bad)


def test_population_parameters_regenerate_the_points(model, simplex,
                                                     exact_pop):
    # a cap sample is its vertex, the center of its active ball, pushed out
    # by the width along a unit direction (p - p_active)/w
    w = model.width
    caps = cap_samples(model, exact_pop)
    assert np.all(caps.active < 5)
    U = cap_directions(model, caps)
    assert np.max(np.abs(np.linalg.norm(U, axis=1) - 1.0)) <= 1e-15
    base = simplex.vertices[caps.active]
    assert np.max(np.abs(base + w * U - caps.points)) <= 1e-16

    # the five vertex samples sit at the vertices, each on the sphere of
    # another vertex's ball
    verts = exact_pop[at_vertex(exact_pop, simplex)]
    assert len(verts) == 5
    nearest = np.linalg.norm(verts.points[:, None] - simplex.vertices[None],
                             axis=2).argmin(axis=1)
    assert sorted(nearest) == list(range(5))
    assert np.all(verts.active < 5) and np.all(verts.active != nearest)
    d = np.linalg.norm(verts.points - model.centers[verts.active], axis=1)
    assert np.max(np.abs(d - w)) <= 1e-12


def test_a_population_row_is_its_point_piece_and_active_ball(model):
    # the piece is the active ball's, model.sample_face[active]
    assert ([f.name for f in dataclasses.fields(BoundaryPopulation)]
            == ["points", "active"])
    pops = [sample_exact_boundary(model, 1000, seed=0),
            ray_cast_boundary(model, unit_directions(np.random.default_rng(0), 100))]
    for pop in pops:
        nbytes = sum(getattr(pop, f.name).nbytes
                     for f in dataclasses.fields(BoundaryPopulation))
        assert nbytes == 40 * len(pop)     # 4 float64 and an intp


def test_exact_population_lies_on_the_model_boundary(model, exact_pop):
    ms, _ = model.min_slack(exact_pop.points)
    assert np.max(np.abs(ms)) <= 1e-9


def test_mixed_population_stays_within_the_grid_residual(model, mixed_pop):
    residual = boundary_residual(model)
    assert residual <= 2e-4
    ms, _ = model.min_slack(mixed_pop.points)
    assert ms.min() >= -1e-9
    assert ms.max() <= residual


def test_population_reaches_all_pieces_and_all_vertices(model, mixed_pop,
                                                        simplex):
    assert set(piece_labels(model, mixed_pop)) == ALL_PIECE_LABELS
    pts = mixed_pop.points
    for v in simplex.vertices:
        assert np.linalg.norm(pts - v, axis=1).min() <= 1e-12


def test_unit_directions_are_normalized_standard_normal_rows():
    U = unit_directions(np.random.default_rng(8), 1000)
    G = np.random.default_rng(8).standard_normal((1000, 4))
    assert np.array_equal(U, G / np.linalg.norm(G, axis=1)[:, None])
    assert np.max(np.abs(np.linalg.norm(U, axis=1) - 1.0)) <= 1e-15
    assert unit_directions(np.random.default_rng(8), 0).shape == (0, 4)


def test_ray_rows_of_the_mixed_population_have_their_own_stream(model):
    n, seed = 2000, 5
    n_ray = 300                                  # the last 15 % of the rows
    pop = sample_theta(model, n, seed=seed)
    rays = pop[n - n_ray:]
    # each ray row lies along its direction from the interior point (the
    # subtraction p - g costs a few ulps), and casting the replayed
    # directions gives the rows bit for bit
    own = unit_directions(np.random.default_rng([seed, 1]), n_ray)
    U = rays.points - model.interior_point
    U /= np.linalg.norm(U, axis=1)[:, None]
    assert np.max(np.abs(U - own)) <= 4e-15
    cast = ray_cast_boundary(model, own)
    for f in dataclasses.fields(BoundaryPopulation):
        assert np.array_equal(getattr(cast, f.name), getattr(rays, f.name))

    again = sample_theta(model, n, seed=seed)
    for f in dataclasses.fields(BoundaryPopulation):
        assert np.array_equal(getattr(again, f.name), getattr(pop, f.name))

    # the exact rows are the exact sampler's own, and the rays do not replay
    # its stream
    exact = sample_exact_boundary(model, n - n_ray, seed=seed)
    assert np.array_equal(pop[:n - n_ray].points, exact.points)
    replay = unit_directions(np.random.default_rng(seed), n_ray)
    gap = np.linalg.norm(U[:, None] - replay[None], axis=2)
    assert gap.min() > 1e-6


# ----------------------------------------------------------------------------
# the cap certificate: the fan of each cap's rim mesh about its axis
# ----------------------------------------------------------------------------

@pytest.fixture(scope="module", params=[1.5, 2.0])
def scaled_skeleton(request):
    return skeleton_at(request.param)


def skeleton_at(a_sq):
    c = compute_model_constants(a_sq)
    s = build_simplex(c)
    return build_focal_skeleton(c, s, build_symmetry_group(s))


@pytest.fixture(scope="module")
def scaled_caps(scaled_skeleton):
    """The five cap cones of scaled_skeleton, cap i at index i - 1."""
    return [_cap_cone(scaled_skeleton, i) for i in range(1, 6)]


def gnomonic(cone, U):
    """Gnomonic coordinates (u.E)/(u.a) of the rows u of U about a cap axis."""
    a, E = cone[:2]
    return (U @ E) / (U @ a)[:, None]


def cone_floor(cone):
    """The least cosine to the axis over a cap's fan: its farthest node's."""
    Y = cone[2]
    return 1.0 / np.sqrt(1.0 + np.max(np.einsum("ij,ij->i", Y, Y)))


def cone_proposals(cone, count, seed):
    """count unit directions, uniform within the fan's least cosine to the
    axis: the angle phi to it by rejection from the sin^2 phi law, the
    direction across it from a 3-D normal draw."""
    a, E = cone[:2]
    top = np.arccos(cone_floor(cone))
    rng = np.random.default_rng(seed)
    phi, law = top * rng.random(count), rng.random(count) * np.sin(top) ** 2
    phi = phi[law <= np.sin(phi) ** 2]
    V = rng.standard_normal((len(phi), 3))
    V /= np.linalg.norm(V, axis=1)[:, None]
    return np.cos(phi)[:, None] * a + np.sin(phi)[:, None] * (V @ E.T)


def in_fan(cone, U, tol=1e-12):
    """Rows u of U in a cap's fan, found apart from the sampler: u.a > 0 and
    the gnomonic point p has barycentric coordinates mu >= 0, sum mu <= 1 on
    the nodes of some triangle, so that it lies in that triangle's
    tetrahedron (0, Y_a, Y_b, Y_c)."""
    _, _, Y, T, _ = cone
    # p = mu Y[T[f]], so mu_k = p . B[f, :, k] with B[f] = inv(Y[T[f]])
    B = np.linalg.inv(Y[T])
    B = [B[:, :, 0].T, B[:, :, 1].T, B[:, :, 2].T, B.sum(axis=2).T]
    P = gnomonic(cone, U)
    inside = np.empty(len(U), dtype=bool)
    for lo in range(0, len(U), 1024):
        mu0, mu1, mu2, total = (P[lo:lo + 1024] @ Bk for Bk in B)
        inside[lo:lo + 1024] = np.any((mu0 >= -tol) & (mu1 >= -tol) & (mu2 >= -tol)
                                      & (total <= 1.0 + tol), axis=1)
    return inside & (U @ cone[0] > 0.0)


def cap_measure(theta):
    """Measure of a cap of angular radius theta on the unit 3-sphere."""
    return 2.0 * np.pi * (theta - np.sin(theta) * np.cos(theta))


def fan_solid_angle(cone, seed):
    """The fan's measure on the unit 3-sphere: its volume times the mean of
    the chart's Jacobian (1 + |Y|^2)^-2 over 2^18 uniform fan points."""
    _, _, Y, T, cum = cone
    rng = np.random.default_rng(seed)
    f = np.searchsorted(cum, cum[-1] * rng.random(1 << 18))
    L = rng.dirichlet(np.ones(4), size=1 << 18)[:, 1:]
    P = np.einsum("ik,ikj->ij", L, Y[T[f]])
    return cum[-1] * np.mean((1.0 + np.einsum("ij,ij->i", P, P)) ** -2)


def test_every_rim_point_lies_on_its_hull(scaled_caps):
    # the projected rim is in convex position, as the normal cone is convex:
    # every node lies on a facet plane of scipy's hull of the nodes
    for _, _, Y, _, _ in scaled_caps:
        hull = ConvexHull(Y)
        A, b = hull.equations[:, :-1], hull.equations[:, -1]
        assert np.max(np.abs(np.max(Y @ A.T + b, axis=1))) <= 1e-12


def test_every_cap_fan_is_certified_across_a_sq():
    # the mesh is a closed, consistently oriented sphere with positive fan
    # tetrahedra about the axis at each a^2 (_cap_cone raises otherwise)
    for a_sq in (1.4, 1.49, 1.5, 1.51, 2.0):
        sk = skeleton_at(a_sq)
        for i in range(1, 6):
            _, _, Y, T, cum = _cap_cone(sk, i)
            assert len(T) == 2 * len(Y) - 4
            assert np.min(np.diff(cum, prepend=0.0)) > 1e-5


def test_a_broken_rim_mesh_raises(skeleton):
    a, E, Y, T = _cap_mesh(skeleton, 1)
    assert np.all(np.diff(_closed_fan(Y, T), prepend=0.0) > 0.0)
    # one triangle reversed: its edges run the same way as its neighbours'
    # and its fan tetrahedron turns negative
    flipped = T.copy()
    flipped[100] = flipped[100][::-1]
    with pytest.raises(NonConvexCap, match="closed, oriented sphere"):
        _closed_fan(Y, flipped)
    # one node pulled through the axis: the mesh stays closed and oriented,
    # but the fan tetrahedra at that node turn negative
    pulled = Y.copy()
    pulled[T[100, 0]] *= -0.5
    with pytest.raises(NonConvexCap, match="not positive"):
        _closed_fan(pulled, T)
    # a triangle dropped leaves edges without their reverse
    with pytest.raises(NonConvexCap, match="closed, oriented sphere"):
        _closed_fan(Y, T[1:])


def test_the_fan_covers_the_cap_measure_once(model):
    # ROADMAP F5's cap measure at a^2 = 3/2, as a fraction of 2 pi^2; the fan
    # is inscribed in the cone, so it may fall short by a little and never
    # exceed it.  A double cover or a lost patch fails the bounds.
    exact = 0.0151831032 * 2.0 * np.pi ** 2
    for i, cone in enumerate(model.caps, start=1):
        assert 0.995 <= fan_solid_angle(cone, seed=60 + i) / exact <= 1.0


def test_hull_accepted_cap_points_lie_in_the_fine_model(scaled_skeleton,
                                                        scaled_caps):
    fine = build_ball_model(scaled_skeleton, patch_grid=(64, 96), arc_n=256)
    V = scaled_skeleton.simplex.vertices
    rng = np.random.default_rng(11)
    for i in range(1, 6):
        U = _cap_directions(scaled_caps[i - 1], 400, rng)
        assert len(U) == 400
        slack, _ = fine.min_slack(V[i - 1] + fine.width * U)
        assert slack.min() >= -1e-9


def test_the_hull_holds_every_direction_the_ball_margin_accepts(
        scaled_skeleton, scaled_caps):
    # the reference is the margin rule the fan replaced: the cap point is
    # within the width of the other vertices and keeps slack >= 2e-4
    # against every face ball of a 16x24 model
    m = build_ball_model(scaled_skeleton, patch_grid=(16, 24), arc_n=64)
    V, w = scaled_skeleton.simplex.vertices, m.width
    for i in range(1, 6):
        U = cone_proposals(scaled_caps[i - 1], 8000, seed=i)
        Q = V[i - 1] + w * U
        others = np.delete(V, i - 1, axis=0)
        reuleaux = np.all(np.linalg.norm(Q[:, None, :] - others[None], axis=2)
                          <= w - 1e-7, axis=1)
        slack, _ = _min_slack(m.centers[5:], m.radii[5:], Q)
        reference = reuleaux & (slack >= 2e-4)
        assert reference.sum() >= 50
        assert np.all(in_fan(scaled_caps[i - 1], U[reference]))


def test_the_hull_holds_a_quarter_of_the_cone(scaled_caps):
    # the fan's measure against that of the cap within its least cosine
    for i, cone in enumerate(scaled_caps, start=1):
        whole = cap_measure(np.arccos(cone_floor(cone)))
        assert fan_solid_angle(cone, seed=20 + i) >= 0.25 * whole


def test_each_cap_sample_lies_on_its_own_cap(model, exact_pop):
    # a cap sample is its vertex pushed out along a unit direction (checked
    # with the population parameters): the direction lies in that vertex's
    # cap, and the sample carries the cap's piece
    caps = cap_samples(model, exact_pop)
    for i in range(1, 6):
        cap = caps[caps.active == i - 1]
        assert len(cap) > 200
        assert np.all(model.sample_face[cap.active] == piece_code(dual_label((i,))))
        assert np.all(in_fan(model.caps[i - 1], cap_directions(model, cap)))


def gnomonic_hull(skeleton, cone, i, base):
    """scipy's hull of the base patch points carried to the four patches
    without i and projected from p_i, in the gnomonic coordinates of the
    cap cone."""
    p = skeleton.simplex.vertices[i - 1]
    rim = np.concatenate([f.generator.apply(base) - p
                          for f in skeleton.triangle_faces() if i not in f.label])
    return ConvexHull(gnomonic(cone, rim))


def in_hull(hull, cone, U, tol=1e-12):
    """Rows of U whose gnomonic points lie within tol of every hull plane:
    one product per chunk of rows, 2^18 (row, plane) pairs at a time, so
    that each product stays in cache whatever the hull's plane count."""
    Y = gnomonic(cone, U)
    A, b = hull.equations[:, :-1], hull.equations[:, -1]
    step = max(1, 2 ** 18 // len(b))
    return np.concatenate([np.all(Y[lo:lo + step] @ A.T <= tol - b, axis=1)
                           for lo in range(0, len(Y), step)])


def test_every_rim_mesh_edge_lies_in_two_triangles(scaled_skeleton):
    for i in range(1, 6):
        _, _, Y, T = _cap_mesh(scaled_skeleton, i)
        edges = np.sort(np.concatenate([T[:, [0, 1]], T[:, [1, 2]], T[:, [2, 0]]]),
                        axis=1)
        _, counts = np.unique(edges, axis=0, return_counts=True)
        assert np.all(counts == 2)
        # a closed triangulated sphere: F = 2 V - 4
        assert len(T) == 2 * len(Y) - 4


def test_the_axis_lies_strictly_inside_every_rim_plane(scaled_caps):
    for cone in scaled_caps:
        a, _, Y, T, cum = cone
        # the axis is the fan's apex 0: its distance inside the plane of a
        # triangle is 6 vol / |(Y_b - Y_a) x (Y_c - Y_a)|
        N = np.cross(Y[T[:, 1]] - Y[T[:, 0]], Y[T[:, 2]] - Y[T[:, 0]])
        off = 6.0 * np.diff(cum, prepend=0.0) / np.linalg.norm(N, axis=1)
        assert off.min() > 0.1
        # the antipode projects onto the axis too, but lies outside the cone
        assert list(in_fan(cone, np.array([a, -a]))) == [True, False]


def test_the_rim_mesh_has_no_more_planes_than_the_old_rim_hull(
        scaled_skeleton, scaled_caps):
    # the hull of the projected 16x24 patch grid was the certificate before
    # the rim mesh; on the same directions the fan holds at least 99 % of
    # what that hull did
    old_grid = base_patch_grid(scaled_skeleton.constants, 16, 24)
    for i, cone in enumerate(scaled_caps, start=1):
        old = gnomonic_hull(scaled_skeleton, cone, i, old_grid)
        assert len(cone[3]) <= len(old.simplices)
        V = cone_proposals(cone, 1 << 14, seed=40)
        assert in_fan(cone, V).sum() >= 0.99 * in_hull(old, cone, V).sum()


def test_mesh_accepted_directions_lie_in_a_finer_rim_hull(scaled_skeleton,
                                                          scaled_caps):
    # the grid of 48 steps in s and 96 angles holds every node of the 7x24
    # mesh (6 steps, 24 angles), so its hull holds the fan's draws
    fine = base_patch_mesh(scaled_skeleton.constants, 49, 96)[0]
    rng = np.random.default_rng(41)
    for i, cone in enumerate(scaled_caps, start=1):
        U = _cap_directions(cone, 2000, rng)
        assert np.all(in_hull(gnomonic_hull(scaled_skeleton, cone, i, fine),
                              cone, U))


def test_each_cap_mesh_is_built_once_per_model(skeleton, monkeypatch):
    model = build_ball_model(skeleton, patch_grid=(16, 24), arc_n=64)
    built = []

    def counting_mesh(skeleton, i):
        built.append(i)
        return _cap_mesh(skeleton, i)
    monkeypatch.setattr(body, "_cap_mesh", counting_mesh)
    first = sample_exact_boundary(model, 2000, seed=1)
    again = sample_exact_boundary(model, 2000, seed=1)
    sample_theta(model, 2000, seed=2)
    assert sorted(built) == [1, 2, 3, 4, 5]
    assert np.array_equal(first.points, again.points)
    assert model.caps is model.caps


def test_a_perturbed_model_keeps_the_skeleton_caps(model):
    # verify --perturb scales the radii with dataclasses.replace; the copy
    # builds its caps from the same skeleton, so its cap and vertex rows (the
    # rows active on a vertex ball) are the true ones bit for bit, while
    # every phi row moves with the radii
    scaled = dataclasses.replace(model, radii=model.radii * (1 + 1e-3))
    assert scaled.skeleton is model.skeleton
    true, moved = (sample_exact_boundary(m, 5000, seed=9) for m in (model, scaled))
    assert np.array_equal(true.active, moved.active)
    on_vertex = true.active < 5
    assert on_vertex.sum() > 800
    assert np.array_equal(true.points[on_vertex], moved.points[on_vertex])
    assert np.all(np.any(true.points[~on_vertex] != moved.points[~on_vertex],
                         axis=1))


def test_cap_directions_follow_the_proposal_law_inside_the_mesh(model):
    # the angle law of the fan draws equals that of uniform proposals within
    # the fan's least cosine that land in scipy's hull of the rim nodes: the
    # fan fills 99.9 % of that hull, less than the test resolves
    n = 200000
    cone = model.caps[0]
    hull = ConvexHull(cone[2])
    mine = _cap_directions(cone, n, np.random.default_rng(42)) @ cone[0]
    ref = []
    for seed in range(43, 143):
        U = cone_proposals(cone, 1 << 19, seed)
        ref.append(U[in_hull(hull, cone, U)] @ cone[0])
        if sum(map(len, ref)) >= n:
            break
    ref = np.concatenate(ref)[:n]
    assert len(ref) == n
    assert ks_2samp(mine, ref).pvalue > 1e-3


# ----------------------------------------------------------------------------
# binormals, width, diameter
# ----------------------------------------------------------------------------

def test_cap_samples_pair_with_the_opposite_vertex(model, simplex, exact_pop):
    caps = cap_samples(model, exact_pop)
    assert len(caps) > 1000
    caps = caps[:300]
    partners = binormal_partner(model, caps)
    for p, face, partner in zip(caps.points, piece_labels(model, caps), partners):
        (i,) = set(range(1, 6)) - {int(ch) for ch in face}
        assert np.allclose(partner, simplex.vertices[i - 1], atol=1e-12, rtol=0)
        assert abs(np.linalg.norm(p - partner) - model.width) <= 1e-12
    verts = exact_pop[at_vertex(exact_pop, simplex)]
    assert len(verts) == 5
    assert np.all(np.char.str_len(piece_labels(model, verts)) == 4)
    assert np.allclose(binormal_partner(model, verts),
                       model.centers[verts.active], atol=1e-12, rtol=0)


def classify_on_model(model, q):
    """One-sample population for a point known to lie on the model boundary."""
    d = np.linalg.norm(model.centers - q, axis=1)
    tight = np.flatnonzero(np.abs(model.radii - d) <= 1e-9)
    assert len(tight) == 1
    j = int(tight[0])
    return BoundaryPopulation(points=q[None, :], active=np.array([j]))


def test_wedge_partners_are_dual_and_involutive(model, exact_pop):
    wedges = phi_samples(model, exact_pop)[:500]
    partners = binormal_partner(model, wedges)
    for p, face, q in zip(wedges.points, piece_labels(model, wedges), partners):
        assert abs(np.linalg.norm(p - q) - model.width) <= 1e-12
        back = classify_on_model(model, q)
        assert set(piece_labels(model, back)[0]) == set("12345") - set(face)
        assert np.linalg.norm(binormal_partner(model, back)[0] - p) <= 1e-9


def test_partner_rejects_unlabeled_samples(model):
    # a sample's piece is its active ball's, and there is no code for an
    # unknown label; a sample at its active center has no partner direction
    for bad_face in ("99", "1", ""):
        with pytest.raises(UnclassifiedSample):
            piece_code(bad_face)
    at_center = BoundaryPopulation(model.centers[[7]], np.array([7]))
    with pytest.raises(UnclassifiedSample):
        binormal_partner(model, at_center)


def test_width_in_every_coordinate_direction(mixed_pop):
    for k in range(4):
        u = np.zeros(4)
        u[k] = 1.0
        assert abs(width_in_direction(mixed_pop, u) - 0.2739515) <= 1e-3


def test_width_along_certified_binormals(model, exact_pop, constants):
    # aligning u with an exact sample-partner pair certifies the lower
    # bound; the upper bound holds because no two body points are farther
    wedges = phi_samples(model, exact_pop)[:5]
    partners = binormal_partner(model, wedges)
    aug = BoundaryPopulation.concat(
        [exact_pop] + [classify_on_model(model, q) for q in partners])
    for p, q in zip(wedges.points, partners):
        w = width_in_direction(aug, unit(p - q))
        assert constants.width - 1e-9 <= w <= constants.width + 1e-9


def test_width_is_antipodally_symmetric(mixed_pop):
    rng = np.random.default_rng(5)
    for _ in range(5):
        u = unit(rng.standard_normal(4))
        assert width_in_direction(mixed_pop, u) == width_in_direction(mixed_pop, -u)


def test_width_input_validation(exact_pop):
    with pytest.raises(TooFewSamples):
        width_in_direction(exact_pop[:9999], np.array([1.0, 0, 0, 0]))
    assert width_in_direction(exact_pop[:10000], np.array([1.0, 0, 0, 0])) > 0
    with pytest.raises(ValueError):
        width_in_direction(exact_pop, np.array([1.0, 1.0, 0, 0]))


def test_diameter_of_the_exact_population(model, exact_pop, constants):
    dia = diameter_check(model, exact_pop, pairs=10 ** 6, seed=5)
    assert constants.width - 1e-9 <= dia <= constants.width + 1e-9
    # the simplex edge p1 p2 realizes it
    p1, p2 = model.centers[0], model.centers[1]
    assert abs(np.linalg.norm(p1 - p2) - constants.width) <= 1e-12


def one_shot_diameter(model, samples, pairs, seed):
    """diameter_check's draws, each 200,000-pair chunk measured at once by
    np.linalg.norm."""
    pts = samples.points
    best = float(np.max(np.linalg.norm(pts - binormal_partner(model, samples),
                                       axis=1)))
    rng = np.random.default_rng(seed)
    for done in range(0, pairs, 200000):
        m = min(200000, pairs - done)
        ia = rng.integers(0, len(pts), size=m)
        ib = rng.integers(0, len(pts), size=m)
        best = max(best, float(np.max(np.linalg.norm(pts[ia] - pts[ib], axis=1))))
    return best


@pytest.mark.parametrize("pairs", [5000, 437501, 10 ** 6])
def test_the_chunked_diameter_sweep_equals_the_one_shot_reference(
        model, exact_pop, pairs):
    # 5,000 pairs fit in one sub-chunk; 437,501 is a multiple of neither the
    # draw chunk nor the sub-chunk.  Pushed 2 % out from the centroid, the
    # points make the random pairs, not the partners, hold the maximum.
    g = model.interior_point
    pushed = dataclasses.replace(exact_pop, points=g + 1.02 * (exact_pop.points - g))
    for pop in (exact_pop, pushed):
        for seed in (5, 6):
            assert (diameter_check(model, pop, pairs=pairs, seed=seed)
                    == one_shot_diameter(model, pop, pairs, seed))
    assert (one_shot_diameter(model, pushed, pairs, 5)
            > one_shot_diameter(model, pushed, 0, 5))


def test_the_exact_sampler_holds_one_copy_of_its_rows(model):
    # 2e5 exact rows: the arrays are filled in place, so the peak is the
    # output plus one cap's draws (about 1.3 MB), where joining the 26 parts
    # would hold every row twice
    model.caps
    pop, peak = traced_peak(lambda: sample_exact_boundary(model, 2 * 10 ** 5, seed=5))
    nbytes = sum(getattr(pop, f.name).nbytes
                 for f in dataclasses.fields(BoundaryPopulation))
    assert len(pop) == 2 * 10 ** 5
    assert peak <= 1.35 * nbytes


def test_the_diameter_sweep_holds_a_few_megabytes(model, exact_pop):
    # the draws of one chunk (2 x 1.6 MB of indices) and one sub-chunk's
    # gathered rows, where whole chunks would gather 2 x 6.4 MB
    _, peak = traced_peak(lambda: diameter_check(model, exact_pop, pairs=10 ** 6,
                                                 seed=5))
    assert peak <= 6e6


def gathered_cap_directions(cone, count, rng):
    """_cap_directions as it gathered each proposal's tetrahedron whole:
    one (m, 3, 3) gather Y[T[f]] and one einsum."""
    a, E, Y, T, cum = cone
    out, need = [], count
    while need > 0:
        m = 3 * need // 2 + 64
        f = np.searchsorted(cum, cum[-1] * rng.random(m))
        L = rng.exponential(size=(m, 4))
        P = np.einsum("ik,ikj->ij", L[:, 1:], Y[T[f]]) / L.sum(axis=1)[:, None]
        keep = rng.random(m) * (1.0 + body._dot(P, P)) ** 2 <= 1.0
        U = a + P[keep][:need] @ E.T
        out.append(U / np.linalg.norm(U, axis=1)[:, None])
        need -= len(U)
    return np.concatenate(out)


@pytest.mark.parametrize("seed", range(10))
def test_cap_draws_equal_the_whole_tetrahedron_gather(model, seed):
    # one (m, 3) gather per corner, accumulated in corner order, rounds as
    # the einsum over the (m, 3, 3) gather did
    for cone in model.caps:
        for count in (1, 7, 1000, 36000):
            got = _cap_directions(cone, count, np.random.default_rng(seed))
            want = gathered_cap_directions(cone, count, np.random.default_rng(seed))
            assert np.array_equal(got, want)


def test_one_cap_draw_holds_a_few_times_its_output(model):
    # the 7,199 directions of one cap in a 2e5-row exact sample: 5.6 times
    # their bytes here, 6.4 times with the (m, 3, 3) gather
    cone = model.caps[0]
    U, peak = traced_peak(lambda: _cap_directions(cone, 7199,
                                                  np.random.default_rng(5)))
    assert len(U) == 7199
    assert peak <= 6.0 * U.nbytes


def exact_boundary_parts(model, n, seed):
    """sample_exact_boundary as one population per piece, cap and the
    vertices: the same draws in the same order."""
    rng = np.random.default_rng(seed)
    skeleton, w = model.skeleton, model.width
    V = skeleton.simplex.vertices
    n_caps = max(int(round(0.18 * n)) - 5, 0)
    n_phi = max(n - n_caps - 5, 0)
    parts = []
    pieces = skeleton.triangle_faces() + skeleton.edge_faces()
    for k, face in enumerate(pieces):
        cnt = n_phi // len(pieces) + (1 if k < n_phi % len(pieces) else 0)
        if cnt == 0:
            continue
        dual = dual_label(face.label)
        on_patch = face.kind == "triangle-patch"
        xs = model.face_slices[face.label if on_patch else dual]
        ys = model.face_slices[dual if on_patch else face.label]
        xi = rng.integers(xs.start, xs.stop, size=cnt)
        yi = rng.integers(ys.start, ys.stop, size=cnt)
        X, Y = model.centers[xi], model.centers[yi]
        if on_patch:
            P, active = body._envelope(X, Y, w - model.radii[xi]), yi
        else:
            P, active = body._envelope(Y, X, w - model.radii[yi]), xi
        parts.append(BoundaryPopulation(P, active))
    for i in range(1, 6):
        cnt = n_caps // 5 + (1 if i <= n_caps % 5 else 0)
        if cnt:
            U = _cap_directions(model.caps[i - 1], cnt, rng)
            parts.append(BoundaryPopulation(V[i - 1] + w * U, np.full(cnt, i - 1)))
    parts.append(BoundaryPopulation(V[:n], np.array([1, 0, 0, 0, 0])[:n]))
    return parts


@pytest.mark.parametrize("n", [0, 1, 4, 5, 6, 27, 1003])
def test_the_exact_sampler_equals_its_parts_joined(model, n):
    # phi pieces, then caps, then vertices; below five samples, the first n
    # vertices alone.  The sampler's blocks are the parts, one by one.
    parts = exact_boundary_parts(model, n, seed=4)
    blocks = list(exact_boundary_blocks(model, n, seed=4))
    assert len(blocks) == len(parts)
    for block, part in zip(blocks, parts):
        assert np.array_equal(block.points, part.points)
        assert np.array_equal(block.active, part.active)
    pop = sample_exact_boundary(model, n, seed=4)
    ref = BoundaryPopulation.concat(parts)
    assert len(pop) == n
    for f in dataclasses.fields(BoundaryPopulation):
        got, want = getattr(pop, f.name), getattr(ref, f.name)
        assert got.dtype == want.dtype
        assert np.array_equal(got, want)


@pytest.mark.parametrize("ray_rows", [7, 2 ** 13])
def test_the_mixed_population_is_its_exact_rows_and_one_ray_draw(
        model, monkeypatch, ray_rows):
    # the ray rows are drawn and cast in blocks of _RAY_ROWS; drawn in
    # chunks, the ray stream gives the rows of its one draw bit for bit
    n, seed, n_ray = 20000, 5, 3000
    one = unit_directions(np.random.default_rng([seed, 1]), n_ray)
    rng = np.random.default_rng([seed, 1])
    chunked = [unit_directions(rng, min(ray_rows, n_ray - k))
               for k in range(0, n_ray, ray_rows)]
    assert np.array_equal(np.concatenate(chunked), one)
    monkeypatch.setattr(body, "_RAY_ROWS", ray_rows)
    pop = sample_theta(model, n, seed=seed)
    ref = BoundaryPopulation.concat([
        sample_exact_boundary(model, n - n_ray, seed=seed),
        ray_cast_boundary(model, one)])
    for f in dataclasses.fields(BoundaryPopulation):
        got, want = getattr(pop, f.name), getattr(ref, f.name)
        assert got.dtype == want.dtype
        assert np.array_equal(got, want)


@pytest.fixture(scope="module")
def sampler_models(skeleton):
    # the CLI's 8x12 and 16x24 models (arc counts 33 and 65)
    return {"8x12": build_ball_model(skeleton, patch_grid=(8, 12), arc_n=33),
            "16x24": build_ball_model(skeleton, patch_grid=(16, 24), arc_n=65)}


@pytest.mark.parametrize("grid", ["8x12", "16x24"])
@pytest.mark.parametrize("n", [1, 7, 8193])
def test_the_sampler_blocks_are_populations_joined_into_sample_theta(
        sampler_models, grid, n):
    # exact and ray-cast blocks alike are populations, and joined they are
    # sample_theta's rows, field for field
    m = sampler_models[grid]
    blocks = list(boundary_blocks(m, n, seed=3))
    assert all(type(block) is BoundaryPopulation for block in blocks)
    joined, pop = BoundaryPopulation.concat(blocks), sample_theta(m, n, seed=3)
    assert len(pop) == n
    for f in dataclasses.fields(BoundaryPopulation):
        got, want = getattr(joined, f.name), getattr(pop, f.name)
        assert got.dtype == want.dtype
        assert np.array_equal(got, want)


# ----------------------------------------------------------------------------
# structural invariants
# ----------------------------------------------------------------------------

def test_moved_samples_stay_on_the_boundary(model, group, exact_pop):
    pts = exact_pop[:2000].points
    for motion in group:
        ms, _ = model.min_slack(motion.apply(pts))
        assert ms.min() >= -1e-9
        assert ms.max() <= 1e-9


def test_each_wedge_sample_has_exactly_one_active_ball(model, exact_pop):
    P = phi_samples(model, exact_pop).points
    for lo in range(0, len(P), 4096):
        Q = P[lo:lo + 4096]
        d = np.linalg.norm(Q[:, None, :] - model.centers[None, :, :], axis=2)
        counts = np.sum(np.abs(model.radii[None, :] - d) <= 1e-9, axis=1)
        assert np.all(counts == 1)


def test_boundary_displacement_shrinks_quadratically(skeleton):
    disp = ray_displacements(
        skeleton, [((16, 24), 32), ((32, 48), 64), ((64, 96), 128)],
        probes=500, seed=7)
    assert disp[0] > disp[1]
    assert 3.0 <= disp[0] / disp[1] <= 5.0


def test_representations_cross_validate_at_two_resolutions(model, model_fine,
                                                           skeleton,
                                                           constants):
    resid_coarse = boundary_residual(model, probes=256, seed=0)
    resid_fine = boundary_residual(model_fine, probes=256, seed=0)
    assert resid_fine <= resid_coarse + 1e-12
    rng = np.random.default_rng(13)
    for patch in skeleton.triangle_faces():
        arc = skeleton.face(dual_label(patch.label))
        X = patch.generator.apply(_random_patch_points(constants, 10, rng))
        Y = arc.generator.apply(_random_arc_points(constants, 10, rng))
        for x, y in zip(X, Y):
            for p in (phi1(patch, arc, x, y), phi2(patch, arc, x, y)):
                s_c, _ = model.min_slack(p)
                s_f, _ = model_fine.min_slack(p)
                assert abs(s_c) <= resid_coarse
                assert abs(s_f) <= resid_fine
