"""Tests for the embedded simplex, its symmetry group, and the curved skeleton.

The closure and consistency checks here are the load-bearing ones: they
confirm that transported edge arcs really do lie on the base hyperboloid
(only at a^2 = 3/2), that patch boundaries are exactly the three adjacent
arcs, and that the elliptic and hyperbolic radius laws agree where chains
meet.  Expected numbers come from tests/frozen_values.py.
"""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq
from scipy.spatial import cKDTree

from peabody4d.focal import OffArc, base_patch_contains, patch_cut_planes
from peabody4d.geometry import (
    ellipse_residual,
    hyperboloid_point,
    hyperboloid_residual,
    isometry_from_vertex_permutation,
)
from peabody4d.numerics import compute_model_constants
from peabody4d.skeleton import (
    base_arc_points,
    base_patch_grid,
    base_patch_grid_params,
    base_patch_mesh,
    base_patch_rim,
    build_focal_skeleton,
    build_simplex,
    build_symmetry_group,
    dual_label,
    radius_consistency_residual,
    rotation_closure_check,
    tangent_slopes,
)

from frozen_values import FROZEN

ALL_PERMS = list(itertools.permutations(range(1, 6)))
EDGES = list(itertools.combinations(range(1, 6), 2))


def hausdorff(A, B):
    """Symmetric sampled Hausdorff distance between two point clouds."""
    da, _ = cKDTree(B).query(A)
    db, _ = cKDTree(A).query(B)
    return max(da.max(), db.max())


def cut_curve_points(c, plane, n=101):
    """Sheet-and-plane intersection points, swept by x.

    Independent reconstruction of a patch boundary arc: for each x the cut
    plane meets the (y, w) circle of the right sheet in two points found by
    plain circle/line intersection.  No motion of the group is involved.
    Sweeping starts slightly above the tangency x so the square root stays
    well conditioned.
    """
    nrm, p0 = plane
    ny, nw = nrm[1], nrm[3]
    s = math.hypot(ny, nw)

    def gap(x):
        rho = math.sqrt((c.a_sq - 1.0) * (x * x - 1.0))
        return rho - abs(nrm @ p0 - nrm[0] * x) / s

    lo = brentq(gap, 1.0, c.x0, xtol=1e-15)
    u = np.array([ny, nw]) / s
    uperp = np.array([-u[1], u[0]])
    out = []
    for x in np.linspace(lo + 1e-6, c.x0, n):
        rho = math.sqrt((c.a_sq - 1.0) * (x * x - 1.0))
        d = (nrm @ p0 - nrm[0] * x) / s
        half = math.sqrt(max(rho * rho - d * d, 0.0))
        for sgn in (1.0, -1.0):
            yw = d * u + sgn * half * uperp
            out.append([x, yw[0], 0.0, yw[1]])
    return np.array(out), lo


# ============================================================================
# simplex
# ============================================================================

def test_edge_lengths(constants, simplex):
    V = simplex.vertices
    edges = [np.linalg.norm(V[i] - V[j])
             for i, j in itertools.combinations(range(5), 2)]
    assert max(edges) - min(edges) <= 1e-12
    assert abs(edges[0] - FROZEN["width"]) <= 1e-12


def test_edge_length_identity(constants, simplex):
    # |p3 - p4|^2 = 3 y0^2 = 4 z1^2: the embedding makes the in-plane
    # triangle edge match the vertical edges exactly
    V = simplex.vertices
    d34_sq = float(np.sum((V[2] - V[3]) ** 2))
    assert abs(d34_sq - 3.0 * constants.y0 ** 2) <= 1e-12
    assert abs(3.0 * constants.y0 ** 2 - 4.0 * constants.z1 ** 2) <= 1e-12


def test_centroid(constants, simplex):
    g = simplex.centroid
    gx = (2.0 * constants.x1 + 3.0 * constants.x0) / 5.0
    assert np.allclose(g, [gx, 0.0, 0.0, 0.0], atol=1e-14)
    assert abs(g[0] - FROZEN["g_x"]) <= 1e-12
    assert abs(g[0] - math.sqrt(6.0 / 5.0)) <= 1e-12


def test_centroid_to_vertex(constants, simplex):
    """All five circumradii equal the regular-simplex value 2 z1 sqrt(2/5)."""
    expected = 2.0 * constants.z1 * math.sqrt(2.0 / 5.0)
    for v in simplex.vertices:
        d = np.linalg.norm(v - simplex.centroid)
        assert abs(d - expected) <= 1e-12
        assert abs(d - FROZEN["centroid_to_vertex"]) <= 1e-12


def test_axis_duality(simplex):
    """Each axis line joins an edge midpoint, the complementary barycenter,
    and the centroid."""
    V = simplex.vertices

    def distance(p, point, u):
        d = p - point
        return np.linalg.norm(d - (d @ u) * u)
    for (i, j), u in zip(EDGES, simplex.axes):
        mid = 0.5 * (V[i - 1] + V[j - 1])
        bary = V[[k - 1 for k in dual_label((i, j))]].mean(axis=0)
        assert abs(np.linalg.norm(u) - 1.0) <= 1e-14
        assert distance(mid, mid, u) <= 1e-12
        assert distance(bary, mid, u) <= 1e-12
        assert distance(simplex.centroid, mid, u) <= 1e-12
    # sanity: a vertex of the edge is not on its own axis
    assert distance(V[3], 0.5 * (V[3] + V[4]), simplex.axes[EDGES.index((4, 5))]) > 0.1


def test_dual_axis_direction(constants, simplex):
    # the {4,5} axis direction is (2/3, sqrt5/3, 0, 0) for every parameter
    d = simplex.axes[EDGES.index((4, 5))]
    target = np.array([2.0 / 3.0, math.sqrt(5.0) / 3.0, 0.0, 0.0])
    assert np.allclose(d, target, atol=1e-13) or np.allclose(d, -target, atol=1e-13)


# ============================================================================
# symmetry group
# ============================================================================

def test_group_size(group):
    assert len(group) == 120


def test_motions_permute_vertices(simplex, group):
    V = simplex.vertices
    for m, perm in zip(group, ALL_PERMS):
        img = m.apply(V)
        expect = V[[p - 1 for p in perm]]
        assert np.max(np.abs(img - expect)) <= 1e-10


def test_group_closed_under_composition(group):
    rng = np.random.default_rng(7)
    for _ in range(40):
        i, j = rng.integers(0, 120, size=2)
        sigma, tau = ALL_PERMS[i], ALL_PERMS[j]
        comp = tuple(sigma[tau[k] - 1] for k in range(5))
        m = group[i].compose(group[j])
        expect = group[ALL_PERMS.index(comp)]
        assert np.max(np.abs(m.linear - expect.linear)) <= 1e-9
        assert np.max(np.abs(m.translation - expect.translation)) <= 1e-9


def test_orbit_of_midpoint(simplex, group):
    """The orbit of p12 is exactly the ten edge midpoints."""
    V = simplex.vertices
    mids = np.array([0.5 * (V[i - 1] + V[j - 1]) for i, j in EDGES])
    orbit = np.array([m.apply(mids[0]) for m in group])
    d, _ = cKDTree(mids).query(orbit)
    assert d.max() <= 1e-9
    # and the orbit reaches all ten
    d2, _ = cKDTree(orbit).query(mids)
    assert d2.max() <= 1e-9


# ============================================================================
# base faces
# ============================================================================

def test_base_arc(constants, simplex, skeleton):
    face = skeleton.face((1, 2))
    pts = face.points(7)
    ends = {tuple(np.round(pts[0], 10)), tuple(np.round(pts[-1], 10))}
    verts = {tuple(np.round(simplex.vertices[0], 10)),
             tuple(np.round(simplex.vertices[1], 10))}
    assert ends == verts
    assert np.allclose(pts[3], [math.sqrt(1.5), 0.0, 0.0, 0.0], atol=1e-14)
    assert np.all(pts[:, 0] >= constants.x1 - 1e-12)
    assert all(face.contains(p) for p in pts)
    # radius law vanishes at the endpoints: that is what defines r_S+
    assert abs(face.radius(simplex.vertices[0])) <= 1e-12
    assert abs(face.radius(simplex.vertices[1])) <= 1e-12


def test_base_patch_corners(constants, simplex, skeleton):
    face = skeleton.face((3, 4, 5))
    for v in simplex.vertices[2:]:
        assert abs(hyperboloid_residual(constants, v)) <= 1e-13
        assert face.contains(v)
        assert abs(face.radius(v)) <= 1e-12
    assert face.contains(np.array([1.0, 0.0, 0.0, 0.0]))


def test_omega_two_routes(constants, simplex, group, skeleton):
    """The deepest boundary point: group transport vs direct tangency solve."""
    perms = ALL_PERMS
    phi = group[perms.index((4, 5, 3, 1, 2))]
    omega_motion = phi.apply(np.array([math.sqrt(constants.a_sq), 0.0, 0.0, 0.0]))

    plane = patch_cut_planes(constants)[0]
    _, lo = cut_curve_points(constants, plane, n=3)
    rho = math.sqrt((constants.a_sq - 1.0) * (lo * lo - 1.0))
    omega_direct = np.array([lo, -rho, 0.0, 0.0])

    assert np.linalg.norm(omega_motion - omega_direct) <= 1e-9
    assert abs(omega_direct[0] - FROZEN["omega_x"]) <= 1e-12
    assert abs(omega_direct[1] - FROZEN["omega_y"]) <= 1e-12

    p45 = 0.5 * (simplex.vertices[3] + simplex.vertices[4])
    assert abs(np.linalg.norm(omega_direct - p45) - FROZEN["omega_dist_p45"]) <= 1e-12
    assert abs(np.linalg.norm(omega_direct - p45)
               - (math.sqrt(1.5) - constants.x1)) <= 1e-12
    f_h = np.array([math.sqrt(constants.a_sq), 0.0, 0.0, 0.0])
    assert abs(np.linalg.norm(omega_direct - f_h) - (math.sqrt(5.0) - 2.0)) <= 1e-12
    patch = skeleton.face((3, 4, 5))
    assert abs(patch.radius(omega_direct) - FROZEN["R_omega"]) <= 1e-12


def test_circumcircle_meets_patch_only_at_corners(constants, skeleton):
    """Sweeping the x = x0 circle: membership holds at the three corner
    angles and nowhere else."""
    face = skeleton.face((3, 4, 5))
    hits = []
    for k in range(360):
        phi = 2.0 * math.pi * k / 360.0
        q = np.array([constants.x0, constants.y0 * math.cos(phi), 0.0,
                      constants.y0 * math.sin(phi)])
        if face.contains(q, tol=1e-9):
            hits.append(k)
    assert hits == [0, 120, 240]


# ============================================================================
# rotation closure (the a^2 = 3/2 miracle)
# ============================================================================

def test_rotation_closure(constants, simplex):
    assert rotation_closure_check(constants, simplex, n=200) <= 1e-10


def test_rotation_closure_negative_control():
    """At a^2 = 1.4 the transported arc misses the hyperboloid by a lot."""
    c = compute_model_constants(1.4)
    s = build_simplex(c)
    assert rotation_closure_check(c, s, n=200) > 1e-4


@pytest.mark.parametrize("a_sq", [1.4, 2.0])
def test_other_parameters_take_the_same_path(a_sq):
    """Away from a^2 = 3/2 the closure breaks, but each face is still the
    image of its base face: base samples lie on the base faces and, moved
    by a generator, on the transported faces, and the patch grid meets the
    vertex circle exactly at the three corners."""
    c = compute_model_constants(a_sq)
    s = build_simplex(c)
    skeleton = build_focal_skeleton(c, s, build_symmetry_group(s))
    for base, moved, pts in (
            ((3, 4, 5), (1, 2, 4), base_patch_grid(c, 12, 18)),
            ((1, 2), (3, 5), base_arc_points(c, 41))):
        face, other = skeleton.face(base), skeleton.face(moved)
        assert len(pts) > 20
        for q in pts:
            assert face.contains(q)
            assert other.contains(other.generator.apply(q))

    params, pts = base_patch_grid_params(c, 12, 18)
    corners = pts[params[:, 0] == c.x0]
    assert len(corners) == 3
    assert np.max(np.abs(corners - s.vertices[[2, 4, 3]])) <= 1e-12
    assert np.max(np.abs(np.hypot(corners[:, 1], corners[:, 3]) - c.y0)) <= 1e-12
    assert np.max(np.abs(skeleton.face((3, 4, 5)).radius(corners))) <= 1e-12


@pytest.mark.parametrize("a_sq", [1.4, 1.5, 2.0])
def test_patch_mesh_rim_lies_on_the_cut_planes(a_sq):
    """The closed form of the rim puts the last mesh row on the nearest cut
    plane, with the corners on the vertices; every node is on the patch."""
    c = compute_model_constants(a_sq)
    s = build_simplex(c)
    pts, tris, last = base_patch_mesh(c, 7, 24)
    assert pts.shape == (1 + 6 * 24, 4)
    assert np.all(base_patch_contains(pts, c, 1e-12))
    offsets = np.array([(pts[last] - p0) @ nrm for nrm, p0 in patch_cut_planes(c)])
    assert np.max(np.min(np.abs(offsets), axis=0)) <= 1e-12
    assert np.max(np.abs(pts[last[[0, 8, 16]]] - s.vertices[[2, 4, 3]])) <= 1e-12
    # a step out along s leaves the patch everywhere on the rim
    theta = 2.0 * math.pi * np.arange(24) / 24
    out = hyperboloid_point(c, np.cosh(base_patch_rim(c, theta) + 1e-6), theta)
    assert not np.any(base_patch_contains(out, c, 1e-12))
    # a fan of 24 around the sheet vertex and two triangles per grid cell
    assert tris.shape == (24 + 2 * 5 * 24, 3)
    assert set(np.unique(tris)) == set(range(len(pts)))


def test_tangent_slopes(constants, simplex):
    target = -3.0 * constants.z1 / constants.x1
    base, transported, gradient = tangent_slopes(constants, simplex)
    assert abs(base - target) <= 1e-12
    assert abs(transported - target) <= 1e-12
    assert abs(gradient - target) <= 1e-12
    assert abs(target - FROZEN["tangent_ratio"]) <= 1e-12


# ============================================================================
# the full skeleton
# ============================================================================

def test_face_count_and_lookup(skeleton):
    assert len(skeleton.faces) == 20
    assert len(skeleton.edge_faces()) == 10
    assert len(skeleton.triangle_faces()) == 10
    assert skeleton.face((5, 4)) is skeleton.face((4, 5))
    assert skeleton.face((5, 3, 4)).kind == "triangle-patch"
    assert list(skeleton.faces) == EDGES + list(itertools.combinations(range(1, 6), 3))
    assert all(face.label == lab for lab, face in skeleton.faces.items())


def test_faces_lie_on_their_quadrics(constants, simplex, skeleton):
    """Each face, moved back by its generator, lies on E or H."""
    for face in skeleton.edge_faces():
        pts = face.points(31)
        for q in face.generator.inverse().apply(pts):
            assert abs(ellipse_residual(constants, q)) <= 1e-10
            assert math.hypot(q[1], q[3]) <= 1e-10
        ends = {tuple(np.round(pts[0], 9)), tuple(np.round(pts[-1], 9))}
        verts = {tuple(np.round(simplex.vertices[i - 1], 9)) for i in face.label}
        assert ends == verts
    for face in skeleton.triangle_faces():
        for q in face.generator.inverse().apply(face.grid_points(7, 9)):
            assert abs(hyperboloid_residual(constants, q)) <= 1e-10
            assert abs(q[2]) <= 1e-10
        for i in face.label:
            assert face.contains(simplex.vertices[i - 1])


def test_generators_are_well_defined(constants, simplex, skeleton):
    """Different permutations onto the same face give the same sample sets."""
    cases = [
        ((1, 2), (2, 1, 4, 5, 3)),
        ((2, 4), (4, 2, 5, 3, 1)),
        ((3, 4, 5), (1, 2, 4, 5, 3)),
        ((3, 4, 5), (2, 1, 5, 3, 4)),
        ((1, 3, 5), (4, 2, 3, 5, 1)),
    ]
    for label, perm in cases:
        face = skeleton.face(label)
        alt = isometry_from_vertex_permutation(simplex.vertices, perm)
        if face.kind == "edge-arc":
            ours = face.points(101)
            theirs = alt.apply(base_arc_points(constants, 101))
        else:
            ours = face.grid_points(9, 12)
            theirs = alt.apply(base_patch_grid(constants, 9, 12))
        assert hausdorff(ours, theirs) <= 1e-9


def test_skeleton_invariant_under_all_motions(skeleton, group):
    """The union of face samples maps into itself under each of the 120."""
    clouds = [f.points(25) for f in skeleton.edge_faces()]
    clouds += [f.grid_points(7, 9) for f in skeleton.triangle_faces()]
    cloud = np.vstack(clouds)
    tree = cKDTree(cloud)
    for m in group:
        d, _ = tree.query(m.apply(cloud))
        assert d.max() <= 1e-9


def test_patch_boundary_is_three_arcs(constants, skeleton):
    """Dual route for the boundary of the base patch.

    Route one: each adjacent arc face lies in its cut plane, on the base
    hyperboloid, and inside the other two half-spaces.  Route two: the
    plane/sheet intersection curve, rebuilt by circle-line intersection
    with no group motion, lands on the arc faces pointwise.
    """
    planes = patch_cut_planes(constants)
    pairing = [((4, 5), planes[0]), ((3, 4), planes[1]), ((3, 5), planes[2])]
    for label, (nrm, p0) in pairing:
        face = skeleton.face(label)
        pts = face.points(201)
        for q in pts:
            assert abs(nrm @ (q - p0)) <= 1e-9
            assert abs(hyperboloid_residual(constants, q)) <= 1e-9
            assert abs(q[2]) <= 1e-9
        for other_label, (n2, q2) in pairing:
            if other_label != label:
                assert np.min((pts - q2) @ n2) >= -1e-9

        curve, lo = cut_curve_points(constants, (nrm, p0), n=151)
        for q in curve:
            assert face.contains(q, tol=1e-8)
        # matched-x agreement between the two routes, away from the
        # tangency where the square-root branch is ill conditioned
        s = math.hypot(nrm[1], nrm[3])
        u = np.array([nrm[1], nrm[3]]) / s
        uperp = np.array([-u[1], u[0]])
        for q in pts[np.abs(pts[:, 0] - lo) > 1e-5]:
            x = q[0]
            rho = math.sqrt((constants.a_sq - 1.0) * (x * x - 1.0))
            d0 = (nrm @ p0 - nrm[0] * x) / s
            half = math.sqrt(max(rho * rho - d0 * d0, 0.0))
            best = min(
                np.hypot(*(np.array([q[1], q[3]]) - (d0 * u + sgn * half * uperp)))
                for sgn in (1.0, -1.0))
            assert best <= 1e-9


def test_dual_faces_form_focal_pairs(skeleton):
    """A dual arc and patch are the base focal pair moved by one motion.

    A permutation sends {1,2} to {i,j} exactly when it sends {3,4,5} to the
    complement, so dual faces share their lexicographic generator.
    """
    for arc in skeleton.edge_faces():
        patch = skeleton.face(dual_label(arc.label))
        assert np.array_equal(patch.generator.linear, arc.generator.linear)
        assert np.array_equal(patch.generator.translation,
                              arc.generator.translation)


def test_each_face_takes_the_motion_of_its_closed_form_permutation(skeleton, group):
    """Face L takes the motion of the least permutation taking (1, 2) onto
    its arc and (3, 4, 5) onto its patch, which is (arc, dual arc); an arc
    and its dual patch share that one motion, so ten motions serve twenty."""
    for lab, face in skeleton.faces.items():
        arc = lab if len(lab) == 2 else dual_label(lab)
        least = min(p for p in ALL_PERMS if set(p[:2]) == set(arc))
        assert least == arc + dual_label(arc)
        assert face.generator is group[ALL_PERMS.index(arc + dual_label(arc))]
        assert skeleton.face(dual_label(lab)).generator is face.generator
    assert len({id(f.generator) for f in skeleton.faces.values()}) == 10


# ============================================================================
# radius consistency where chains meet
# ============================================================================

def test_radius_consistency_at_p4(simplex, skeleton):
    p4 = simplex.vertices[3]
    assert abs(skeleton.face((4, 5)).radius(p4)) <= 1e-12
    assert abs(radius_consistency_residual(skeleton, p4)) <= 1e-12


def test_radius_consistency_at_omega(constants, skeleton, group):
    phi = group[ALL_PERMS.index((4, 5, 3, 1, 2))]
    omega = phi.apply(np.array([math.sqrt(constants.a_sq), 0.0, 0.0, 0.0]))
    face45 = skeleton.face((4, 5))
    assert abs(face45.radius(omega) - FROZEN["R_omega"]) <= 1e-12
    assert abs(radius_consistency_residual(skeleton, omega)) <= 1e-10


def test_radius_consistency_sweep(skeleton):
    pts = skeleton.face((4, 5)).points(100)
    worst = max(abs(radius_consistency_residual(skeleton, q)) for q in pts)
    assert worst <= 1e-10


def test_radius_consistency_off_arc(simplex, skeleton):
    with pytest.raises(OffArc):
        radius_consistency_residual(skeleton, simplex.centroid)


@settings(deadline=None, max_examples=60)
@given(st.floats(-1.0, 1.0))
def test_radius_consistency_property(skeleton, u):
    """Both radius laws agree at every point of the shared arc."""
    c = skeleton.constants
    a = math.sqrt(c.a_sq)
    b = math.sqrt(c.a_sq - 1.0)
    t = u * math.acos(c.x1 / a)
    base = np.array([a * math.cos(t), 0.0, b * math.sin(t), 0.0])
    x = skeleton.face((4, 5)).generator.apply(base)
    assert abs(radius_consistency_residual(skeleton, x)) <= 1e-10


# ============================================================================
# cap separation
# ============================================================================

def test_cap_separation(simplex, skeleton):
    """The hyperplane through the {4,5} cut plane and p1 separates the two
    sphere-projected triangles over H345 and H245; their shared edge
    projects onto the hyperplane itself."""
    c = skeleton.constants
    p1 = simplex.vertices[0]
    p4, p5 = simplex.vertices[3], simplex.vertices[4]
    p123 = (simplex.vertices[0] + simplex.vertices[1] + simplex.vertices[2]) / 3.0
    rows = np.array([p5 - p4, p123 - p4, p1 - p4])
    _, sv, vt = np.linalg.svd(rows)
    assert sv[-1] > 1e-6  # the three spanning directions are independent
    normal = vt[-1]

    def project(pts):
        d = pts - p1
        return p1 + c.width * d / np.linalg.norm(d, axis=1)[:, None]

    side_a = (project(skeleton.face((3, 4, 5)).grid_points(17, 24)) - p4) @ normal
    side_b = (project(skeleton.face((2, 4, 5)).grid_points(17, 24)) - p4) @ normal
    if np.mean(side_a) < 0.0:
        side_a, side_b = -side_a, -side_b
    assert side_a.min() >= -1e-9
    assert side_b.max() <= 1e-9
    # and genuinely two-sided, not degenerate
    assert side_a.max() > 1e-3
    assert side_b.min() < -1e-3

    shared = (project(skeleton.face((4, 5)).points(101)) - p4) @ normal
    assert np.max(np.abs(shared)) <= 1e-9
