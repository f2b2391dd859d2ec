"""Acceptance sweep: one test per release criterion, tolerances pinned.

Each test states a complete, independently checkable property of the built
body; the terminal summary prints one PASS/FAIL line per criterion.
"""

import math
from itertools import combinations

import numpy as np
from scipy.stats import norm as _norm
from scipy.stats import qmc

from diagnostics import ray_displacements
from peabody4d.body import (
    binormal_partner,
    boundary_residual,
    diameter_check,
    phi1,
    phi2,
)
from peabody4d.focal import (
    interlock_residual,
    focal_const_residual,
    focal_sum_residual,
)
from peabody4d.geometry import ellipse_point, hyperboloid_point
from peabody4d.numerics import compute_model_constants
from peabody4d.skeleton import (
    _ALL_PERMS,
    base_arc_points,
    base_patch_grid,
    build_simplex,
    dual_label,
    radius_consistency_residual,
    rotation_closure_check,
    tangent_slopes,
)

EDGE_LABELS = list(combinations(range(1, 6), 2))


def test_c01_closed_form_constants(constants):
    s10 = math.sqrt(10.0)
    for got, exact in (
        (constants.x0 ** 2, (41.0 - 4.0 * s10) / 27.0),
        (constants.y0 ** 2, (7.0 - 2.0 * s10) / 27.0),
        (constants.x1 ** 2, (11.0 + 2.0 * s10) / 12.0),
    ):
        assert abs(got - exact) / exact <= 1e-14
    assert abs(constants.x1 ** 2 + 2.25 * constants.y0 ** 2 - 1.5) <= 1e-14
    assert abs(constants.width - math.sqrt(7.0 - 2.0 * s10) / 3.0) <= 1e-14
    assert abs(constants.width - 0.2739515) <= 1e-7


def test_c02_simplex_edge_lengths(constants, simplex):
    lengths = [np.linalg.norm(simplex.vertices[i] - simplex.vertices[j])
               for i, j in combinations(range(5), 2)]
    assert len(lengths) == 10
    assert max(lengths) - min(lengths) <= 1e-12
    assert max(abs(l - 2.0 * constants.z1) for l in lengths) <= 1e-12


def test_c03_focal_identities_hold_and_break(constants):
    rng = np.random.default_rng(7)
    worst_sum = worst_const = 0.0
    for _ in range(500):
        a_e = ellipse_point(constants, rng.uniform(0, 2 * math.pi))
        b_e = ellipse_point(constants, rng.uniform(0, 2 * math.pi))
        a_h = hyperboloid_point(constants, rng.uniform(1.0, 2.5),
                                rng.uniform(0, 2 * math.pi))
        b_h = hyperboloid_point(constants, rng.uniform(1.0, 2.5),
                                rng.uniform(0, 2 * math.pi))
        worst_sum = max(worst_sum, abs(focal_sum_residual(a_e, b_e, a_h, b_h)))
        worst_const = max(worst_const,
                          abs(focal_const_residual(constants, a_e, a_h)))
    assert worst_sum <= 1e-10
    assert worst_const <= 1e-10

    # the hyperboloid (hence its foci) moved by 1e-3 along its axis
    shift = np.array([1e-3, 0.0, 0.0, 0.0])
    rng = np.random.default_rng(8)
    broken = 0.0
    for _ in range(200):
        a_e = ellipse_point(constants, rng.uniform(0, 2 * math.pi))
        b_e = ellipse_point(constants, rng.uniform(0, 2 * math.pi))
        a_h = hyperboloid_point(constants, rng.uniform(1.0, 2.5),
                                rng.uniform(0, 2 * math.pi)) + shift
        b_h = hyperboloid_point(constants, rng.uniform(1.0, 2.5),
                                rng.uniform(0, 2 * math.pi)) + shift
        broken = max(broken, abs(focal_sum_residual(a_e, b_e, a_h, b_h)))
    assert broken > 1e-5


def test_c04_radius_interlock_grid(constants):
    xs = base_patch_grid(constants, 20, 15)[:100]
    ys = base_arc_points(constants, 100)
    assert len(xs) == 100 and len(ys) == 100
    worst = max(abs(interlock_residual(constants, x, y)) for x in xs for y in ys)
    assert worst <= 1e-10


def test_c05_arc_to_patch_closure(constants, simplex, group):
    assert rotation_closure_check(constants, simplex, n=200) <= 1e-10

    motion = group[_ALL_PERMS.index((4, 5, 3, 1, 2))]
    omega = motion.apply(np.array([math.sqrt(constants.a_sq), 0.0, 0.0, 0.0]))
    p45 = 0.5 * (simplex.vertices[3] + simplex.vertices[4])
    offset = np.linalg.norm(omega - p45) - (math.sqrt(1.5) - constants.x1)
    assert abs(offset) <= 1e-12

    target = -3.0 * constants.z1 / constants.x1
    assert max(abs(s - target) for s in tangent_slopes(constants, simplex)) \
        <= 1e-12

    bad = compute_model_constants(1.4)
    assert rotation_closure_check(bad, build_simplex(bad), n=200) > 1e-4


def test_c06_chain_radius_agreement(skeleton):
    pts = skeleton.face((4, 5)).points(102)[1:-1]
    assert len(pts) == 100
    worst = max(abs(radius_consistency_residual(skeleton, x)) for x in pts)
    assert worst <= 1e-10


def test_c07_envelope_pair_separation_grid(constants, skeleton):
    w = constants.width
    worst = 0.0
    for patch in skeleton.triangle_faces():
        arc = skeleton.face(dual_label(patch.label))
        dense = patch.grid_points(16, 24)
        xs = dense[np.linspace(0, len(dense) - 1, 64).astype(int)]
        ys = arc.points(66)[1:-1]
        assert len(xs) == 64 and len(ys) == 64
        # all 64 x 64 pairs in one batch of each map
        x, y = xs[:, None], ys[None, :]
        gap = np.linalg.norm(phi1(patch, arc, x, y) - phi2(patch, arc, x, y),
                             axis=-1)
        assert gap.shape == (64, 64)
        worst = max(worst, float(np.max(np.abs(gap - w))))
    assert worst <= 1e-12


def test_c08_ball_model_cross_check(skeleton, model, model_fine):
    from peabody4d.body import _random_arc_points, _random_patch_points

    resid_coarse = boundary_residual(model)
    resid_fine = boundary_residual(model_fine)
    rng = np.random.default_rng(13)
    c = skeleton.constants
    for patch in skeleton.triangle_faces():
        arc = skeleton.face(dual_label(patch.label))
        xs = patch.generator.apply(_random_patch_points(c, 10, rng))
        ys = arc.generator.apply(_random_arc_points(c, 10, rng))
        for x, y in zip(xs, ys):
            for q in (phi1(patch, arc, x, y), phi2(patch, arc, x, y)):
                for m, resid in ((model, resid_coarse),
                                 (model_fine, resid_fine)):
                    slack, _ = m.min_slack(q)
                    assert -1e-9 <= slack <= resid

    disp = ray_displacements(
        skeleton,
        grids=[((16, 24), 32), ((32, 48), 64), ((64, 96), 128)],
        probes=500, seed=7)
    assert disp[0] > disp[1]
    assert 3.0 <= disp[0] / disp[1] <= 5.0


def test_c09_diameter_bounds(model, exact_pop):
    w = model.width
    dia = diameter_check(model, exact_pop, pairs=10 ** 6, seed=5)
    assert dia <= w + 1e-9
    dist = np.linalg.norm(exact_pop.points - binormal_partner(model, exact_pop),
                          axis=1)
    worst = float(np.max(np.abs(dist - w)))
    assert worst <= 1e-9


def test_c10_constant_width_sweep(model, mixed_pop):
    w = model.width
    P = mixed_pop.points
    eng = qmc.Sobol(d=4, scramble=True, seed=19)
    U = _norm.ppf(eng.random(1024))[:1000]
    U /= np.linalg.norm(U, axis=1, keepdims=True)
    worst = 0.0
    for k in range(0, len(U), 50):
        G = P @ U[k:k + 50].T
        worst = max(worst, float(np.max(np.abs(G.max(axis=0)
                                               - G.min(axis=0) - w))))
    assert worst <= 1e-3

    # certified lower bound along directions aligned with diameter pairs
    head = mixed_pop[:200]
    for p, q in zip(head.points, binormal_partner(model, head)):
        u = (p - q) / np.linalg.norm(p - q)
        proj = P @ u
        extent = max(float(proj.max()), float(p @ u)) \
            - min(float(proj.min()), float(q @ u))
        assert extent >= w - 1e-9


def test_c11_symmetry_invariance(skeleton, group, model, exact_pop):
    pts = exact_pop[:2000].points
    worst = 0.0
    for motion in group:
        slack, _ = model.min_slack(motion.apply(pts))
        worst = max(worst, float(np.max(np.abs(slack))))
    assert worst <= 1e-8

    probes = {}
    for face in skeleton.faces.values():
        if face.kind == "edge-arc":
            probes[face.label] = face.points(12)
        else:
            probes[face.label] = face.grid_points(5, 6)
    for perm, motion in zip(_ALL_PERMS, group):
        for label, pts in probes.items():
            image = tuple(sorted(perm[i - 1] for i in label))
            assert np.all(skeleton.face(image).contains(motion.apply(pts), 1e-9))


def test_c12_cap_separation(skeleton, simplex):
    # the caps opposite a vertex are radial projections of the adjacent
    # curved triangles; the hyperplane through the centroid, that vertex,
    # and the shared edge separates neighbouring projections
    w = skeleton.constants.width
    g = simplex.centroid
    p1 = simplex.vertices[0]
    span = np.array([simplex.vertices[3] - g, simplex.vertices[4] - g,
                     p1 - g])
    _, _, vt = np.linalg.svd(span)
    eta = vt[-1]

    def project(pts):
        d = pts - p1
        return p1 + w * d / np.linalg.norm(d, axis=1, keepdims=True)

    shared = project(skeleton.face((4, 5)).points(40))
    assert np.max(np.abs((shared - g) @ eta)) <= 1e-9

    side_a = (project(skeleton.face((3, 4, 5)).grid_points(10, 12)) - g) @ eta
    side_b = (project(skeleton.face((2, 4, 5)).grid_points(10, 12)) - g) @ eta
    sign = 1.0 if side_a.mean() > 0 else -1.0
    assert np.min(sign * side_a) >= -1e-9
    assert np.max(sign * side_b) <= 1e-9
    assert sign * side_a.mean() > 1e-3
    assert sign * side_b.mean() < -1e-3
