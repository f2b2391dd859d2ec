import math

import numpy as np
import pytest
from scipy.optimize import brentq

from peabody4d.focal import (
    NotSameComponent,
    OffArc,
    OffPatch,
    WrongComponent,
    base_arc_contains,
    base_patch_contains,
    chain_radius,
    interlock_residual,
    focal_const_residual,
    focal_sum_residual,
    steiner_radius_elliptic,
    steiner_radius_hyperbolic,
)
from peabody4d.geometry import (
    ellipse_point,
    ellipse_residual,
    hyperboloid_point,
    hyperboloid_residual,
    simplex_vertices,
)

from frozen_values import FROZEN


def arc_points(n, c, rng=None, t1=FROZEN["t1"]):
    """n points on the edge arc E12 (eccentric angles in [-t1, t1])."""
    if rng is None:
        ts = np.linspace(-t1, t1, n)
    else:
        ts = rng.uniform(-t1, t1, n)
    return np.array([ellipse_point(c, t) for t in ts])


def patch_points(n, rng, c):
    """n rejection-sampled points of the triangle patch H345."""
    x0 = FROZEN["x0"]
    out = []
    while len(out) < n:
        x = rng.uniform(1.0, x0)
        th = rng.uniform(0.0, 2.0 * math.pi)
        p = hyperboloid_point(c, x, th)
        if base_patch_contains(p, c):
            out.append(p)
    return np.array(out)


class TestChainRadii:
    def test_frozen_values(self, constants):
        assert abs(constants.r_splus_e - FROZEN["r_splus_e"]) <= 1e-14
        assert abs(constants.r_splus_h - FROZEN["r_splus_h"]) <= 1e-14
        assert constants.focus_e == 1.0
        assert abs(constants.focus_h - FROZEN["a"]) <= 1e-15

    def test_radius_defining_distances(self, constants):
        V = simplex_vertices(constants)
        fe = np.array([constants.focus_e, 0.0, 0.0, 0.0])
        fh = np.array([constants.focus_h, 0.0, 0.0, 0.0])
        d_e = [np.linalg.norm(V[i] - fe) for i in (0, 1)]
        d_h = [np.linalg.norm(V[i] - fh) for i in (2, 3, 4)]
        assert max(abs(d - constants.r_splus_e) for d in d_e) <= 1e-12
        assert max(abs(d - constants.r_splus_h) for d in d_h) <= 1e-12
        assert max(d_h) - min(d_h) <= 1e-12
        # the one radius law, batched and point by point, vanishes there
        batch = chain_radius(constants.r_splus_h, fh, V[2:])
        assert batch.shape == (3,) and np.max(np.abs(batch)) <= 1e-12
        for i in (0, 1):
            assert abs(chain_radius(constants.r_splus_e, fe, V[i])) <= 1e-12


class TestFocalSumResidual:
    def test_symmetric_configuration(self, constants):
        V = simplex_vertices(constants)
        mirror_p3 = V[2] * np.array([1.0, -1.0, 1.0, -1.0])
        r = focal_sum_residual(V[0], V[1], V[2], mirror_p3)
        assert abs(r) <= 1e-14

    def test_random_tuples(self, constants):
        rng = np.random.default_rng(17)
        worst = 0.0
        for _ in range(200):
            a_e = ellipse_point(constants, rng.uniform(0, 2 * math.pi))
            b_e = ellipse_point(constants, rng.uniform(0, 2 * math.pi))
            a_h = hyperboloid_point(constants, rng.uniform(1.0, 2.5),
                                    rng.uniform(0, 2 * math.pi))
            b_h = hyperboloid_point(constants, rng.uniform(1.0, 2.5),
                                    rng.uniform(0, 2 * math.pi))
            worst = max(worst, abs(focal_sum_residual(a_e, b_e, a_h, b_h)))
        assert worst <= 1e-10

    def test_different_sheets_rejected(self, constants):
        V = simplex_vertices(constants)
        left = V[2] * np.array([-1.0, 1.0, 1.0, 1.0])  # mirrored to far sheet
        with pytest.raises(NotSameComponent):
            focal_sum_residual(V[0], V[1], V[2], left)

    def test_perturbed_pair_fails(self, constants):
        """Moving the hyperboloid (hence its foci) by 1e-3 breaks the identity."""
        shift = np.array([1e-3, 0.0, 0.0, 0.0])
        rng = np.random.default_rng(17)
        worst = 0.0
        for _ in range(200):
            a_e = ellipse_point(constants, rng.uniform(0, 2 * math.pi))
            b_e = ellipse_point(constants, rng.uniform(0, 2 * math.pi))
            a_h = hyperboloid_point(constants, rng.uniform(1.0, 2.5),
                                    rng.uniform(0, 2 * math.pi)) + shift
            b_h = hyperboloid_point(constants, rng.uniform(1.0, 2.5),
                                    rng.uniform(0, 2 * math.pi)) + shift
            worst = max(worst, abs(focal_sum_residual(a_e, b_e, a_h, b_h)))
        assert worst > 1e-5


class TestFocalConstResidual:
    def test_constant_value(self, constants):
        """The two-point combination equals -(sqrt(3/2) - 1)."""
        V = simplex_vertices(constants)
        f_e = np.array([constants.focus_e, 0.0, 0.0, 0.0])
        f_h = np.array([constants.focus_h, 0.0, 0.0, 0.0])
        combo = (np.linalg.norm(V[0] - V[2])
                 - np.linalg.norm(V[2] - f_h)
                 - np.linalg.norm(V[0] - f_e))
        assert abs(combo - FROZEN["focal_const"]) <= 1e-12

    def test_vertex_pair(self, constants):
        V = simplex_vertices(constants)
        assert abs(focal_const_residual(constants, V[0], V[2])) <= 1e-12

    def test_random_pairs(self, constants):
        rng = np.random.default_rng(23)
        worst = 0.0
        for _ in range(500):
            a_e = ellipse_point(constants, rng.uniform(0, 2 * math.pi))
            a_h = hyperboloid_point(constants, rng.uniform(1.0, 3.0),
                                    rng.uniform(0, 2 * math.pi))
            worst = max(worst, abs(focal_const_residual(constants, a_e, a_h)))
        assert worst <= 1e-10

    def test_far_sheet_rejected(self, constants):
        V = simplex_vertices(constants)
        left = V[2] * np.array([-1.0, 1.0, 1.0, 1.0])
        with pytest.raises(WrongComponent):
            focal_const_residual(constants, V[0], left)


class TestSteinerRadiusElliptic:
    def test_zero_at_arc_endpoints(self, constants):
        V = simplex_vertices(constants)
        assert abs(steiner_radius_elliptic(constants, V[0])) <= 1e-12
        assert abs(steiner_radius_elliptic(constants, V[1])) <= 1e-12

    def test_value_at_arc_apex(self, constants):
        apex = np.array([math.sqrt(1.5), 0.0, 0.0, 0.0])
        r = steiner_radius_elliptic(constants, apex)
        assert abs(r - FROZEN["R_mid"]) <= 1e-12

    def test_range_over_arc(self, constants):
        pts = arc_points(501, constants)  # odd count so the apex t=0 is on the grid
        rs = [steiner_radius_elliptic(constants, p) for p in pts]
        assert min(rs) >= -1e-12
        assert max(rs) <= 0.019
        assert abs(max(rs) - FROZEN["R_mid"]) <= 1e-9  # max at the apex

    def test_off_arc_rejected(self, constants):
        beyond = ellipse_point(constants, 3.0 * FROZEN["t1"])
        with pytest.raises(OffArc):
            steiner_radius_elliptic(constants, beyond)
        with pytest.raises(OffArc):
            steiner_radius_elliptic(constants, np.array([1.2, 0.0, 0.1, 0.0]))


class TestSteinerRadiusHyperbolic:
    def test_zero_at_patch_corners(self, constants):
        V = simplex_vertices(constants)
        for i in (2, 3, 4):
            assert abs(steiner_radius_hyperbolic(constants, V[i])) <= 1e-12

    def test_value_at_edge_apex(self, constants):
        omega = np.array([FROZEN["omega_x"], FROZEN["omega_y"], 0.0, 0.0])
        r = steiner_radius_hyperbolic(constants, omega)
        assert abs(r - FROZEN["R_omega"]) <= 1e-12

    def test_value_at_sheet_vertex(self, constants):
        v = np.array([1.0, 0.0, 0.0, 0.0])
        r = steiner_radius_hyperbolic(constants, v)
        assert abs(r - FROZEN["hyper_radius_at_sheet_vertex"]) <= 1e-12

    def test_positive_inside(self, constants):
        rng = np.random.default_rng(31)
        for p in patch_points(200, rng, constants):
            assert steiner_radius_hyperbolic(constants, p) >= -1e-12

    def test_off_patch_rejected(self, constants):
        # the hyperboloid focus is not on the sheet at all
        with pytest.raises(OffPatch):
            steiner_radius_hyperbolic(constants, np.array([math.sqrt(1.5), 0, 0, 0]))
        # on the sheet, but beyond the boundary arc between p4 and p5
        x_mid = 0.5 * (FROZEN["omega_x"] + FROZEN["x0"])
        outside = hyperboloid_point(constants, x_mid, math.pi)
        with pytest.raises(OffPatch):
            steiner_radius_hyperbolic(constants, outside)
        # far sheet mirror of p3
        with pytest.raises(OffPatch):
            steiner_radius_hyperbolic(
                constants, np.array([-FROZEN["x0"], FROZEN["y0"], 0.0, 0.0]))

    def test_domain_membership_helpers(self, constants):
        V = simplex_vertices(constants)
        assert base_patch_contains(V[2], constants)
        assert base_patch_contains([1.0, 0.0, 0.0, 0.0], constants)
        assert not base_patch_contains(V[0], constants)
        assert base_arc_contains(V[0], constants)
        assert base_arc_contains([math.sqrt(1.5), 0.0, 0.0, 0.0], constants)
        assert not base_arc_contains(V[2], constants)

    def test_membership_rejects_points_off_the_carrier(self, constants):
        """A point on the conic's equation but 1e-6 off its carrier is out.

        The arc apex moved along y and the sheet vertex moved along z keep a
        zero ellipse / hyperboloid residual, so only the carrier term of the
        membership test can reject them.
        """
        apex = np.array([math.sqrt(constants.a_sq), 0.0, 0.0, 0.0])
        vertex = np.array([1.0, 0.0, 0.0, 0.0])
        off_apex = apex + [0.0, 1e-6, 0.0, 0.0]
        off_vertex = vertex + [0.0, 0.0, 1e-6, 0.0]
        assert abs(ellipse_residual(constants, off_apex)) <= 1e-15
        assert abs(hyperboloid_residual(constants, off_vertex)) <= 1e-15
        assert base_arc_contains(apex, constants)
        assert base_patch_contains(vertex, constants)
        assert not base_arc_contains(off_apex, constants)
        assert not base_patch_contains(off_vertex, constants)


class TestInterlock:
    def test_vertex_pair(self, constants):
        V = simplex_vertices(constants)
        assert abs(interlock_residual(constants, V[2], V[0])) <= 1e-12

    def test_apex_pair(self, constants):
        omega = np.array([FROZEN["omega_x"], FROZEN["omega_y"], 0.0, 0.0])
        apex = np.array([math.sqrt(1.5), 0.0, 0.0, 0.0])
        assert abs(interlock_residual(constants, omega, apex)) <= 1e-10

    def test_grid(self, constants):
        rng = np.random.default_rng(41)
        xs = patch_points(40, rng, constants)
        ys = arc_points(40, constants, rng)
        worst = max(abs(interlock_residual(constants, x, y))
                    for x in xs for y in ys)
        assert worst <= 1e-10

    def test_ball_pair_diameter(self, constants):
        """Any point of B(x, Rx) and any of B(y, R_y) are within 2 z1."""
        rng = np.random.default_rng(43)
        xs = patch_points(25, rng, constants)
        ys = arc_points(25, constants, rng)
        worst = 0.0
        for x, y in zip(xs, ys):
            rx = steiner_radius_hyperbolic(constants, x)
            ry = steiner_radius_elliptic(constants, y)
            for _ in range(8):
                du = rng.standard_normal(4)
                dv = rng.standard_normal(4)
                u = x + rx * rng.uniform(0, 1) * du / np.linalg.norm(du)
                v = y + ry * rng.uniform(0, 1) * dv / np.linalg.norm(dv)
                worst = max(worst, np.linalg.norm(u - v))
        assert worst <= constants.width + 1e-12


class TestSteinerCenterLocus:
    def test_tangent_circle_centers_lie_on_ellipse(self, constants):
        """Circles tangent inside S+ and outside S- have centers on E.

        For a contact direction psi on S+, the center sits at
        f_e + (r_S+ - R) u(psi); R is solved from the S- tangency condition.
        """
        a = math.sqrt(1.5)
        b = math.sqrt(0.5)
        fe = np.array([1.0, 0.0])
        fm = np.array([-1.0, 0.0])
        r_plus = constants.r_splus_e
        r_minus = FROZEN["r_sminus_e"]

        def tangency_gap(R, u):
            center = fe + (r_plus - R) * u
            return np.linalg.norm(center - fm) - (r_minus + R)

        for psi in np.linspace(-0.55, 0.55, 41):
            u = np.array([math.cos(psi), math.sin(psi)])
            R = brentq(tangency_gap, 0.0, r_plus, args=(u,), xtol=1e-14)
            cx, cz = fe + (r_plus - R) * u
            # implicit-equation residual of E at the center
            assert abs(cz * cz - 0.5 * (1.0 - 2.0 * cx * cx / 3.0)) <= 1e-8
            # and the center is close to its eccentric-angle projection
            t = math.atan2(cz / b, cx / a)
            proj = np.array([a * math.cos(t), b * math.sin(t)])
            assert np.linalg.norm(proj - [cx, cz]) <= 1e-8
            assert R <= FROZEN["R_mid"] + 1e-12
