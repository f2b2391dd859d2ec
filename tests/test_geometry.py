import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from peabody4d.geometry import (
    DegenerateSimplex,
    Isometry4,
    OutOfDomain,
    ellipse_point,
    ellipse_residual,
    hyperboloid_point,
    hyperboloid_residual,
    isometry_from_vertex_permutation,
    simplex_vertices,
)

from frozen_values import FROZEN


def random_rotation(rng):
    q, r = np.linalg.qr(rng.standard_normal((4, 4)))
    return q * np.sign(np.diag(r))


class TestIsometry4:
    def test_identity(self):
        e = Isometry4.identity()
        v = np.array([1.0, 2.0, 3.0, 4.0])
        assert np.array_equal(e.apply(v), v)

    def test_rejects_non_orthogonal(self):
        with pytest.raises(ValueError):
            Isometry4(np.eye(4) * 1.001, np.zeros(4))

    def test_compose_and_inverse(self):
        rng = np.random.default_rng(7)
        a = Isometry4(random_rotation(rng), rng.standard_normal(4))
        b = Isometry4(random_rotation(rng), rng.standard_normal(4))
        v = rng.standard_normal((10, 4))
        assert np.allclose(a.compose(b).apply(v), a.apply(b.apply(v)), atol=1e-12)
        back = a.inverse().apply(a.apply(v))
        assert np.max(np.abs(back - v)) <= 1e-12


class TestVertexPermutations:
    def test_identity_permutation(self, constants):
        V = simplex_vertices(constants)
        iso = isometry_from_vertex_permutation(V, (1, 2, 3, 4, 5))
        assert np.max(np.abs(iso.linear - np.eye(4))) <= 1e-12
        assert np.max(np.abs(iso.translation)) <= 1e-12

    def test_transposition_is_reflection(self, constants):
        V = simplex_vertices(constants)
        iso = isometry_from_vertex_permutation(V, (2, 1, 3, 4, 5))
        assert abs(iso.det() + 1.0) <= 1e-12
        img = iso.apply(V)
        assert np.max(np.abs(img[0] - V[1])) <= 1e-10
        assert np.max(np.abs(img[1] - V[0])) <= 1e-10
        for k in (2, 3, 4):
            assert np.max(np.abs(img[k] - V[k])) <= 1e-10

    def test_five_cycle_has_order_five(self, constants):
        V = simplex_vertices(constants)
        iso = isometry_from_vertex_permutation(V, (2, 3, 4, 5, 1))
        m = np.linalg.matrix_power(iso.linear, 5)
        assert np.max(np.abs(m - np.eye(4))) <= 1e-9
        # translation part of the 5th power must vanish too
        p = Isometry4.identity()
        for _ in range(5):
            p = iso.compose(p)
        assert np.max(np.abs(p.translation)) <= 1e-9

    def test_maps_each_vertex(self, constants):
        V = simplex_vertices(constants)
        rng = np.random.default_rng(11)
        for _ in range(20):
            perm = rng.permutation(5) + 1
            iso = isometry_from_vertex_permutation(V, perm)
            img = iso.apply(V)
            for i, k in enumerate(perm):
                assert np.max(np.abs(img[i] - V[k - 1])) <= 1e-10

    def test_fixes_centroid(self, constants):
        V = simplex_vertices(constants)
        g = V.mean(axis=0)
        iso = isometry_from_vertex_permutation(V, (3, 1, 2, 5, 4))
        assert np.max(np.abs(iso.apply(g) - g)) <= 1e-12

    def test_degenerate_vertices_rejected(self):
        flat = np.zeros((5, 4))
        flat[:, 0] = [0.0, 1.0, 2.0, 3.0, 4.0]
        flat[:, 1] = [0.0, 1.0, 4.0, 9.0, 16.0]
        with pytest.raises(DegenerateSimplex):
            isometry_from_vertex_permutation(flat, (2, 1, 3, 4, 5))

    def test_homomorphism(self, constants):
        """motion(sigma o tau) == motion(sigma) . motion(tau), 100 random pairs."""
        V = simplex_vertices(constants)
        rng = np.random.default_rng(5)
        for _ in range(100):
            sigma = rng.permutation(5) + 1
            tau = rng.permutation(5) + 1
            comp = tuple(sigma[tau[i] - 1] for i in range(5))
            lhs = isometry_from_vertex_permutation(V, comp)
            rhs = isometry_from_vertex_permutation(V, sigma).compose(
                isometry_from_vertex_permutation(V, tau))
            assert np.max(np.abs(lhs.linear - rhs.linear)) <= 1e-9
            assert np.max(np.abs(lhs.translation - rhs.translation)) <= 1e-9


class TestQuadrics:
    def test_each_focus_on_the_other(self, constants):
        """Defining focal property: the foci (+-1, 0, 0, 0) of E lie on H and
        the foci (+-a, 0, 0, 0) of H lie on E."""
        for sign in (1.0, -1.0):
            f_e = np.array([sign * constants.focus_e, 0.0, 0.0, 0.0])
            f_h = np.array([sign * constants.focus_h, 0.0, 0.0, 0.0])
            assert abs(hyperboloid_residual(constants, f_e)) <= 1e-13
            assert abs(ellipse_residual(constants, f_h)) <= 1e-13

    def test_residuals_at_vertices(self, constants):
        V = simplex_vertices(constants)
        for i in (0, 1):
            assert abs(ellipse_residual(constants, V[i])) <= 1e-14
        for i in (2, 3, 4):
            assert abs(hyperboloid_residual(constants, V[i])) <= 1e-14

    def test_residual_at_arc_apex_point(self, constants):
        """The apex of the transported arc between p4 and p5 lies on H."""
        V = simplex_vertices(constants)
        a = math.sqrt(constants.a_sq)
        p45 = 0.5 * (V[3] + V[4])
        p123 = (V[0] + V[1] + V[2]) / 3.0
        u = (p123 - p45) / np.linalg.norm(p123 - p45)
        omega = p45 - (a - constants.x1) * u
        assert abs(omega[0] - FROZEN["omega_x"]) <= 1e-12
        assert abs(omega[1] - FROZEN["omega_y"]) <= 1e-12
        assert abs(hyperboloid_residual(constants, omega)) <= 1e-10


class TestParametrization:
    def test_ellipse_vertex(self, constants):
        p = ellipse_point(constants, 0.0)
        assert np.allclose(p, [math.sqrt(1.5), 0, 0, 0], atol=1e-15)

    def test_ellipse_hits_p1(self, constants):
        p = ellipse_point(constants, FROZEN["t1"])
        target = [constants.x1, 0.0, constants.z1, 0.0]
        assert np.max(np.abs(p - target)) <= 1e-14

    def test_hyperboloid_sheet_vertex(self, constants):
        for theta in (0.0, 1.0, 2.5):
            p = hyperboloid_point(constants, 1.0, theta)
            assert np.allclose(p, [1.0, 0, 0, 0], atol=1e-15)

    def test_hyperboloid_hits_simplex_vertices(self, constants):
        V = simplex_vertices(constants)
        for theta, target in [(0.0, V[2]),
                              (-2.0 * math.pi / 3.0, V[3]),
                              (2.0 * math.pi / 3.0, V[4])]:
            p = hyperboloid_point(constants, constants.x0, theta)
            assert np.max(np.abs(p - target)) <= 1e-14

    def test_out_of_domain(self, constants):
        with pytest.raises(OutOfDomain):
            hyperboloid_point(constants, 0.99, 0.0)
        with pytest.raises(OutOfDomain):
            ellipse_point(constants, math.nan)

    @settings(max_examples=80, deadline=None)
    @given(st.floats(min_value=-math.pi, max_value=math.pi))
    def test_ellipse_points_on_curve(self, constants, t):
        p = ellipse_point(constants, t)
        assert abs(ellipse_residual(constants, p)) <= 1e-13
        assert p[1] == p[3] == 0.0

    @settings(max_examples=80, deadline=None)
    @given(st.floats(min_value=1.0, max_value=3.0),
           st.floats(min_value=0.0, max_value=2.0 * math.pi))
    def test_hyperboloid_points_on_sheet(self, constants, x, theta):
        p = hyperboloid_point(constants, x, theta)
        assert abs(hyperboloid_residual(constants, p)) <= 1e-13
        assert p[2] == 0.0
