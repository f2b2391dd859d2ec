import math

import pytest
from hypothesis import given, settings, strategies as st

from peabody4d.numerics import (
    UnknownKind,
    solve_focal_embedding,
    tolerance_policy,
)

from frozen_values import FROZEN


def rel(a, b):
    return abs(a - b) / abs(b)


class TestModelConstants:
    def test_golden_values(self, constants):
        """Every scalar matches the 60-digit oracle to 1e-14 relative."""
        c = constants
        for name in ("x0", "y0", "x1", "z1", "width", "r_splus_e", "r_splus_h"):
            assert rel(getattr(c, name), FROZEN[name]) <= 1e-14, name
        assert c.a_sq == 1.5
        assert c.focus_e == 1.0
        assert rel(c.focus_h, FROZEN["a"]) <= 1e-14

    def test_canonical_coordinates_are_the_rounded_oracle(self, constants):
        """The closed form lands on the nearest doubles of the 60-digit values."""
        for name in ("x0", "x1", "y0", "z1", "width"):
            assert getattr(constants, name) == FROZEN[name], name

    def test_squared_radicals(self, constants):
        c = constants
        s10 = math.sqrt(10.0)
        assert rel(c.x0 ** 2, (41.0 - 4.0 * s10) / 27.0) <= 1e-14
        assert rel(c.y0 ** 2, (7.0 - 2.0 * s10) / 27.0) <= 1e-14
        assert rel(c.x1 ** 2, (11.0 + 2.0 * s10) / 12.0) <= 1e-14

    def test_coupled_identities(self, constants):
        c = constants
        assert abs(c.x1 ** 2 + 2.25 * c.y0 ** 2 - 1.5) <= 1e-14
        assert abs(c.z1 - math.sqrt(3.0) / 2.0 * c.y0) <= 1e-15
        assert abs(c.x1 - c.x0 - math.sqrt(5.0) / 2.0 * c.y0) <= 1e-14
        assert abs(c.x1 ** 2 - (21.0 - 9.0 * c.x0 ** 2) / 8.0) <= 1e-14

    def test_width_closed_form(self, constants):
        c = constants
        assert c.width == 2.0 * c.z1
        assert rel(c.width, math.sqrt(7.0 - 2.0 * math.sqrt(10.0)) / 3.0) <= 1e-14

    def test_ordering_window(self, constants):
        c = constants
        assert 1.0 < c.x0 < math.sqrt(21.0 / 17.0) < c.x1 < math.sqrt(1.5)

    def test_radius_linear_laws(self, constants):
        """The chain radii agree with the focal-distance linear forms."""
        c = constants
        a = math.sqrt(c.a_sq)
        assert abs(c.r_splus_e - (a - c.x1 / a)) <= 1e-14
        assert abs(c.r_splus_h - (a * c.x0 - 1.0)) <= 1e-14


class TestSolveFocalEmbedding:
    def test_reproduces_closed_forms(self, constants):
        x0, x1, y0, z1 = solve_focal_embedding(1.5)
        assert abs(x0 - constants.x0) <= 1e-12
        assert abs(x1 - constants.x1) <= 1e-12
        assert abs(y0 - constants.y0) <= 1e-12
        assert abs(z1 - constants.z1) <= 1e-12

    @pytest.mark.parametrize("a_sq,key", [
        (2.0, "solve_a2_2_0"),
        (1.4, "solve_a2_1_4"),
        (1.1, "solve_a2_1_1"),
        (4.0, "solve_a2_4_0"),
    ])
    def test_matches_bisection_oracle(self, a_sq, key):
        got = solve_focal_embedding(a_sq)
        for g, want in zip(got, FROZEN[key]):
            assert abs(g - want) <= 1e-15

    def test_defining_residuals(self):
        """Returned tuple satisfies all four defining equations at a_sq = 2."""
        a_sq = 2.0
        x0, x1, y0, z1 = solve_focal_embedding(a_sq)
        assert abs(z1 * z1 - (a_sq - 1.0) * (1.0 - x1 * x1 / a_sq)) <= 1e-12
        assert abs(y0 * y0 - (a_sq - 1.0) * (x0 * x0 - 1.0)) <= 1e-12
        assert abs(z1 - math.sqrt(3.0) / 2.0 * y0) <= 1e-12
        edge = math.sqrt((x1 - x0) ** 2 + y0 * y0 + z1 * z1)
        assert abs(edge - 2.0 * z1) <= 1e-12

    @pytest.mark.parametrize("a_sq", [1.0000000000000002, 1e4])
    def test_extreme_parameters_meet_the_defining_equations(self, a_sq):
        """The closed form holds from the next double above 1 up to 1e4."""
        x0, x1, y0, z1 = solve_focal_embedding(a_sq)
        assert abs(z1 * z1 - (a_sq - 1.0) * (1.0 - x1 * x1 / a_sq)) <= 1e-12
        assert abs(y0 * y0 - (a_sq - 1.0) * (x0 * x0 - 1.0)) <= 1e-12
        assert abs(z1 - math.sqrt(3.0) / 2.0 * y0) <= 1e-12
        edge = math.sqrt((x1 - x0) ** 2 + y0 * y0 + z1 * z1)
        assert abs(edge - 2.0 * z1) <= 1e-12

    def test_x0_window(self):
        x0, _, _, _ = solve_focal_embedding(1.5)
        assert 1.0 < x0 < math.sqrt(21.0 / 17.0)

    def test_rejects_bad_parameter(self):
        with pytest.raises(ValueError):
            solve_focal_embedding(1.0)
        with pytest.raises(ValueError):
            solve_focal_embedding(0.5)

    def test_monotone_in_parameter(self):
        """x0 and x1 increase along a grid of a_sq values."""
        grid = [1.1 + 0.1 * k for k in range(30)]
        sols = [solve_focal_embedding(a) for a in grid]
        for (lo0, lo1, _, _), (hi0, hi1, _, _) in zip(sols, sols[1:]):
            assert hi0 > lo0
            assert hi1 > lo1

    def test_finite_difference_continuity(self):
        """Small parameter steps move the root by a proportionally small amount."""
        h = 1e-6
        for a_sq in (1.1, 1.5, 2.0, 3.0, 4.0):
            x0a, x1a, _, _ = solve_focal_embedding(a_sq)
            x0b, x1b, _, _ = solve_focal_embedding(a_sq + h)
            assert abs(x0b - x0a) <= 1e-4
            assert abs(x1b - x1a) <= 1e-4

    @settings(max_examples=60, deadline=None)
    @given(st.floats(min_value=1.1, max_value=4.0))
    def test_residuals_everywhere(self, a_sq):
        """Any parameter in the working range solves to tight residuals."""
        x0, x1, y0, z1 = solve_focal_embedding(a_sq)
        assert 1.0 < x0 < x1
        assert y0 > 0.0 and z1 > 0.0
        edge = math.sqrt((x1 - x0) ** 2 + y0 * y0 + z1 * z1)
        assert abs(edge - 2.0 * z1) <= 1e-11


class TestTolerancePolicy:
    def test_defaults(self):
        assert tolerance_policy("algebraic-identity") == 1e-12
        assert tolerance_policy("geometric-residual") == 1e-10
        assert tolerance_policy("diameter") == 1e-9
        with pytest.raises(UnknownKind):
            tolerance_policy("sampled-width")

    def test_unknown_kind(self):
        with pytest.raises(UnknownKind):
            tolerance_policy("made-up-kind")
