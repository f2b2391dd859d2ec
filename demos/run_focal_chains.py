"""Focal quadrics and the two Steiner chains.

The ellipse (in the {x,z}-plane) and the hyperboloid of revolution (in the
{x,y,w}-space) pass through each other's foci.  Distances between points of
the two curves then satisfy two exact identities, and the tangent-ball
radius laws they induce interlock: separation + both radii = the width,
everywhere.
"""

import math

import numpy as np

from peabody4d.focal import (
    interlock_residual,
    focal_const_residual,
    focal_sum_residual,
    standard_focal_pair,
    steiner_radius_elliptic,
    steiner_radius_hyperbolic,
)
from peabody4d.geometry import base_ellipse, base_hyperboloid, ellipse_point, hyperboloid_point
from peabody4d.numerics import compute_model_constants
from peabody4d.skeleton import base_arc_points, base_patch_grid

c = compute_model_constants()     # every layer takes these constants
E, H = base_ellipse(c.a_sq), base_hyperboloid(c.a_sq)
pair = standard_focal_pair(c.a_sq)
rng = np.random.default_rng(0)

worst_sum = worst_const = 0.0
for _ in range(2000):
    a_e = ellipse_point(E, rng.uniform(0, 2 * math.pi))
    b_e = ellipse_point(E, rng.uniform(0, 2 * math.pi))
    a_h = hyperboloid_point(H, rng.uniform(1.0, 2.5), rng.uniform(0, 2 * math.pi))
    b_h = hyperboloid_point(H, rng.uniform(1.0, 2.5), rng.uniform(0, 2 * math.pi))
    worst_sum = max(worst_sum, abs(focal_sum_residual(E, H, a_e, b_e, a_h, b_h)))
    worst_const = max(worst_const, abs(focal_const_residual(pair, a_e, a_h)))
print("distance-sum identity, worst of 2000 random configs: %.2e" % worst_sum)
print("constant-difference identity, worst: %.2e" % worst_const)

y = base_arc_points(c, 7)[3]          # arc apex
x = base_patch_grid(c, 6, 6)[0]       # a patch sample
print("\nchain radii at two centers:")
print("  elliptic  R_y at the arc apex: %.6f" % steiner_radius_elliptic(c, y))
print("  hyperbolic R_x at a patch point: %.6f" % steiner_radius_hyperbolic(c, x))
print("  |x - y| + R_x + R_y - width = %.2e" % interlock_residual(c, x, y))

worst = 0.0
for x in base_patch_grid(c, 12, 9):
    for y in base_arc_points(c, 20):
        worst = max(worst, abs(interlock_residual(c, x, y)))
print("  interlock over a %d-point sweep: %.2e" % (12 * 9 * 20, worst))
