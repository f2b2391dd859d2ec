"""Focal quadrics and the two Steiner chains.

The ellipse (in the {x,z}-plane) and the hyperboloid of revolution (in the
{x,y,w}-space) pass through each other's foci.  Distances between points of
the two curves then satisfy two exact identities, and the tangent-ball
radius laws they induce interlock: separation + both radii = the width,
everywhere.  Every identity takes a point or a (..., 4) batch of points.
"""

import math

import numpy as np

from peabody4d.focal import (
    interlock_residual,
    focal_const_residual,
    focal_sum_residual,
    steiner_radius_elliptic,
    steiner_radius_hyperbolic,
)
from peabody4d.geometry import ellipse_point, hyperboloid_point
from peabody4d.numerics import compute_model_constants
from peabody4d.skeleton import base_arc_points, base_patch_grid

c = compute_model_constants()     # every layer takes these constants
rng = np.random.default_rng(0)

# 2000 random configurations at once: angles and heights, one row each
t = rng.uniform(0, 2 * math.pi, size=(2000, 4))
height = rng.uniform(1.0, 2.5, size=(2000, 2))
a_e, b_e = ellipse_point(c, t[:, 0]), ellipse_point(c, t[:, 1])
a_h = hyperboloid_point(c, height[:, 0], t[:, 2])
b_h = hyperboloid_point(c, height[:, 1], t[:, 3])
worst_sum = np.max(np.abs(focal_sum_residual(a_e, b_e, a_h, b_h)))
worst_const = np.max(np.abs(focal_const_residual(c, a_e, a_h)))
print("distance-sum identity, worst of 2000 random configs: %.2e" % worst_sum)
print("constant-difference identity, worst: %.2e" % worst_const)

y = base_arc_points(c, 7)[3]          # arc apex
x = base_patch_grid(c, 6, 6)[0]       # a patch sample
print("\nchain radii at two centers:")
print("  elliptic  R_y at the arc apex: %.6f" % steiner_radius_elliptic(c, y))
print("  hyperbolic R_x at a patch point: %.6f" % steiner_radius_hyperbolic(c, x))
print("  |x - y| + R_x + R_y - width = %.2e" % interlock_residual(c, x, y))

# every patch sample against every arc sample, by broadcasting
xs, ys = base_patch_grid(c, 12, 9), base_arc_points(c, 20)
worst = np.max(np.abs(interlock_residual(c, xs[:, None], ys[None])))
print("  interlock over a %d-point sweep: %.2e" % (12 * 9 * 20, worst))
