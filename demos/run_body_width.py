"""Build the ball model and measure the constant width.

The boundary is assembled from tangent-ball envelopes: one ball per
skeleton sample plus the five vertex balls.  Every boundary point has a
diameter partner exactly one width away, so support widths agree in every
direction.
"""

import numpy as np

from peabody4d import build_ball_model, compute_model_constants, diameter_check, sample_theta, width_in_direction
from peabody4d.body import PIECE_LABELS, binormal_partner, ray_cast_boundary
from peabody4d.skeleton import build_focal_skeleton, build_simplex, build_symmetry_group

c = compute_model_constants()
s = build_simplex(c)
skeleton = build_focal_skeleton(c, s, build_symmetry_group(s))
model = build_ball_model(skeleton, patch_grid=(16, 24), arc_n=64)
print("balls:", len(model.centers), " width:", model.width)

# the population is two parallel arrays, the points and their active balls;
# a sample's piece is its active ball's, read from model.sample_face
pop = sample_theta(model, 50000, seed=1)
faces = np.unique(model.sample_face[pop.active])
print("samples:", len(pop), " boundary pieces reached:", len(faces))

# support width along a few directions
rng = np.random.default_rng(2)
print("\nwidth(u) - width along random directions:")
for _ in range(5):
    u = rng.normal(size=4)
    u /= np.linalg.norm(u)
    print("  %+.3e" % (width_in_direction(pop, u) - model.width))

dia = diameter_check(model, pop[:20000], pairs=200000, seed=3)
print("\nfarthest sampled pair: %.12f (width %.12f)" % (dia, model.width))

q = ray_cast_boundary(model, np.array([1.0, 0.0, 0.0, 0.0]))
(p,) = binormal_partner(model, q)
print("\nthe +x boundary point sits on piece", PIECE_LABELS[model.sample_face[q.active[0]]])
print("its diameter partner is", np.round(p, 6), "on the opposite side")
print("separation: %.15f" % float(np.linalg.norm(q.points[0] - p)))
