"""The curved 2-skeleton and why a^2 = 3/2 is special.

Ten ellipse arcs replace the simplex edges and ten hyperboloid patches
replace its triangles.  The pieces only join up seamlessly when the
rotation that cycles three vertices carries the base arc exactly onto a
conic of the base patch -- which happens at a^2 = 3/2 and at no nearby
scale.
"""

import numpy as np

from peabody4d.numerics import compute_model_constants
from peabody4d.skeleton import (
    build_focal_skeleton,
    build_simplex,
    build_symmetry_group,
    radius_consistency_residual,
    rotation_closure_check,
    tangent_slopes,
)

c = compute_model_constants()
s = build_simplex(c)
group = build_symmetry_group(s)
skeleton = build_focal_skeleton(c, s, group)

print("faces:", len(skeleton.faces), "=",
      len(skeleton.edge_faces()), "arcs +",
      len(skeleton.triangle_faces()), "patches")
print("symmetry group:", len(group), "motions")

print("\nclosure residual by scale (only the canonical one closes):")
for a2 in (1.4, 1.45, 1.5, 1.55, 1.6):
    cc = compute_model_constants(a2)
    res = rotation_closure_check(cc, build_simplex(cc), n=120)
    print("  a^2 = %-5g  %.3e" % (a2, res))

base, transported, gradient = tangent_slopes(c, s)
print("\ntangent slope at a shared corner, three independent routes:")
print("  %.15f  %.15f  %.15f" % (base, transported, gradient))
print("  target -3 z1/x1 = %.15f" % (-3 * c.z1 / c.x1))

pts = skeleton.face((4, 5)).points(9)[1:-1]
worst = np.max(np.abs(radius_consistency_residual(skeleton, pts)))
print("\nelliptic vs hyperbolic radius along a shared arc: %.2e" % worst)
