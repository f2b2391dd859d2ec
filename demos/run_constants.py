"""Where the numbers come from.

Every coordinate of the construction is a radical in sqrt(10).  This demo
prints the canonical constants next to their closed forms and then evaluates
the same closed-form embedding at a few other ellipse scales; the canonical
one is the only scale with the closure property (see run_skeleton_closure.py).
"""

import math

from peabody4d import compute_model_constants, solve_focal_embedding

c = compute_model_constants()
s10 = math.sqrt(10.0)

print("canonical constants (a^2 = 3/2)")
print("  x0 = %.15f   x0^2 = (41 - 4 sqrt 10)/27 = %.15f" % (c.x0, (41 - 4 * s10) / 27))
print("  y0 = %.15f   y0^2 = ( 7 - 2 sqrt 10)/27 = %.15f" % (c.y0, (7 - 2 * s10) / 27))
print("  x1 = %.15f   x1^2 = (11 + 2 sqrt 10)/12 = %.15f" % (c.x1, (11 + 2 * s10) / 12))
print("  z1 = %.15f" % c.z1)
print("  width = 2 z1 = %.15f = sqrt(7 - 2 sqrt 10)/3" % c.width)
print("  identity x1^2 + (9/4) y0^2 - 3/2 = %.2e" % (c.x1**2 + 2.25 * c.y0**2 - 1.5))
print()

print("the same embedding solved at other scales:")
for a2 in (1.2, 1.5, 2.0, 3.0):
    x0, x1, y0, z1 = solve_focal_embedding(a2)
    print("  a^2 = %-4g  x0 = %.12f  x1 = %.12f  width = %.12f"
          % (a2, x0, x1, 2 * z1))
