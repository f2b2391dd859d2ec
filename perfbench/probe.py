"""Set-up probe and the a^2 = 1.4 negative control, one fresh process each.

Usage, from the repository root with ``src`` on ``PYTHONPATH``:

    python3 perfbench/probe.py [--grid 64x96 --arcs 256] [--control]

Imports ``peabody4d.cli`` and builds constants, simplex, the 120-motion
group, the skeleton and, when ``--grid`` is given, the ball model at that
patch grid and arc count.  Prints one JSON object: the
``time.perf_counter`` reading when the model is ready (the caller subtracts
its own reading from just before the spawn, which is comparable on Linux
because both read the system-wide monotonic clock), the ball count and the
path of the imported package.  With ``--control``, after the timed part, it
also reports ``rotation_closure_check`` at a^2 = 1.4, where the closure
fact must break.
"""

import argparse
import json
import time


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--grid", default=None)
    parser.add_argument("--arcs", type=int, default=None)
    parser.add_argument("--control", action="store_true")
    args = parser.parse_args()

    import peabody4d
    import peabody4d.cli  # noqa: F401  (the CLI's own imports are set-up too)
    from peabody4d import build_ball_model, compute_model_constants
    from peabody4d.skeleton import (build_focal_skeleton, build_simplex,
                                    build_symmetry_group)

    c = compute_model_constants()
    s = build_simplex(c)
    skeleton = build_focal_skeleton(c, s, build_symmetry_group(s))
    balls = 0
    if args.grid is not None:
        nx, ntheta = (int(part) for part in args.grid.split("x"))
        model = build_ball_model(skeleton, patch_grid=(nx, ntheta),
                                 arc_n=args.arcs)
        balls = len(model.centers)
    ready = time.perf_counter()

    out = {"ready": ready, "balls": balls, "module": peabody4d.__file__}
    if args.control:
        from peabody4d.numerics import model_constants_for
        from peabody4d.skeleton import rotation_closure_check
        c14 = model_constants_for(1.4)
        out["closure_1p4"] = rotation_closure_check(c14, build_simplex(c14))
    print(json.dumps(out))


if __name__ == "__main__":
    main()
