"""Slice the body with hyperplanes and export meshes.

A hyperplane cuts each 4-ball in a 3-ball, so a slice of the model is again
an intersection of balls; the surface is ray cast in-plane and written as
an OFF mesh.  Run this, then open the printed files in any mesh viewer:

    python demos/run_slice_export.py [OUTPUT_DIR]

The meshes go to OUTPUT_DIR (created if missing), or else to a fresh
temporary directory.
"""

import os
import sys
import tempfile

import numpy as np

from peabody4d import build_ball_model, compute_model_constants
from peabody4d.body import EmptySlice, slice_surface
from peabody4d.cli import _mesh_text
from peabody4d.skeleton import build_focal_skeleton, build_simplex, build_symmetry_group

c = compute_model_constants()
s = build_simplex(c)
skeleton = build_focal_skeleton(c, s, build_symmetry_group(s))
model = build_ball_model(skeleton, patch_grid=(16, 24), arc_n=64)
if len(sys.argv) > 1:
    out_dir = sys.argv[1]
    os.makedirs(out_dir, exist_ok=True)
else:
    out_dir = tempfile.mkdtemp(prefix="peabody4d-slices-")

for name, normal, offset in (
        ("slice_w0.off", [0, 0, 0, 1], 0.0),
        ("slice_z0.off", [0, 0, 1, 0], 0.0),
        ("slice_x.off", [1, 0, 0, 0], 1.1)):
    try:
        verts, faces = slice_surface(model, np.array(normal, dtype=float),
                                     offset, 32)
    except EmptySlice as e:
        print(name, "-> empty:", e)
        continue
    path = os.path.join(out_dir, name)
    with open(path, "w") as fh:
        fh.write(_mesh_text(verts, faces, "off"))
    ext = verts.max(axis=0) - verts.min(axis=0)
    print(path, "->", len(verts), "vertices, extents",
          np.round(ext, 4), "(width %.4f)" % model.width)

# pushing the plane past the support gives an empty slice, not a crash
try:
    slice_surface(model, np.array([0.0, 0, 0, 1]), 0.4, 16)
except EmptySlice:
    print("offset 0.4 along w -> empty slice, as it should be")
