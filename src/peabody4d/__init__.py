"""A 4-dimensional convex body of constant width from focal-conic ball envelopes.

The package builds the body in layers:

  numerics  -- model constants for any a^2, tolerance policy, embedding solver
  geometry  -- isometries, the conics E and H, the simplex coordinates
  focal     -- focal-distance identities and Steiner chain radius laws
  skeleton  -- the simplex, its symmetry group, and the curved 2-skeleton
  body      -- the intersection-of-balls model, boundary maps, width checks
  cli       -- command-line verification, sampling, and slicing tools

Every layer takes the ModelConstants built by numerics as an explicit
argument, so one code path serves every ellipse parameter a^2.
"""

from .body import (
    BallModel,
    BoundaryPopulation,
    build_ball_model,
    diameter_check,
    ray_cast_boundary,
    sample_theta,
    width_in_direction,
)
from .numerics import (
    ModelConstants,
    NoConvergence,
    UnknownKind,
    compute_model_constants,
    solve_focal_embedding,
    tolerance_policy,
)
from .skeleton import (
    FocalSkeleton,
    build_focal_skeleton,
    build_simplex,
    build_symmetry_group,
)

__all__ = [
    "BallModel",
    "BoundaryPopulation",
    "FocalSkeleton",
    "ModelConstants",
    "NoConvergence",
    "UnknownKind",
    "build_ball_model",
    "build_focal_skeleton",
    "build_simplex",
    "build_symmetry_group",
    "compute_model_constants",
    "diameter_check",
    "ray_cast_boundary",
    "sample_theta",
    "solve_focal_embedding",
    "tolerance_policy",
    "width_in_direction",
]

__version__ = "0.1.0"
