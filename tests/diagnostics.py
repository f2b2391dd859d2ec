"""Diagnostics the tests share: grid convergence and traced memory peaks."""

import tracemalloc

import numpy as np

from peabody4d.body import _ray_cast_many, build_ball_model, unit_directions


def ray_displacements(skeleton, grids, probes=200, seed=0):
    """Max boundary movement between successive grid refinements.

    grids is a list of (patch_grid, arc_n) levels, typically each twice as
    fine as the last; the returned displacement maxima shrink ~4x per level
    for a second-order-accurate envelope.
    """
    U = unit_directions(np.random.default_rng(seed), probes)
    hits = []
    for patch_grid, arc_n in grids:
        model = build_ball_model(skeleton, patch_grid=patch_grid, arc_n=arc_n)
        ts, _ = _ray_cast_many(model, U)
        hits.append(ts)
    return [float(np.max(np.abs(hits[k + 1] - hits[k])))
            for k in range(len(hits) - 1)]


def traced_peak(call):
    """call's result and the bytes by which tracemalloc's peak during it
    exceeds the memory traced when it began."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        out = call()
        return out, tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
