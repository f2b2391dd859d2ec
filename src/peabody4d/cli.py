"""Command-line interface: constants, verification suites, sampling, slicing.

Four subcommands:

``constants``
    Print the model constants (17 significant digits, optionally JSON with
    exact radical forms), or the embedding tuple for another ``--a2``.
``verify``
    Run a named suite of the checks in ``CHECK_NAMES`` and emit a JSON report
    of one record per check.  The report is deterministic for a given seed
    and grid: wall-clock timings go to stderr only.  Exit status 1 when any
    check fails.
``sample``
    Write a CSV of boundary samples (coordinates, piece label, model slack).
``slice``
    Intersect the ball model with a hyperplane and export the resulting
    3-dimensional surface as an OFF/PLY mesh or a CSV point cloud.

Checks are independent of each other and keep no state beyond the list of
records they append to, so they are safe to reorder or run concurrently; all
randomness flows through explicitly seeded generators.

Exit statuses: 0 success, 1 verification failure or an empty slice, 2 usage
error (among them a config key that no command reads or that is given twice,
a ``--tol`` given twice for one check, and a hidden ``--perturb`` outside
(-1, 1) or one whose scaled radii leave the centroid outside a ball), 3 I/O
error.
"""

import argparse
import atexit
import dataclasses
import gc
import json
import math
import os
import sys
import time

import numpy as np

from .body import (
    EmptySlice,
    InteriorPointNotInterior,
    PIECE_LABELS,
    binormal_partner,
    boundary_blocks,
    build_ball_model,
    chord_lengths,
    diameter_check,
    phi1,
    phi2,
    sample_exact_boundary,
    sample_theta,
    slice_surface,
)
from .focal import (
    interlock_residual,
    focal_const_residual,
    focal_sum_residual,
)
from .geometry import (
    ellipse_point,
    hyperboloid_point,
    isometry_from_vertex_permutation,
)
from .numerics import NoConvergence, compute_model_constants, tolerance_policy
from .skeleton import (
    base_arc_points,
    base_patch_grid,
    build_focal_skeleton,
    build_simplex,
    build_symmetry_group,
    dual_label,
    radius_consistency_residual,
    rotation_closure_check,
    tangent_slopes,
)

# a command's objects die with its process: frozen, they skip the exit collection
atexit.register(gc.freeze)


class _UsageError(Exception):
    """Malformed flag or config values (exit status 2)."""


# exact radical forms for the canonical constants; the chain seed radii
# r_splus_e = a - x1/a and r_splus_h = a*x0 - 1 follow from them and are omitted
EXACT_FORMS = {
    "a_sq": "3/2",
    "focus_e": "1",
    "focus_h": "sqrt(3/2)",
    "x0_sq": "(41 - 4*sqrt(10))/27",
    "y0_sq": "(7 - 2*sqrt(10))/27",
    "x1_sq": "(11 + 2*sqrt(10))/12",
    "z1": "sqrt(7 - 2*sqrt(10))/6",
    "width": "sqrt(7 - 2*sqrt(10))/3",
}

DEFAULT_GRID = (64, 96)
DEFAULT_SAMPLES = 10000
# upper bounds, so that a typo cannot ask for tens of GB: sampling 10^6
# points peaks near 73 MB at 64x96 (its rows stream), the grid bound is four
# times the default in each direction and the mesh bound about ten times the
# default resolution
MAX_SAMPLES = 10 ** 6
MAX_GRID = (256, 384)
MAX_RESOLUTION = 256
# sample rows per CSV write
_CSV_ROWS = 2 ** 10

# every check verify runs, in report order: name (what --tol accepts) ->
# (tolerance_policy class of its default tolerance, anchor: the claim it tests)
CHECK_NAMES = {
    "focal-distance-sum": ("geometric-residual",
        "sum of distances between dual quadric points splits by component"),
    "focal-difference-constant": ("geometric-residual",
        "mixed vertex-focus distance combination is constant"),
    "radius-sum-constant": ("geometric-residual",
        "separation plus the two chain radii equals the width"),
    "rotation-closure": ("geometric-residual",
        "the cycling motion maps the base arc onto the patch sheet"),
    "closure-point-offset": ("algebraic-identity",
        "the transported arc apex sits at the predicted edge-midpoint distance"),
    "tangent-match": ("algebraic-identity",
        "arc tangent agrees with the patch tangent at the shared corner"),
    "radius-consistency": ("geometric-residual",
        "elliptic and hyperbolic chain radii agree along the shared arc"),
    "boundary-slack-inner": ("diameter",
        "every boundary sample lies inside every ball"),
    "boundary-slack-outer": ("geometric-residual",
        "every boundary sample touches the ball envelope to roundoff"),
    "binormal-separation": ("algebraic-identity",
        "paired envelope images are the width apart"),
    "partner-distance": ("diameter",
        "each sample's diameter partner is the width away"),
    "diameter-pairs": ("diameter", "no sampled pair exceeds the width"),
    "diameter-chords": ("diameter",
        "antipodal ray chords through the centroid do not exceed the width"),
    "width-coordinate-axes": ("diameter",
        "support width along the coordinate axes matches the width"),
}


def _fmt(x):
    return "%.17g" % float(x)


# ----------------------------------------------------------------------------
# configuration plumbing
# ----------------------------------------------------------------------------

# the keys some command reads; one file may serve every command
CONFIG_KEYS = {"a2", "suite", "samples", "seed", "grid", "hyperplane",
               "resolution", "format"}


def _load_config(path):
    """Flat key = value file of CONFIG_KEYS, each once; '#' starts a comment."""
    cfg = {}
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.readlines()
    except UnicodeDecodeError as exc:
        raise _UsageError(f"{path}: not UTF-8 text ({exc.reason})") from exc
    for lineno, raw in enumerate(lines, 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise _UsageError(f"{path}:{lineno}: expected key = value")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in CONFIG_KEYS or key in cfg:
            why = "given twice" if key in cfg else "read by no command"
            raise _UsageError(f"{path}:{lineno}: key {key!r} {why}")
        cfg[key] = value
    return cfg


def _resolve(flag_value, cfg, key, convert, default, env=None):
    """Defaults < environment variable env < config file < command-line flag.

    convert parses and range-checks the winning value, whatever its source;
    its ValueError becomes a usage error naming that source.
    """
    for source, value in ((f"--{key}", flag_value),
                          (f"config key {key!r}", cfg.get(key)),
                          (env, os.environ.get(env) if env else None)):
        if value is not None:
            try:
                return convert(value)
            except ValueError as exc:
                raise _UsageError(f"{source}: {exc}") from exc
    return default


def _int_in(low, high=None):
    """Converter to an integer n with low <= n (<= high, when given)."""
    def convert(value):
        n = int(value)
        if n < low or (high is not None and n > high):
            bound = f">= {low}" if high is None else f"in [{low}, {high}]"
            raise ValueError(f"expected an integer {bound}, got {n}")
        return n
    return convert


def _one_of(*choices):
    """Converter that accepts exactly the given strings."""
    def convert(value):
        if value not in choices:
            raise ValueError(f"expected one of {', '.join(choices)}, got {value!r}")
        return value
    return convert


def _parse_grid(text):
    try:
        nx, ntheta = (int(part) for part in text.lower().split("x"))
    except ValueError:
        raise ValueError(f"expected <nx>x<ntheta>, got {text!r}") from None
    if nx < 2 or ntheta < 3 or ntheta % 3:
        raise ValueError("needs nx >= 2 and ntheta a positive multiple of 3")
    if nx > MAX_GRID[0] or ntheta > MAX_GRID[1]:
        raise ValueError("nx and ntheta may be at most %dx%d" % MAX_GRID)
    return nx, ntheta


def _parse_a2(value):
    a2 = float(value)
    if not (a2 > 1.0 and math.isfinite(a2)):
        raise ValueError(f"a^2 must be a finite number above 1, got {a2}")
    return a2


def _parse_hyperplane(text):
    """Converter to the (normal, offset) of the hyperplane normal . p = offset."""
    try:
        values = [float(part) for part in text.split(",")]
    except ValueError:
        values = []
    if len(values) != 5:
        raise ValueError(f"expected nx,ny,nz,nw,offset, got {text!r}")
    if not all(map(math.isfinite, values)):
        raise ValueError("normal and offset must be finite")
    normal = np.array(values[:4])
    with np.errstate(over="ignore"):
        norm = np.linalg.norm(normal)
    if not 1e-12 <= norm < math.inf:
        raise ValueError("normal must be nonzero, with a finite norm")
    return normal, values[4]


def _write(text, path):
    """Write text, one string or an iterable of strings, to path, or to
    stdout when no path is given."""
    pieces = [text] if isinstance(text, str) else text
    if path:
        with open(path, "w") as fh:
            fh.writelines(pieces)
    else:
        sys.stdout.writelines(pieces)


def _arc_count(ntheta):
    # ties the arc resolution to the patch resolution: 96 -> 257, 24 -> 65;
    # the count is odd, so the arc apex is a grid node
    return max(16, (8 * ntheta) // 3) + 1


def _parse_tols(items):
    tols = {}
    for item in items or []:
        if "=" not in item:
            raise _UsageError(f"--tol expects name=value, got {item!r}")
        name, value = (part.strip() for part in item.split("=", 1))
        if name not in CHECK_NAMES:
            raise _UsageError(f"--tol: unknown check {name!r}")
        if name in tols:
            raise _UsageError(f"--tol {name}: given twice")
        try:
            tols[name] = float(value)
        except ValueError as exc:
            raise _UsageError(f"--tol {name}: {exc}") from exc
        if not 0.0 <= tols[name] < math.inf:
            raise _UsageError(f"--tol {name}: expected a finite value >= 0")
    return tols


def _build_skeleton(c):
    s = build_simplex(c)
    return build_focal_skeleton(c, s, build_symmetry_group(s))


def _build_model(skeleton, grid):
    return build_ball_model(skeleton, patch_grid=grid, arc_n=_arc_count(grid[1]))


# ----------------------------------------------------------------------------
# constants
# ----------------------------------------------------------------------------

def cmd_constants(args):
    cfg = _load_config(args.config) if args.config else {}
    a2 = _resolve(args.a2, cfg, "a2", _parse_a2, 1.5)
    try:
        c = compute_model_constants(a2)
    except NoConvergence as exc:
        raise _UsageError(f"--a2: {exc}") from exc
    data = dataclasses.asdict(c)
    exact = EXACT_FORMS if a2 == 1.5 else {}
    if args.json:
        if exact:
            data["exact"] = dict(exact)
        print(json.dumps(data, indent=2, sort_keys=True))
        return 0
    for key, value in data.items():
        line = f"{key:10s} = {_fmt(value)}"
        if key in exact:
            line += f"   (= {exact[key]})"
        print(line)
    if exact:
        for key in ("x0_sq", "y0_sq", "x1_sq"):
            print(f"{key:10s} = {_fmt(getattr(c, key[:2]) ** 2)}   (= {exact[key]})")
    return 0


# ----------------------------------------------------------------------------
# verify
# ----------------------------------------------------------------------------

def _layer_line(name, work, start):
    """A stderr timer line for an untimed layer of verify, in _run_check style."""
    return f"  {name}: {work} ({time.perf_counter() - start:.2f}s)"


def _run_check(checks, tols, name, samples, seed, fn):
    """Run one check and append its record; its tolerance is --tol, else
    the policy's for its class."""
    kind, anchor = CHECK_NAMES[name]
    tol = tols.get(name, tolerance_policy(kind))
    start = time.perf_counter()
    value = float(fn())
    elapsed = time.perf_counter() - start
    passed = bool(value <= tol)
    status = "ok" if passed else "FAIL"
    print(f"  {name}: {value:.3e} vs {tol:.1e} [{status}] ({elapsed:.2f}s)",
          file=sys.stderr)
    checks.append({"name": name, "anchor": anchor, "max_residual": value,
                   "tolerance": tol, "passed": passed,
                   "samples": int(samples), "seed": int(seed)})


def _focal_checks(checks, tols, samples, seed, c):
    two_pi = 2 * math.pi

    def sum_sweep():
        # row k holds the parameters of configuration k in draw order
        t = np.random.default_rng(seed).uniform(
            [0, 0, 1.0, 0, 1.0, 0], [two_pi, two_pi, 2.5, two_pi, 2.5, two_pi],
            size=(samples, 6))
        return np.max(np.abs(focal_sum_residual(
            ellipse_point(c, t[:, 0]), ellipse_point(c, t[:, 1]),
            hyperboloid_point(c, t[:, 2], t[:, 3]),
            hyperboloid_point(c, t[:, 4], t[:, 5]))))

    def const_sweep():
        t = np.random.default_rng(seed + 1).uniform(
            [0, 1.0, 0], [two_pi, 3.0, two_pi], size=(samples, 3))
        return np.max(np.abs(focal_const_residual(
            c, ellipse_point(c, t[:, 0]), hyperboloid_point(c, t[:, 1], t[:, 2]))))

    def radius_sum_grid():
        xs = base_patch_grid(c, 20, 15)[:100]
        ys = base_arc_points(c, 100)
        return np.max(np.abs(interlock_residual(c, xs[:, None], ys[None])))

    _run_check(checks, tols, "focal-distance-sum", samples, seed, sum_sweep)
    _run_check(checks, tols, "focal-difference-constant", samples, seed + 1,
               const_sweep)
    _run_check(checks, tols, "radius-sum-constant", 100 * 100, seed, radius_sum_grid)


def _skeleton_checks(checks, tols, samples, seed, skeleton):
    c, s = skeleton.constants, skeleton.simplex

    def closure():
        return rotation_closure_check(c, s, n=max(200, samples // 5))

    def omega_offset():
        motion = isometry_from_vertex_permutation(s.vertices, (4, 5, 3, 1, 2))
        omega = motion.apply(np.array([c.focus_h, 0.0, 0.0, 0.0]))
        p45 = 0.5 * (s.vertices[3] + s.vertices[4])
        return abs(np.linalg.norm(omega - p45) - (c.focus_h - c.x1))

    def tangents():
        target = -3.0 * c.z1 / c.x1
        return max(abs(slope - target) for slope in tangent_slopes(c, s))

    def radius_match():
        pts = skeleton.face((4, 5)).points(102)[1:-1]
        return np.max(np.abs(radius_consistency_residual(skeleton, pts)))

    _run_check(checks, tols, "rotation-closure", max(200, samples // 5), seed,
               closure)
    _run_check(checks, tols, "closure-point-offset", 1, seed, omega_offset)
    _run_check(checks, tols, "tangent-match", 3, seed, tangents)
    _run_check(checks, tols, "radius-consistency", 100, seed, radius_match)


def _axis_support_pairs(skeleton):
    """Two (4, 4) arrays of body points, hi[k] - lo[k] = w e_k to roundoff.

    In a body of diameter w (the diameter-* checks), two of its points w
    apart are a binormal: every point of the body lies within w of both, so
    between the hyperplanes normal to it through them, and they span its
    width along it.  Along x the pair is the phi images of the sheet vertex
    of patch 345 and the apex of arc 12; along y, z and w it is the vertex
    p_i furthest along e and p_i - w e on the cap opposite it, which along
    z and w is p2 and p4.
    """
    V, c = skeleton.simplex.vertices, skeleton.constants
    patch, arc = skeleton.face((3, 4, 5)), skeleton.face((1, 2))
    x, y = np.array([1.0, 0, 0, 0]), np.array([math.sqrt(c.a_sq), 0, 0, 0])
    top = V[np.argmax(V, axis=0)][1:]
    return (np.vstack([phi2(patch, arc, x, y), top]),
            np.vstack([phi1(patch, arc, x, y), top - c.width * np.eye(4)[1:]]))


def _body_checks(checks, tols, samples, seed, model):
    skeleton, w = model.skeleton, model.width
    n = max(samples, 10 ** 4)
    start = time.perf_counter()
    pop = sample_theta(model, n, seed=seed)
    print(_layer_line("sample-theta", f"{len(pop)} samples", start),
          file=sys.stderr)
    start = time.perf_counter()
    ms, _ = model.min_slack(pop.points)
    print(_layer_line("min-slack", f"{len(pop)} samples x "
                      f"{len(model.centers)} balls", start), file=sys.stderr)

    def separation():
        rng = np.random.default_rng(seed + 3)
        worst = 0.0
        for patch in skeleton.triangle_faces():
            arc = skeleton.face(dual_label(patch.label))
            xs = patch.grid_points(8, 9)
            ys = arc.points(40)
            # row k holds the (x, y) indices of pair k in draw order
            i = rng.integers([0, 1], [len(xs), len(ys) - 1], size=(20, 2))
            x, y = xs[i[:, 0]], ys[i[:, 1]]
            gap = np.linalg.norm(phi1(patch, arc, x, y) - phi2(patch, arc, x, y),
                                 axis=-1)
            worst = max(worst, np.max(np.abs(gap - w)))
        return worst

    def partner_sweep():
        head = pop[:2000]
        dist = np.linalg.norm(head.points - binormal_partner(model, head), axis=1)
        return float(np.max(np.abs(dist - w)))

    def diameter_pairs():
        exact = sample_exact_boundary(model, min(n, 20000), seed=seed + 1)
        return abs(diameter_check(model, exact, pairs=10 ** 6, seed=seed + 2) - w)

    def diameter_chords():
        # by the simplex symmetry a diameter through the centroid lies along
        # each of the ten dual-pair axes, and only a diameter reaches the
        # width: at 16x24 random chords through it fall short by >= 3.7e-4.
        # Each axis chord joins a sheet vertex to an arc apex, both grid
        # nodes of the model, so it is the width to roundoff
        return max(0.0, float(np.max(
            chord_lengths(model, skeleton.simplex.axes))) - w)

    def axis_width():
        hi, lo = _axis_support_pairs(skeleton)
        slack, _ = model.min_slack(np.vstack([hi, lo]))
        return max(np.max(np.abs(np.diag(hi - lo) - w)), np.max(np.abs(slack)))

    _run_check(checks, tols, "boundary-slack-inner", n, seed,
               lambda: max(0.0, -float(ms.min())))
    _run_check(checks, tols, "boundary-slack-outer", n, seed,
               lambda: max(0.0, float(ms.max())))
    _run_check(checks, tols, "binormal-separation", 200, seed + 3, separation)
    _run_check(checks, tols, "partner-distance", min(2000, n), seed, partner_sweep)
    _run_check(checks, tols, "diameter-pairs", 10 ** 6, seed + 2, diameter_pairs)
    _run_check(checks, tols, "diameter-chords", 10, seed, diameter_chords)
    _run_check(checks, tols, "width-coordinate-axes", 8, seed, axis_width)


def cmd_verify(args):
    cfg = _load_config(args.config) if args.config else {}
    suite = _resolve(args.suite, cfg, "suite",
                     _one_of("all", "focal", "skeleton", "body"), "all")
    samples = _resolve(args.samples, cfg, "samples", _int_in(1, MAX_SAMPLES),
                       DEFAULT_SAMPLES)
    seed = _resolve(args.seed, cfg, "seed", _int_in(0), 0, env="PEABODY4D_SEED")
    grid = _resolve(args.grid, cfg, "grid", _parse_grid, DEFAULT_GRID)
    tols = _parse_tols(args.tol)
    perturb = _resolve(args.perturb, {}, "perturb", float, 0.0)  # flag only
    if not -1.0 < perturb < 1.0:
        raise _UsageError(f"--perturb must lie in (-1, 1), got {perturb}")

    start = time.perf_counter()
    c = compute_model_constants()
    skeleton = _build_skeleton(c)
    # the layer lines wait for the header, so that a --perturb error stays
    # the only stderr line
    layer_lines = []
    if suite in ("all", "body"):
        layer_start = time.perf_counter()
        model = _build_model(skeleton, grid)
        layer_lines.append(_layer_line(
            "model-build", f"{len(model.centers)} balls", layer_start))
        if perturb:
            try:
                model = dataclasses.replace(
                    model, radii=model.radii * (1.0 + perturb))
            except InteriorPointNotInterior as exc:
                raise _UsageError(f"--perturb {perturb}: {exc}") from exc

    arc_n = _arc_count(grid[1])
    print(f"suite {suite}: grid {grid[0]}x{grid[1]}, arcs {arc_n}, "
          f"samples {samples}, seed {seed}", file=sys.stderr)
    for line in layer_lines:
        print(line, file=sys.stderr)
    checks = []
    if suite in ("all", "focal"):
        _focal_checks(checks, tols, samples, seed, c)
    if suite in ("all", "skeleton"):
        _skeleton_checks(checks, tols, samples, seed, skeleton)
    if suite in ("all", "body"):
        _body_checks(checks, tols, samples, seed, model)

    passed = all(check["passed"] for check in checks)
    report = {"schema": 1, "suite": suite, "seed": seed, "samples": samples,
              "model": {"a_sq": c.a_sq, "width": c.width,
                        "patch_grid": list(grid), "arc_n": arc_n},
              "checks": checks, "passed": passed}
    _write(json.dumps(report, indent=2, sort_keys=True, allow_nan=False) + "\n",
           args.out)
    print(f"suite {suite}: {'pass' if passed else 'FAIL'} "
          f"({time.perf_counter() - start:.1f}s wall)", file=sys.stderr)
    return 0 if passed else 1


# ----------------------------------------------------------------------------
# sample
# ----------------------------------------------------------------------------

def cmd_sample(args):
    cfg = _load_config(args.config) if args.config else {}
    n = _resolve(args.samples, cfg, "samples", _int_in(1, MAX_SAMPLES), 1000)
    seed = _resolve(args.seed, cfg, "seed", _int_in(0), 0, env="PEABODY4D_SEED")
    grid = _resolve(args.grid, cfg, "grid", _parse_grid, DEFAULT_GRID)

    model = _build_model(_build_skeleton(compute_model_constants()), grid)
    # one format per row: the bytes of _fmt on each coordinate and the slack.
    # The rows stream from the sampler (sample_theta's blocks), so that
    # neither the population nor the text ever exists whole.
    row = "%.17g,%.17g,%.17g,%.17g,%s,%.17g\n"
    labels = np.array(PIECE_LABELS)[model.sample_face]

    def chunks():
        yield "x,y,z,w,face,slack\n"
        for pop in boundary_blocks(model, n, seed=seed):
            slack, _ = model.min_slack(pop.points)
            for k in range(0, len(pop), _CSV_ROWS):
                rows = slice(k, k + _CSV_ROWS)
                yield "".join(row % (*point, face, sl) for point, face, sl in zip(
                    pop.points[rows].tolist(), labels[pop.active[rows]].tolist(),
                    slack[rows].tolist()))
    _write(chunks(), args.out)
    return 0


# ----------------------------------------------------------------------------
# slice
# ----------------------------------------------------------------------------

def _mesh_text(verts, faces, fmt):
    # one format per vertex row: the bytes of _fmt on each coordinate
    row = "%.17g,%.17g,%.17g" if fmt == "csv" else "%.17g %.17g %.17g"
    rows = [row % tuple(vert) for vert in verts.tolist()]
    if fmt == "csv":
        return "\n".join(["x,y,z"] + rows) + "\n"
    if fmt == "off":
        lines = ["OFF", f"{len(verts)} {len(faces)} 0"]
    else:
        lines = [
            "ply", "format ascii 1.0",
            f"element vertex {len(verts)}",
            "property double x", "property double y", "property double z",
            f"element face {len(faces)}",
            "property list uchar int vertex_indices",
            "end_header",
        ]
    lines += rows
    lines += ["3 %d %d %d" % face for face in faces]
    return "\n".join(lines) + "\n"


def cmd_slice(args):
    cfg = _load_config(args.config) if args.config else {}
    plane = _resolve(args.hyperplane, cfg, "hyperplane", _parse_hyperplane, None)
    if plane is None:
        raise _UsageError("--hyperplane is required")
    resolution = _resolve(args.resolution, cfg, "resolution",
                          _int_in(8, MAX_RESOLUTION), 24)
    fmt = _resolve(args.format, cfg, "format", _one_of("off", "ply", "csv"), "off")
    grid = _resolve(args.grid, cfg, "grid", _parse_grid, DEFAULT_GRID)

    model = _build_model(_build_skeleton(compute_model_constants()), grid)
    verts, faces = slice_surface(model, *plane, resolution)
    _write(_mesh_text(verts, faces, fmt), args.out)
    return 0


# ----------------------------------------------------------------------------
# entry point
# ----------------------------------------------------------------------------

def _build_parser():
    parser = argparse.ArgumentParser(
        prog="peabody4d",
        description="Inspect and verify a 4-dimensional constant-width body "
                    "built from focal-conic ball envelopes.")
    sub = parser.add_subparsers(dest="command", required=True)

    pc = sub.add_parser("constants", help="print the model constants")
    pc.add_argument("--json", action="store_true")
    pc.add_argument("--a2", default=None,
                    help="solve the embedding for another ellipse scale")
    pc.add_argument("--config", default=None)
    pc.set_defaults(func=cmd_constants)

    pv = sub.add_parser("verify", help="run a verification suite")
    pv.add_argument("--suite", default=None)
    pv.add_argument("--samples", default=None)
    pv.add_argument("--seed", default=None)
    pv.add_argument("--tol", action="append", metavar="NAME=VALUE",
                    help="override a check tolerance")
    pv.add_argument("--grid", default=None, metavar="NXxNTHETA")
    pv.add_argument("--out", default=None)
    pv.add_argument("--config", default=None)
    pv.add_argument("--perturb", default=None, help=argparse.SUPPRESS)
    pv.set_defaults(func=cmd_verify)

    ps = sub.add_parser("sample", help="write boundary samples as CSV")
    ps.add_argument("--samples", default=None)
    ps.add_argument("--seed", default=None)
    ps.add_argument("--grid", default=None, metavar="NXxNTHETA")
    ps.add_argument("--out", default=None)
    ps.add_argument("--config", default=None)
    ps.set_defaults(func=cmd_sample)

    pl = sub.add_parser("slice", help="export a hyperplane slice as a mesh")
    pl.add_argument("--hyperplane", default=None, metavar="NX,NY,NZ,NW,OFFSET")
    pl.add_argument("--resolution", default=None)
    pl.add_argument("--format", default=None)
    pl.add_argument("--grid", default=None, metavar="NXxNTHETA")
    pl.add_argument("--out", default=None)
    pl.add_argument("--config", default=None)
    pl.set_defaults(func=cmd_slice)
    return parser


def main(argv=None):
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    try:
        return int(args.func(args))
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except EmptySlice as exc:
        print(f"error: empty slice: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
