"""End-to-end tests of the command-line interface."""

import ast
import dataclasses
import json
import math
import os
import subprocess
import sys
from itertools import combinations
from pathlib import Path

import numpy as np
import pytest

from diagnostics import traced_peak
from frozen_values import FROZEN
from peabody4d import body, cli
from peabody4d.body import (
    PIECE_LABELS,
    build_ball_model,
    complement_basis,
    sample_theta,
)
from peabody4d.cli import CHECK_NAMES, main
from peabody4d.focal import focal_const_residual, focal_sum_residual
from peabody4d.geometry import ellipse_point, hyperboloid_point
from peabody4d.numerics import compute_model_constants, tolerance_policy
from peabody4d.skeleton import base_arc_points, base_patch_grid

ALL_PIECE_LABELS = {
    "".join(map(str, comb))
    for k in (2, 3, 4)
    for comb in combinations(range(1, 6), k)
}

GRID = ["--grid", "16x24"]  # keeps the heavier subcommands quick


@pytest.fixture(scope="module")
def model(skeleton):
    # the model the CLI builds at GRID, so that its output compares with it
    return cli._build_model(skeleton, (16, 24))


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# constants
# ---------------------------------------------------------------------------

def test_constants_prints_full_precision(capsys):
    code, out, _ = run(capsys, "constants")
    assert code == 0
    widths = [line for line in out.splitlines() if line.startswith("width")]
    assert len(widths) == 1
    digits = widths[0].split("=")[1].split("(")[0].strip()
    assert len(digits.replace(".", "").lstrip("0")) >= 15
    assert abs(float(digits) - FROZEN["width"]) < 1e-15


def test_constants_json_carries_exact_forms(capsys):
    code, out, _ = run(capsys, "constants", "--json")
    assert code == 0
    doc = json.loads(out)
    assert abs(doc["width"] - FROZEN["width"]) < 1e-15
    assert abs(doc["a_sq"] - 1.5) == 0.0
    exact = doc["exact"]
    for key in ("x0_sq", "y0_sq", "x1_sq", "width"):
        assert "sqrt(10)" in exact[key]
    assert exact["a_sq"] == "3/2"


def test_constants_solves_other_scales(capsys):
    code, out, _ = run(capsys, "constants", "--a2", "2.0", "--json")
    assert code == 0
    doc = json.loads(out)
    x0, x1, y0, z1 = FROZEN["solve_a2_2_0"]
    assert abs(doc["x0"] - x0) < 1e-10
    assert abs(doc["x1"] - x1) < 1e-10
    assert abs(doc["y0"] - y0) < 1e-10
    assert abs(doc["z1"] - z1) < 1e-10
    assert abs(doc["width"] - 2 * z1) < 1e-10
    # the same fields as the canonical constants, without the exact forms
    assert doc["focus_h"] == math.sqrt(2.0)
    assert set(doc) == {"a_sq", "x0", "x1", "y0", "z1", "width", "focus_e",
                        "focus_h", "r_splus_e", "r_splus_h"}


def _assert_one_error_line(code, out, err):
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and err.count("\n") == 1


def test_constants_rejects_bad_parameters(tmp_path, capsys):
    for a2 in ("0.5", "1", "-2", "nan", "inf", "1e300"):
        _assert_one_error_line(*run(capsys, "constants", "--a2", a2))
    cfg = tmp_path / "a2.cfg"
    cfg.write_text("a2 = nan\n")
    _assert_one_error_line(*run(capsys, "constants", "--config", str(cfg)))


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def test_verify_focal_example(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "focal",
                       "--samples", "1000", "--seed", "7")
    assert code == 0
    doc = json.loads(out)
    assert doc["schema"] == 1
    assert doc["passed"] is True
    assert doc["seed"] == 7
    names = {c["name"] for c in doc["checks"]}
    assert "focal-distance-sum" in names
    for check in doc["checks"]:
        assert check["passed"] is True
        assert check["max_residual"] <= 1e-10
        assert set(check) == {"name", "anchor", "max_residual", "tolerance",
                              "passed", "samples", "seed"}


def test_verify_report_has_model_metadata(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "skeleton", "--seed", "1",
                       *GRID)
    assert code == 0
    doc = json.loads(out)
    assert doc["model"]["patch_grid"] == [16, 24]
    assert doc["model"]["arc_n"] == 65
    assert abs(doc["model"]["width"] - FROZEN["width"]) < 1e-15
    assert doc["model"]["a_sq"] == 1.5


def test_verify_reports_are_byte_identical(tmp_path, capsys):
    paths = [tmp_path / "r1.json", tmp_path / "r2.json"]
    for p in paths:
        code, _, _ = run(capsys, "verify", "--suite", "all", "--samples",
                         "500", "--seed", "9", *GRID, "--out", str(p))
        assert code == 0
    assert paths[0].read_bytes() == paths[1].read_bytes()
    checks = json.loads(paths[0].read_text())["checks"]
    assert tuple(c["name"] for c in checks) == tuple(CHECK_NAMES)
    # every default tolerance is the policy value of the check's class
    pinned = {
        "focal-distance-sum": 1e-10, "focal-difference-constant": 1e-10,
        "radius-sum-constant": 1e-10, "rotation-closure": 1e-10,
        "closure-point-offset": 1e-12, "tangent-match": 1e-12,
        "radius-consistency": 1e-10, "boundary-slack-inner": 1e-9,
        "boundary-slack-outer": 1e-10, "binormal-separation": 1e-12,
        "partner-distance": 1e-9, "diameter-pairs": 1e-9,
        "diameter-chords": 1e-9, "width-coordinate-axes": 1e-9}
    assert set(pinned) == set(CHECK_NAMES)
    for check in checks:
        kind, anchor = CHECK_NAMES[check["name"]]
        assert check["tolerance"] == pinned[check["name"]]
        assert check["tolerance"] == tolerance_policy(kind)
        assert check["anchor"] == anchor


def body_check_records(model):
    """The body check records of verify on model at 10^4 samples, seed 0,
    by name."""
    checks = []
    cli._body_checks(checks, {}, 10 ** 4, 0, model)
    return {check["name"]: check for check in checks}


def body_check_failures(model):
    """The body checks of verify that model fails at 10^4 samples, seed 0."""
    return {name for name, check in body_check_records(model).items()
            if not check["passed"]}


def scaled_rows(model, rows, factor):
    radii = model.radii.copy()
    radii[rows] *= factor
    return dataclasses.replace(model, radii=radii)


@pytest.mark.parametrize("factor", [1.0 - 1e-6, 1.0 + 1e-6])
@pytest.mark.parametrize("rows", ["all", "patch", "arc", "vertices"])
def test_a_small_radius_defect_fails_a_body_check(model, rows, factor):
    # inward and outward alike, on all balls, one patch face, one arc face
    # or the five vertex balls: the verify population is tight on its active
    # balls, so the slack checks read the defect itself
    picks = {"all": slice(None), "patch": model.face_slices[(3, 4, 5)],
             "arc": model.face_slices[(1, 2)], "vertices": slice(0, 5)}
    assert body_check_failures(scaled_rows(model, picks[rows], factor))


def test_the_as_built_model_passes_every_body_check(model):
    assert body_check_failures(model) == set()


@pytest.mark.parametrize("a_sq", [1.49, 1.51])
def test_a_broken_closure_fails_a_body_check(a_sq):
    # off a^2 = 3/2 the focal chains do not close, and the body built on
    # them is not of constant width
    skeleton = cli._build_skeleton(compute_model_constants(a_sq))
    assert body_check_failures(cli._build_model(skeleton, (16, 24)))


def test_every_arc_count_is_odd():
    # an odd count puts each arc apex on the grid, for every accepted ntheta
    for ntheta in range(3, cli.MAX_GRID[1] + 1, 3):
        assert cli._parse_grid(f"2x{ntheta}") == (2, ntheta)
        assert cli._arc_count(ntheta) % 2 == 1, ntheta


@pytest.mark.parametrize("grid",
                         [(16, 24), (24, 72), (32, 48), (64, 96), (2, 3)])
def test_the_axis_chords_of_the_cli_model_are_the_width(skeleton, grid):
    # each axis chord joins a sheet-vertex ball to an arc-apex ball, both on
    # the grid, so it is the width to roundoff (1.26e-6 over at 16x24 with
    # an even arc count); the coordinate-axis support pairs are grid nodes
    # or vertices and cap points, so their check reads roundoff too
    m = cli._build_model(skeleton, grid)
    axes = np.array([line.direction
                     for line in skeleton.simplex.axes.values()])
    assert np.max(np.abs(body.chord_lengths(m, axes) - m.width)) <= 1e-15
    assert body_check_records(m)["width-coordinate-axes"]["max_residual"] <= 1e-15


def test_the_axis_support_pairs_are_the_width_apart(skeleton):
    # along x the phi images of the sheet vertex of patch 345 and the apex
    # of arc 12; along z and w an edge of the simplex, p1 p2 and p5 p4
    V, w = skeleton.simplex.vertices, skeleton.constants.width
    hi, lo = cli._axis_support_pairs(skeleton)
    assert abs(hi[0, 0] - lo[0, 0] - w) <= 1e-15
    assert np.max(np.abs(hi - lo - w * np.eye(4))) <= 1e-15
    assert np.array_equal(hi[1], V[2])
    assert np.array_equal(hi[2], V[0]) and np.array_equal(lo[2], V[1])
    assert np.array_equal(hi[3], V[4]) and np.array_equal(lo[3], V[3])


@pytest.mark.parametrize("axis, cap, on_rim", [(1, 3, False), (2, 1, True),
                                               (3, 5, True)])
def test_an_axis_support_pair_ends_in_the_cap_opposite_its_vertex(
        model, axis, cap, on_rim):
    # the low end p_i - w e lies on the cap opposite p_i: its direction -e
    # has a gnomonic point in the fan of that cap's cone.  -e_y lies strictly
    # inside a fan tetrahedron (barycentric sum 0.856); -e_z and -e_w point
    # at p2 and p4, rim nodes (sum 1), so a fan certificate would sit on its
    # boundary there, and the width check rests on the binormal argument
    hi, lo = cli._axis_support_pairs(model.skeleton)
    assert np.array_equal(hi[axis], model.skeleton.simplex.vertices[cap - 1])
    a, E, Y, T, _ = model.caps[cap - 1]
    u = (lo[axis] - hi[axis]) / model.width
    assert u @ a > 0.0
    # p = mu Y[T[f]] for the barycentric weights mu in fan tetrahedron f
    p = np.broadcast_to((u @ E) / (u @ a), (len(T), 3))
    mu = np.linalg.solve(np.transpose(Y[T], (0, 2, 1)), p[..., None])[..., 0]
    sums = mu.sum(axis=1)[np.all(mu >= -1e-12, axis=1)]
    assert len(sums) > 0
    if on_rim:
        assert np.max(np.abs(sums - 1.0)) <= 1e-9
    else:
        assert np.max(sums) < 1.0 - 1e-3


def _ball_at(model, label, base_point):
    """Index of the model ball of face label centered at the image of
    base_point under the face's generator."""
    center = model.skeleton.face(label).generator.apply(base_point)
    rows = model.face_slices[label]
    dist = np.linalg.norm(model.centers[rows] - center, axis=1)
    assert dist.min() <= 1e-12
    return rows.start + int(np.argmin(dist))


@pytest.mark.parametrize("factor, failed", [
    (1.0 + 1e-8, {"boundary-slack-outer", "diameter-chords",
                  "width-coordinate-axes"}),
    (1.0 - 1e-8, {"boundary-slack-inner", "width-coordinate-axes"})])
@pytest.mark.parametrize("ball", ["sheet-vertex", "arc-apex"])
def test_one_ball_on_an_axis_chord_reaches_the_chord_check(
        model, ball, factor, failed):
    # the sheet vertex of patch (3,4,5) and the apex of arc (1,2) end the
    # chords along their dual-pair axis: grown, either ball lengthens them
    # past the width; shrunk, either leaves samples outside it.  Each ball
    # holds one point of the support pair along x, off its sphere either way
    c = model.skeleton.constants
    k = {"sheet-vertex": _ball_at(model, (3, 4, 5), base_patch_grid(c, 2, 3)[0]),
         "arc-apex": _ball_at(model, (1, 2), base_arc_points(c, 3)[1])}[ball]
    assert body_check_failures(scaled_rows(model, [k], factor)) == failed


def test_verify_times_each_body_layer_on_stderr(capsys):
    code, out, err = run(capsys, "verify", "--suite", "body", "--samples",
                         "10", "--seed", "2", *GRID)
    assert code == 0
    assert json.loads(out)["passed"] is True
    lines = err.splitlines()
    assert lines[0].startswith("suite body: grid 16x24")
    # the model is built before the header, yet its line follows it
    layers = [line.split(":")[0].strip() for line in lines[1:4]]
    assert layers == ["model-build", "sample-theta", "min-slack"]
    assert lines[1].startswith("  model-build: 2475 balls (")
    assert lines[3].startswith("  min-slack: 10000 samples x 2475 balls (")
    assert all(line.endswith("s)") for line in lines[1:4])


@pytest.mark.parametrize("seed", [0, 7])
def test_verify_casts_the_ten_dual_pair_axes_as_chords(capsys, model, seed):
    # the diameters through the centroid lie along the dual-pair axes, so
    # the check casts those ten chords and draws nothing
    code, out, _ = run(capsys, "verify", "--suite", "body", "--samples", "10",
                       "--seed", str(seed), *GRID)
    assert code == 0
    by_name = {c["name"]: c for c in json.loads(out)["checks"]}
    chords = by_name["diameter-chords"]
    axes = np.array([line.direction
                     for line in model.skeleton.simplex.axes.values()])
    assert chords["samples"] == 10
    assert chords["seed"] == seed
    # the axis width draws nothing either: eight support points
    width = by_name["width-coordinate-axes"]
    assert (width["samples"], width["seed"]) == (8, seed)
    assert chords["max_residual"] == max(
        0.0, float(np.max(body.chord_lengths(model, axes))) - model.width)


def test_verify_perturbed_radii_fail_a_diameter_check(capsys):
    # each control fails exactly these checks at 16x24, seeds 0-2
    expected = {
        "1e-3": {"boundary-slack-outer", "diameter-chords",
                 "width-coordinate-axes"},
        "-0.01": {"boundary-slack-inner", "diameter-pairs",
                  "width-coordinate-axes"},
    }
    for perturb, names in expected.items():
        for seed in (0, 1, 2):
            code, out, _ = run(capsys, "verify", "--suite", "body",
                               "--samples", "500", "--seed", str(seed), *GRID,
                               "--perturb", perturb)
            assert code == 1
            doc = json.loads(out)
            assert doc["passed"] is False
            failed = {c["name"] for c in doc["checks"] if not c["passed"]}
            assert failed == names, (perturb, seed)


def test_verify_rejects_a_non_finite_perturbation(capsys):
    for value in ("nan", "inf", "-inf"):
        _assert_one_error_line(*run(capsys, "verify", "--suite", "body",
                                    "--samples", "10", *GRID,
                                    f"--perturb={value}"))


def test_verify_rejects_a_perturbation_that_breaks_the_model(capsys):
    # 1e300 and -1 lie outside (-1, 1); at -0.5 the centroid leaves a ball
    for value in ("1e300", "-0.5", "-1"):
        _assert_one_error_line(*run(capsys, "verify", "--suite", "body",
                                    "--samples", "10", *GRID,
                                    f"--perturb={value}"))


def test_verify_shrunken_radii_fail_the_inner_slack_check(capsys):
    # cap points come from the skeleton, so they stay on the true body and
    # fall outside the shrunken vertex balls
    code, out, _ = run(capsys, "verify", "--suite", "body", "--samples",
                       "10", *GRID, "--perturb", "-0.01")
    assert code == 1
    doc = json.loads(out)
    assert doc["passed"] is False
    by_name = {c["name"]: c for c in doc["checks"]}
    assert by_name["boundary-slack-inner"]["passed"] is False


def test_verify_width_check_reads_the_perturbed_model(capsys, monkeypatch):
    # a 9,055-ball model: whatever the grid, the support pairs are read
    # against the one verify model, and so against its perturbed radii
    built = []

    def counting(*args, **kwargs):
        built.append(kwargs.get("patch_grid"))
        return build_ball_model(*args, **kwargs)
    monkeypatch.setattr(cli, "build_ball_model", counting)
    code, out, _ = run(capsys, "verify", "--suite", "body", "--samples", "10",
                       "--grid", "32x48", "--perturb", "-0.01")
    assert code == 1
    by_name = {c["name"]: c for c in json.loads(out)["checks"]}
    assert by_name["width-coordinate-axes"]["passed"] is False
    assert built == [(32, 48)]


def test_verify_tolerance_override_is_recorded(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "focal", "--samples",
                       "50", "--seed", "2", "--tol",
                       "focal-distance-sum=1e-3")
    assert code == 0
    doc = json.loads(out)
    by_name = {c["name"]: c for c in doc["checks"]}
    assert by_name["focal-distance-sum"]["tolerance"] == 1e-3
    assert by_name["focal-difference-constant"]["tolerance"] == 1e-10


def test_focal_sweeps_draw_their_configurations_one_at_a_time(capsys, constants):
    """The batched sweeps see the configurations of drawing each parameter
    in turn, configuration after configuration."""
    code, out, _ = run(capsys, "verify", "--suite", "focal", "--samples",
                       "300", "--seed", "4")
    by_name = {c["name"]: c for c in json.loads(out)["checks"]}
    c = constants
    rng = np.random.default_rng(4)
    worst = 0.0
    for _ in range(300):
        a_e = ellipse_point(c, rng.uniform(0, 2 * math.pi))
        b_e = ellipse_point(c, rng.uniform(0, 2 * math.pi))
        a_h = hyperboloid_point(c, rng.uniform(1.0, 2.5), rng.uniform(0, 2 * math.pi))
        b_h = hyperboloid_point(c, rng.uniform(1.0, 2.5), rng.uniform(0, 2 * math.pi))
        worst = max(worst, abs(focal_sum_residual(a_e, b_e, a_h, b_h)))
    assert by_name["focal-distance-sum"]["max_residual"] == worst
    rng = np.random.default_rng(5)
    worst = 0.0
    for _ in range(300):
        a_e = ellipse_point(c, rng.uniform(0, 2 * math.pi))
        a_h = hyperboloid_point(c, rng.uniform(1.0, 3.0), rng.uniform(0, 2 * math.pi))
        worst = max(worst, abs(focal_const_residual(c, a_e, a_h)))
    assert by_name["focal-difference-constant"]["max_residual"] == worst


# ---------------------------------------------------------------------------
# sample
# ---------------------------------------------------------------------------

def test_sample_csv_rows_slack_and_labels(capsys):
    code, out, _ = run(capsys, "sample", "--samples", "1000", "--seed", "4",
                       *GRID)
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "x,y,z,w,face,slack"
    assert len(lines) == 1001
    for line in lines[1:]:
        parts = line.split(",")
        assert len(parts) == 6
        assert parts[4] in ALL_PIECE_LABELS
        assert abs(float(parts[5])) <= 1e-9


def test_sample_reaches_all_five_caps(capsys):
    code, out, _ = run(capsys, "sample", "--samples", "10000", "--seed", "4",
                       *GRID)
    assert code == 0
    faces = {line.split(",")[4] for line in out.strip().splitlines()[1:]}
    caps = {f for f in faces if len(f) == 4}
    assert caps == {f for f in ALL_PIECE_LABELS if len(f) == 4}
    assert faces <= ALL_PIECE_LABELS


def test_sample_writes_exactly_the_requested_rows(capsys):
    for n in range(1, 8):
        code, out, _ = run(capsys, "sample", "--samples", str(n),
                           "--grid", "4x6")
        assert code == 0
        assert len(out.strip().splitlines()) == n + 1, n


def test_sample_rows_are_fmt_fields_in_any_chunking(capsys, monkeypatch):
    # every number is written as _fmt writes it, whatever rows a chunk holds
    _, out, _ = run(capsys, "sample", "--samples", "1000", "--seed", "4", *GRID)
    for line in out.splitlines()[1:]:
        numbers = line.split(",")[:4] + line.split(",")[5:]
        assert [cli._fmt(float(v)) for v in numbers] == numbers
    monkeypatch.setattr(cli, "_CSV_ROWS", 7)
    monkeypatch.setattr(cli, "_SLACK_ROWS", 5)
    assert run(capsys, "sample", "--samples", "1000", "--seed", "4", *GRID)[1] == out


def whole_population_csv(model, n, seed):
    """The sample CSV formatted from the whole population: sample_theta's
    rows, their slack and labels, one format per row."""
    pop = sample_theta(model, n, seed=seed)
    slack, _ = model.min_slack(pop.points)
    row = "%.17g,%.17g,%.17g,%.17g,%s,%.17g\n"
    return "x,y,z,w,face,slack\n" + "".join(
        row % (*point, face, sl) for point, face, sl in zip(
            pop.points.tolist(),
            np.array(PIECE_LABELS)[model.sample_face[pop.active]].tolist(),
            slack.tolist()))


@pytest.fixture(scope="module")
def coarse_model(skeleton):
    return cli._build_model(skeleton, (8, 12))


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 7, 999, 8191, 8192, 8193, 20000])
def test_the_streamed_sample_is_the_whole_population_formatted(
        capsys, model, coarse_model, n):
    # the rows stream in sampler blocks, joined for the slack; the text is
    # the whole population's, whatever the blocks
    for grid, m in (("16x24", model), ("8x12", coarse_model)):
        code, out, _ = run(capsys, "sample", "--samples", str(n), "--seed",
                           "3", "--grid", grid)
        assert code == 0
        assert out == whole_population_csv(m, n, 3)


def test_sample_streams_its_rows(tmp_path, model, monkeypatch):
    # with the model built beforehand and the blocks run by the calling
    # thread alone, the peak at 2e5 rows exceeds the peak at 1,000 by one
    # cap's draws and one slack batch: about a quarter of the 8.2 MB that
    # the 2e5 rows take as one population, where holding that population,
    # its slack and its labels adds about 13 MB
    model.caps
    monkeypatch.setattr(cli, "_build_model", lambda skeleton, grid: model)
    monkeypatch.setattr(body, "_HELPERS", 0)
    out = str(tmp_path / "s.csv")

    def peak(n):
        return traced_peak(lambda: main(["sample", "--samples", str(n),
                                         *GRID, "--out", out]))[1]
    peak(1000)
    small, large = peak(1000), peak(2 * 10 ** 5)
    # a population row is 41 bytes: four float64, an int8 and an intp
    assert large - small <= 0.4 * 41 * 2 * 10 ** 5


def test_sample_is_deterministic(tmp_path, capsys):
    paths = [tmp_path / "s1.csv", tmp_path / "s2.csv"]
    for p in paths:
        code, _, _ = run(capsys, "sample", "--samples", "200", "--seed", "6",
                         *GRID, "--out", str(p))
        assert code == 0
    assert paths[0].read_bytes() == paths[1].read_bytes()


# ---------------------------------------------------------------------------
# slice
# ---------------------------------------------------------------------------

def _parse_off(text):
    lines = text.strip().splitlines()
    assert lines[0] == "OFF"
    nv, nf, _ = (int(tok) for tok in lines[1].split())
    verts = np.array([[float(t) for t in line.split()]
                      for line in lines[2:2 + nv]])
    faces = [tuple(int(t) for t in line.split()[1:])
             for line in lines[2 + nv:2 + nv + nf]]
    assert all(len(f) == 3 for f in faces)
    return verts, faces


def _assert_closed(verts, faces):
    edge_count = {}
    for f in faces:
        for a, b in ((f[0], f[1]), (f[1], f[2]), (f[2], f[0])):
            edge_count[(min(a, b), max(a, b))] = (
                edge_count.get((min(a, b), max(a, b)), 0) + 1)
    assert set(edge_count.values()) == {2}
    assert len(verts) - len(edge_count) + len(faces) == 2


def test_slice_through_centroid_is_a_closed_surface_inside_the_body(
        tmp_path, capsys, model):
    out_path = tmp_path / "mid.off"
    code, _, _ = run(capsys, "slice", "--hyperplane", "0,0,0,1,0",
                     "--resolution", "16", *GRID, "--out", str(out_path))
    assert code == 0
    verts, faces = _parse_off(out_path.read_text())
    _assert_closed(verts, faces)
    normal = np.array([0.0, 0.0, 0.0, 1.0])
    v4 = 0.0 * normal + verts @ complement_basis(normal).T
    dist = np.linalg.norm(v4[:, None, :] - model.centers[None, :, :], axis=2)
    slack = model.radii[None, :] - dist
    assert slack.min() >= -1e-9


def test_slice_planar_width_tops_out_at_the_body_width(tmp_path, capsys):
    out_path = tmp_path / "z0.off"
    code, _, _ = run(capsys, "slice", "--hyperplane", "0,0,1,0,0",
                     "--resolution", "48", *GRID, "--out", str(out_path))
    assert code == 0
    verts, _ = _parse_off(out_path.read_text())
    w = FROZEN["width"]
    rng = np.random.default_rng(0)
    best = 0.0
    for _ in range(2000):
        u = rng.normal(size=3)
        u /= np.linalg.norm(u)
        proj = verts @ u
        best = max(best, float(proj.max() - proj.min()))
    assert best <= w + 1e-3
    assert best >= w - 1e-3


def test_slice_beyond_the_support_is_empty(capsys):
    code, _, err = run(capsys, "slice", "--hyperplane", "0,0,0,1,0.5", *GRID)
    assert code == 1
    assert "empty" in err.lower()


def test_slice_whose_projected_centroid_lies_outside_searches_for_a_start(
        tmp_path, capsys, model):
    # the centroid projected onto w = 0.13 lies outside the body, so the
    # slice needs the walk to an interior start point
    normal = np.array([0.0, 0.0, 0.0, 1.0])
    g = model.interior_point
    assert model.min_slack(g + (0.13 - g @ normal) * normal)[0] < 0.0

    out_path = tmp_path / "cap.off"
    code, _, _ = run(capsys, "slice", "--hyperplane", "0,0,0,1,0.13", *GRID,
                     "--out", str(out_path))
    assert code == 0
    verts, faces = _parse_off(out_path.read_text())
    _assert_closed(verts, faces)
    v4 = 0.13 * normal + verts @ complement_basis(normal).T
    slack, _ = model.min_slack(v4)
    assert slack.min() >= -1e-9

    # just past the vertex support z1 = 0.13698 the slice is empty
    code, _, err = run(capsys, "slice", "--hyperplane", "0,0,0,1,0.137", *GRID)
    assert code == 1
    assert "empty" in err.lower()


def test_slice_just_past_a_vertex_misses_the_body(capsys, model, simplex):
    # every ball top along (p1 - g) lies about 0.012 past the vertex
    # support, so the bounding-ball test passes and the start search is
    # what finds the slice empty
    p1 = simplex.vertices[0]
    n_hat = p1 - model.interior_point
    n_hat /= np.linalg.norm(n_hat)
    plane = ",".join(repr(float(v)) for v in [*n_hat, n_hat @ p1 + 1e-4])
    code, out, err = run(capsys, "slice", "--hyperplane", plane, *GRID)
    assert code == 1
    assert out == ""
    assert err == "error: empty slice: hyperplane misses the body\n"


def src_env():
    """The environment with this package's source first on PYTHONPATH."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(Path(cli.__file__).parents[1])]
        + [p for p in [env.get("PYTHONPATH")] if p])
    return env


def test_a_cli_process_exits_with_its_objects_frozen():
    # atexit handlers run last in, first out, so one registered before the
    # import runs after the cli's: by then every object is frozen, and the
    # interpreter's final collection skips them
    script = ("import atexit, gc\n"
              "atexit.register(lambda: print(gc.get_freeze_count()))\n"
              "import peabody4d.cli\n")
    done = subprocess.run([sys.executable, "-c", script], env=src_env(),
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert int(done.stdout) > 0


@pytest.mark.parametrize("module,unwanted", [
    ("peabody4d.cli", "scipy.stats"),
    ("peabody4d", "scipy.optimize"),
    ("peabody4d.cli", "scipy"),
])
def test_importing_the_cli_does_not_load_scipy_stats(module, unwanted):
    env = src_env()
    done = subprocess.run(
        [sys.executable, "-c",
         f"import sys, {module}; print({unwanted!r} in sys.modules)"],
        env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "False"


def test_sampling_and_a_walked_slice_load_no_scipy(tmp_path):
    # the cap certificate and the slice's start walk are numpy alone
    env = src_env()
    script = (
        "import sys\n"
        "from peabody4d.cli import main\n"
        f"assert main(['sample', '--grid', '16x24', '--samples', '2000', "
        f"'--out', {str(tmp_path / 's.csv')!r}]) == 0\n"
        f"assert main(['slice', '--hyperplane', '0,0,0,1,0.13', '--grid', "
        f"'16x24', '--out', {str(tmp_path / 's.off')!r}]) == 0\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n")
    done = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"
    assert len((tmp_path / "s.csv").read_text().splitlines()) == 2001


def test_slice_walk_starts_inside_every_ball(model, monkeypatch):
    starts = []

    def spy(C3, R3, q):
        p = body_start(C3, R3, q)
        starts.append(float(np.min(R3 - np.linalg.norm(C3 - p, axis=1))))
        return p
    body_start = body._slice_start
    monkeypatch.setattr(body, "_slice_start", spy)
    body.slice_surface(model, np.array([0.0, 0.0, 0.0, 1.0]), 0.13, 24)
    # the walk's start, then the mean of its ray hits
    assert len(starts) == 2
    assert min(starts) >= 1e-9


def test_slice_ply_and_csv_formats(tmp_path, capsys):
    ply = tmp_path / "s.ply"
    code, _, _ = run(capsys, "slice", "--hyperplane", "0,0,0,1,0",
                     "--resolution", "10", *GRID, "--format", "ply",
                     "--out", str(ply))
    assert code == 0
    text = ply.read_text()
    assert text.startswith("ply\nformat ascii 1.0\n")
    assert "element vertex" in text and "element face" in text
    # every coordinate is written as _fmt writes it
    header, rows = text.split("end_header\n")
    n_verts = int(header.split("element vertex ")[1].split()[0])
    for line in rows.splitlines()[:n_verts]:
        numbers = line.split(" ")
        assert [cli._fmt(float(v)) for v in numbers] == numbers

    csv = tmp_path / "s.csv"
    code, _, _ = run(capsys, "slice", "--hyperplane", "0,0,0,1,0",
                     "--resolution", "10", *GRID, "--format", "csv",
                     "--out", str(csv))
    assert code == 0
    lines = csv.read_text().strip().splitlines()
    assert lines[0] == "x,y,z"
    assert all(len(line.split(",")) == 3 for line in lines[1:])
    for line in lines[1:]:
        numbers = line.split(",")
        assert [cli._fmt(float(v)) for v in numbers] == numbers


# ---------------------------------------------------------------------------
# configuration and exit statuses
# ---------------------------------------------------------------------------

def test_config_file_sets_values_and_flags_override(tmp_path, capsys):
    cfg = tmp_path / "peabody.cfg"
    cfg.write_text("samples = 300\nseed = 11   # comment\ngrid = 16x24\n")
    code, out, _ = run(capsys, "verify", "--suite", "focal",
                       "--config", str(cfg))
    assert code == 0
    doc = json.loads(out)
    assert doc["samples"] == 300
    assert doc["seed"] == 11
    assert doc["model"]["patch_grid"] == [16, 24]

    code, out, _ = run(capsys, "verify", "--suite", "focal",
                       "--config", str(cfg), "--seed", "42")
    assert json.loads(out)["seed"] == 42


def test_environment_seed_is_the_fallback(capsys, monkeypatch):
    monkeypatch.setenv("PEABODY4D_SEED", "77")
    code, out, _ = run(capsys, "verify", "--suite", "focal",
                       "--samples", "50")
    assert code == 0
    assert json.loads(out)["seed"] == 77

    code, out, _ = run(capsys, "verify", "--suite", "focal",
                       "--samples", "50", "--seed", "3")
    assert json.loads(out)["seed"] == 3


def test_config_seed_must_be_an_integer(tmp_path, capsys, monkeypatch):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("seed = abc\n")
    code, out, err = run(capsys, "verify", "--suite", "focal",
                         "--samples", "5", "--config", str(cfg))
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and err.count("\n") == 1
    assert "seed" in err

    # a config file that is not UTF-8 text is a usage error too
    cfg.write_bytes(b"seed = \xff\xfe\n")
    code, out, err = run(capsys, "verify", "--suite", "focal",
                         "--samples", "5", "--config", str(cfg))
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and err.count("\n") == 1
    assert "UTF-8" in err

    # the config value still beats the environment, and the flag beats both
    cfg.write_text("seed = 11\n")
    monkeypatch.setenv("PEABODY4D_SEED", "77")
    code, out, _ = run(capsys, "verify", "--suite", "focal",
                       "--samples", "5", "--config", str(cfg))
    assert code == 0 and json.loads(out)["seed"] == 11
    monkeypatch.setenv("PEABODY4D_SEED", "x")
    assert run(capsys, "verify", "--suite", "focal", "--samples", "5")[0] == 2


def test_negative_seeds_are_usage_errors(capsys, monkeypatch):
    for command in ("verify", "sample"):
        _assert_one_error_line(*run(capsys, command, "--seed", "-1",
                                    "--samples", "5", *GRID))
    monkeypatch.setenv("PEABODY4D_SEED", "-3")
    for command in ("verify", "sample"):
        _assert_one_error_line(*run(capsys, command, "--samples", "5", *GRID))


def test_oversized_requests_stop_before_any_model_is_built(
        tmp_path, capsys, monkeypatch):
    def no_model(*args):
        raise AssertionError("a model was built")
    monkeypatch.setattr(cli, "_build_model", no_model)
    monkeypatch.setattr(cli, "_build_skeleton", no_model)
    cfg = tmp_path / "big.cfg"
    too_many = str(cli.MAX_SAMPLES + 1)
    nx, ntheta = cli.MAX_GRID
    cases = [("samples", too_many), ("grid", "%dx%d" % (nx + 1, ntheta)),
             ("grid", "%dx%d" % (nx, ntheta + 3))]
    for command in ("verify", "sample"):
        for key, value in cases:
            _assert_one_error_line(*run(capsys, command, f"--{key}", value))
            cfg.write_text(f"{key} = {value}\n")
            _assert_one_error_line(*run(capsys, command, "--config", str(cfg)))
    big = str(cli.MAX_RESOLUTION + 1)
    _assert_one_error_line(*run(capsys, "slice", "--hyperplane", "0,0,0,1,0",
                                "--resolution", big))
    cfg.write_text(f"hyperplane = 0,0,0,1,0\nresolution = {big}\n")
    _assert_one_error_line(*run(capsys, "slice", "--config", str(cfg)))


def test_malformed_flag_values_are_one_line_errors(tmp_path, capsys):
    # each value is parsed once, by the converter that also reads config
    # values, so argparse never prints its usage block for them, and the
    # error names where the bad value came from
    for argv in (["verify", "--samples", "abc"], ["verify", "--suite", "bogus"],
                 ["verify", "--perturb", "abc"], ["sample", "--seed", "x"],
                 ["constants", "--a2", "abc"],
                 ["slice", "--hyperplane", "0,0,0,1,0", "--format", "xyz"],
                 ["slice", "--hyperplane", "0,0,0,1,0", "--resolution", "ten"]):
        code, out, err = run(capsys, *argv)
        _assert_one_error_line(code, out, err)
        assert err.startswith(f"error: {argv[-2]}: "), err
    cfg = tmp_path / "bad.cfg"
    for command, key, value in (("verify", "suite", "bogus"),
                                ("slice", "format", "xyz"),
                                ("slice", "resolution", "4")):
        cfg.write_text(f"hyperplane = 0,0,0,1,0\n{key} = {value}\n")
        code, out, err = run(capsys, command, "--config", str(cfg))
        _assert_one_error_line(code, out, err)
        assert err.startswith(f"error: config key {key!r}: "), err


def test_a_config_key_no_command_reads_or_a_repeated_key_is_a_usage_error(
        tmp_path, capsys):
    # ignored, a typo, a flag-only key or a repeat would leave verify at its
    # defaults without a word
    cfg = tmp_path / "keys.cfg"
    for text, line, problem in (
            ("seed = 1\nsampels = 5\n", 2, "'sampels' read by no command"),
            ("perturb = 0.5\n", 1, "'perturb' read by no command"),
            ("tol = diameter-pairs=0\n", 1, "'tol' read by no command"),
            ("seed = 1\nsamples = 5\nseed = 2\n", 3, "'seed' given twice")):
        cfg.write_text(text)
        code, out, err = run(capsys, "verify", "--suite", "focal",
                             "--config", str(cfg))
        _assert_one_error_line(code, out, err)
        assert err == f"error: {cfg}:{line}: key {problem}\n"


def test_the_config_keys_are_the_keys_the_commands_read():
    tree = ast.parse(Path(cli.__file__).read_text())
    read = {node.args[2].value for node in ast.walk(tree)
            if isinstance(node, ast.Call)
            and getattr(node.func, "id", None) == "_resolve"
            and getattr(node.args[1], "id", None) == "cfg"}
    assert read == cli.CONFIG_KEYS


def test_unknown_tolerance_name_is_a_usage_error(capsys):
    code, out, err = run(capsys, "verify", "--suite", "focal", "--samples",
                         "5", "--tol", "focal-distnce-sum=0")
    assert code == 2
    assert out == ""
    assert "focal-distnce-sum" in err and err.count("\n") == 1

    # a tolerance that is not a finite number >= 0 cannot judge a check
    for value in ("nan", "inf", "-inf", "-1e-3"):
        code, out, err = run(capsys, "verify", "--suite", "focal", "--samples",
                             "5", "--tol", f"focal-distance-sum={value}")
        assert code == 2, value
        assert out == ""
        assert "focal-distance-sum" in err and err.count("\n") == 1


def test_slice_rejects_a_non_finite_hyperplane(capsys):
    # the last normal is finite, but its norm overflows to inf
    for plane in ("nan,0,0,1,0", "inf,0,0,1,0", "0,0,0,-inf,0",
                  "0,0,0,1,nan", "0,0,0,1,inf", "1e308,1e308,0,0,0"):
        code, out, err = run(capsys, "slice", "--hyperplane", plane, *GRID)
        assert code == 2, plane
        assert out == "" and err.startswith("error:")
        assert err.count("\n") == 1


def test_a_bad_hyperplane_names_its_flag_or_config_key(tmp_path, capsys):
    # the hyperplane converter checks the field count, the numbers, their
    # finiteness and the normal's norm, whichever source the value came from
    cfg = tmp_path / "plane.cfg"
    for plane in ("1,2", "0,0,0,0,0", "0,0,0,1,nan", "0,0,0,x,0",
                  "1e308,1e308,0,0,0"):
        code, out, err = run(capsys, "slice", "--hyperplane", plane, *GRID)
        _assert_one_error_line(code, out, err)
        assert err.startswith("error: --hyperplane: "), err
        cfg.write_text(f"hyperplane = {plane}\n")
        code, out, err = run(capsys, "slice", "--config", str(cfg), *GRID)
        _assert_one_error_line(code, out, err)
        assert err.startswith("error: config key 'hyperplane': "), err
    code, out, err = run(capsys, "slice", *GRID)
    _assert_one_error_line(code, out, err)
    assert err == "error: --hyperplane is required\n"


def test_usage_errors_exit_with_two(capsys):
    assert run(capsys, "verify", "--suite", "bogus")[0] == 2
    assert run(capsys, "slice", "--hyperplane", "1,2,3")[0] == 2
    assert run(capsys, "slice", "--hyperplane", "0,0,0,0,0")[0] == 2
    assert run(capsys, "slice", "--hyperplane", "0,0,0,1,0",
               "--resolution", "4")[0] == 2
    assert run(capsys)[0] == 2
    assert run(capsys, "verify", "--tol", "oops")[0] == 2
    assert run(capsys, "verify", "--grid", "16x25")[0] == 2
    assert run(capsys, "sample", "--format", "csv")[0] == 2


def test_help_exits_cleanly(capsys):
    assert run(capsys, "--help")[0] == 0


def test_unwritable_output_exits_with_three(capsys):
    code, _, err = run(capsys, "sample", "--samples", "5", *GRID,
                       "--out", "/nonexistent-dir/out.csv")
    assert code == 3
    assert "io error" in err
