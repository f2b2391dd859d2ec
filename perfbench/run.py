"""peabody4d benchmark: CLI workloads timed end to end and traced per module.

Run from the repository root; nothing needs installing, the program runs from
``src/`` of the checkout:

    python3 perfbench/run.py --workload verify-fine --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 30 --trace 0

Each workload is a fixed sequence of ``python -m peabody4d.cli`` commands,
run the way a user runs them: one client, closed loop, a fresh process per
command, each pass starting after the previous one ends.  Passes repeat until
``--seconds`` of passes have been measured (at least one pass).  Pass k of a
run gets ``--seed <seed + k>``; the seed reaches the program only that way.

``--trace 0`` reports the end-to-end metrics: ``wall_s`` (median pass),
``setup_s`` (median of several fresh-process set-ups) and ``peak_rss_mb``
(median over passes of the largest resident set of a pass's processes).
``--trace 1`` runs the same passes untraced, then again through
``perfbench/traced.py``, and reports per-module metrics from the traced
passes, the tracing overhead, and whether every output stayed byte-identical.

Before timing, and untimed, every invocation runs two negative controls that
must fail: ``verify --suite body --grid 16x24 --perturb 1e-3`` (exit 1 with a
failed ``diameter-*`` check) and the rotation closure at a^2 = 1.4.  All
outputs are checked; the last stdout line is the JSON result, and the exit
status is 1 when any check failed.  See perfbench/README.md.
"""

import argparse
import hashlib
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from itertools import combinations
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd().resolve()
SRC = ROOT / "src"
WORK = HERE / "_work"

# one BLAS thread: steadier on a shared host and independent of its core count
BLAS_THREADS = 1
SETUP_PROBES = 3
DEADLINE_S = 170.0

CHECKS = {
    "focal": ["focal-distance-sum", "focal-difference-constant",
              "radius-sum-constant"],
    "skeleton": ["rotation-closure", "closure-point-offset", "tangent-match",
                 "radius-consistency"],
    "body": ["boundary-slack-inner", "boundary-slack-outer",
             "binormal-separation", "partner-distance", "diameter-pairs",
             "diameter-chords", "width-coordinate-axes"],
}
CHECKS["all"] = CHECKS["focal"] + CHECKS["skeleton"] + CHECKS["body"]

# the 25 boundary piece labels: caps (4 digits), triangle wedges (3), edge
# wedges (2)
FACE_LABELS = {"".join(map(str, c)) for k in (2, 3, 4)
               for c in combinations(range(1, 6), k)}


@dataclass
class Step:
    """One CLI command of a workload pass."""

    name: str
    args: list
    output: str            # "report", "csv" or "off"
    seeded: bool = True
    expect: list = field(default_factory=list)   # report: required checks
    rows: int = 0                                # csv: required rows


# Why each workload, and which layer it stresses, is in perfbench/README.md.
# verify-analytic is not in BENCHMARK.json: one pass is too noisy on a shared
# host, and more passes do not fit the benchmark's time budget
WORKLOADS = {
    "verify-fine": {
        "steps": [Step("all", ["verify", "--suite", "all", "--grid", "64x96",
                               "--samples", "10000"], "report",
                       expect=CHECKS["all"])],
        "setup": ("64x96", 256),
    },
    "verify-analytic": {
        "steps": [
            Step("focal", ["verify", "--suite", "focal", "--samples", "100000"],
                 "report", expect=CHECKS["focal"]),
            Step("skeleton", ["verify", "--suite", "skeleton", "--samples",
                              "100000"], "report", expect=CHECKS["skeleton"]),
        ],
        "setup": None,     # never builds a ball model
    },
    "export": {
        "steps": [
            Step("sample", ["sample", "--grid", "16x24", "--samples", "50000"],
                 "csv", rows=50000),
            Step("slice-w0", ["slice", "--hyperplane", "0,0,0,1,0"], "off",
                 seeded=False),
            Step("slice-z0", ["slice", "--hyperplane", "0,0,1,0,0"], "off",
                 seeded=False),
            Step("slice-x", ["slice", "--hyperplane", "1,0,0,0,1.0954"], "off",
                 seeded=False),
        ],
        "setup": ("64x96", 256),   # the slices build the default-grid model
    },
}

# ---------------------------------------------------------------------------
# per-layer metrics from the traced spans
# ---------------------------------------------------------------------------

# metric -> span names; the time is the inclusive time of the outermost
# calls among those names
TIME_GROUPS = {
    "bench.import_s": ["bench.import"],
    "numerics.constants_s": ["numerics.compute_model_constants"],
    "skeleton.build_s": ["skeleton.build_simplex", "skeleton.build_symmetry_group",
                         "skeleton.build_focal_skeleton"],
    "body.model_build_s": ["body.build_ball_model"],
    "geometry.quadric_point_s": ["geometry.ellipse_point",
                                 "geometry.hyperboloid_point"],
    "focal.residual_s": ["focal.focal_sum_residual", "focal.focal_const_residual",
                         "focal.interlock_residual"],
    "skeleton.closure_s": ["skeleton.rotation_closure_check",
                           "skeleton.tangent_slopes",
                           "skeleton.radius_consistency_residual"],
    "body.cap_s": ["body._cap_directions"],
    "body.min_slack_s": ["body.BallModel.min_slack"],
    "body.ray_cast_s": ["body._ray_cast_many"],
    "body.sample_theta_s": ["body.sample_theta"],
    "body.residual_s": ["body.boundary_residual"],
    "body.diameter_s": ["body.diameter_check"],
    "body.width_s": ["body.width_in_direction"],
    "cli.slice_s": ["cli.slice_surface"],
    "cli.mesh_text_s": ["cli._mesh_text"],
}
TIME_GROUPS.update({f"cli.check.{name}_s": [f"cli.check.{name}"]
                    for name in CHECKS["all"]})
# self time: the span minus its traced children
SELF_GROUPS = {
    "body.exact_sample_s": ["body.sample_exact_boundary"],
    "cli.csv_s": ["cli.csv"],
}
CALL_GROUPS = {
    "numerics.constants_calls": TIME_GROUPS["numerics.constants_s"],
    "geometry.quadric_point_calls": TIME_GROUPS["geometry.quadric_point_s"],
    "focal.residual_calls": TIME_GROUPS["focal.residual_s"],
}
# metric -> (span names, counter)
COUNT_GROUPS = {
    "body.balls": (["body.build_ball_model"], "balls"),
    "body.samples": (["body.sample_theta", "body.sample_exact_boundary"], "samples"),
    "body.cap_candidates": (["body._cap_directions"], "candidates"),
    "body.cap_certified": (["body._cap_directions"], "certified"),
    "body.min_slack_pairs": (["body.BallModel.min_slack"], "pairs"),
    "body.ray_pairs": (["body._ray_cast_many"], "pairs"),
    "body.diameter_pairs": (["body.diameter_check"], "pairs"),
    "cli.slice_pairs": (["cli.slice_surface"], "pairs"),
}
# computed, not measured: the largest single call's pairs x 8 B, which is
# the size of one float64 (pairs)-shaped temporary if the kernel does not
# chunk; slice_surface does not, min_slack and the ray cast do
BYTES_GROUPS = {
    "body.min_slack_bytes_computed": "body.min_slack_pairs",
    "body.ray_bytes_computed": "body.ray_pairs",
    "cli.slice_bytes_computed": "cli.slice_pairs",
}


def _unit(metric):
    if metric.endswith("_s"):
        return "s"
    if metric.endswith("_mb"):
        return "MB"
    if metric.endswith("_bytes_computed"):
        return "B"
    if metric in ("body.cap_yield", "bench.span_coverage"):
        return "ratio"
    return "count"


def _outermost(nodes, names):
    """Nodes named in names that have no ancestor named in names."""
    names = set(names)
    out = []
    for node in nodes:
        if node["name"] not in names:
            continue
        parent = node["parent"]
        while parent is not None and nodes[parent]["name"] not in names:
            parent = nodes[parent]["parent"]
        if parent is None:
            out.append(node)
    return out


def layer_metrics(trees, wall):
    """Per-layer values of one traced pass (trees: one node list per process)."""
    m = {}
    for metric, names in TIME_GROUPS.items():
        m[metric] = sum(n["total_s"] for t in trees for n in _outermost(t, names))
    for metric, names in SELF_GROUPS.items():
        m[metric] = sum(n["total_s"] - n["child_s"]
                        for t in trees for n in _outermost(t, names))
    for metric, names in CALL_GROUPS.items():
        m[metric] = sum(n["calls"] for t in trees for n in _outermost(t, names))
    peaks = {}
    for metric, (names, key) in COUNT_GROUPS.items():
        found = [n for t in trees for n in _outermost(t, names)]
        m[metric] = sum(n["counts"].get(key, 0) for n in found)
        peaks[metric] = max((n["peaks"].get(key, 0) for n in found), default=0)
    for metric, pairs in BYTES_GROUPS.items():
        m[metric] = 8 * peaks[pairs]
    m["body.cap_yield"] = (m["body.cap_certified"] / m["body.cap_candidates"]
                           if m["body.cap_candidates"] else 0.0)
    covered = sum(n["total_s"] for t in trees for n in t if n["parent"] == 0)
    m["bench.unattributed_s"] = wall - covered
    m["bench.span_coverage"] = covered / wall
    return m


# ---------------------------------------------------------------------------
# child processes
# ---------------------------------------------------------------------------

class BenchError(Exception):
    """The run cannot produce a result: out of time, or no set-up."""


def child_env():
    env = {k: v for k, v in os.environ.items()
           if k not in ("PYTHONPATH", "PEABODY4D_SEED", "PYTHONHOME")}
    env["PYTHONPATH"] = str(SRC)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    return env


def spawn(cmd, env, stdout, stderr, deadline):
    """Run cmd to completion; returns (status, wall seconds, peak RSS in MB).

    The child is reaped with wait4 so its own peak resident set is known;
    a timer kills it if it outlives the deadline.
    """
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("out of time before " + " ".join(cmd))
    with open(stdout, "wb") as out, open(stderr, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, env=env, cwd=ROOT, stdout=out, stderr=err)
        timer = threading.Timer(timeout, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode == -9 and time.monotonic() >= deadline:
        raise BenchError("out of time running " + " ".join(cmd))
    return proc.returncode, wall, usage.ru_maxrss / 1024.0


def _tail(path, lines=5):
    try:
        return "\n".join(Path(path).read_text(errors="replace").splitlines()[-lines:])
    except OSError:
        return ""


# ---------------------------------------------------------------------------
# output checks
# ---------------------------------------------------------------------------

def check_report(path, step):
    """(operations, failures, note) for a verify report."""
    try:
        doc = json.loads(Path(path).read_text())
        checks = {c["name"]: bool(c["passed"]) for c in doc["checks"]}
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return len(step.expect), len(step.expect), f"unreadable report: {exc}"
    missing = [name for name in step.expect if name not in checks]
    failed = [name for name, ok in checks.items() if not ok]
    note = ""
    if missing or failed or not doc.get("passed"):
        note = f"failed {failed}, missing {missing}, passed={doc.get('passed')}"
    return len(checks) + len(missing), len(failed) + len(missing), note


def _finite(text):
    try:
        return math.isfinite(float(text))
    except ValueError:
        return False


def check_csv(path, step):
    """(operations, failures, note) for a sample CSV: one operation per row."""
    try:
        lines = Path(path).read_text().splitlines()
    except OSError as exc:
        return step.rows, step.rows, f"unreadable csv: {exc}"
    if not lines or lines[0] != "x,y,z,w,face,slack":
        return step.rows, step.rows, "bad csv header"
    bad = 0
    for line in lines[1:]:
        f = line.split(",")
        if (len(f) != 6 or not all(_finite(v) for v in f[:4] + f[5:])
                or f[4] not in FACE_LABELS or float(f[5]) < -1e-9):
            bad += 1
    rows = len(lines) - 1
    missing = max(0, step.rows - rows)
    note = f"{bad} bad rows, {missing} missing" if bad or missing else ""
    return rows + missing, bad + missing, note


def check_off(path, step):
    """(operations, failures, note) for a slice mesh: empty or malformed fails."""
    try:
        lines = Path(path).read_text().splitlines()
        nv, nf, _ = (int(v) for v in lines[1].split())
        verts = lines[2:2 + nv]
        faces = lines[2 + nv:2 + nv + nf]
        ok = (lines[0] == "OFF" and nv > 0 and nf > 0 and len(faces) == nf
              and all(len(v.split()) == 3 and all(map(_finite, v.split()))
                      for v in verts)
              and all(f.split()[0] == "3" for f in faces))
    except (OSError, ValueError, IndexError) as exc:
        return 1, 1, f"unreadable mesh: {exc}"
    return 1, 0 if ok else 1, "" if ok else "empty or malformed mesh"


CHECKERS = {"report": check_report, "csv": check_csv, "off": check_off}
SUFFIX = {"report": "json", "csv": "csv", "off": "off"}


# ---------------------------------------------------------------------------
# a run
# ---------------------------------------------------------------------------

@dataclass
class Pass:
    seed: int
    wall: float
    rss_mb: float
    attempted: int
    failed: int
    digests: dict
    notes: list
    layers: dict = None


class Run:
    def __init__(self, workload, seed, seconds, env, deadline):
        self.name = workload
        self.spec = WORKLOADS[workload]
        self.seed = seed
        self.seconds = seconds
        self.env = env
        self.deadline = deadline
        self.problems = []

    def _path(self, tag, suffix):
        return WORK / f"{self.name}.{tag}.{suffix}"

    def run_pass(self, seed, traced):
        """One pass of every step; outputs are checked after the timing."""
        tag = "traced" if traced else "plain"
        wall, rss, trees, outputs = 0.0, 0.0, [], []
        attempted = failed = 0
        notes = []
        for step in self.spec["steps"]:
            out = self._path(f"{tag}.{step.name}", SUFFIX[step.output])
            args = list(step.args) + (["--seed", str(seed)] if step.seeded else [])
            args += ["--out", str(out)]
            spans = self._path(f"{tag}.{step.name}", "spans.json")
            if traced:
                cmd = [sys.executable, str(HERE / "traced.py"), str(spans), "--"]
            else:
                cmd = [sys.executable, "-m", "peabody4d.cli"]
            out.unlink(missing_ok=True)
            status, step_wall, step_rss = spawn(
                cmd + args, self.env, self._path(tag, "stdout"),
                self._path(f"{tag}.{step.name}", "stderr"), self.deadline)
            wall += step_wall
            rss = max(rss, step_rss)
            outputs.append((step, out, status))
            if traced:
                trees.append(self._read_spans(spans))
        digests = {}
        for step, out, status in outputs:
            ops, bad, note = CHECKERS[step.output](out, step)
            attempted += 1 + ops
            failed += (status != 0) + bad
            if status != 0 or note:
                notes.append(f"{step.name}: exit {status} {note} "
                             + _tail(self._path(f"{tag}.{step.name}", "stderr")))
            digests[step.name] = (hashlib.sha256(out.read_bytes()).hexdigest()
                                  if out.exists() else None)
        result = Pass(seed, wall, rss, attempted, failed, digests, notes)
        if traced:
            result.layers = layer_metrics(trees, wall)
        return result

    def _read_spans(self, path):
        try:
            doc = json.loads(path.read_text())
        except (OSError, ValueError) as exc:
            self.problems.append(f"no spans from {path.name}: {exc}")
            return [{"name": "root", "parent": None}]
        self._check_module(doc.get("module"))
        if doc.get("missing"):
            # a refactor that renames a traced function loses its metrics
            # and coverage, which the output shows; the outputs stay valid
            print(f"WARN {self.name}: traced names not found: {doc['missing']}")
        return doc["nodes"]

    def _check_module(self, module):
        if not module or not Path(module).resolve().is_relative_to(SRC):
            self.problems.append(f"measured {module}, not the checkout's src/")

    def controls(self):
        """The negative controls; untimed, and each one must fail."""
        report = self._path("control", "json")
        report.unlink(missing_ok=True)
        status, _, _ = spawn(
            [sys.executable, "-m", "peabody4d.cli", "verify", "--suite", "body",
             "--grid", "16x24", "--perturb", "1e-3", "--seed", str(self.seed),
             "--out", str(report)],
            self.env, self._path("control", "stdout"),
            self._path("control", "stderr"), self.deadline)
        try:
            checks = json.loads(report.read_text())["checks"]
            broken = [c["name"] for c in checks
                      if c["name"].startswith("diameter-") and not c["passed"]]
        except (OSError, ValueError, KeyError) as exc:
            broken = []
            self.problems.append(f"perturb control: no report ({exc})")
        if status != 1 or not broken:
            self.problems.append(
                f"perturb control did not fail: exit {status}, "
                f"failed diameter checks {broken}")
        print(f"control perturb-1e-3: exit {status}, failed {broken}")

    def probe(self, control):
        """One fresh-process set-up; returns (seconds, probe output)."""
        cmd = [sys.executable, str(HERE / "probe.py")]
        if self.spec["setup"]:
            grid, arcs = self.spec["setup"]
            cmd += ["--grid", grid, "--arcs", str(arcs)]
        if control:
            cmd.append("--control")
        out = self._path("probe", "stdout")
        start = time.perf_counter()
        status, _, _ = spawn(cmd, self.env, out, self._path("probe", "stderr"),
                             self.deadline)
        try:
            doc = json.loads(out.read_text().splitlines()[-1])
        except (OSError, ValueError, IndexError):
            doc = None
        if status != 0 or doc is None:
            raise BenchError(f"set-up probe failed: exit {status}\n"
                             + _tail(self._path("probe", "stderr")))
        self._check_module(doc["module"])
        if control:
            closure = doc["closure_1p4"]
            print(f"control closure-a2-1.4: {closure:.3e} (must exceed 1e-4)")
            if not closure > 1e-4:
                self.problems.append(f"closure control passed: {closure:.3e}")
        return doc["ready"] - start, doc

    def passes(self, traced, seeds=None, traced_after=False):
        """Passes for the measured seconds (at least one), or one per seed.

        No further pass starts unless it, and with traced_after a traced
        repeat of every pass so far, still fit before the deadline when each
        takes half as long again as the last one did.
        """
        out = []
        measured = 0.0
        while True:
            if seeds is not None:
                if len(out) == len(seeds):
                    return out
                seed = seeds[len(out)]
            else:
                needed = 1 + (len(out) + 1 if traced_after else 0)
                if out and (measured >= self.seconds or time.monotonic()
                            + 1.5 * needed * out[-1].wall > self.deadline):
                    return out
                seed = self.seed + len(out)
            p = self.run_pass(seed, traced)
            measured += p.wall
            out.append(p)


# ---------------------------------------------------------------------------
# reporting
# ---------------------------------------------------------------------------

def tail_note(values):
    """The highest percentile with at least ten samples beyond it."""
    n = len(values)
    if n < 11:
        return f"n={n}; a tail percentile needs >= 11 samples"
    ranked = sorted(values)
    pct = math.floor(100.0 * (n - 10) / n)
    return f"n={n}; p{pct}={ranked[n - 11]:.4g}"


def provenance(probe_doc):
    import numpy  # only for the BLAS description; never used to measure
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas = "unknown"
    try:
        import scipy
        scipy_version = scipy.__version__
    except ImportError:
        scipy_version = None
    commit = None
    try:
        git = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"],
                             cwd=ROOT, capture_output=True, text=True, timeout=10)
        lines = git.stdout.split()
        # only a repository rooted at the checkout, not one around it
        if git.returncode == 0 and Path(lines[0]).resolve() == ROOT:
            commit = lines[1]
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0")
        digest.update(path.read_bytes())
    return {
        "commit": commit,
        "src_sha256": digest.hexdigest(),
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
        else os.cpu_count(),
        "blas": blas,
        "blas_threads": BLAS_THREADS,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy_version,
        "peabody4d": probe_doc.get("module"),
        "machine": platform.machine(),
    }


def run_workload(workload, seed, seconds, trace, env):
    deadline = time.monotonic() + DEADLINE_S
    run = Run(workload, seed, seconds, env, deadline)
    run.controls()
    setups = [run.probe(control=(k == 0)) for k in range(1 if trace else SETUP_PROBES)]
    print("provenance " + json.dumps(provenance(setups[0][1]), sort_keys=True))

    # a traced run repeats every untraced pass, traced, at the same seed
    plain = run.passes(traced=False, traced_after=bool(trace))
    traced = run.passes(traced=True, seeds=[p.seed for p in plain]) if trace else []
    for p in plain + traced:
        kind = "traced" if p.layers is not None else "plain"
        for step, digest in p.digests.items():
            print(f"sha256 {workload} seed={p.seed} {step} {kind} {digest}")
        for note in p.notes:
            run.problems.append(f"seed {p.seed} {kind}: {note}")
    for a, b in zip(plain, traced):
        if a.digests != b.digests:
            run.problems.append(f"seed {a.seed}: traced outputs differ from untraced")

    attempted = sum(p.attempted for p in plain + traced)
    failed = sum(p.failed for p in plain + traced)
    walls = [p.wall for p in plain]
    if trace:
        metrics = {metric: statistics.median(p.layers[metric] for p in traced)
                   for metric in traced[0].layers}
        metrics["bench.trace_overhead_s"] = (
            statistics.median(p.wall for p in traced) - statistics.median(walls))
    else:
        metrics = {
            "wall_s": statistics.median(walls),
            "setup_s": statistics.median(took for took, _ in setups),
            "peak_rss_mb": statistics.median(p.rss_mb for p in plain),
        }
        print(f"{workload:16s} wall_s      {metrics['wall_s']:10.3f} s   "
              f"median of {len(walls)} passes; {tail_note(walls)}; passes "
              + " ".join(f"{w:.3f}" for w in walls))
        print(f"{workload:16s} setup_s     {metrics['setup_s']:10.3f} s   "
              f"median of {len(setups)} set-ups in fresh processes")
        print(f"{workload:16s} peak_rss_mb {metrics['peak_rss_mb']:10.1f} MB  "
              f"median of {len(walls)} passes")
    print(f"{workload:16s} fail_frac   {failed / max(attempted, 1):10.3g}     "
          f"{failed} failed of {attempted} operations")
    if trace:
        for metric, value in metrics.items():
            print(f"{workload:16s} {metric:38s} {value:14.6g} {_unit(metric)}")
    for problem in run.problems:
        print(f"FAIL {workload}: {problem}")
    correct = not run.problems and failed == 0
    return correct, attempted, failed, metrics


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    if not (SRC / "peabody4d" / "cli.py").is_file():
        print(f"error: no program at {SRC / 'peabody4d'}; run from the root of "
              "a peabody4d checkout", file=sys.stderr)
        return 2
    WORK.mkdir(exist_ok=True)
    env = child_env()
    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    correct, attempted, failed, metrics = True, 0, 0, {}
    try:
        for name in names:
            ok, att, bad, mets = run_workload(name, args.seed, args.seconds,
                                              args.trace, env)
            correct &= ok
            attempted += att
            failed += bad
            prefix = f"{name}." if len(names) > 1 else ""
            metrics.update({prefix + k: {"value": v, "unit": _unit(k)}
                            for k, v in mets.items()})
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
