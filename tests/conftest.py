import sys
from pathlib import Path

import pytest

# make the shared frozen-value module importable regardless of invocation dir
sys.path.insert(0, str(Path(__file__).parent))

from peabody4d.body import build_ball_model, sample_exact_boundary, sample_theta
from peabody4d.numerics import compute_model_constants
from peabody4d.skeleton import build_focal_skeleton, build_simplex, build_symmetry_group


@pytest.fixture(scope="session")
def constants():
    return compute_model_constants()


@pytest.fixture(scope="session")
def simplex(constants):
    return build_simplex(constants)


@pytest.fixture(scope="session")
def group(simplex):
    return build_symmetry_group(simplex)


@pytest.fixture(scope="session")
def skeleton(constants, simplex, group):
    return build_focal_skeleton(constants, simplex, group)


# A deliberately coarse model keeps the heavy sweeps fast; tests that probe
# grid convergence build their own finer models.
@pytest.fixture(scope="session")
def model(skeleton):
    return build_ball_model(skeleton, patch_grid=(16, 24), arc_n=64)


@pytest.fixture(scope="session")
def model_fine(skeleton):
    return build_ball_model(skeleton, patch_grid=(32, 48), arc_n=128)


@pytest.fixture(scope="session")
def exact_pop(model):
    return sample_exact_boundary(model, 20000, seed=3)


@pytest.fixture(scope="session")
def mixed_pop(model):
    return sample_theta(model, 200000, seed=2)


# ---------------------------------------------------------------------------
# acceptance summary: one PASS/FAIL line per criterion at the end of the run
# ---------------------------------------------------------------------------

_ACCEPTANCE = {}


def pytest_runtest_logreport(report):
    if report.when == "call" and "test_acceptance.py" in report.nodeid:
        _ACCEPTANCE[report.nodeid.split("::")[-1]] = report.outcome
    elif (report.when == "setup" and "test_acceptance.py" in report.nodeid
          and report.outcome != "passed"):
        _ACCEPTANCE[report.nodeid.split("::")[-1]] = report.outcome


def pytest_terminal_summary(terminalreporter):
    if not _ACCEPTANCE:
        return
    terminalreporter.section("acceptance criteria")
    for index, name in enumerate(sorted(_ACCEPTANCE), start=1):
        verdict = "PASS" if _ACCEPTANCE[name] == "passed" else "FAIL"
        terminalreporter.write_line(
            f"[{index:2d}/{len(_ACCEPTANCE)}] {name}: {verdict}")
