"""The benchmark's tracer still finds every name it wraps in the package."""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def traced(tmp_path, *cli_args):
    """The spans document of perfbench/traced.py run on the CLI arguments."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [env.get("PYTHONPATH")] if p])
    spans = tmp_path / "spans.json"
    done = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "traced.py"), str(spans),
         "--", *cli_args],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    doc = json.loads(spans.read_text())
    assert doc["status"] == 0
    return doc


def test_every_traced_name_exists(tmp_path):
    # perfbench/traced.py wraps package functions by name and only reports
    # the ones it cannot find; a rename would silently drop their spans
    assert traced(tmp_path, "constants")["missing"] == []


def test_the_slice_span_wraps_the_slice_the_cli_calls(tmp_path):
    # the tracer wraps the slice through the name the CLI binds, and counts
    # its pairs from the argument model and the vertices it returns
    doc = traced(tmp_path, "slice", "--hyperplane", "0,0,0,1,0", "--grid",
                 "16x24", "--out", str(tmp_path / "s.off"))
    assert doc["missing"] == []
    nodes = [node for node in doc["nodes"] if node["name"] == "cli.slice_surface"]
    assert len(nodes) == 1
    assert nodes[0]["calls"] == 1
    assert nodes[0]["counts"]["pairs"] > 0


def test_the_chord_casts_are_traced_ray_casts(tmp_path):
    # a chord is two casts through body._ray_cast_many, so the traced ray
    # span counts diameter-chords' ten axes both ways
    doc = traced(tmp_path, "verify", "--suite", "body", "--samples", "10",
                 "--grid", "16x24")
    nodes = doc["nodes"]
    check = [i for i, node in enumerate(nodes)
             if node["name"] == "cli.check.diameter-chords"]
    assert len(check) == 1
    casts = [node for node in nodes if node["parent"] == check[0]
             and node["name"] == "body._ray_cast_many"]
    assert len(casts) == 1
    assert casts[0]["calls"] == 2
    assert casts[0]["counts"]["pairs"] == 2 * 10 * 2475
