"""The benchmark's tracer still finds every name it wraps in the package."""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_every_traced_name_exists(tmp_path):
    # perfbench/traced.py wraps package functions by name and only reports
    # the ones it cannot find; a rename would silently drop their spans
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [env.get("PYTHONPATH")] if p])
    spans = tmp_path / "spans.json"
    done = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "traced.py"), str(spans),
         "--", "constants"],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    doc = json.loads(spans.read_text())
    assert doc["status"] == 0
    assert doc["missing"] == []
