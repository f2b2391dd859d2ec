"""Run the peabody4d CLI in-process with timing wrappers around each layer.

Usage, from the repository root with ``src`` on ``PYTHONPATH``:

    python3 perfbench/traced.py SPANS.json -- verify --suite focal --seed 3

The CLI arguments after ``--`` are passed to ``peabody4d.cli.main`` unchanged,
so the run does exactly what ``python -m peabody4d.cli`` does.  Nothing in
``src/`` is edited: after import, each traced callable is replaced by a
wrapper under every module-level name that refers to it, which is the name
its callers look up (``body.sample_exact_boundary`` is reached both as
``peabody4d.body.sample_exact_boundary`` and as
``peabody4d.cli.sample_exact_boundary``).  ``BallModel.min_slack`` is wrapped
on the class.

Spans are aggregated per call path: one node per (parent node, span name)
with its call count, total time, time in traced children and work counters.
Self time is total minus children.  The nodes stay in memory and are written
to SPANS.json when the command ends; the process exits with the CLI's status.
"""

import inspect
import json
import sys
import time


class Tracer:
    """Calling-context tree of timed spans."""

    def __init__(self):
        self.nodes = [self._node("root", None)]
        self._index = {}
        self._stack = [0]

    @staticmethod
    def _node(name, parent):
        return {"name": name, "parent": parent, "calls": 0, "total_s": 0.0,
                "child_s": 0.0, "counts": {}, "peaks": {}}

    def enter(self, name):
        key = (self._stack[-1], name)
        nid = self._index.get(key)
        if nid is None:
            nid = self._index[key] = len(self.nodes)
            self.nodes.append(self._node(name, self._stack[-1]))
        self._stack.append(nid)
        return nid

    def leave(self, nid, elapsed):
        self._stack.pop()
        node = self.nodes[nid]
        node["calls"] += 1
        node["total_s"] += elapsed
        self.nodes[self._stack[-1]]["child_s"] += elapsed

    def add_counts(self, nid, counts):
        node = self.nodes[nid]
        for key, value in counts.items():
            node["counts"][key] = node["counts"].get(key, 0) + value
            node["peaks"][key] = max(node["peaks"].get(key, 0), value)

    def wrap(self, name, fn, count=None, prepare=None):
        """Timing wrapper for fn.

        name     span name, or a function of the bound arguments
        prepare  function of the bound arguments, run before the call; it
                 may replace arguments and returns state handed to count
        count    function (arguments, result, state) -> {counter: amount}
        """
        sig = inspect.signature(fn) if (count or prepare or callable(name)) else None
        tracer = self

        def wrapper(*args, **kwargs):
            arguments = state = None
            label = name
            if sig is not None:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                arguments = bound.arguments
                if prepare is not None:
                    state = prepare(arguments)
                args, kwargs = bound.args, bound.kwargs
                if callable(name):
                    label = name(arguments)
            nid = tracer.enter(label)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.leave(nid, time.perf_counter() - start)
            if count is not None:
                tracer.add_counts(nid, count(arguments, result, state))
            return result

        return wrapper


class CountingRng:
    """Forwards to a numpy Generator and counts the rows of every draw."""

    def __init__(self, rng):
        self._rng = rng
        self.rows = 0

    def __getattr__(self, attr):
        target = getattr(self._rng, attr)
        if not callable(target):
            return target

        def draw(*args, **kwargs):
            out = target(*args, **kwargs)
            self.rows += _rows(out)
            return out

        return draw


def _rows(a):
    # numpy is imported by the package anyway; importing it here keeps
    # its import inside the timed bench.import span
    import numpy as np
    return len(np.atleast_2d(np.asarray(a)))


def _cap_prepare(arguments):
    arguments["rng"] = CountingRng(arguments["rng"])
    return arguments["rng"]


# (span name, module, attribute, counter, prepare); a counter maps
# (arguments, result, state) to work counts for the call
TARGETS = [
    ("numerics.compute_model_constants", "peabody4d.numerics",
     "compute_model_constants", None, None),
    ("skeleton.build_simplex", "peabody4d.skeleton", "build_simplex", None, None),
    ("skeleton.build_symmetry_group", "peabody4d.skeleton",
     "build_symmetry_group", None, None),
    ("skeleton.build_focal_skeleton", "peabody4d.skeleton",
     "build_focal_skeleton", None, None),
    ("skeleton.rotation_closure_check", "peabody4d.skeleton",
     "rotation_closure_check", None, None),
    ("skeleton.tangent_slopes", "peabody4d.skeleton", "tangent_slopes", None, None),
    ("skeleton.radius_consistency_residual", "peabody4d.skeleton",
     "radius_consistency_residual", None, None),
    ("geometry.ellipse_point", "peabody4d.geometry", "ellipse_point", None, None),
    ("geometry.hyperboloid_point", "peabody4d.geometry", "hyperboloid_point",
     None, None),
    ("focal.focal_sum_residual", "peabody4d.focal", "focal_sum_residual", None, None),
    ("focal.focal_const_residual", "peabody4d.focal", "focal_const_residual",
     None, None),
    ("focal.interlock_residual", "peabody4d.focal", "interlock_residual", None, None),
    ("body.build_ball_model", "peabody4d.body", "build_ball_model",
     lambda a, r, s: {"balls": len(r.centers)}, None),
    ("body.boundary_residual", "peabody4d.body", "boundary_residual", None, None),
    ("body.sample_theta", "peabody4d.body", "sample_theta",
     lambda a, r, s: {"samples": len(r)}, None),
    ("body.sample_exact_boundary", "peabody4d.body", "sample_exact_boundary",
     lambda a, r, s: {"samples": len(r)}, None),
    ("body._cap_directions", "peabody4d.body", "_cap_directions",
     lambda a, r, s: {"candidates": s.rows, "certified": len(r)}, _cap_prepare),
    ("body._ray_cast_many", "peabody4d.body", "_ray_cast_many",
     lambda a, r, s: {"pairs": _rows(a["U"]) * len(a["model"].centers)}, None),
    ("body.diameter_check", "peabody4d.body", "diameter_check",
     lambda a, r, s: {"pairs": int(a["pairs"])}, None),
    ("body.width_in_direction", "peabody4d.body", "width_in_direction", None, None),
    ("cli.slice_surface", "peabody4d.cli", "slice_surface",
     lambda a, r, s: {"pairs": len(r[0]) * len(a["model"].centers)}, None),
    ("cli._mesh_text", "peabody4d.cli", "_mesh_text", None, None),
    # the CSV rows are formatted inline in cmd_sample, so its self time is
    # the CSV cost; its children are the model build, sampling and slack
    ("cli.csv", "peabody4d.cli", "cmd_sample", None, None),
    (lambda a: "cli.check." + a["name"], "peabody4d.cli", "_run_check", None, None),
]


def install(tracer):
    """Wrap every target under each module-level name bound to it.

    Returns the targets that do not exist in this version of the package.
    """
    modules = [m for key, m in list(sys.modules.items())
               if key == "peabody4d" or key.startswith("peabody4d.")]
    missing = []
    for name, module, attr, count, prepare in TARGETS:
        fn = getattr(sys.modules.get(module), attr, None)
        if fn is None:
            missing.append(f"{module}.{attr}")
            continue
        wrapper = tracer.wrap(name, fn, count=count, prepare=prepare)
        for mod in modules:
            for key, value in list(vars(mod).items()):
                if value is fn:
                    setattr(mod, key, wrapper)

    model_cls = getattr(sys.modules["peabody4d.body"], "BallModel", None)
    if model_cls is None or not hasattr(model_cls, "min_slack"):
        missing.append("peabody4d.body.BallModel.min_slack")
    else:
        model_cls.min_slack = tracer.wrap(
            "body.BallModel.min_slack", model_cls.min_slack,
            count=lambda a, r, s: {"pairs": _rows(a["pts"]) * len(a["self"].centers)})
    return missing


def main(argv):
    if len(argv) < 2 or argv[1] != "--":
        print("usage: traced.py SPANS.json -- <peabody4d CLI arguments>",
              file=sys.stderr)
        return 2
    spans_path, cli_args = argv[0], argv[2:]
    tracer = Tracer()
    nid = tracer.enter("bench.import")
    start = time.perf_counter()
    import peabody4d.cli
    tracer.leave(nid, time.perf_counter() - start)
    missing = install(tracer)
    status = peabody4d.cli.main(cli_args)
    with open(spans_path, "w") as fh:
        json.dump({"module": peabody4d.__file__, "missing": missing,
                   "status": status, "nodes": tracer.nodes}, fh)
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
