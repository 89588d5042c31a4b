"""Per-layer spans for the benchmark's traced run, recorded from outside hsfm.

Each layer's public functions are replaced, on the module or class attribute
that every call site looks up, by a wrapper that records a span: name, start,
end, parent span and a few facts read from the arguments or the result.  The
spans of one command stay in memory and are written as one JSON file when it
ends.  Nothing under ``src/`` is changed.

Run one traced ``hsfm`` command (the caller puts ``src`` on PYTHONPATH):

    python3 perfbench/tracing.py SPANS_FILE RUN_ID match --input scene

The root span covers ``cli.main`` only, opened after the imports and the
wrappers are in place.  The rest of the command's wall time, interpreter
start-up, imports, writing the spans and exit, is reported apart as
``<stage>.process_s``.

``layer_metrics`` turns the spans of one command into the per-layer metrics.
"""

import functools
import importlib
import json
import sys
from time import perf_counter

ROOT_SPAN = "cli"  # the span of cli.main

# (module, attribute, metric that receives the span's self time).  A metric
# of None means the split is decided per span in ``layer_metrics``.
TARGETS = [
    ("fileio", "read_image_directory", "fileio.read_s"),
    ("fileio", "read_matches", "fileio.read_s"),
    ("fileio", "read_edges", "fileio.read_s"),
    ("fileio", "read_intrinsics", "fileio.read_s"),
    ("fileio", "write_edges", "fileio.write_s"),
    ("fileio", "write_model", "fileio.write_s"),
    ("graph", "broad_phase_histogram", "graph.broad_s"),
    ("graph", "extract_m_connected_subgraph", "graph.broad_s"),
    ("graph", "narrow_phase_verify", "graph.verify_s"),
    ("graph", "match_descriptors_angular", "graph.match_desc_s"),
    ("graph", "build_tracks", "graph.tracks_s"),
    ("robust", "msac", None),
    ("geometry", "triangulate", "geometry.triangulate_s"),
    ("clustering", "affinity_matrix", "clustering.affinity_s"),
    ("clustering", "next_merge", "clustering.next_merge_s"),
    ("engine", "run", "engine.run_s"),
    ("engine", "Engine.sync_tie_points", "engine.sync_s"),
    ("engine", "Engine.intersect_pending", "engine.intersect_s"),
    ("engine", "Engine.stereo_model_calibrated", "engine.stereo_s"),
    ("engine", "Engine.stereo_model_projective", "engine.stereo_s"),
    ("engine", "Engine.resection_intersection", "engine.resection_s"),
    ("engine", "Engine.merge_models", "engine.merge_s"),
    ("engine", "Engine.maybe_upgrade", "engine.upgrade_s"),
    ("bundle", "adjust", "bundle.adjust_s"),
    ("autocalib", "upgrade", "autocalib.upgrade_s"),
    ("autocalib", "grid_search", "autocalib.grid_s"),
    ("autocalib", "refine", "autocalib.refine_s"),
]

SPAN_NAMES = [f"{module}.{attr}" for module, attr, _ in TARGETS]
SELF_METRIC = {f"{m}.{a}": metric for m, a, metric in TARGETS}
NARROW_PHASE = "graph.narrow_phase_verify"
MSAC_SPLIT = {4: "robust.msac_h", 7: "robust.msac_f"}  # by sample size

# Every per-layer metric ``layer_metrics`` returns: seconds, counts, ratios.
SECONDS = sorted(
    {m for m in SELF_METRIC.values() if m}
    | {f"{p}_s" for p in MSAC_SPLIT.values()}
    | {"robust.msac_engine_s"}
)
COUNTS = [
    "graph.pairs_proposed",
    "graph.tracks",
    "robust.msac_h_iters",
    "robust.msac_f_iters",
    "robust.msac_engine_iters",
    "robust.msac_failed",
    "geometry.triangulate_calls",
    "engine.actions",
    "bundle.adjust_calls",
    "bundle.lm_iters",
    "bundle.points",
    "bundle.max_points",
    "bundle.not_converged",
    "autocalib.upgrade_calls",
    "autocalib.upgrade_failed",
    "clustering.next_merge_calls",
]


def unit_of(metric):
    if metric.endswith("_s"):
        return "s"
    return "count" if metric in COUNTS else "ratio"


def _arg(args, kwargs, position, name):
    return kwargs[name] if name in kwargs else args[position]


def _call_facts(name, args, kwargs):
    """Facts read from a call's arguments, kept also when it raises."""
    if name == "robust.msac":
        return {"sample_size": int(_arg(args, kwargs, 4, "sample_size"))}
    if name == "bundle.adjust":
        return {"points": len(_arg(args, kwargs, 0, "problem").tie_points)}
    return {}


def _result_facts(name, out):
    """Facts read from a call's result."""
    if name == "graph.narrow_phase_verify":
        return {"verified": type(out).__name__ == "EpipolarEdge"}
    if name == "graph.build_tracks":
        return {"tracks": len(out)}
    if name == "robust.msac":
        return {"iterations": int(out.iterations)}
    if name == "engine.run":
        return {
            "actions": len(out.actions),
            "rejected": sum(not a.ok for a in out.actions),
        }
    if name == "bundle.adjust":
        return {
            "iterations": int(out.report.iterations),
            "termination": out.report.termination,
        }
    return {}


class Recorder:
    """Spans of one command, kept in memory as
    ``[name, start, end, parent index, facts]`` lists."""

    def __init__(self, run_id):
        self.run_id = run_id
        self.spans = []
        self._open = []

    def wrap(self, name, fn):
        spans, stack = self.spans, self._open

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            facts = _call_facts(name, args, kwargs)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, facts]
            stack.append(len(spans))
            spans.append(span)
            span[1] = perf_counter()
            try:
                out = fn(*args, **kwargs)
            except BaseException as exc:
                span[2] = perf_counter()
                facts["raised"] = [c.__name__ for c in type(exc).__mro__]
                raise
            finally:
                stack.pop()
            span[2] = perf_counter()
            facts.update(_result_facts(name, out))
            return out

        return traced

    def open_root(self, start):
        """Open the span that covers the whole command; returns it."""
        root = [ROOT_SPAN, start, 0.0, -1, {}]
        self._open.append(len(self.spans))
        self.spans.append(root)
        return root

    def write(self, path):
        with open(path, "w") as f:
            json.dump({"run": self.run_id, "spans": self.spans}, f)


def install(recorder):
    """Wrap every target; returns a callable that restores the originals."""
    saved = []
    for module_name, attr, _ in TARGETS:
        owner = importlib.import_module(f"hsfm.{module_name}")
        *path, leaf = attr.split(".")
        for part in path:
            owner = getattr(owner, part)
        original = owner.__dict__[leaf]
        saved.append((owner, leaf, original))
        setattr(owner, leaf, recorder.wrap(f"{module_name}.{attr}", original))

    def restore():
        for owner, leaf, original in reversed(saved):
            setattr(owner, leaf, original)

    return restore


def _self_times(spans):
    child = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    return [end - start - c for (_, start, end, _, _), c in zip(spans, child)]


def _under(spans, index, name):
    parent = spans[index][3]
    while parent >= 0:
        if spans[parent][0] == name:
            return True
        parent = spans[parent][3]
    return False


def layer_metrics(spans, stage, wall_s):
    """Per-layer metrics of one command's spans.

    Every ``_s`` value is a self time (span time minus the time of its child
    spans), so each second of the command is counted exactly once: in a
    layer, in ``<stage>.other_s`` for the time inside ``cli.main`` that no
    layer span covers, or in ``<stage>.process_s`` for the part of
    ``wall_s``, the command's wall time as its caller measured it, outside
    ``cli.main``.  The ratios are returned as their numerator and
    denominator counts so that stages can be summed; ``finish`` divides them.
    """
    out = {k: 0.0 for k in SECONDS}
    out.update({k: 0 for k in COUNTS})
    out.update({"graph.pairs_verified": 0, "engine.actions_rejected": 0})
    root = spans[0]
    out[f"{stage}.process_s"] = wall_s - (root[2] - root[1])
    for k, (span, own) in enumerate(zip(spans, _self_times(spans))):
        name, facts = span[0], span[4]
        raised = facts.get("raised", ())
        if name == ROOT_SPAN:
            out[f"{stage}.other_s"] = own
        elif name == "robust.msac":
            narrow = _under(spans, k, NARROW_PHASE)
            size = facts.get("sample_size")
            prefix = MSAC_SPLIT[size] if narrow and size in MSAC_SPLIT else (
                "robust.msac_engine"
            )
            out[prefix + "_s"] += own
            out[prefix + "_iters"] += facts.get("iterations", 0)
            out["robust.msac_failed"] += "RobustError" in raised
        else:
            out[SELF_METRIC[name]] += own
        if name == NARROW_PHASE:
            out["graph.pairs_proposed"] += 1
            out["graph.pairs_verified"] += bool(facts.get("verified"))
        elif name == "graph.build_tracks":
            out["graph.tracks"] += facts.get("tracks", 0)
        elif name == "geometry.triangulate":
            out["geometry.triangulate_calls"] += 1
        elif name == "engine.run":
            out["engine.actions"] += facts.get("actions", 0)
            out["engine.actions_rejected"] += facts.get("rejected", 0)
        elif name == "bundle.adjust":
            out["bundle.adjust_calls"] += 1
            out["bundle.lm_iters"] += facts.get("iterations", 0)
            out["bundle.points"] += facts.get("points", 0)
            out["bundle.max_points"] = max(
                out["bundle.max_points"], facts.get("points", 0)
            )
            out["bundle.not_converged"] += facts.get("termination") == "not_converged"
        elif name == "autocalib.upgrade":
            out["autocalib.upgrade_calls"] += 1
            out["autocalib.upgrade_failed"] += bool(
                {"AutocalError", "GeometryError"} & set(raised)
            )
        elif name == "clustering.next_merge":
            out["clustering.next_merge_calls"] += 1
    return out


def merge(per_stage):
    """Sum per-stage ``layer_metrics`` (max for ``bundle.max_points``)."""
    total = {}
    for metrics in per_stage:
        for key, value in metrics.items():
            if key == "bundle.max_points":
                total[key] = max(total.get(key, 0), value)
            else:
                total[key] = total.get(key, 0) + value
    return total


def finish(metrics):
    """Replace the ratio numerators by the ratios."""
    out = dict(metrics)
    verified = out.pop("graph.pairs_verified")
    rejected = out.pop("engine.actions_rejected")
    out["graph.pairs_verified_frac"] = verified / max(out["graph.pairs_proposed"], 1)
    out["engine.actions_rejected_frac"] = rejected / max(out["engine.actions"], 1)
    return out


def read_spans(path):
    with open(path) as f:
        return json.load(f)["spans"]


def main(argv):
    spans_path, run_id, *cli_args = argv
    from hsfm import cli

    recorder = Recorder(run_id)
    restore = install(recorder)
    root = recorder.open_root(perf_counter())
    try:
        code = cli.main(cli_args)
    finally:
        root[2] = perf_counter()
        restore()
    recorder.write(spans_path)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
