"""Self-test of the benchmark on tiny ring scenes.

    python3 perfbench/selftest.py

Runs the traced mode of ``run.py`` on two 6-camera scenes, one calibrated
from supplied matches and one autocalibrated from the descriptor broad phase,
and checks that

- every wrapped layer function records at least one span, so that a rename
  or a call site that bypasses the module attribute fails loudly;
- the traced and untraced runs write byte-identical ``verified_matches.txt``,
  ``report.txt`` and model files;
- no more than 5% of each stage's traced wall time is spent inside
  ``cli.main`` outside every layer span (``other_s``);
- the calibrated model passes the benchmark's output check.  Six cameras are
  too few for the autocalibrated model to meet acceptance criterion 6's
  accuracy gates, so only its spans and files are checked;
- BENCHMARK.json lists exactly the metrics, with the units, that the
  benchmark prints.  A failed output check may leave accuracy metrics out,
  so this is checked on the calibrated scene.

Exits non-zero on the first failure.
"""

import json
import os
import shutil
import sys

import run
import tracing
from workloads import Workload

SEED = 7
TINY = {
    "calibrated-matches": Workload(6, 120, "calibrated"),
    "autocal-broad-phase": Workload(6, 120, "autocalibrated", ("--broad-phase",)),
}
CHECKED = {"calibrated-matches"}  # must also pass the output check


def listed_metrics():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
        doc = json.load(f)
    return [
        {m["name"]: m["unit"] for m in doc[key]} for key in ("end_to_end", "per_layer")
    ]


def main():
    end_to_end, per_layer = listed_metrics()
    if end_to_end != run.END_TO_END_UNITS:
        print("FAIL: BENCHMARK.json end_to_end differs from run.END_TO_END_UNITS")
        return 1
    seen = set()
    root = os.path.join(run.WORK, f"selftest-{os.getpid()}")
    try:
        for name, workload in TINY.items():
            work_dir = os.path.join(root, name)
            os.makedirs(work_dir)
            _, baseline = run.set_up(workload, SEED, work_dir, 1)
            # raises BenchError on a failed command, on differing outputs and
            # on more than 5% of a stage's wall time outside every span
            metrics, failures = run.measure_traced(
                workload, SEED, baseline, work_dir
            )
            if name in CHECKED and failures:
                raise run.BenchError(f"{name}: {failures[0]}")
            printed = {k: tracing.unit_of(k) for k in metrics}
            if name in CHECKED and printed != per_layer:
                raise run.BenchError(
                    "BENCHMARK.json per_layer differs from the traced metrics: "
                    f"{sorted(set(printed.items()) ^ set(per_layer.items()))}"
                )
            for stage in ("match", "sam"):
                spans = tracing.read_spans(
                    os.path.join(work_dir, "spans", f"{stage}.json")
                )
                seen |= {span[0] for span in spans}
            print(
                f"{name}: match {metrics['match.traced_s']:.2f} s, "
                f"sam {metrics['sam.traced_s']:.2f} s, "
                f"{metrics['engine.actions']} actions, "
                f"{metrics['bundle.adjust_calls']} BA calls"
            )
    except run.BenchError as exc:
        print(f"FAIL: {exc}")
        return 1
    finally:
        shutil.rmtree(root, ignore_errors=True)
    missing = sorted(set(tracing.SPAN_NAMES) - seen)
    if missing:
        print(f"FAIL: no spans recorded for {', '.join(missing)}")
        return 1
    print(f"ok: all {len(tracing.SPAN_NAMES)} wrapped functions recorded spans")
    return 0


if __name__ == "__main__":
    sys.exit(main())
