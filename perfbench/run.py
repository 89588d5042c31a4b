"""End-to-end benchmark of hsfm: ``hsfm match`` then ``hsfm sam``.

One client, closed loop: the benchmark generates a synthetic ring scene from
``--seed``, writes it in the pipeline's input formats, then runs ``hsfm
match`` and ``hsfm sam`` on it one after the other, each as its own process
with BLAS pinned to one thread, and scores the written model against the
truth.  The program sees only the scene directory.

    python3 perfbench/run.py --workload ring12-calib --seed 12 --seconds 30 --trace 0

With ``--trace 0`` it repeats match -> sam while another pass fits in
``--seconds`` (at least once) and reports the end-to-end metrics as medians.
With ``--trace 1`` it runs once untraced and once with per-layer spans
recorded from outside the program (``tracing.py``), checks that both runs
wrote the same bytes, and reports the per-layer metrics.  The last line of
standard output is the JSON result; the line before it records the
environment.  A pass fails when a command exits non-zero or its output fails
the check; the result then says ``"correct": false`` and ``failed`` counts
the failed passes.  The exit code is 0 whenever the result line is printed,
and 2 when the hsfm sources are missing.

This process imports no numpy: scene generation and scoring run in
``truth.py`` processes.  See README.md for the workloads and the layer map.
"""

import os

BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS  # inherited by every process started here

import argparse  # noqa: E402
import filecmp  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402
import time  # noqa: E402
from dataclasses import asdict, dataclass  # noqa: E402
from importlib import metadata  # noqa: E402

import tracing  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_work")

SETUP_REPEATS = 5
TIMEOUT_S = 150  # per process
MAX_UNCOVERED = 0.05  # share of a stage's traced wall time no span may cover

END_TO_END_UNITS = {
    "match_s": "s",
    "setup_s": "s",
    "match_peak_rss_mb": "MB",
    "sam_peak_rss_mb": "MB",
    "points_frac": "ratio",
}


class BenchError(Exception):
    pass


def child_env():
    env = {k: v for k, v in os.environ.items() if not k.startswith("HSFM_")}
    env["PYTHONPATH"] = SRC
    env["PYTHONHASHSEED"] = "0"
    return env


@dataclass
class Stage:
    wall_s: float
    peak_rss_mb: float


def run_process(name, argv, log_path):
    """Run one command to completion; its wall time from start to exit and
    its peak RSS.

    The peak comes from ``os.wait4`` on this child alone; ``RUSAGE_CHILDREN``
    is a running maximum over all children and would carry one stage into the
    next.
    """
    env = child_env()
    with open(log_path, "ab") as log:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, env=env, cwd=ROOT, stdout=log, stderr=log)
        watchdog = threading.Timer(TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - start
        except BaseException:  # interrupted: stop the child and reap it
            proc.kill()
            os.waitpid(proc.pid, 0)
            raise
        finally:
            watchdog.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        raise BenchError(f"{name} exited with {proc.returncode}")
    return Stage(wall, usage.ru_maxrss / 1024.0)


def hsfm_argv(stage, args, spans=None, run_id=None):
    """The ``hsfm`` command line, or its traced equivalent when ``spans``
    names the file the spans go to."""
    if spans is None:
        entry = ["-c", "import sys; from hsfm.cli import main; sys.exit(main())"]
    else:
        entry = [os.path.join(HERE, "tracing.py"), spans, run_id]
    return [sys.executable, *entry, stage, *args]


def match_then_sam(workload, work_dir, out_dir, span_dir=None):
    """One closed-loop pass; returns the two stages, or raises BenchError.

    ``verified_matches.txt`` is copied into ``out_dir`` so that the pass's
    outputs sit together.
    """
    scene_dir = os.path.join(work_dir, "scene")
    verified = os.path.join(scene_dir, "verified_matches.txt")
    if os.path.exists(verified):
        os.remove(verified)
    commands = {
        "match": ["--input", scene_dir, *workload.match_flags],
        "sam": ["--input", scene_dir, "--out", out_dir, "--mode", workload.mode],
    }
    log = os.path.join(work_dir, "hsfm.log")
    stages = []
    for stage, args in commands.items():
        spans = None if span_dir is None else os.path.join(span_dir, f"{stage}.json")
        argv = hsfm_argv(stage, args, spans, os.path.basename(work_dir))
        stages.append(run_process(f"hsfm {stage}", argv, log))
    if not os.path.isfile(verified):
        raise BenchError("hsfm match wrote no verified_matches.txt")
    shutil.copy(verified, os.path.join(out_dir, "verified_matches.txt"))
    return stages


def truth(command, workload, seed, *args):
    """Run ``truth.py`` in its own process and return its JSON answer."""
    argv = [sys.executable, os.path.join(HERE, "truth.py"), command,
            json.dumps(asdict(workload)), str(seed), *map(str, args)]
    try:
        out = subprocess.run(argv, env=child_env(), cwd=ROOT, capture_output=True,
                             text=True, timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise BenchError(f"truth.py {command} ran longer than {TIMEOUT_S} s")
    if out.returncode != 0:
        raise BenchError(f"truth.py {command} failed: {out.stderr.strip()}")
    return json.loads(out.stdout.splitlines()[-1])


def set_up(workload, seed, work_dir, repeats):
    """Write the scene; returns the set-up times and the baseline RMS."""
    setup = truth("setup", workload, seed, os.path.join(work_dir, "scene"), repeats)
    return setup["setup_s"], setup["baseline_rms"]


def environment():
    commit = "unknown"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True
        )
        commit = out.stdout.strip() or commit
    return {
        "blas_threads": int(BLAS_THREADS),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "commit": commit,
    }


def measure(workload, seed, baseline, work_dir, seconds):
    """Repeat match -> sam while another pass fits in ``seconds``.

    Returns the end-to-end metrics (medians over the passes that ran), the
    number of passes attempted and the reasons of those that failed.
    """
    deadline = time.perf_counter() + seconds
    passes, out_dirs, failures = [], [], []
    while True:
        out_dir = os.path.join(work_dir, f"out_{len(passes)}")
        try:
            match, sam = match_then_sam(workload, work_dir, out_dir)
        except BenchError as exc:
            failures.append(str(exc))
            break
        passes.append((match, sam))
        out_dirs.append(out_dir)
        if time.perf_counter() + match.wall_s + sam.wall_s > deadline:
            break
    attempted = len(passes) + len(failures)
    if not passes:
        return {}, attempted, failures
    scores = truth("score", workload, seed, baseline, *out_dirs)
    failures += ["; ".join(r["problems"]) for r in scores if r["problems"]]
    med = statistics.median
    metrics = {
        "match_s": med(m.wall_s for m, _ in passes),
        "match_peak_rss_mb": med(m.peak_rss_mb for m, _ in passes),
        "sam_peak_rss_mb": med(s.peak_rss_mb for _, s in passes),
    }
    metrics["points_frac"] = med(r["points_frac"] for r in scores)
    return metrics, attempted, failures


def same_outputs(dir_a, dir_b):
    names = sorted(os.listdir(dir_a))
    if names != sorted(os.listdir(dir_b)):
        return False
    _, mismatch, errors = filecmp.cmpfiles(dir_a, dir_b, names, shallow=False)
    return not mismatch and not errors


def measure_traced(workload, seed, baseline, work_dir):
    """One untraced and one traced pass; returns the per-layer metrics and
    the reason the output check failed, if it did, as a list.

    Raises BenchError when a command fails, when the two passes wrote
    different files, or when more than 5% of a stage's traced wall time is
    spent inside ``cli.main`` outside every layer span (``other_s``).  The
    layer self times, ``other_s`` and ``process_s`` add up to the stage's
    wall time by construction; ``other_s`` is the part that can grow.
    """
    plain_out = os.path.join(work_dir, "out")
    traced_out = os.path.join(work_dir, "out_traced")
    span_dir = os.path.join(work_dir, "spans")
    os.makedirs(span_dir)
    plain = match_then_sam(workload, work_dir, plain_out)
    traced = match_then_sam(workload, work_dir, traced_out, span_dir)
    if not same_outputs(plain_out, traced_out):
        raise BenchError("traced and untraced runs wrote different files")
    (result,) = truth("score", workload, seed, baseline, traced_out)

    per_stage = []
    for stage, wall in zip(("match", "sam"), traced):
        spans = tracing.read_spans(os.path.join(span_dir, f"{stage}.json"))
        metrics = tracing.layer_metrics(spans, stage, wall.wall_s)
        uncovered = metrics[f"{stage}.other_s"]
        if uncovered > MAX_UNCOVERED * wall.wall_s:
            raise BenchError(
                f"{stage}: {uncovered:.3f} s of {wall.wall_s:.3f} s "
                "is covered by no layer span"
            )
        per_stage.append(metrics)
    metrics = tracing.finish(tracing.merge(per_stage))
    # sam's work, and so its time, varies with the seed by more than an
    # end-to-end bound can hold (README.md), so it is reported here
    metrics["sam_s"] = plain[1].wall_s
    metrics["total_s"] = plain[0].wall_s + plain[1].wall_s
    metrics["match.traced_s"] = traced[0].wall_s
    metrics["sam.traced_s"] = traced[1].wall_s
    metrics["trace_overhead_s"] = sum(s.wall_s for s in traced) - sum(
        s.wall_s for s in plain
    )
    for key in ("rms_ratio", "focal_err_max", "cameras_frac"):
        if key in result:
            metrics[key] = result[key]
    return metrics, ["; ".join(result["problems"])] if result["problems"] else []


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=12)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # a terminated run still stops its running command (run_process)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    if not os.path.isfile(os.path.join(SRC, "hsfm", "cli.py")):
        print(f"perfbench: no hsfm sources under {SRC}", file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload]
    work_dir = os.path.join(WORK, f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(work_dir)
    print(json.dumps({"env": environment(), "workload": asdict(workload),
                      "seed": args.seed, "trace": args.trace}))
    values, attempted, failures = {}, 1, []
    try:
        setups, baseline = set_up(
            workload, args.seed, work_dir, 1 if args.trace else SETUP_REPEATS
        )
        if args.trace:
            values, failures = measure_traced(
                workload, args.seed, baseline, work_dir
            )
            shutil.move(os.path.join(work_dir, "spans"), work_dir + "-spans")
        else:
            values, attempted, failures = measure(
                workload, args.seed, baseline, work_dir, args.seconds
            )
            values["setup_s"] = statistics.median(setups)
    except BenchError as exc:
        failures.append(str(exc))
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    for reason in failures:
        print(f"perfbench: failed: {reason}", file=sys.stderr)
    units = tracing.unit_of if args.trace else END_TO_END_UNITS.get
    metrics = {k: {"value": v, "unit": units(k)} for k, v in values.items()}
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
