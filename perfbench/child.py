"""One benchmark repetition in a fresh interpreter.

Run by ``run.py``; prints one JSON object as its last output line. The
repetition parses the workload's config through ``probadapt.config``, then
calls ``runner.run_experiment`` or ``runner.run_grid`` once, with either a
per-step timer (``--trace 0``) or the layer tracer (``--trace 1``).

    python3 perfbench/child.py --workload uda_default --seed 0 \
        --spawned-at <CLOCK_MONOTONIC seconds> --trace 0 [--setup-only]

``PYTHONPATH`` must reach the package and ``PROBADAPT_OUTPUT_ROOT`` must
name a fresh directory for the run's files.
"""

import argparse
import inspect
import json
import resource
import time

parser = argparse.ArgumentParser()
parser.add_argument("--workload", required=True)
parser.add_argument("--seed", type=int, required=True)
parser.add_argument("--spawned-at", type=float, required=True)
parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
parser.add_argument("--setup-only", action="store_true")
args = parser.parse_args()

from probadapt import runner, trainer  # noqa: E402
from probadapt.config import parse_config  # noqa: E402

import workloads  # noqa: E402

workload = workloads.WORKLOADS[args.workload]
cfg = parse_config(workloads.config_text(workload, args.seed))
result = {"setup_s": time.clock_gettime(time.CLOCK_MONOTONIC) - args.spawned_at}


def step_timer(train_step, steps):
    """Wrap ``train_step`` to append (seconds, rows consumed, in first epoch) per call."""
    signature = inspect.signature(train_step)

    def timed(*a, **kw):
        start = time.perf_counter()
        out = train_step(*a, **kw)
        elapsed = time.perf_counter() - start
        bound = signature.bind(*a, **kw).arguments
        per_epoch = bound["total_iterations"] // bound["config"].epochs
        steps.append((elapsed, len(bound["x_s"]) + len(bound["x_t"]),
                      bound["iteration"] < per_epoch))
        return out

    return timed


def run():
    start = time.perf_counter()
    if workload.grid is None:
        records = [runner.run_experiment(cfg)]
    else:
        records = runner.run_grid(cfg, workload.grid)
    return time.perf_counter() - start, records


if args.setup_only:
    result["env"] = workloads.environment()
else:
    from layertrace import LayerTracer, Patcher

    if args.trace:
        with LayerTracer() as tracer:
            result["wall_s"], records = run()
        result["layers"] = tracer.metrics()
    else:
        result["steps"] = []
        patcher = Patcher()
        patcher.replace(trainer.train_step, step_timer(trainer.train_step, result["steps"]))
        try:
            result["wall_s"], records = run()
        finally:
            patcher.restore()
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result["runs"] = [str(rec.out_dir) for rec in records]
print(json.dumps(result))
