"""probadapt benchmark: end-to-end metrics per workload, or a layer trace.

    python3 perfbench/run.py --workload uda_default --seed 0 --seconds 25 --trace 0

Run from anywhere inside a source checkout; the package is imported from
``src/`` and the base config is ``configs/example.cfg``. Every repetition
runs in a fresh interpreter (``ru_maxrss`` is a per-process high-water mark)
that parses the config and calls ``runner.run_experiment`` or
``runner.run_grid``, writing under a temporary ``PROBADAPT_OUTPUT_ROOT``
inside the checkout. BLAS threads are capped at the processors this process
may use. Repetitions continue until ``--seconds`` is spent.

``--trace 0`` measures with tracing off and reports, each with its sample
count: ``setup_s`` (interpreter start until the package is imported and the
config parsed; median over set-up probes and repetitions), ``wall_s`` (first
call into ``runner`` until it returns; median), ``step_ms_p50`` and
``step_ms_p90`` (per ``trainer.train_step`` call, pooled over repetitions),
``adapt_samples_per_s`` (rows consumed by ``train_step`` over summed
``train_step`` time) and ``peak_rss_mb`` (median). More figures are printed
as text, not as bounded metrics, because their run-to-run spread on a
shared 2-core host was too wide for a bound or because they do not vary:
``step_ms_p95`` (spread up to 0.15 of its median, against 0.06 for p90),
the first-epoch and later-epoch step medians (first epoch up to 0.16),
``final_target_accuracy`` (deterministic per seed) and ``run_fail_share``
(the result's ``failed`` out of ``attempted`` pipeline runs).

``--trace 1`` alternates untraced and traced repetitions and reports the
layer metrics of ``layertrace.LayerTracer`` (medians over traced
repetitions) plus traced against untraced ``wall_s``.

Every repetition's outputs are checked: each pipeline run reports status
``complete``; its ``summary.json`` and ``epochs.csv`` are byte-identical to
the first repetition's, traced or not; on seed 0 its final target accuracy
equals the pin, on other seeds it is at least twice chance. A run failing
a check counts in ``failed``.

What each layer metric should move, and where:

* ``optim``, the elementwise ``autodiff`` ops and ``backward.self_s`` move
  ``step_ms_p50`` and ``adapt_samples_per_s`` on uda_default, and
  ``wall_s`` on all workloads (pretraining also steps and backpropagates).
* ``autodiff.matmul.vjp_s``, ``losses.cpa_pairwise.s`` and
  ``autodiff.tape_mb_per_step`` move the step metrics and ``peak_rss_mb`` on
  uda_large_batch, and should barely move uda_default.
* ``autodiff.backward.calls`` per step moves the step metrics everywhere.
* ``model.pretrain.calls`` and ``.s`` move ``wall_s`` on components_grid and
  leave the step metrics alone.

The last line of output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from statistics import median

from workloads import BASE_CONFIG, ROOT, WORKLOADS, Workload

HERE = Path(__file__).resolve().parent
SRC = ROOT / "src"
SCRATCH_PARENT = ROOT / ".perfbench_tmp"
SPEC = ROOT / "BENCHMARK.json"

SETUP_PROBES = 5
# Whole-run limit, kept under the 180 s a run may take.
HARD_LIMIT_S = 165.0
# Twice chance for the four task classes; applies to seeds without pins.
ACCURACY_FLOOR = 0.5
CHECKED_FILES = ("summary.json", "epochs.csv")
# Layer metrics that must repeat exactly between traced repetitions.
EXACT_LAYER_SUFFIXES = (".calls", "tape_nodes_per_step", "tape_mb_per_step")


def monotonic() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def declared_units(kind: str) -> dict[str, str]:
    """Metric name -> unit for one metric list of BENCHMARK.json."""
    spec = json.loads(SPEC.read_text(encoding="utf-8"))
    return {metric["name"]: metric["unit"] for metric in spec[kind]}


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q / 100.0 * len(ordered)) - 1)]


class Bench:
    def __init__(self, workload: Workload, seed: int, seconds: int, trace: bool, scratch: Path):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.scratch = scratch
        self.threads = str(len(os.sched_getaffinity(0)))
        self.started = monotonic()
        self.count = 0
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.reference: list[dict[str, bytes] | None] = [None] * len(workload.pins)

    def child(self, trace: bool, setup_only: bool = False) -> dict | None:
        """Run one fresh-process repetition; None if it did not finish cleanly."""
        self.count += 1
        out_root = self.scratch / f"rep{self.count}"
        out_root.mkdir()
        env = dict(os.environ, PYTHONPATH=str(SRC), PROBADAPT_OUTPUT_ROOT=str(out_root),
                   OPENBLAS_NUM_THREADS=self.threads, OMP_NUM_THREADS=self.threads,
                   MKL_NUM_THREADS=self.threads)
        cmd = [sys.executable, str(HERE / "child.py"), "--workload", self.workload.name,
               "--seed", str(self.seed), "--trace", str(int(trace))]
        if setup_only:
            cmd.append("--setup-only")
        timeout = max(1.0, self.started + HARD_LIMIT_S - monotonic())
        try:
            proc = subprocess.run(cmd + ["--spawned-at", repr(monotonic())], env=env,
                                  cwd=out_root, capture_output=True, text=True,
                                  timeout=timeout)
        except subprocess.TimeoutExpired:
            self.problems.append(f"repetition {self.count} passed the {HARD_LIMIT_S:.0f} s limit")
            return None
        if proc.returncode != 0:
            tail = proc.stderr.strip().splitlines()[-1:] or ["no error output"]
            self.problems.append(f"repetition {self.count} exited {proc.returncode}: {tail[0]}")
            return None
        return json.loads(proc.stdout.strip().splitlines()[-1])

    def repetition(self, trace: bool) -> dict | None:
        """One full repetition with its output checks counted."""
        runs = len(self.workload.pins)
        self.attempted += runs
        rep = self.child(trace)
        if rep is None:
            self.failed += runs
            return None
        rep["accuracy"] = []
        if len(rep["runs"]) != runs:
            self.problems.append(f"repetition {self.count}: {len(rep['runs'])} runs, "
                                 f"expected {runs}")
            self.failed += runs
            return rep
        for i, out_dir in enumerate(rep["runs"]):
            problems = self.check_run(i, Path(out_dir), rep["accuracy"])
            self.problems += [f"repetition {self.count} run {i}: {p}" for p in problems]
            self.failed += bool(problems)
        return rep

    def check_run(self, index: int, out_dir: Path, accuracies: list[float]) -> list[str]:
        try:
            files = {name: (out_dir / name).read_bytes() for name in CHECKED_FILES}
        except OSError as exc:
            return [f"missing output: {exc}"]
        summary = json.loads(files["summary.json"])
        problems = []
        if summary.get("status") != "complete":
            problems.append(f"status {summary.get('status')!r}: {summary.get('error', '')}")
        acc = summary.get("final_target_accuracy", float("nan"))
        accuracies.append(acc)
        pin = self.workload.pins[index]
        if self.seed == 0 and not abs(acc - pin) < 1e-9:
            problems.append(f"final target accuracy {acc!r} differs from the pin {pin!r}")
        if self.seed != 0 and not acc >= ACCURACY_FLOOR:
            problems.append(f"final target accuracy {acc!r} below {ACCURACY_FLOOR}")
        if self.reference[index] is None:
            self.reference[index] = files
        else:
            for name in CHECKED_FILES:
                if files[name] != self.reference[index][name]:
                    problems.append(f"{name} differs from the first repetition's")
        return problems

    def time_left_for(self, cycles: int, last_s: float) -> bool:
        """Whether at least half of another cycle as long as the last one fits the run."""
        now = monotonic()
        if now + last_s > self.started + HARD_LIMIT_S:
            return False
        return cycles < self.workload.min_reps or now + last_s / 2 <= self.started + self.seconds

    def run(self) -> int:
        warm = self.child(trace=False, setup_only=True)  # also compiles bytecode
        if warm is None:
            print(f"perfbench: cannot start the program: {self.problems[-1]}", file=sys.stderr)
            return 1
        setups = []
        for _ in range(SETUP_PROBES):
            probe = self.child(trace=False, setup_only=True)
            if probe is not None:
                setups.append(probe["setup_s"])
        reps, traced = [], []
        cycles = 0
        while True:
            began = monotonic()
            cycles += 1
            rep = self.repetition(trace=False)
            if rep is not None:
                reps.append(rep)
            if self.trace:
                rep = self.repetition(trace=True)
                if rep is not None:
                    traced.append(rep)
            if not self.time_left_for(cycles, monotonic() - began):
                break
        if not reps or (self.trace and not traced):
            for problem in self.problems:
                print(f"perfbench: {problem}", file=sys.stderr)
            print("perfbench: no repetition completed", file=sys.stderr)
            return 1

        setups += [r["setup_s"] for r in reps + traced]
        walls = [r["wall_s"] for r in reps]
        print(f"perfbench {self.workload.name} seed={self.seed} trace={int(self.trace)} "
              f"repetitions={len(reps)}+{len(traced)} traced, set-up probes={SETUP_PROBES}")
        print("env " + " ".join(f"{k}={v}" for k, v in warm["env"].items()))
        if self.trace:
            values, counts = self.layer_metrics(traced, walls)
            units = declared_units("per_layer")
        else:
            values, counts = self.run_metrics(reps, setups, walls)
            units = declared_units("end_to_end")
        if set(values) != set(units):
            raise RuntimeError(f"metrics {sorted(set(values) ^ set(units))} are not both "
                               f"measured and declared in {SPEC.name}")
        for name, value in values.items():
            print(f"{name} {value:.6g} {units[name]} ({counts[name]})")
        if not self.trace:
            self.print_step_detail(reps)
        accuracy = reps[0]["accuracy"]
        if accuracy:
            print(f"final_target_accuracy {sum(accuracy) / len(accuracy):.6g} "
                  f"(mean of {len(accuracy)} runs: {', '.join(map(repr, accuracy))})")
        print(f"run_fail_share {self.failed / self.attempted:.6g} "
              f"({self.failed} failed of {self.attempted} runs)")
        for problem in self.problems:
            print(f"problem: {problem}")
        print(json.dumps({
            "correct": not self.problems,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": {name: {"value": value, "unit": units[name]}
                        for name, value in values.items()},
        }))
        return 0

    def run_metrics(self, reps, setups, walls):
        steps = [s for r in reps for s in r["steps"]]
        ms = [s[0] * 1e3 for s in steps]
        n = len(reps)
        values = {
            "setup_s": median(setups),
            "wall_s": median(walls),
            "step_ms_p50": percentile(ms, 50),
            "step_ms_p90": percentile(ms, 90),
            "adapt_samples_per_s": sum(s[1] for s in steps) / sum(s[0] for s in steps),
            "peak_rss_mb": median(r["peak_rss_mb"] for r in reps),
        }
        counts = {
            "setup_s": f"median of {len(setups)} set-ups",
            "wall_s": f"median of {n} runs",
            "step_ms_p50": f"{len(ms)} steps over {n} runs",
            "step_ms_p90": f"{len(ms)} steps over {n} runs",
            "adapt_samples_per_s": f"{sum(s[1] for s in steps)} rows",
            "peak_rss_mb": f"median of {n} runs",
        }
        return values, counts

    @staticmethod
    def print_step_detail(reps) -> None:
        """Step figures printed without a bound: the tail and the first-epoch warm-up."""
        steps = [s for r in reps for s in r["steps"]]
        ms = [s[0] * 1e3 for s in steps]
        first = [s[0] * 1e3 for s in steps if s[2]]
        later = [s[0] * 1e3 for s in steps if not s[2]]
        print(f"step_ms_p95 {percentile(ms, 95):.6g} ms ({len(ms)} steps)")
        print(f"step_ms_first_epoch_p50 {median(first):.6g} ms ({len(first)} first-epoch steps)")
        print(f"step_ms_later_p50 {median(later):.6g} ms ({len(later)} later steps)")

    def layer_metrics(self, traced, walls):
        layers = [r["layers"] for r in traced]
        for other in layers[1:]:
            for name, value in other.items():
                if name.endswith(EXACT_LAYER_SUFFIXES) and value != layers[0][name]:
                    self.problems.append(f"{name} did not repeat: {layers[0][name]} "
                                         f"then {value}")
        values = {name: median(layer[name] for layer in layers) for name in layers[0]}
        traced_wall = median(r["wall_s"] for r in traced)
        values["trace.wall_s"] = traced_wall
        values["trace.untraced_wall_s"] = median(walls)
        values["trace.overhead_share"] = traced_wall / median(walls) - 1.0
        counts = {name: f"median of {len(traced)} traced runs" for name in values}
        counts["trace.untraced_wall_s"] = f"median of {len(walls)} runs"
        return values, counts


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if not (SRC / "probadapt" / "__init__.py").is_file() or not BASE_CONFIG.is_file():
        print(f"perfbench: no probadapt sources under {ROOT}", file=sys.stderr)
        return 2
    SCRATCH_PARENT.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=SCRATCH_PARENT))
    try:
        return Bench(WORKLOADS[args.workload], args.seed, args.seconds,
                     bool(args.trace), scratch).run()
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            SCRATCH_PARENT.rmdir()
        except OSError:
            pass


if __name__ == "__main__":
    sys.exit(main())
