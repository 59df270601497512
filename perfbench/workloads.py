"""The benchmark's workloads and the environment record.

Every workload starts from ``configs/example.cfg`` and replaces the ``seed``
line with the benchmark's seed; the config text is what the run parses.
"""

from __future__ import annotations

import ctypes
import os
import platform
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
BASE_CONFIG = ROOT / "configs" / "example.cfg"


@dataclass(frozen=True)
class Workload:
    name: str
    # config key -> replacement value text
    overrides: dict[str, str] = field(default_factory=dict)
    # ablation axis for runner.run_grid, or None for one runner.run_experiment
    grid: str | None = None
    # final target accuracy of each pipeline run on seed 0, in run order
    pins: tuple[float, ...] = ()
    # repetitions a run makes at least, so the step percentiles have samples
    min_reps: int = 1


WORKLOADS = {w.name: w for w in (
    # The paper's canonical run: 260 steps at batch 16, where a step's cost is
    # Python overhead per tape op, backward and SGD; CPA is ~2% of it.
    Workload("uda_default", pins=(0.98,)),
    # The pairwise CPA regime: its (n_s*n_t)-row replication constants and
    # their matmul VJPs carry most of the step. eta0 is 0.0075 / 8: the summed
    # losses make gradients grow with the batch, and at the default rate every
    # batch of 128 or more collapses to chance accuracy. A repetition has 160
    # steps, so a run makes at least two to pool 200 or more.
    Workload("uda_large_batch",
             overrides={"train.batch_size": "128", "generator.samples_per_class": "256",
                        "schedule.eta0": "0.0009375"},
             pins=(0.974609375,), min_reps=2),
    # Six points, six identical pretrainings, skipped groups (lambda = 0) and
    # cgi_updates_backbone = true; the one workload a pretrain-once cache moves.
    Workload("components_grid", grid="components",
             pins=(0.845, 0.975, 0.955, 0.97, 0.91, 0.98)),
)}


def config_text(workload: Workload, seed: int) -> str:
    """``configs/example.cfg`` with the seed and the workload's overrides substituted."""
    overrides = {"seed": str(seed), **workload.overrides}
    lines = []
    for line in BASE_CONFIG.read_text(encoding="utf-8").splitlines():
        key = line.split("#", 1)[0].split("=", 1)[0].strip()
        if key in overrides:
            line = f"{key} = {overrides.pop(key)}"
        lines.append(line)
    if overrides:
        raise KeyError(f"keys missing from {BASE_CONFIG.name}: {sorted(overrides)}")
    return "\n".join(lines) + "\n"


def _blas_threads() -> int | None:
    """Thread count reported by the loaded OpenBLAS, when one is loaded."""
    with open("/proc/self/maps", encoding="utf-8") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line.split()[-1].lower()}
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment() -> dict:
    """Python, numpy and BLAS versions, BLAS threads and usable processors."""
    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "nproc": len(os.sched_getaffinity(0)),
    }
