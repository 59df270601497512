"""Check this checkout's run outputs against the committed report files.

    python3 tools/output_diff.py
    python3 tools/output_diff.py --write-golden

Runs a fixed set of 39 pipelines (each grid point counts as one) in this
process, from this checkout's ``src``, as ``probadapt.cli`` would with
``PROBADAPT_OUTPUT_ROOT`` set to a temporary directory. Each run's config is
a benchmark workload's config, built by ``perfbench/workloads.py`` from
``configs/example.cfg``, with a few lines replaced:

- the example as ``uda``, ``pda`` and ``fig1``
- ``pda`` on a target of two classes with ``noise_scale`` 0.45 at threshold
  10, whose partial-set mask drops a class in most evaluations
- ``uda`` with ``lambda2_a`` and ``lambda3_a`` at 0
- ``uda`` with ``eta0`` at 1e300, which diverges and is reported incomplete
- ``uda`` with a translation, three target classes and
  ``cgi_updates_backbone`` on, so that every value kind of the config is off
  its default in some run
- the ``uda_large_batch`` workload's config on seeds 0, 1 and 2
- the ``components``, ``beta_variant``, ``penalty_variant`` and
  ``pda_threshold`` grids
- the ``components`` grid from ``lambda2_a`` 0.5, ``lambda3_a`` 0.125 and
  ``cgi_updates_backbone`` on, so that a point that loses a kept term's
  amplitude or the backbone flag shows

It then compares every ``summary.json``, ``epochs.csv`` and
``grid_summary.csv``, 83 files, byte for byte with the tree under
``tests/golden/``. For each file that differs it names the differing
``summary.json`` keys or the differing CSV line numbers. The exit status is
1 if any file differs or exists on one side only.

``--write-golden`` writes that tree from the same runs instead, with a
``versions.txt`` that records the Python and numpy versions.
``tests/test_golden_outputs.py`` checks the :data:`GOLDEN_RUNS` subset
against it in Tier-1. Regenerate it only in a change that moves outputs on
purpose, and list the moved files.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import platform
import shutil
import sys
import tempfile
from dataclasses import replace
from pathlib import Path
from unittest import mock

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = ROOT / "tests" / "golden"
VERSIONS = "versions.txt"

COMPARED = ("summary.json", "epochs.csv", "grid_summary.csv")

# (output name, CLI arguments after the config path, benchmark workload whose
# config the run starts from, seed, replaced config lines)
RUNS = (
    ("uda", ("run",), "uda_default", 0, {}),
    ("pda", ("run",), "uda_default", 0, {"mode": "pda"}),
    ("pda_partial_set", ("run",), "uda_default", 0,
     {"mode": "pda", "generator.target_class_count": "2", "generator.noise_scale": "0.45",
      "train.pda_threshold": "10"}),
    ("fig1", ("run",), "uda_default", 0, {"mode": "fig1"}),
    ("uda_zero_amplitudes", ("run",), "uda_default", 0,
     {"schedule.lambda2_a": "0.0", "schedule.lambda3_a": "0.0"}),
    ("uda_diverged", ("run",), "uda_default", 0, {"schedule.eta0": "1e300"}),
    ("uda_off_defaults", ("run",), "uda_default", 0,
     {"generator.translation": "0.5,0.5,0.5,0.5,0.5,0.5",
      "generator.target_class_count": "3", "train.cgi_updates_backbone": "true"}),
    *((f"uda_large_batch_seed{seed}", ("run",), "uda_large_batch", seed, {})
      for seed in (0, 1, 2)),
    *((f"grid_{axis}", ("grid", "--axis", axis), "uda_default", 0, {})
      for axis in ("components", "beta_variant", "penalty_variant", "pda_threshold")),
    ("grid_components_off_defaults", ("grid", "--axis", "components"), "uda_default", 0,
     {"schedule.lambda2_a": "0.5", "schedule.lambda3_a": "0.125",
      "train.cgi_updates_backbone": "true"}),
)
NAMES = tuple(name for name, *_ in RUNS)

# The runs of RUNS that Tier-1 checks: one of each mode, the partial-set
# mask, zero amplitudes, divergence and the components grid.
GOLDEN_RUNS = ("uda", "pda", "pda_partial_set", "fig1", "uda_zero_amplitudes", "uda_diverged",
               "grid_components")


def load_workloads():
    """``perfbench/workloads.py``, which builds each workload's config from
    ``configs/example.cfg``."""
    spec = importlib.util.spec_from_file_location(
        "workloads", ROOT / "perfbench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    # its dataclass looks its own module up by name
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


def config_text(workloads, workload: str, seed: int, overrides: dict, name: str) -> str:
    """A run's config: the workload's, with ``overrides`` and ``outputs = name``."""
    base = workloads.WORKLOADS[workload]
    return workloads.config_text(replace(base, overrides={
        **base.overrides, **overrides, "outputs": name}), seed)


def run_pipelines(root: Path, names=NAMES) -> None:
    """Run the pipelines of :data:`RUNS` named in ``names`` in this process
    into ``root``, as ``probadapt.cli`` would with ``PROBADAPT_OUTPUT_ROOT``
    set to ``root``. The diverged run overflows on purpose and reports it in
    its summary, so numpy's overflow and invalid-value warnings are off."""
    from probadapt import runner
    from probadapt.config import parse_config

    workloads = load_workloads()
    with (mock.patch.dict(os.environ, {runner.OUTPUT_ROOT_ENV: str(root)}),
          np.errstate(over="ignore", invalid="ignore")):
        for name, args, workload, seed, overrides in RUNS:
            if name in names:
                cfg = parse_config(config_text(workloads, workload, seed, overrides, name))
                if args[0] == "run":
                    runner.run_experiment(cfg)
                else:
                    runner.run_grid(cfg, args[args.index("--axis") + 1])


def versions() -> str:
    return f"Python {platform.python_version()}, numpy {np.__version__}"


def version_note() -> str:
    """The versions the golden tree was written with, beside this process's."""
    written = (GOLDEN / VERSIONS).read_text(encoding="utf-8").strip()
    return f"golden tree written with {written}; this run has {versions()}"


def outputs(root: Path, names=NAMES) -> set[Path]:
    """The report files under ``root`` of the runs named in ``names``."""
    found = {path.relative_to(root) for path in root.rglob("*")
             if path.is_file() and path.name in COMPARED}
    return {path for path in found if path.parts[0] in names}


def differences(path: Path, golden: bytes, found: bytes) -> str:
    """The differing keys of a ``summary.json``, else the differing 1-based lines."""
    if path.name == "summary.json":
        a, b = json.loads(golden), json.loads(found)
        keys = sorted(k for k in a.keys() | b.keys() if k not in a or k not in b or a[k] != b[k])
        if keys:
            return "keys " + ", ".join(keys)
    a, b = golden.decode().splitlines(), found.decode().splitlines()
    lines = [n + 1 for n in range(max(len(a), len(b)))
             if n >= len(a) or n >= len(b) or a[n] != b[n]]
    return "lines " + ", ".join(map(str, lines))


def compare(golden_root: Path, run_root: Path, names=NAMES) -> tuple[list[str], bool]:
    """One line per differing or one-sided report file of the runs named in
    ``names`` plus a count, and whether every file is present on both sides
    with the same bytes."""
    golden_files, run_files = outputs(golden_root, names), outputs(run_root, names)
    lines = []
    for path in sorted(golden_files | run_files):
        if path not in run_files:
            lines.append(f"{path}: missing from the run")
        elif path not in golden_files:
            lines.append(f"{path}: not in the golden tree")
        else:
            a, b = (golden_root / path).read_bytes(), (run_root / path).read_bytes()
            if a != b:
                lines.append(f"{path}: {differences(path, a, b)}")
    total = len(golden_files | run_files)
    lines.append(f"{total - len(lines)} of {total} files identical")
    return lines, len(lines) == 1


def write_golden(run_root: Path) -> int:
    """Replace :data:`GOLDEN` with the report files under ``run_root`` and this
    process's versions; the number of report files written."""
    shutil.rmtree(GOLDEN, ignore_errors=True)
    files = sorted(outputs(run_root))
    for path in files:
        (GOLDEN / path).parent.mkdir(parents=True, exist_ok=True)
        shutil.copyfile(run_root / path, GOLDEN / path)
    (GOLDEN / VERSIONS).write_text(versions() + "\n", encoding="utf-8")
    return len(files)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--write-golden", action="store_true",
                        help="write tests/golden/ from these runs instead")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory() as tmp:
        run_pipelines(Path(tmp))
        if args.write_golden:
            print(f"wrote {write_golden(Path(tmp))} report files to {GOLDEN}")
            return 0
        lines, identical = compare(GOLDEN, Path(tmp))
    if not identical:
        lines.append(version_note())
    print("\n".join(lines))
    return 0 if identical else 1


if __name__ == "__main__":
    sys.path.insert(0, str(ROOT / "src"))
    sys.exit(main())
