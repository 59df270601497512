"""Compare the run outputs of two source checkouts, or pin this checkout's.

    python3 tools/output_diff.py PARENT_DIR CHANGE_DIR
    python3 tools/output_diff.py --write-golden

Runs a fixed set of 39 pipelines (each grid point counts as one) through
``probadapt.cli`` in each checkout, with that checkout's ``src`` first on
``PYTHONPATH`` and ``PROBADAPT_OUTPUT_ROOT`` set to a temporary directory.
Each run's config is a benchmark workload's config, built by the checkout's
own ``perfbench/workloads.py`` from its ``configs/example.cfg``, with a few
lines replaced:

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
``grid_summary.csv``, 83 files, byte for byte. For each file that differs it names the
differing ``summary.json`` keys or the differing CSV line numbers. The exit
status is 1 if any file differs or exists on one side only. That comparison
uses the standard library only.

``--write-golden`` runs the :data:`GOLDEN_RUNS` subset of these pipelines in
this process, from this checkout's ``src``, and writes the sha256 of each of
their report files, every ``summary.json`` in full, and the Python and numpy
versions to ``tests/golden_outputs.json``, which ``tests/test_golden_outputs.py``
checks in Tier-1. Regenerate it only in a change that moves outputs on
purpose, and list the moved files.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.util
import json
import os
import platform
import subprocess
import sys
import tempfile
from dataclasses import replace
from pathlib import Path
from unittest import mock

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = ROOT / "tests" / "golden_outputs.json"

SIDES = ("parent", "change")

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

# The runs of RUNS whose report files GOLDEN pins: one of each mode, the
# partial-set mask, zero amplitudes, divergence and the components grid.
GOLDEN_RUNS = ("uda", "pda", "pda_partial_set", "fig1", "uda_zero_amplitudes", "uda_diverged",
               "grid_components")


def load_workloads(checkout: Path):
    """The checkout's ``perfbench/workloads.py``, which builds each workload's
    config from the checkout's ``configs/example.cfg``."""
    spec = importlib.util.spec_from_file_location(
        "workloads", checkout / "perfbench" / "workloads.py")
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


def run_all(checkout: Path, root: Path) -> list[str]:
    """Run every pipeline of :data:`RUNS` from ``checkout`` into ``root``; one line
    per run that exited neither 0 nor 3 (a run reported as not complete)."""
    workloads = load_workloads(checkout)
    env = dict(os.environ, PROBADAPT_OUTPUT_ROOT=str(root),
               PYTHONPATH=os.pathsep.join(filter(None, [str(checkout.resolve() / "src"),
                                                        os.environ.get("PYTHONPATH")])))
    root.mkdir(parents=True)
    problems = []
    for name, args, workload, seed, overrides in RUNS:
        cfg = root / f"{name}.cfg"
        cfg.write_text(config_text(workloads, workload, seed, overrides, name), encoding="utf-8")
        proc = subprocess.run([sys.executable, "-m", "probadapt.cli", args[0], str(cfg),
                               *args[1:]], cwd=root, env=env, capture_output=True, text=True)
        if proc.returncode not in (0, 3):
            error = (proc.stderr.strip().splitlines() or ["no error output"])[-1]
            problems.append(f"{name} exited {proc.returncode}: {error}")
    return problems


def run_golden(root: Path) -> None:
    """Run the :data:`GOLDEN_RUNS` pipelines in this process into ``root``, as
    ``probadapt.cli`` would with ``PROBADAPT_OUTPUT_ROOT`` set to ``root``."""
    from probadapt import runner
    from probadapt.config import parse_config

    workloads = load_workloads(ROOT)
    with mock.patch.dict(os.environ, {runner.OUTPUT_ROOT_ENV: str(root)}):
        for name, args, workload, seed, overrides in RUNS:
            if name in GOLDEN_RUNS:
                cfg = parse_config(config_text(workloads, workload, seed, overrides, name))
                if args[0] == "run":
                    runner.run_experiment(cfg)
                else:
                    runner.run_grid(cfg, args[args.index("--axis") + 1])


def golden_record(root: Path) -> dict:
    """The Python and numpy versions, the sha256 of every report file under
    ``root`` and every ``summary.json`` in full, keyed by relative path."""
    import numpy

    files = sorted(outputs(root))
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "files": {path.as_posix(): hashlib.sha256((root / path).read_bytes()).hexdigest()
                  for path in files},
        "summaries": {path.as_posix(): json.loads((root / path).read_bytes())
                      for path in files if path.name == "summary.json"},
    }


def golden_mismatches(golden: dict, root: Path) -> list[str]:
    """One line per report file under ``root`` whose sha256 differs from
    ``golden``'s or that exists on one side only, naming a ``summary.json``'s
    differing keys; empty when every file matches."""
    found = golden_record(root)["files"]
    lines = []
    for path in sorted(golden["files"].keys() | found.keys()):
        if path not in found:
            lines.append(f"{path}: missing from the run")
        elif path not in golden["files"]:
            lines.append(f"{path}: not in the golden record")
        elif found[path] != golden["files"][path]:
            detail = "sha256 differs"
            if path in golden["summaries"]:
                pinned = json.dumps(golden["summaries"][path], sort_keys=True, indent=2) + "\n"
                detail = differences(Path(path), pinned.encode(), (root / path).read_bytes())
            lines.append(f"{path}: {detail}")
    return lines


def outputs(root: Path) -> set[Path]:
    return {path.relative_to(root) for path in root.rglob("*")
            if path.is_file() and path.name in COMPARED}


def differences(path: Path, parent: bytes, change: bytes) -> str:
    """The differing keys of a ``summary.json``, else the differing 1-based lines."""
    if path.name == "summary.json":
        a, b = json.loads(parent), json.loads(change)
        keys = sorted(k for k in a.keys() | b.keys() if k not in a or k not in b or a[k] != b[k])
        if keys:
            return "keys " + ", ".join(keys)
    a, b = parent.decode().splitlines(), change.decode().splitlines()
    lines = [n + 1 for n in range(max(len(a), len(b)))
             if n >= len(a) or n >= len(b) or a[n] != b[n]]
    return "lines " + ", ".join(map(str, lines))


def compare(parent_root: Path, change_root: Path) -> tuple[list[str], bool]:
    """One line per differing or one-sided file plus a count, and whether every
    file is present on both sides with the same bytes."""
    parent_files, change_files = outputs(parent_root), outputs(change_root)
    lines = []
    for path in sorted(parent_files | change_files):
        if path not in change_files:
            lines.append(f"{path}: missing in change")
        elif path not in parent_files:
            lines.append(f"{path}: missing in parent")
        else:
            a, b = (parent_root / path).read_bytes(), (change_root / path).read_bytes()
            if a != b:
                lines.append(f"{path}: {differences(path, a, b)}")
    total = len(parent_files | change_files)
    lines.append(f"{total - len(lines)} of {total} files identical")
    return lines, len(lines) == 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path, nargs="?")
    parser.add_argument("change", type=Path, nargs="?")
    parser.add_argument("--write-golden", action="store_true",
                        help=f"write {GOLDEN.relative_to(ROOT)} from this checkout instead")
    args = parser.parse_args(argv)
    if args.write_golden:
        if args.parent or args.change:
            parser.error("--write-golden takes no checkouts")
        sys.path.insert(0, str(ROOT / "src"))
        with tempfile.TemporaryDirectory() as tmp:
            run_golden(Path(tmp))
            record = golden_record(Path(tmp))
        GOLDEN.write_text(json.dumps(record, sort_keys=True, indent=2) + "\n", encoding="utf-8")
        print(f"wrote {len(record['files'])} digests to {GOLDEN}")
        return 0
    if args.change is None:
        parser.error("give PARENT_DIR and CHANGE_DIR, or --write-golden")
    for checkout in (args.parent, args.change):
        if not (checkout / "perfbench" / "workloads.py").is_file():
            parser.error(f"{checkout} holds no perfbench/workloads.py")
    with tempfile.TemporaryDirectory() as tmp:
        roots = {side: Path(tmp) / side for side in SIDES}
        for side, checkout in zip(SIDES, (args.parent, args.change)):
            for problem in run_all(checkout, roots[side]):
                print(f"{side}: {problem}")
        lines, identical = compare(roots["parent"], roots["change"])
    print("\n".join(lines))
    return 0 if identical else 1


if __name__ == "__main__":
    sys.exit(main())
