"""Command line front end.

Subcommands:
  run <config>             execute the config's mode pipeline
  grid <config> --axis A   one run per point (config-key overlay) of a runner.GRID_AXES axis

Each run prints one line: its status, mode, seed and output directory, its
final target accuracy when it has one, and its error when it did not complete.

Exit codes: 0 success, 2 configuration error, 3 a run that diverged or whose
partial-set mask kept no class (status "incomplete") or that collapsed onto
one class (status "collapsed"), or a grid point that failed with one of the
package's errors (status "failed"). Any other error inside a run is a
programming error and propagates.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .config import parse_config
from .errors import ConfigError
from .runner import GRID_AXES, run_experiment, run_grid

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DIVERGED = 3


def _load_config(path: str):
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config {path!r}: {exc}") from exc
    return parse_config(text)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="probadapt",
                                     description="probability-space domain adaptation runner")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run the experiment described by a config file")
    p_run.add_argument("config")

    p_grid = sub.add_parser("grid", help="run an ablation grid from a base config")
    p_grid.add_argument("config")
    p_grid.add_argument("--axis", required=True, choices=GRID_AXES)

    args = parser.parse_args(argv)

    try:
        cfg = _load_config(args.config)
        records = ([run_experiment(cfg)] if args.command == "run"
                   else run_grid(cfg, args.axis))
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    worst = EXIT_OK
    for rec in records:
        s = rec.summary
        line = f"[{s['status']}] mode={s['mode']} seed={s['seed']} out={rec.out_dir}"
        if "final_target_accuracy" in s:
            line += f" target_acc={s['final_target_accuracy']:.4f}"
        if "error" in s:
            line += f" error={s['error']}"
        print(line)
        if s["status"] != "complete":
            worst = EXIT_DIVERGED
    return worst


if __name__ == "__main__":
    raise SystemExit(main())
