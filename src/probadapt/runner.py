"""Experiment pipelines: single runs, ablation grids, and report files.

Every run writes two files into its output directory:

* ``epochs.csv`` with the frozen header
  ``epoch,target_acc,l_cls,l_cpa,l_cgi,lambda2,lambda3,eta``; an ``l_cpa``
  or ``l_cgi`` field is empty when the term's amplitude is zero, since the
  run never computed it
* ``summary.json`` with deterministic fields only, so reruns are
  byte-identical; its ``status`` is ``complete``, ``collapsed`` or
  ``incomplete`` (training diverged, or a pda run's partial-set mask kept no
  class)

Files are written atomically (temp file then rename). The environment
variable ``PROBADAPT_OUTPUT_ROOT`` reroots relative output paths.
"""

from __future__ import annotations

import json
import os
from dataclasses import astuple, dataclass, replace
from pathlib import Path

from .config import ExperimentConfig, config_hash, parse_value
from .data import make_pretrain_task, make_uda_pair
from .errors import (ConfigError, ContractViolationError, EmptyPartialSetError, ProbadaptError,
                     TrainingDivergedError)
from .losses import BETA_VARIANTS, PENALTY_VARIANTS
from .model import fig1_analog, heldout_accuracy, pretrain
from .trainer import EpochRecord, TrainReport, train

OUTPUT_ROOT_ENV = "PROBADAPT_OUTPUT_ROOT"

EPOCHS_HEADER = ",".join(EpochRecord.__dataclass_fields__)
GRID_SUMMARY_HEADER = "point,status,final_target_accuracy"

# axis -> its points in run order, each a name and the document keys it sets,
# as value text; the components points turn off the terms they lack.
GRID_AXES = {
    "beta_variant": tuple((v, {"train.beta_variant": v}) for v in BETA_VARIANTS),
    "penalty_variant": tuple((v, {"train.penalty_variant": v}) for v in PENALTY_VARIANTS),
    "components": (
        ("cls_only", {"schedule.lambda2_a": "0", "schedule.lambda3_a": "0",
                      "train.cgi_updates_backbone": "false"}),
        ("cls_cpa", {"schedule.lambda3_a": "0", "train.cgi_updates_backbone": "false"}),
        ("cls_cgi_backbone", {"schedule.lambda2_a": "0", "train.cgi_updates_backbone": "true"}),
        ("cls_cpa_cgi_backbone", {"train.cgi_updates_backbone": "true"}),
        ("cls_cgi_head", {"schedule.lambda2_a": "0", "train.cgi_updates_backbone": "false"}),
        ("cls_cpa_cgi_head", {"train.cgi_updates_backbone": "false"}),
    ),
    "pda_threshold": tuple((f"t{t}", {"mode": "pda", "train.pda_threshold": str(t)})
                           for t in (0, 1, 2, 5, 10, 14, 20, 30)),
}


@dataclass
class RunRecord:
    """Where a run wrote its files, its summary (which holds its ``status``,
    ``mode``, ``seed`` and ``config_hash``), and the report whose rows
    ``epochs.csv`` holds: empty for a ``fig1`` or incomplete run, None for a
    failed grid point."""

    out_dir: Path
    summary: dict
    report: TrainReport | None


def resolve_out_dir(cfg: ExperimentConfig, *extra: str) -> Path:
    out = Path(cfg.outputs)
    root = os.environ.get(OUTPUT_ROOT_ENV)
    if root and not out.is_absolute():
        out = Path(root) / out
    return out.joinpath(*extra)


def _atomic_write(path: Path, text: str) -> None:
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(text, encoding="utf-8")
    os.replace(tmp, path)


def write_epochs_csv(path: Path, report: TrainReport) -> None:
    lines = [EPOCHS_HEADER, *(",".join("" if v is None else repr(v) for v in astuple(r))
                              for r in report.epochs)]
    _atomic_write(path, "\n".join(lines) + "\n")


def write_summary(path: Path, summary: dict) -> None:
    _atomic_write(path, json.dumps(summary, sort_keys=True, indent=2) + "\n")


def _pretrained_model(cfg: ExperimentConfig):
    task = make_pretrain_task(cfg)
    params = pretrain(task, cfg.task_classes, cfg.pretrain_epochs, cfg.pretrain_lr,
                      cfg.seed, batch_size=cfg.batch_size,
                      momentum=cfg.momentum, weight_decay=cfg.weight_decay)
    return params, heldout_accuracy(params, task)


def collapsed(cfg: ExperimentConfig, report: TrainReport) -> bool:
    """True when every final target prediction falls in one class although
    two or more classes are admissible.

    Admissible means the target is not generated with a single class and the
    final partial-set mask, if any, keeps at least two classes. Reads the
    task head's predictions only, never the sealed evaluation labels.
    """
    return (cfg.target_class_count != 1 and report.final_admissible_classes >= 2
            and sum(n > 0 for n in report.final_prediction_counts) == 1)


def _summary(cfg: ExperimentConfig, status: str, **fields) -> dict:
    """A run's summary: the ``status``/``mode``/``seed``/``config_hash`` head
    every run shares, then ``fields``."""
    return {"status": status, "mode": cfg.mode, "seed": cfg.seed,
            "config_hash": config_hash(cfg), **fields}


def run_experiment(cfg: ExperimentConfig, out_dir: Path | None = None) -> RunRecord:
    """Execute one mode pipeline and write its report files.

    The pipeline is pretrain, the domain pair, adaptation (skipped in
    ``fig1`` mode), then the domain-gap probe of the final parameters: the
    pretrained model in ``fig1`` mode, the adapted one otherwise.
    Divergence, or a partial-set mask that keeps no class, produces a record
    with status "incomplete" instead of raising, and a run whose final target
    predictions all fall in one class (see :func:`collapsed`) has status
    "collapsed"; config errors raise before anything is written.
    """
    out = resolve_out_dir(cfg) if out_dir is None else out_dir
    out.mkdir(parents=True, exist_ok=True)
    report = TrainReport()
    try:
        params, pretrain_acc = _pretrained_model(cfg)
        pair = make_uda_pair(cfg)
        fields = {"pretrain_heldout_accuracy": pretrain_acc}
        if cfg.mode != "fig1":
            report, params = train(params, pair, cfg)
            fields.update(epochs_completed=len(report.epochs),
                          final_target_accuracy=report.final_target_accuracy)
            if cfg.mode == "pda":
                fields["pda_threshold"] = cfg.pda_threshold
        fields.update(fig1_analog(params, pair.source, pair.target, cfg.seed))
        fields["probability_distance_smaller"] = (
            fields["probability_distance"] < fields["feature_distance"])
        # an empty report (fig1 mode) never counts as collapsed
        summary = _summary(cfg, "collapsed" if collapsed(cfg, report) else "complete", **fields)
    except (TrainingDivergedError, EmptyPartialSetError) as exc:
        summary = _summary(cfg, "incomplete", error=str(exc))

    write_epochs_csv(out / "epochs.csv", report)
    write_summary(out / "summary.json", summary)
    return RunRecord(out, summary, report)


def _grid_points(cfg: ExperimentConfig, axis: str):
    """(name, config) pairs for one ablation axis: the base config with a point's
    keys parsed and validated as document lines would be; all share the base seed."""
    for name, overlay in GRID_AXES[axis]:
        yield name, replace(cfg, **dict(parse_value(key, text) for key, text in overlay.items()))


def run_grid(cfg: ExperimentConfig, axis: str) -> list[RunRecord]:
    """One run per grid point under ``<outputs>/<axis>/<point>/``.

    The base config's mode must be ``uda`` or a mode the axis's points set,
    since a point that sets no mode runs in the base's; any other base mode
    raises ConfigError before a point runs instead of being silently
    overridden. Every point is built before the first runs, so a point the
    config refuses (a threshold above the target's sample count) raises its
    ConfigError before anything is written.
    A point that raises one of the package's errors is recorded as failed and
    the grid continues; any other exception is a programming error and
    propagates. Writes an aggregated ``grid_summary.csv`` next to the
    per-point directories.
    """
    modes = {"uda", *(overlay["mode"] for _, overlay in GRID_AXES[axis] if "mode" in overlay)}
    if cfg.mode not in modes:
        raise ConfigError(f"key 'mode': a grid on {axis!r} runs from mode "
                          f"{' or '.join(sorted(modes))}, not {cfg.mode!r}")
    records = []
    base = resolve_out_dir(cfg, axis)
    for name, point_cfg in list(_grid_points(cfg, axis)):
        out = base / name
        try:
            rec = run_experiment(point_cfg, out_dir=out)
        except ProbadaptError as exc:
            rec = RunRecord(out, _summary(point_cfg, "failed", error=str(exc)), None)
        rec.summary["grid_point"] = name
        records.append(rec)
    lines = [GRID_SUMMARY_HEADER]
    for rec in records:
        acc = rec.summary.get("final_target_accuracy", "")
        lines.append(f"{rec.summary['grid_point']},{rec.summary['status']},"
                     f"{repr(acc) if acc != '' else ''}")
    base.mkdir(parents=True, exist_ok=True)
    _atomic_write(base / "grid_summary.csv", "\n".join(lines) + "\n")
    return records


def read_grid_summary(path: Path) -> list[dict]:
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    if not lines or lines[0] != GRID_SUMMARY_HEADER:
        raise ContractViolationError(f"unexpected grid summary header in {path}")
    rows = []
    for lineno, ln in enumerate(lines[1:], start=2):
        try:
            point, status, acc = ln.split(",")
            rows.append({"point": point, "status": status,
                         "final_target_accuracy": float(acc) if acc else None})
        except ValueError as exc:
            raise ContractViolationError(
                f"malformed grid summary row in {path} line {lineno}: {ln!r} ({exc})") from None
    return rows
