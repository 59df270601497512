"""Readers for the report files a run writes (``epochs.csv``, ``summary.json``,
``grid_summary.csv``).

The package only writes these files; the tests read them back.
"""

import json
from pathlib import Path

from probadapt.runner import EPOCHS_HEADER, GRID_SUMMARY_HEADER


def read_epochs_csv(path) -> list[dict]:
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    assert lines and lines[0] == EPOCHS_HEADER, f"unexpected epochs.csv header in {path}"
    cols = lines[0].split(",")
    # an empty field is a term the run never computed
    return [{k: (None if v == "" else int(v) if k == "epoch" else float(v))
             for k, v in zip(cols, ln.split(","))} for ln in lines[1:]]


def read_grid_summary(path) -> list[dict]:
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    assert lines and lines[0] == GRID_SUMMARY_HEADER, f"unexpected grid summary header in {path}"
    rows = [ln.split(",") for ln in lines[1:]]
    return [{"point": point, "status": status, "final_target_accuracy": float(acc) if acc else None}
            for point, status, acc in rows]


def read_summary(path) -> dict:
    return json.loads(Path(path).read_text(encoding="utf-8"))


def summary_metrics(summary: dict) -> dict:
    """Summary minus run-identity fields; used to compare runs across modes."""
    drop = {"mode", "config_hash", "pda_threshold"}
    return {k: v for k, v in summary.items() if k not in drop}
