import json
import math
from pathlib import Path

import numpy as np
import pytest

from probadapt import model, runner
from probadapt.cli import EXIT_CONFIG, EXIT_DIVERGED, EXIT_OK, main
from probadapt.config import parse_config
from probadapt.errors import MissingClassError
from probadapt.model import init_params
from probadapt.trainer import TrainReport
from probadapt.runner import (EPOCHS_HEADER, read_epochs_csv, read_grid_summary,
                              read_summary, run_experiment, run_grid, summary_metrics)

FAST = """
generator.input_dim = 4
generator.pretrain_classes = 6
generator.task_classes = 3
generator.samples_per_class = 12
generator.noise_scale = 0.3
generator.rotation = 0.5235987755982988
train.epochs = 2
train.batch_size = 8
pretrain.epochs = 4
seed = 1
"""


def fast_cfg(extra="", tmp_path=None, name="out"):
    cfg = parse_config(FAST + extra)
    if tmp_path is not None:
        cfg.outputs = str(tmp_path / name)
    return cfg


def test_uda_run_writes_reparseable_files(tmp_path):
    rec = run_experiment(fast_cfg(tmp_path=tmp_path))
    assert rec.status == "complete"
    rows = read_epochs_csv(rec.out_dir / "epochs.csv")
    assert len(rows) == 2
    assert list(rows[0].keys()) == EPOCHS_HEADER.split(",")
    summary = read_summary(rec.out_dir / "summary.json")
    assert summary["status"] == "complete"
    assert summary == rec.summary


def test_csv_header_frozen(tmp_path):
    rec = run_experiment(fast_cfg(tmp_path=tmp_path))
    first = (rec.out_dir / "epochs.csv").read_text().splitlines()[0]
    assert first == "epoch,target_acc,l_cls,l_cpa,l_cgi,lambda2,lambda3,eta"


def test_rerun_byte_identical(tmp_path):
    cfg = fast_cfg(tmp_path=tmp_path)
    a = run_experiment(cfg)
    csv_first = (a.out_dir / "epochs.csv").read_bytes()
    summary_first = (a.out_dir / "summary.json").read_bytes()
    b = run_experiment(fast_cfg(tmp_path=tmp_path))
    assert (b.out_dir / "epochs.csv").read_bytes() == csv_first
    assert (b.out_dir / "summary.json").read_bytes() == summary_first


def test_baseline_equals_uda_with_zero_lambdas(tmp_path):
    base = fast_cfg("mode = baseline\n", tmp_path=tmp_path, name="base")
    uda0 = fast_cfg("schedule.lambda2_a = 0.0\nschedule.lambda3_a = 0.0\n",
                    tmp_path=tmp_path, name="uda0")
    ra = run_experiment(base)
    rb = run_experiment(uda0)
    assert (ra.out_dir / "epochs.csv").read_bytes() == (rb.out_dir / "epochs.csv").read_bytes()
    assert summary_metrics(ra.summary) == summary_metrics(rb.summary)


def test_pda_threshold_zero_matches_uda_files(tmp_path):
    uda = run_experiment(fast_cfg(tmp_path=tmp_path, name="uda"))
    pda = run_experiment(fast_cfg("mode = pda\ntrain.pda_threshold = 0\n",
                                  tmp_path=tmp_path, name="pda"))
    assert (uda.out_dir / "epochs.csv").read_bytes() == (pda.out_dir / "epochs.csv").read_bytes()
    assert summary_metrics(uda.summary) == summary_metrics(pda.summary)


def test_fig1_mode_emits_distances(tmp_path):
    rec = run_experiment(fast_cfg("mode = fig1\n", tmp_path=tmp_path))
    assert rec.status == "complete"
    summary = read_summary(rec.out_dir / "summary.json")
    assert "feature_distance" in summary and "probability_distance" in summary
    assert isinstance(summary["probability_distance_smaller"], bool)
    assert (rec.out_dir / "epochs.csv").read_text().splitlines() == [EPOCHS_HEADER]


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_divergence_marks_incomplete(tmp_path):
    rec = run_experiment(fast_cfg("schedule.eta0 = 1e300\n", tmp_path=tmp_path))
    assert rec.status == "incomplete"
    summary = read_summary(rec.out_dir / "summary.json")
    assert summary["status"] == "incomplete"
    assert "error" in summary


def test_grid_beta_axis_four_points(tmp_path):
    records = run_grid(fast_cfg(tmp_path=tmp_path), "beta_variant")
    names = [r.summary["grid_point"] for r in records]
    assert names == ["constant_half", "exp_neg_entropy", "max_prob", "exp_neg_kl"]
    assert all(r.status == "complete" for r in records)


def test_grid_penalty_axis_five_points(tmp_path):
    records = run_grid(fast_cfg(tmp_path=tmp_path), "penalty_variant")
    names = [r.summary["grid_point"] for r in records]
    assert names == ["GE", "CGE", "GI", "CGI_noreg", "CGI"]


def test_grid_components_six_rows(tmp_path):
    cfg = fast_cfg("mode = ablation_components\n", tmp_path=tmp_path)
    rec = run_experiment(cfg)
    assert len(rec.summary["points"]) == 6
    grid_csv = (rec.out_dir / "components" / "grid_summary.csv").read_text().splitlines()
    assert grid_csv[0] == "point,status,final_target_accuracy"
    assert len(grid_csv) == 7


def test_components_grid_pretrains_once_and_writes_the_same_files(tmp_path, monkeypatch):
    monkeypatch.setattr(model, "_pretrain_memo", None)
    trainings = []

    def counting_init(*args, **kwargs):
        trainings.append(args)
        return init_params(*args, **kwargs)

    monkeypatch.setattr(model, "init_params", counting_init)

    def grid_files():
        # both grids write to the same place, so their config hashes agree
        records = run_grid(fast_cfg(tmp_path=tmp_path), "components")
        assert len(records) == 6
        files = {path: path.read_bytes() for path in sorted((tmp_path / "out").rglob("*"))
                 if path.is_file()}
        assert len(files) == 1 + 2 * 6
        return [r.status for r in records], files

    shared = grid_files()
    assert len(trainings) == 1

    def pretrain_from_scratch(*args, **kwargs):
        model._pretrain_memo = None
        return model.pretrain(*args, **kwargs)

    monkeypatch.setattr(runner, "pretrain", pretrain_from_scratch)
    fresh = grid_files()
    assert len(trainings) == 1 + 6
    assert shared == fresh


def test_grid_pda_threshold_sweep(tmp_path):
    records = run_grid(fast_cfg(tmp_path=tmp_path), "pda_threshold")
    names = [r.summary["grid_point"] for r in records]
    assert names == ["t0", "t1", "t2", "t5", "t10", "t14", "t20", "t30"]
    assert all(r.mode == "pda" for r in records)


def test_grid_summary_reparseable(tmp_path):
    cfg = fast_cfg(tmp_path=tmp_path)
    run_grid(cfg, "beta_variant")
    rows = read_grid_summary(tmp_path / "out" / "beta_variant" / "grid_summary.csv")
    assert [r["point"] for r in rows] == ["constant_half", "exp_neg_entropy", "max_prob", "exp_neg_kl"]
    assert all(isinstance(r["final_target_accuracy"], float) for r in rows)


def test_grid_shares_seed_and_data(tmp_path):
    records = run_grid(fast_cfg(tmp_path=tmp_path), "beta_variant")
    assert len({r.seed for r in records}) == 1


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_grid_continues_past_failures(tmp_path):
    records = run_grid(fast_cfg("schedule.eta0 = 1e300\n", tmp_path=tmp_path),
                       "beta_variant")
    assert all(r.status in ("incomplete", "failed") for r in records)
    assert len(records) == 4


def test_grid_marks_package_errors_failed_and_propagates_others(tmp_path, monkeypatch):
    def raising(exc):
        def run(cfg, out_dir=None):
            raise exc
        return run

    monkeypatch.setattr(runner, "run_experiment", raising(MissingClassError("no class 2")))
    records = run_grid(fast_cfg(tmp_path=tmp_path), "beta_variant")
    assert [r.status for r in records] == ["failed"] * 4
    assert records[0].summary["error"] == "no class 2"

    monkeypatch.setattr(runner, "run_experiment", raising(TypeError("bad argument")))
    with pytest.raises(TypeError, match="bad argument"):
        run_grid(fast_cfg(tmp_path=tmp_path), "beta_variant")


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_cli_run_and_exit_codes(tmp_path, capsys):
    cfg_path = tmp_path / "exp.cfg"
    cfg_path.write_text(FAST + f"outputs = {tmp_path / 'cli_run'}\n")
    assert main(["run", str(cfg_path)]) == EXIT_OK
    assert (tmp_path / "cli_run" / "summary.json").exists()

    bad = tmp_path / "bad.cfg"
    bad.write_text("train.epochs = banana\n")
    assert main(["run", str(bad)]) == EXIT_CONFIG

    assert main(["run", str(tmp_path / "missing.cfg")]) == EXIT_CONFIG

    div = tmp_path / "div.cfg"
    div.write_text(FAST + f"outputs = {tmp_path / 'cli_div'}\nschedule.eta0 = 1e300\n")
    assert main(["run", str(div)]) == EXIT_DIVERGED


EXAMPLE_CFG = Path(__file__).resolve().parents[1] / "configs" / "example.cfg"


def test_collapsed_batch_128_run_reports_collapsed(tmp_path):
    # The example config at batch 128 ends with every target prediction in
    # one class (0.25 accuracy, chance for four classes).
    text = EXAMPLE_CFG.read_text()
    assert "train.batch_size = 16\n" in text and "outputs = runs/example\n" in text
    text = text.replace("train.batch_size = 16\n", "train.batch_size = 128\n").replace(
        "outputs = runs/example\n", f"outputs = {tmp_path / 'b128'}\n")
    cfg_path = tmp_path / "b128.cfg"
    cfg_path.write_text(text)
    assert main(["run", str(cfg_path)]) == EXIT_DIVERGED
    summary = read_summary(tmp_path / "b128" / "summary.json")
    assert summary["status"] == "collapsed"
    assert summary["final_target_accuracy"] == 0.25
    rec = run_experiment(parse_config(text))
    assert rec.status == "collapsed"
    assert sorted(rec.report.final_prediction_counts) == [0, 0, 0, 200]
    assert rec.report.final_admissible_classes == 4


def test_collapse_needs_two_admissible_classes():
    one_class = TrainReport(final_prediction_counts=(0, 9, 0), final_admissible_classes=3)
    assert runner.collapsed(fast_cfg(), one_class)
    spread = TrainReport(final_prediction_counts=(4, 5, 0), final_admissible_classes=3)
    assert not runner.collapsed(fast_cfg(), spread)
    # a partial-set mask keeping one class, or a one-class target
    masked = TrainReport(final_prediction_counts=(0, 9, 0), final_admissible_classes=1)
    assert not runner.collapsed(fast_cfg(), masked)
    assert not runner.collapsed(fast_cfg("generator.target_class_count = 1\n"), one_class)


def test_cli_fig1_subcommand(tmp_path):
    cfg_path = tmp_path / "exp.cfg"
    cfg_path.write_text(FAST + f"outputs = {tmp_path / 'cli_fig1'}\n")
    assert main(["fig1", str(cfg_path)]) == EXIT_OK
    summary = read_summary(tmp_path / "cli_fig1" / "summary.json")
    assert summary["mode"] == "fig1"


def test_cli_grid_subcommand(tmp_path):
    cfg_path = tmp_path / "exp.cfg"
    cfg_path.write_text(FAST + f"outputs = {tmp_path / 'cli_grid'}\n")
    assert main(["grid", str(cfg_path), "--axis", "beta_variant"]) == EXIT_OK
    assert (tmp_path / "cli_grid" / "beta_variant" / "grid_summary.csv").exists()


def test_cli_selftest():
    assert main(["selftest"]) == EXIT_OK


def test_output_root_env_override(tmp_path, monkeypatch):
    monkeypatch.setenv("PROBADAPT_OUTPUT_ROOT", str(tmp_path))
    cfg = parse_config(FAST + "outputs = nested/run\n")
    rec = run_experiment(cfg)
    assert rec.out_dir == tmp_path / "nested" / "run"
    assert (tmp_path / "nested" / "run" / "summary.json").exists()
