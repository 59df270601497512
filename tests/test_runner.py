import json
from dataclasses import replace
from pathlib import Path

import pytest

from probadapt import cli, model, runner
from probadapt.cli import EXIT_CONFIG, EXIT_DIVERGED, EXIT_OK, main
from probadapt.config import (MODES, ExperimentConfig, config_hash, parse_config, parse_value,
                              serialize_config)
from probadapt.data import make_pretrain_task, make_uda_pair
from probadapt.errors import ConfigError, ContractViolationError, MissingClassError
from probadapt.model import init_params
from probadapt.trainer import TrainReport, train
from probadapt.runner import EPOCHS_HEADER, run_experiment, run_grid

from report_files import read_epochs_csv, read_grid_summary, read_summary, summary_metrics

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
        cfg = replace(cfg, outputs=str(tmp_path / name))
    return cfg


def test_uda_run_writes_reparseable_files(tmp_path):
    rec = run_experiment(fast_cfg(tmp_path=tmp_path))
    assert rec.summary["status"] == "complete"
    rows = read_epochs_csv(rec.out_dir / "epochs.csv")
    assert len(rows) == 2
    # the header is built from EpochRecord's fields, and every epochs.csv reader
    # expects this one
    assert EPOCHS_HEADER == "epoch,target_acc,l_cls,l_cpa,l_cgi,lambda2,lambda3,eta"
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


def test_pda_threshold_zero_matches_uda_files(tmp_path):
    uda = run_experiment(fast_cfg(tmp_path=tmp_path, name="uda"))
    pda = run_experiment(fast_cfg("mode = pda\ntrain.pda_threshold = 0\n",
                                  tmp_path=tmp_path, name="pda"))
    assert (uda.out_dir / "epochs.csv").read_bytes() == (pda.out_dir / "epochs.csv").read_bytes()
    assert summary_metrics(uda.summary) == summary_metrics(pda.summary)


def test_fig1_mode_emits_distances(tmp_path):
    rec = run_experiment(fast_cfg("mode = fig1\n", tmp_path=tmp_path))
    assert rec.summary["status"] == "complete"
    summary = read_summary(rec.out_dir / "summary.json")
    assert "feature_distance" in summary and "probability_distance" in summary
    assert isinstance(summary["probability_distance_smaller"], bool)
    assert (rec.out_dir / "epochs.csv").read_text().splitlines() == [EPOCHS_HEADER]


def test_uda_run_probes_the_adapted_params(tmp_path):
    cfg = fast_cfg(tmp_path=tmp_path)
    summary = run_experiment(cfg).summary
    params = model.pretrain(make_pretrain_task(cfg), cfg)
    pair = make_uda_pair(cfg)
    _, adapted = train(params, pair, cfg)
    distances = model.fig1_analog(adapted, pair.source, pair.target, cfg.seed)
    assert {k: summary[k] for k in distances} == distances
    assert summary["probability_distance_smaller"] == (
        distances["probability_distance"] < distances["feature_distance"])


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_divergence_marks_incomplete(tmp_path):
    rec = run_experiment(fast_cfg("schedule.eta0 = 1e300\n", tmp_path=tmp_path))
    assert rec.summary["status"] == "incomplete"
    summary = read_summary(rec.out_dir / "summary.json")
    assert summary["status"] == "incomplete"
    assert "error" in summary


def test_grid_beta_axis_four_points(tmp_path):
    records = run_grid(fast_cfg(tmp_path=tmp_path), "beta_variant")
    names = [r.summary["grid_point"] for r in records]
    assert names == ["constant_half", "exp_neg_entropy", "max_prob", "exp_neg_kl"]
    assert all(r.summary["status"] == "complete" for r in records)


def test_grid_penalty_axis_five_points(tmp_path):
    records = run_grid(fast_cfg(tmp_path=tmp_path), "penalty_variant")
    names = [r.summary["grid_point"] for r in records]
    assert names == ["GE", "CGE", "GI", "CGI_noreg", "CGI"]


def test_grid_components_six_rows(tmp_path):
    records = run_grid(fast_cfg(tmp_path=tmp_path), "components")
    assert len(records) == 6
    grid_csv = (tmp_path / "out" / "components" / "grid_summary.csv").read_text().splitlines()
    assert grid_csv[0] == "point,status,final_target_accuracy"
    assert len(grid_csv) == 7
    # a point's epochs.csv leaves exactly the fields of the terms it lacks empty
    empty = {"cls_only": {"l_cpa", "l_cgi"}, "cls_cpa": {"l_cgi"},
             "cls_cgi_backbone": {"l_cpa"}, "cls_cpa_cgi_backbone": set(),
             "cls_cgi_head": {"l_cpa"}, "cls_cpa_cgi_head": set()}
    for rec in records:
        rows = read_epochs_csv(rec.out_dir / "epochs.csv")
        assert len(rows) == 2
        for row in rows:
            assert {k for k, v in row.items() if v is None} == empty[rec.summary["grid_point"]]


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
        return [r.summary["status"] for r in records], files

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
    assert all(r.summary["mode"] == "pda" for r in records)
    # FAST's target holds 36 samples: t30 is reachable but never met, so the
    # point stops incomplete, with both files, instead of failing.
    t30 = records[-1]
    assert t30.summary["status"] == "incomplete"
    assert "key 'train.pda_threshold'" in t30.summary["error"]
    assert (t30.out_dir / "summary.json").exists() and (t30.out_dir / "epochs.csv").exists()
    assert "t30,incomplete," in (tmp_path / "out" / "pda_threshold" / "grid_summary.csv").read_text()


def test_grid_summary_reparseable(tmp_path):
    cfg = fast_cfg(tmp_path=tmp_path)
    run_grid(cfg, "beta_variant")
    rows = read_grid_summary(tmp_path / "out" / "beta_variant" / "grid_summary.csv")
    assert [r["point"] for r in rows] == ["constant_half", "exp_neg_entropy", "max_prob", "exp_neg_kl"]
    assert all(isinstance(r["final_target_accuracy"], float) for r in rows)


# Amplitudes and the backbone flag off their defaults, so a point that drops a
# term's base amplitude or leaves the flag alone changes a line it should not.
OVERLAY_BASE = ExperimentConfig(lambda2_a=0.5, lambda3_a=0.125, cgi_updates_backbone=True)

# axis -> each point in run order -> the canonical document lines it changes
# from OVERLAY_BASE
GRID_CHANGES = {
    "beta_variant": {v: {} if v == "exp_neg_kl" else {"train.beta_variant": v}
                     for v in ("constant_half", "exp_neg_entropy", "max_prob", "exp_neg_kl")},
    "penalty_variant": {v: {} if v == "CGI" else {"train.penalty_variant": v}
                        for v in ("GE", "CGE", "GI", "CGI_noreg", "CGI")},
    "components": {
        "cls_only": {"schedule.lambda2_a": "0.0", "schedule.lambda3_a": "0.0",
                     "train.cgi_updates_backbone": "false"},
        "cls_cpa": {"schedule.lambda3_a": "0.0", "train.cgi_updates_backbone": "false"},
        "cls_cgi_backbone": {"schedule.lambda2_a": "0.0"},
        "cls_cpa_cgi_backbone": {},
        "cls_cgi_head": {"schedule.lambda2_a": "0.0", "train.cgi_updates_backbone": "false"},
        "cls_cpa_cgi_head": {"train.cgi_updates_backbone": "false"},
    },
    # 14 is the base threshold
    "pda_threshold": {f"t{t}": {"mode": "pda"} if t == 14
                      else {"mode": "pda", "train.pda_threshold": str(t)}
                      for t in (0, 1, 2, 5, 10, 14, 20, 30)},
}


def document(cfg):
    return dict(line.split(" = ", 1) for line in serialize_config(cfg).splitlines())


@pytest.mark.parametrize("axis", GRID_CHANGES)
def test_grid_point_changes_the_base_in_its_overlay_keys_only(axis):
    assert list(runner.GRID_AXES) == list(GRID_CHANGES)
    base = document(OVERLAY_BASE)
    points = list(runner._grid_points(OVERLAY_BASE, axis))
    assert [name for name, _ in points] == list(GRID_CHANGES[axis])
    for (name, cfg), (_, overlay) in zip(points, runner.GRID_AXES[axis]):
        changed = {key: text for key, text in document(cfg).items() if base[key] != text}
        assert changed == GRID_CHANGES[axis][name], name
        # the point holds every overlay value and differs from the base in no other key
        assert changed.keys() <= overlay.keys()
        assert all(getattr(cfg, attr) == value
                   for attr, value in (parse_value(*item) for item in overlay.items()))
    if axis == "components":
        assert all("train.cgi_updates_backbone" in overlay
                   for _, overlay in runner.GRID_AXES[axis])


def test_cli_grid_axis_is_one_of_the_table_axes(capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(["grid", "unread.cfg", "--axis", "lambda3_a"])
    assert exit_info.value.code == 2
    err = capsys.readouterr().err
    assert "invalid choice: 'lambda3_a'" in err
    assert all(axis in err for axis in
               ("beta_variant", "penalty_variant", "components", "pda_threshold"))


def test_grid_shares_seed_and_data(tmp_path):
    records = run_grid(fast_cfg(tmp_path=tmp_path), "beta_variant")
    assert len({r.summary["seed"] for r in records}) == 1


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_grid_continues_past_failures(tmp_path):
    records = run_grid(fast_cfg("schedule.eta0 = 1e300\n", tmp_path=tmp_path),
                       "beta_variant")
    assert all(r.summary["status"] in ("incomplete", "failed") for r in records)
    assert len(records) == 4


def test_grid_marks_package_errors_failed_and_propagates_others(tmp_path, monkeypatch):
    def raising(exc):
        def run(cfg, out_dir=None):
            raise exc
        return run

    monkeypatch.setattr(runner, "run_experiment", raising(MissingClassError("no class 2")))
    cfg = fast_cfg(tmp_path=tmp_path)
    records = run_grid(cfg, "beta_variant")
    assert [r.summary["status"] for r in records] == ["failed"] * 4
    assert records[0].summary["error"] == "no class 2"
    # a failed point's summary has the head of every other run's summary
    for rec in records:
        point_cfg = replace(cfg, beta_variant=rec.summary["grid_point"])
        assert rec.report is None
        assert (rec.summary["mode"], rec.summary["seed"], rec.summary["config_hash"]) == (
            "uda", cfg.seed, config_hash(point_cfg))
    cfg_path = tmp_path / "grid.cfg"
    cfg_path.write_text(FAST + f"outputs = {tmp_path / 'cli_grid'}\n")
    assert main(["grid", str(cfg_path), "--axis", "beta_variant"]) == EXIT_DIVERGED

    monkeypatch.setattr(runner, "run_experiment", raising(TypeError("bad argument")))
    with pytest.raises(TypeError, match="bad argument"):
        run_grid(fast_cfg(tmp_path=tmp_path), "beta_variant")


def test_cli_run_propagates_a_contract_violation(tmp_path, monkeypatch):
    # Every config refusal is a ConfigError raised at parse time, so a contract
    # violation inside a run is a programming error, not a configuration error.
    def run(cfg, out_dir=None):
        raise ContractViolationError("matmul shapes (16, 6) x (5, 64) do not conform")

    monkeypatch.setattr(cli, "run_experiment", run)
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text(FAST + f"outputs = {tmp_path / 'out'}\n")
    with pytest.raises(ContractViolationError, match="matmul shapes"):
        main(["run", str(cfg_path)])


# Every point of the other axes trains as a uda run, and every point of
# pda_threshold as a pda run, so a grid from any other mode would lose it.
# "baseline" is no longer a mode: its document is refused when it is parsed.
REFUSED_GRIDS = [(mode, axis) for mode in ("baseline", "pda", "fig1") for axis in runner.GRID_AXES
                 if (mode, axis) != ("pda", "pda_threshold")]


@pytest.mark.parametrize("mode,axis", REFUSED_GRIDS)
def test_grid_refuses_a_mode_its_points_would_override(tmp_path, mode, axis):
    with pytest.raises(ConfigError, match="mode"):
        run_grid(fast_cfg(f"mode = {mode}\n", tmp_path=tmp_path), axis)
    assert not (tmp_path / "out").exists()
    cfg_path = tmp_path / "grid.cfg"
    cfg_path.write_text(FAST + f"mode = {mode}\noutputs = {tmp_path / 'cli'}\n")
    assert main(["grid", str(cfg_path), "--axis", axis]) == EXIT_CONFIG
    assert not (tmp_path / "cli").exists()


def test_grid_pda_threshold_from_a_pda_config(tmp_path):
    # Each point sets mode and threshold, so a pda base writes what a uda base
    # does. Both grids write to the same place, so their config hashes agree.
    def grid_files(mode):
        records = run_grid(fast_cfg(f"mode = {mode}\n", tmp_path=tmp_path), "pda_threshold")
        assert [r.summary["mode"] for r in records] == (
            ["pda"] * len(runner.GRID_AXES["pda_threshold"]))
        files = {path: path.read_bytes() for path in (tmp_path / "out").rglob("*")
                 if path.is_file()}
        assert len(files) == 1 + 2 * sum(r.summary["status"] != "failed" for r in records)
        return [r.summary["status"] for r in records], files

    assert grid_files("pda") == grid_files("uda")


@pytest.mark.parametrize("mode", MODES)
def test_run_records_the_config_mode(tmp_path, mode):
    rec = run_experiment(fast_cfg(f"mode = {mode}\n", tmp_path=tmp_path))
    assert rec.summary["mode"] == mode
    assert read_summary(rec.out_dir / "summary.json")["mode"] == mode


def test_ablation_mode_is_refused(tmp_path):
    for mode in ("ablation_components", "baseline"):
        with pytest.raises(ConfigError, match="mode"):
            fast_cfg(f"mode = {mode}\n")
        cfg_path = tmp_path / f"{mode}.cfg"
        cfg_path.write_text(FAST + f"mode = {mode}\noutputs = {tmp_path / mode}\n")
        assert main(["run", str(cfg_path)]) == EXIT_CONFIG
        assert not (tmp_path / mode).exists()


@pytest.mark.parametrize("line", ["generator.rotation = nan", "schedule.eta0 = inf",
                                  "schedule.lambda2_a = inf",
                                  "generator.translation = 0,0,0,-inf"])
def test_cli_run_refuses_a_nonfinite_value(tmp_path, capsys, line):
    # Refused before anything is written, not trained into a non-finite loss.
    key = line.split(" = ")[0]
    base = "".join(f"{entry}\n" for entry in FAST.splitlines() if not entry.startswith(key))
    cfg_path = tmp_path / "nonfinite.cfg"
    cfg_path.write_text(base + f"{line}\noutputs = {tmp_path / 'out'}\n")
    assert main(["run", str(cfg_path)]) == EXIT_CONFIG
    assert f"key '{key}'" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("lines", [
    "generator.samples_per_class = 1\n",
    "generator.samples_per_class = 2\n",
    "generator.samples_per_class = 5\ngenerator.target_class_count = 1\n",
])
def test_cli_run_refuses_too_few_samples(tmp_path, capsys, lines):
    # Refused at parse time: neither pretrained and then stopped in the source
    # split or the domain-gap probe, nor leaving an empty output directory.
    cfg_path = tmp_path / "few.cfg"
    cfg_path.write_text(lines + f"outputs = {tmp_path / 'out'}\n")
    assert main(["run", str(cfg_path)]) == EXIT_CONFIG
    assert "key 'generator.samples_per_class'" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("threshold", [1000, 201])
def test_cli_run_refuses_an_unreachable_pda_threshold(tmp_path, capsys, threshold):
    # The default target holds 200 samples: refused at parse time, before
    # pretraining and before the output directory is made.
    cfg_path = tmp_path / "pda.cfg"
    cfg_path.write_text(f"mode = pda\ntrain.epochs = 2\ntrain.pda_threshold = {threshold}\n"
                        f"outputs = {tmp_path / 'out'}\n")
    assert main(["run", str(cfg_path)]) == EXIT_CONFIG
    assert "key 'train.pda_threshold'" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_cli_run_with_an_unmet_pda_threshold_is_incomplete(tmp_path, capsys):
    # 150 of 200 target samples is reachable, but no class is predicted that
    # often, so every class falls below it while the run goes.
    cfg_path = tmp_path / "pda.cfg"
    cfg_path.write_text(f"mode = pda\ntrain.epochs = 2\ntrain.pda_threshold = 150\n"
                        f"outputs = {tmp_path / 'out'}\n")
    assert main(["run", str(cfg_path)]) == EXIT_DIVERGED
    assert capsys.readouterr().out.startswith("[incomplete] mode=pda")
    assert sorted(p.name for p in (tmp_path / "out").iterdir()) == ["epochs.csv", "summary.json"]
    summary = read_summary(tmp_path / "out" / "summary.json")
    assert summary["status"] == "incomplete"
    assert "key 'train.pda_threshold'" in summary["error"]
    assert (tmp_path / "out" / "epochs.csv").read_text() == EPOCHS_HEADER + "\n"


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_cli_names_why_a_run_did_not_complete(tmp_path, capsys):
    text = EXAMPLE_CFG.read_text()
    assert "schedule.eta0 = 0.0075\n" in text and "outputs = runs/example\n" in text
    cfg_path = tmp_path / "div.cfg"
    cfg_path.write_text(text.replace("schedule.eta0 = 0.0075\n", "schedule.eta0 = 1e300\n")
                        .replace("outputs = runs/example\n", f"outputs = {tmp_path / 'div'}\n"))
    assert main(["run", str(cfg_path)]) == EXIT_DIVERGED
    line = capsys.readouterr().out.strip()
    assert line == (f"[incomplete] mode=uda seed=0 out={tmp_path / 'div'} "
                    "error=loss cls became non-finite")


def test_cli_names_why_a_grid_point_failed(tmp_path, capsys, monkeypatch):
    original = runner.run_experiment

    def run(cfg, out_dir=None):
        if out_dir.name == "cls_cpa":
            raise MissingClassError("no class 2")
        return original(cfg, out_dir=out_dir)

    monkeypatch.setattr(runner, "run_experiment", run)
    cfg_path = tmp_path / "grid.cfg"
    cfg_path.write_text(FAST + f"outputs = {tmp_path / 'grid'}\n")
    assert main(["grid", str(cfg_path), "--axis", "components"]) == EXIT_DIVERGED
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 6
    failed = [line for line in lines if line.startswith("[failed]")]
    assert failed == [f"[failed] mode=uda seed=1 out={tmp_path / 'grid' / 'components' / 'cls_cpa'}"
                      " error=no class 2"]
    assert not any("error=" in line for line in lines if line not in failed)


def test_grid_refuses_a_threshold_sweep_beyond_the_target(tmp_path):
    # 4 classes of 5 target samples: the sweep's t30 is refused before any
    # point runs or writes a file.
    cfg = replace(fast_cfg(tmp_path=tmp_path), task_classes=4, samples_per_class=5)
    with pytest.raises(ConfigError, match="train.pda_threshold"):
        run_grid(cfg, "pda_threshold")
    assert not (tmp_path / "out").exists()


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
    assert rec.summary["status"] == "collapsed"
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


def test_cli_refuses_a_config_that_is_not_utf8(tmp_path, capsys):
    cfg_path = tmp_path / "latin1.cfg"
    cfg_path.write_bytes(b"seed = 1  # \xff\n")
    assert main(["run", str(cfg_path)]) == EXIT_CONFIG
    assert "cannot read config" in capsys.readouterr().err


def test_cli_fig1_subcommand(tmp_path):
    # a fig1 run is `probadapt run` on a fig1 document; there is no fig1 subcommand
    cfg_path = tmp_path / "exp.cfg"
    cfg_path.write_text(FAST + f"mode = fig1\noutputs = {tmp_path / 'cli_fig1'}\n")
    assert main(["run", str(cfg_path)]) == EXIT_OK
    summary = read_summary(tmp_path / "cli_fig1" / "summary.json")
    assert summary["mode"] == "fig1"
    with pytest.raises(SystemExit) as exc:
        main(["fig1", str(cfg_path)])
    assert exc.value.code == 2


def test_cli_grid_subcommand(tmp_path):
    cfg_path = tmp_path / "exp.cfg"
    cfg_path.write_text(FAST + f"outputs = {tmp_path / 'cli_grid'}\n")
    assert main(["grid", str(cfg_path), "--axis", "beta_variant"]) == EXIT_OK
    assert (tmp_path / "cli_grid" / "beta_variant" / "grid_summary.csv").exists()


def test_cli_refuses_the_removed_invariant_check_subcommand(capsys):
    # The invariant checks live in the test suite only. The removed name is
    # spelled in two parts, so a search for it finds no live reference.
    removed = "self" + "test"
    with pytest.raises(SystemExit) as exit_info:
        main([removed])
    assert exit_info.value.code == 2
    assert f"invalid choice: {removed!r}" in capsys.readouterr().err


def test_cli_run_refuses_empty_outputs(tmp_path, monkeypatch, capsys):
    # An empty path would put summary.json and epochs.csv in the working directory.
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("PROBADAPT_OUTPUT_ROOT", raising=False)
    cfg_path = tmp_path / "empty.cfg"
    cfg_path.write_text(FAST + "outputs =\n")
    assert main(["run", str(cfg_path)]) == EXIT_CONFIG
    assert "key 'outputs'" in capsys.readouterr().err
    assert [path.name for path in tmp_path.iterdir()] == ["empty.cfg"]


def test_output_root_env_override(tmp_path, monkeypatch):
    monkeypatch.setenv("PROBADAPT_OUTPUT_ROOT", str(tmp_path))
    cfg = parse_config(FAST + "outputs = nested/run\n")
    rec = run_experiment(cfg)
    assert rec.out_dir == tmp_path / "nested" / "run"
    assert (tmp_path / "nested" / "run" / "summary.json").exists()
