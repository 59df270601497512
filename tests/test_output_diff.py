"""The output comparison of ``tools/output_diff.py``, on canned run directories."""

import importlib.util
import json
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "output_diff.py"

SUMMARY = {"config_hash": "8ba226fdfc0e842b", "final_target_accuracy": 0.98, "status": "complete"}
EPOCHS = "epoch,target_acc\n0,0.5\n1,0.75\n"


def load_tool():
    spec = importlib.util.spec_from_file_location("output_diff", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def write_run(root: Path, summary=SUMMARY, epochs=EPOCHS):
    out = root / "uda"
    out.mkdir(parents=True)
    (out / "summary.json").write_text(json.dumps(summary, sort_keys=True, indent=2) + "\n")
    (out / "epochs.csv").write_text(epochs)
    # not a report file, so never compared
    (root / "uda.cfg").write_text(f"outputs = {root}\n")


def test_identical_outputs_compare_clean(tmp_path):
    write_run(tmp_path / "golden")
    write_run(tmp_path / "run")
    lines, identical = load_tool().compare(tmp_path / "golden", tmp_path / "run")
    assert identical
    assert lines == ["2 of 2 files identical"]


def test_a_differing_summary_key_and_csv_line_are_named(tmp_path):
    write_run(tmp_path / "golden")
    write_run(tmp_path / "run", summary=dict(SUMMARY, config_hash="f9acba1bbdc8a3f9"),
              epochs=EPOCHS.replace("0.75", "0.8"))
    lines, identical = load_tool().compare(tmp_path / "golden", tmp_path / "run")
    assert not identical
    assert lines == ["uda/epochs.csv: lines 3", "uda/summary.json: keys config_hash",
                     "0 of 2 files identical"]


def test_a_file_on_one_side_only_is_named(tmp_path):
    write_run(tmp_path / "golden")
    write_run(tmp_path / "run")
    (tmp_path / "run" / "uda" / "epochs.csv").unlink()
    lines, identical = load_tool().compare(tmp_path / "golden", tmp_path / "run")
    assert not identical
    assert lines == ["uda/epochs.csv: missing from the run", "1 of 2 files identical"]
    (tmp_path / "golden" / "uda" / "summary.json").unlink()
    lines, _ = load_tool().compare(tmp_path / "golden", tmp_path / "run")
    assert lines[:2] == ["uda/epochs.csv: missing from the run",
                         "uda/summary.json: not in the golden tree"]


def test_a_golden_mismatch_names_each_file_and_summary_key(tmp_path, monkeypatch, capsys):
    # the check and the writer, with the pipelines replaced by a canned run
    tool = load_tool()
    summary = dict(SUMMARY)
    monkeypatch.setattr(tool, "GOLDEN", tmp_path / "golden")
    monkeypatch.setattr(tool, "run_pipelines",
                        lambda root: write_run(root, summary=summary))
    assert tool.main(["--write-golden"]) == 0
    assert (tmp_path / "golden" / "uda" / "summary.json").read_text() == \
        json.dumps(SUMMARY, sort_keys=True, indent=2) + "\n"
    assert not (tmp_path / "golden" / "uda.cfg").exists()
    assert (tmp_path / "golden" / tool.VERSIONS).read_text() == tool.versions() + "\n"
    assert tool.main([]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == "2 of 2 files identical"
    summary["final_target_accuracy"] = 0.97
    assert tool.main([]) == 1
    assert capsys.readouterr().out.splitlines() == [
        "uda/summary.json: keys final_target_accuracy", "1 of 2 files identical",
        f"golden tree written with {tool.versions()}; this run has {tool.versions()}"]
