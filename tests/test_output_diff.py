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
    write_run(tmp_path / "parent")
    write_run(tmp_path / "change")
    lines, identical = load_tool().compare(tmp_path / "parent", tmp_path / "change")
    assert identical
    assert lines == ["2 of 2 files identical"]


def test_a_differing_summary_key_and_csv_line_are_named(tmp_path):
    write_run(tmp_path / "parent")
    write_run(tmp_path / "change", summary=dict(SUMMARY, config_hash="f9acba1bbdc8a3f9"),
              epochs=EPOCHS.replace("0.75", "0.8"))
    lines, identical = load_tool().compare(tmp_path / "parent", tmp_path / "change")
    assert not identical
    assert lines == ["uda/epochs.csv: lines 3", "uda/summary.json: keys config_hash",
                     "0 of 2 files identical"]


def test_a_file_on_one_side_only_is_named(tmp_path):
    write_run(tmp_path / "parent")
    write_run(tmp_path / "change")
    (tmp_path / "change" / "uda" / "epochs.csv").unlink()
    lines, identical = load_tool().compare(tmp_path / "parent", tmp_path / "change")
    assert not identical
    assert lines == ["uda/epochs.csv: missing in change", "1 of 2 files identical"]


def test_a_golden_mismatch_names_each_file_and_summary_key(tmp_path):
    tool = load_tool()
    write_run(tmp_path / "pinned")
    golden = tool.golden_record(tmp_path / "pinned")
    assert set(golden["files"]) == {"uda/epochs.csv", "uda/summary.json"}
    assert golden["summaries"] == {"uda/summary.json": SUMMARY}
    assert tool.golden_mismatches(golden, tmp_path / "pinned") == []
    write_run(tmp_path / "moved", summary=dict(SUMMARY, final_target_accuracy=0.97),
              epochs=EPOCHS.replace("0.75", "0.8"))
    (tmp_path / "moved" / "extra").mkdir()
    (tmp_path / "moved" / "extra" / "grid_summary.csv").write_text("point\n")
    assert tool.golden_mismatches(golden, tmp_path / "moved") == [
        "extra/grid_summary.csv: not in the golden record",
        "uda/epochs.csv: sha256 differs",
        "uda/summary.json: keys final_target_accuracy"]
    (tmp_path / "moved" / "uda" / "epochs.csv").unlink()
    assert "uda/epochs.csv: missing from the run" in tool.golden_mismatches(
        golden, tmp_path / "moved")
