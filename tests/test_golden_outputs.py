"""Report files of a fixed set of pipelines against their committed digests.

``tests/golden_outputs.json`` holds the sha256 of every ``summary.json``,
``epochs.csv`` and ``grid_summary.csv`` of ``tools/output_diff.py``'s
``GOLDEN_RUNS``, run in this process. A change that moves outputs on purpose
regenerates it with ``python3 tools/output_diff.py --write-golden`` and lists
the moved files; this test never writes it.
"""

import importlib.util
import json
import platform
from pathlib import Path

import numpy as np

TOOL = Path(__file__).resolve().parents[1] / "tools" / "output_diff.py"


def load_tool():
    spec = importlib.util.spec_from_file_location("output_diff", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_report_files_match_the_golden_digests(tmp_path):
    tool = load_tool()
    golden = json.loads(tool.GOLDEN.read_text(encoding="utf-8"))
    tool.run_golden(tmp_path)
    mismatches = tool.golden_mismatches(golden, tmp_path)
    assert not mismatches, "\n".join([
        f"report files differ from {tool.GOLDEN.name}, written with Python "
        f"{golden['python']} and numpy {golden['numpy']}; this run has Python "
        f"{platform.python_version()} and numpy {np.__version__}", *mismatches])
