"""Report files of a fixed set of pipelines against the committed golden tree.

``tests/golden/`` holds every ``summary.json``, ``epochs.csv`` and
``grid_summary.csv`` of ``tools/output_diff.py``'s ``RUNS``, and the Python
and numpy versions they were written with. Tier-1 reruns the ``GOLDEN_RUNS``
subset in this process; ``python3 tools/output_diff.py`` reruns them all. A
change that moves outputs on purpose regenerates the tree with ``python3
tools/output_diff.py --write-golden`` and lists the moved files; no test
writes it.
"""

import importlib.util
from pathlib import Path

from probadapt.runner import GRID_AXES

TOOL = Path(__file__).resolve().parents[1] / "tools" / "output_diff.py"


def load_tool():
    spec = importlib.util.spec_from_file_location("output_diff", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_report_files_match_the_golden_tree(tmp_path):
    tool = load_tool()
    tool.run_pipelines(tmp_path, tool.GOLDEN_RUNS)
    lines, identical = tool.compare(tool.GOLDEN, tmp_path, tool.GOLDEN_RUNS)
    assert identical, "\n".join([*lines, tool.version_note()])


def test_the_golden_tree_holds_exactly_the_report_files_of_every_run():
    # every run writes summary.json and epochs.csv; a grid writes them per
    # point under its axis, beside one grid_summary.csv
    tool = load_tool()
    expected = {tool.VERSIONS}
    for name, args, *_ in tool.RUNS:
        dirs = [name]
        if args[0] == "grid":
            axis = args[args.index("--axis") + 1]
            expected.add(f"{name}/{axis}/grid_summary.csv")
            dirs = [f"{name}/{axis}/{point}" for point, _ in GRID_AXES[axis]]
        expected |= {f"{d}/{file}" for d in dirs for file in ("summary.json", "epochs.csv")}
    found = {path.relative_to(tool.GOLDEN).as_posix()
             for path in tool.GOLDEN.rglob("*") if path.is_file()}
    assert sorted(found - expected) == [], "orphan files in the golden tree"
    assert sorted(expected - found) == [], "report files missing from the golden tree"
    assert len(expected) == 84
