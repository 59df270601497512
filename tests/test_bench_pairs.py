"""The pair runner's summary, on canned ``perfbench/run.py`` results."""

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"

METRICS = [{"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.25},
           {"name": "adapt_samples_per_s", "unit": "1/s", "better": "higher", "bound": 0.25}]


def load_tool():
    spec = importlib.util.spec_from_file_location("bench_pairs", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def run(wall_s, samples, failed=0, attempted=6):
    return {"returncode": 0, "error": "no error output",
            "result": {"correct": failed == 0, "attempted": attempted, "failed": failed,
                       "metrics": {"wall_s": {"value": wall_s, "unit": "s"},
                                   "adapt_samples_per_s": {"value": samples, "unit": "1/s"}}}}


def line_of(lines, name):
    return next(line for line in lines if line.startswith(name))


def test_summary_counts_wins_ties_and_losses_by_direction():
    tool = load_tool()
    pairs = [(run(3.0, 100.0), run(2.0, 120.0)),   # change wins both
             (run(2.5, 110.0), run(2.5, 110.0)),   # ties count for neither
             (run(2.0, 130.0), run(2.2, 125.0)),   # change loses both
             (run(4.0, 90.0), run(3.0, 95.0, failed=1))]
    lines, clean = tool.summarize(METRICS, pairs)
    # the fourth pair's change run exited 0 with a failed check
    assert not clean
    assert "pair 3 change not correct: failed 1 of 6" in lines
    assert not any("parent not correct" in line for line in lines)
    assert lines[0] == "4 pairs"
    assert line_of(lines, "wall_s").endswith("change wins 2, ties 1, losses 1 of 4")
    assert line_of(lines, "adapt_samples_per_s").endswith("change wins 2, ties 1, losses 1 of 4")
    # wall_s, parent 2.0, 2.5, 3.0, 4.0 and change 2.0, 2.2, 2.5, 3.0: inclusive
    # quartiles 2.375, 2.75, 3.25 and 2.15, 2.35, 2.625
    assert ("parent 2.75 [2.375, 3.25]  change 2.35 [2.15, 2.625]  "
            "gap -0.4 vs parent IQR 0.875") in line_of(lines, "wall_s")
    assert "parent: failed 0 of 24 pipeline runs" in lines
    assert "change: failed 1 of 24 pipeline runs" in lines


def test_summary_lists_a_failed_run_and_scores_only_complete_pairs():
    tool = load_tool()
    crashed = {"returncode": 1, "result": None, "error": "perfbench: no repetition completed"}
    pairs = [(run(3.0, 100.0), run(2.0, 120.0)), (run(3.0, 100.0), crashed)]
    lines, clean = tool.summarize(METRICS, pairs)
    assert not clean
    assert line_of(lines, "wall_s").endswith("change wins 1, ties 0, losses 0 of 1")
    assert "pair 1 change exited 1: perfbench: no repetition completed" in lines
    assert "change: failed 0 of 6 pipeline runs" in lines
    lines, clean = tool.summarize(METRICS, [(crashed, crashed)])
    assert not clean
    assert "wall_s: no pair gave a result" in lines


def verdicts(parent_walls, change_walls):
    pairs = [(run(p, 100.0), run(c, 100.0)) for p, c in zip(parent_walls, change_walls)]
    lines, _ = load_tool().summarize(METRICS, pairs)
    return line_of(lines, "wall_s verdict: "), line_of(lines, "adapt_samples_per_s verdict: ")


STEADY = [10.0, 10.1, 9.9, 10.0, 10.2, 9.8, 10.0, 10.1, 9.9, 10.0]


def test_verdict_gain_shown_needs_nine_wins_in_ten_and_a_gap_beyond_the_iqr():
    faster = [w - 2.0 for w in STEADY]
    assert verdicts(STEADY, faster)[0] == "wall_s verdict: gain shown"
    # 8 wins of 10 are too few, whatever the gap
    assert verdicts(STEADY, faster[:8] + STEADY[8:])[0] == "wall_s verdict: within bound"
    # 10 wins, but a gap inside the parent's IQR (0.2)
    assert verdicts(STEADY, [w - 0.05 for w in STEADY])[0] == "wall_s verdict: within bound"
    # equal samples throughout: every pair ties
    assert verdicts(STEADY, faster)[1] == "adapt_samples_per_s verdict: within bound"


def test_verdict_gain_not_repeated_when_a_half_of_the_pairs_falls_short():
    faster = [w - 2.0 for w in STEADY]
    # 9 wins of 10 and a large gap, but the first half of 5 pairs has a loss
    one_loss = faster[:3] + [STEADY[3] + 1.0] + faster[4:]
    assert verdicts(STEADY, one_loss)[0] == "wall_s verdict: gain not repeated"
    # 20 pairs allow one loss in each half, but not two in one
    assert verdicts(STEADY * 2, one_loss * 2)[0] == "wall_s verdict: gain shown"
    two_losses = one_loss[:9] + [STEADY[9] + 1.0] + faster
    assert verdicts(STEADY * 2, two_losses)[0] == "wall_s verdict: gain not repeated"


def test_verdict_worse_than_bound_is_relative_to_the_parent_median():
    assert verdicts(STEADY, [w * 1.2 for w in STEADY])[0] == "wall_s verdict: within bound"
    assert verdicts(STEADY, [w * 1.3 for w in STEADY])[0] == "wall_s verdict: worse than bound"


def test_verdict_unresolved_when_the_parent_spreads_wider_than_the_bound():
    # median 10, IQR 4 against an allowed 2.5
    wide = [8.0, 12.0] * 5
    assert verdicts(wide, [10.0] * 10)[0] == "wall_s verdict: unresolved"
    # unless every change run beats every parent run
    assert verdicts(wide, [7.5] * 10)[0] == "wall_s verdict: within bound"
    # a gain beyond the wide IQR is still shown
    assert verdicts(wide, [5.0] * 10)[0] == "wall_s verdict: gain shown"
