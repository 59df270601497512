"""Alternating parent/change benchmark pairs for one workload.

    python3 tools/bench_pairs.py PARENT_DIR CHANGE_DIR --workload components_grid \
        [--pairs 10] [--seconds 35] [--seed 0]

PARENT_DIR and CHANGE_DIR are two source checkouts. Each pair runs
``perfbench/run.py --trace 0`` once in each, the parent first in even pairs
and the change first in odd ones, so that a drifting host weighs on both
sides alike. A run's result is the JSON object on its last line of output.

For every end-to-end metric of the change's ``BENCHMARK.json`` the summary
gives each side's median and quartiles, the gap between the medians against
the parent's interquartile range, and the change's wins, ties and losses over
the pairs in which both runs gave a result, by the metric's ``better``
direction; a tie counts for neither. After each metric's line comes its
verdict, the first that holds of:

- ``gain shown``: the change won at least 9 in 10 of the scored pairs, and
  its median beats the parent's by more than the parent's IQR;
- ``worse than bound``: the change's median is worse than the parent's by
  more than the metric's relative ``bound``;
- ``unresolved``: the parent's IQR is wider than the bound, so the runs spread
  too widely to tell, unless every change run beats every parent run;
- ``within bound``.

It then gives each side's ``failed`` out of ``attempted`` pipeline runs, lists
every run that exited nonzero, and lists every run whose result reads
``"correct": false`` (a pin, status or byte-identity check failed), with its
``failed`` count. The exit status is 1 if any run is listed. Standard library
only.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path
from statistics import quantiles

SIDES = ("parent", "change")


def run_once(checkout: Path, workload: str, seed: int, seconds: int) -> dict:
    """One ``perfbench/run.py --trace 0`` run: its exit code, result and last error line."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    result = None
    if proc.returncode == 0 and lines:
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            pass
    error = (proc.stderr.strip().splitlines() or ["no error output"])[-1]
    return {"returncode": proc.returncode, "result": result, "error": error}


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(first quartile, median, third quartile)."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, mid, q3 = quantiles(values, n=4, method="inclusive")
    return q1, mid, q3


def verdict(metric: dict, parent: list[float], change: list[float], wins: int) -> str:
    """The verdict on one metric's scored pairs; see the module docstring."""
    sign = 1.0 if metric["better"] == "higher" else -1.0
    (pq1, pmid, pq3), (_, cmid, _) = quartiles(parent), quartiles(change)
    allowed = metric["bound"] * abs(pmid)
    if 10 * wins >= 9 * len(parent) and sign * (cmid - pmid) > pq3 - pq1:
        return "gain shown"
    if sign * (cmid - pmid) < -allowed:
        return "worse than bound"
    if pq3 - pq1 > allowed and not all(sign * (c - p) > 0 for c in change for p in parent):
        return "unresolved"
    return "within bound"


def summarize(metrics: list[dict], pairs: list[tuple[dict, dict]]) -> tuple[list[str], bool]:
    """Summary lines for ``(parent run, change run)`` pairs, and whether every run
    exited 0 with a correct result.

    ``metrics`` are BENCHMARK.json's ``end_to_end`` entries; a run is a
    :func:`run_once` result.
    """
    lines = [f"{len(pairs)} pairs"]
    scored = [(p["result"]["metrics"], c["result"]["metrics"]) for p, c in pairs
              if p["result"] is not None and c["result"] is not None]
    for metric in metrics:
        name, sign = metric["name"], 1.0 if metric["better"] == "higher" else -1.0
        if not scored:
            lines.append(f"{name}: no pair gave a result")
            continue
        parent = [p[name]["value"] for p, _ in scored]
        change = [c[name]["value"] for _, c in scored]
        wins = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
        ties = sum(c == p for p, c in zip(parent, change))
        (pq1, pmid, pq3), (cq1, cmid, cq3) = quartiles(parent), quartiles(change)
        lines.append(
            f"{name} ({metric['unit']}, {metric['better']} is better): "
            f"parent {pmid:.6g} [{pq1:.6g}, {pq3:.6g}]  change {cmid:.6g} [{cq1:.6g}, {cq3:.6g}]  "
            f"gap {cmid - pmid:+.6g} vs parent IQR {pq3 - pq1:.6g}  "
            f"change wins {wins}, ties {ties}, losses {len(scored) - wins - ties} "
            f"of {len(scored)}")
        lines.append(f"{name} verdict: {verdict(metric, parent, change, wins)}")
    for i, side in enumerate(SIDES):
        results = [pair[i]["result"] for pair in pairs if pair[i]["result"] is not None]
        lines.append(f"{side}: failed {sum(r['failed'] for r in results)} of "
                     f"{sum(r['attempted'] for r in results)} pipeline runs")
    clean = True
    for number, pair in enumerate(pairs):
        for side, run in zip(SIDES, pair):
            if run["returncode"] != 0:
                clean = False
                lines.append(f"pair {number} {side} exited {run['returncode']}: {run['error']}")
            elif run["result"] is not None and not run["result"]["correct"]:
                clean = False
                lines.append(f"pair {number} {side} not correct: failed "
                             f"{run['result']['failed']} of {run['result']['attempted']}")
    return lines, clean


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=int, default=35)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    for checkout in (args.parent, args.change):
        if not (checkout / "perfbench" / "run.py").is_file():
            parser.error(f"{checkout} holds no perfbench/run.py")
    spec = json.loads((args.change / "BENCHMARK.json").read_text(encoding="utf-8"))
    checkouts = dict(zip(SIDES, (args.parent, args.change)))
    pairs = []
    for number in range(args.pairs):
        order = SIDES if number % 2 == 0 else SIDES[::-1]
        runs = {}
        for side in order:
            run = runs[side] = run_once(checkouts[side], args.workload, args.seed, args.seconds)
            values = run["result"]["metrics"] if run["result"] else {}
            print(f"pair {number} {side}: exit {run['returncode']} " + " ".join(
                f"{name}={value['value']:.6g}" for name, value in values.items()), flush=True)
        pairs.append((runs["parent"], runs["change"]))
    lines, clean = summarize(spec["end_to_end"], pairs)
    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds}")
    print("\n".join(lines))
    return 0 if clean else 1


if __name__ == "__main__":
    sys.exit(main())
