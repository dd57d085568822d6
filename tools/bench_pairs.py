"""Paired benchmark runs of this checkout against another one.

    python3 tools/bench_pairs.py OTHER --workload W [--pairs 10] \\
        [--seconds 30] [--seed S]

Runs ``bench/run.py --trace 0`` on workload W from this checkout and from
the checkout OTHER, one run at a time, in pairs: pair i runs both sides at
seed S + i, and the side that runs first alternates (this checkout first
in the even pairs), so that a drift of the host over the session falls on
both sides alike.  One line per pair gives each side's end-to-end metrics
and failed command count.  For ``setup_s`` it also gives, for each run,
the import time and the median set-up repetition, read from the run's
report ``.bench_out/<W>-seed<S>-trace0.json`` in its checkout.  Every
run starts from no bytecode cache under its checkout's ``src/`` and
``bench/`` and writes none (``write_bench.bench_run``), so a ``.pyc``
left in one checkout does not make its imports faster than the other's.

Then, for each end-to-end metric of ``BENCHMARK.json``, one line gives
both medians, OTHER's quartiles, the pairs this checkout wins (a tie
counts for neither side) and a verdict on the metric's bound:

* ``unresolved`` when either side's interquartile range is wider than
  the bound times its median: the runs spread too widely to tell;
* else ``holds`` when this checkout's median is worse than OTHER's by at
  most the bound (relative to OTHER's median), ``fails`` when by more.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

from write_bench import ROOT, bench_run, summary


def one_run(root: Path, workload: str, seed: int, seconds: float) -> dict:
    """The end-to-end metrics of one run of the checkout at root, its
    failed command count, and its import time and median set-up
    repetition from its report."""
    _, result = bench_run(workload, seed, seconds, 0, root)
    report = json.loads((root / ".bench_out" /
                         f"{workload}-seed{seed}-trace0.json").read_text())
    return {"metrics": {k: m["value"] for k, m in result["metrics"].items()},
            "failed": result["failed"], "import_s": report["import_s"],
            "setup_rep_s": statistics.median(report["setup_reps_s"])}


def verdict(mine, other, better: str, bound: float) -> str:
    """``unresolved``, ``holds`` or ``fails`` for the values of one metric
    on each side (see the module docstring)."""
    ours, theirs = summary(mine), summary(other)
    if any(s["iqr"] > bound * abs(s["median"]) for s in (ours, theirs)):
        return "unresolved"
    gap = ours["median"] - theirs["median"]
    worse = gap if better == "lower" else -gap
    return "holds" if worse <= bound * abs(theirs["median"]) else "fails"


def summarize(pairs, metrics) -> list:
    """One row per metric of ``metrics`` (BENCHMARK.json's end-to-end
    entries) over pairs, a list of (this run, OTHER's run) as ``one_run``
    returns them."""
    rows = []
    for m in metrics:
        name, better = m["name"], m["better"]
        mine = [a["metrics"][name] for a, _ in pairs]
        other = [b["metrics"][name] for _, b in pairs]
        theirs = summary(other)
        sign = 1 if better == "higher" else -1
        rows.append({
            "name": name, "unit": m["unit"], "bound": m["bound"],
            "median": summary(mine)["median"],
            "other_median": theirs["median"], "other_q1": theirs["q1"],
            "other_q3": theirs["q3"],
            "wins": sum(sign * (a - b) > 0 for a, b in zip(mine, other)),
            "pairs": len(pairs),
            "verdict": verdict(mine, other, better, m["bound"])})
    return rows


def format_row(row: dict) -> str:
    return (f"{row['name']}: median {row['median']:.4g} here, "
            f"{row['other_median']:.4g} other (quartiles "
            f"{row['other_q1']:.4g}..{row['other_q3']:.4g}) {row['unit']}; "
            f"wins {row['wins']} of {row['pairs']}; bound {row['bound']:g}: "
            f"{row['verdict']}")


def format_run(run: dict) -> str:
    vals = " ".join(f"{k}={v:.4g}" for k, v in sorted(run["metrics"].items()))
    return (f"{vals} failed={run['failed']} (import_s={run['import_s']:.3f}, "
            f"setup rep {run['setup_rep_s']:.3f})")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("other", type=Path, help="the checkout to compare with")
    p.add_argument("--workload", required=True)
    p.add_argument("--pairs", type=int, default=10)
    p.add_argument("--seconds", type=float, default=30)
    p.add_argument("--seed", type=int, default=101)
    args = p.parse_args(argv)
    if args.pairs < 2:
        p.error("need at least 2 pairs for quartiles")
    other = args.other.resolve()
    if other == ROOT:
        p.error("OTHER is this checkout")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    pairs = []
    for i in range(args.pairs):
        seed = args.seed + i
        order = [ROOT, other] if i % 2 == 0 else [other, ROOT]
        runs = {root: one_run(root, args.workload, seed, args.seconds)
                for root in order}
        pairs.append((runs[ROOT], runs[other]))
        first = "here" if order[0] == ROOT else "other"
        print(f"pair {i} seed {seed} ({first} first)", flush=True)
        print(f"  here:  {format_run(runs[ROOT])}", flush=True)
        print(f"  other: {format_run(runs[other])}", flush=True)
    for row in summarize(pairs, spec["end_to_end"]):
        print(format_row(row))
    return 0


if __name__ == "__main__":
    sys.exit(main())
