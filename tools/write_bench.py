"""Write BENCH_<pr>.json at the repository root: the benchmark's end-to-end
and per-layer numbers and the tier-1 test time, measured on this machine.

    python3 tools/write_bench.py N      # writes BENCH_N.json

``env`` is the harness's environment line plus ``git_dirty``: true when
tracked files differ from HEAD, so that the file says whether its
``git_commit`` is what was measured.

Steps, one after another so that no two measurements share the CPU:

* ``e2e``: ``bench/run.py --trace 0`` on every workload of
  ``BENCHMARK.json`` at each of ``SEEDS``, for the benchmark's
  ``run_seconds``; the median, quartiles and IQR of every gated metric,
  and the attempted / failed command counts of every run;
* ``layers``: one ``bench/run.py --trace 1`` run per workload at seed 42,
  the per-layer metrics as the harness prints them;
* ``tier1_s``: the wall time of the tier-1 suite (ROADMAP's command), its
  pass / fail counts, and the times of acceptance criteria 6 and 7 from
  its JUnit report;
* ``src_lines``: the line count of ``src/**/*.py``, as ``wc -l`` counts
  it, the size of the package that ROADMAP tracks.

Run it from a source checkout; it measures the checkout it sits in, so a
copy placed in another checkout measures that one.  A full run takes
about (3 x len(SEEDS) + 3) x 35 s plus the tier-1 time.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import xml.etree.ElementTree as ET
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEEDS = (101, 102, 103, 104, 105)
TRACE_SEED = 42
CRITERIA = ("test_criterion_06", "test_criterion_07")


def bench_run(workload: str, seed: int, seconds: float, trace: int,
              root: Path = ROOT):
    """(env, result) of one ``bench/run.py`` run of the checkout at root:
    its first and last line.  The run finds no bytecode cache under the
    checkout's ``src/`` and ``bench/`` and writes none, so that every run
    of every checkout compiles its modules alike."""
    for top in ("src", "bench"):
        for cache in list((root / top).rglob("__pycache__")):
            shutil.rmtree(cache)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed",
         str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=root, capture_output=True, text=True, check=True,
        env=dict(os.environ, PYTHONDONTWRITEBYTECODE="1"))
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[0])["env"], json.loads(lines[-1])


def git_dirty():
    """True when tracked files differ from HEAD; None outside a git
    checkout."""
    proc = subprocess.run(["git", "diff", "--quiet", "HEAD", "--"],
                          cwd=ROOT, capture_output=True)
    return {0: False, 1: True}.get(proc.returncode)


def src_lines(root: Path = ROOT) -> int:
    """Newlines in the files ``src/**/*.py`` under root (``wc -l``)."""
    return sum(path.read_bytes().count(b"\n")
               for path in (root / "src").rglob("*.py"))


def summary(values) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": med, "q1": q1, "q3": q3, "iqr": q3 - q1,
            "runs": values}


def tier1() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = "src" + (os.pathsep + env["PYTHONPATH"]
                                 if env.get("PYTHONPATH") else "")
    with tempfile.TemporaryDirectory() as tmp:
        report = Path(tmp) / "junit.xml"
        t0 = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", "-q",
             "--continue-on-collection-errors", "-p", "no:cacheprovider",
             f"--junitxml={report}"],
            cwd=ROOT, env=env, capture_output=True, text=True)
        wall = time.perf_counter() - t0
        cases = list(ET.parse(report).getroot().iter("testcase"))
        failed = sum(1 for case in cases for child in case
                     if child.tag in ("failure", "error"))
        times = {}
        for case in cases:
            for prefix in CRITERIA:
                if case.get("name", "").startswith(prefix):
                    times[prefix] = float(case.get("time"))
    return {"tier1_s": wall, "tier1_exit": proc.returncode,
            "tier1_tests": len(cases), "tier1_failed": failed,
            "criteria_s": times}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("pr", type=int, help="number in the file name")
    args = p.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    gated = [m["name"] for m in spec["end_to_end"]]
    dirty = git_dirty()  # the tree as measured, before any run
    env, e2e, layers = None, {}, {}
    for wl in (w["name"] for w in spec["workloads"]):
        results = []
        for seed in SEEDS:
            env, result = bench_run(wl, seed, seconds, 0)
            results.append(result)
        e2e[wl] = {name: dict(summary([r["metrics"][name]["value"]
                                       for r in results]),
                              unit=results[0]["metrics"][name]["unit"])
                   for name in gated}
        e2e[wl]["attempted"] = [r["attempted"] for r in results]
        e2e[wl]["failed"] = [r["failed"] for r in results]
        _, traced = bench_run(wl, TRACE_SEED, seconds, 1)
        layers[wl] = dict(traced["metrics"], attempted=traced["attempted"],
                          failed=traced["failed"])
    out = {"pr": args.pr, "env": dict(env, git_dirty=dirty),
           "settings": {"seconds": seconds, "seeds": list(SEEDS),
                        "trace_seed": TRACE_SEED},
           "e2e": e2e, "layers": layers}
    out.update(tier1())
    out["src_lines"] = src_lines()
    path = ROOT / f"BENCH_{args.pr}.json"
    path.write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")
    print(f"wrote {path.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
