"""tools/bench_pairs.py: the summary of paired runs."""

import importlib.util
import sys
from pathlib import Path

TOOLS = Path(__file__).resolve().parent.parent / "tools"

METRICS = [
    {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "jobs_per_kref", "unit": "1/kref", "better": "higher",
     "bound": 0.25},
    {"name": "peak_rss_mb", "unit": "MB", "better": "lower", "bound": 0.1},
]


def _tool():
    sys.path.insert(0, str(TOOLS))  # for its import of write_bench
    try:
        spec = importlib.util.spec_from_file_location(
            "bench_pairs", TOOLS / "bench_pairs.py")
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    finally:
        sys.path.remove(str(TOOLS))
    return module


def _run(setup, rate, rss):
    return {"metrics": {"setup_s": setup, "jobs_per_kref": rate,
                        "peak_rss_mb": rss},
            "failed": 0, "import_s": 0.1, "setup_rep_s": setup - 0.1}


def test_summary_of_synthetic_pairs():
    # set-up: here slower by 50% on every pair; rate: here faster on 3 of
    # 4 pairs and tied on one; rss: one wild run on the other side
    pairs = [(_run(0.30, 1100, 50.0), _run(0.20, 1000, 50.0)),
             (_run(0.31, 1000, 50.0), _run(0.21, 1000, 50.0)),
             (_run(0.30, 1120, 50.0), _run(0.20, 1010, 90.0)),
             (_run(0.32, 1090, 50.0), _run(0.20, 1005, 10.0))]
    tool = _tool()
    rows = {r["name"]: r for r in tool.summarize(pairs, METRICS)}
    setup, rate, rss = rows["setup_s"], rows["jobs_per_kref"], \
        rows["peak_rss_mb"]
    assert setup["median"] == 0.305 and setup["other_median"] == 0.20
    assert (setup["other_q1"], setup["other_q3"]) == (0.2, 0.2025)
    assert setup["wins"] == 0 and setup["verdict"] == "fails"
    assert rate["wins"] == 3 and rate["verdict"] == "holds"
    assert rate["pairs"] == 4
    assert rss["wins"] == 1 and rss["verdict"] == "unresolved"
    line = tool.format_row(setup)
    assert line.startswith("setup_s: median 0.305 here, 0.2 other")
    assert line.endswith("wins 0 of 4; bound 0.25: fails")


def test_verdict_bound_is_relative_to_the_other_median():
    verdict = _tool().verdict
    # binary fractions, so that the gap at the bound is exact
    assert verdict([2.5] * 3, [2.0] * 3, "lower", 0.25) == "holds"
    assert verdict([3.0] * 3, [2.0] * 3, "lower", 0.25) == "fails"
    assert verdict([1.5] * 3, [2.0] * 3, "higher", 0.25) == "holds"
    assert verdict([1.0] * 3, [2.0] * 3, "higher", 0.25) == "fails"
    assert verdict([2.0, 2.0, 4.0, 4.0], [2.0] * 4, "lower", 0.25) \
        == "unresolved"
