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


def _cases(**p50_ms):
    return {"metrics": {}, "failed": 0, "import_s": 0.1, "setup_rep_s": 0.1,
            "cases": {label: ms / 1e3 for label, ms in p50_ms.items()}}


def test_per_case_lines_of_synthetic_pairs():
    # a: here faster in every pair; b: tied once and slower once; c: its
    # jobs all failed on the other side of the second pair, so that pair
    # is skipped for it
    pairs = [(_cases(a=6.0, b=3.0, c=1.0), _cases(a=8.0, b=3.0, c=2.0)),
             (_cases(a=6.5, b=3.3, c=1.0), _cases(a=8.5, b=3.0)),
             (_cases(a=7.0, b=2.8, c=1.5), _cases(a=9.0, b=3.2, c=1.0))]
    tool = _tool()
    rows = {r["case"]: r for r in tool.summarize_cases(pairs)}
    assert list(rows) == ["a", "b", "c"]
    a, b, c = rows["a"], rows["b"], rows["c"]
    assert (a["wins"], a["pairs"]) == (3, 3)
    assert a["median_s"] == 6.5e-3 and a["other_median_s"] == 8.5e-3
    assert a["ratio"] == 6.5 / 8.5
    assert (b["wins"], b["pairs"]) == (1, 3)
    assert b["ratio"] == 1.0
    assert (c["wins"], c["pairs"]) == (1, 2)
    assert c["ratio"] == (0.5 + 1.5) / 2
    assert tool.format_case(a) == (
        "case a: p50 6.500 ms here, 8.500 ms other; here/other 0.765; "
        "wins 3 of 3")
    # a case that no pair has on both sides gives no line
    assert tool.summarize_cases([(_cases(a=1.0), _cases(d=1.0))]) == []


def test_gain_claim_of_synthetic_pairs():
    # ten pairs; other's rates 1000..1009 (IQR 4.5). rate: here wins 9 and
    # ties 1, 10 better in the median: met. setup: here wins all, better
    # by 0.001 s only, within other's IQR: not met. rss: here better by a
    # lot but wins only 8: not met
    other = [_run(0.20 + 0.002 * i, 1000 + i, 50.0) for i in range(10)]
    here = [_run(0.20 + 0.002 * i - 0.001, 1010 + i if i else 1000,
                 40.0 if i < 8 else 60.0) for i in range(10)]
    tool = _tool()
    rows = {r["name"]: r for r in tool.summarize(list(zip(here, other)),
                                                 METRICS)}
    rate, setup, rss = rows["jobs_per_kref"], rows["setup_s"], \
        rows["peak_rss_mb"]
    assert (rate["wins"], rate["gain"], rate["claim"]) == (9, 10.0, "met")
    assert setup["wins"] == 10 and setup["claim"] == "not met"
    assert rss["wins"] == 8 and rss["claim"] == "not met"
    assert tool.format_claim(rate) == (
        "jobs_per_kref gain claim: wins 9 of 10, median better by 10 "
        "1/kref against other's IQR 4.5: met")
