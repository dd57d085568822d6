"""tools/compare_outputs.py: the command grid, the per-checkout worker and
the explanation of a differing document."""

import collections
import importlib.util
import json
from pathlib import Path

import pytest

from symdom import contains, make_sos, make_spec
from symdom.domains import FAMILIES

TOOL = Path(__file__).resolve().parent.parent / "tools" / "compare_outputs.py"


def _tool():
    spec = importlib.util.spec_from_file_location("compare_outputs", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_grid_is_204_commands():
    labelled = _tool().commands()[:204]
    names = [argv[0] for _, argv in labelled]
    assert len(labelled) == 204
    assert names[:3] == ["construct", "verify", "extend"]
    assert names.count("construct") == 68
    assert len({label for label, _ in labelled}) == 204
    assert all("--variety" in argv for _, argv in labelled
               if argv[0] == "construct")


def test_kernel_directions_follow_the_grid():
    # each of the grid's 5 families, in both modes, at one interior point
    # of the family's dimension and along the two unit directions, after
    # the 204 grid commands
    tool = _tool()
    labelled = tool.commands()
    kernel = labelled[204:224]
    assert len(labelled) == 340
    assert len({label for label, _ in labelled}) == 340
    assert [argv[0] for _, argv in kernel] == ["kernel"] * 20
    families = {tuple(argv[1:argv.index("--mode")]) for _, argv in kernel}
    assert len(families) == 5
    for family in families:
        runs = [argv for _, argv in kernel
                if tuple(argv[1:argv.index("--mode")]) == family]
        assert sorted(argv[argv.index("--mode") + 1] for argv in runs) == \
            ["exact", "exact", "float", "float"]
        assert len({argv[argv.index("--direction") + 1]
                    for argv in runs}) == 2
        spec = make_spec(family[1], **{k[2:]: int(v) for k, v in
                                       zip(family[2::2], family[3::2])})
        for argv in runs:
            pt = [complex(*c) if isinstance(c, list) else c
                  for c in json.loads(argv[argv.index("--point") + 1])]
            assert len(pt) == spec.dim
            assert contains(make_sos(spec), pt)
    for dim in (4, 6, 8):
        for _, direction in tool.directions(dim):
            coords = [complex(*c) if isinstance(c, list) else c
                      for c in direction]
            assert len(coords) == dim
            assert abs(sum(abs(c) ** 2 for c in coords) - 1.0) < 1e-15
        axis, off = (d for _, d in tool.directions(dim))
        assert sum(c != 0 for c in axis) == 1 and sum(c != 0 for c in off) == 2


def test_exact_extensions_close_the_grid(tmp_path, monkeypatch):
    # exact construct --variety and extend for I(2,3) and I(2,4) at source
    # dimension 1, seeds 1-8, degree 4; at least 10 of the extensions stay
    # exact (their plus composites vanish)
    tool = _tool()
    tail = tool.commands()[224:256]
    assert len(tail) == 32
    want = []
    for p, q in ((2, 3), (2, 4)):
        for seed in range(1, 9):
            jet = f"{len(want) + 224}.jet.json"
            want += [["construct", "--family", "I", "--p", str(p), "--q",
                      str(q), "--dim", "1", "--seed", str(seed), "--mode",
                      "exact", "--degree", "4", "--variety", "--out", jet],
                     ["extend", "--in", jet, "--out", f"{jet}.extend"]]
    assert [argv for _, argv in tail] == want
    monkeypatch.chdir(tmp_path)
    results = tool.collect(want)
    assert all(code == 0 for code, _, _ in results)
    modes = [json.loads((tmp_path / argv[-1]).read_text())["mode"]
             for argv in want if argv[0] == "extend"]
    assert modes.count("exact") >= 10


def test_repeated_sample_verifies_close_the_commands(tmp_path, monkeypatch):
    # verify --seed 5 --samples 40, twice in a row, on each seed-901
    # construct document at source dimension 2: one per family and mode
    tool = _tool()
    labelled = tool.commands()
    tail = labelled[256:276]
    assert len(tail) == 20
    jets = {argv[argv.index("--out") + 1]: argv for _, argv in labelled
            if argv[0] == "construct"}
    inputs = []
    for (_, first), (_, second) in zip(tail[::2], tail[1::2]):
        jet = first[first.index("--in") + 1]
        assert first == ["verify", "--in", jet, "--seed", "5", "--samples",
                         "40", "--out", f"{jet}.sampled1"]
        assert second == first[:-1] + [f"{jet}.sampled2"]
        construct = jets[jet]
        assert construct[construct.index("--seed") + 1] == "901"
        assert construct[construct.index("--dim") + 1] == "2"
        inputs.append(jet)
    assert len(set(inputs)) == 10
    # the warm second run writes the same document as the cold first one
    monkeypatch.chdir(tmp_path)
    construct = jets[inputs[0]]
    results = tool.collect([construct] + [argv for _, argv in tail[:2]])
    assert [code for code, _, _ in results] == [0, 0, 0]
    assert results[1][2] == results[2][2]
    doc = json.loads((tmp_path / f"{inputs[0]}.sampled1").read_text())
    assert doc["polarized-sample"]["samples"] == 40


def test_invariants_and_threshold_tables_close_the_commands(tmp_path,
                                                           monkeypatch):
    # invariants for one domain per family, in json and text, then the
    # threshold table of I, II and III up to 12, in csv and json, close the
    # commands on the tables; only the off-grid pipelines come after them
    tool = _tool()
    tail = tool.commands()[276:292]
    assert len(tail) == 16
    invariants = [argv for _, argv in tail[:14]]
    assert [argv[0] for argv in invariants] == ["invariants"] * 14
    assert [argv[argv.index("--format") + 1] for argv in invariants] == \
        ["json", "text"] * 7
    assert {argv[2] for argv in invariants} == set(FAMILIES)
    assert [argv[:-1] for _, argv in tail[14:]] == [
        ["threshold-table", "--families", "I,II,III", "--max", "12",
         "--format", fmt, "--out"] for fmt in ("csv", "json")]
    monkeypatch.chdir(tmp_path)
    results = tool.collect([argv for _, argv in tail])
    assert all(code == 0 and not err for code, err, _ in results)
    # a differing document of a command without a mode counts as "no mode"
    ours = [[0, [], f"here-{i}"] for i in range(len(tail))]
    kinds = tool.compare(tail, ours, results, tmp_path, tmp_path)[3]
    assert kinds == {("invariants", "no mode"): 14,
                     ("threshold-table", "no mode"): 2}
    # a text document is explained line by line
    table = tmp_path / tail[14][1][-1]
    other = tmp_path / "other.csv"
    lines = table.read_text().splitlines()
    other.write_text("\n".join(lines[:2] + ["I,p=3;q=5,2,3,false"]
                               + lines[3:]) + "\n")
    assert tool.explain(table, other) == ([
        f"  2: here {lines[2]!r}, other 'I,p=3;q=5,2,3,false'",
        "  1 paths differ, largest absolute numeric difference none "
        "(no numbers differ)"], None)


def test_off_grid_pipelines_come_last(tmp_path, monkeypatch):
    # construct --variety -> verify -> extend on two families outside the
    # construct grid, polydisk^2 at dimension 1 and I(2,2) at dimensions
    # 1-3, in both modes at both (seed, degree) runs, after the tables;
    # polydisk^2 fails the codimension inequality and I(2,2) at dimension 3
    # is at its bound, so those extends exit 2
    tool = _tool()
    tail = tool.commands()[292:]
    assert len(tail) == 48
    assert [argv[0] for _, argv in tail] == \
        ["construct", "verify", "extend"] * 16
    cases = collections.Counter()
    for _, argv in tail[::3]:
        cases[tuple(argv[1:argv.index("--dim") + 2])] += 1
        assert tuple(argv[argv.index(opt) + 1] for opt in (
            "--seed", "--degree")) in (("9", "6"), ("901", "4"))
    polydisk = ("--family", "polydisk", "--p", "2")
    square = ("--family", "I", "--p", "2", "--q", "2")
    assert cases == {polydisk + ("--dim", "1"): 4,
                     **{square + ("--dim", d): 4 for d in "123"}}
    monkeypatch.chdir(tmp_path)
    seed_901 = [argv for _, argv in tail[24:]]
    results = tool.collect(seed_901)
    for i, (argv, (code, err, _)) in enumerate(zip(seed_901, results)):
        construct = seed_901[i - i % 3]
        blocked = construct[2] == "polydisk" or \
            construct[construct.index("--dim") + 1] == "3"
        if argv[0] == "extend" and blocked:
            assert code == 2 and len(err) == 1
            assert ("codimension inequality" in err[0]) == \
                (construct[2] == "polydisk")
        else:
            assert (code, err) == (0, [])


def test_worker_records_exit_stderr_and_digest(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    argvs = [["construct", "--family", "IV", "--n", "4", "--dim", "1",
              "--degree", "4", "--out", "jet.json"],
             ["verify", "--in", "jet.json", "--degree", "9", "--out", "v"],
             ["verify", "--in", "jet.json", "--out", "v2"],
             ["verify", "--out", "v3"]]
    (code0, err0, sha0), (code1, err1, sha1), (code2, _, sha2), \
        (code3, _, sha3) = _tool().collect(argvs)
    assert (code0, err0, code2, code3) == (0, [], 0, 2)
    assert code1 == 2 and len(err1) == 1 and err1[0].startswith("error:")
    assert len(sha0) == len(sha2) == 64 and sha0 != sha2
    assert sha1 is None and sha3 is None


def test_differences_name_json_paths():
    here = {"a": {"x": 1.0, "y": [1, 2, "s"]}, "b": True, "c": 0,
            "only_here": 1, "list": [1, 2]}
    other = {"a": {"x": 1.5, "y": [1, 2, "t"]}, "b": 1, "c": 0.0,
             "only_other": 2, "list": [1]}
    assert _tool().differences(here, other) == [
        ("a/x", 1.0, 1.5),
        ("a/y/2", "s", "t"),
        ("b", True, 1),
        ("c", 0, 0.0),
        ("list", [1, 2], [1]),
        ("only_here", 1, None),
        ("only_other", None, 2),
    ]
    assert _tool().differences(here, here) == []


def test_explain_reports_paths_and_largest_gap(tmp_path):
    tool = _tool()
    here, other = tmp_path / "here.json", tmp_path / "other.json"
    per = {f"{p},1": 1e-16 * p for p in range(1, 13)}
    here.write_text(json.dumps({"functional-equation": {"per_bidegree": per},
                                "mode": "float"}))
    per = dict(per, **{"3,1": 5e-16, "12,1": 0.0})
    per.update({f"{p},1": 2e-16 * p for p in range(4, 12)})
    other.write_text(json.dumps({"functional-equation": {"per_bidegree": per},
                                 "mode": "exact"}))
    lines, largest = tool.explain(here, other)
    assert largest == pytest.approx(1.2e-15)
    assert lines[0] == ("  functional-equation/per_bidegree/10,1: "
                        f"here {1e-15!r}, other {2e-15!r}")
    assert lines[-2] == "  ... 1 more paths"
    assert lines[-1] == ("  11 paths differ, largest absolute numeric "
                         "difference 1.2e-15")
    assert len(lines) == tool.SHOWN_PATHS + 2
    here.write_text(json.dumps({"mode": "float"}))
    lines, largest = tool.explain(here, other)
    assert largest is None
    assert lines[-1].endswith("difference none (no numbers differ)")


def test_compare_tags_differences_propagated_from_the_input(tmp_path):
    tool = _tool()
    here, other = tmp_path / "here", tmp_path / "other"
    here.mkdir()
    other.mkdir()
    docs = {  # document -> (here, other) value of its one number
        "a.jet": (1.0, 1.0 + 2 ** -52),
        "a.jet.verify": (0.25, 0.75),
        "a.jet.extend": (2.0, 2.0),
        "b.jet": (3.0, 3.0),
        "b.jet.verify": (1e-16, 4e-16),
    }
    for name, (x, y) in docs.items():
        (here / name).write_text(json.dumps({"x": x}))
        (other / name).write_text(json.dumps({"x": y}))
    labelled = [("construct a", ["construct", "--out", "a.jet"]),
                ("verify a", ["verify", "--in", "a.jet", "--out",
                              "a.jet.verify"]),
                ("extend a", ["extend", "--in", "a.jet", "--out",
                              "a.jet.extend"]),
                ("construct b", ["construct", "--out", "b.jet"]),
                ("verify b", ["verify", "--in", "b.jet", "--out",
                              "b.jet.verify"])]

    def results(side):
        return [[0, [], f"{name}-{x if side == 0 else y}"]
                for name, (x, y) in docs.items()]

    lines, diffs, largest, kinds = tool.compare(
        labelled, results(0), results(1), here, other)
    heads = [line for line in lines if not line.startswith("  ")]
    assert diffs == 3
    assert [h.split(":")[0] for h in heads] == ["construct a", "verify a",
                                                "verify b"]
    assert heads[1].endswith(" (input differs)")
    assert not heads[0].endswith(")") and not heads[2].endswith(")")
    assert largest == {"identical": pytest.approx(3e-16), "differs": 0.5}
    # a construct without --mode is exact
    assert kinds == {("construct", "exact"): 1, ("verify", "exact"): 2}
    assert tool.summary(5, diffs, largest, kinds) == [
        "construct exact: 1", "verify exact: 2",
        "5 commands, 3 differences; largest absolute numeric difference in "
        "a differing document 3e-16 where its input is identical, 0.5 where "
        "its input differs; 3 exact-mode documents differ"]
    _, _, same, none = tool.compare(labelled, results(0), results(0), here,
                                    other)
    assert same == {"identical": None, "differs": None} and none == {}


def test_compare_counts_differing_exact_mode_documents(tmp_path):
    # construct and verify documents take the construct's --mode; an
    # extend document counts as exact when either side wrote mode "exact"
    tool = _tool()
    here, other = tmp_path / "here", tmp_path / "other"
    here.mkdir()
    other.mkdir()
    extend_modes = {"e": ("exact", "exact"), "f": ("float", "float"),
                    "g": ("float", "exact")}
    labelled = []
    for jet, mode in (("e.jet", "exact"), ("f.jet", "float"),
                      ("g.jet", "float")):
        x, y = extend_modes[jet[0]]
        for name, here_doc, other_doc in (
                (jet, {"v": 1}, {"v": 2}),
                (f"{jet}.verify", {"v": 1}, {"v": 2}),
                (f"{jet}.extend", {"mode": x, "v": 1}, {"mode": y, "v": 2})):
            (here / name).write_text(json.dumps(here_doc))
            (other / name).write_text(json.dumps(other_doc))
        labelled += [
            (f"construct {jet}", ["construct", "--mode", mode, "--out", jet]),
            (f"verify {jet}", ["verify", "--in", jet, "--out",
                               f"{jet}.verify"]),
            (f"extend {jet}", ["extend", "--in", jet, "--out",
                               f"{jet}.extend"])]
    ours = [[0, [], f"here-{i}"] for i in range(len(labelled))]
    theirs = [[0, [], f"other-{i}"] for i in range(len(labelled))]
    diffs, kinds = tool.compare(labelled, ours, theirs, here, other)[1::2]
    # e: construct, verify, extend; g: the extend document only
    assert diffs == 9
    assert kinds == {("construct", "exact"): 1, ("verify", "exact"): 1,
                     ("extend", "exact"): 2, ("construct", "float"): 2,
                     ("verify", "float"): 2, ("extend", "float"): 1}
    assert tool.summary(12, diffs, {"identical": None, "differs": None},
                        kinds)[:-1] == [
        "construct exact: 1", "construct float: 2", "extend exact: 2",
        "extend float: 1", "verify exact: 1", "verify float: 2"]
    theirs[1] = ours[1]  # the exact verify document agrees
    kinds = tool.compare(labelled, ours, theirs, here, other)[3]
    assert ("verify", "exact") not in kinds
    assert tool.summary(12, 8, {"identical": None, "differs": None},
                        kinds)[-1].endswith("; 3 exact-mode documents differ")


def test_compare_counts_exact_kernel_documents(tmp_path):
    # a kernel document takes its command's --mode
    tool = _tool()
    here, other = tmp_path / "here", tmp_path / "other"
    here.mkdir()
    other.mkdir()
    labelled = []
    for name, mode in (("e.kernel", "exact"), ("f.kernel", "float")):
        (here / name).write_text(json.dumps({"curvature": -1.0}))
        (other / name).write_text(json.dumps({"curvature": -1.0 + 2 ** -52}))
        labelled.append((f"kernel {name}", [
            "kernel", "--mode", mode, "--direction", "[1.0]", "--out", name]))
    ours = [[0, [], "here-e"], [0, [], "here-f"]]
    theirs = [[0, [], "other-e"], [0, [], "other-f"]]
    _, diffs, largest, kinds = tool.compare(labelled, ours, theirs,
                                            here, other)
    assert diffs == 2
    assert kinds == {("kernel", "exact"): 1, ("kernel", "float"): 1}
    assert largest == {"identical": 2 ** -52, "differs": None}


def test_by_path_groups_differences_across_documents(tmp_path):
    # one line per differing leaf path, in path order: the number of
    # documents that differ there and the largest numeric gap among them
    tool = _tool()
    pairs = []
    for name, here_doc, other_doc in (
            ("a", {"jac": {"max_residual": 1e-16}, "mode": "float"},
             {"jac": {"max_residual": 2e-16}, "mode": "float"}),
            ("b", {"jac": {"max_residual": 0.0}, "mode": "float"},
             {"jac": {"max_residual": 2.5e-16}, "mode": "exact"}),
            ("c", {"jac": {"max_residual": 0.0}},
             {"jac": {"max_residual": 0.0}})):
        here, other = tmp_path / f"{name}.here", tmp_path / f"{name}.other"
        here.write_text(json.dumps(here_doc))
        other.write_text(json.dumps(other_doc))
        pairs.append((here, other))
    lines = tool.by_path(pairs)
    assert lines[0] == ("jac/max_residual: 2 documents differ, largest "
                        "absolute numeric difference 2.5e-16")
    assert lines[1] == ("mode: 1 documents differ, largest absolute numeric "
                        "difference none (no numbers differ)")
    assert len(lines) == 2
    assert tool.by_path(pairs[2:]) == []
