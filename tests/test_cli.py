"""End-to-end command line checks through subprocess calls."""

import copy
import io
import itertools
import json
import math
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from symdom import (BidegPoly, HoloPoly, cli, domains, isometry, kernels,
                    poly, serialize)
from symdom.cli import main

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))
from workloads import CONSTRUCT_GRID  # noqa: E402


def run_cli(*argv, expect=0):
    proc = subprocess.run([sys.executable, "-m", "symdom.cli", *argv],
                          capture_output=True, text=True)
    assert proc.returncode == expect, proc.stderr or proc.stdout
    return proc


def test_invariants_json():
    proc = run_cli("invariants", "--family", "IV", "--n", "5")
    doc = json.loads(proc.stdout)
    assert doc["label"] == "IV(5)"
    assert doc["dim"] == 5
    assert doc["rank"] == 2
    assert doc["null_dims"] == [1, 0]
    assert doc["ball_dim_bound"] == 4
    assert doc["rank2_codim_inequality"] is True
    assert doc["dim_upper_bound"] == {"1": 4, "2": 1}


def test_invariants_text_format():
    proc = run_cli("invariants", "--family", "III", "--m", "7",
                   "--format", "text")
    assert "null_threshold: 4" in proc.stdout


def test_invariants_missing_param_exits_2():
    run_cli("invariants", "--family", "I", "--p", "2", expect=2)


def test_threshold_table_csv():
    proc = run_cli("threshold-table", "--families", "III", "--max", "12")
    lines = proc.stdout.strip().splitlines()
    assert lines[0] == "family,params,brute,closed_form,agree"
    assert "III,m=7,4,4,true" in lines
    assert all(line.endswith("true") for line in lines[1:])


# the (family, params) column of `threshold-table --families I,II,III
# --max 12`, as literal text: I for 3 <= p <= q but (3, 3), II from m = 8,
# III from m = 3
THRESHOLD_ROWS_12 = """
    I,p=3;q=4 I,p=3;q=5 I,p=3;q=6 I,p=3;q=7 I,p=3;q=8 I,p=3;q=9
    I,p=3;q=10 I,p=3;q=11 I,p=3;q=12 I,p=4;q=4 I,p=4;q=5 I,p=4;q=6
    I,p=4;q=7 I,p=4;q=8 I,p=4;q=9 I,p=4;q=10 I,p=4;q=11 I,p=4;q=12
    I,p=5;q=5 I,p=5;q=6 I,p=5;q=7 I,p=5;q=8 I,p=5;q=9 I,p=5;q=10
    I,p=5;q=11 I,p=5;q=12 I,p=6;q=6 I,p=6;q=7 I,p=6;q=8 I,p=6;q=9
    I,p=6;q=10 I,p=6;q=11 I,p=6;q=12 I,p=7;q=7 I,p=7;q=8 I,p=7;q=9
    I,p=7;q=10 I,p=7;q=11 I,p=7;q=12 I,p=8;q=8 I,p=8;q=9 I,p=8;q=10
    I,p=8;q=11 I,p=8;q=12 I,p=9;q=9 I,p=9;q=10 I,p=9;q=11 I,p=9;q=12
    I,p=10;q=10 I,p=10;q=11 I,p=10;q=12 I,p=11;q=11 I,p=11;q=12
    I,p=12;q=12 II,m=8 II,m=9 II,m=10 II,m=11 II,m=12 III,m=3 III,m=4
    III,m=5 III,m=6 III,m=7 III,m=8 III,m=9 III,m=10 III,m=11 III,m=12
""".split()


def test_threshold_table_rows_of_every_family(tmp_path):
    argv = ["threshold-table", "--families", "I,II,III", "--max", "12"]
    assert main(argv + ["--out", str(tmp_path / "t.csv")]) == 0
    lines = (tmp_path / "t.csv").read_text().splitlines()
    assert [line.rsplit(",", 3)[0] for line in lines[1:]] == THRESHOLD_ROWS_12
    assert main(argv + ["--format", "json",
                        "--out", str(tmp_path / "t.json")]) == 0
    doc = json.loads((tmp_path / "t.json").read_text())
    assert doc["mismatches"] == 0
    assert [r["family"] + "," + ";".join(f"{k}={v}" for k, v in
                                         sorted(r["params"].items()))
            for r in doc["rows"]] == THRESHOLD_ROWS_12


def test_threshold_table_rejects_quadric_family():
    run_cli("threshold-table", "--families", "IV", expect=2)


def test_kernel_point_value():
    proc = run_cli("kernel", "--family", "polydisk", "--p", "2",
                   "--point", "[0.1, 0.2]")
    doc = json.loads(proc.stdout)
    want = (1 - 0.01) * (1 - 0.04)
    assert abs(doc["kernel_value"][0] - want) < 1e-12
    assert abs(doc["kernel_value"][1]) < 1e-15
    assert doc["inside_domain"] is True
    assert doc["odd_count"] == 2 and doc["even_count"] == 1


def test_kernel_curvature():
    proc = run_cli("kernel", "--family", "IV", "--n", "4",
                   "--direction", "[1, 0, 0, 0]")
    doc = json.loads(proc.stdout)
    assert abs(doc["curvature"] + 1.0) < 1e-9
    assert doc["curvature_window"] == [-2.0, -1.0]


def test_kernel_bad_point_exits_2():
    run_cli("kernel", "--family", "IV", "--n", "4", "--point", "[0.1]",
            expect=2)


@pytest.mark.parametrize("option, value, code, message", [
    ("--point", "[NaN, 0, 0, 0]", 2, "not finite"),
    ("--point", "[Infinity, 0, 0, 0]", 2, "not finite"),
    ("--point", "[[0, NaN], 0, 0, 0]", 2, "not finite"),
    ("--point", '[[0, "1"], 0, 0, 0]', 2, "bad coordinate"),
    ("--point", "[true, 0, 0, 0]", 2, "bad coordinate"),
    ("--point", "[1" + "0" * 400 + ", 0, 0, 0]", 2, "not finite"),
    ("--direction", "[NaN, 0, 0, 0]", 2, "not finite"),
    ("--point", "[1e200, 0, 0, 0]", 0, ""),
    ("--direction", "[1e200, 0, 0, 0]", 2, "Euclidean-unit"),
], ids=["nan-point", "inf-point", "nan-imaginary", "string-imaginary",
        "bool-coordinate", "huge-integer", "nan-direction", "huge-point",
        "huge-direction"])
def test_kernel_nonfinite_or_huge_input(capsys, option, value, code,
                                        message):
    argv = ["kernel", "--family", "IV", "--n", "4", option, value]
    assert main(argv) == code
    out, err = capsys.readouterr()
    if code:
        assert err.startswith("error:") and message in err
        assert len(err.strip().splitlines()) == 1
    else:
        assert json.loads(out)["inside_domain"] is False


def test_construct_verify_extend_roundtrip(tmp_path):
    jet_file = tmp_path / "jet.json"
    proc = run_cli("construct", "--family", "IV", "--n", "4", "--dim", "2",
                   "--seed", "42", "--out", str(jet_file))
    assert proc.stdout == ""
    doc = json.loads(jet_file.read_text())
    assert doc["schema"] == "isometry-jet/1"
    assert doc["seed"] == 42
    assert doc["verification"]["passed"] is True
    assert doc["verification"]["functional-equation"]["max_residual"] == 0.0

    run_cli("verify", "--in", str(jet_file))

    ext_file = tmp_path / "ext.json"
    run_cli("extend", "--in", str(jet_file), "--out", str(ext_file))
    ext = json.loads(ext_file.read_text())
    assert ext["schema"] == "extension/1"
    assert ext["extended"]["jet"]["source_dim"] == 3
    assert ext["composition_residual"] < 1e-9
    assert ext["verification"]["passed"] is True


def test_construct_with_variety(tmp_path):
    jet_file = tmp_path / "jet.json"
    run_cli("construct", "--family", "I", "--p", "2", "--q", "3",
            "--dim", "3", "--seed", "5", "--variety", "--out", str(jet_file))
    doc = json.loads(jet_file.read_text())
    assert doc["variety"]["kind"] == "k1"
    assert len(doc["variety"]["equations"]) == 3


def test_construct_determinism(tmp_path):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    run_cli("construct", "--family", "IV", "--n", "3", "--dim", "2",
            "--seed", "9", "--out", str(a))
    run_cli("construct", "--family", "IV", "--n", "3", "--dim", "2",
            "--seed", "9", "--out", str(b))
    assert a.read_bytes() == b.read_bytes()


def test_construct_rejected_family_exits_2():
    # the 2 x 5 matrix domain misses the codimension inequality
    run_cli("construct", "--family", "I", "--p", "2", "--q", "5",
            "--dim", "1", expect=2)


def test_construct_dim_gate_exits_2():
    run_cli("construct", "--family", "IV", "--n", "3", "--dim", "3",
            expect=2)


@pytest.mark.parametrize("domain, dim, message", [
    (("I", "--p", "2", "--q", "5"), 1,
     "source dimension 1 outside 1..0 for I(2,5)"),
    (("IV", "--n", "3"), 3, "source dimension 3 outside 1..2 for IV(3)"),
    (("I", "--p", "3", "--q", "3"), 1,
     "construct needs a domain of rank at most 2; I(3,3) has rank 3"),
    (("polydisk", "--p", "3"), 1,
     "construct needs a domain of rank at most 2; polydisk^3 has rank 3"),
], ids=["codim-inequality", "dim-bound", "rank-3-matrix", "rank-3-polydisk"])
def test_construct_gate_messages(tmp_path, capsys, domain, dim, message):
    jet_file = tmp_path / "jet.json"
    argv = ["construct", "--family", *domain, "--dim", str(dim),
            "--out", str(jet_file)]
    assert main(argv) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not jet_file.exists()


def test_verify_perturbed_jet_exits_1(tmp_path):
    jet_file = tmp_path / "jet.json"
    run_cli("construct", "--family", "IV", "--n", "3", "--dim", "1",
            "--seed", "1", "--mode", "float", "--out", str(jet_file))
    doc = json.loads(jet_file.read_text())
    target = max((t for comp in doc["jet"]["components"]
                  for t in comp["terms"]),
                 key=lambda t: abs(t["coeff"]["re"]))
    assert abs(target["coeff"]["re"]) > 0.05
    target["coeff"]["re"] += 1e-3
    bad_file = tmp_path / "bad.json"
    bad_file.write_text(json.dumps(doc))
    proc = subprocess.run(
        [sys.executable, "-m", "symdom.cli", "verify", "--in", str(bad_file)],
        capture_output=True, text=True)
    assert proc.returncode == 1
    report = json.loads(proc.stdout)
    assert report["passed"] is False
    assert report["functional-equation"]["max_residual"] >= 1e-4


@pytest.mark.parametrize("degree", [2, 4])
def test_verify_nan_coefficient_exits_2(tmp_path, degree):
    jet_file = tmp_path / "jet.json"
    run_cli("construct", "--family", "IV", "--n", "4", "--dim", "2",
            "--seed", "1", "--mode", "float", "--degree", "4",
            "--out", str(jet_file))
    doc = json.loads(jet_file.read_text())
    target = next(t for comp in doc["jet"]["components"]
                  for t in comp["terms"] if sum(t["exp"]) == degree)
    target["coeff"]["re"] = float("nan")
    bad_file = tmp_path / "bad.json"
    bad_file.write_text(json.dumps(doc))
    run_cli("verify", "--in", str(bad_file), expect=2)


@pytest.mark.parametrize("mode", ["exact", "float"])
def test_pullback_computed_once_per_jet(tmp_path, monkeypatch, mode):
    # exact checks square the composites through h_pullback, float checks
    # through the signed Gram product
    calls = []
    name = "h_pullback" if mode == "exact" else "signed_gram"
    real = getattr(isometry, name)

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(isometry, name, counting)
    jet_file = tmp_path / "jet.json"
    assert main(["construct", "--family", "IV", "--n", "4", "--dim", "1",
                 "--seed", "42", "--mode", mode, "--degree", "4",
                 "--out", str(jet_file)]) == 0
    assert len(calls) == 1
    calls.clear()
    assert main(["extend", "--in", str(jet_file),
                 "--out", str(tmp_path / "ext.json")]) == 0
    assert len(calls) == 2


@pytest.mark.parametrize("mode", ["exact", "float"])
def test_extend_composes_generators_with_its_input_once(tmp_path,
                                                        monkeypatch, mode):
    # the input jet's generator stack is composed once and sliced for the
    # plus block; the rebuilt jet's check uses the stack its solve left;
    # the coordinates are never composed, they give the jet back
    calls = []
    real = kernels.compose_truncate

    def recording(outer, inner, d):
        calls.append((outer, inner))
        return real(outer, inner, d)

    for module in (kernels, isometry):
        monkeypatch.setattr(module, "compose_truncate", recording)
    jet_file, ext_file = tmp_path / "jet.json", tmp_path / "ext.json"
    assert main(["construct", "--family", "IV", "--n", "5", "--dim", "2",
                 "--seed", "42", "--mode", mode, "--degree", "4",
                 "--out", str(jet_file)]) == 0
    calls.clear()
    assert main(["extend", "--in", str(jet_file),
                 "--out", str(ext_file)]) == 0
    given = serialize.iso_from_json(json.loads(jet_file.read_text()))
    built = serialize.iso_from_json(json.loads(ext_file.read_text())
                                    ["extended"])
    gens = list(given.sos.odd + given.sos.even)

    def generator_calls(jet):
        return sum(1 for outer, inner in calls
                   if inner == jet.jet
                   and all(g in gens for g in outer.components))

    assert generator_calls(given) == 1
    assert generator_calls(built) == 0
    coords = given.sos.odd[:given.sos.nvars]
    assert not any(g is c for outer, _ in calls for g in outer.components
                   for c in coords)


@pytest.mark.parametrize("mode", ["exact", "float"])
def test_commands_need_no_tracer_only_names(tmp_path, monkeypatch, mode):
    # the pipeline runs without the product, substitution and sandwich
    # methods, which only bench/tracer.py and the tests still name
    def unused(*args, **kwargs):
        raise AssertionError("called a method the library no longer uses")

    monkeypatch.setattr(HoloPoly, "mul_trunc", unused)
    monkeypatch.setattr(HoloPoly, "substitute", unused)
    monkeypatch.setattr(BidegPoly, "sandwich", unused)
    jet_file = tmp_path / "jet.json"
    assert main(["construct", "--family", "IV", "--n", "4", "--dim", "1",
                 "--seed", "42", "--mode", mode, "--degree", "4",
                 "--variety", "--out", str(jet_file)]) == 0
    assert main(["verify", "--in", str(jet_file),
                 "--out", str(tmp_path / "report.json")]) == 0
    assert main(["extend", "--in", str(jet_file),
                 "--out", str(tmp_path / "ext.json")]) == 0


# one valid parameter set per family of domains.FAMILIES
INVARIANTS_OPTIONS = {"I": ["--p", "3", "--q", "5"], "II": ["--m", "8"],
                      "III": ["--m", "7"], "IV": ["--n", "5"], "V": [],
                      "VI": [], "polydisk": ["--p", "3"]}


def test_documents_need_no_fallback_writer(tmp_path, monkeypatch):
    # dumps writes every library document itself: the json.dumps fallback,
    # the only caller of strict_json_value on this route, is never reached
    def fallback(obj):
        raise AssertionError("a document fell back to json.dumps")

    monkeypatch.setattr(serialize, "strict_json_value", fallback)
    assert set(INVARIANTS_OPTIONS) == set(domains.FAMILIES)
    argvs = [["invariants", "--family", family, *options]
             for family, options in INVARIANTS_OPTIONS.items()]
    argvs.append(["threshold-table", "--format", "json"])
    for mode in ("exact", "float"):
        jet = str(tmp_path / f"{mode}.json")
        argvs += [["construct", "--family", "I", "--p", "2", "--q", "3",
                   "--dim", "2", "--seed", "3", "--mode", mode, "--degree",
                   "4", "--variety", "--out", jet],
                  ["verify", "--in", jet], ["extend", "--in", jet],
                  ["kernel", "--family", "IV", "--n", "4", "--mode", mode,
                   "--point", "[0.1, 0, 0, [0.05, -0.2]]",
                   "--direction", "[0.6, 0, 0, [0, 0.8]]"]]
    for i, argv in enumerate(argvs):
        if "--out" not in argv:
            argv += ["--out", str(tmp_path / f"{i}.json")]
        assert main(argv + ["--format", "json"]) == 0, argv
        assert json.loads(Path(argv[argv.index("--out") + 1]).read_text())


@pytest.mark.parametrize("exc", [MemoryError(), MemoryError(
    "Unable to allocate 2.98 TiB for an array with shape (100000000000, 2, 2)"
    " and data type complex128")], ids=["bare", "numpy"])
def test_out_of_memory_exits_2(tmp_path, monkeypatch, capsys, iv4_jet_doc,
                               exc):
    # an allocation that fails is a bad parameter, not a failed check; the
    # allocation itself is not attempted, since it may succeed lazily
    def exhausted(*args, **kwargs):
        raise exc

    monkeypatch.setattr(cli, "full_verification_report", exhausted)
    jet_file = tmp_path / "jet.json"
    jet_file.write_text(json.dumps(iv4_jet_doc))
    assert main(["verify", "--in", str(jet_file),
                 "--samples", "100000000000"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: out of memory")
    assert len(captured.err.strip().splitlines()) == 1


def test_failed_write_leaves_no_temporary_file(tmp_path, capsys):
    # the document cannot replace a directory: exit 2 with the OS message,
    # and its temporary copy is removed
    out = tmp_path / "out"
    out.mkdir()
    assert main(["construct", "--family", "IV", "--n", "4", "--dim", "1",
                 "--degree", "4", "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        f"error: [Errno 21] Is a directory: '{out}.tmp' -> '{out}'\n")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["out"]
    assert not any(out.iterdir())


@pytest.mark.parametrize("samples", ["0", "-3"])
def test_verify_without_samples_exits_2(tmp_path, samples):
    jet_file = tmp_path / "jet.json"
    run_cli("construct", "--family", "IV", "--n", "4", "--dim", "2",
            "--seed", "1", "--mode", "float", "--degree", "4",
            "--out", str(jet_file))
    proc = run_cli("verify", "--in", str(jet_file), "--samples", samples,
                   expect=2)
    assert proc.stderr.startswith("error:")


def test_verify_beyond_the_sample_bound_exits_2_before_drawing(
        tmp_path, monkeypatch, capsys, iv4_jet_doc):
    # one sample above the bound is refused with a line naming the flag,
    # and no point is drawn
    drawn = []
    monkeypatch.setattr(isometry, "_sample_pairs",
                        lambda *key: drawn.append(key))
    jet_file = tmp_path / "jet.json"
    jet_file.write_text(json.dumps(iv4_jet_doc))
    capsys.readouterr()
    assert main(["verify", "--in", str(jet_file), "--samples",
                 str(isometry.MAX_SAMPLES + 1)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and drawn == []
    assert captured.err == ("error: --samples 4097 exceeds the bound "
                            "4096\n")


def _bad_coefficient(comp):
    comp["terms"][0]["coeff"]["re"] = "x"


def _long_exponent(comp):
    comp["terms"].append({"exp": [0, 1, 0],
                          "coeff": {"re": 0.5, "im": 0.0}})


def _negative_exponent(comp):
    comp["terms"].append({"exp": [-1, 2], "coeff": {"re": 0.5, "im": 0.0}})


def _zero_denominator(comp):
    comp["terms"][0]["coeff"]["ar"] = "1/0"


def _huge_float_part(comp):
    comp["terms"][0]["coeff"]["re"] = 10 ** 400


def _huge_exact_part(comp):
    comp["terms"][0]["coeff"]["ar"] = 10 ** 400


MALFORMED = [("float", _bad_coefficient), ("float", _long_exponent),
             ("float", _negative_exponent), ("exact", _zero_denominator),
             ("float", _huge_float_part), ("exact", _huge_exact_part)]


@pytest.mark.parametrize("mode, corrupt", MALFORMED,
                         ids=[c.__name__ for _, c in MALFORMED])
def test_verify_malformed_jet_exits_2(tmp_path, mode, corrupt):
    jet_file = tmp_path / "jet.json"
    run_cli("construct", "--family", "IV", "--n", "4", "--dim", "2",
            "--seed", "1", "--mode", mode, "--degree", "4",
            "--out", str(jet_file))
    doc = json.loads(jet_file.read_text())
    corrupt(doc["jet"]["components"][0])
    bad_file = tmp_path / "bad.json"
    bad_file.write_text(json.dumps(doc))
    proc = run_cli("verify", "--in", str(bad_file), expect=2)
    assert proc.stderr.startswith("error:")
    assert len(proc.stderr.strip().splitlines()) == 1


@pytest.fixture(scope="module")
def iv4_jet_doc(tmp_path_factory):
    """The constructed exact IV(4) dim-1 jet (seed 3, degree 4)."""
    path = tmp_path_factory.mktemp("iv4") / "jet.json"
    assert main(["construct", "--family", "IV", "--n", "4", "--dim", "1",
                 "--seed", "3", "--degree", "4", "--out", str(path)]) == 0
    return json.loads(path.read_text())


def _no_bare_constant(token):
    raise AssertionError(f"bare {token} in a JSON document")


@pytest.mark.parametrize("command, fmt", [("verify", "json"),
                                          ("extend", "json"),
                                          ("verify", "text")],
                         ids=["verify", "extend", "verify-text"])
def test_overflowing_exact_jet_fails_checks(tmp_path, iv4_jet_doc, command,
                                            fmt):
    # its square in the residual and in conj(J)^T J is beyond float range
    doc = copy.deepcopy(iv4_jet_doc)
    term = next(t for comp in doc["jet"]["components"]
                for t in comp["terms"] if sum(t["exp"]) == 1)
    term["coeff"]["ar"] = str(10 ** 200)
    bad_file = tmp_path / "bad.json"
    bad_file.write_text(json.dumps(doc))
    proc = run_cli(command, "--in", str(bad_file), "--format", fmt,
                   expect=1)
    assert "RuntimeWarning" not in proc.stderr
    if command == "verify":
        if fmt == "json":
            report = json.loads(proc.stdout,
                                parse_constant=_no_bare_constant)
        else:  # one "key: JSON value" line per key
            report = {}
            for line in proc.stdout.splitlines():
                key, value = line.split(": ", 1)
                report[key] = json.loads(value,
                                         parse_constant=_no_bare_constant)
        assert report["passed"] is False
        assert report["functional-equation"]["passed"] is False
        assert report["jacobian-normalization"]["passed"] is False
    else:
        assert proc.stderr.startswith("verification failed:")
        assert len(proc.stderr.strip().splitlines()) == 1


@pytest.mark.parametrize("deg", [1, 2])
def test_subnormal_exact_perturbation_fails_verify(tmp_path, iv4_jet_doc,
                                                   deg):
    # 10^-400 added to one coefficient leaves FE entries below float range;
    # a nonzero exact entry reads the smallest positive float, never 0.0
    doc = copy.deepcopy(iv4_jet_doc)
    term = next(t for comp in doc["jet"]["components"]
                for t in comp["terms"] if sum(t["exp"]) == deg)
    term["coeff"]["ar"] = str(Fraction(term["coeff"]["ar"])
                              + Fraction(1, 10 ** 400))
    bad_file, out = tmp_path / "bad.json", tmp_path / "report.json"
    bad_file.write_text(json.dumps(doc))
    assert main(["verify", "--in", str(bad_file), "--tol", "0",
                 "--out", str(out)]) == 1
    report = json.loads(out.read_text())
    fe, jac = report["functional-equation"], report["jacobian-normalization"]
    assert fe["max_residual"] == math.ulp(0.0) and not fe["passed"]
    assert fe["per_bidegree"] and all(
        v == math.ulp(0.0) for v in fe["per_bidegree"].values())
    # the jacobian is the FE check's (1,1) block
    assert jac["max_residual"] == fe["per_bidegree"].get("1,1", 0.0)
    assert jac["passed"] is (deg != 1)


def _replace(*path_and_value):
    *path, value = path_and_value

    def corrupt(doc):
        node = doc
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value
        return doc
    return corrupt


def _repeat_first_term(doc):
    terms = doc["jet"]["components"][0]["terms"]
    terms.append(copy.deepcopy(terms[0]))
    return doc


MALFORMED_DOCS = {
    "components": _replace("jet", "components", 3),
    "terms": _replace("jet", "components", 0, "terms", {"a": 1}),
    "degree": _replace("jet", "degree", "4"),
    "domain": _replace("domain", []),
    "params": _replace("domain", "params", "n=4"),
    "family": _replace("domain", "family", 4),
    "coeff": _replace("jet", "components", 0, "terms", 0, "coeff", [1, 2]),
    "top_level_list": lambda doc: [doc],
    "isometric_constant": _replace("isometric_constant", 1.5),
    "source_dim": _replace("jet", "source_dim", 3),
    "source_dim_string": _replace("jet", "source_dim", "1"),
    "float_mode_exact_coeffs": _replace("jet", "components", 0, "mode",
                                        "float"),
    "repeated_exponent": _repeat_first_term,
}


@pytest.mark.parametrize("corrupt", MALFORMED_DOCS.values(),
                         ids=MALFORMED_DOCS.keys())
def test_malformed_document_exits_2(tmp_path, capsys, iv4_jet_doc, corrupt):
    bad_file = tmp_path / "bad.json"
    bad_file.write_text(json.dumps(corrupt(copy.deepcopy(iv4_jet_doc))))
    assert main(["verify", "--in", str(bad_file)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert len(err.strip().splitlines()) == 1


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
    lambda kids: st.lists(kids, max_size=3)
    | st.dictionaries(st.text(max_size=4), kids, max_size=3),
    max_leaves=6)


def _node_paths(node, path=()):
    yield path
    if isinstance(node, (dict, list)):
        keys = node if isinstance(node, dict) else range(len(node))
        for key in keys:
            yield from _node_paths(node[key], path + (key,))


@settings(max_examples=100, derandomize=True, database=None, deadline=None)
@given(data=st.data())
def test_fuzzed_document_keeps_exit_contract(tmp_path_factory, iv4_jet_doc,
                                             data):
    doc = {key: iv4_jet_doc[key]
           for key in ("schema", "domain", "isometric_constant", "jet")}
    path = data.draw(st.sampled_from(list(_node_paths(doc))))
    value = data.draw(JSON_VALUES)
    doc = _replace(*path, value)(copy.deepcopy(doc)) if path else value
    tmp = tmp_path_factory.getbasetemp()
    (tmp / "fuzz.json").write_text(json.dumps(doc))
    command = data.draw(st.sampled_from(["verify", "extend"]))
    argv = [command, "--in", str(tmp / "fuzz.json"),
            "--out", str(tmp / "out.json")]
    assert main(argv) in (0, 1, 2)


@pytest.mark.parametrize("tol", ["nan", "inf", "-inf", "-1e-9"],
                         ids=["nan", "inf", "minus-inf", "negative"])
@pytest.mark.parametrize("command", ["construct", "verify", "extend"])
def test_bad_tolerance_exits_2(tmp_path, capsys, iv4_jet_doc, command, tol):
    jet_file = tmp_path / "jet.json"
    jet_file.write_text(json.dumps(iv4_jet_doc))
    if command == "construct":
        argv = ["construct", "--family", "IV", "--n", "4", "--dim", "1",
                "--seed", "3", "--degree", "4"]
    else:
        argv = [command, "--in", str(jet_file)]
    assert main(argv + [f"--tol={tol}", "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "--tol" in err
    assert len(err.strip().splitlines()) == 1


@pytest.mark.parametrize("argv", [
    ["construct", "--family", "IV", "--n", "4", "--dim", "1", "--degree",
     "4", "--seed", "-5", "--mode", "exact"],
    ["construct", "--family", "IV", "--n", "4", "--dim", "1", "--degree",
     "4", "--seed", "-5", "--mode", "float"],
    ["verify", "--seed", "-1"]], ids=["construct-exact", "construct-float",
                                      "verify"])
def test_negative_seed_exits_2(tmp_path, capsys, iv4_jet_doc, argv):
    # refused before anything runs, with a message that names the option
    jet_file = tmp_path / "jet.json"
    jet_file.write_text(json.dumps(iv4_jet_doc))
    if argv[0] == "verify":
        argv = argv + ["--in", str(jet_file)]
    assert main(argv + ["--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "--seed" in err
    assert len(err.strip().splitlines()) == 1
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("mode", ["exact", "float"])
@pytest.mark.parametrize("degree", [-1, 0, 1])
def test_construct_degree_below_two_exits_2(tmp_path, capsys, degree, mode):
    # the solve refuses before it completes the rows, with the message the
    # check gives degree 1
    argv = ["construct", "--family", "IV", "--n", "4", "--dim", "1",
            "--mode", mode, "--degree", str(degree),
            "--out", str(tmp_path / "jet.json")]
    assert main(argv) == 2
    assert capsys.readouterr().err == (
        f"error: truncation degree {degree} cannot see isometric constant "
        f"1: need at least 2\n")
    assert not (tmp_path / "jet.json").exists()


def _plus_tenth_doc(doc, deg):
    """A copy of a jet document with 1/10 added to the first degree-deg
    coefficient of its first component with a linear part (to a new
    w_1^deg term there when it has none)."""
    doc = copy.deepcopy(doc)
    terms = next(comp["terms"] for comp in doc["jet"]["components"]
                 if any(sum(t["exp"]) == 1 for t in comp["terms"]))
    term = next((t for t in terms if sum(t["exp"]) == deg), None)
    if term is None:
        zero = ({"ar": "0", "ai": "0", "br": "0", "bi": "0"}
                if doc["jet"]["mode"] == "exact" else {"re": 0.0, "im": 0.0})
        term = {"coeff": zero,
                "exp": [deg] + [0] * (doc["jet"]["source_dim"] - 1)}
        terms.append(term)
    coeff = term["coeff"]
    if "ar" in coeff:
        coeff["ar"] = str(Fraction(coeff["ar"]) + Fraction(1, 10))
    else:
        coeff["re"] += 0.1
    return doc


@pytest.mark.parametrize("mode", ["exact", "float"])
def test_degree_2_grid_constructs_exit_0(tmp_path, capsys, mode):
    # below degree 4 the polarized sample's radius shrinks with the degree,
    # so the truncated true isometries of the grid pass at degree 2 (at
    # the fixed radius 0.03 they read up to 1.9e-9 against 1e-10), and
    # their documents verify.  1/10 added to a degree-1 coefficient, or to
    # a degree-2 one of a component with a linear part (an error of order
    # r ** 3), still fails
    jet_file, bad_file = tmp_path / "jet.json", tmp_path / "bad.json"
    for family, params, dims in CONSTRUCT_GRID:
        opts = [x for k, v in params.items() for x in (f"--{k}", str(v))]
        for dim, seed in itertools.product(dims, (1, 2, 3)):
            argv = ["construct", "--family", family, *opts, "--dim",
                    str(dim), "--seed", str(seed), "--mode", mode,
                    "--degree", "2", "--out", str(jet_file)]
            assert main(argv) == 0, argv
            assert main(["verify", "--in", str(jet_file)]) == 0, argv
            doc = json.loads(jet_file.read_text())
            assert doc["verification"]["polarized-sample"]["radius"] == \
                0.03 ** 1.5
            for deg in (1, 2):
                bad_file.write_text(json.dumps(_plus_tenth_doc(doc, deg)))
                assert main(["verify", "--in", str(bad_file)]) == 1, \
                    (argv, deg)
    capsys.readouterr()


def _inclusion_gap(slice_doc) -> float:
    """Largest coefficient distance of a slice map from the coordinate
    inclusion C^n -> C^n0."""
    rho = serialize.jet_from_json(slice_doc)
    incl = [[float(i == j) for j in range(rho.source_dim)]
            for i in range(rho.target_dim)]
    return rho.max_coeff_distance(poly.JetMap.from_linear(incl, rho.degree))


@pytest.mark.parametrize("family, dim, seed, delta", [
    (("IV", "--n", "5"), 2, 3, 1e-9),
    (("IV", "--n", "4"), 1, 2, 1e-10),
    (("I", "--p", "2", "--q", "4"), 1, 1, 1e-10),
    (("IV", "--n", "6"), 1, 3, 1e-10),
    (("IV", "--n", "4"), 1, 3, 1e-10),
    (("I", "--p", "2", "--q", "3"), 1, 1, 1e-9),
    (("IV", "--n", "6"), 2, 1, 1e-9),
    (("I", "--p", "2", "--q", "4"), 1, 2, 1e-9),
], ids=["IV5-dim2", "IV4-dim1", "I24-dim1", "IV6-dim1", "IV4-dim1-seed3",
        "I23-dim1", "IV6-dim2", "I24-dim1-seed2"])
def test_extend_accepts_float_jets_that_verify(tmp_path, capsys, family, dim,
                                               seed, delta):
    # delta added to a degree-2 coefficient leaves a jet that verifies at
    # --tol, and extend accepts it: the polar-factor match is unitary to
    # rounding.  F is built from the matched unitary's own rows, so the
    # slice is the inclusion, and the unperturbed jet factors through it
    # to rounding
    jet_file, out = tmp_path / "jet.json", tmp_path / "ext.json"
    assert main(["construct", "--family", *family, "--dim", str(dim),
                 "--seed", str(seed), "--mode", "float", "--degree", "4",
                 "--out", str(jet_file)]) == 0
    assert main(["extend", "--in", str(jet_file), "--out", str(out)]) == 0
    ext = json.loads(out.read_text())
    assert ext["composition_residual"] <= 1e-12
    assert _inclusion_gap(ext["slice"]) <= 1e-12
    doc = json.loads(jet_file.read_text())
    term = next(t for t in doc["jet"]["components"][0]["terms"]
                if sum(t["exp"]) == 2)
    term["coeff"]["re"] += delta
    jet_file.write_text(json.dumps(doc))
    assert main(["verify", "--in", str(jet_file),
                 "--out", str(tmp_path / "report.json")]) == 0
    code = main(["extend", "--in", str(jet_file), "--out", str(out)])
    assert code == 0, capsys.readouterr().err
    ext = json.loads(out.read_text())
    assert ext["verification"]["passed"] and ext["mode"] == "float"
    assert ext["composition_residual"] <= 1e-8
    assert _inclusion_gap(ext["slice"]) <= 1e-12


# the non-maximal grid cases but I(2,4) dim 1
STABLE_EXTEND_GRID = [
    (family, params, dim) for family, params, dims in CONSTRUCT_GRID
    for dim in dims
    if dim < domains.make_spec(family, **params).ball_dim_bound
    and (family, params, dim) != ("I", {"p": 2, "q": 4}, 1)]


@pytest.mark.parametrize("family, params, dim", STABLE_EXTEND_GRID, ids=[
    f"{f}{''.join(map(str, p.values()))}-dim{d}"
    for f, p, d in STABLE_EXTEND_GRID])
def test_float_extend_is_stable_under_rounding(tmp_path, capsys, family,
                                               params, dim):
    # F is fixed by the rows that meet (w, z^#(f)) and by one complete QR of
    # them, so 1e-14 added to a degree-2 coefficient moves F at rounding
    # level.  I(2,4) dim 1 is left out: its n + m2 = 7 matched rows exceed
    # its 4 monomials, so f does not fix them
    jet_file, out = tmp_path / "jet.json", tmp_path / "ext.json"
    opts = [x for k, v in params.items() for x in (f"--{k}", str(v))]
    for seed in (1, 2, 3):
        assert main(["construct", "--family", family, *opts, "--dim",
                     str(dim), "--seed", str(seed), "--mode", "float",
                     "--degree", "4", "--out", str(jet_file)]) == 0
        exts = []
        for delta in (0.0, 1e-14):
            doc = json.loads(jet_file.read_text())
            term = next(t for t in doc["jet"]["components"][0]["terms"]
                        if sum(t["exp"]) == 2)
            term["coeff"]["re"] += delta
            jet_file.write_text(json.dumps(doc))
            assert main(["extend", "--in", str(jet_file),
                         "--out", str(out)]) == 0, capsys.readouterr().err
            exts.append(serialize.jet_from_json(
                json.loads(out.read_text())["extended"]["jet"]))
        assert exts[0].max_coeff_distance(exts[1]) <= 1e-10, seed


def test_documents_carry_the_report_verify_prints(tmp_path):
    # a construct document's report is verify --seed <its seed> on it, and
    # an extend document's report is verify on its extended part: the
    # solve hands its jet the stack that verify composes
    jet_file, ext_file = tmp_path / "jet.json", tmp_path / "ext.json"
    part_file, report_file = tmp_path / "part.json", tmp_path / "report.json"

    def verify(path, *opts):
        main(["verify", "--in", str(path), *opts, "--out", str(report_file)])
        return json.loads(report_file.read_text())

    differ = []
    for mode in ("exact", "float"):
        for family, params, dims in CONSTRUCT_GRID:
            bound = domains.make_spec(family, **params).ball_dim_bound
            opts = [x for k, v in params.items() for x in (f"--{k}", str(v))]
            for dim, seed in itertools.product(dims, (1, 2, 3, 4)):
                case = (family, params, dim, seed, mode)
                assert main(["construct", "--family", family, *opts,
                             "--dim", str(dim), "--seed", str(seed),
                             "--mode", mode, "--degree", "4",
                             "--out", str(jet_file)]) == 0
                doc = json.loads(jet_file.read_text())
                if doc["verification"] != verify(jet_file, "--seed",
                                                 str(seed)):
                    differ.append(("construct",) + case)
                if dim == bound:
                    continue
                assert main(["extend", "--in", str(jet_file),
                             "--out", str(ext_file)]) == 0
                ext = json.loads(ext_file.read_text())
                part_file.write_text(json.dumps(ext["extended"]))
                if ext["verification"] != verify(part_file):
                    differ.append(("extend",) + case)
    assert differ == []


def test_the_shared_expansion_builds_each_pass_plan_once(tmp_path,
                                                         monkeypatch):
    # two float constructs, a verify and an extend of IV(5) in one process
    # pass through sos.higher four times, all float passes on its 5
    # variables at degree 4: its monomial rows are built for the first
    kernels.make_sos.cache_clear()  # an expansion that keeps no plan yet
    higher = kernels.make_sos(domains.make_spec("IV", n=5)).higher
    calls, monomial_rows = [], poly._monomial_rows

    def counting(polys, nvars, d):
        if polys is higher.components:
            calls.append((nvars, d))
        return monomial_rows(polys, nvars, d)

    monkeypatch.setattr(poly, "_monomial_rows", counting)
    jet, out = tmp_path / "jet.json", tmp_path / "out.json"
    for seed in ("2", "1"):
        assert main(["construct", "--family", "IV", "--n", "5", "--dim",
                     "2", "--seed", seed, "--mode", "float", "--degree", "4",
                     "--out", str(jet)]) == 0
    assert main(["verify", "--in", str(jet), "--out", str(out)]) == 0
    assert json.loads(out.read_text())["passed"]
    assert main(["extend", "--in", str(jet), "--out", str(out)]) == 0
    assert json.loads(out.read_text())["mode"] == "float"
    assert calls == [(5, 4)]


def test_degree_beyond_the_graded_basis_exits_2(tmp_path, capsys):
    # at degree 60 a float check would need C(63, 3) = 39711 monomials in 3
    # variables (a Gram of about 25 GB) and a float solve C(65, 5) in 5;
    # both are refused before any basis or array is built
    jet_file = tmp_path / "jet.json"
    assert main(["construct", "--family", "IV", "--n", "5", "--dim", "3",
                 "--seed", "1", "--mode", "float", "--degree", "4",
                 "--out", str(jet_file)]) == 0
    doc = json.loads(jet_file.read_text())
    doc["jet"]["degree"] = 60
    jet_file.write_text(json.dumps(doc))
    capsys.readouterr()
    out = tmp_path / "out.json"
    for argv in (["verify", "--in", str(jet_file)],
                 ["construct", "--family", "IV", "--n", "6", "--dim", "5",
                  "--mode", "float", "--degree", "60"]):
        assert main(argv + ["--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: degree 60 in ") and "monomials" in err
        assert len(err.strip().splitlines()) == 1
    assert not out.exists()


def test_exact_degree_beyond_the_cap_exits_2(tmp_path, capsys, monkeypatch,
                                             iv4_jet_doc):
    # an exact degree with more than MAX_EXACT_BASIS monomials below it is
    # refused before any row is built: the exact pass must not start (a
    # header of 10**9 would otherwise run without bound); in one variable
    # this degree has MAX_EXACT_BASIS + 1 monomials
    degree = poly.MAX_EXACT_BASIS

    def unbounded(*args):
        raise AssertionError("the exact pass started")

    monkeypatch.setattr(poly, "_sparse_pass", unbounded)
    doc = copy.deepcopy(iv4_jet_doc)
    doc["jet"]["degree"] = degree
    jet_file = tmp_path / "jet.json"
    jet_file.write_text(json.dumps(doc))
    out = tmp_path / "out.json"
    for argv in (["verify", "--in", str(jet_file)],
                 ["extend", "--in", str(jet_file)],
                 ["construct", "--family", "IV", "--n", "4", "--dim", "1",
                  "--degree", str(degree)]):
        assert main(argv + ["--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: degree {degree} in 1 variables needs ")
        assert len(err.strip().splitlines()) == 1
    assert not out.exists()


@pytest.mark.parametrize("command", ["verify", "extend"])
@pytest.mark.parametrize("stdin", [False, True], ids=["file", "stdin"])
def test_deeply_nested_document_exits_2(tmp_path, capsys, monkeypatch,
                                        command, stdin):
    text = "[" * 100_000
    if stdin:
        monkeypatch.setattr(sys, "stdin", io.StringIO(text))
        infile = "-"
    else:
        infile = tmp_path / "deep.json"
        infile.write_text(text)
    out = tmp_path / "out.json"
    assert main([command, "--in", str(infile), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: document nested too deeply")
    assert len(err.strip().splitlines()) == 1
    assert not out.exists()


@pytest.mark.parametrize("degree, code", [(2, 0), (4, 0), (5, 2), (6, 2),
                                          (8, 2)])
def test_verify_degree_above_jet_exits_2(tmp_path, capsys, iv4_jet_doc,
                                         degree, code):
    # the equations above the jet's degree 4 need coefficients it lacks
    jet_file = tmp_path / "jet.json"
    jet_file.write_text(json.dumps(iv4_jet_doc))
    argv = ["verify", "--in", str(jet_file), "--degree", str(degree),
            "--out", str(tmp_path / "report.json")]
    assert main(argv) == code
    err = capsys.readouterr().err
    if code:
        assert err.startswith("error:") and "jet degree 4" in err
        assert len(err.strip().splitlines()) == 1
    else:
        assert err == ""
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["passed"] is True
        assert report["functional-equation"]["max_residual"] == 0.0


@pytest.mark.parametrize("command", ["verify", "extend"])
def test_term_above_the_jet_degree_exits_2(tmp_path, capsys, iv4_jet_doc,
                                           command):
    # a term above the header degree would be truncated away unread
    doc = copy.deepcopy(iv4_jet_doc)
    doc["jet"]["components"][0]["terms"].append(
        {"exp": [9], "coeff": {"ar": "1000", "ai": "0", "br": "0",
                               "bi": "0"}})
    jet_file, out = tmp_path / "jet.json", tmp_path / "out.json"
    jet_file.write_text(json.dumps(doc))
    assert main([command, "--in", str(jet_file), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err == "error: jet of degree 4 holds a term of degree 9\n"
    assert not out.exists()


def test_verify_garbage_schema_exits_2(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"schema": "isometry-jet/999"}))
    run_cli("verify", "--in", str(bad), expect=2)


def test_unknown_subcommand_exits_2():
    run_cli("frobnicate", expect=2)


def test_parser_reuse_across_in_process_calls(tmp_path, iv4_jet_doc):
    # main builds its parser once per process: no value may carry over
    # from one call to the next, and the documents stay those of a fresh
    # process
    jet_file = tmp_path / "jet.json"
    jet_file.write_text(json.dumps(iv4_jet_doc))
    out = tmp_path / "out"

    def run(*argv):
        assert main([*argv, "--out", str(out)]) == 0
        return out.read_text()

    verify = ("verify", "--in", str(jet_file))
    assert json.loads(run(*verify, "--degree", "2"))["degree"] == 2
    plain = run(*verify)
    assert json.loads(plain)["degree"] == 4
    text = run(*verify, "--format", "text")
    assert text.startswith("degree: 4\n")
    assert run(*verify) == plain
    for argv in (["verify"], ["frobnicate"], ["verify", "--in", "x",
                                               "--format", "csv"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
    construct = ("construct", "--family", "I", "--p", "2", "--q", "3",
                 "--dim", "2", "--seed", "5", "--mode", "float",
                 "--degree", "4", "--variety")
    first = run(*construct)
    run("invariants", "--family", "IV", "--n", "5", "--format", "text")
    assert run(*construct) == first
    assert run_cli(*construct).stdout == first
