"""End-to-end command line checks through subprocess calls."""

import copy
import json
import math
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from symdom import BidegPoly, HoloPoly, cli, isometry, kernels, serialize
from symdom.cli import main


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
    # plus block; the rebuilt jet's check uses the stack its solve left
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


@pytest.mark.parametrize("samples", ["0", "-3"])
def test_verify_without_samples_exits_2(tmp_path, samples):
    jet_file = tmp_path / "jet.json"
    run_cli("construct", "--family", "IV", "--n", "4", "--dim", "2",
            "--seed", "1", "--mode", "float", "--degree", "4",
            "--out", str(jet_file))
    proc = run_cli("verify", "--in", str(jet_file), "--samples", samples,
                   expect=2)
    assert proc.stderr.startswith("error:")


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
