"""End-to-end command line checks through subprocess calls."""

import json
import subprocess
import sys

import pytest

from symdom import isometry
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
    calls = []
    real = isometry.h_pullback

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(isometry, "h_pullback", counting)
    jet_file = tmp_path / "jet.json"
    assert main(["construct", "--family", "IV", "--n", "4", "--dim", "1",
                 "--seed", "42", "--mode", mode, "--degree", "4",
                 "--out", str(jet_file)]) == 0
    assert len(calls) == 1
    calls.clear()
    assert main(["extend", "--in", str(jet_file),
                 "--out", str(tmp_path / "ext.json")]) == 0
    assert len(calls) == 2


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


def test_verify_garbage_schema_exits_2(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"schema": "isometry-jet/999"}))
    run_cli("verify", "--in", str(bad), expect=2)


def test_unknown_subcommand_exits_2():
    run_cli("frobnicate", expect=2)
