"""Self-tests of the benchmark harness at tiny size.

    python3 -m pytest -q bench/tests
"""

import copy
import json
import sys
from fractions import Fraction
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))

import oracle  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from symdom import cli  # noqa: E402


def _construct(tmp_path, mode, seed=3, family=("IV", {"n": 4}), dim=2):
    case = workloads.Case(family[0], tuple(sorted(family[1].items())), dim,
                          mode)
    out = tmp_path / f"jet-{mode}-{seed}.json"
    assert cli.main(workloads.construct_argv(case, seed, str(out))) == 0
    return json.loads(out.read_text())


def _perturb(doc, degree):
    """Add 1/10 to the first coefficient of the given degree."""
    bad = copy.deepcopy(doc)
    for comp in bad["jet"]["components"]:
        for term in comp["terms"]:
            if sum(term["exp"]) == degree:
                c = term["coeff"]
                if "ar" in c:
                    c["ar"] = str(Fraction(c["ar"]) + Fraction(1, 10))
                else:
                    c["re"] += 0.1
                return bad
    raise AssertionError(f"no degree-{degree} term to perturb")


@pytest.mark.parametrize("mode", ["exact", "float"])
@pytest.mark.parametrize("degree", [1, 2])
def test_oracle_flags_perturbed_coefficient(tmp_path, mode, degree):
    doc = _construct(tmp_path, mode)
    assert oracle.check_isometry(doc) == ""
    assert "exceeds" in oracle.check_isometry(_perturb(doc, degree))


def test_oracle_type_i_kernel(tmp_path):
    doc = _construct(tmp_path, "float", family=("I", {"p": 2, "q": 3}))
    assert oracle.check_isometry(doc) == ""
    assert oracle.check_isometry(_perturb(doc, 1)) != ""


def test_different_seed_changes_inputs(tmp_path):
    case = workloads.cases_for("exact-construct")[5]
    seeds = {workloads.sub_seed(s, "pass", 0, case.label) for s in (1, 2)}
    assert len(seeds) == 2
    a, b = (_construct(tmp_path, "exact", seed=s) for s in seeds)
    assert oracle.exact_part("construct", a) != \
        oracle.exact_part("construct", b)


def _tiny_run(tmp_path, seed):
    args = run.parse_args(["--workload", "exact-construct", "--seed",
                           str(seed)])
    r = run.Run(args, 0.0)
    r.cases = r.cases[:3]
    client = workloads.Client(cli.main, str(tmp_path))
    jobs, _ = r.timed_passes(client, 0, max_passes=1)
    return [(c.name, c.digest) for j in jobs for c in j.commands]


def test_same_seed_reproduces_digests(tmp_path):
    first = _tiny_run(tmp_path, 7)
    assert first == _tiny_run(tmp_path, 7)
    assert first != _tiny_run(tmp_path, 8)


def test_tracer_patches_every_namespace_and_restores(tmp_path):
    from symdom import calabi, isometry, kernels, linalg
    originals = (cli.solve_component_jet, isometry.h_pullback,
                 isometry.match_unitary, calabi.ex_rank)
    tr = tracer.Tracer()
    tr.install()
    try:
        assert cli.solve_component_jet is not originals[0]
        assert isometry.h_pullback is not originals[1]
        assert isometry.match_unitary is not originals[2]
        assert kernels.h_pullback is isometry.h_pullback
        assert "symdom.calabi.ex_rank" not in sum(tr.patch_sites.values(), [])
        client = workloads.Client(cli.main, str(tmp_path), tr)
        job = workloads.Job("t", workloads.cases_for("exact-construct")[1], 5)
        client.construct_job(job)
    finally:
        tr.uninstall()
    assert not job.failed
    assert (cli.solve_component_jet, isometry.h_pullback,
            isometry.match_unitary, calabi.ex_rank) == originals
    assert linalg.ex_rref.__name__ == "ex_rref"
    names = {s[3] for s in tr.spans}
    assert {"cli.construct", "cli.verify", "isometry.solve",
            "kernels.h_pullback", "linalg.ex_rref"} <= names
    ids = {s[0] for s in tr.spans}
    assert all(s[1] == 0 or s[1] in ids for s in tr.spans)
    assert tr.counts["scalars.exact_mul"] > 0


def test_tail_needs_ten_samples_beyond():
    assert run.tail(list(range(100))) == (90, 89)
    pct, _ = run.tail(list(range(20)))
    assert pct == 50


def test_case_rate_weighs_cases_alike():
    case = workloads.cases_for("exact-construct")
    jobs = [workloads.Job("a", case[0], 1), workloads.Job("b", case[1], 1)]
    for job, secs in zip(jobs, (0.5, 8.0)):
        job.commands.append(workloads.Command("construct", [], secs,
                                              ref_seconds=0.25))
    assert run.case_rate(jobs, lambda j: j.seconds) == pytest.approx(0.5)
    assert run.case_rate(jobs, lambda j: j.refs) == pytest.approx(0.125)
    assert run.case_rate([], lambda j: j.seconds) == 0.0
