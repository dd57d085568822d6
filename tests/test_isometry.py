"""Jet-level isometry verification, construction, varieties, extension."""

import functools
import math
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from fractions import Fraction
from hypothesis import given, settings, strategies as st

from symdom import (
    Exact,
    HALF_SQRT2,
    HoloPoly,
    IsometryJet,
    JetMap,
    ParameterError,
    SQRT2,
    TruncationError,
    VerificationError,
    build_k1_variety,
    build_k2_variety,
    check_functional_eq,
    check_polarized_eq,
    compose_truncate,
    extend_isometry,
    full_verification_report,
    kernel_polarized,
    make_sos,
    make_spec,
    membership_residual,
    random_coisometry,
    random_isometric_slice,
    recover_matching_unitary,
    solve_component_jet,
    sos_polydisk,
    sos_type_i,
    sos_type_iv,
)
from symdom import calabi, isometry, kernels
from symdom.calabi import complete_to_unitary, match_unitary
from symdom.linalg import (coisometry_residual, ex_conj_t, principal_angles,
                           to_complex_matrix)
from symdom.poly import _graded

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))
sys.path.insert(0, str(Path(__file__).resolve().parent))
from workloads import CONSTRUCT_GRID  # noqa: E402
from bideg_reference import (  # noqa: E402
    ball_kernel_power, degree_loop_solve, gram_pullback, sandwich_pullback)

DEG = 6


def disk_var(mode="exact"):
    return HoloPoly.var(1, 0, mode)


def bidisk_diagonal(mode="exact"):
    w = disk_var(mode)
    return IsometryJet(JetMap([w, w], DEG, 1), 2, sos_polydisk(2, mode))


def quadric_null_disk(mode="exact"):
    w = disk_var(mode)
    i_half = Exact(0, 0, 0, Fraction(1, 2))
    if mode == "float":
        comps = [w.scale(complex(HALF_SQRT2)), w.scale(complex(i_half)),
                 HoloPoly.zero(1, mode), HoloPoly.zero(1, mode)]
    else:
        comps = [w.scale(HALF_SQRT2), w.scale(i_half),
                 HoloPoly.zero(1, mode), HoloPoly.zero(1, mode)]
    return IsometryJet(JetMap(comps, DEG, 1), 1, sos_type_iv(4, mode))


def quadric_sqrt2_disk(mode="exact"):
    w = disk_var(mode)
    scale = SQRT2 if mode == "exact" else complex(SQRT2)
    comps = [w.scale(scale)] + [HoloPoly.zero(1, mode) for _ in range(3)]
    return IsometryJet(JetMap(comps, DEG, 1), 2, sos_type_iv(4, mode))


def matrix_diagonal_disk(mode="exact"):
    w = disk_var(mode)
    z = HoloPoly.zero(1, mode)
    comps = [w, z, z, z, w, z]
    return IsometryJet(JetMap(comps, DEG, 1), 2, sos_type_i(2, 3, mode))


CANONICAL = [bidisk_diagonal, quadric_null_disk, quadric_sqrt2_disk,
             matrix_diagonal_disk]


@pytest.mark.parametrize("builder", CANONICAL)
def test_canonical_isometries_exact_zero(builder):
    iso = builder()
    rep = check_functional_eq(iso)
    assert rep.mode == "exact"
    assert rep.max_residual == 0.0
    assert rep.passed
    assert full_verification_report(iso)["jacobian-normalization"] == {
        "max_residual": 0.0, "passed": True}


@pytest.mark.parametrize("builder", CANONICAL)
def test_canonical_isometries_polarized_samples(builder):
    iso = builder("float")
    rep = check_polarized_eq(iso, samples=20, seed=3)
    assert rep.passed
    assert rep.max_residual < 1e-10


def _scalar_polarized_residual(iso, samples, seed, radius=0.03):
    # one point pair at a time, from the same random draws as the check
    n = iso.jet.source_dim
    jet = iso.jet.to_float()
    g = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(samples):
        w = g.normal(size=n) + 1j * g.normal(size=n)
        v = g.normal(size=n) + 1j * g.normal(size=n)
        for pt in (w, v):
            pt *= radius * g.uniform(0.3, 1.0) / np.linalg.norm(pt)
        lhs = complex(kernel_polarized(iso.sos, jet.evaluate(list(w)),
                                       jet.evaluate(list(v))))
        worst = max(worst, abs(lhs - (1.0 - complex(np.vdot(v, w))) ** iso.k))
    return worst


@pytest.mark.parametrize("mode", ["exact", "float"])
@pytest.mark.parametrize("family,params", [("IV", {"n": 5}),
                                           ("I", {"p": 2, "q": 3})])
def test_polarized_check_matches_scalar_reference(family, params, mode):
    spec = make_spec(family, **params)
    rows = random_coisometry(spec.dim - 2, spec.dim, 11, mode)
    iso = solve_component_jet(rows, make_sos(spec, mode), degree=4)
    for seed in (0, 7):
        rep = check_polarized_eq(iso, samples=25, seed=seed)
        want = _scalar_polarized_residual(iso, 25, seed)
        assert abs(rep.max_residual - want) < 1e-14
        assert rep.passed


@pytest.mark.parametrize("mode", ["exact", "float"])
@pytest.mark.parametrize(
    "family, params, dims", CONSTRUCT_GRID,
    ids=[f"{f}({','.join(map(str, p.values()))})" for f, p, _ in CONSTRUCT_GRID])
def test_polarized_residual_ignores_term_order(family, params, dims, mode):
    # the same jet with each component's terms held in reverse order
    spec = make_spec(family, **params)
    sos = make_sos(spec, mode)
    for dim in dims:
        rows = random_coisometry(spec.dim - dim, spec.dim, 42, mode)
        iso = solve_component_jet(rows, sos, degree=4)
        flipped = JetMap([HoloPoly.from_field(dim,
                                              dict(reversed(c.terms.items())),
                                              c.mode)
                          for c in iso.jet.components], 4, dim)
        assert check_polarized_eq(IsometryJet(flipped, 1, sos)).max_residual \
            == check_polarized_eq(iso).max_residual


def test_full_report_structure():
    iso = quadric_null_disk()
    report = full_verification_report(iso)
    assert report["passed"]
    assert report["isometric_constant"] == 1
    assert report["domain"] == "IV(4)"
    assert report["mode"] == "exact"
    assert report["functional-equation"]["max_residual"] == 0.0
    assert report["jacobian-normalization"]["max_residual"] == 0.0
    assert report["jacobian-normalization"]["passed"]
    assert report["polarized-sample"]["max_residual"] < 1e-10


def test_truncation_gate():
    w = disk_var()
    iso = IsometryJet(JetMap([w, w], 3, 1), 2, sos_polydisk(2))
    with pytest.raises(TruncationError):
        check_functional_eq(iso)


def test_perturbed_jet_fails():
    iso = quadric_null_disk("float")
    comps = list(iso.jet.components)
    # bump a coefficient that beats against the nonzero linear term
    bump = HoloPoly.monomial(1, (2,), 1e-3, "float")
    comps[0] = comps[0] + bump
    bad = IsometryJet(JetMap(comps, DEG, 1), 1, iso.sos)
    rep = check_functional_eq(bad)
    assert not rep.passed
    assert rep.max_residual >= 1e-4


def test_wrong_constant_fails():
    # the diagonal bidisk jet has isometric constant 2, not 1
    w = disk_var()
    iso = IsometryJet(JetMap([w, w], DEG, 1), 1, sos_polydisk(2))
    rep = check_functional_eq(iso)
    assert not rep.passed


def test_source_dimension_gate():
    # a 2-ball jet with maximal constant into the bidisk must fail:
    # the second null dimension only allows 1-dimensional sources
    w1 = HoloPoly.var(2, 0)
    w2 = HoloPoly.var(2, 1)
    iso = IsometryJet(JetMap([w1, w2], DEG, 2), 2, sos_polydisk(2))
    rep = check_functional_eq(iso)
    assert not rep.passed


def test_solve_component_jet_exact():
    spec = make_spec("IV", n=3)
    sos = make_sos(spec)
    rows = random_coisometry(spec.dim - 2, spec.dim, 42, "exact")
    iso = solve_component_jet(rows, sos, degree=DEG)
    assert iso.mode == "exact"
    assert iso.k == 1
    rep = check_functional_eq(iso)
    assert rep.max_residual == 0.0
    assert rep.passed


def test_solve_component_jet_float():
    spec = make_spec("IV", n=4)
    sos = make_sos(spec, mode="float")
    rows = random_coisometry(spec.dim - 2, spec.dim, 7, "float")
    iso = solve_component_jet(rows, sos, degree=DEG)
    assert iso.mode == "float"
    rep = check_functional_eq(iso)
    assert rep.passed
    assert rep.max_residual < 1e-9


@pytest.mark.parametrize("mode", ["exact", "float"])
@pytest.mark.parametrize("family,params",
                         [("IV", {"n": 5}), ("I", {"p": 2, "q": 3})])
def test_graded_solve_is_fixed_point(family, params, mode):
    # one full-degree sweep of z = conj(A)^T w + conj(U)^T (plus(z), 0)
    # must return the graded jet unchanged: exactly, or in float within
    # 1e-12 of the largest coefficient
    spec = make_spec(family, **params)
    sos = make_sos(spec, mode)
    n = 2
    rows = random_coisometry(spec.dim - n, spec.dim, 42, mode)
    iso = solve_component_jet(rows, sos, degree=DEG)
    assert iso.mode == mode
    full = complete_to_unitary(rows)
    lin = ex_conj_t(full[:n])
    uh = ex_conj_t(full[n:])
    plus = [g.substitute(list(iso.jet.components), DEG) for g in sos.even]
    swept = []
    for i in range(spec.dim):
        poly = JetMap.from_linear([lin[i]], DEG).components[0]
        for l, v in enumerate(plus):
            poly = poly + v.scale(uh[i][l])
        swept.append(poly)
    swept = JetMap(swept, DEG, n)
    if mode == "exact":
        assert swept == iso.jet
    else:
        scale = max(1.0, max(c.max_abs_coeff() for c in iso.jet.components))
        assert swept.max_coeff_distance(iso.jet) <= 1e-12 * scale


@settings(max_examples=30, deadline=None)
@given(case=st.sampled_from([(f, p, dim) for f, p, dims in CONSTRUCT_GRID
                             for dim in dims]),
       seed=st.integers(0, 2 ** 20), d=st.integers(2, 6))
def test_float_solve_matches_exact_solve(case, seed, d):
    # exact rows with a float kernel take the float route on the exact
    # completion converted to float; the result and the composite stack it
    # hands to the jet agree with the exact route's within 1e-12 of the
    # largest coefficient
    family, params, dim = case
    spec = make_spec(family, **params)
    rows = random_coisometry(spec.dim - dim, spec.dim, seed, "exact")
    exact = solve_component_jet(rows, make_sos(spec, "exact"), degree=d)
    approx = solve_component_jet(rows, make_sos(spec, "float"), degree=d)
    assert (exact.mode, approx.mode) == ("exact", "float")
    want, got = exact._stack[d].to_float(), approx._stack[d]
    assert (got.degree, got.target_dim) == (d, want.target_dim)
    scale = max(1.0, max(c.max_abs_coeff() for c in want.components))
    assert approx.jet.max_coeff_distance(exact.jet.to_float()) <= 1e-12 * scale
    assert got.max_coeff_distance(want) <= 1e-12 * scale


def _nan_max(a, b):
    return b if b > a or b != b else a


def _reference_pullback(iso, d):
    # the pullback on the composite stack the check squares: one sandwich
    # per composite for exact jets, the masked Gram product for float ones
    stack = iso.composites(d)
    return (sandwich_pullback(iso.sos, stack, d) if iso.mode == "exact"
            else gram_pullback(iso.sos, stack, d))


def _reference_fe(iso, d, pullback):
    # the pullback minus (1 - |w|^2)^k as bidegree polynomials, read off
    # one term at a time
    diff = pullback - ball_kernel_power(iso.source_dim, iso.k, iso.mode, d)
    per, worst = {}, 0.0
    for (alpha, beta), c in diff.terms.items():
        key = (sum(alpha), sum(beta))
        per[key] = _nan_max(per.get(key, 0.0), abs(complex(c)))
        worst = _nan_max(worst, abs(complex(c)))
    return worst, per


def _same_value(x, y):
    return x == y or abs(x - y) <= 1e-15 or (math.isnan(x) and math.isnan(y))


def _assert_fe_matches_reference(iso, d):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rep = check_functional_eq(iso, d)
    worst, per = _reference_fe(iso, d, _reference_pullback(iso, d))
    assert rep.mode == "float"
    assert rep.per_bidegree.keys() == per.keys()
    assert all(_same_value(rep.per_bidegree[key], v) for key, v in per.items())
    assert rep.max_residual == worst or (math.isnan(rep.max_residual)
                                         and math.isnan(worst))
    return rep


def _float_construct(family, params, dim, d=5):
    spec = make_spec(family, **params)
    rows = random_coisometry(spec.dim - dim, spec.dim, 3, "float")
    return solve_component_jet(rows, make_sos(spec, "float"), degree=d)


def _with_coefficient(iso, deg, value):
    # a fresh jet whose first degree-deg coefficient has value added
    comps = list(iso.jet.components)
    i, exp = next((i, e) for i, c in enumerate(comps)
                  for e in c.terms if sum(e) == deg)
    terms = dict(comps[i].terms)
    terms[exp] += value
    comps[i] = HoloPoly(iso.source_dim, terms, "float")
    return IsometryJet(JetMap(comps, iso.jet.degree, iso.source_dim), iso.k,
                       iso.sos)


FE_JETS = {
    "IV(5)-dim2": lambda: _float_construct("IV", {"n": 5}, 2),
    "IV(4)-dim1": lambda: _float_construct("IV", {"n": 4}, 1),
    "I(2,3)-dim3": lambda: _float_construct("I", {"p": 2, "q": 3}, 3),
    **{b.__name__: (lambda b=b: b("float")) for b in CANONICAL},
}


@pytest.mark.parametrize("name", list(FE_JETS))
def test_float_fe_matches_bidegree_reference(name):
    # constructed jets and the float disks (k = 1 and k = 2), at every
    # truncation degree the jet allows
    iso = FE_JETS[name]()
    for d in range(2 * iso.k, iso.jet.degree + 1):
        rep = _assert_fe_matches_reference(iso, d)
        assert rep.passed


@pytest.mark.parametrize("value", [0.1, 1e200, math.nan])
@pytest.mark.parametrize("name", ["IV(5)-dim2", "quadric_sqrt2_disk"])
def test_float_fe_matches_reference_on_perturbed_jets(name, value):
    # a perturbation at any degree 1..d; a NaN propagates to the residual
    # and an overflow reads as inf / nan, neither with a RuntimeWarning
    iso = FE_JETS[name]()
    d = iso.jet.degree
    for deg in range(1, d + 1):
        if not any(sum(e) == deg for c in iso.jet.components for e in c.terms):
            continue
        rep = _assert_fe_matches_reference(_with_coefficient(iso, deg, value),
                                           d)
        if value != value:
            assert math.isnan(rep.max_residual) and not rep.passed
        elif deg < d:  # the triangle pairs degree deg with degree 1
            assert not rep.passed


@pytest.mark.parametrize("n, k", [(2, 1), (3, 2), (2, 2)])
def test_ball_kernel_diagonal_matches_power(n, k):
    d = 2 * k + 1
    basis, _, _ = _graded(n, d)
    diagonal = isometry._ball_kernel_diagonal(basis, k)
    assert all(type(b) is int for b in diagonal)
    power = ball_kernel_power(n, k, "exact", d)
    assert all(alpha == beta for alpha, beta in power.terms)
    assert {alpha: c for (alpha, _), c in power.terms.items()} == \
        {alpha: b for alpha, b in zip(basis, diagonal) if b}


def _plus_tenth(iso, d, i, deg, amount=Fraction(1, 10)):
    """The jet truncated at d with amount (1/10 by default) added to
    component i at its first degree-deg monomial (w_1^deg when it has
    none), as an IsometryJet."""
    comps = list(iso.jet.truncate(d).components)
    n = iso.source_dim
    exp = next((e for e, _ in comps[i].sorted_terms() if sum(e) == deg),
               (deg,) + (0,) * (n - 1))
    terms = dict(comps[i].terms)
    terms[exp] = terms.get(exp, 0) + amount
    comps[i] = HoloPoly(n, terms, comps[i].mode)
    return IsometryJet(JetMap(comps, d, n), iso.k, iso.sos)


def _exact_construct(family, params, dim, d=6):
    spec = make_spec(family, **params)
    rows = random_coisometry(spec.dim - dim, spec.dim, 1, "exact")
    return solve_component_jet(rows, make_sos(spec, "exact"), degree=d)


EXACT_FE_JETS = {
    **{f"{family}({','.join(map(str, params.values()))})-dim{dim}":
       functools.partial(_exact_construct, family, params, dim)
       for family, params, dims in CONSTRUCT_GRID for dim in dims},
    **{b.__name__: b for b in CANONICAL},
}


@pytest.mark.parametrize("name", list(EXACT_FE_JETS))
def test_exact_fe_matches_bidegree_reference(name):
    # the exact grid jets at seed 1 and the exact disks (k = 1 and k = 2):
    # every truncation degree d from 2k to 6, as built and with 1/10 added
    # at each degree 1..d of each component; the pullback itself equals
    # the per-composite sandwich sum
    iso = EXACT_FE_JETS[name]()
    assert iso.mode == "exact"
    failed = 0
    for d in range(2 * iso.k, iso.jet.degree + 1):
        jets = [IsometryJet(iso.jet.truncate(d), iso.k, iso.sos)]
        jets += [_plus_tenth(iso, d, i, deg)
                 for i in range(iso.jet.target_dim) for deg in range(1, d + 1)]
        for j, jet in enumerate(jets):
            rep = check_functional_eq(jet, d)
            assert rep.mode == "exact"
            ref = _reference_pullback(jet, d)
            assert kernels.h_pullback(jet.sos, jet.jet, d,
                                      composites=jet.composites(d)) == ref
            assert (rep.max_residual, rep.per_bidegree) == \
                _reference_fe(jet, d, ref)
            if j == 0:
                assert rep.max_residual == 0.0 and rep.per_bidegree == {}
            failed += not rep.passed
    assert failed > 0


def _jacobian_reference(iso):
    """max |conj(J)^T J - k I|, computed from the jacobian itself."""
    jac = iso.jet.jacobian0()
    adjoint = (ex_conj_t(jac) if iso.mode == "exact"
               else to_complex_matrix(jac).conj().T)
    return coisometry_residual(adjoint, iso.k)


def _report_jacobian(iso, d):
    return full_verification_report(iso, d)["jacobian-normalization"]


@pytest.mark.parametrize("mode", ["exact", "float"])
@pytest.mark.parametrize(
    "family, params, dims", CONSTRUCT_GRID,
    ids=[f"{f}({','.join(map(str, p.values()))})" for f, p, _ in CONSTRUCT_GRID])
def test_report_reads_jacobian_off_the_fe_check(family, params, dims, mode):
    # the report's jacobian normalization is the (1,1) block of the FE
    # check: equal to the reference for exact jets as built, with 1/10
    # added to a degree-1 coefficient, and with 10^-400 added; within
    # rounding for float jets; at the jet's degree and at degree 2
    spec = make_spec(family, **params)
    sos = make_sos(spec, mode)
    for dim in dims:
        rows = random_coisometry(spec.dim - dim, spec.dim, 1, mode)
        iso = solve_component_jet(rows, sos, degree=4)
        i = next(i for i, c in enumerate(iso.jet.components)
                 if any(sum(e) == 1 for e in c.terms))
        amounts = ([Fraction(1, 10), Fraction(1, 10 ** 400)]
                   if mode == "exact" else [0.1])
        jets = [iso] + [_plus_tenth(iso, 4, i, 1, a) for a in amounts]
        for d in (2, 4):
            for jet in jets:
                got, want = _report_jacobian(jet, d), _jacobian_reference(jet)
                assert got["passed"] is (want <= 1e-9)
                if mode == "exact":
                    assert got["max_residual"] == want
                    assert (want > 0.0) is (jet is not iso)
                elif jet is iso:
                    assert abs(got["max_residual"] - want) <= 1e-15
                else:
                    assert abs(got["max_residual"] - want) <= 1e-13 * want


def test_nan_coefficient_fails_checks():
    spec = make_spec("IV", n=4)
    sos = make_sos(spec, mode="float")
    rows = random_coisometry(spec.dim - 2, spec.dim, 1, "float")
    iso = solve_component_jet(rows, sos, degree=4)
    for deg in (2, 4):
        comps = list(iso.jet.components)
        i, exp = next((i, e) for i, c in enumerate(comps)
                      for e in c.terms if sum(e) == deg)
        terms = dict(comps[i].terms)
        terms[exp] = complex(math.nan, 0.0)
        comps[i] = HoloPoly(2, terms, "float")
        bad = IsometryJet(JetMap(comps, 4, 2), 1, sos)
        if deg == 2:
            rep = check_functional_eq(bad)
            assert math.isnan(rep.max_residual)
            assert not rep.passed
        assert not check_polarized_eq(bad).passed
        assert full_verification_report(bad)["passed"] is False


def test_solve_rejects_non_coordinate_generators():
    sos = sos_type_i(3, 3)
    rows = random_coisometry(2, 9, 0, "exact")
    with pytest.raises(ParameterError):
        solve_component_jet(rows, sos)


def test_recover_matching_unitary_roundtrip():
    spec = make_spec("IV", n=4)
    sos = make_sos(spec)
    n = spec.ball_dim_bound
    rows = random_coisometry(spec.dim - n, spec.dim, 5, "exact")
    iso = solve_component_jet(rows, sos, degree=DEG)
    rec = recover_matching_unitary(iso)
    assert rec.mode == "exact"
    got = to_complex_matrix(rec.bottom_block(n))
    want = to_complex_matrix(rows)
    angles = principal_angles(got, want)
    assert np.max(angles) < 1e-8


def test_recover_requires_constant_one():
    iso = bidisk_diagonal()
    with pytest.raises(ParameterError):
        recover_matching_unitary(iso)


def test_k1_variety_membership():
    spec = make_spec("IV", n=4)
    sos = make_sos(spec)
    rows = random_coisometry(spec.dim - 3, spec.dim, 9, "exact")
    iso = solve_component_jet(rows, sos, degree=DEG)
    rec = recover_matching_unitary(iso)
    system = build_k1_variety(rec.bottom_block(3), sos)
    assert system.kind == "k1"
    assert len(system.equations) == spec.dim - 3
    assert membership_residual(system, iso.jet) == 0.0


def test_k1_variety_row_count_gate():
    sos = make_sos(make_spec("IV", n=4))
    with pytest.raises(ParameterError):
        build_k1_variety([], sos)


def test_k1_variety_rejects_nan_rows():
    sos = make_sos(make_spec("IV", n=4), "float")
    rows = np.array([[math.nan, 0.0, 0.0, 0.0]])
    with pytest.raises(ValueError, match="not orthonormal"):
        build_k1_variety(rows, sos)


@pytest.mark.parametrize("builder", [bidisk_diagonal, quadric_sqrt2_disk,
                                     matrix_diagonal_disk])
def test_k2_variety_canonical(builder):
    iso = builder()
    system = build_k2_variety(iso)
    assert system.kind == "k2"
    assert membership_residual(system, iso.jet) < 1e-10
    assert system.meta["rank_identity_ok"]
    n = iso.source_dim
    m1, m2 = len(iso.sos.odd), len(iso.sos.even)
    assert system.meta["stack_dim"] == max(n + m2, n * (n + 1) // 2 + m1)


def test_k2_variety_bidisk_cuts_diagonal():
    system = build_k2_variety(bidisk_diagonal())
    on_pt = [0.3 + 0.1j, 0.3 + 0.1j]
    off_pt = [0.4, -0.2]
    on_worst = max(abs(complex(eq.evaluate(on_pt))) for eq in system.equations)
    off_worst = max(abs(complex(eq.evaluate(off_pt))) for eq in system.equations)
    assert on_worst < 1e-10
    assert off_worst > 1e-3


@pytest.mark.parametrize("mode", ["exact", "float"])
@pytest.mark.parametrize("builder", [quadric_sqrt2_disk, matrix_diagonal_disk])
def test_k2_variety_composes_generators_once(builder, mode, monkeypatch):
    # the FE check and the quadric lift share the jet's one generator stack
    calls = []
    real = kernels.compose_truncate

    def recording(outer, inner, d):
        calls.append(outer)
        return real(outer, inner, d)

    for module in (kernels, isometry):
        monkeypatch.setattr(module, "compose_truncate", recording)
    iso = builder(mode)
    gens = iso.sos.odd + iso.sos.even
    system = build_k2_variety(iso)
    stacks = [outer for outer in calls
              if len(outer.components) == len(gens)
              and all(a is b for a, b in zip(outer.components, gens))]
    assert len(stacks) == 1
    assert membership_residual(system, iso.jet) < 1e-10


def _k1_system(mode):
    spec = make_spec("I", p=2, q=3)
    rows = random_coisometry(spec.dim - 2, spec.dim, 7, mode)
    return build_k1_variety(rows, make_sos(spec, mode))


VARIETIES = {
    "k1-exact": lambda: _k1_system("exact"),
    "k1-float": lambda: _k1_system("float"),
    "k2-bidisk": lambda: build_k2_variety(bidisk_diagonal()),
    "k2-quadric": lambda: build_k2_variety(quadric_sqrt2_disk()),
    "k2-matrix": lambda: build_k2_variety(matrix_diagonal_disk()),
}


@pytest.mark.parametrize("build", VARIETIES.values(), ids=VARIETIES.keys())
def test_variety_equations_match_projective(build):
    # equation l is projective[l, 1:] applied to (odd, even) generators,
    # summed here term by term
    system = build()
    gens = system.sos.odd + system.sos.even
    exact = isinstance(system.projective, list)
    assert len(system.equations) == len(system.projective)
    for row, eq in zip(system.projective, system.equations):
        assert len(row) == 1 + len(gens) and complex(row[0]) == 0
        want = HoloPoly.zero(system.ambient_dim, "exact" if exact else "float")
        for c, g in zip(list(row)[1:], gens):
            want = want + g.scale(c)
        if exact:
            assert eq.mode == "exact" and eq == want
        else:
            assert eq.mode == "float"
            assert (eq - want).max_abs_coeff() <= 1e-12


def test_k2_variety_rejects_k1():
    with pytest.raises(ParameterError):
        build_k2_variety(quadric_null_disk())


def test_extend_null_disk_exact():
    iso = quadric_null_disk()
    res = extend_isometry(iso)
    assert res.mode == "exact"
    assert res.composition_residual == 0.0
    assert res.extended.jet.source_dim == iso.spec.ball_dim_bound == 3
    rep = check_functional_eq(res.extended)
    assert rep.max_residual == 0.0
    recomposed = compose_truncate(res.extended.jet, res.slice_map, DEG)
    assert recomposed.max_coeff_distance(iso.jet) == 0.0


def test_extend_sliced_construction():
    spec = make_spec("IV", n=4)
    sos = make_sos(spec)
    n0 = spec.ball_dim_bound
    rows = random_coisometry(spec.dim - n0, spec.dim, 21, "exact")
    big = solve_component_jet(rows, sos, degree=DEG)
    sl = random_isometric_slice(n0, 2, 22, "exact")
    small = IsometryJet(
        compose_truncate(big.jet, JetMap.from_linear(sl, DEG), DEG), 1, sos)
    res = extend_isometry(small)
    assert res.extended.jet.source_dim == n0
    recomposed = compose_truncate(
        res.extended.jet.to_float(), res.slice_map, DEG)
    assert recomposed.max_coeff_distance(small.jet.to_float()) < 1e-10
    rep = check_functional_eq(res.extended)
    assert rep.passed


def test_exact_extend_matches_once_in_floating_point(monkeypatch):
    # the guards run once, in extend itself, and the padded target is
    # matched in floating point without an exact rank test
    spec = make_spec("IV", n=5)
    rows = random_coisometry(spec.dim - 2, spec.dim, 1, "exact")
    iso = solve_component_jet(rows, make_sos(spec), degree=4)

    def refuse(*args, **kwargs):
        raise AssertionError("called")

    monkeypatch.setattr(isometry, "recover_matching_unitary", refuse)
    monkeypatch.setattr(calabi, "ex_rank", refuse)
    res = extend_isometry(iso)
    assert res.extended.jet.source_dim == spec.ball_dim_bound
    assert res.composition_residual < 1e-10


@pytest.mark.parametrize("family, params, dim", [("IV", {"n": 5}, 2),
                                                 ("I", {"p": 2, "q": 3}, 1)])
def test_recover_below_bound_equals_exact_target_match(family, params, dim):
    # the float match of the float copies is, bit for bit, the match of the
    # exact target and jet, whose exact rank test fails on the zero rows
    spec = make_spec(family, **params)
    sos = make_sos(spec)
    rows = random_coisometry(spec.dim - dim, spec.dim, 1, "exact")
    iso = solve_component_jet(rows, sos, degree=4)
    assert dim < spec.ball_dim_bound
    comps = [HoloPoly.var(dim, a, "exact") for a in range(dim)]
    comps += iso.composites(4).components[len(sos.odd):]
    comps += [HoloPoly.zero(dim, "exact")
              for _ in range(spec.ball_dim_bound - dim)]
    want, mode = match_unitary(JetMap(comps, 4, dim), iso.jet)
    rec = recover_matching_unitary(iso)
    assert (rec.mode, mode) == ("float", "float")
    assert rec.matrix.tobytes() == want.tobytes()


def test_extend_rejects_maximal_source():
    spec = make_spec("IV", n=4)
    sos = make_sos(spec)
    n0 = spec.ball_dim_bound
    rows = random_coisometry(spec.dim - n0, spec.dim, 2, "exact")
    big = solve_component_jet(rows, sos, degree=DEG)
    with pytest.raises(ParameterError):
        extend_isometry(big)


def test_extend_rejects_k2():
    with pytest.raises(ParameterError):
        extend_isometry(quadric_sqrt2_disk())


@pytest.mark.parametrize(
    "family, params, dims", CONSTRUCT_GRID,
    ids=[f"{f}({','.join(map(str, p.values()))})" for f, p, _ in CONSTRUCT_GRID])
def test_exact_solve_equals_degree_loop_reference(family, params, dims):
    # the one-pass exact solve gives, term for term, the jet and the
    # handed stack of the loop that recomposes z^# at every degree
    spec = make_spec(family, **params)
    sos = make_sos(spec, "exact")
    for dim in dims:
        rows = random_coisometry(spec.dim - dim, spec.dim, 1, "exact")
        ref = degree_loop_solve(complete_to_unitary(rows),
                                JetMap(sos.even, DEG, spec.dim), dim, DEG)
        for d in range(2, DEG + 1):
            iso = solve_component_jet(rows, sos, degree=d)
            jet, plus = ref[d]
            assert iso.mode == "exact"
            assert iso.jet == jet
            assert iso._stack[d] == JetMap(jet.components + plus.components,
                                           d, dim)


@pytest.mark.parametrize("mode", ["exact", "float"])
@pytest.mark.parametrize(
    "family, params, dims", CONSTRUCT_GRID,
    ids=[f"{f}({','.join(map(str, p.values()))})" for f, p, _ in CONSTRUCT_GRID])
def test_solve_hands_its_composites_to_the_jet(family, params, dims, mode):
    # the stack left by the last degree of the solve is the one a fresh
    # composition of the finished jet gives: exact stacks term for term,
    # float stacks within 1e-12 of the largest coefficient (summation
    # order differs, about 10^4 float64 roundings)
    d = 4
    spec = make_spec(family, **params)
    sos = make_sos(spec, mode)
    for dim in dims:
        rows = random_coisometry(spec.dim - dim, spec.dim, 42, mode)
        iso = solve_component_jet(rows, sos, degree=d)
        cached = iso._stack[d]
        fresh = compose_truncate(JetMap(sos.odd + sos.even, d), iso.jet, d)
        assert (cached.degree, cached.mode) == (fresh.degree, fresh.mode)
        if iso.mode == "exact":
            assert cached == fresh
        else:
            scale = max(1.0, max(c.max_abs_coeff() for c in fresh.components))
            assert cached.max_coeff_distance(fresh) <= 1e-12 * scale
