"""Acceptance gate: one test per numbered criterion.

Run with `pytest -v tests/test_acceptance.py` for a pass/fail line per
criterion.  Tolerances are pinned in each test body; exact-mode checks
use equality on field elements, floating checks use the stated bounds.
"""

import itertools
import math
import random
import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest

from symdom import (
    Exact,
    HALF_SQRT2,
    HoloPoly,
    IsometryJet,
    JetMap,
    SQRT2,
    build_k2_variety,
    check_functional_eq,
    closed_form_null_threshold,
    compose_truncate,
    curvature_at_origin,
    extend_isometry,
    kernel_value,
    make_sos,
    make_spec,
    membership_residual,
    null_threshold,
    random_coisometry,
    random_isometric_slice,
    recover_matching_unitary,
    solve_component_jet,
    sos_counts,
    sos_polydisk,
    sos_type_i,
    sos_type_iv,
    sos_signature_bound,
)
from symdom.linalg import principal_angles, to_complex_matrix

DEG = 6

# shared between criteria 6 and 7: (label, source_dim, seed) -> (rows, iso)
_BUILT = {}


def built_jet(spec, n, seed):
    key = (spec.label, n, seed)
    if key not in _BUILT:
        sos = make_sos(spec)
        rows = random_coisometry(spec.dim - n, spec.dim, seed, "exact")
        iso = solve_component_jet(rows, sos, degree=DEG)
        _BUILT[key] = (rows, iso)
    return _BUILT[key]


def rand_interior(spec, r):
    n = spec.dim
    if spec.family == "polydisk":
        return [complex(r.uniform(-0.7, 0.7), r.uniform(-0.7, 0.7))
                for _ in range(n)]
    if spec.family == "I":
        p, q = spec.params
        m = np.array([[complex(r.gauss(0, 1), r.gauss(0, 1))
                       for _ in range(q)] for _ in range(p)])
        m *= 0.85 / max(np.linalg.svd(m, compute_uv=False)[0], 1e-9)
        return [complex(c) for c in m.reshape(-1)]
    v = [complex(r.gauss(0, 1), r.gauss(0, 1)) for _ in range(n)]
    scale = 0.6 / math.sqrt(sum(abs(c) ** 2 for c in v))
    return [c * scale for c in v]


def exact_det(m):
    n = len(m)
    total = Exact(0)
    for perm in itertools.permutations(range(n)):
        sign = 1
        for i in range(n):
            for j in range(i + 1, n):
                if perm[i] > perm[j]:
                    sign = -sign
        prod = Exact(1)
        for i in range(n):
            prod = prod * m[i][perm[i]]
        total = total + prod * sign
    return total


def det_kernel_oracle_exact(p, q, z):
    rows = [[z[i * q + j] for j in range(q)] for i in range(p)]
    m = [[(Exact(1) if i == k else Exact(0))
          - sum((rows[i][j] * rows[k][j].conjugate() for j in range(q)),
                Exact(0))
          for k in range(p)] for i in range(p)]
    return exact_det(m)


def exact_rank(matrix):
    # Gaussian elimination over the coefficient field
    rows = [list(r) for r in matrix]
    zero = Exact(0)
    rank = 0
    ncols = len(rows[0]) if rows else 0
    col = 0
    while rank < len(rows) and col < ncols:
        pivot = next((i for i in range(rank, len(rows))
                      if rows[i][col] != zero), None)
        if pivot is None:
            col += 1
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        prow = rows[rank]
        for i in range(rank + 1, len(rows)):
            if rows[i][col] != zero:
                factor = rows[i][col] / prow[col]
                rows[i] = [a - factor * b for a, b in zip(rows[i], prow)]
        rank += 1
        col += 1
    return rank


def disk_var(mode="exact"):
    return HoloPoly.var(1, 0, mode)


def bidisk_diagonal():
    w = disk_var()
    return IsometryJet(JetMap([w, w], DEG, 1), 2, sos_polydisk(2))


def quadric_null_disk():
    w = disk_var()
    comps = [w.scale(HALF_SQRT2), w.scale(Exact(0, 0, 0, Fraction(1, 2))),
             HoloPoly.zero(1, "exact"), HoloPoly.zero(1, "exact")]
    return IsometryJet(JetMap(comps, DEG, 1), 1, sos_type_iv(4))


def quadric_sqrt2_disk():
    w = disk_var()
    comps = [w.scale(SQRT2)] + [HoloPoly.zero(1, "exact") for _ in range(3)]
    return IsometryJet(JetMap(comps, DEG, 1), 2, sos_type_iv(4))


def matrix_diagonal_disk():
    w = disk_var()
    z = HoloPoly.zero(1, "exact")
    return IsometryJet(JetMap([w, z, z, z, w, z], DEG, 1), 2,
                       sos_type_i(2, 3))


def test_criterion_01_invariant_goldens():
    s37 = make_spec("III", m=7)
    assert s37.rank == 7
    assert s37.vmrt_dim == 6
    assert s37.null_dims == tuple((7 - k) * (8 - k) // 2 for k in range(1, 8))
    assert null_threshold(s37) == 4

    s5 = make_spec("V")
    assert s5.dim == 16
    assert s5.min_embedding_dim == 26
    assert s5.null_dims[0] == 5
    assert s5.vmrt_dim == 10

    s25 = make_spec("II", m=5)
    assert 2 * s25.dim == 20
    assert s25.min_embedding_dim + 1 == 16
    assert 2 * s25.dim > s25.min_embedding_dim + 1

    for q in range(3, 11):
        s = make_spec("I", p=2, q=q)
        holds = 2 * s.dim > s.min_embedding_dim + 1
        assert holds == (q in (3, 4)), f"I(2,{q})"

    catalog = [(make_spec("I", p=2, q=3), 3), (make_spec("I", p=2, q=4), 2),
               (make_spec("II", m=5), 5), (make_spec("V"), 6)]
    catalog += [(make_spec("IV", n=m), m - 1) for m in range(3, 9)]
    for spec, n0 in catalog:
        assert spec.ball_dim_bound == n0, spec.label
    print("PASS criterion 1: invariant goldens exact")


def test_criterion_02_threshold_table_equivalence():
    specs = []
    for p in range(3, 61):
        for q in range(p, 61):
            if (p, q) != (3, 3):
                specs.append(make_spec("I", p=p, q=q))
    specs += [make_spec("II", m=m) for m in range(8, 61)]
    specs += [make_spec("III", m=m) for m in range(3, 61)]
    assert len(specs) == 1710 + 53 + 58
    for spec in specs:
        brute = null_threshold(spec)
        closed = closed_form_null_threshold(spec)
        assert closed == brute, f"{spec.label}: {closed} != {brute}"
    print(f"PASS criterion 2: closed form == brute force on "
          f"{len(specs)} domains")


def test_criterion_03_kernel_identities():
    r = random.Random(2024)
    checked = 0

    for p in range(1, 7):
        sos = sos_polydisk(p)
        for _ in range(200):
            z = rand_interior(sos.spec, r)
            want = 1.0
            for c in z:
                want *= 1.0 - abs(c) ** 2
            assert abs(complex(kernel_value(sos, z)) - want) < 1e-10
            checked += 1

    for n in range(3, 9):
        sos = sos_type_iv(n)
        for _ in range(200):
            z = rand_interior(sos.spec, r)
            n2 = sum(abs(c) ** 2 for c in z)
            s = sum(c * c for c in z)
            want = 1 - n2 + abs(s) ** 2 / 4
            assert abs(complex(kernel_value(sos, z)) - want) < 1e-10
            checked += 1

    for p in range(1, 4):
        for q in range(p, 6):
            sos = sos_type_i(p, q)
            for _ in range(200):
                z = rand_interior(sos.spec, r)
                mat = np.array(z, dtype=complex).reshape(p, q)
                want = np.linalg.det(np.eye(p) - mat @ mat.conj().T)
                assert abs(complex(kernel_value(sos, z)) - want) < 1e-10
                checked += 1

    # exact mode at Gaussian-rational points: identity holds on the nose
    def rat_pt(k, den):
        return [Exact(Fraction(r.randint(-2, 2), den),
                      Fraction(r.randint(-2, 2), den + 1))
                for _ in range(k)]

    for _ in range(5):
        z = rat_pt(3, 5)
        want = Exact(1)
        for c in z:
            want = want * (Exact(1) - c * c.conjugate())
        assert kernel_value(sos_polydisk(3), z) == want

        z = rat_pt(5, 6)
        s = sum((c * c for c in z), Exact(0))
        want = Exact(1) - sum((c * c.conjugate() for c in z), Exact(0)) \
            + s * s.conjugate() * Fraction(1, 4)
        assert kernel_value(sos_type_iv(5), z) == want

        for p, q in [(2, 3), (3, 4)]:
            z = rat_pt(p * q, 7)
            assert kernel_value(sos_type_i(p, q), z) \
                == det_kernel_oracle_exact(p, q, z)

    for p in range(1, 7):
        m1, m2 = sos_counts(make_spec("polydisk", p=p))
        assert m1 == 2 ** (p - 1)
        assert m1 == m2 + 1
    assert sos_counts(make_spec("I", p=3, q=4)) == (16, 18)
    print(f"PASS criterion 3: {checked} kernel evaluations, exact "
          f"identities, generator counts")


def test_criterion_04_curvature_pinching():
    r = random.Random(404)
    specs = [make_spec("polydisk", p=1), make_spec("polydisk", p=3),
             make_spec("IV", n=4), make_spec("IV", n=6),
             make_spec("I", p=2, q=3), make_spec("I", p=3, q=4)]
    for spec in specs:
        sos = make_sos(spec)
        lo, hi = -2.0 - 1e-9, -2.0 / spec.rank + 1e-9
        for _ in range(100):
            v = [complex(r.gauss(0, 1), r.gauss(0, 1))
                 for _ in range(spec.dim)]
            norm = math.sqrt(sum(abs(c) ** 2 for c in v))
            alpha = [c / norm for c in v]
            c = curvature_at_origin(sos, alpha)
            assert lo <= c <= hi, f"{spec.label}: {c}"

    for rk in (2, 3, 4):
        sos = sos_polydisk(rk)
        axis = [1.0] + [0.0] * (rk - 1)
        assert abs(curvature_at_origin(sos, axis) + 2.0) < 1e-10
        diag = [1.0 / math.sqrt(rk)] * rk
        assert abs(curvature_at_origin(sos, diag) + 2.0 / rk) < 1e-10
    print("PASS criterion 4: curvature window on 600 directions, "
          "equality anchors hit")


def test_criterion_05_functional_equation_suite():
    cases = [(bidisk_diagonal(), 2), (quadric_null_disk(), 1),
             (quadric_sqrt2_disk(), 2), (matrix_diagonal_disk(), 2)]
    for iso, k in cases:
        assert iso.k == k
        rep = check_functional_eq(iso)
        assert rep.mode == "exact"
        assert rep.max_residual == 0.0
        assert rep.passed
    print("PASS criterion 5: four canonical isometries, residual 0 exact")


# every admissible dimension of each domain appears; seed lists for the
# heavy pairs were picked to keep exact coefficient growth moderate
CONSTRUCTION_PLAN = [
    ("IV", {"n": 3}, {1: range(14), 2: range(14)}),
    ("IV", {"n": 4}, {1: range(8), 2: range(8), 3: range(8)}),
    ("IV", {"n": 5}, {1: range(6), 2: range(6), 3: range(6), 4: range(4)}),
    ("IV", {"n": 6}, {1: range(4), 2: [0, 1], 3: [7, 2], 4: [5, 4],
                      5: [7, 3]}),
    ("I", {"p": 2, "q": 3}, {1: range(6), 2: range(4), 3: [7, 5]}),
    ("I", {"p": 2, "q": 4}, {1: range(4), 2: [7, 1]}),
]


def test_criterion_06_construction_soundness():
    cases = 0
    for family, params, by_dim in CONSTRUCTION_PLAN:
        spec = make_spec(family, **params)
        assert sorted(by_dim) == list(range(1, spec.ball_dim_bound + 1))
        for n, seeds in by_dim.items():
            for seed in seeds:
                rows, iso = built_jet(spec, n, seed)
                assert iso.jet.mode == "exact"
                assert iso.jet.degree == DEG
                rep = check_functional_eq(iso)
                assert rep.max_residual == 0.0, \
                    f"{spec.label} n={n} seed={seed}"
                rec = recover_matching_unitary(iso)
                angles = principal_angles(
                    to_complex_matrix(rec.bottom_block(n)),
                    to_complex_matrix(rows))
                assert np.max(angles) < 1e-8, \
                    f"{spec.label} n={n} seed={seed}"
                cases += 1
    assert cases >= 100
    print(f"PASS criterion 6: {cases} seeded constructions, residual 0, "
          f"row spaces recovered")


# (target dim, seeds of cached maximal-source jets to slice)
SLICE_PLAN = [
    ("IV", {"n": 3}, [(1, list(range(14)) + [0, 1])]),
    ("IV", {"n": 4}, [(1, list(range(8)) + [0]), (2, list(range(8)) + [1])]),
    ("IV", {"n": 5}, [(1, range(4)), (2, range(3)), (3, range(3))]),
    ("IV", {"n": 6}, [(1, [7, 3])]),
    ("I", {"p": 2, "q": 3}, [(1, [7, 5]), (2, [7, 5])]),
    ("I", {"p": 2, "q": 4}, [(1, [7, 1])]),
]


def test_criterion_07_extension_factorization():
    cases = 0
    exact_modes = 0
    for family, params, slices in SLICE_PLAN:
        spec = make_spec(family, **params)
        sos = make_sos(spec)
        n0 = spec.ball_dim_bound
        for n, seeds in slices:
            assert n < n0
            for i in seeds:
                _, big = built_jet(spec, n0, i)
                sl = random_isometric_slice(n0, n, 7000 + cases, "exact")
                small = IsometryJet(
                    compose_truncate(big.jet, JetMap.from_linear(sl, DEG),
                                     DEG), 1, sos)
                res = extend_isometry(small)
                assert res.extended.jet.source_dim == n0
                assert check_functional_eq(res.extended).passed
                recomposed = compose_truncate(res.extended.jet,
                                              res.slice_map, DEG)
                if res.mode == "exact":
                    assert recomposed.max_coeff_distance(small.jet) == 0.0
                    exact_modes += 1
                else:
                    gap = recomposed.to_float().max_coeff_distance(
                        small.jet.to_float())
                    assert gap < 1e-10, f"{spec.label} n={n} case={cases}"
                cases += 1
    assert cases >= 50
    print(f"PASS criterion 7: {cases} sliced factorizations recompose "
          f"through degree {DEG} ({exact_modes} exact, "
          f"{cases - exact_modes} floating < 1e-10)")


def test_criterion_08_k2_varieties():
    for iso in (bidisk_diagonal(), quadric_sqrt2_disk(),
                matrix_diagonal_disk()):
        system = build_k2_variety(iso)
        assert system.kind == "k2"
        assert membership_residual(system, iso.jet) < 1e-10
        jac = iso.jet.jacobian0()
        nbig = iso.spec.dim
        n = iso.jet.source_dim
        m = [[sum((jac[i][t] * jac[j][t].conjugate() for t in range(n)),
                  Exact(0)) * Fraction(1, 2)
              - (Exact(1) if i == j else Exact(0))
              for j in range(nbig)] for i in range(nbig)]
        assert exact_rank(m) == nbig - n, iso.spec.label
    print("PASS criterion 8: k=2 varieties built, membership < 1e-10, "
          "rank identity exact")


def test_criterion_09_signature_bound():
    tall = make_spec("I", p=3, q=4)
    for n in range(1, 6):
        assert sos_signature_bound(n, tall)
    assert not sos_signature_bound(6, tall)
    for m in range(3, 9):
        quad = make_spec("IV", n=m)
        assert sos_signature_bound(1, quad)
        assert not sos_signature_bound(2, quad)
    print("PASS criterion 9: signature bounds n <= 5 for I(3,4), "
          "n <= 1 for IV")


def test_criterion_10_negative_controls():
    proc = subprocess.run(
        [sys.executable, "-m", "symdom.cli", "construct", "--family", "I",
         "--p", "2", "--q", "5", "--dim", "1"],
        capture_output=True, text=True)
    assert proc.returncode == 2, proc.stdout

    perturbed = 0
    for family, params, n in [("IV", {"n": 3}, 1), ("IV", {"n": 4}, 2),
                              ("IV", {"n": 5}, 2), ("I", {"p": 2, "q": 3}, 1),
                              ("I", {"p": 2, "q": 4}, 1)]:
        spec = make_spec(family, **params)
        _, iso = built_jet(spec, n, 0)
        jet = iso.jet.to_float()
        best = max(((ci, exp) for ci, comp in enumerate(jet.components)
                    for exp, c in comp.terms.items()),
                   key=lambda t: abs(complex(
                       jet.components[t[0]].terms[t[1]]).real))
        ci, exp = best
        assert abs(complex(jet.components[ci].terms[exp]).real) > 0.05
        terms = dict(jet.components[ci].terms)
        terms[exp] = complex(terms[exp]) + 1e-3
        comps = list(jet.components)
        comps[ci] = HoloPoly(jet.components[ci].nvars, terms, "float")
        bad = IsometryJet(JetMap(comps, DEG, n), 1, make_sos(spec))
        rep = check_functional_eq(bad)
        assert not rep.passed
        assert rep.max_residual >= 1e-4, f"{spec.label}: {rep.max_residual}"
        perturbed += 1
    print(f"PASS criterion 10: I(2,5) rejected with exit 2; {perturbed} "
          f"perturbed jets fail with residual >= 1e-4")
