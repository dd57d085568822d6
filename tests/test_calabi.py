"""Coefficient-Gram unitary matching and orthonormal completion."""

import math
import random
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from symdom import (
    Exact,
    ExactCompletionError,
    UnitaryMatchError,
    coefficient_matrix,
    complete_to_unitary,
    match_unitary,
    make_sos,
    make_spec,
    random_coisometry,
    random_exact_jet,
    random_exact_unitary,
    solve_component_jet,
    sos_signature_bound,
)
from symdom import calabi, linalg
from symdom.linalg import (
    coisometry_residual,
    ex_conj,
    ex_conj_t,
    ex_gs_orthonormal,
    ex_matmul,
    ex_rref,
)
from symdom.randmat import random_unit_phase
from symdom.scalars import (EXACT_ONE, EXACT_ZERO, HALF_SQRT2, SQRT2,
                            field_sqrt)
from symdom.poly import HoloPoly, JetMap

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))
from workloads import CONSTRUCT_GRID, EXTEND_GRID  # noqa: E402


def apply_matrix(u, jet):
    n = len(u)
    comps = []
    for i in range(n):
        acc = HoloPoly.zero(jet.source_dim, jet.mode)
        for j in range(n):
            acc = acc + jet.components[j].scale(u[i][j])
        comps.append(acc)
    return JetMap(comps, jet.degree, jet.source_dim)


def test_complete_to_unitary_float_goldens():
    full = complete_to_unitary(np.array([[0.0, 1.0]], dtype=complex))
    assert full.shape == (2, 2)
    assert np.max(np.abs(full @ full.conj().T - np.eye(2))) < 1e-12
    assert np.allclose(full[-1], [0.0, 1.0])

    row = np.array([[1.0, 1.0j, 0.0]], dtype=complex) / math.sqrt(2)
    full = complete_to_unitary(row)
    assert full.shape == (3, 3)
    assert np.max(np.abs(full @ full.conj().T - np.eye(3))) < 1e-12
    assert np.allclose(full[-1], row[0])

    # one complete QR: unitary to rounding, the given rows kept at the
    # bottom bit for bit, and the same output on every call
    for m, ncols in [(1, 2), (1, 5), (2, 5), (3, 4), (4, 9), (6, 10)]:
        for seed in (1, 2):
            rows = random_coisometry(m, ncols, seed, "float")
            full = complete_to_unitary(rows)
            assert full.shape == (ncols, ncols)
            assert coisometry_residual(full) <= 1e-14
            assert np.array_equal(full[ncols - m:], rows)
            assert np.array_equal(complete_to_unitary(rows), full)


def test_complete_to_unitary_rejects_bad_rows():
    with pytest.raises(ValueError):
        complete_to_unitary(np.array([[0.5, 0.5]], dtype=complex))


def test_complete_to_unitary_rejects_nan_rows():
    # a NaN residual fails the check instead of reaching the SVD
    rows = np.array([[math.nan, 0.0, 0.0, 0.0]], dtype=complex)
    with pytest.raises(ValueError, match="not orthonormal"):
        complete_to_unitary(rows)


def test_complete_to_unitary_square_rows_complete_to_themselves():
    rows_f = random_coisometry(3, 3, 5, "float")
    full = complete_to_unitary(rows_f)
    assert full.shape == (3, 3) and np.array_equal(full, rows_f)
    rows_e = random_coisometry(3, 3, 5, "exact")
    assert complete_to_unitary(rows_e) == rows_e


def test_coisometry_residual_exact_rows():
    for seed in range(4):
        rows = random_coisometry(2, 5, seed, "exact")
        assert coisometry_residual(rows) == 0.0
        scaled = [[SQRT2 * x for x in row] for row in rows]
        assert coisometry_residual(scaled, k=2) == 0.0
        assert coisometry_residual(scaled) > 0
        for change in (Fraction(1, 10), Fraction(1, 10 ** 400)):
            bent = [list(row) for row in rows]
            bent[1][seed] = bent[1][seed] + Exact.of(change)
            # the second change's modulus underflows to 0.0 in floats
            assert coisometry_residual(bent) > 0


def test_coisometry_residual_float_rows():
    rows = random_coisometry(3, 5, 2, "float")
    old = float(np.max(np.abs(rows @ rows.conj().T - np.eye(3))))
    assert coisometry_residual(rows) == old
    rows[0, 1] = math.nan
    assert math.isnan(coisometry_residual(rows))


def test_complete_to_unitary_exact_random_rows():
    for seed in range(6):
        rows = random_coisometry(2, 5, seed, "exact")
        full = complete_to_unitary(rows)
        assert len(full) == 5
        assert coisometry_residual(full) == 0.0
        assert full[-2:] == [list(r) for r in rows]


def test_match_unitary_exact_roundtrip():
    r = random.Random(1)
    for seed in range(8):
        v = random_exact_unitary(3, seed)
        g = random_exact_jet(2, 3, 2, rng=r)
        f = apply_matrix(v, g)
        u, mode = match_unitary(f, g)
        assert mode == "exact"
        assert u == v
        assert ex_matmul(u, [[Exact(0)] * 3] * 3) == [[Exact(0)] * 3] * 3


def test_match_unitary_float_roundtrip():
    rng = np.random.default_rng(4)
    r = random.Random(2)
    for _ in range(6):
        z = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        v, _ = np.linalg.qr(z)
        g = random_exact_jet(2, 3, 2, rng=r).to_float()
        f = apply_matrix([list(row) for row in v], g)
        u, mode = match_unitary(f, g)
        assert mode == "float"
        assert np.max(np.abs(np.asarray(u) - v)) < 1e-9


def test_match_unitary_rank_deficient_completion():
    # two equal components leave a rank gap; the matcher must still return
    # a unitary reproducing the target
    w1 = HoloPoly.var(2, 0, "float")
    w2 = HoloPoly.var(2, 1, "float")
    g = JetMap([w1, w1, w2], 2, 2)
    theta = 0.3
    rot = [[math.cos(theta), -math.sin(theta), 0.0],
           [math.sin(theta), math.cos(theta), 0.0],
           [0.0, 0.0, 1.0]]
    f = apply_matrix(rot, g)
    u, mode = match_unitary(f, g)
    assert mode == "float"
    fm, basis = coefficient_matrix(f)
    gm, _ = coefficient_matrix(g, basis)
    assert np.max(np.abs(u @ gm - fm)) < 1e-9
    assert np.max(np.abs(u @ u.conj().T - np.eye(3))) < 1e-9


def test_match_unitary_rejects_gram_mismatch():
    g = random_exact_jet(2, 3, 2, rng=random.Random(9))
    doubled = JetMap([c.scale(Exact(2)) for c in g.components], g.degree, 2)
    with pytest.raises(UnitaryMatchError):
        match_unitary(doubled, g)


def test_match_unitary_rejects_nan_target():
    # a NaN coefficient makes the Gram gap NaN, which never passes
    w1, w2 = HoloPoly.var(2, 0, "float"), HoloPoly.var(2, 1, "float")
    bad = HoloPoly.monomial(2, (1, 0), complex(math.nan), "float")
    with pytest.raises(UnitaryMatchError,
                       match="coefficient Grams differ by nan"):
        match_unitary(JetMap([bad, w2], 2), JetMap([w1, w2], 2))


def test_match_unitary_rejects_nan_source():
    # the NaN is refused before it reaches the singular value decomposition
    w1, w2 = HoloPoly.var(2, 0, "float"), HoloPoly.var(2, 1, "float")
    bad = w1.scale(complex(math.nan))
    with pytest.raises(UnitaryMatchError,
                       match="coefficient Grams differ by nan"):
        match_unitary(JetMap([w1, w2], 2), JetMap([bad, w2], 2))


def test_match_unitary_rejects_inconsistent_exact_target():
    # the source (w1, w2) has full row rank, but no u has u (w1, w2) =
    # (w1, w1^2): the target's w1^2 column lies outside the source's
    w1, w2 = HoloPoly.var(2, 0), HoloPoly.var(2, 1)
    g = JetMap([w1, w2], 2)
    f = JetMap([w1, w1.mul_trunc(w1)], 2)
    with pytest.raises(UnitaryMatchError,
                       match="exact solve left a nonzero matching residual"):
        match_unitary(f, g)


@pytest.mark.parametrize("family, params", [("IV", {"n": 5}),
                                             ("I", {"p": 2, "q": 3})])
def test_exact_match_of_a_maximal_source_eliminates_once(monkeypatch,
                                                         family, params):
    # one rref of [g^T | f^T] both decides that g has full row rank and
    # gives the unitary: the rotation that made the target
    spec = make_spec(family, **params)
    rows = random_coisometry(spec.dim - spec.ball_dim_bound, spec.dim, 3,
                             "exact")
    g = solve_component_jet(rows, make_sos(spec), degree=4).jet
    v = random_exact_unitary(g.target_dim, 2)
    shapes = []

    def counted(a):
        shapes.append((len(a), len(a[0])))
        return ex_rref(a)

    # linalg's own name too, which ex_rank would reach
    monkeypatch.setattr(calabi, "ex_rref", counted)
    monkeypatch.setattr(linalg, "ex_rref", counted)
    u, mode = match_unitary(apply_matrix(v, g), g)
    assert (mode, u) == ("exact", v)
    basis_size = len(coefficient_matrix(g)[1])
    assert shapes == [(basis_size, 2 * g.target_dim)]


@pytest.mark.parametrize("zero_in", ["target", "source"])
def test_match_unitary_zero_component_skips_the_exact_solve(monkeypatch,
                                                            zero_in):
    # a zero row of the target or the source rules an exact unitary out:
    # the match is the float one, and no elimination is run
    def refuse(*args, **kwargs):
        raise AssertionError("eliminated")

    monkeypatch.setattr(calabi, "ex_rref", refuse)
    w = HoloPoly.var(1, 0)
    f1 = w + w.mul_trunc(w)
    h = HALF_SQRT2
    f = JetMap([f1, HoloPoly.zero(1)], 2)
    g = JetMap([f1.scale(h), f1.scale(h)], 2)
    target, source = (f, g) if zero_in == "target" else (g, f)
    u, mode = match_unitary(target, source)
    assert mode == "float"
    fm, basis = coefficient_matrix(target.to_float())
    gm, _ = coefficient_matrix(source.to_float(), basis)
    assert np.max(np.abs(u @ gm - fm)) < 1e-12
    assert coisometry_residual(u) < 1e-12


def test_gram_schmidt_projects_and_skips_dependent_rows():
    def row(*xs):
        return [Exact(x) for x in xs]

    h, zero = HALF_SQRT2, Exact(0)
    # the repeated row projects to zero and is skipped
    assert ex_gs_orthonormal([row(1, 1, 0), row(1, 1, 0), row(1, -1, 0)]) \
        == [[h, h, zero], [h, -h, zero]]
    # (1, 0, 0) projects to (1/2, -1/2, 0), of norm sqrt2/2
    assert ex_gs_orthonormal([row(1, 1, 0), row(1, 0, 0)]) == \
        [[h, h, zero], [h, -h, zero]]
    # (1, 0, 1) projects to (1/2, -1/2, 1), of squared norm 3/2
    with pytest.raises(ExactCompletionError, match="no square root"):
        ex_gs_orthonormal([row(1, 1, 0), row(1, 0, 1)])


def test_random_coisometry_modes():
    rows_f = random_coisometry(2, 4, 3, "float")
    assert coisometry_residual(np.asarray(rows_f)) < 1e-12
    rows_e = random_coisometry(3, 6, 3, "exact")
    assert coisometry_residual(rows_e) == 0.0


def test_signature_bound():
    tall = make_spec("I", p=3, q=4)
    assert sos_signature_bound(5, tall)
    assert not sos_signature_bound(6, tall)
    for m in range(3, 7):
        quad = make_spec("IV", n=m)
        assert sos_signature_bound(1, quad)
        assert not sos_signature_bound(2, quad)


# -- the exact matrix layer against its per-entry loops ---------------------
# The exact matrix layer written entry by entry, one Exact * and one + or -
# per product, where the library sums each entry's products once
# (``scalars.row_sub``, ``row_comb`` and ``sum_products``): the reference
# that every value must equal, internal form for internal form.

def _ref_dot(u, v):
    acc = EXACT_ZERO
    for x, y in zip(u, v):
        acc = acc + x * y
    return acc


def _ref_conj(a):
    return [[x.conjugate() for x in row] for row in a]


def _ref_matmul(a, b):
    return [[_ref_dot(row, col) for col in zip(*b)] for row in a]


def _ref_rotation_pair(r):
    if r.random() < 0.25:
        a, b = HALF_SQRT2, HALF_SQRT2
    else:
        p, q, h = r.choice([(3, 4, 5), (5, 12, 13), (8, 15, 17),
                            (7, 24, 25), (20, 21, 29), (9, 40, 41)])
        if r.random() < 0.5:
            p, q = q, p
        a, b = Exact.of(Fraction(p, h)), Exact.of(Fraction(q, h))
    return a * random_unit_phase(r), b * random_unit_phase(r)


def _ref_unitary(n, r):
    if n == 1:
        return [[random_unit_phase(r)]]
    m = [[EXACT_ONE if i == j else EXACT_ZERO for j in range(n)]
         for i in range(n)]
    for _ in range(2 * n):
        i, j = sorted(r.sample(range(n), 2))
        a, b = _ref_rotation_pair(r)
        ri, rj = m[i], m[j]
        m[i] = [a * x + b * y for x, y in zip(ri, rj)]
        m[j] = [-(b.conjugate()) * x + a.conjugate() * y
                for x, y in zip(ri, rj)]
    for i in range(n):
        ph = random_unit_phase(r)
        m[i] = [ph * x for x in m[i]]
    r.shuffle(m)
    return m


def _ref_coisometry(nrows, ncols, seed):
    r = random.Random(seed)
    coords = list(range(ncols))
    r.shuffle(coords)
    base = [[EXACT_ZERO] * ncols for _ in range(ncols)]
    pos = 0
    while pos + 1 < ncols:
        if r.random() < 0.2:
            base[coords[pos]][coords[pos]] = random_unit_phase(r)
            pos += 1
            continue
        p, q = coords[pos], coords[pos + 1]
        a, b = _ref_rotation_pair(r)
        base[p][p], base[p][q] = a, b
        base[q][p], base[q][q] = -(b.conjugate()), a.conjugate()
        pos += 2
    if pos < ncols:
        base[coords[pos]][coords[pos]] = random_unit_phase(r)
    rows = [base[i] for i in r.sample(range(ncols), nrows)]
    return _ref_matmul(_ref_unitary(nrows, r), rows)


def _ref_rref(a):
    rows = [list(row) for row in a]
    pivots, pr = [], 0
    for col in range(len(rows[0])):
        sel = next((r for r in range(pr, len(rows))
                    if not rows[r][col].is_zero), None)
        if sel is None:
            continue
        rows[pr], rows[sel] = rows[sel], rows[pr]
        inv = rows[pr][col].inverse()
        rows[pr] = [x * inv for x in rows[pr]]
        for r in range(len(rows)):
            if r != pr and not rows[r][col].is_zero:
                f = rows[r][col]
                rows[r] = [x - f * y for x, y in zip(rows[r], rows[pr])]
        pivots.append(col)
        pr += 1
        if pr == len(rows):
            break
    return rows, pivots


def _ref_complete(rows):
    ncols = len(rows[0])
    rref, pivots = _ref_rref(_ref_conj(rows))
    ortho = []
    for fc in (c for c in range(ncols) if c not in pivots):
        v = [EXACT_ZERO] * ncols
        v[fc] = EXACT_ONE
        for r, pc in enumerate(pivots):
            v[pc] = -rref[r][fc]
        for e in ortho:
            coef = _ref_dot(v, [y.conjugate() for y in e])
            if not coef.is_zero:
                v = [x - coef * y for x, y in zip(v, e)]
        norm2 = _ref_dot(v, [x.conjugate() for x in v])
        if not norm2.is_zero:
            inv = field_sqrt(norm2).inverse()
            ortho.append([x * inv for x in v])
    return ortho + [list(r) for r in rows]


def _ref_residual(a, k=1):
    worst = 0.0
    for i, u in enumerate(a):
        for j in range(i, len(a)):
            acc = _ref_dot(u, [y.conjugate() for y in a[j]])
            if i == j:
                acc = acc - k
            if not acc.is_zero:
                worst = max(worst, abs(complex(acc)), math.ulp(0.0))
    return worst


def test_exact_matrix_layer_equals_its_per_entry_loops():
    # every (N, n) of the benchmark's construct and extend grids: the
    # N - n rows that construct draws for a source of dimension n
    shapes = sorted({(make_spec(family, **params).dim, n)
                     for family, params, dims in CONSTRUCT_GRID + EXTEND_GRID
                     for n in dims})
    sizes = sorted({m for big, n in shapes for m in (big, big - n)})
    assert len(shapes) == 14 and sizes == list(range(1, 9))
    for size in sizes:
        for seed in range(1, 6):
            assert random_exact_unitary(size, seed) == \
                _ref_unitary(size, random.Random(seed))
    for big, n in shapes:
        for seed in range(1, 6):
            rows = random_coisometry(big - n, big, seed, "exact")
            assert rows == _ref_coisometry(big - n, big, seed)
            assert ex_rref(ex_conj(rows)) == _ref_rref(_ref_conj(rows))
            full = complete_to_unitary(rows)
            assert full == _ref_complete(rows)
            assert ex_matmul(rows, ex_conj_t(full)) == \
                _ref_matmul(rows, [list(c) for c in zip(*_ref_conj(full))])
            assert coisometry_residual(full) == _ref_residual(full) == 0.0
            # rows that are not orthonormal, against k = 1 and k = 2
            bent = [list(row) for row in full]
            bent[0][-1] = bent[0][-1] + Exact(Fraction(1, 3), 0, 1)
            for k in (1, 2):
                got = coisometry_residual(bent, k)
                assert got == _ref_residual(bent, k) and got > 0
