"""Coefficient-Gram unitary matching and orthonormal completion."""

import math
import random
from fractions import Fraction

import numpy as np
import pytest

from symdom import (
    Exact,
    UnitaryMatchError,
    coefficient_matrix,
    complete_to_unitary,
    match_unitary,
    make_spec,
    random_coisometry,
    random_exact_jet,
    random_exact_unitary,
    sos_signature_bound,
)
from symdom.linalg import (
    coisometry_residual,
    ex_matmul,
)
from symdom.scalars import SQRT2
from symdom.poly import HoloPoly, JetMap


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
