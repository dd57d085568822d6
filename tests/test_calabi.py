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
    ex_gram,
    ex_is_identity,
    ex_matmul,
)
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


def test_complete_to_unitary_exact_random_rows():
    for seed in range(6):
        rows = random_coisometry(2, 5, seed, "exact")
        full = complete_to_unitary(rows)
        assert len(full) == 5
        assert ex_is_identity(ex_gram(full))
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
    assert ex_is_identity(ex_gram(rows_e))


def test_signature_bound():
    tall = make_spec("I", p=3, q=4)
    assert sos_signature_bound(5, tall)
    assert not sos_signature_bound(6, tall)
    for m in range(3, 7):
        quad = make_spec("IV", n=m)
        assert sos_signature_bound(1, quad)
        assert not sos_signature_bound(2, quad)
