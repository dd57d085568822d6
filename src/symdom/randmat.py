"""Seeded random generators for unitaries, co-isometries and jets.

Exact generators draw from rotation pairs whose entry moduli stay inside
Q(i, sqrt2), so that Gram-Schmidt completion of the generated rows never
leaves the field.  Floating generators use numpy with explicit seeding.
"""

from __future__ import annotations

import random
from fractions import Fraction
from typing import Optional, Tuple, Union

import numpy as np

from .linalg import ExactMatrix, ex_conj_t, ex_matmul
from .poly import HoloPoly, JetMap
from .scalars import EXACT_ONE, EXACT_ZERO, HALF_SQRT2, Exact, row_comb

__all__ = ["as_rng", "random_unit_phase", "random_rotation_pair",
           "random_exact_unitary", "block_pair_unitary", "random_coisometry",
           "random_isometric_slice", "random_exact_jet"]

Rng = Union[int, random.Random]

JET_TERMS = 4  # random monomials added to each component of a random jet

# the legs (p/h, q/h) of the Pythagorean triples (p, q, h)
_LEGS = [(Exact(Fraction(p, h)), Exact(Fraction(q, h)))
         for p, q, h in [(3, 4, 5), (5, 12, 13), (8, 15, 17),
                         (7, 24, 25), (20, 21, 29), (9, 40, 41)]]

_UNIT_PHASES = [
    Exact.of(1), Exact.of(-1), Exact(0, 1), Exact(0, -1),
    Exact(Fraction(3, 5), Fraction(4, 5)),
    Exact(Fraction(3, 5), Fraction(-4, 5)),
    Exact(Fraction(-5, 13), Fraction(12, 13)),
    Exact(Fraction(8, 17), Fraction(15, 17)),
]


def as_rng(rng: Optional[Rng]) -> random.Random:
    if isinstance(rng, random.Random):
        return rng
    return random.Random(0 if rng is None else rng)


def random_unit_phase(rng: Rng) -> Exact:
    return as_rng(rng).choice(_UNIT_PHASES)


def random_rotation_pair(rng: Rng) -> Tuple[Exact, Exact]:
    """A pair (a, b) with |a|^2 + |b|^2 = 1 and |a|, |b| in the field."""
    r = as_rng(rng)
    if r.random() < 0.25:
        a, b = HALF_SQRT2, HALF_SQRT2
    else:
        a, b = r.choice(_LEGS)
        if r.random() < 0.5:
            a, b = b, a
    return a * random_unit_phase(r), b * random_unit_phase(r)


def _apply_rotation(m: ExactMatrix, i: int, j: int,
                    a: Exact, b: Exact) -> None:
    ri, rj = m[i], m[j]
    m[i] = row_comb(a, ri, b, rj)
    m[j] = row_comb(-(b.conjugate()), ri, a.conjugate(), rj)


def random_exact_unitary(n: int, rng: Rng = 0) -> ExactMatrix:
    """Dense unitary over Q(i, sqrt2) built from 2n seeded rotations."""
    r = as_rng(rng)
    if n < 1:
        raise ValueError("need n >= 1")
    m: ExactMatrix = [[EXACT_ONE if i == j else EXACT_ZERO
                       for j in range(n)] for i in range(n)]
    if n == 1:
        return [[random_unit_phase(r)]]
    for _ in range(2 * n):
        i, j = r.sample(range(n), 2)
        a, b = random_rotation_pair(r)
        _apply_rotation(m, min(i, j), max(i, j), a, b)
    for i in range(n):
        ph = random_unit_phase(r)
        m[i] = [ph * x for x in m[i]]
    r.shuffle(m)
    return m


def block_pair_unitary(n: int, rng: Rng = 0) -> ExactMatrix:
    """Unitary supported on disjoint coordinate pairs plus unit diagonal.

    Every subset of its rows admits an exact orthonormal completion, which
    makes it the backbone of exact co-isometry generation.
    """
    r = as_rng(rng)
    coords = list(range(n))
    r.shuffle(coords)
    m: ExactMatrix = [[EXACT_ZERO] * n for _ in range(n)]
    pos = 0
    while pos + 1 < n:
        if r.random() < 0.2:
            m[coords[pos]][coords[pos]] = random_unit_phase(r)
            pos += 1
            continue
        p, q = coords[pos], coords[pos + 1]
        a, b = random_rotation_pair(r)
        m[p][p] = a
        m[p][q] = b
        m[q][p] = -(b.conjugate())
        m[q][q] = a.conjugate()
        pos += 2
    if pos < n:
        m[coords[pos]][coords[pos]] = random_unit_phase(r)
    return m


def random_coisometry(nrows: int, ncols: int, rng: Rng = 0,
                      mode: str = "float"):
    """Seeded matrix with orthonormal rows (nrows <= ncols).

    Exact mode returns rows whose span is spanned by rows of a
    pair-supported unitary, mixed by a dense exact unitary; such rows
    always complete exactly.  Floating mode draws from a QR factorization
    of a complex Gaussian matrix.
    """
    if nrows > ncols:
        raise ValueError("nrows must not exceed ncols")
    if mode == "exact":
        r = as_rng(rng)
        base = block_pair_unitary(ncols, r)
        chosen = r.sample(range(ncols), nrows)
        rows = [base[i] for i in chosen]
        mixer = random_exact_unitary(nrows, r)
        return ex_matmul(mixer, rows)
    if mode == "float":
        seed = rng if isinstance(rng, int) else as_rng(rng).randrange(2 ** 32)
        g = np.random.default_rng(seed)
        z = g.normal(size=(ncols, ncols)) + 1j * g.normal(size=(ncols, ncols))
        q, rmat = np.linalg.qr(z)
        d = np.diag(rmat).copy()
        d[np.abs(d) < 1e-14] = 1.0
        q = q @ np.diag(d / np.abs(d))
        return q[:, :nrows].conj().T
    raise ValueError(f"unknown mode {mode!r}")


def random_isometric_slice(nbig: int, nsmall: int, rng: Rng = 0,
                           mode: str = "float"):
    """Seeded nbig x nsmall matrix with orthonormal columns."""
    if nsmall > nbig:
        raise ValueError("nsmall must not exceed nbig")
    rows = random_coisometry(nsmall, nbig, rng, mode)
    if mode == "exact":
        return ex_conj_t(rows)
    return np.asarray(rows).conj().T


def _random_exact_scalar(r: random.Random) -> Exact:
    num = r.randint(-3, 3)
    den = r.randint(1, 3)
    val = Exact.of(Fraction(num, den))
    if r.random() < 0.5:
        val = val + Exact(0, Fraction(r.randint(-2, 2), den))
    if r.random() < 0.2:
        val = val + Exact(0, 0, Fraction(r.randint(-1, 1), 2), 0)
    return val


def random_exact_jet(nvars: int, ncomps: int, degree: int,
                     rng: Rng = 0) -> JetMap:
    """Constant-free exact polynomial jet with small random coefficients:
    each component is a scaled coordinate plus ``JET_TERMS`` random
    monomials of degree 1..degree."""
    r = as_rng(rng)
    comps = []
    for i in range(ncomps):
        poly = HoloPoly.var(nvars, i % nvars, mode="exact").scale(
            _random_exact_scalar(r) + Exact.of(2))
        for _ in range(JET_TERMS):
            deg = r.randint(1, degree)
            exp = [0] * nvars
            for _ in range(deg):
                exp[r.randrange(nvars)] += 1
            poly = poly + HoloPoly.monomial(nvars, tuple(exp),
                                            _random_exact_scalar(r))
        comps.append(poly)
    return JetMap(comps, degree, nvars)
