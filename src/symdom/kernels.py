"""Signed sums-of-squares expansions of the kernel polynomial.

For the implemented families the polynomial

    h(z, conj z) = 1 - sum |g(z)|^2 (odd generators)
                     + sum |g(z)|^2 (even generators)

is the denominator of the Bergman kernel up to the standard exponent, with
homogeneous polynomial generators whose sign is the parity of their degree.
The first ``dim`` odd generators are the coordinates (checked by `SignedSOS`).

Implemented expansions: polydisk (square-free monomials), type IV
(coordinates and one half-sum of squares), type I (all k x k minors, signs by
Cauchy-Binet).

h is the signature form of the minimal embedding [1, odd, even], whose
stack (odd, then even generators) and signs a `SignedSOS` holds.  Each
domain has one expansion, exact, shared by both modes: the generators'
coefficients (+-1 and 1/2) are floats without rounding, so float work
reads them through ``complex()``, and a result's mode is that of the
jet or the points it is computed for.  Kernel values, the embedding and
the curvature at the origin (a closed form in the generators' values
along the direction) evaluate the stack.  The pullback h(f, conj f) of
a jet f is summed from the stack composed with f, that is f itself, then
the generators after the coordinates composed with f: for an exact jet as
a sparse bidegree polynomial (`h_pullback`, the exact FE check's route),
for a float one as one signed Gram product of the composites'
coefficient matrix (`signed_gram`, the float check's route).
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from typing import List, Sequence, Tuple

import numpy as np

from .domains import DomainSpec, ParameterError, make_spec
from .poly import (BidegPoly, HoloPoly, JetMap, _stack_jets, _units,
                   compose_truncate)
from .scalars import EXACT_ONE, EXACT_ZERO, Scalar, sum_products


@dataclass(frozen=True)
class SignedSOS:
    """Kernel expansion: odd-degree generators enter with minus, even with plus.

    The odd block starts with the coordinates.  Set once, after the checks:
    ``stack``, the jet of odd + even at the top generator degree, ``higher``,
    its components after the coordinates, and ``signs``, -1 per odd and +1
    per even generator."""

    spec: DomainSpec
    odd: Tuple[HoloPoly, ...]
    even: Tuple[HoloPoly, ...]
    stack: JetMap = field(init=False, compare=False, repr=False)
    higher: JetMap = field(init=False, compare=False, repr=False)
    signs: Tuple[int, ...] = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        n = self.spec.dim
        gens = self.odd + self.even
        signs = (-1,) * len(self.odd) + (1,) * len(self.even)
        for g, sign in zip(gens, signs):
            if g.nvars != n:
                raise ValueError("generator variable count mismatch")
            degs = {sum(e) for e in g.terms}
            if len(degs) != 1:
                raise ValueError("generators must be homogeneous")
            if (-1) ** g.degree != sign:
                block = "odd" if sign < 0 else "even"
                raise ValueError(f"{block} block holds a degree-{g.degree} "
                                 f"generator")
        if (self.spec.sos_odd, self.spec.sos_even) != (len(self.odd), len(self.even)):
            raise ValueError("generator counts disagree with the catalog")
        for j, (g, exp) in enumerate(zip(self.odd, _units(n))):  # sos_odd >= n
            if set(g.terms) != {exp} or g.coeff(exp) != 1:
                raise ValueError(f"odd generator {j} is not z_{j}")
        object.__setattr__(self, "stack",
                           JetMap(gens, max(g.degree for g in gens)))
        object.__setattr__(self, "higher", JetMap._from_graded(
            self.stack.components[n:], self.stack.degree, n))
        object.__setattr__(self, "signs", signs)

    @property
    def nvars(self) -> int:
        return self.spec.dim


def _squarefree_monomials(p: int, parity: int) -> List[HoloPoly]:
    out = []
    for k in range(1, p + 1):
        if k % 2 != parity:
            continue
        for subset in itertools.combinations(range(p), k):
            exp = tuple(1 if j in subset else 0 for j in range(p))
            out.append(HoloPoly.monomial(p, exp, 1))
    return out


def sos_polydisk(p: int) -> SignedSOS:
    """Expansion of prod_j (1 - |z_j|^2): square-free monomials by parity."""
    spec = make_spec("polydisk", p=p)
    return SignedSOS(spec,
                     tuple(_squarefree_monomials(p, 1)),
                     tuple(_squarefree_monomials(p, 0)))


def sos_type_iv(n: int) -> SignedSOS:
    """Expansion 1 - sum |z_j|^2 + |(1/2) sum z_j^2|^2."""
    spec = make_spec("IV", n=n)
    odd = tuple(HoloPoly.var(n, j) for j in range(n))
    terms = {tuple(2 if i == j else 0 for i in range(n)): Fraction(1, 2)
             for j in range(n)}
    return SignedSOS(spec, odd, (HoloPoly(n, terms),))


def _minor(p: int, q: int, rows: Sequence[int],
           cols: Sequence[int]) -> HoloPoly:
    # determinant of the (rows, cols) submatrix of the p x q variable matrix,
    # variables flattened row-major
    n = p * q
    k = len(rows)
    terms = {}
    for perm in itertools.permutations(range(k)):
        sign = 1
        for i in range(k):
            for j in range(i + 1, k):
                if perm[i] > perm[j]:
                    sign = -sign
        exp = [0] * n
        for i in range(k):
            exp[rows[i] * q + cols[perm[i]]] += 1
        terms[tuple(exp)] = sign
    return HoloPoly(n, terms)


def sos_type_i(p: int, q: int) -> SignedSOS:
    """All k x k minors of the p x q matrix of coordinates, sign (-1)^k."""
    spec = make_spec("I", p=p, q=q)
    odd: List[HoloPoly] = []
    even: List[HoloPoly] = []
    for k in range(1, p + 1):
        bucket = odd if k % 2 == 1 else even
        for rows in itertools.combinations(range(p), k):
            for cols in itertools.combinations(range(q), k):
                bucket.append(_minor(p, q, rows, cols))
    return SignedSOS(spec, tuple(odd), tuple(even))


@functools.lru_cache(maxsize=32)
def make_sos(spec: DomainSpec) -> SignedSOS:
    """The expansion of spec's kernel, built once per process and shared by
    both modes: a ``SignedSOS`` is frozen, and nothing changes its
    generators."""
    if spec.family == "polydisk":
        return sos_polydisk(spec.params[0])
    if spec.family == "IV":
        return sos_type_iv(spec.params[0])
    if spec.family == "I":
        return sos_type_i(*spec.params)
    raise ParameterError(
        f"no signed-square expansion implemented for {spec.label}")


# -- kernel values -----------------------------------------------------------

def kernel_value(sos: SignedSOS, z: Sequence) -> Scalar:
    """h(z, conj z) = 1 - sum |odd|^2 + sum |even|^2 at a point."""
    return kernel_polarized(sos, z, z)


def kernel_polarized(sos: SignedSOS, z: Sequence, xi: Sequence) -> Scalar:
    """h(z, conj xi): holomorphic in z, anti-holomorphic in xi; an ``Exact``
    when both points are exact, else a ``complex``."""
    total = EXACT_ONE
    for sign, val, wal in zip(sos.signs, sos.stack.evaluate(z),
                              sos.stack.evaluate(xi)):
        total = total + val * wal.conjugate() * sign
    return total


def kernel_polarized_many(sos: SignedSOS, z, xi) -> np.ndarray:
    """h(z_s, conj xi_s) for the rows s of two S x dim float arrays."""
    vals = sos.stack.evaluate_many(np.concatenate([z, xi]))
    prods = vals[:len(z)] * vals[len(z):].conj()
    return 1.0 + prods @ np.array(sos.signs, dtype=float)


def generator_composites(sos: SignedSOS, f: JetMap, d: int) -> JetMap:
    """The generators (odd, then even) composed with f, truncated at d: f's
    own components for the coordinates, then ``higher`` composed with f."""
    return _stack_jets(f, compose_truncate(sos.higher, f, d), d)


def signed_gram(sos: SignedSOS, composites: JetMap,
                basis: Sequence[tuple]) -> np.ndarray:
    """C^T diag(s) conj(C) in floating point, for C the coefficient matrix
    of a generator composite stack (odd, then even) over basis and s the
    generator signs: entry (a, b) is the coefficient of
    w^basis[a] conj(w)^basis[b] in sum_g s_g |g o f|^2.  A value beyond
    float range reads as inf / nan, with no warning."""
    mat = composites.float_coefficients(basis)
    signs = np.array(sos.signs, dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):
        return mat.T @ (signs[:, None] * mat.conj())


def h_pullback(sos: SignedSOS, composites: JetMap) -> BidegPoly:
    """h(f(w), conj f(w)) restricted to the terms with |alpha| + |beta| <= d,
    from the exact stack ``generator_composites(sos, f, d)``; d and f's
    dimension are the stack's.  A float stack raises ValueError: its
    pullback is ``signed_gram``.

    Each returned coefficient is exact for a degree-d jet of a true map,
    because a coefficient at (alpha, beta) only involves composite
    coefficients of degrees |alpha| and |beta|.

    The sum runs over nonzero coefficients only: for each composite c
    with sign s, each unordered pair of terms c_alpha, c_beta with
    |alpha| + |beta| <= d adds s c_alpha conj(c_beta) at (alpha, beta) and
    its conjugate, s c_beta conj(c_alpha), at (beta, alpha).  These
    products, from each term's signed and conjugated internal forms, feed
    one ``sum_products``, so each coefficient is reduced once.
    """
    if composites.target_dim != len(sos.signs):
        raise ValueError(
            f"stack has {composites.target_dim} composites for "
            f"{len(sos.signs)} generators")
    if composites.mode != "exact":
        raise ValueError("a float stack is squared by signed_gram")
    return BidegPoly.from_field(composites.source_dim, sum_products(
        _pullback_products(sos.signs, composites)), "exact")


def _pullback_products(signs, stack):
    """``h_pullback``'s (key, x, y) triples for an exact stack: 1 at
    (0, 0), then s c_alpha times conj(c_beta) at (alpha, beta) and
    s c_beta times conj(c_alpha) at (beta, alpha)."""
    d, e0 = stack.degree, (0,) * stack.source_dim
    yield (e0, e0), EXACT_ONE._n, EXACT_ONE._n
    for sign, comp in zip(signs, stack.components):
        # by degree, so each term's partners end at the first one too high
        items = sorted((sum(e), e, (-c if sign < 0 else c)._n,
                        c.conjugate()._n) for e, c in comp.terms.items())
        for i, (da, ea, sa, ca) in enumerate(items):
            for db, eb, sb, cb in items[i:]:
                if da + db > d:
                    break
                yield (ea, eb), sa, cb
                if ea != eb:
                    yield (eb, ea), sb, ca


def minimal_embedding(sos: SignedSOS, z: Sequence) -> List[Scalar]:
    """Projective coordinates [1, odd generators, even generators] at z,
    never zero; ``Exact`` exactly when z is exact."""
    return [HoloPoly.const(sos.nvars, 1).evaluate(z)] + sos.stack.evaluate(z)


def curvature_at_origin(sos: SignedSOS, alpha: Sequence) -> float:
    """Holomorphic sectional curvature of the canonical metric at 0 along a
    Euclidean-unit direction alpha.

    Each generator is homogeneous, so on the line t*alpha the kernel is
    h = 1 + c1 |t|^2 + c2 |t|^4 + ..., with c_j the signed sum of
    |g(alpha)|^2 over the degree-j generators.  The curvature is 4 times
    the |t|^4 coefficient of log h, 4 Re(c2 - c1^2 / 2).  Always in
    [-2, -2/rank].
    """
    norm2 = sum(abs(x) * abs(x) for x in map(complex, alpha))
    if not abs(norm2 - 1.0) <= 1e-9:  # NaN is not unit either
        raise ValueError(f"direction must be Euclidean-unit, got |alpha|^2 = {norm2}")
    # exact sums while the values are exact, as in kernel_polarized
    c = {1: EXACT_ZERO, 2: EXACT_ZERO}
    for sign, g, val in zip(sos.signs, sos.stack.components,
                            sos.stack.evaluate(alpha)):
        if g.degree in c:
            c[g.degree] = c[g.degree] + val * val.conjugate() * sign
    return 4.0 * complex(c[2] - c[1] * c[1] / 2).real


# -- interior membership and sampling ---------------------------------------

def contains(sos: SignedSOS, z: Sequence) -> bool:
    """Interior membership of a point in the bounded realization.

    Polydisk and type IV use their defining inequalities; type I checks the
    largest singular value of the matrix point.
    """
    pt = [complex(p) for p in z]
    fam = sos.spec.family
    if fam == "polydisk":
        return all(abs(c) < 1.0 for c in pt)
    if fam == "IV":
        # products, not ** 2: a huge coordinate overflows to inf (outside)
        # where a float power would raise OverflowError
        n2 = sum(abs(c) * abs(c) for c in pt)
        s = abs(sum(c * c for c in pt) / 2.0)
        return n2 < 2.0 and n2 < 1.0 + s * s
    if fam == "I":
        p, q = sos.spec.params
        mat = np.array(pt, dtype=complex).reshape(p, q)
        smax = np.linalg.svd(mat, compute_uv=False)[0]
        return bool(smax < 1.0)
    raise ParameterError(f"no membership test for {sos.spec.label}")
