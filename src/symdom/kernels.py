"""Signed sums-of-squares expansions of the kernel polynomial.

For the implemented families the polynomial

    h(z, conj z) = 1 - sum |g(z)|^2 (odd generators)
                     + sum |g(z)|^2 (even generators)

is the denominator of the Bergman kernel up to the standard exponent, with
homogeneous polynomial generators whose sign is the parity of their degree.
The first ``dim`` odd generators are always the coordinates themselves.

Implemented expansions: polydisk (square-free monomials), type IV
(coordinates and one half-sum of squares), type I (all k x k minors, signs by
Cauchy-Binet).

The pullback h(f, conj f) of a jet f is summed from its generator
composites: as a sparse bidegree polynomial (`h_pullback`, the exact FE
check's route), or as one signed Gram product of their coefficient matrix
(`signed_gram`, the float check's route).  Curvature at the origin is a
closed form in the generators' values along the direction.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .domains import DomainSpec, ParameterError, make_spec
from .poly import BidegPoly, HoloPoly, JetMap, compose_truncate
from .scalars import Exact, Scalar, as_complex, mode_of, one, zero


@dataclass(frozen=True)
class SignedSOS:
    """Kernel expansion: odd-degree generators enter with minus, even with plus."""

    spec: DomainSpec
    odd: Tuple[HoloPoly, ...]
    even: Tuple[HoloPoly, ...]
    mode: str

    def __post_init__(self):
        n = self.spec.dim
        for g in self.odd + self.even:
            if g.nvars != n:
                raise ValueError("generator variable count mismatch")
            degs = {sum(e) for e in g.terms}
            if len(degs) != 1:
                raise ValueError("generators must be homogeneous")
        for g in self.odd:
            if g.degree % 2 != 1:
                raise ValueError("odd block contains an even-degree generator")
        for g in self.even:
            if g.degree % 2 != 0:
                raise ValueError("even block contains an odd-degree generator")
        if (self.spec.sos_odd, self.spec.sos_even) != (len(self.odd), len(self.even)):
            raise ValueError("generator counts disagree with the catalog")

    @property
    def nvars(self) -> int:
        return self.spec.dim

    def signed_generators(self) -> List[Tuple[int, HoloPoly]]:
        return [(-1, g) for g in self.odd] + [(1, g) for g in self.even]


def _squarefree_monomials(p: int, parity: int, mode: str) -> List[HoloPoly]:
    out = []
    for k in range(1, p + 1):
        if k % 2 != parity:
            continue
        for subset in itertools.combinations(range(p), k):
            exp = tuple(1 if j in subset else 0 for j in range(p))
            out.append(HoloPoly.monomial(p, exp, one(mode), mode))
    return out


def sos_polydisk(p: int, mode: str = "exact") -> SignedSOS:
    """Expansion of prod_j (1 - |z_j|^2): square-free monomials by parity."""
    spec = make_spec("polydisk", p=p)
    return SignedSOS(spec,
                     tuple(_squarefree_monomials(p, 1, mode)),
                     tuple(_squarefree_monomials(p, 0, mode)),
                     mode)


def sos_type_iv(n: int, mode: str = "exact") -> SignedSOS:
    """Expansion 1 - sum |z_j|^2 + |(1/2) sum z_j^2|^2."""
    spec = make_spec("IV", n=n)
    odd = tuple(HoloPoly.var(n, j, mode) for j in range(n))
    half = Fraction(1, 2) if mode == "exact" else 0.5
    terms = {tuple(2 if i == j else 0 for i in range(n)): half for j in range(n)}
    even = (HoloPoly(n, terms, mode),)
    return SignedSOS(spec, odd, even, mode)


def _minor(p: int, q: int, rows: Sequence[int], cols: Sequence[int],
           mode: str) -> HoloPoly:
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
        key = tuple(exp)
        c = sign if mode == "exact" else complex(sign)
        terms[key] = terms.get(key, zero(mode)) + c
    return HoloPoly(n, terms, mode)


def sos_type_i(p: int, q: int, mode: str = "exact") -> SignedSOS:
    """All k x k minors of the p x q matrix of coordinates, sign (-1)^k."""
    spec = make_spec("I", p=p, q=q)
    odd: List[HoloPoly] = []
    even: List[HoloPoly] = []
    for k in range(1, p + 1):
        bucket = odd if k % 2 == 1 else even
        for rows in itertools.combinations(range(p), k):
            for cols in itertools.combinations(range(q), k):
                bucket.append(_minor(p, q, rows, cols, mode))
    return SignedSOS(spec, tuple(odd), tuple(even), mode)


def make_sos(spec: DomainSpec, mode: str = "exact") -> SignedSOS:
    if spec.family == "polydisk":
        return sos_polydisk(spec.params[0], mode)
    if spec.family == "IV":
        return sos_type_iv(spec.params[0], mode)
    if spec.family == "I":
        return sos_type_i(*spec.params, mode=mode)
    raise ParameterError(
        f"no signed-square expansion implemented for {spec.label}")


# -- kernel values -----------------------------------------------------------

def kernel_value(sos: SignedSOS, z: Sequence) -> Scalar:
    """h(z, conj z) = 1 - sum |odd|^2 + sum |even|^2 at a point."""
    return kernel_polarized(sos, z, z)


def kernel_polarized(sos: SignedSOS, z: Sequence, xi: Sequence) -> Scalar:
    """h(z, conj xi): holomorphic in z, anti-holomorphic in xi."""
    exact_pt = all(mode_of(pt) == "exact" for pt in list(z) + list(xi))
    mode = "exact" if sos.mode == "exact" and exact_pt else "float"
    total = one(mode)
    for sign, g in sos.signed_generators():
        val = g.evaluate(z)
        wal = g.evaluate(xi).conjugate()
        total = total + val * wal * sign
    return total


def kernel_polarized_many(sos: SignedSOS, z, xi) -> np.ndarray:
    """h(z_s, conj xi_s) for the rows s of two S x dim float arrays."""
    signs, gens = zip(*sos.signed_generators())
    stack = JetMap(gens, max(g.degree for g in gens))
    vals = stack.evaluate_many(np.concatenate([z, xi]))
    prods = vals[:len(z)] * vals[len(z):].conj()
    return 1.0 + prods @ np.array(signs, dtype=float)


def generator_composites(sos: SignedSOS, f: JetMap, d: int) -> JetMap:
    """The generators (odd, then even) composed with f, truncated at d."""
    return compose_truncate(JetMap(sos.odd + sos.even, d), f, d)


def signed_gram(sos: SignedSOS, composites: JetMap,
                basis: Sequence[tuple]) -> np.ndarray:
    """C^T diag(s) conj(C) in floating point, for C the coefficient matrix
    of a generator composite stack (odd, then even) over basis and s the
    generator signs: entry (a, b) is the coefficient of
    w^basis[a] conj(w)^basis[b] in sum_g s_g |g o f|^2.  A value beyond
    float range reads as inf / nan, with no warning."""
    mat = composites.float_coefficients(basis)
    signs = np.array([-1.0] * len(sos.odd) + [1.0] * len(sos.even))
    with np.errstate(over="ignore", invalid="ignore"):
        return mat.T @ (signs[:, None] * mat.conj())


def h_pullback(sos: SignedSOS, f: JetMap, d: Optional[int] = None, *,
               composites: Optional[JetMap] = None) -> BidegPoly:
    """h(f(w), conj f(w)) restricted to the terms with |alpha| + |beta| <= d,
    every generator composite truncated at degree d.

    Each returned coefficient is exact for a degree-d jet of a true map,
    because a coefficient at (alpha, beta) only involves composite
    coefficients of degrees |alpha| and |beta|.  ``composites`` is the
    stack ``generator_composites(sos, f, d)`` when the caller holds it
    (an IsometryJet keeps one per degree); otherwise it is composed here.

    The sum runs over nonzero coefficients only, in either mode, into one
    dict: for each composite c with sign s, each unordered pair of terms
    c_alpha, c_beta with |alpha| + |beta| <= d adds s c_alpha conj(c_beta)
    at (alpha, beta) and its conjugate at (beta, alpha).  Given
    ``composites`` and d, only f's dimensions and mode are read.  The
    float check uses ``signed_gram`` instead.
    """
    if f.target_dim != sos.nvars:
        raise ValueError(
            f"jet lands in C^{f.target_dim}, expansion lives on C^{sos.nvars}")
    d = f.degree if d is None else d
    if composites is None:
        composites = generator_composites(sos, f, d)
    signs = [-1] * len(sos.odd) + [1] * len(sos.even)
    mode = "exact" if sos.mode == f.mode == "exact" else "float"
    n = f.source_dim
    e0 = (0,) * n
    acc = {(e0, e0): one(mode)}
    for sign, comp in zip(signs, composites.components):
        items = [(e, c, sum(e)) for e, c in comp.terms.items()]
        for i, (ea, ca, da) in enumerate(items):
            if sign < 0:
                ca = -ca
            for eb, cb, db in items[i:]:
                if da + db > d:
                    continue
                val = ca * cb.conjugate()
                key = (ea, eb)
                acc[key] = acc[key] + val if key in acc else val
                if ea != eb:
                    key = (eb, ea)
                    val = val.conjugate()
                    acc[key] = acc[key] + val if key in acc else val
    return BidegPoly.from_field(n, acc, mode)


def minimal_embedding(sos: SignedSOS, z: Sequence) -> List[Scalar]:
    """Projective coordinates [1, odd generators, even generators] at z;
    never the zero vector."""
    out = [one(sos.mode)]
    for g in sos.odd + sos.even:
        out.append(g.evaluate(z))
    return out


def curvature_at_origin(sos: SignedSOS, alpha: Sequence) -> float:
    """Holomorphic sectional curvature of the canonical metric at 0 along a
    Euclidean-unit direction alpha.

    Each generator is homogeneous, so on the line t*alpha the kernel is
    h = 1 + c1 |t|^2 + c2 |t|^4 + ..., with c_j the signed sum of
    |g(alpha)|^2 over the degree-j generators.  The curvature is 4 times
    the |t|^4 coefficient of log h, 4 Re(c2 - c1^2 / 2).  Always in
    [-2, -2/rank].
    """
    alpha = [Exact.of(a) if mode_of(a) == "exact" and not isinstance(a, Exact)
             else a for a in alpha]
    norm2 = sum(abs(x) * abs(x) for x in map(as_complex, alpha))
    if not abs(norm2 - 1.0) <= 1e-9:  # NaN is not unit either
        raise ValueError(f"direction must be Euclidean-unit, got |alpha|^2 = {norm2}")
    mode = "exact" if sos.mode == "exact" and all(
        mode_of(a) == "exact" for a in alpha) else "float"
    c = {1: zero(mode), 2: zero(mode)}
    for sign, g in sos.signed_generators():
        if g.degree in c:
            val = g.evaluate(alpha)
            mag = val * val.conjugate()
            c[g.degree] = c[g.degree] + mag * sign
    return 4.0 * as_complex(c[2] - c[1] * c[1] / 2).real


# -- interior membership and sampling ---------------------------------------

def contains(sos: SignedSOS, z: Sequence) -> bool:
    """Interior membership of a point in the bounded realization.

    Polydisk and type IV use their defining inequalities; type I checks the
    largest singular value of the matrix point.
    """
    pt = [as_complex(p) for p in z]
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
