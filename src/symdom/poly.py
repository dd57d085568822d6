"""Sparse multivariate polynomials, bidegree polynomials and polynomial jets.

Three layers:

* :class:`HoloPoly`   -- holomorphic polynomial in z_1..z_n; sparse dict from
  exponent tuples to coefficients. Zero coefficients are never stored. It
  holds the one sparse arithmetic core (sums, scaling, truncated products
  and powers).
* :class:`BidegPoly`  -- polynomial in z and conj(z), a :class:`HoloPoly`
  whose keys are exponent pairs (alpha, beta) with degree |alpha| + |beta|,
  so ``truncate(d)`` and ``mul_trunc(other, d)`` cut at total degree d.
  ``evaluate_polarized`` reads it as a function of two points (Calabi's
  polarization).
* :class:`JetMap`     -- a tuple of HoloPoly components, the degree-d Taylor
  polynomial of a holomorphic map.

Coefficients are either all exact (:class:`symdom.scalars.Exact`) or all
``complex``; the containers carry an explicit ``mode`` so exactness is never
guessed from floats.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .scalars import Exact, Scalar, as_complex, cabs, coerce, mode_of, one, zero

Exponent = Tuple[int, ...]


def _is_zero(c) -> bool:
    if isinstance(c, Exact):
        return c.is_zero
    return c == 0


def _add_exp(a: Exponent, b: Exponent) -> Exponent:
    return tuple(x + y for x, y in zip(a, b))


class HoloPoly:
    """Holomorphic polynomial; immutable by convention.

    The key shape enters only through ``_deg`` (total degree of a key) and
    ``_add_exp`` (key of a product of monomials), so a subclass with other
    keys shares all of the arithmetic below.
    """

    __slots__ = ("nvars", "terms", "mode")

    _deg = staticmethod(sum)
    _add_exp = staticmethod(_add_exp)

    def __init__(self, nvars: int, terms: Optional[Dict[Exponent, Scalar]] = None,
                 mode: Optional[str] = None):
        clean: Dict[Exponent, Scalar] = {}
        inferred = mode
        for exp, c in (terms or {}).items():
            if inferred is None:
                inferred = mode_of(c)
            c = coerce(c, inferred)
            if not _is_zero(c):
                clean[tuple(exp)] = c
        self.nvars = nvars
        self.terms = clean
        self.mode = inferred if inferred is not None else "exact"

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, nvars: int, mode: str = "exact") -> "HoloPoly":
        return cls(nvars, {}, mode)

    @classmethod
    def const(cls, nvars: int, c, mode: Optional[str] = None) -> "HoloPoly":
        return cls(nvars, {(0,) * nvars: c}, mode)

    @staticmethod
    def var(nvars: int, j: int, mode: str = "exact") -> "HoloPoly":
        exp = tuple(1 if i == j else 0 for i in range(nvars))
        return HoloPoly(nvars, {exp: one(mode)}, mode)

    @staticmethod
    def monomial(nvars: int, exp: Exponent, c, mode: Optional[str] = None) -> "HoloPoly":
        return HoloPoly(nvars, {tuple(exp): c}, mode)

    # -- structure ---------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.terms

    @property
    def degree(self) -> int:
        return max(map(self._deg, self.terms), default=0)

    def constant_term(self) -> Scalar:
        return self.coeff((0,) * self.nvars)

    def coeff(self, exp: Exponent) -> Scalar:
        return self.terms.get(tuple(exp), zero(self.mode))

    def homogeneous_part(self, m: int) -> "HoloPoly":
        deg = self._deg
        return type(self)(self.nvars,
                          {e: c for e, c in self.terms.items() if deg(e) == m},
                          self.mode)

    def truncate(self, d: int) -> "HoloPoly":
        deg = self._deg
        return type(self)(self.nvars,
                          {e: c for e, c in self.terms.items() if deg(e) <= d},
                          self.mode)

    def max_abs_coeff(self) -> float:
        return max((cabs(c) for c in self.terms.values()), default=0.0)

    def to_float(self) -> "HoloPoly":
        if self.mode == "float":
            return self
        return type(self)(self.nvars,
                          {e: as_complex(c) for e, c in self.terms.items()},
                          "float")

    def sorted_terms(self) -> List[Tuple[Exponent, Scalar]]:
        deg = self._deg
        return sorted(self.terms.items(), key=lambda item: (deg(item[0]), item[0]))

    # -- arithmetic --------------------------------------------------------

    def _join_mode(self, other: "HoloPoly") -> str:
        return "exact" if self.mode == other.mode == "exact" else "float"

    def __add__(self, other: "HoloPoly") -> "HoloPoly":
        if self.nvars != other.nvars:
            raise ValueError("variable count mismatch")
        mode = self._join_mode(other)
        acc: Dict[Exponent, Scalar] = dict(self.terms)
        for e, c in other.terms.items():
            acc[e] = acc.get(e, zero(self.mode)) + c
        return type(self)(self.nvars, acc, mode)

    def __neg__(self) -> "HoloPoly":
        return type(self)(self.nvars, {e: -c for e, c in self.terms.items()},
                          self.mode)

    def __sub__(self, other: "HoloPoly") -> "HoloPoly":
        return self + (-other)

    def scale(self, c) -> "HoloPoly":
        mode = self.mode if mode_of(c) == "exact" else "float"
        return type(self)(self.nvars, {e: v * c for e, v in self.terms.items()},
                          mode)

    def _buckets(self) -> Dict[int, List[Tuple[Exponent, Scalar]]]:
        deg = self._deg
        out: Dict[int, List[Tuple[Exponent, Scalar]]] = {}
        for e, c in self.terms.items():
            out.setdefault(deg(e), []).append((e, c))
        return out

    def mul_trunc(self, other: "HoloPoly", d: Optional[int] = None) -> "HoloPoly":
        if self.nvars != other.nvars:
            raise ValueError("variable count mismatch")
        mode = self._join_mode(other)
        acc: Dict[Exponent, Scalar] = {}
        zero_c = zero(mode)
        add_exp = self._add_exp
        ba, bb = self._buckets(), other._buckets()
        for da, items_a in ba.items():
            for db, items_b in bb.items():
                if d is not None and da + db > d:
                    continue
                for ea, ca in items_a:
                    for eb, cb in items_b:
                        e = add_exp(ea, eb)
                        acc[e] = acc.get(e, zero_c) + ca * cb
        return type(self)(self.nvars, acc, mode)

    def __mul__(self, other: "HoloPoly") -> "HoloPoly":
        return self.mul_trunc(other, None)

    def pow_trunc(self, k: int, d: Optional[int] = None) -> "HoloPoly":
        if k < 0:
            raise ValueError("negative power")
        result = self.const(self.nvars, one(self.mode), self.mode)
        for _ in range(k):
            result = result.mul_trunc(self, d)
        return result

    def substitute(self, args: Sequence["HoloPoly"], d: int) -> "HoloPoly":
        """Replace variable j by args[j], truncating at total degree d.

        All args must be constant-free (so a term of degree m contributes
        nothing once m > d, which keeps the loop finite and exact).
        """
        if len(args) != self.nvars:
            raise ValueError("substitution needs one polynomial per variable")
        n = args[0].nvars if args else 0
        for a in args:
            if a.nvars != n:
                raise ValueError("substitution arguments disagree on variables")
            if not _is_zero(a.constant_term()):
                raise ValueError("substitution arguments must vanish at 0")
        mode = self.mode
        for a in args:
            if a.mode == "float":
                mode = "float"
        pow_cache: List[Dict[int, HoloPoly]] = [dict() for _ in args]

        def arg_power(j: int, e: int) -> HoloPoly:
            cache = pow_cache[j]
            if e not in cache:
                if e == 1:
                    cache[e] = args[j]
                else:
                    half = arg_power(j, e // 2)
                    sq = half.mul_trunc(half, d)
                    cache[e] = sq if e % 2 == 0 else sq.mul_trunc(args[j], d)
            return cache[e]

        out = HoloPoly.zero(n, mode)
        for exp, c in self.sorted_terms():
            if sum(exp) > d:
                break
            term = HoloPoly.const(n, c)
            for j, e in enumerate(exp):
                if e:
                    term = term.mul_trunc(arg_power(j, e), d)
            out = out + term
        return out

    # -- evaluation --------------------------------------------------------

    def evaluate(self, point: Sequence) -> Scalar:
        if len(point) != self.nvars:
            raise ValueError("point dimension mismatch")
        point = [Exact.of(p) if isinstance(p, (int, Fraction)) else p
                 for p in point]
        total = zero(self.mode if all(mode_of(p) == "exact" for p in point)
                     else "float")
        powers: List[Dict[int, Scalar]] = [dict() for _ in point]

        def pt_power(j: int, e: int) -> Scalar:
            cache = powers[j]
            if e not in cache:
                cache[e] = point[j] if e == 1 else pt_power(j, e - 1) * point[j]
            return cache[e]

        for exp, c in self.terms.items():
            val = c
            for j, e in enumerate(exp):
                if e:
                    val = val * pt_power(j, e)
            total = total + val
        return total

    def __eq__(self, other):
        return (type(other) is type(self) and self.nvars == other.nvars
                and self.terms == other.terms)

    def __repr__(self):
        items = ", ".join(f"{e}:{c!r}" for e, c in self.sorted_terms()[:6])
        more = "..." if len(self.terms) > 6 else ""
        return f"HoloPoly({self.nvars} vars, {{{items}{more}}})"


class BidegPoly(HoloPoly):
    """Polynomial in z and conj(z); keys are pairs (alpha, beta), and the
    degree of a key is |alpha| + |beta|."""

    __slots__ = ()

    @staticmethod
    def _deg(key: Tuple[Exponent, Exponent]) -> int:
        return sum(key[0]) + sum(key[1])

    @staticmethod
    def _add_exp(k1: Tuple[Exponent, Exponent],
                 k2: Tuple[Exponent, Exponent]) -> Tuple[Exponent, Exponent]:
        return (_add_exp(k1[0], k2[0]), _add_exp(k1[1], k2[1]))

    # bench/tracer.py times bidegree sums by patching this class's own
    # __add__, so the inherited method is bound here by name
    __add__ = HoloPoly.__add__

    @classmethod
    def const(cls, nvars: int, c, mode: Optional[str] = None) -> "BidegPoly":
        e = (0,) * nvars
        return cls(nvars, {(e, e): c}, mode)

    @staticmethod
    def sandwich(f: HoloPoly, g: HoloPoly,
                 d: Optional[int] = None) -> "BidegPoly":
        """f(z) * conj(g(z)) as a bidegree polynomial, keeping only the terms
        with |alpha| + |beta| <= d when d is given."""
        if f.nvars != g.nvars:
            raise ValueError("variable count mismatch")
        mode = "exact" if f.mode == g.mode == "exact" else "float"
        acc: Dict[Tuple[Exponent, Exponent], Scalar] = {}
        zero_c = zero(mode)
        hermitian = f is g or f.terms == g.terms
        if hermitian:
            items = [(e, c, sum(e)) for e, c in f.terms.items()]
            for i, (ea, ca, da) in enumerate(items):
                for eb, cb, db in items[i:]:
                    if d is not None and da + db > d:
                        continue
                    val = ca * cb.conjugate()
                    key = (ea, eb)
                    acc[key] = acc.get(key, zero_c) + val
                    if ea != eb:
                        mirror = (eb, ea)
                        acc[mirror] = acc.get(mirror, zero_c) + val.conjugate()
        else:
            items_g = [(e, c, sum(e)) for e, c in g.terms.items()]
            for ea, ca in f.terms.items():
                da = sum(ea)
                for eb, cb, db in items_g:
                    if d is not None and da + db > d:
                        continue
                    key = (ea, eb)
                    acc[key] = acc.get(key, zero_c) + ca * cb.conjugate()
        return BidegPoly(f.nvars, acc, mode)

    def coeff(self, alpha: Exponent, beta: Exponent) -> Scalar:
        return self.terms.get((tuple(alpha), tuple(beta)), zero(self.mode))

    def conj(self) -> "BidegPoly":
        return BidegPoly(self.nvars,
                         {(b, a): c.conjugate() for (a, b), c in self.terms.items()},
                         self.mode)

    def hermitian_residual(self) -> float:
        return (self - self.conj()).max_abs_coeff()

    def evaluate(self, z: Sequence) -> Scalar:
        return self.evaluate_polarized(z, z)

    def evaluate_polarized(self, z: Sequence, xi: Sequence) -> Scalar:
        """Value with the anti-holomorphic side taken at xi: sum of
        c * z^alpha * conj(xi)^beta."""
        if len(z) != self.nvars or len(xi) != self.nvars:
            raise ValueError("point dimension mismatch")
        z = [Exact.of(p) if isinstance(p, (int, Fraction)) else p for p in z]
        xi = [Exact.of(p) if isinstance(p, (int, Fraction)) else p for p in xi]
        exact_pt = all(mode_of(p) == "exact" for p in list(z) + list(xi))
        total = zero(self.mode if exact_pt else "float")
        xbar = [p.conjugate() if isinstance(p, Exact) else complex(p).conjugate()
                for p in xi]
        for (a, b), c in self.terms.items():
            val = c
            for j, e in enumerate(a):
                for _ in range(e):
                    val = val * z[j]
            for j, e in enumerate(b):
                for _ in range(e):
                    val = val * xbar[j]
            total = total + val
        return total

    def __repr__(self):
        return f"BidegPoly({self.nvars} vars, {len(self.terms)} terms)"


def log_truncate(p: BidegPoly, d: int) -> BidegPoly:
    """log of a bidegree polynomial with constant term 1, truncated at total
    degree d via the log(1 + x) series."""
    e0 = (0,) * p.nvars
    c0 = p.coeff(e0, e0)
    if p.mode == "exact":
        if not c0 == 1:
            raise ValueError("log_truncate needs constant term exactly 1")
    elif cabs(c0 - 1) > 1e-12:
        raise ValueError("log_truncate needs constant term 1")
    q = (p - BidegPoly.const(p.nvars, one(p.mode), p.mode)).truncate(d)
    if q.is_zero:
        return BidegPoly.zero(p.nvars, p.mode)
    acc = BidegPoly.zero(p.nvars, p.mode)
    power = BidegPoly.const(p.nvars, one(p.mode), p.mode)
    for m in range(1, d + 1):
        power = power.mul_trunc(q, d)
        if power.is_zero:
            break
        coeff = Fraction((-1) ** (m + 1), m) if p.mode == "exact" \
            else complex((-1) ** (m + 1) / m)
        acc = acc + power.scale(coeff)
    return acc


class JetMap:
    """Degree-d polynomial jet of a holomorphic map C^n -> C^N."""

    __slots__ = ("source_dim", "target_dim", "degree", "components", "mode")

    def __init__(self, components: Sequence[HoloPoly], degree: int,
                 source_dim: Optional[int] = None):
        comps = tuple(components)
        if not comps and source_dim is None:
            raise ValueError("empty jet needs an explicit source dimension")
        n = comps[0].nvars if comps else source_dim
        for c in comps:
            if c.nvars != n:
                raise ValueError("jet components disagree on variables")
        mode = "exact" if all(c.mode == "exact" for c in comps) else "float"
        self.source_dim = n
        self.target_dim = len(comps)
        self.degree = degree
        self.components = tuple(c.truncate(degree) for c in comps)
        self.mode = mode

    @staticmethod
    def identity(n: int, degree: int, mode: str = "exact") -> "JetMap":
        return JetMap([HoloPoly.var(n, j, mode) for j in range(n)], degree)

    @staticmethod
    def from_linear(matrix: Sequence[Sequence], degree: int) -> "JetMap":
        """Linear jet with components (matrix @ z)_i."""
        rows = [list(r) for r in matrix]
        n = len(rows[0])
        comps = []
        for r in rows:
            terms = {}
            for j, c in enumerate(r):
                exp = tuple(1 if i == j else 0 for i in range(n))
                terms[exp] = c
            comps.append(HoloPoly(n, terms))
        return JetMap(comps, degree)

    def constant_free(self) -> bool:
        return all(_is_zero(c.constant_term()) for c in self.components)

    def evaluate(self, point: Sequence) -> List[Scalar]:
        return [c.evaluate(point) for c in self.components]

    def float_coefficients(self, basis: Sequence[Exponent]) -> np.ndarray:
        """target_dim x len(basis) complex array of coefficients over basis."""
        index = {e: m for m, e in enumerate(basis)}
        rows = [[0j] * len(basis) for _ in self.components]
        for row, comp in zip(rows, self.components):
            for e, c in comp.terms.items():
                if e in index:
                    row[index[e]] = c
        return np.array(rows, dtype=complex).reshape(len(rows), len(basis))

    def evaluate_many(self, points) -> np.ndarray:
        """Float values at the rows of an S x source_dim array (S x target_dim):
        monomials from a table of powers times the stacked coefficients."""
        pts = np.asarray(points, dtype=complex)
        basis = list(dict.fromkeys(e for c in self.components for e in c.terms))
        exps = np.array(basis, dtype=int).reshape(len(basis), self.source_dim)
        powers = np.ones((int(exps.max(initial=0)) + 1,) + pts.shape,
                         dtype=complex)
        for e in range(1, len(powers)):
            powers[e] = powers[e - 1] * pts
        monomials = np.ones((len(pts), len(basis)), dtype=complex)
        for j in range(self.source_dim):
            monomials *= powers[exps[:, j], :, j].T
        return monomials @ self.float_coefficients(basis).T

    def jacobian0(self) -> List[List[Scalar]]:
        """Degree-1 coefficient matrix, target_dim x source_dim."""
        out = []
        for comp in self.components:
            row = []
            for j in range(self.source_dim):
                exp = tuple(1 if i == j else 0 for i in range(self.source_dim))
                row.append(comp.coeff(exp))
            out.append(row)
        return out

    def truncate(self, d: int) -> "JetMap":
        return JetMap([c.truncate(d) for c in self.components], min(d, self.degree),
                      self.source_dim)

    def to_float(self) -> "JetMap":
        return JetMap([c.to_float() for c in self.components], self.degree,
                      self.source_dim)

    def __eq__(self, other):
        return (isinstance(other, JetMap)
                and self.source_dim == other.source_dim
                and self.components == other.components)

    def max_coeff_distance(self, other: "JetMap") -> float:
        if (self.source_dim, self.target_dim) != (other.source_dim, other.target_dim):
            raise ValueError("jet shape mismatch")
        return max((a - b).max_abs_coeff()
                   for a, b in zip(self.components, other.components))

    def __repr__(self):
        return (f"JetMap({self.source_dim}->{self.target_dim}, degree "
                f"{self.degree}, {self.mode})")


def compose_truncate(outer: JetMap, inner: JetMap, d: int) -> JetMap:
    """Jet of outer o inner truncated at degree d; inner must vanish at 0."""
    if outer.source_dim != inner.target_dim:
        raise ValueError(
            f"composition dimension mismatch: outer takes {outer.source_dim} "
            f"variables, inner produces {inner.target_dim}")
    if not inner.constant_free():
        raise ValueError("inner jet must vanish at the origin")
    args = list(inner.components)
    comps = [c.substitute(args, d) for c in outer.components]
    return JetMap(comps, d, inner.source_dim)


def squared_norm(f: JetMap, d: Optional[int] = None) -> BidegPoly:
    """sum_j f^j(z) conj(f^j(z)), each factor truncated at degree d."""
    d = f.degree if d is None else d
    acc = BidegPoly.zero(f.source_dim, f.mode)
    for comp in f.components:
        acc = acc + BidegPoly.sandwich(comp.truncate(d), comp.truncate(d))
    return acc
