"""Sparse multivariate polynomials, bidegree polynomials and polynomial jets.

Three layers:

* :class:`HoloPoly`   -- holomorphic polynomial in z_1..z_n; sparse dict from
  exponent tuples to coefficients. Zero coefficients are never stored. It
  holds the one sparse arithmetic core (sums, scaling and truncated
  products).
* :class:`BidegPoly`  -- polynomial in z and conj(z), a :class:`HoloPoly`
  whose keys are exponent pairs (alpha, beta) with degree |alpha| + |beta|,
  so ``truncate(d)`` and ``mul_trunc(other, d)`` cut at total degree d.
  ``sandwich(f, g, d)`` builds f(z) conj(g(z)), one term per pair of
  terms; no library code calls it (the exact pullback
  ``kernels.h_pullback`` sums its products in place).
* :class:`JetMap`     -- a tuple of HoloPoly components, the degree-d Taylor
  polynomial of a holomorphic map.  :func:`compose_truncate` is the one
  composition routine: a stack of polynomials (kernel generators, variety
  equations, the components of a jet) is composed with an inner jet in one
  call that builds each monomial once; ``HoloPoly.substitute`` calls it.
  One degree pass over one monomial plan (``_monomial_rows``) serves
  composition and :func:`solve_graded`: at step m it fills the degree-m
  part of each outer monomial's row (its lower monomial's row times one
  inner row), then of outer; the solve also sets z's degree-m part there.
  Exact rows are homogeneous parts, one sparse term dict per degree
  (``_sparse_pass``); float rows are coefficient arrays over one graded
  basis (the monomials of degree <= d in the inner variables) with its
  product index split by degree, one cached table per (variables,
  degree) (``_graded_pass``).  A jet keeps the plan of each pass it is
  the outer map of (``_pass_plan``), so the shared kernel expansion's are
  built once per process, and a float jet made from graded rows keeps
  them (``JetMap.graded_rows``), so its coefficients become an array
  once.  A float basis above ``MAX_GRADED_BASIS`` monomials, or an exact
  degree d with more than ``MAX_EXACT_BASIS`` monomials of degree <= d,
  is refused before anything is built.

Coefficients are either all exact (:class:`symdom.scalars.Exact`) or all
``complex``; the containers carry an explicit ``mode`` so exactness is never
guessed from floats.  The public constructor ``HoloPoly(nvars, terms, mode)``
coerces raw coefficients (ints, Fractions, floats) to the mode.  Results of
arithmetic are built from field elements of their mode by
``HoloPoly.from_field``, which only drops zeros.  That holds for mixed
exact and float operands too, because an ``Exact`` combined with a float
gives a ``complex``; only a sum of an exact and a float polynomial goes
through the coercing constructor, since it keeps the exact operand's
untouched terms.  Polynomials are immutable, so ``truncate`` returns the
polynomial itself when it drops nothing.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .domains import ParameterError
from .scalars import (EXACT_ONE, Exact, Scalar, coerce, mode_of, one,
                      sum_products, zero)

Exponent = Tuple[int, ...]
Parts = List[Dict[Exponent, Exact]]  # homogeneous parts, part s of degree s


def _is_zero(c) -> bool:
    if isinstance(c, Exact):
        return c.is_zero
    return c == 0


def _add_exp(a: Exponent, b: Exponent) -> Exponent:
    return tuple(map(operator.add, a, b))


class HoloPoly:
    """Holomorphic polynomial; immutable by convention.

    The constructor coerces each coefficient to ``mode`` (inferred from the
    first one when not given) and drops zeros; results of the arithmetic
    below are built by :meth:`from_field` without coercion.

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
    def from_field(cls, nvars: int, terms: Dict[Exponent, Scalar],
                   mode: str) -> "HoloPoly":
        """Polynomial over terms whose keys are tuples and whose coefficients
        are already field elements of ``mode`` (``Exact`` or ``complex``):
        no coercion, only zeros are dropped (a float NaN is kept)."""
        self = object.__new__(cls)
        self.nvars = nvars
        self.mode = mode
        if mode == "exact":
            self.terms = {e: c for e, c in terms.items() if not c.is_zero}
        else:
            self.terms = {e: c for e, c in terms.items() if c != 0}
        return self

    @classmethod
    def zero(cls, nvars: int, mode: str = "exact") -> "HoloPoly":
        return cls(nvars, {}, mode)

    @classmethod
    def const(cls, nvars: int, c, mode: Optional[str] = None) -> "HoloPoly":
        return cls(nvars, {(0,) * nvars: c}, mode)

    @staticmethod
    def var(nvars: int, j: int, mode: str = "exact") -> "HoloPoly":
        return HoloPoly(nvars, {_units(nvars)[j]: one(mode)}, mode)

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

    def truncate(self, d: int) -> "HoloPoly":
        if self.degree <= d:
            return self
        deg = self._deg
        kept = {e: c for e, c in self.terms.items() if deg(e) <= d}
        return self.from_field(self.nvars, kept, self.mode)

    def max_abs_coeff(self) -> float:
        return max((abs(complex(c)) for c in self.terms.values()), default=0.0)

    def to_float(self) -> "HoloPoly":
        if self.mode == "float":
            return self
        floats = {e: complex(c) for e, c in self.terms.items()}
        return self.from_field(self.nvars, floats, "float")

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
        zero_c = zero(self.mode)
        for e, c in other.terms.items():
            acc[e] = acc.get(e, zero_c) + c
        # an exact self plus a float other leaves self's Exact values that
        # other does not touch in acc, so only that sum needs coercion
        build = self.from_field if self.mode == other.mode else type(self)
        return build(self.nvars, acc, mode)

    def __neg__(self) -> "HoloPoly":
        return self.from_field(self.nvars,
                               {e: -c for e, c in self.terms.items()}, self.mode)

    def __sub__(self, other: "HoloPoly") -> "HoloPoly":
        return self + (-other)

    def scale(self, c) -> "HoloPoly":
        mode = self.mode if mode_of(c) == "exact" else "float"
        return self.from_field(self.nvars,
                               {e: v * c for e, v in self.terms.items()}, mode)

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
        return self.from_field(self.nvars, acc, mode)

    def __mul__(self, other: "HoloPoly") -> "HoloPoly":
        return self.mul_trunc(other, None)

    def substitute(self, args: Sequence["HoloPoly"], d: int) -> "HoloPoly":
        """Replace variable j by args[j], truncating at total degree d; the
        args must vanish at 0 (see :func:`compose_truncate`)."""
        return compose_truncate(JetMap([self], d, self.nvars),
                                JetMap(args, d, args[0].nvars if args else 0),
                                d).components[0]

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

    @staticmethod
    def sandwich(f: HoloPoly, g: HoloPoly,
                 d: Optional[int] = None) -> "BidegPoly":
        """f(z) * conj(g(z)) as a bidegree polynomial, keeping only the terms
        with |alpha| + |beta| <= d when d is given."""
        if f.nvars != g.nvars:
            raise ValueError("variable count mismatch")
        mode = "exact" if f.mode == g.mode == "exact" else "float"
        acc: Dict[Tuple[Exponent, Exponent], Scalar] = {}
        items_g = [(e, c.conjugate(), sum(e)) for e, c in g.terms.items()]
        for ea, ca in f.terms.items():
            da = sum(ea)
            for eb, cb, db in items_g:
                if d is None or da + db <= d:
                    acc[ea, eb] = ca * cb
        return BidegPoly.from_field(f.nvars, acc, mode)

    def __repr__(self):
        return f"BidegPoly({self.nvars} vars, {len(self.terms)} terms)"


class JetMap:
    """Degree-d polynomial jet of a holomorphic map C^n -> C^N.

    A jet keeps the coefficient views built from it, each on first use:
    ``evaluate_many``'s plan, the plan of each degree pass it is the outer
    map of (``_pass_plan``), and float coefficient rows over a graded basis
    (``graded_rows``), which a float jet built from such rows keeps from
    the start.  They rely on its components never being mutated, which no
    code does once a jet is built.
    """

    __slots__ = ("source_dim", "target_dim", "degree", "components", "mode",
                 "_plan", "_rows", "_passes")

    def __init__(self, components: Sequence[HoloPoly], degree: int,
                 source_dim: Optional[int] = None):
        comps = tuple(components)
        if not comps and source_dim is None:
            raise ValueError("empty jet needs an explicit source dimension")
        n = comps[0].nvars if comps else source_dim
        for c in comps:
            if c.nvars != n:
                raise ValueError("jet components disagree on variables")
        self._set(tuple(c.truncate(degree) for c in comps), degree, n)

    def _set(self, comps: tuple, degree: int, n: int) -> None:
        self.source_dim = n
        self.target_dim = len(comps)
        self.degree = degree
        self.components = comps
        self.mode = "exact" if all(c.mode == "exact" for c in comps) else "float"
        self._plan = None  # evaluate_many's exponents and coefficients
        self._rows = None  # (d, read-only rows over _graded(n, d)'s basis)
        self._passes = {}  # (mode, rank, d) -> a pass plan, see _pass_plan

    @classmethod
    def _from_graded(cls, components: Sequence[HoloPoly], degree: int,
                     n: int) -> "JetMap":
        """The jet of components in n variables that hold no term above
        degree by construction: no truncation scan."""
        self = object.__new__(cls)
        self._set(tuple(components), degree, n)
        return self

    @staticmethod
    def identity(n: int, degree: int, mode: str = "exact") -> "JetMap":
        return JetMap([HoloPoly.var(n, j, mode) for j in range(n)], degree)

    @staticmethod
    def from_linear(matrix: Sequence[Sequence], degree: int) -> "JetMap":
        """Linear jet with components (matrix @ z)_i."""
        rows = [list(r) for r in matrix]
        n = len(rows[0])
        return JetMap([HoloPoly(n, dict(zip(_units(n), r))) for r in rows],
                      degree)

    def constant_free(self) -> bool:
        return all(_is_zero(c.constant_term()) for c in self.components)

    def evaluate(self, point: Sequence) -> List[Scalar]:
        return [c.evaluate(point) for c in self.components]

    def float_coefficients(self, basis: Sequence[Exponent]) -> np.ndarray:
        """target_dim x len(basis) complex array of coefficients over basis:
        one column gather from the kept graded rows when they hold every
        monomial of basis, else read off the terms."""
        if self._rows is not None:
            d, rows = self._rows
            index = _graded_index(self.source_dim, d)
            cols = [index.get(e, -1) for e in basis]
            if -1 not in cols:
                return rows[:, cols]
        index = {e: m for m, e in enumerate(basis)}
        rows = [[0j] * len(basis) for _ in self.components]
        for row, comp in zip(rows, self.components):
            for e, c in comp.terms.items():
                if e in index:
                    row[index[e]] = c
        return np.array(rows, dtype=complex).reshape(len(rows), len(basis))

    def graded_rows(self, d: int) -> np.ndarray:
        """The read-only float coefficient rows over the graded basis of
        ``_graded(source_dim, d)``: the kept rows, or their first columns
        when they reach a higher degree (the graded bases of lower degree
        are their prefixes); else read off the terms and kept."""
        basis, first, _ = _graded(self.source_dim, d)
        if self._rows is None or self._rows[0] < d:
            self._keep_rows(self.float_coefficients(basis), d)
        kept, rows = self._rows
        return rows if kept == d else rows[:, :first[d + 1]]

    def _keep_rows(self, rows: np.ndarray, d: int) -> None:
        rows.flags.writeable = False
        self._rows = (d, rows)

    def evaluate_many(self, points) -> np.ndarray:
        """Float values at the rows of an S x source_dim array (S x target_dim):
        the sorted ``_monomial_basis`` (term order does not matter) from a
        table of powers, times the stacked coefficients.  The exponents and
        the coefficients are built on the first call and kept."""
        pts = np.asarray(points, dtype=complex)
        if self._plan is None:
            basis = _monomial_basis([self])
            self._plan = (np.array(basis, dtype=int).reshape(
                len(basis), self.source_dim), self.float_coefficients(basis).T)
        exps, coeffs = self._plan
        powers = np.ones((int(exps.max(initial=0)) + 1,) + pts.shape,
                         dtype=complex)
        # a value beyond float range reads as inf / nan, which the checks
        # report as failing, rather than as a warning on stderr
        with np.errstate(over="ignore", invalid="ignore"):
            for e in range(1, len(powers)):
                powers[e] = powers[e - 1] * pts
            monomials = np.ones((len(pts), len(exps)), dtype=complex)
            for j in range(self.source_dim):
                monomials *= powers[exps[:, j], :, j].T
            return monomials @ coeffs

    def jacobian0(self) -> List[List[Scalar]]:
        """Degree-1 coefficient matrix, target_dim x source_dim."""
        units = _units(self.source_dim)
        return [[comp.coeff(e) for e in units] for comp in self.components]

    def truncate(self, d: int) -> "JetMap":
        return JetMap([c.truncate(d) for c in self.components], min(d, self.degree),
                      self.source_dim)

    def to_float(self) -> "JetMap":
        return JetMap._from_graded([c.to_float() for c in self.components],
                                   self.degree, self.source_dim)

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


def _monomial_basis(jets: Sequence[JetMap]) -> List[Exponent]:
    """The exponents of the jets' terms, sorted by (degree, exponent)."""
    exps = set()
    for jet in jets:
        for comp in jet.components:
            exps.update(comp.terms.keys())
    return sorted(exps, key=lambda e: (sum(e), e))


# The float FE check forms an M x M complex Gram over the graded basis of
# M monomials (16 M^2 bytes); M <= 8192 keeps it within 1 GiB.  The grid's
# largest basis has 126 monomials, the CLI default (dim 5, degree 6) 462.
MAX_GRADED_BASIS = 8192
# An exact pass keeps one term dict per degree for each monomial row, and
# its work grows with the monomials of degree <= d; 16384 admits exact
# IV(8) dim 5 at degree 14 (11628 monomials in 5 variables).
MAX_EXACT_BASIS = 16384


def _check_basis(n: int, d: int, cap: int, what: str) -> None:
    """ParameterError when the monomials of degree <= d in n variables
    pass cap; what names the pass that would hold them."""
    size = math.comb(n + d, d)
    if size > cap:
        raise ParameterError(
            f"degree {d} in {n} variables needs {size} monomials, more than "
            f"the {cap} {what}")


@functools.cache
def _graded(n: int, d: int):
    """(basis, first, runs): the graded basis of the monomials of degree
    <= d in n variables and its product index, degree by degree.

    basis[first[s]:first[s + 1]] has degree s.  runs[m], for m = 2..d,
    holds the pairs (i, j) with deg_i, deg_j >= 1 and deg_i + deg_j = m,
    sorted (stably) by the index of basis[i] * basis[j], as (i, j, starts):
    ``starts`` marks where each run of equal product begins, the form
    ``np.add.reduceat`` sums, and the runs' sums are the columns
    first[m]:first[m + 1] in order.  The pairs are built one (deg_i, deg_j)
    block at a time, so no M x M array is formed (M = len(basis)).  A
    basis above MAX_GRADED_BASIS is refused before anything is built.
    """
    _check_basis(n, d, MAX_GRADED_BASIS, "a float check can hold")
    combos = [c for s in range(d + 1)
              for c in itertools.combinations_with_replacement(range(n), s)]
    basis = [tuple(map(c.count, range(n))) for c in combos]
    index = {e: i for i, e in enumerate(basis)}
    first = [0] * (d + 2)
    for c in combos:
        first[len(c) + 1] += 1
    first = list(itertools.accumulate(first))
    units = _units(n)
    # up[i, v]: the index of basis[i] * z_v, for deg_i < d
    up = np.array([[index[_add_exp(e, unit)] for unit in units]
                   for e in basis[:first[d]]],
                  dtype=np.intp).reshape(first[d], n)
    runs = {}
    for m in range(2, d + 1):
        blocks = []
        for a in range(1, m):
            left = np.arange(first[a], first[a + 1])
            right = np.arange(first[m - a], first[m - a + 1])
            factors = np.array(combos[first[m - a]:first[m - a + 1]],
                               dtype=np.intp).reshape(len(right), m - a)
            i = np.repeat(left, len(right))
            k = i
            for t in range(m - a):  # multiply basis[i] by z_v, v in basis[j]
                k = up[k, np.tile(factors[:, t], len(left))]
            blocks.append((i, np.tile(right, len(left)), k))
        i, j, k = (np.concatenate(x) for x in zip(*blocks))
        order = np.argsort(k, kind="stable")
        runs[m] = (i[order], j[order],
                   np.flatnonzero(np.diff(k[order], prepend=-1)))
    return basis, first, runs


@functools.cache
def _graded_index(n: int, d: int) -> Dict[Exponent, int]:
    """The column of each monomial of ``_graded(n, d)``'s basis."""
    return {e: i for i, e in enumerate(_graded(n, d)[0])}


@functools.cache
def _units(m: int) -> Tuple[Exponent, ...]:
    return tuple(tuple(int(i == j) for i in range(m)) for j in range(m))


def _lower(e: Exponent) -> Tuple[Exponent, int]:
    """(e with one factor z_j taken off, j) for the last variable j of e."""
    j = max(i for i, x in enumerate(e) if x)
    return e[:j] + (e[j] - 1,) + e[j + 1:], j


def _monomial_rows(polys: Sequence[HoloPoly], nvars: int, d: int):
    """The rows of a monomial table for the terms of degree <= d of polys,
    as (order, steps): ``order`` lists 1, the nvars variables, then the
    needed monomials of degree >= 2 level by level (a needed monomial's
    lower monomials are needed too); ``steps`` holds, for each level from
    2 on, (its rows, the row of each one's lower monomial, the row of the
    variable that lower monomial is multiplied by)."""
    levels: List[Dict[Exponent, Tuple[Exponent, int]]] = \
        [{} for _ in range(d + 1)]
    for poly in polys:
        for e in poly.terms:
            s = sum(e)
            while 1 < s <= d and e not in levels[s]:
                lower, j = _lower(e)
                levels[s][e] = (lower, j)
                e, s = lower, s - 1
    order = [(0,) * nvars, *_units(nvars)]
    row = {e: r for r, e in enumerate(order)}
    steps = []
    for level in levels[2:]:
        if level:
            top = len(order)
            steps.append((slice(top, top + len(level)),
                          np.array([row[lower] for lower, _ in level.values()],
                                   dtype=np.intp),
                          np.array([1 + j for _, j in level.values()],
                                   dtype=np.intp)))
            order += level
            row.update((e, r) for r, e in enumerate(level, top))
    return order, steps


def _pass_plan(outer: JetMap, mode: str, rank: int, d: int):
    """(rows, steps, coefficients): the plan of a degree-d pass with outer
    map outer on rank inner rows, built on its first use and kept on
    outer.  ``rows`` counts the monomial rows and ``steps`` are
    ``_monomial_rows``' steps; the coefficients of outer over the rows'
    order are a float matrix for ``_graded_pass`` (mode "float") and
    lists of (row, internal form) for ``_sparse_pass`` (mode "exact")."""
    key = (mode, rank, d)
    if key not in outer._passes:
        order, steps = _monomial_rows(outer.components, rank, d)
        if mode == "float":
            coeffs = outer.float_coefficients(order)
            coeffs.flags.writeable = False
        else:
            index = {e: r for r, e in enumerate(order)}
            coeffs = [[(index[e], c._n) for e, c in comp.terms.items()
                       if e in index] for comp in outer.components]
        outer._passes[key] = (len(order), steps, coeffs)
    return outer._passes[key]


def _products(low: np.ndarray, right: np.ndarray, run) -> np.ndarray:
    """The columns of the products low[t] * right[t] that a run
    (i, j, starts) of ``_graded`` covers: each one the sum of
    low[t, i] * right[t, j] over its pairs."""
    i, j, starts = run
    return np.add.reduceat(low[:, i] * right[:, j], starts, axis=1)


def _graded_pass(z: np.ndarray, outer: JetMap, n: int, d: int,
                 back: Optional[np.ndarray] = None) -> np.ndarray:
    """outer(z) truncated at d: K x M coefficient rows over the graded
    basis of ``_graded(n, d)``, for z N x M such rows with a zero constant
    column.

    The rows of the monomials outer needs (``_monomial_rows``, kept in
    outer's plan, see ``_pass_plan``) are filled one degree at a time: at
    step m, the degree-m columns of each row one level lower times one row
    of z, over runs[m]; outer(z) is the outer coefficients times the rows.  Its degree-m columns involve only the
    parts of z below degree m, so with ``back`` (N x K) step m also sets
    z's degree-m columns, in place, to back times them: for outer of
    degree >= 2, z then solves z = z_1 + back outer(z), z_1 its given
    degree-1 part.  A value beyond float range reads as inf / nan, as in
    ``evaluate_many``, unwarned.
    """
    basis, first, runs = _graded(n, d)
    rank = len(z)
    size, steps, coeffs = _pass_plan(outer, "float", rank, d)
    table = np.zeros((size, len(basis)), dtype=complex)
    table[0, 0] = 1.0
    table[1:rank + 1] = z
    with np.errstate(over="ignore", invalid="ignore"):
        for m in range(2, d + 1):
            cols = slice(first[m], first[m + 1])
            # steps[t] is level t + 2, and a level above m has no
            # degree-m part
            for rows, lower, js in steps[:m - 1]:
                table[rows, cols] = _products(table[lower], table[js],
                                              runs[m])
            if back is not None:
                z[:, cols] = table[1:rank + 1, cols] = \
                    back @ (coeffs @ table[:, cols])
        return coeffs @ table


def _rows_jet(rows: np.ndarray, n: int, d: int) -> JetMap:
    """The float jet of coefficient rows over ``_graded(n, d)``'s basis,
    which keeps them (see ``JetMap.graded_rows``) with each zero made
    0j, as a term that is not there reads."""
    basis = _graded(n, d)[0]
    rows[rows == 0] = 0
    # from_field keeps the entries != 0, a NaN among them
    jet = JetMap._from_graded([HoloPoly.from_field(n, dict(zip(basis, row)),
                                                   "float")
                               for row in rows.tolist()], d, n)
    jet._keep_rows(rows, d)
    return jet


def _stack_jets(top: JetMap, bottom: JetMap, d: int) -> JetMap:
    """The jet at degree d of top's components truncated at d, then
    bottom's, which hold no term above d.  When both jets keep graded rows
    that reach d, the stack keeps theirs at d, one over the other."""
    comps = top.components
    if top.degree > d:
        comps = tuple(c.truncate(d) for c in comps)
    jet = JetMap._from_graded(comps + bottom.components, d, top.source_dim)
    if all(j._rows is not None and j._rows[0] >= d for j in (top, bottom)):
        jet._keep_rows(np.vstack([top.graded_rows(d), bottom.graded_rows(d)]),
                       d)
    return jet


def _sparse_pass(z: List[Parts], outer: JetMap, n: int, d: int,
                 back: Optional[List[List[Exact]]] = None) -> List[Parts]:
    """The exact twin of ``_graded_pass``, on rows of homogeneous parts
    (part s holds the terms of degree s, s = 0..d, exact zeros dropped)
    instead of dense columns: outer(z) truncated at d as K such rows, for
    z N rows in n variables with empty degree-0 parts.  At step m each
    monomial row's degree-m part is the sum over s of its lower
    monomial's degree-s part times one row of z's degree-(m - s) part;
    with ``back`` (N x K), z's degree-m parts are then set, in place, to
    back times outer's.  Each of these parts is one ``sum_products`` over
    the internal forms, so every coefficient is reduced once.
    """
    rank = len(z)
    size, steps, coeffs = _pass_plan(outer, "exact", rank, d)
    if back is not None:
        back = [[(k, c._n) for k, c in enumerate(b) if not c.is_zero]
                for b in back]
    table = [[{(0,) * n: EXACT_ONE}] + [{}] * d, *z]
    table += [[{}] * (d + 1) for _ in range(size - rank - 1)]
    by_degree = []
    for m in range(d + 1):
        # steps[t] is level t + 2, and a level above m has no degree-m part
        for rows, lower, js in steps[:max(m - 1, 0)]:
            for r, lo, j in zip(range(rows.start, rows.stop), lower.tolist(),
                                js.tolist()):
                table[r][m] = sum_products(
                    (_add_exp(ea, eb), ca._n, cb._n) for s in range(1, m)
                    for ea, ca in table[lo][s].items()
                    for eb, cb in table[j][m - s].items())
        parts = [sum_products((e, c, v._n) for r, c in comp
                              for e, v in table[r][m].items())
                 for comp in coeffs]
        by_degree.append(parts)
        if back is not None and m >= 2:
            for row, b in zip(z, back):
                row[m] = sum_products((e, c, v._n) for k, c in b
                                      for e, v in parts[k].items())
    return [list(row) for row in zip(*by_degree)]


def _parts_jet(rows: List[Parts], n: int, d: int) -> JetMap:
    # the parts hold no zero, so they are joined as they are
    comps = [HoloPoly.from_field(n, {}, "exact") for _ in rows]
    for comp, parts in zip(comps, rows):
        for part in parts:
            comp.terms.update(part)
    return JetMap._from_graded(comps, d, n)


def _compose_float(outer: JetMap, inner: JetMap, d: int) -> JetMap:
    """compose_truncate's float route: ``_graded_pass`` on the inner jet's
    graded rows."""
    n = inner.source_dim
    return _rows_jet(_graded_pass(inner.graded_rows(d), outer, n, d), n, d)


def solve_graded(linear, outer: JetMap, back, d: int) -> Tuple[JetMap, JetMap]:
    """The degree-d jet z of the solution of z = linear w + back outer(z),
    and outer(z) truncated at d.

    ``linear`` is N x n, ``outer`` a stack of K polynomials in N variables
    whose terms have degree >= 2, and ``back`` N x K: one degree pass with
    ``back``, from z = linear w.  Numpy arrays take ``_graded_pass`` in
    floating point, lists of ``Exact`` rows ``_sparse_pass``.
    """
    n = len(linear[0])
    if isinstance(linear, np.ndarray):
        basis, first, _ = _graded(n, d)
        z = np.zeros((linear.shape[0], len(basis)), dtype=complex)
        z[:, first[1]:first[2]] = linear
        q = _graded_pass(z, outer, n, d, back)
        return _rows_jet(z, n, d), _rows_jet(q, n, d)
    _check_basis(n, d, MAX_EXACT_BASIS, "an exact pass takes")
    units = _units(n)
    rows = [[{}, {e: c for e, c in zip(units, row) if not c.is_zero}]
            + [{}] * (d - 1) for row in linear]
    q = _sparse_pass(rows, outer, n, d, back)
    return _parts_jet(rows, n, d), _parts_jet(q, n, d)


def compose_truncate(outer: JetMap, inner: JetMap, d: int) -> JetMap:
    """Jet of outer o inner truncated at degree d; inner must vanish at 0.

    Each monomial of the outer variables is built once and shared by all
    outer components: the monomial one degree lower times one inner
    component, truncated at d (a degree-1 monomial is the component itself).
    Exact compositions do this on rows of homogeneous parts
    (``_sparse_pass``); float ones on dense coefficient rows (see
    ``_compose_float``).
    """
    if outer.source_dim != inner.target_dim:
        raise ValueError(
            f"composition dimension mismatch: outer takes {outer.source_dim} "
            f"variables, inner produces {inner.target_dim}")
    if not inner.constant_free():
        raise ValueError("inner jet must vanish at the origin")
    if not outer.mode == inner.mode == "exact":
        return _compose_float(outer, inner, d)
    n = inner.source_dim
    _check_basis(n, d, MAX_EXACT_BASIS, "an exact pass takes")
    buckets = [c._buckets() for c in inner.components]
    rows = [[dict(b.get(s, ())) for s in range(d + 1)] for b in buckets]
    return _parts_jet(_sparse_pass(rows, outer, n, d), n, d)
