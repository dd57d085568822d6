"""Exact complex scalars of the form (a + b*sqrt(2)) with a, b Gaussian rationals.

Two coefficient modes run through the whole package:

* exact  -- instances of :class:`Exact`; arithmetic is exact field arithmetic
  in Q(i, sqrt2), equality is structural, and zero really means zero.
* float  -- plain Python ``complex``; comparisons must go through an explicit
  tolerance at the call site, never structural equality.

Mixed arithmetic coerces to ``complex`` (exactness is lost explicitly, never
silently re-gained: there is no float -> exact conversion).

An exact element is four integer numerators over one positive common
denominator, in lowest terms, so the field operations are integer
arithmetic plus one gcd per result; ``complex()`` divides the integers,
correctly rounded, with +-inf beyond the float range.  A sum of products
is one result too: ``sum_products`` (and ``dot`` on it) multiplies the
integer forms unreduced, sums them per key over a common denominator and
takes one gcd per sum, and the library's exact sums of products (the
composition pass, the pullback, the exact dot products) all go through it.
"""

from __future__ import annotations

import math
from fractions import Fraction
from math import gcd, lcm
from typing import Dict, Hashable, Iterable, Optional, Union


def _frac(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, (int, str)):
        return Fraction(x)
    raise TypeError(f"not an exact rational: {x!r}")


def _div(n: int, d: int) -> float:
    """n / d correctly rounded, or +-inf beyond the float range, as float
    arithmetic overflows."""
    try:
        return n / d
    except OverflowError:
        return math.inf if n > 0 else -math.inf


_new = object.__new__


def _raw(n: tuple) -> "Exact":
    """The Exact with internal form n, which must already be canonical."""
    x = _new(Exact)
    x._n = n
    return x


def _product(x: tuple, y: tuple) -> tuple:
    """The product of two internal forms, as an internal form not reduced:
    (x1 + y1 s)(x2 + y2 s) = (x1 x2 + 2 y1 y2) + (x1 y2 + x2 y1) s with
    x = a + b i, y = c + e i, expanded componentwise."""
    a1, b1, c1, e1, d1 = x
    a2, b2, c2, e2, d2 = y
    return (a1 * a2 - b1 * b2 + 2 * (c1 * c2 - e1 * e2),
            a1 * b2 + b1 * a2 + 2 * (c1 * e2 + e1 * c2),
            a1 * c2 - b1 * e2 + a2 * c1 - b2 * e1,
            a1 * e2 + b1 * c2 + a2 * e1 + b2 * c1,
            d1 * d2)


def sum_products(triples: Iterable[tuple]) -> Dict[Hashable, "Exact"]:
    """The sums of x * y per key over (key, x, y) triples, x and y internal
    forms (``Exact._n``), as Exacts: exact zeros are dropped.

    The products are not reduced.  Each key's sum is kept as integers over
    the lcm of the denominators it has seen, and reduced once at the end by
    one gcd, where a loop of ``*`` and ``+`` reduces every product and
    every partial sum.  The form is canonical, so the results are the same.
    """
    acc: Dict[Hashable, tuple] = {}
    get = acc.get
    for key, x, y in triples:
        p = _product(x, y)
        s = get(key)
        if s is None:
            acc[key] = p
            continue
        a, b, c, e, d = p
        a0, b0, c0, e0, d0 = s
        g, r = divmod(d0, d)
        if not r:
            acc[key] = a0 + a * g, b0 + b * g, c0 + c * g, e0 + e * g, d0
        else:
            m = lcm(d0, d)
            f, g = m // d0, m // d
            acc[key] = (a0 * f + a * g, b0 * f + b * g, c0 * f + c * g,
                        e0 * f + e * g, m)
    return {key: _make(a, b, c, e, d)
            for key, (a, b, c, e, d) in acc.items() if a or b or c or e}


def dot(xs: Iterable["Exact"], ys: Iterable["Exact"],
        conj: bool = False) -> "Exact":
    """sum_k xs[k] * ys[k], or xs[k] * conj(ys[k]) with ``conj``, reduced
    once (``sum_products``)."""
    return sum_products((None, x._n, (y.conjugate() if conj else y)._n)
                        for x, y in zip(xs, ys)
                        if not (x.is_zero or y.is_zero)).get(None, EXACT_ZERO)


def _make(a: int, b: int, c: int, e: int, d: int) -> "Exact":
    """(a + b i + (c + e i) sqrt2) / d for d > 0, reduced to lowest terms."""
    g = gcd(a, b, c, e, d)
    if g != 1:
        a, b, c, e, d = a // g, b // g, c // g, e // g, d // g
    x = _new(Exact)
    x._n = (a, b, c, e, d)
    return x


class Exact:
    """Element (ar + ai*i) + (br + bi*i)*sqrt(2) of Q(i, sqrt2).

    Held as four integer numerators over one positive common denominator,
    ``_n = (a, b, c, e, d)`` for (a + b i + (c + e i) sqrt2) / d, in lowest
    terms: gcd(a, b, c, e, d) == 1, and zero is (0, 0, 0, 0, 1).  The form
    is canonical, so equal elements have equal ``_n``.  Arithmetic works on
    the integers and reduces each result with one gcd; ``ar`` / ``ai`` /
    ``br`` / ``bi`` read the parts back as Fractions.  Instances are
    immutable: ``_n`` is private and the parts are read-only.
    """

    __slots__ = ("_n",)

    def __init__(self, ar=0, ai=0, br=0, bi=0):
        parts = [_frac(x) for x in (ar, ai, br, bi)]
        # over the lcm of the parts' reduced denominators, already in
        # lowest terms
        d = math.lcm(*(x.denominator for x in parts))
        self._n = tuple(x.numerator * (d // x.denominator)
                        for x in parts) + (d,)

    ar = property(lambda self: Fraction(self._n[0], self._n[4]))
    ai = property(lambda self: Fraction(self._n[1], self._n[4]))
    br = property(lambda self: Fraction(self._n[2], self._n[4]))
    bi = property(lambda self: Fraction(self._n[3], self._n[4]))

    # -- constructors ------------------------------------------------------

    @staticmethod
    def of(x) -> "Exact":
        if isinstance(x, Exact):
            return x
        x = _frac(x)
        return _raw((x.numerator, 0, 0, 0, x.denominator))

    # -- structure ---------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return self._n == _ZERO_N

    @property
    def is_rational(self) -> bool:
        _, b, c, e, _ = self._n
        return not (b or c or e)

    @property
    def is_real(self) -> bool:
        _, b, _, e, _ = self._n
        return not (b or e)

    def conjugate(self) -> "Exact":
        a, b, c, e, d = self._n
        return _raw((a, -b, c, -e, d))

    def __complex__(self) -> complex:
        a, b, c, e, d = self._n
        s = math.sqrt(2.0)
        return complex(_div(a, d) + _div(c, d) * s,
                       _div(b, d) + _div(e, d) * s)

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other):
        if isinstance(other, Exact):
            a1, b1, c1, e1, d1 = self._n
            a2, b2, c2, e2, d2 = other._n
            if d1 == d2:
                return _make(a1 + a2, b1 + b2, c1 + c2, e1 + e2, d1)
            return _make(a1 * d2 + a2 * d1, b1 * d2 + b2 * d1,
                         c1 * d2 + c2 * d1, e1 * d2 + e2 * d1, d1 * d2)
        if isinstance(other, (int, Fraction)):
            a, b, c, e, d = self._n
            p, q = other.numerator, other.denominator
            return _make(a * q + p * d, b * q, c * q, e * q, d * q)
        if isinstance(other, (float, complex)):
            return complex(self) + other
        return NotImplemented

    __radd__ = __add__

    def __neg__(self):
        a, b, c, e, d = self._n
        return _raw((-a, -b, -c, -e, d))

    def __sub__(self, other):
        if isinstance(other, Exact):
            a1, b1, c1, e1, d1 = self._n
            a2, b2, c2, e2, d2 = other._n
            if d1 == d2:
                return _make(a1 - a2, b1 - b2, c1 - c2, e1 - e2, d1)
            return _make(a1 * d2 - a2 * d1, b1 * d2 - b2 * d1,
                         c1 * d2 - c2 * d1, e1 * d2 - e2 * d1, d1 * d2)
        if isinstance(other, (int, Fraction)):
            a, b, c, e, d = self._n
            p, q = other.numerator, other.denominator
            return _make(a * q - p * d, b * q, c * q, e * q, d * q)
        if isinstance(other, (float, complex)):
            return complex(self) - other
        return NotImplemented

    def __rsub__(self, other):
        return (-self).__add__(other)

    def __mul__(self, other):
        if isinstance(other, Exact):
            return _make(*_product(self._n, other._n))
        if isinstance(other, (int, Fraction)):
            a, b, c, e, d = self._n
            p, q = other.numerator, other.denominator
            return _make(a * p, b * p, c * p, e * p, d * q)
        if isinstance(other, (float, complex)):
            return complex(self) * other
        return NotImplemented

    __rmul__ = __mul__

    def inverse(self) -> "Exact":
        if self.is_zero:
            raise ZeroDivisionError("division by exact zero")
        # 1/(x + y s) = (x - y s) / (x^2 - 2 y^2); the denominator is
        # Gaussian, u + v i, and 1/(u + v i) = (u - v i) / (u^2 + v^2).
        a, b, c, e, d = self._n
        conj2 = _raw((a, b, -c, -e, d))
        u, v, _, _, w = (self * conj2)._n
        return conj2 * _make(u * w, -v * w, 0, 0, u * u + v * v)

    def __truediv__(self, other):
        if isinstance(other, (Exact, int, Fraction)):
            return self * Exact.of(other).inverse()
        if isinstance(other, (float, complex)):
            return complex(self) / other
        return NotImplemented

    def __rtruediv__(self, other):
        inv = self.inverse()
        if isinstance(other, (Exact, int, Fraction)):
            return inv * other
        if isinstance(other, (float, complex)):
            return other * complex(inv)
        return NotImplemented

    def __pow__(self, n: int):
        if not isinstance(n, int) or n < 0:
            raise ValueError("exact powers take a nonnegative integer exponent")
        result, base = EXACT_ONE, self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    # -- comparison --------------------------------------------------------

    def __eq__(self, other):
        if isinstance(other, Exact):
            return self._n == other._n
        if isinstance(other, (int, Fraction)):
            return self._n == (other.numerator, 0, 0, 0, other.denominator)
        if isinstance(other, (float, complex)):
            return complex(self) == other
        return NotImplemented

    def __hash__(self):
        if self.is_rational:
            return hash(self.ar)
        return hash(self._n)

    def __repr__(self):
        def part(re, im):
            if im == 0:
                return str(re)
            if re == 0:
                return f"{im}i"
            return f"({re}{'+' if im > 0 else '-'}{abs(im)}i)"

        a = part(self.ar, self.ai)
        if self.br == 0 and self.bi == 0:
            return f"Exact({a})"
        b = part(self.br, self.bi)
        return f"Exact({a}+{b}*sqrt2)"


_ZERO_N = (0, 0, 0, 0, 1)
EXACT_ZERO = Exact()
EXACT_ONE = Exact(1)
EXACT_I = Exact(0, 1)
SQRT2 = Exact(0, 0, 1)
HALF_SQRT2 = Exact(0, 0, Fraction(1, 2))  # 1/sqrt2

Scalar = Union[Exact, complex]


def rational_sqrt(x: Fraction) -> Optional[Fraction]:
    """Square root of a nonnegative rational, or None if irrational."""
    if x < 0:
        return None
    num, den = x.numerator, x.denominator
    rn, rd = math.isqrt(num), math.isqrt(den)
    if rn * rn == num and rd * rd == den:
        return Fraction(rn, rd)
    return None


def field_sqrt(x: Exact) -> Optional[Exact]:
    """Positive square root of a real x = p + q*sqrt2 within Q(sqrt2), else None.

    Solves (u + v*sqrt2)^2 = p + q*sqrt2, i.e. u^2 + 2 v^2 = p and 2 u v = q:
    for q != 0, {u^2, 2 v^2} = {(p + s)/2, (p - s)/2}, s^2 = p^2 - 2 q^2.
    """
    if not x.is_real:
        raise ValueError("field_sqrt takes a real field element")
    p, q = x.ar, x.br
    if q == 0:
        u = rational_sqrt(p)
        if u is not None:
            return Exact(u)
        v2 = rational_sqrt(p / 2)
        if v2 is not None:
            return Exact(0, 0, v2)
        return None
    s = rational_sqrt(p * p - 2 * q * q)
    if s is None:
        return None
    u = rational_sqrt((p + s) / 2) or rational_sqrt((p - s) / 2)  # u != 0
    if u is None:
        return None
    v = q / (2 * u)
    root = Exact(u, 0, v, 0)
    # u + v sqrt2 > 0 when u > |v| sqrt2, else it has the sign of v
    return root if v > 0 or u * u > 2 * v * v else -root


# -- generic coefficient helpers (Exact | complex) --------------------------

def coerce(c, mode: str) -> Scalar:
    """Normalize a raw coefficient to the requested mode.

    float -> exact is refused: rational reconstruction is never implicit.
    """
    if mode == "exact":
        if isinstance(c, Exact):
            return c
        if isinstance(c, (int, Fraction)):
            return Exact.of(c)
        raise TypeError(f"cannot use {type(c).__name__} coefficient in exact mode")
    if mode == "float":
        return complex(c)
    raise ValueError(f"unknown mode {mode!r}")


def mode_of(c) -> str:
    return "exact" if isinstance(c, (Exact, int, Fraction)) else "float"


def zero(mode: str) -> Scalar:
    return EXACT_ZERO if mode == "exact" else 0j


def one(mode: str) -> Scalar:
    return EXACT_ONE if mode == "exact" else 1 + 0j
