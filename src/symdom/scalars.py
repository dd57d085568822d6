"""Exact complex scalars of the form (a + b*sqrt(2)) with a, b Gaussian rationals.

Two coefficient modes run through the whole package:

* exact  -- instances of :class:`Exact`; arithmetic is exact field arithmetic
  in Q(i, sqrt2), equality is structural, and zero really means zero.
* float  -- plain Python ``complex``; comparisons must go through an explicit
  tolerance at the call site, never structural equality.

Mixed arithmetic coerces to ``complex`` (exactness is lost explicitly, never
silently re-gained: there is no float -> exact conversion).
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Optional, Union

Rat = Union[int, Fraction]


def _frac(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        return Fraction(x)
    raise TypeError(f"not an exact rational: {x!r}")


def _float(x: Fraction) -> float:
    """float(x), or +-inf beyond the float range, as float arithmetic
    overflows."""
    try:
        return float(x)
    except OverflowError:
        return math.inf if x > 0 else -math.inf


class Exact:
    """Element (ar + ai*i) + (br + bi*i)*sqrt(2) of Q(i, sqrt2)."""

    __slots__ = ("ar", "ai", "br", "bi")

    def __init__(self, ar=0, ai=0, br=0, bi=0):
        object.__setattr__(self, "ar", _frac(ar))
        object.__setattr__(self, "ai", _frac(ai))
        object.__setattr__(self, "br", _frac(br))
        object.__setattr__(self, "bi", _frac(bi))

    def __setattr__(self, name, value):
        raise AttributeError("Exact is immutable")

    # -- constructors ------------------------------------------------------

    @staticmethod
    def of(x) -> "Exact":
        if isinstance(x, Exact):
            return x
        return Exact(_frac(x))

    @staticmethod
    def gaussian(re, im) -> "Exact":
        return Exact(_frac(re), _frac(im))

    # -- structure ---------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not (self.ar or self.ai or self.br or self.bi)

    @property
    def is_rational(self) -> bool:
        return not (self.ai or self.br or self.bi)

    @property
    def is_real(self) -> bool:
        return not (self.ai or self.bi)

    def conjugate(self) -> "Exact":
        return Exact(self.ar, -self.ai, self.br, -self.bi)

    def abs2(self) -> "Exact":
        """|x|^2, a real element of Q(sqrt2)."""
        return self * self.conjugate()

    def __complex__(self) -> complex:
        s = math.sqrt(2.0)
        return complex(_float(self.ar) + _float(self.br) * s,
                       _float(self.ai) + _float(self.bi) * s)

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other):
        if isinstance(other, Exact):
            return Exact(self.ar + other.ar, self.ai + other.ai,
                         self.br + other.br, self.bi + other.bi)
        if isinstance(other, (int, Fraction)):
            return Exact(self.ar + other, self.ai, self.br, self.bi)
        if isinstance(other, (float, complex)):
            return complex(self) + other
        return NotImplemented

    __radd__ = __add__

    def __neg__(self):
        return Exact(-self.ar, -self.ai, -self.br, -self.bi)

    def __sub__(self, other):
        if isinstance(other, Exact):
            return Exact(self.ar - other.ar, self.ai - other.ai,
                         self.br - other.br, self.bi - other.bi)
        if isinstance(other, (int, Fraction)):
            return Exact(self.ar - other, self.ai, self.br, self.bi)
        if isinstance(other, (float, complex)):
            return complex(self) - other
        return NotImplemented

    def __rsub__(self, other):
        return (-self).__add__(other)

    def __mul__(self, other):
        if isinstance(other, Exact):
            # (a1 + b1 s)(a2 + b2 s) = (a1 a2 + 2 b1 b2) + (a1 b2 + a2 b1) s,
            # with Gaussian products expanded componentwise.
            a1r, a1i, b1r, b1i = self.ar, self.ai, self.br, self.bi
            a2r, a2i, b2r, b2i = other.ar, other.ai, other.br, other.bi
            ar = a1r * a2r - a1i * a2i + 2 * (b1r * b2r - b1i * b2i)
            ai = a1r * a2i + a1i * a2r + 2 * (b1r * b2i + b1i * b2r)
            br = a1r * b2r - a1i * b2i + a2r * b1r - a2i * b1i
            bi = a1r * b2i + a1i * b2r + a2r * b1i + a2i * b1r
            return Exact(ar, ai, br, bi)
        if isinstance(other, (int, Fraction)):
            return Exact(self.ar * other, self.ai * other,
                         self.br * other, self.bi * other)
        if isinstance(other, (float, complex)):
            return complex(self) * other
        return NotImplemented

    __rmul__ = __mul__

    def inverse(self) -> "Exact":
        if self.is_zero:
            raise ZeroDivisionError("division by exact zero")
        # 1/(a + b s) = (a - b s) / (a^2 - 2 b^2); the denominator is Gaussian.
        conj2 = Exact(self.ar, self.ai, -self.br, -self.bi)
        den = self * conj2  # Gaussian rational: br = bi = 0
        dr, di = den.ar, den.ai
        norm = dr * dr + di * di
        inv_den = Exact(dr / norm, -di / norm)
        return conj2 * inv_den

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
            return (self.ar, self.ai, self.br, self.bi) == \
                   (other.ar, other.ai, other.br, other.bi)
        if isinstance(other, (int, Fraction)):
            return self.is_rational and self.ar == other
        if isinstance(other, (float, complex)):
            return complex(self) == other
        return NotImplemented

    def __hash__(self):
        if self.is_rational:
            return hash(self.ar)
        return hash((self.ar, self.ai, self.br, self.bi))

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
    if x == 0:
        return Fraction(0)
    num, den = x.numerator, x.denominator
    rn, rd = math.isqrt(num), math.isqrt(den)
    if rn * rn == num and rd * rd == den:
        return Fraction(rn, rd)
    return None


def field_sqrt(x: Exact) -> Optional[Exact]:
    """Positive square root of a real x = p + q*sqrt2 within Q(sqrt2), else None.

    Solves (u + v*sqrt2)^2 = p + q*sqrt2, i.e. u^2 + 2 v^2 = p and 2 u v = q.
    """
    if not x.is_real:
        raise ValueError("field_sqrt takes a real field element")
    p, q = x.ar, x.br
    if p == 0 and q == 0:
        return EXACT_ZERO
    if q == 0:
        u = rational_sqrt(p)
        if u is not None:
            return Exact(u)
        v2 = rational_sqrt(p / 2)
        if v2 is not None:
            return Exact(0, 0, v2)
        return None
    # u = q / (2v); substitute: 8 v^4 - 4 p v^2 + q^2 = 0.
    disc = rational_sqrt(p * p - 2 * q * q)
    if disc is None:
        return None
    for branch in (p + disc, p - disc):
        v2 = branch / 4
        v = rational_sqrt(v2)
        if v is None or v == 0:
            continue
        for sv in (v, -v):
            u = q / (2 * sv)
            cand = Exact(u, 0, sv, 0)
            if cand * cand == x and float(u) + float(sv) * math.sqrt(2) > 0:
                return cand
    return None


# -- generic coefficient helpers (Exact | complex) --------------------------

def as_complex(c) -> complex:
    return complex(c)


def cabs(c: Scalar) -> float:
    return abs(as_complex(c))


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
        return as_complex(c)
    raise ValueError(f"unknown mode {mode!r}")


def mode_of(c) -> str:
    return "exact" if isinstance(c, (Exact, int, Fraction)) else "float"


def zero(mode: str) -> Scalar:
    return EXACT_ZERO if mode == "exact" else 0j


def one(mode: str) -> Scalar:
    return EXACT_ONE if mode == "exact" else 1 + 0j
