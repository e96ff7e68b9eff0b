"""Exact scalar arithmetic over Q(sqrt2) with Gaussian-rational parts.

A scalar is (a + b*sqrt2) + (c + d*sqrt2)*i with a, b, c, d rational.  This
is the smallest field containing Q, i and sqrt2 — enough to express the
1/sqrt(2) normalizations that show up in basis constructions while keeping
every symbolic computation exact.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Union

_SQRT2 = math.sqrt(2.0)

Rationalish = Union[int, Fraction]


class ExactSqrtError(ArithmeticError):
    """Square root not representable inside Q(sqrt2)."""


def _rmul(a1, b1, a2, b2):
    # (a1 + b1*sqrt2)(a2 + b2*sqrt2)
    return a1 * a2 + 2 * b1 * b2, a1 * b2 + b1 * a2


class Exact:
    """Immutable exact scalar (a + b*sqrt2) + (c + d*sqrt2)*i."""

    __slots__ = ("a", "b", "c", "d")

    def __init__(self, a=0, b=0, c=0, d=0):
        for v in (a, b, c, d):
            if not isinstance(v, (int, Fraction)):
                raise TypeError(f"exact scalar parts must be rational, got {type(v).__name__}")
        object.__setattr__(self, "a", Fraction(a))
        object.__setattr__(self, "b", Fraction(b))
        object.__setattr__(self, "c", Fraction(c))
        object.__setattr__(self, "d", Fraction(d))

    def __setattr__(self, name, value):
        raise AttributeError("Exact is immutable")

    # -- predicates ---------------------------------------------------------

    def is_zero(self) -> bool:
        return not (self.a or self.b or self.c or self.d)

    def is_real(self) -> bool:
        return not (self.c or self.d)

    def is_rational(self) -> bool:
        return not (self.b or self.c or self.d)

    def __bool__(self) -> bool:
        return not self.is_zero()

    # -- ring/field operations ----------------------------------------------

    @staticmethod
    def _coerce(other):
        if isinstance(other, Exact):
            return other
        if isinstance(other, (int, Fraction)):
            return Exact(other)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return Exact(self.a + o.a, self.b + o.b, self.c + o.c, self.d + o.d)

    __radd__ = __add__

    def __neg__(self):
        return Exact(-self.a, -self.b, -self.c, -self.d)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o + (-self)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        re1, re2 = _rmul(self.a, self.b, o.a, o.b)
        s1, s2 = _rmul(self.c, self.d, o.c, o.d)
        im1, im2 = _rmul(self.a, self.b, o.c, o.d)
        t1, t2 = _rmul(self.c, self.d, o.a, o.b)
        return Exact(re1 - s1, re2 - s2, im1 + t1, im2 + t2)

    __rmul__ = __mul__

    def inverse(self) -> "Exact":
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero exact scalar")
        # |z|^2 = A^2 + B^2 is real quadratic n1 + n2*sqrt2
        n1a, n2a = _rmul(self.a, self.b, self.a, self.b)
        n1b, n2b = _rmul(self.c, self.d, self.c, self.d)
        n1, n2 = n1a + n1b, n2a + n2b
        den = n1 * n1 - 2 * n2 * n2  # rational, nonzero since sqrt2 irrational
        inv1, inv2 = n1 / den, -n2 / den  # 1/|z|^2 as a real quadratic
        ra, rb = _rmul(self.a, self.b, inv1, inv2)
        ia, ib = _rmul(-self.c, -self.d, inv1, inv2)
        return Exact(ra, rb, ia, ib)

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self * o.inverse()

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o * self.inverse()

    def __pow__(self, n: int):
        if not isinstance(n, int):
            return NotImplemented
        if n < 0:
            return self.inverse() ** (-n)
        out = ONE
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def conjugate(self) -> "Exact":
        return Exact(self.a, self.b, -self.c, -self.d)

    def modulus_squared(self) -> "Exact":
        n1a, n2a = _rmul(self.a, self.b, self.a, self.b)
        n1b, n2b = _rmul(self.c, self.d, self.c, self.d)
        return Exact(n1a + n1b, n2a + n2b)

    # -- comparisons (real values only for order) ----------------------------

    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return (self.a, self.b, self.c, self.d) == (o.a, o.b, o.c, o.d)

    def __hash__(self):
        return hash((self.a, self.b, self.c, self.d))

    def real_sign(self) -> int:
        """Sign of a real value a + b*sqrt2 (raises when not real)."""
        if not self.is_real():
            raise ValueError("sign undefined for non-real scalar")
        a, b = self.a, self.b
        if a == 0 and b == 0:
            return 0
        if a >= 0 and b >= 0:
            return 1
        if a <= 0 and b <= 0:
            return -1
        # opposite signs: compare a^2 with 2 b^2
        if a > 0:  # b < 0
            return 1 if a * a > 2 * b * b else -1
        return 1 if a * a < 2 * b * b else -1

    # -- conversions ----------------------------------------------------------

    def to_complex(self) -> complex:
        re = float(self.a) + float(self.b) * _SQRT2
        im = float(self.c) + float(self.d) * _SQRT2
        return complex(re, im)

    def __complex__(self) -> complex:
        return self.to_complex()

    def __abs__(self) -> float:
        return abs(self.to_complex())

    def as_fraction(self) -> Fraction:
        if not self.is_rational():
            raise ValueError("scalar is not rational")
        return self.a

    def __repr__(self):
        return f"Exact({self.a}, {self.b}, {self.c}, {self.d})"

    def __str__(self):
        return scalar_str(self)


ZERO = Exact(0)
ONE = Exact(1)
SQRT2 = Exact(0, 1)
IMAG = Exact(0, 0, 1)


def _fraction_sqrt(q: Fraction):
    """Exact square root of a nonnegative rational, or None."""
    if q < 0:
        return None
    if q == 0:
        return Fraction(0)
    rn = math.isqrt(q.numerator)
    rd = math.isqrt(q.denominator)
    if rn * rn == q.numerator and rd * rd == q.denominator:
        return Fraction(rn, rd)
    return None


def exact_sqrt(v: Exact) -> Exact:
    """Square root of a nonnegative real scalar, staying inside Q(sqrt2).

    Handles values of the form p^2, 2*p^2, and (p + q*sqrt2)^2; anything
    else raises ExactSqrtError.
    """
    if not isinstance(v, Exact):
        v = Exact(v)
    if not v.is_real():
        raise ExactSqrtError("square root of non-real scalar")
    if v.real_sign() < 0:
        raise ExactSqrtError("square root of negative scalar")
    a, b = v.a, v.b
    if b == 0:
        r = _fraction_sqrt(a)
        if r is not None:
            return Exact(r)
        r = _fraction_sqrt(a / 2)
        if r is not None:
            return Exact(0, r)
        raise ExactSqrtError(f"sqrt({a}) is not in Q(sqrt2)")
    # (p + q*sqrt2)^2 = p^2 + 2q^2 + 2pq*sqrt2
    disc = _fraction_sqrt(a * a - 2 * b * b)
    if disc is not None:
        for p2 in ((a + disc) / 2, (a - disc) / 2):
            p = _fraction_sqrt(p2)
            if p and p != 0:
                q = b / (2 * p)
                cand = Exact(p, q)
                if (cand * cand) == v and cand.real_sign() > 0:
                    return cand
                cand = -cand
                if (cand * cand) == v and cand.real_sign() > 0:
                    return cand
    raise ExactSqrtError(f"sqrt({v!r}) is not in Q(sqrt2)")


def _frac_str(q: Fraction) -> str:
    return str(q)


def _real_part_str(a: Fraction, b: Fraction) -> str:
    """Render a + b*sqrt2 (assumed not both zero) without outer parens."""
    pieces = []
    if a != 0:
        pieces.append(_frac_str(a))
    if b != 0:
        if b == 1:
            s = "sqrt2"
        elif b == -1:
            s = "-sqrt2"
        else:
            s = f"{_frac_str(b)}*sqrt2"
        if pieces and not s.startswith("-"):
            pieces.append("+" + s)
        else:
            pieces.append(s)
    return "".join(pieces)


def scalar_str(v: Exact) -> str:
    """Canonical text form; always re-parseable by the polynomial grammar."""
    if v.is_zero():
        return "0"
    re_zero = v.a == 0 and v.b == 0
    im_zero = v.c == 0 and v.d == 0
    if im_zero:
        s = _real_part_str(v.a, v.b)
        return f"({s})" if ("+" in s[1:] or "-" in s[1:]) else s
    if v.c == 1 and v.d == 0:
        im = "i"
    elif v.c == -1 and v.d == 0:
        im = "-i"
    else:
        inner = _real_part_str(v.c, v.d)
        if "+" in inner[1:] or "-" in inner[1:]:
            im = f"({inner})*i"
        else:
            im = f"{inner}*i"
    if re_zero:
        return im
    re = _real_part_str(v.a, v.b)
    if not im.startswith("-"):
        im = "+" + im
    return f"({re}{im})"
