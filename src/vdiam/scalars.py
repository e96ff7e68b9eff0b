"""Exact scalar arithmetic over Q(sqrt2) with Gaussian-rational parts.

A scalar is (a + b*sqrt2) + (c + d*sqrt2)*i with a, b, c, d rational.  This
is the smallest field containing Q, i and sqrt2 — enough to express the
1/sqrt(2) normalizations that show up in basis constructions while keeping
every symbolic computation exact.
"""

from __future__ import annotations

import math
from fractions import Fraction

_SQRT2 = math.sqrt(2.0)


class ExactSqrtError(ArithmeticError):
    """Square root not representable inside Q(sqrt2)."""


def _exact(t: tuple) -> "Exact":
    """Exact from a canonical (a, b, c, d, q), skipping the public checks."""
    e = _new(Exact)
    _set_t(e, t)
    return e


def _reduced(a: int, b: int, c: int, d: int, q: int) -> "Exact":
    """Exact (a, b, c, d) / q for q > 0, divided through by the common gcd."""
    g = math.gcd(a, b, c, d, q)
    if g != 1:
        return _exact((a // g, b // g, c // g, d // g, q // g))
    return _exact((a, b, c, d, q))


class Exact:
    """Immutable exact scalar (a + b*sqrt2) + (c + d*sqrt2)*i.

    Stored as one tuple (a, b, c, d, q) of ints: four numerators over one
    denominator q > 0 with gcd(a, b, c, d, q) = 1. That form is canonical,
    so equal scalars have equal tuples. The parts a, b, c, d read back as
    Fractions.
    """

    __slots__ = ("_t",)

    def __init__(self, a=0, b=0, c=0, d=0):
        parts = (a, b, c, d)
        for v in parts:
            if not isinstance(v, (int, Fraction)):
                raise TypeError(f"exact scalar parts must be rational, got {type(v).__name__}")
        # over the lcm of reduced denominators the gcd is already 1
        q = math.lcm(*(v.denominator for v in parts))
        object.__setattr__(self, "_t", tuple(v.numerator * (q // v.denominator) for v in parts) + (q,))

    def __setattr__(self, name, value):
        raise AttributeError("Exact is immutable")

    @property
    def a(self) -> Fraction:
        return Fraction(self._t[0], self._t[4])

    @property
    def b(self) -> Fraction:
        return Fraction(self._t[1], self._t[4])

    @property
    def c(self) -> Fraction:
        return Fraction(self._t[2], self._t[4])

    @property
    def d(self) -> Fraction:
        return Fraction(self._t[3], self._t[4])

    # -- predicates ---------------------------------------------------------

    def is_zero(self) -> bool:
        a, b, c, d, _ = self._t
        return not (a or b or c or d)

    def is_real(self) -> bool:
        return not (self._t[2] or self._t[3])

    def is_rational(self) -> bool:
        return not (self._t[1] or self._t[2] or self._t[3])

    def __bool__(self) -> bool:
        return not self.is_zero()

    # -- ring/field operations ----------------------------------------------

    @staticmethod
    def _coerce(other):
        if isinstance(other, Exact):
            return other
        if isinstance(other, int):
            return _exact((int(other), 0, 0, 0, 1))
        if isinstance(other, Fraction):
            return _exact((other.numerator, 0, 0, 0, other.denominator))
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        a1, b1, c1, d1, q1 = self._t
        a2, b2, c2, d2, q2 = o._t
        if q1 == q2:
            return _reduced(a1 + a2, b1 + b2, c1 + c2, d1 + d2, q1)
        return _reduced(a1 * q2 + a2 * q1, b1 * q2 + b2 * q1, c1 * q2 + c2 * q1, d1 * q2 + d2 * q1, q1 * q2)

    __radd__ = __add__

    def __neg__(self):
        a, b, c, d, q = self._t
        return _exact((-a, -b, -c, -d, q))

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
        a1, b1, c1, d1, q1 = self._t
        a2, b2, c2, d2, q2 = o._t
        # (A1 + B1 i)(A2 + B2 i) with A = a + b*sqrt2, B = c + d*sqrt2
        return _reduced(
            a1 * a2 + 2 * b1 * b2 - c1 * c2 - 2 * d1 * d2,
            a1 * b2 + b1 * a2 - c1 * d2 - d1 * c2,
            a1 * c2 + 2 * b1 * d2 + c1 * a2 + 2 * d1 * b2,
            a1 * d2 + b1 * c2 + c1 * b2 + d1 * a2,
            q1 * q2,
        )

    __rmul__ = __mul__

    def inverse(self) -> "Exact":
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero exact scalar")
        a, b, c, d, q = self._t
        # q^2 |z|^2 = n1 + n2*sqrt2, and 1/|z|^2 = q^2 (n1 - n2*sqrt2) / den.
        # den = (n1 + n2*sqrt2)(n1 - n2*sqrt2) is q^4 |z|^2 times its image
        # under sqrt2 -> -sqrt2, a sum of two real squares, so den > 0.
        n1 = a * a + 2 * b * b + c * c + 2 * d * d
        n2 = 2 * (a * b + c * d)
        den = n1 * n1 - 2 * n2 * n2
        # 1/z = conj(z) / |z|^2 = (A - B i)(n1 - n2*sqrt2) q / den
        return _reduced(
            (a * n1 - 2 * b * n2) * q,
            (b * n1 - a * n2) * q,
            (2 * d * n2 - c * n1) * q,
            (c * n2 - d * n1) * q,
            den,
        )

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
        a, b, c, d, q = self._t
        return _exact((a, b, -c, -d, q))

    def modulus_squared(self) -> "Exact":
        a, b, c, d, q = self._t
        return _reduced(a * a + 2 * b * b + c * c + 2 * d * d, 2 * (a * b + c * d), 0, 0, q * q)

    # -- comparisons (real values only for order) ----------------------------

    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self._t == o._t

    def __hash__(self):
        return hash((self.a, self.b, self.c, self.d))

    def real_sign(self) -> int:
        """Sign of a real value a + b*sqrt2 (raises when not real)."""
        if not self.is_real():
            raise ValueError("sign undefined for non-real scalar")
        a, b = self._t[0], self._t[1]  # the sign of (a + b*sqrt2) / q, q > 0
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
        # int / int is correctly rounded, so a / q is float(Fraction(a, q))
        a, b, c, d, q = self._t
        return complex(a / q + b / q * _SQRT2, c / q + d / q * _SQRT2)

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


_new = object.__new__
_set_t = Exact._t.__set__

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
    """The nonnegative square root of a nonnegative real scalar, in Q(sqrt2).

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
            if p:
                cand = Exact(p, b / (2 * p))
                if cand * cand == v:
                    return cand if cand.real_sign() > 0 else -cand
    raise ExactSqrtError(f"sqrt({v!r}) is not in Q(sqrt2)")


def _log_sum(a: int, b: int) -> float:
    """log(a + b*sqrt2) for integers a, b >= 0, not both zero."""
    if a >= b:
        return math.log(a) + math.log1p(b / a * _SQRT2)
    return math.log(b) + math.log(_SQRT2) + math.log1p(a / b / _SQRT2)


def log_positive(v: Exact) -> float:
    """log v for a positive real scalar v = (a + b*sqrt2) / q, at any size
    and without cancellation: where a and b differ in sign, a + b*sqrt2 is
    the norm a^2 - 2b^2 over a - b*sqrt2, whose terms have one sign. So
    log 1 is exactly 0."""
    a, b, c, d, q = v._t
    if c or d or v.real_sign() <= 0:
        raise ValueError(f"log of a scalar that is not positive: {v!r}")
    if a >= 0 and b >= 0:
        return _log_sum(a, b) - math.log(q)
    return math.log(abs(a * a - 2 * b * b)) - _log_sum(abs(a), abs(b)) - math.log(q)


def _real_part_str(a: Fraction, b: Fraction) -> str:
    """Render a + b*sqrt2 (assumed not both zero) without outer parens."""
    pieces = []
    if a != 0:
        pieces.append(str(a))
    if b != 0:
        if b == 1:
            s = "sqrt2"
        elif b == -1:
            s = "-sqrt2"
        else:
            s = f"{b}*sqrt2"
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
