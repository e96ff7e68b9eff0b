"""The scalar layer against a reference: the Fraction-based Exact that the
integer-numerator Exact replaced, kept verbatim below. Every operation must
give the same parts, text, hash and floats, and raise the same errors."""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Union

from hypothesis import given, settings, strategies as st

from vdiam import scalars as new

# ---------------------------------------------------------------------------
# reference: the previous scalars.py, verbatim from here to the tests

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


# ---------------------------------------------------------------------------
# the tests

small = st.builds(Fraction, st.integers(-9, 9), st.integers(1, 9))
large = st.builds(Fraction, st.integers(-(2**70), 2**70), st.integers(1, 2**70))
# ints and Fractions both, with zero drawn often so that real, rational and
# zero scalars come up
part = st.one_of(st.just(0), st.just(Fraction(0)), st.integers(-5, 5), small, large)
parts = st.tuples(part, part, part, part)
rational = st.one_of(st.integers(-(2**70), 2**70), small, large)


def outcome(fn, *args):
    """What fn(*args) gives: ("value", v) or ("raises", type, message)."""
    try:
        return ("value", fn(*args))
    except (ArithmeticError, ValueError, TypeError, AttributeError) as e:
        return ("raises", type(e).__name__, str(e))


def assert_same(got, want):
    """got (new) matches want (reference): same scalar or the same error."""
    if want[0] == "raises" or got[0] == "raises":
        assert got == want
        return
    g, w = got[1], want[1]
    if not isinstance(w, Exact):
        assert type(g) is type(w) and g == w
        return
    assert isinstance(g, new.Exact)
    assert (type(g.a), type(g.b), type(g.c), type(g.d)) == (Fraction,) * 4
    assert (g.a, g.b, g.c, g.d) == (w.a, w.b, w.c, w.d)
    assert repr(g) == repr(w) and str(g) == str(w) and hash(g) == hash(w)
    a, b, c, d, q = g._t
    assert q > 0 and math.gcd(a, b, c, d, q) == 1
    z, y = g.to_complex(), w.to_complex()
    assert (z.real.hex(), z.imag.hex()) == (y.real.hex(), y.imag.hex())
    assert (g.is_zero(), g.is_real(), g.is_rational(), bool(g)) == (w.is_zero(), w.is_real(), w.is_rational(), bool(w))
    assert abs(g) == abs(w) and complex(g) == complex(w)


def pair(p):
    return new.Exact(*p), Exact(*p)


@settings(max_examples=200, deadline=None)
@given(parts)
def test_unary_operations_match_the_reference(p):
    x, r = pair(p)
    assert_same(("value", x), ("value", r))
    for name in ("inverse", "conjugate", "modulus_squared", "__neg__", "real_sign", "as_fraction"):
        assert_same(outcome(getattr(x, name)), outcome(getattr(r, name)))
    for n in range(-3, 6):
        assert_same(outcome(pow, x, n), outcome(pow, r, n))
    assert_same(outcome(new.exact_sqrt, x), outcome(exact_sqrt, r))


@settings(max_examples=200, deadline=None)
@given(parts, parts)
def test_binary_operations_match_the_reference(p1, p2):
    (x, r), (y, s) = pair(p1), pair(p2)
    for op in ("__add__", "__sub__", "__mul__", "__truediv__", "__rsub__", "__rtruediv__", "__radd__", "__rmul__"):
        assert_same(outcome(getattr(x, op), y), outcome(getattr(r, op), s))
    assert (x == y) == (r == s) and (x != y) == (r != s)
    assert (hash(x) == hash(y)) == (hash(r) == hash(s))


@settings(max_examples=200, deadline=None)
@given(parts, rational)
def test_mixed_rational_operands_match_the_reference(p, v):
    x, r = pair(p)
    for op in (
        lambda a, v: a + v, lambda a, v: v + a, lambda a, v: a - v, lambda a, v: v - a,
        lambda a, v: a * v, lambda a, v: v * a, lambda a, v: a / v, lambda a, v: v / a,
    ):
        assert_same(outcome(op, x, v), outcome(op, r, v))
    assert (x == v) == (r == v) and (v == x) == (v == r)
    assert_same(outcome(new.exact_sqrt, v), outcome(exact_sqrt, v))


@settings(max_examples=200, deadline=None)
@given(st.tuples(part, part), st.sampled_from([1, 2]))
def test_exact_sqrt_of_squares_matches_the_reference(p, two):
    # (a + b*sqrt2)^2 and 2*(a + b*sqrt2)^2 reach every branch of exact_sqrt
    x, r = pair(p)
    assert_same(outcome(new.exact_sqrt, x * x * two), outcome(exact_sqrt, r * r * two))
    # the root is positive: cm_generators divides by it as it comes
    if x:
        assert new.exact_sqrt(x * x * two).real_sign() > 0


def test_edge_scalars_match_the_reference():
    for p in [(0,), (1,), (-1,), (0, 1), (0, 0, 1), (0, 0, 0, 1), (True,), (Fraction(6, 4), 0, Fraction(-2, 6))]:
        x, r = pair(p)
        assert_same(("value", x), ("value", r))
        assert_same(outcome(x.inverse), outcome(r.inverse))
    for name in ("ZERO", "ONE", "SQRT2", "IMAG"):
        assert_same(("value", getattr(new, name)), ("value", globals()[name]))


def test_errors_match_the_reference():
    for bad in [(1.5,), (0, "x"), (0, 0, 0, 1j)]:
        assert_same(outcome(new.Exact, *bad), outcome(Exact, *bad))
    x, r = pair((1, 2, 3, 4))
    for op in (lambda a: a + 1.5, lambda a: 1.5 * a, lambda a: a / 0, lambda a: 0 / (a - a),
               lambda a: (a - a).inverse(), lambda a: (a - a) ** -1, lambda a: a ** 1.5):
        assert_same(outcome(op, x), outcome(op, r))
    assert (x == 1.5) is (r == 1.5) is False
    for name in ("a", "d", "other"):
        assert_same(outcome(setattr, x, name, 1), outcome(setattr, r, name, 1))
    assert_same(outcome(new.exact_sqrt, new.Exact(-1)), outcome(exact_sqrt, Exact(-1)))
