"""Sparse multivariate polynomials over a split variable set (x1..xM, y1..).

Implements the graded reverse-lexicographic order in the convention used
throughout this package (degree first; ties broken at the rightmost
differing exponent with the LARGER exponent winning, so y^2 > x*y > x^2),
leading terms, multivariate division / normal forms modulo a generating
set, the induced star product on the quotient ring, and an S-polynomial
check that guards normal-form uniqueness.

Coefficients run in one of two modes: "exact" (scalars.Exact — Gaussian
rationals extended by sqrt2) or "float" (complex doubles), which only the
bb construction in `bases` makes.  Parsed polynomials are exact: the
grammar of `parse_polynomial` has integer literals, + - *, / by nonzero
constants, ^ by nonnegative integers, parentheses, the variables x1..xM and
y1..y(N-M), and the constants sqrt2 and i; a decimal literal is refused.
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from .scalars import Exact, scalar_str

Monomial = tuple[int, ...]


class PolyParseError(ValueError):
    """Raised when polynomial text does not match the grammar."""


# ---------------------------------------------------------------------------
# ordering


def grevlex_key(mono: Monomial):
    """Sort key: ascending by total degree, then reversed exponent tuple."""
    return (sum(mono), tuple(reversed(mono)))


def monomial_mul(a: Monomial, b: Monomial) -> Monomial:
    return tuple(i + j for i, j in zip(a, b))


def monomial_divides(a: Monomial, b: Monomial) -> bool:
    return all(i <= j for i, j in zip(a, b))


def monomial_div(a: Monomial, b: Monomial) -> Monomial:
    return tuple(i - j for i, j in zip(a, b))


def monomial_lcm(a: Monomial, b: Monomial) -> Monomial:
    return tuple(max(i, j) for i, j in zip(a, b))


class Term(NamedTuple):
    coefficient: object
    monomial: Monomial


# ---------------------------------------------------------------------------
# polynomial


def _coerce_exact(c):
    if isinstance(c, Exact):
        return c
    if isinstance(c, (int, Fraction)):
        return Exact(c)
    raise TypeError(f"exact mode needs rational coefficients, got {type(c).__name__}")


def _coerce_float(c):
    if isinstance(c, Exact):
        return c.to_complex()
    return complex(c)


class Polynomial:
    """Immutable sparse polynomial with a fixed (nx, nvars) variable layout."""

    __slots__ = ("_c", "nx", "nvars", "mode")

    def __init__(self, coeffs: dict, nx: int, nvars: int, mode: str = "exact"):
        if mode not in ("exact", "float"):
            raise ValueError(f"unknown coefficient mode {mode!r}")
        coerce = _coerce_exact if mode == "exact" else _coerce_float
        clean = {}
        for mono, c in coeffs.items():
            mono = tuple(int(e) for e in mono)
            if len(mono) != nvars or any(e < 0 for e in mono):
                raise ValueError(f"bad exponent vector {mono} for nvars={nvars}")
            c = coerce(c)
            if (c.is_zero() if mode == "exact" else c == 0):
                continue
            if mono in clean:
                raise ValueError(f"duplicate monomial {mono}")
            clean[mono] = c
        object.__setattr__(self, "_c", clean)
        object.__setattr__(self, "nx", nx)
        object.__setattr__(self, "nvars", nvars)
        object.__setattr__(self, "mode", mode)

    def __setattr__(self, name, value):
        raise AttributeError("Polynomial is immutable")

    # -- constructors --------------------------------------------------------

    @classmethod
    def constant(cls, value, nx: int, nvars: int, mode: str = "exact") -> "Polynomial":
        return cls({(0,) * nvars: value}, nx, nvars, mode)

    @classmethod
    def monomial(cls, mono: Monomial, nx: int, nvars: int, mode: str = "exact", coefficient=1) -> "Polynomial":
        return cls({tuple(mono): coefficient}, nx, nvars, mode)

    @classmethod
    def variable(cls, index: int, nx: int, nvars: int, mode: str = "exact") -> "Polynomial":
        mono = tuple(1 if j == index else 0 for j in range(nvars))
        return cls({mono: 1}, nx, nvars, mode)

    # -- basic views ----------------------------------------------------------

    def is_zero(self) -> bool:
        return not self._c

    def coefficient(self, mono: Monomial):
        zero = Exact(0) if self.mode == "exact" else 0j
        return self._c.get(tuple(mono), zero)

    def monomials(self) -> list[Monomial]:
        return sorted(self._c, key=grevlex_key)

    def terms(self) -> list[Term]:
        """Terms in descending order."""
        return [Term(self._c[m], m) for m in sorted(self._c, key=grevlex_key, reverse=True)]

    def items(self):
        return self._c.items()

    def degree(self) -> int:
        if not self._c:
            return -1
        return max(sum(m) for m in self._c)

    def leading_term(self) -> Term:
        if not self._c:
            raise ValueError("zero polynomial has no leading term")
        m = max(self._c, key=grevlex_key)
        return Term(self._c[m], m)

    def leading_monomial(self) -> Monomial:
        return self.leading_term().monomial

    def num_terms(self) -> int:
        return len(self._c)

    # -- arithmetic -----------------------------------------------------------

    def _like(self, coeffs: dict) -> "Polynomial":
        return Polynomial(coeffs, self.nx, self.nvars, self.mode)

    def _check_compatible(self, other: "Polynomial"):
        if (self.nx, self.nvars, self.mode) != (other.nx, other.nvars, other.mode):
            raise ValueError("polynomials live in different rings or modes")

    def __add__(self, other):
        if not isinstance(other, Polynomial):
            return NotImplemented
        self._check_compatible(other)
        out = dict(self._c)
        for m, c in other._c.items():
            out[m] = out.get(m, 0) + c if m in out else c
        return self._like(out)

    def __sub__(self, other):
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self + (-other)

    def __neg__(self):
        return self._like({m: -c for m, c in self._c.items()})

    def __mul__(self, other):
        if isinstance(other, Polynomial):
            self._check_compatible(other)
            out: dict = {}
            for m1, c1 in self._c.items():
                for m2, c2 in other._c.items():
                    m = monomial_mul(m1, m2)
                    p = c1 * c2
                    out[m] = out[m] + p if m in out else p
            return self._like(out)
        # scalar
        return self._like({m: c * other for m, c in self._c.items()}) if other is not None else NotImplemented

    def __rmul__(self, other):
        return self.__mul__(other)

    def __truediv__(self, scalar):
        return self * _coerce_exact(scalar).inverse()

    def __pow__(self, n: int):
        if not isinstance(n, int) or n < 0:
            raise ValueError("polynomial powers need a nonnegative integer")
        out = Polynomial.constant(1, self.nx, self.nvars, self.mode)
        for _ in range(n):
            out = out * self
        return out

    def __eq__(self, other):
        if not isinstance(other, Polynomial):
            return NotImplemented
        return (self.nx, self.nvars, self.mode) == (other.nx, other.nvars, other.mode) and self._c == other._c

    def __hash__(self):
        return hash((self.nx, self.nvars, self.mode, frozenset(self._c.items())))

    # -- conversions ----------------------------------------------------------

    def to_float(self) -> "Polynomial":
        if self.mode == "float":
            return self
        return Polynomial({m: c.to_complex() for m, c in self._c.items()}, self.nx, self.nvars, "float")

    def restrict_zero(self, indices: Iterable[int]) -> "Polynomial":
        """Set the given variables to zero (drop terms that contain them)."""
        idx = set(indices)
        return self._like({m: c for m, c in self._c.items() if all(m[j] == 0 for j in idx)})

    def evaluate(self, points: np.ndarray, *, powers: dict | None = None) -> np.ndarray:
        """Evaluate at an array of points with shape (P, nvars).

        `powers`, passed by a caller that evaluates many polynomials at the
        same points, keeps each `Z[:, j] ** e` as it is first computed, so
        later terms read it instead of computing it again."""
        Z = np.asarray(points, dtype=complex)
        if Z.shape[1] != self.nvars:
            raise ValueError(f"points have {Z.shape[1]} coordinates, ring has {self.nvars}")
        vals = np.zeros(Z.shape[0], dtype=complex)
        for m, c in self._c.items():
            t = complex(c)
            for j, e in enumerate(m):
                if e:
                    if powers is None:
                        pw = Z[:, j] ** e
                    elif (j, e) in powers:
                        pw = powers[j, e]
                    else:
                        pw = powers[j, e] = Z[:, j] ** e
                    t = t * pw
            vals += t
        return vals

    # -- printing -------------------------------------------------------------

    def var_name(self, j: int) -> str:
        return f"x{j + 1}" if j < self.nx else f"y{j - self.nx + 1}"

    def _mono_str(self, mono: Monomial) -> str:
        parts = []
        for j, e in enumerate(mono):
            if e == 1:
                parts.append(self.var_name(j))
            elif e > 1:
                parts.append(f"{self.var_name(j)}^{e}")
        return "*".join(parts)

    def _coef_pieces(self, c) -> tuple[bool, str]:
        """(negative, magnitude-string) for leading-sign extraction."""
        if self.mode == "exact":
            if c.is_real() and c.real_sign() < 0:
                return True, scalar_str(-c)
            if c.a == 0 and c.b == 0 and not (c.c == 0 and c.d == 0):
                if Exact(c.c, c.d).real_sign() < 0:
                    return True, scalar_str(-c)
            return False, scalar_str(c)
        if c.imag == 0:
            r = c.real
            return (r < 0), f"{abs(r):.12g}"
        if c.real == 0:
            s = f"{abs(c.imag):.12g}*i"
            return (c.imag < 0), s
        return False, f"({c.real:.12g}{c.imag:+.12g}*i)"

    def __str__(self):
        if not self._c:
            return "0"
        out = []
        for coef, mono in self.terms():
            neg, mag = self._coef_pieces(coef)
            ms = self._mono_str(mono)
            if not ms:
                body = mag
            elif mag == "1":
                # either sign: a float 1 + O(eps) prints as "1" too
                body = ms
            else:
                body = f"{mag}*{ms}"
            if not out:
                out.append(f"-{body}" if neg else body)
            else:
                out.append(f"- {body}" if neg else f"+ {body}")
        return " ".join(out)

    def __repr__(self):
        return f"Polynomial({self}, nx={self.nx}, nvars={self.nvars}, mode={self.mode})"


# ---------------------------------------------------------------------------
# parsing

_TOKEN = re.compile(
    r"\s*(?:(?P<num>\d+(?:\.\d*)?(?:[eE][+-]?\d+)?)|(?P<name>[A-Za-z][A-Za-z0-9]*)|(?P<op>[-+*/^()]))"
)
_VAR = re.compile(r"^([xy])([1-9][0-9]*)$")


def _tokenize(text: str):
    pos, toks = 0, []
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m:
            if text[pos:].strip():
                raise PolyParseError(f"unexpected character {text[pos:].lstrip()[0]!r} in {text!r}")
            break
        pos = m.end()
        if m.group("num") is not None:
            toks.append(("num", m.group("num")))
        elif m.group("name") is not None:
            toks.append(("name", m.group("name")))
        else:
            toks.append(("op", m.group("op")))
    toks.append(("end", ""))
    return toks


class _Parser:
    def __init__(self, text: str, nx: int, nvars: int):
        self.toks = _tokenize(text)
        self.pos = 0
        self.nx, self.nvars = nx, nvars
        self.text = text

    def peek(self):
        return self.toks[self.pos]

    def take(self):
        t = self.toks[self.pos]
        self.pos += 1
        return t

    def expect_op(self, op):
        kind, val = self.take()
        if kind != "op" or val != op:
            raise PolyParseError(f"expected {op!r} in {self.text!r}")

    def const(self, value) -> Polynomial:
        return Polynomial.constant(value, self.nx, self.nvars)

    def parse(self) -> Polynomial:
        p = self.expr()
        if self.peek()[0] != "end":
            raise PolyParseError(f"trailing input near token {self.peek()[1]!r} in {self.text!r}")
        return p

    def expr(self) -> Polynomial:
        sign = 1
        if self.peek() == ("op", "+"):
            self.take()
        elif self.peek() == ("op", "-"):
            self.take()
            sign = -1
        p = self.term()
        if sign < 0:
            p = -p
        while self.peek() in (("op", "+"), ("op", "-")):
            _, op = self.take()
            q = self.term()
            p = p + q if op == "+" else p - q
        return p

    def term(self) -> Polynomial:
        p = self.factor()
        while self.peek() in (("op", "*"), ("op", "/")):
            _, op = self.take()
            q = self.factor()
            if op == "*":
                p = p * q
            else:
                if q.degree() > 0 or q.is_zero():
                    raise PolyParseError("division is only defined by nonzero constants")
                p = p / q.coefficient((0,) * self.nvars)
        return p

    def factor(self) -> Polynomial:
        neg = False
        if self.peek() == ("op", "-"):
            self.take()
            neg = True
        p = self.atom()
        if self.peek() == ("op", "^"):
            self.take()
            kind, val = self.take()
            if kind != "num" or not val.isdigit():
                raise PolyParseError(f"exponent must be a nonnegative integer in {self.text!r}")
            p = p ** int(val)
        return -p if neg else p

    def atom(self) -> Polynomial:
        kind, val = self.take()
        if kind == "num":
            if not val.isdigit():
                raise PolyParseError(f"decimal literal {val!r} is not exact; write it as a ratio of integers")
            return self.const(int(val))
        if kind == "name":
            if val == "sqrt2":
                return self.const(Exact(0, 1))
            if val == "i":
                return self.const(Exact(0, 0, 1))
            m = _VAR.match(val)
            if m:
                fam, idx = m.group(1), int(m.group(2))
                ny = self.nvars - self.nx
                if fam == "x" and idx <= self.nx:
                    return Polynomial.variable(idx - 1, self.nx, self.nvars)
                if fam == "y" and idx <= ny:
                    return Polynomial.variable(self.nx + idx - 1, self.nx, self.nvars)
                raise PolyParseError(
                    f"variable {val!r} outside ring (x1..x{self.nx}, y1..y{ny})"
                )
            raise PolyParseError(f"unknown name {val!r} (variables are x<j>/y<j>; literals sqrt2, i)")
        if kind == "op" and val == "(":
            p = self.expr()
            self.expect_op(")")
            return p
        raise PolyParseError(f"unexpected token {val!r} in {self.text!r}")


def parse_polynomial(text: str, nx: int, nvars: int) -> Polynomial:
    """Parse an exact polynomial. Grammar: + - * / ^ ( ), integer literals
    (a rational is a quotient such as 1/2; a decimal literal is refused),
    variables x1..xM / y1..y(N-M), the constants sqrt2 and i. Division is
    by nonzero constants only, and exponents are nonnegative integers."""
    try:
        return _Parser(text, nx, nvars).parse()
    except RecursionError:
        raise PolyParseError("parentheses nest too deeply to parse") from None


# ---------------------------------------------------------------------------
# division / normal form / star product


def top_homogeneous(p: Polynomial) -> Polynomial:
    if p.is_zero():
        raise ValueError("zero polynomial has no top homogeneous part")
    d = p.degree()
    return Polynomial({m: c for m, c in p.items() if sum(m) == d}, p.nx, p.nvars, p.mode)


def normal_form(p: Polynomial, gens: Sequence[Polynomial]) -> Polynomial:
    """Remainder of multivariate division of p by gens.

    When several generators' leading terms divide the current leading
    term, the generator with the largest leading term is used.  The
    remainder is unique when gens passes s_poly_check.
    """
    gens = [g for g in gens if not g.is_zero()]
    lts = [g.leading_term() for g in gens]
    rem: dict = {}
    h = p
    while not h.is_zero():
        c, m = h.leading_term()
        best = None
        for g, lt in zip(gens, lts):
            if monomial_divides(lt.monomial, m):
                if best is None or grevlex_key(lt.monomial) > grevlex_key(best[1].monomial):
                    best = (g, lt)
        if best is None:
            rem[m] = c
            h = h - Polynomial.monomial(m, p.nx, p.nvars, p.mode, coefficient=c)
        else:
            g, lt = best
            factor = Polynomial.monomial(
                monomial_div(m, lt.monomial), p.nx, p.nvars, p.mode,
                coefficient=c / lt.coefficient,
            )
            h = h - factor * g
    return Polynomial(rem, p.nx, p.nvars, p.mode)


def star(p: Polynomial, q: Polynomial, gens: Sequence[Polynomial]) -> Polynomial:
    """Product in the quotient ring: the normal form of p*q."""
    return normal_form(p * q, gens)


def s_polynomial(f: Polynomial, g: Polynomial) -> Polynomial:
    cf, mf = f.leading_term()
    cg, mg = g.leading_term()
    lcm = monomial_lcm(mf, mg)
    tf = Polynomial.monomial(monomial_div(lcm, mf), f.nx, f.nvars, f.mode, coefficient=1 / cf)
    tg = Polynomial.monomial(monomial_div(lcm, mg), g.nx, g.nvars, g.mode, coefficient=1 / cg)
    return tf * f - tg * g


def s_poly_check(gens: Sequence[Polynomial]) -> bool:
    """True iff every S-polynomial of a generator pair reduces to zero."""
    gens = [g for g in gens if not g.is_zero()]
    if not gens:
        raise ValueError("empty generator list")
    for i in range(len(gens)):
        for j in range(i + 1, len(gens)):
            mi = gens[i].leading_monomial()
            mj = gens[j].leading_monomial()
            if monomial_lcm(mi, mj) == monomial_mul(mi, mj):
                continue  # coprime leading monomials: S-poly reduces to zero
            if not normal_form(s_polynomial(gens[i], gens[j]), gens).is_zero():
                return False
    return True
