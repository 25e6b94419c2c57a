"""Exact arithmetic over Q(sqrt(3)) and exact 2-vectors.

Every coordinate in this package is an element of the quadratic field
Q(sqrt(3)).  A QSqrt3 holds three Python ints, (a + b*sqrt(3))/d with
d > 0 and gcd(a, b, d) = 1, so each value has exactly one stored form.
At hat scale d is 1 or 2: sums of equal denominators skip the
cross-multiplication, products skip the gcd when d = 1, and signs compare
a^2 with 3 b^2 on ints.  `_pair` is the fused kernel p*q +- r*u on the
stored ints, unreduced: `supervectors.cross_dot` makes a cross and a
dot with it, which `tan_between` divides (`_quotient`), reduced once.  The
rational parts r = a/d and s = b/d are Fractions, made on request for the
render edge; `parse_scalar` reads its text straight to (a, b, d).
Nothing here ever rounds; floats only appear on explicit conversion at
the edges (angle evaluation, SVG emission).  QSqrt3(r, s) is the one
constructor and takes only ints and Fractions, so no float or string
enters the field.  There is no ordering: x < y is written
(x - y).sign() < 0.  A VecE is a point at the edges (config text, closed
forms, error texts); inside, points are Q(zeta) ints (`zeta_coords`).
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import gcd
from typing import Union

_RationalLike = Union[int, Fraction]
_ScalarLike = Union[int, Fraction, "QSqrt3"]

_new = object.__new__
_SQRT3_FLOAT = 3.0 ** 0.5


class ScalarParseError(ValueError):
    """Raised when a scalar string does not match the grammar."""

    def __init__(self, text: str, pos: int, message: str) -> None:
        self.text = text
        self.pos = pos
        super().__init__(f"{message} at position {pos} in {text!r}")


def _reduced(a: int, b: int, d: int) -> "QSqrt3":
    """(a + b*sqrt(3))/d for d > 0, with gcd(a, b, d) divided out."""
    if d != 1:
        # d first: it is small, and gcd stops at 1 before the big parts
        g = gcd(d, a, b)
        if g != 1:
            a //= g
            b //= g
            d //= g
    x = _new(QSqrt3)
    x.a = a
    x.b = b
    x.d = d
    return x


def _sign(a: int, b: int) -> int:
    """Sign of a + b*sqrt(3) for integers a, b."""
    if b == 0:
        return (a > 0) - (a < 0)
    sb = 1 if b > 0 else -1
    if a == 0 or (a > 0) == (b > 0):
        return sb
    # a and b*sqrt(3) pull in opposite directions: compare a^2 with 3 b^2.
    # They cannot be equal for nonzero integers (sqrt(3) is irrational).
    return -sb if a * a > 3 * b * b else sb


def _quotient(a: int, b: int, d: int, oa: int, ob: int, od: int) -> "QSqrt3":
    """((a + b*sqrt(3))/d) / ((oa + ob*sqrt(3))/od) for d, od > 0."""
    if ob == 0:
        if oa == 0:
            raise ZeroDivisionError("inverse of zero in Q(sqrt(3))")
        num_a, num_b, den = a * od, b * od, d * oa
    else:
        # multiply through by the conjugate oa - ob*sqrt3; the norm
        # oa^2 - 3 ob^2 is nonzero because sqrt(3) is irrational
        num_a = (a * oa - 3 * b * ob) * od
        num_b = (b * oa - a * ob) * od
        den = d * (oa * oa - 3 * ob * ob)
    if den < 0:
        return _reduced(-num_a, -num_b, -den)
    return _reduced(num_a, num_b, den)


def _pair(p: "QSqrt3", q: "QSqrt3", r: "QSqrt3", u: "QSqrt3",
          sign: int) -> tuple[int, int, int]:
    """p*q + sign*r*u, sign = +-1, as unreduced ints (a, b, d), d > 0."""
    d, f = p.d * q.d, r.d * u.d
    k, m, d = (1, sign, d) if d == f else (f, sign * d, d * f)
    return ((p.a * q.a + 3 * p.b * q.b) * k + (r.a * u.a + 3 * r.b * u.b) * m,
            (p.a * q.b + p.b * q.a) * k + (r.a * u.b + r.b * u.a) * m, d)


def _coerce(value: _ScalarLike) -> "QSqrt3":
    if isinstance(value, QSqrt3):
        return value
    if isinstance(value, (int, Fraction)):
        return _reduced(value.numerator, 0, value.denominator)
    return NotImplemented  # type: ignore[return-value]


class QSqrt3:
    """r + s*sqrt(3) with rational r, s, stored as (a + b*sqrt(3))/d.

    Values are immutable by contract: a, b and d are never reassigned
    after construction, so instances hash and serve as dict keys.
    """

    __slots__ = ("a", "b", "d")

    def __init__(self, r: _RationalLike = 0, s: _RationalLike = 0) -> None:
        if not (isinstance(r, (int, Fraction))
                and isinstance(s, (int, Fraction))):
            raise TypeError("QSqrt3 takes int or Fraction parts, got "
                            f"{type(r).__name__} and {type(s).__name__}")
        # r and s are in lowest terms, so over d = lcm of their
        # denominators gcd(a, b, d) is already 1
        rd, sd = r.denominator, s.denominator
        d = rd * sd // gcd(rd, sd)
        self.a = r.numerator * (d // rd)
        self.b = s.numerator * (d // sd)
        self.d = d

    @property
    def r(self) -> Fraction:
        return Fraction(self.a, self.d)

    @property
    def s(self) -> Fraction:
        return Fraction(self.b, self.d)

    def __add__(self, other: _ScalarLike) -> "QSqrt3":
        if other.__class__ is not QSqrt3:
            other = _coerce(other)
            if other is NotImplemented:
                return NotImplemented
        d, od = self.d, other.d
        if d == od:
            return _reduced(self.a + other.a, self.b + other.b, d)
        return _reduced(self.a * od + other.a * d, self.b * od + other.b * d,
                        d * od)

    __radd__ = __add__

    def __sub__(self, other: _ScalarLike) -> "QSqrt3":
        if other.__class__ is not QSqrt3:
            other = _coerce(other)
            if other is NotImplemented:
                return NotImplemented
        d, od = self.d, other.d
        if d == od:
            return _reduced(self.a - other.a, self.b - other.b, d)
        return _reduced(self.a * od - other.a * d, self.b * od - other.b * d,
                        d * od)

    def __mul__(self, other: _ScalarLike) -> "QSqrt3":
        if other.__class__ is not QSqrt3:
            if other.__class__ is int:
                return _reduced(self.a * other, self.b * other, self.d)
            other = _coerce(other)
            if other is NotImplemented:
                return NotImplemented
        a, b, oa, ob = self.a, self.b, other.a, other.b
        return _reduced(a * oa + 3 * b * ob, a * ob + b * oa,
                        self.d * other.d)

    __rmul__ = __mul__

    def __truediv__(self, other: _ScalarLike) -> "QSqrt3":
        if other.__class__ is not QSqrt3:
            other = _coerce(other)
            if other is NotImplemented:
                return NotImplemented
        return _quotient(self.a, self.b, self.d, other.a, other.b, other.d)

    def __neg__(self) -> "QSqrt3":
        return _reduced(-self.a, -self.b, self.d)

    def __bool__(self) -> bool:
        return self.a != 0 or self.b != 0

    def sign(self) -> int:
        """Exact sign: -1, 0 or +1, decided without floating point."""
        return _sign(self.a, self.b)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not QSqrt3:
            other = _coerce(other)  # type: ignore[arg-type]
            if other is NotImplemented:
                return NotImplemented
        return self.a == other.a and self.b == other.b and self.d == other.d

    def __hash__(self) -> int:
        if self.b:
            return hash((self.a, self.b, self.d))
        # a rational value hashes as the equal int or Fraction does
        return hash(self.a) if self.d == 1 else hash(Fraction(self.a, self.d))

    def __float__(self) -> float:
        # int / int is correctly rounded, as float(Fraction) is, so this
        # equals float(r) + float(s) * sqrt(3) bit for bit
        d = self.d
        return self.a / d + self.b / d * _SQRT3_FLOAT

    def __repr__(self) -> str:
        return f"QSqrt3({render_scalar(self)!r})"


ZERO = QSqrt3(0)
ONE = QSqrt3(1)
SQRT3 = QSqrt3(0, 1)


_RAT_RE = re.compile(r"-?\d+(?:/\d+)?")


def _parse_term(text: str, pos: int) -> tuple[int, int, bool, int]:
    """One term: RAT, RAT [*] r3, or bare [-]r3.  Returns (numerator,
    denominator, is_root, end), the denominator positive."""
    if text.startswith("r3", pos):
        return 1, 1, True, pos + 2
    if text.startswith("-r3", pos):
        return -1, 1, True, pos + 3
    m = _RAT_RE.match(text, pos)
    if m is None:
        raise ScalarParseError(text, pos, "expected a rational number")
    num, _, den = m.group().partition("/")
    den = int(den) if den else 1
    if not den:
        raise ScalarParseError(text, pos, "zero denominator")
    num, pos = int(num), m.end()
    if text.startswith("*", pos):
        if not text.startswith("r3", pos + 1):
            raise ScalarParseError(text, pos + 1, "expected 'r3' after '*'")
        return num, den, True, pos + 3
    if text.startswith("r3", pos):
        return num, den, True, pos + 2
    return num, den, False, pos


def parse_scalar(text: str) -> QSqrt3:
    """Parse 'p/q', 'r/s*r3' or 'p/q+r/s*r3' ('r3' denotes sqrt(3)): the
    terms are read as int fractions and put over one denominator, which
    `_reduced` brings to lowest terms once."""
    if not text:
        raise ScalarParseError(text, 0, "empty scalar")
    num, den, is_root, pos = _parse_term(text, 0)
    a, ad, b, bd = (0, 1, num, den) if is_root else (num, den, 0, 1)
    if pos < len(text):
        op = text[pos]
        if op not in "+-":
            raise ScalarParseError(text, pos, "expected '+', '-' or end of input")
        start = pos + 1
        b, bd, is_root2, pos = _parse_term(text, start)
        if not is_root2:
            if is_root:
                raise ScalarParseError(text, start, "rational term must come first")
            raise ScalarParseError(text, start, "duplicate rational term")
        if is_root:
            raise ScalarParseError(text, start, "duplicate sqrt(3) term")
        if op == "-":
            b = -b
    if pos != len(text):
        raise ScalarParseError(text, pos, "trailing input")
    return _reduced(a * bd, b * ad, ad * bd)


def _render_rational(value: Fraction) -> str:
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"


def render_scalar(value: QSqrt3) -> str:
    """Canonical text form; parse_scalar(render_scalar(v)) == v."""
    if not value:
        return "0"
    parts = []
    if value.r:
        parts.append(_render_rational(value.r))
    if value.s:
        root = f"{_render_rational(abs(value.s))}*r3"
        if parts:
            parts.append("+" if value.s > 0 else "-")
            parts.append(root)
        else:
            parts.append(root if value.s > 0 else f"-{root}")
    return "".join(parts)


class VecE:
    """Exact 2-vector over Q(sqrt(3)); immutable by contract like QSqrt3."""

    __slots__ = ("x", "y")

    def __init__(self, x: QSqrt3 = ZERO, y: QSqrt3 = ZERO) -> None:
        self.x = x
        self.y = y

    def __add__(self, other: "VecE") -> "VecE":
        return _vec(self.x + other.x, self.y + other.y)

    def __sub__(self, other: "VecE") -> "VecE":
        return _vec(self.x - other.x, self.y - other.y)

    def __neg__(self) -> "VecE":
        return _vec(-self.x, -self.y)

    def __mul__(self, k: _ScalarLike) -> "VecE":
        return _vec(self.x * k, self.y * k)

    __rmul__ = __mul__

    def __bool__(self) -> bool:
        return bool(self.x) or bool(self.y)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not VecE:
            return NotImplemented
        return self.x == other.x and self.y == other.y

    def __hash__(self) -> int:
        return hash((self.x, self.y))

    def to_floats(self) -> tuple[float, float]:
        return float(self.x), float(self.y)

    def __repr__(self) -> str:
        return f"VecE({render_scalar(self.x)}, {render_scalar(self.y)})"


def _vec(x: QSqrt3, y: QSqrt3) -> VecE:
    v = _new(VecE)
    v.x = x
    v.y = y
    return v


VEC_ZERO = VecE(ZERO, ZERO)

# ---------------------------------------------------------------------------
# Q(zeta) coordinates, zeta = e^(i*pi/6)
#
# The plane Q(sqrt3)^2 is the field Q(zeta) with basis 1, zeta, zeta^2,
# zeta^3: x + y*i = (c0 + c1*zeta + c2*zeta^2 + c3*zeta^3)/d gives
# x = c0 + c2/2 + c1/2*sqrt3 and y = c1/2 + c3 + c2/2*sqrt3 (over d), and
# conversely c1 = 2 x_b, c2 = 2 y_b, c0 = x_a - y_b, c3 = y_a - x_b for
# x = x_a + x_b*sqrt3, y = y_a + y_b*sqrt3.  Hat-scale points, whose
# coordinates are halves, have integer c and d = 1.

def zeta_coords(v: VecE) -> tuple[tuple[int, int, int, int], int]:
    """(c0, c1, c2, c3), d of v in the basis 1, zeta, zeta^2, zeta^3, with
    d > 0 and gcd(c0, c1, c2, c3, d) = 1."""
    x, y = v.x, v.y
    xa, xb, xd, ya, yb, yd = x.a, x.b, x.d, y.a, y.b, y.d
    if xd != yd:
        xa, xb, ya, yb = xa * yd, xb * yd, ya * xd, yb * xd
        xd *= yd
    return reduced_coords(xa - yb, 2 * xb, 2 * yb, ya - xb, xd)


def reduced_coords(c0: int, c1: int, c2: int, c3: int,
                   d: int) -> tuple[tuple[int, int, int, int], int]:
    """(c0, c1, c2, c3)/d for d > 0, with the common gcd divided out."""
    if d != 1:
        g = gcd(c0, c1, c2, c3, d)
        if g != 1:
            return (c0 // g, c1 // g, c2 // g, c3 // g), d // g
    return (c0, c1, c2, c3), d


def zeta_vector(c: tuple[int, int, int, int], d: int) -> VecE:
    """The VecE of the Q(zeta) point c/d (inverse of zeta_coords)."""
    c0, c1, c2, c3 = c
    return _vec(_reduced(2 * c0 + c2, c1, 2 * d),
                _reduced(c1 + 2 * c3, c2, 2 * d))
