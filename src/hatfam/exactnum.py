"""Exact arithmetic over Q(sqrt(3)) and exact 2-vectors.

Every coordinate in this package is an element of the quadratic field
Q(sqrt(3)).  A QSqrt3 holds three Python ints, (a + b*sqrt(3))/d with
d > 0 and gcd(a, b, d) = 1, so each value has exactly one stored form.
At hat scale d is 1 or 2: sums of equal denominators skip the
cross-multiplication, products skip the gcd when d = 1, and signs compare
a^2 with 3 b^2 on ints.  The rational parts r = a/d and s = b/d are
Fractions, made on request for the parse and render edges.  Nothing here
ever rounds; floats only appear on explicit conversion at the edges
(angle evaluation, SVG emission).
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
        g = gcd(a, b, d)
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
        if not isinstance(r, (int, Fraction)):
            r = Fraction(r)
        if not isinstance(s, (int, Fraction)):
            s = Fraction(s)
        # r and s are in lowest terms, so over d = lcm of their
        # denominators gcd(a, b, d) is already 1
        rd, sd = r.denominator, s.denominator
        d = rd * sd // gcd(rd, sd)
        self.a = r.numerator * (d // rd)
        self.b = s.numerator * (d // sd)
        self.d = d

    @staticmethod
    def of(r: _RationalLike = 0, s: _RationalLike = 0) -> "QSqrt3":
        return QSqrt3(r, s)

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

    def __rsub__(self, other: _ScalarLike) -> "QSqrt3":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other - self

    def __mul__(self, other: _ScalarLike) -> "QSqrt3":
        if other.__class__ is not QSqrt3:
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
        # the norm oa^2 - 3 ob^2 is zero only for oa = ob = 0 because sqrt(3)
        # is irrational
        a, b, oa, ob, od = self.a, self.b, other.a, other.b, other.d
        if ob == 0:
            if oa == 0:
                raise ZeroDivisionError("inverse of zero in Q(sqrt(3))")
            num_a, num_b, den = a * od, b * od, self.d * oa
        else:
            # multiply through by the conjugate oa - ob*sqrt3
            num_a = (a * oa - 3 * b * ob) * od
            num_b = (b * oa - a * ob) * od
            den = self.d * (oa * oa - 3 * ob * ob)
        if den < 0:
            return _reduced(-num_a, -num_b, -den)
        return _reduced(num_a, num_b, den)

    def __rtruediv__(self, other: _ScalarLike) -> "QSqrt3":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other / self

    def __neg__(self) -> "QSqrt3":
        return _reduced(-self.a, -self.b, self.d)

    def __bool__(self) -> bool:
        return self.a != 0 or self.b != 0

    def sign(self) -> int:
        """Exact sign: -1, 0 or +1, decided without floating point."""
        return _sign(self.a, self.b)

    def _cmp(self, other: _ScalarLike) -> int:
        """Sign of self - other; NotImplemented for foreign types."""
        if other.__class__ is not QSqrt3:
            other = _coerce(other)
            if other is NotImplemented:
                return NotImplemented
        d, od = self.d, other.d
        if d == od:
            return _sign(self.a - other.a, self.b - other.b)
        return _sign(self.a * od - other.a * d, self.b * od - other.b * d)

    def __lt__(self, other: _ScalarLike) -> bool:
        c = self._cmp(other)
        return c if c is NotImplemented else c < 0

    def __le__(self, other: _ScalarLike) -> bool:
        c = self._cmp(other)
        return c if c is NotImplemented else c <= 0

    def __gt__(self, other: _ScalarLike) -> bool:
        c = self._cmp(other)
        return c if c is NotImplemented else c > 0

    def __ge__(self, other: _ScalarLike) -> bool:
        c = self._cmp(other)
        return c if c is NotImplemented else c >= 0

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


ZERO = QSqrt3.of(0)
ONE = QSqrt3.of(1)
SQRT3 = QSqrt3.of(0, 1)


def qs3(r: _RationalLike = 0, s: _RationalLike = 0) -> QSqrt3:
    return QSqrt3(r, s)


_RAT_RE = re.compile(r"-?\d+(?:/\d+)?")


def _parse_rational(text: str, pos: int) -> tuple[Fraction, int]:
    m = _RAT_RE.match(text, pos)
    if m is None:
        raise ScalarParseError(text, pos, "expected a rational number")
    token = m.group()
    if "/" in token:
        num, den = token.split("/")
        if int(den) == 0:
            raise ScalarParseError(text, pos, "zero denominator")
        value = Fraction(int(num), int(den))
    else:
        value = Fraction(int(token))
    return value, m.end()


def _parse_term(text: str, pos: int) -> tuple[Fraction, bool, int]:
    """One term: RAT, RAT [*] r3, or bare [-]r3.  Returns (coef, is_root, end)."""
    if text.startswith("r3", pos):
        return Fraction(1), True, pos + 2
    if text.startswith("-r3", pos):
        return Fraction(-1), True, pos + 3
    value, pos = _parse_rational(text, pos)
    if pos < len(text) and text[pos] == "*":
        if not text.startswith("r3", pos + 1):
            raise ScalarParseError(text, pos + 1, "expected 'r3' after '*'")
        return value, True, pos + 3
    if text.startswith("r3", pos):
        return value, True, pos + 2
    return value, False, pos


def parse_scalar(text: str) -> QSqrt3:
    """Parse 'p/q', 'r/s*r3' or 'p/q+r/s*r3' ('r3' denotes sqrt(3))."""
    if not text:
        raise ScalarParseError(text, 0, "empty scalar")
    coef, is_root, pos = _parse_term(text, 0)
    rat_part = Fraction(0)
    root_part = Fraction(0)
    if is_root:
        root_part = coef
    else:
        rat_part = coef
    if pos < len(text):
        op = text[pos]
        if op not in "+-":
            raise ScalarParseError(text, pos, "expected '+', '-' or end of input")
        start = pos + 1
        coef, is_root2, pos = _parse_term(text, start)
        if op == "-":
            coef = -coef
        if not is_root2:
            if is_root:
                raise ScalarParseError(text, start, "rational term must come first")
            raise ScalarParseError(text, start, "duplicate rational term")
        if is_root:
            raise ScalarParseError(text, start, "duplicate sqrt(3) term")
        root_part = coef
    if pos != len(text):
        raise ScalarParseError(text, pos, "trailing input")
    return QSqrt3(rat_part, root_part)


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

    @staticmethod
    def of(x: _ScalarLike = 0, y: _ScalarLike = 0) -> "VecE":
        cx = x if isinstance(x, QSqrt3) else QSqrt3.of(x)
        cy = y if isinstance(y, QSqrt3) else QSqrt3.of(y)
        return _vec(cx, cy)

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

    def dot(self, other: "VecE") -> QSqrt3:
        return self.x * other.x + self.y * other.y

    def cross(self, other: "VecE") -> QSqrt3:
        return self.x * other.y - self.y * other.x

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

# signs (c, s) of cos = c/2 and sin = s*sqrt(3)/2 at 60*k degrees, k = 1, 2,
# 4, 5; k = 0 and k = 3 are the identity and the negation
_ROT60_SIGNS = {1: (1, 1), 2: (-1, 1), 4: (-1, -1), 5: (1, -1)}


def rotate60(v: VecE, k: int) -> VecE:
    """Rotate v counterclockwise by k steps of 60 degrees (k may be negative)."""
    k %= 6
    if k == 0:
        return v
    if k == 3:
        return -v
    x, y = v.x, v.y
    c, s = _ROT60_SIGNS[k]
    # x' = (c*x - s*sqrt3*y)/2 and y' = (s*sqrt3*x + c*y)/2, with
    # sqrt3*(a + b*sqrt3) = 3b + a*sqrt3, over one common denominator
    xa, xb, xd, ya, yb, yd = x.a, x.b, x.d, y.a, y.b, y.d
    if xd == yd:
        d = 2 * xd
    else:
        xa, xb, ya, yb = xa * yd, xb * yd, ya * xd, yb * xd
        d = 2 * xd * yd
    return _vec(_reduced(c * xa - 3 * s * yb, c * xb - s * ya, d),
                _reduced(3 * s * xb + c * ya, s * xa + c * yb, d))


def reflect_y_axis(v: VecE) -> VecE:
    """Mirror across the y axis: (x, y) -> (-x, y)."""
    return _vec(-v.x, v.y)


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
