"""Supervectors and rotation angles of hat-family supertiles.

A tile is Tile(a, b) with edge-class lengths a and b.  The shape
parameters are s = (sqrt(3)*b - a)/2 and t = (sqrt(3)*a + b)/2; the
generation-n supervector in closed form is

    V_n = (fib(2n) * s, lucas(2n) * t),

which also satisfies V_n = 3*V_(n-1) - V_(n-2).  `_from_fib_lucas` is
the one place that formula is written: `v_closed` feeds it fib(n) and
lucas(n) from a fast-doubling pass for one n, and `v_table` from one
plain Fibonacci and Lucas walk for every n up to a bound.  Neither builds
V_n from earlier supervectors, so the recurrence checks them.  Angles are
kept at the tangent level so everything stays in Q(sqrt(3)); floats
appear only in the *_float helpers.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .exactnum import ONE, SQRT3, QSqrt3, VecE, _pair, _quotient, _reduced
from .sequences import _fib_pair


class DomainError(ValueError):
    """Tile parameters outside the supported domain."""


class TileParams(NamedTuple):
    a: QSqrt3
    b: QSqrt3
    s: QSqrt3
    t: QSqrt3


def make_params(a: QSqrt3, b: QSqrt3) -> TileParams:
    """Validate a, b > 0 and derive s and t."""
    if not isinstance(a, QSqrt3):
        a = QSqrt3(a)
    if not isinstance(b, QSqrt3):
        b = QSqrt3(b)
    if a.sign() <= 0 or b.sign() <= 0:
        raise DomainError("edge lengths a and b must be positive")
    s = (SQRT3 * b - a) / 2
    t = (SQRT3 * a + b) / 2
    return TileParams(a=a, b=b, s=s, t=t)


def hat_params() -> TileParams:
    """Tile(1, sqrt(3)): s = 1, t = sqrt(3)."""
    return make_params(ONE, SQRT3)


def turtle_params() -> TileParams:
    """Tile(sqrt(3), 1): s = 0, the supervectors never tilt."""
    return make_params(SQRT3, ONE)


def has_hat_proportion(p: TileParams) -> bool:
    """True when b = sqrt(3)*a, i.e. t^2 = 3*s^2 (the hat's shape ratio)."""
    return p.t * p.t == 3 * p.s * p.s


def _from_fib_lucas(n: int, fib_n: int, lucas_n: int, p: TileParams) -> VecE:
    """V_n from fib(n) and lucas(n) by doubling: fib(2n) = fib(n)*lucas(n)
    and lucas(2n) = lucas(n)^2 - 2(-1)^n, each scaling the stored ints of
    s or t."""
    fib_2n = fib_n * lucas_n
    lucas_2n = lucas_n * lucas_n + (2 if n & 1 else -2)
    return VecE(_reduced(p.s.a * fib_2n, p.s.b * fib_2n, p.s.d),
                _reduced(p.t.a * lucas_2n, p.t.b * lucas_2n, p.t.d))


def v_closed(n: int, p: TileParams) -> VecE:
    """V_n = (fib(2n)*s, lucas(2n)*t) for one n, from one fast-doubling
    pass to n (not 2n) and `_from_fib_lucas`."""
    if n < 0:
        raise ValueError(f"generation must be >= 0, got {n}")
    f, g = _fib_pair(n)
    return _from_fib_lucas(n, f, 2 * g - f, p)


def v_table(n: int, p: TileParams) -> list[VecE]:
    """[V_0, ..., V_n], equal to v_closed(k, p) for each k: one walk steps
    fib(k) and lucas(k) by x_(k+1) = x_k + x_(k-1), and each V_k comes from
    `_from_fib_lucas`, not from V_(k-1) and V_(k-2)."""
    if n < 0:
        raise ValueError(f"generation must be >= 0, got {n}")
    table = []
    fib_k, fib_next, lucas_k, lucas_next = 0, 1, 2, 1
    for k in range(n + 1):
        table.append(_from_fib_lucas(k, fib_k, lucas_k, p))
        fib_k, fib_next = fib_next, fib_k + fib_next
        lucas_k, lucas_next = lucas_next, lucas_k + lucas_next
    return table


def v_recurrence(n: int, p: TileParams) -> VecE:
    """V_n via V_n = 3*V_(n-1) - V_(n-2) from V_0 = (0, 2t), V_1 = (s, 3t)."""
    if n < 0:
        raise ValueError(f"generation must be >= 0, got {n}")
    prev = VecE(p.s * 0, p.t * 2)
    if n == 0:
        return prev
    cur = VecE(p.s, p.t * 3)
    for _ in range(n - 1):
        prev, cur = cur, 3 * cur - prev
    return cur


def v3_buildup(p: TileParams) -> VecE:
    """V_3 assembled stepwise: V_2 + 4*V_1 + (s, -t)."""
    v1 = v_closed(1, p)
    v2 = v_closed(2, p)
    return v2 + 4 * v1 + VecE(p.s, -p.t)


class AngleTan(NamedTuple):
    """An angle carried exactly by its tangent."""

    value: QSqrt3

    def to_float(self) -> float:
        return math.atan(float(self.value))


def tan_theta(n: int, p: TileParams) -> AngleTan:
    """Tangent of the clockwise angle from V_0 (vertical) to V_n."""
    if n < 0:
        raise ValueError(f"generation must be >= 0, got {n}")
    v = v_closed(n, p)
    return AngleTan(v.x / v.y)


def cross_dot(v: VecE, w: VecE) -> tuple[tuple, tuple]:
    """(w x v, w . v), each the unreduced ints (a, b, d) of `_pair`."""
    return _pair(w.x, v.y, w.y, v.x, -1), _pair(w.x, v.x, w.y, v.y, 1)


def tan_between(v: VecE, w: VecE) -> AngleTan:
    """Exact tangent of the clockwise angle from v to w, (w x v)/(w . v):
    tan(alpha_n) for consecutive supervectors v = V_(n-1) and w = V_n.
    Cross and dot (`cross_dot`) are divided with one reduction."""
    cross, dot = cross_dot(v, w)
    return AngleTan(_quotient(*cross, *dot))


def tan_alpha(n: int, p: TileParams) -> AngleTan:
    """Exact tangent of the incremental rotation theta_n - theta_(n-1):
    tan_between(V_(n-1), V_n).

    For hat-proportioned tiles (b = sqrt(3)*a) the product
    tan_alpha(n, p) * g_closed(n) equals tan(beta) = s/t exactly; for
    other shapes that product matches only at n = 1 (or when s = 0).
    """
    if n < 1:
        raise ValueError(f"generation must be >= 1, got {n}")
    return tan_between(v_closed(n - 1, p), v_closed(n, p))


def total_rotation_float(p: TileParams) -> float:
    """Limit of theta_n: arctan(tan(beta)/sqrt(5))."""
    return math.atan(float(p.s / p.t) / math.sqrt(5))
