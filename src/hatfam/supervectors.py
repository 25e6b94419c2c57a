"""Supervectors and rotation angles of hat-family supertiles.

A tile is Tile(a, b) with edge-class lengths a and b.  The shape
parameters are s = (sqrt(3)*b - a)/2 and t = (sqrt(3)*a + b)/2; the
generation-n supervector in closed form is

    V_n = (fib(2n) * s, lucas(2n) * t),

which also satisfies V_n = 3*V_(n-1) - V_(n-2).  Angles are kept at the
tangent level so everything stays in Q(sqrt(3)); floats appear only in
the *_float helpers.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

from .exactnum import ONE, SQRT3, QSqrt3, VecE, qs3
from .sequences import fib, lucas


class DomainError(ValueError):
    """Tile parameters outside the supported domain."""


@dataclass(frozen=True)
class TileParams:
    a: QSqrt3
    b: QSqrt3
    s: QSqrt3
    t: QSqrt3


def make_params(a: QSqrt3, b: QSqrt3) -> TileParams:
    """Validate a, b > 0 and derive s and t."""
    if not isinstance(a, QSqrt3):
        a = qs3(a)
    if not isinstance(b, QSqrt3):
        b = qs3(b)
    if a.sign() <= 0 or b.sign() <= 0:
        raise DomainError("edge lengths a and b must be positive")
    s = (SQRT3 * b - a) / 2
    t = (SQRT3 * a + b) / 2
    if a == b:
        warnings.warn(
            "a == b puts the tilt angle on the excluded boundary value "
            "(tan beta = 2 - sqrt(3)); the construction still works",
            stacklevel=2,
        )
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


def v_closed(n: int, p: TileParams) -> VecE:
    """V_n = (fib(2n)*s, lucas(2n)*t)."""
    if n < 0:
        raise ValueError(f"generation must be >= 0, got {n}")
    return VecE(p.s * fib(2 * n), p.t * lucas(2 * n))


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


@dataclass(frozen=True)
class AngleTan:
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


def tan_diff(t1: AngleTan, t2: AngleTan) -> AngleTan:
    """Tangent subtraction: tan(A - B) = (tan A - tan B)/(1 + tan A tan B)."""
    num = t1.value - t2.value
    den = ONE + t1.value * t2.value
    return AngleTan(num / den)


def tan_alpha(n: int, p: TileParams) -> AngleTan:
    """Exact tangent of the incremental rotation theta_n - theta_(n-1).

    For hat-proportioned tiles (b = sqrt(3)*a) the product
    tan_alpha(n, p) * g_closed(n) equals tan(beta) = s/t exactly; for
    other shapes that product matches only at n = 1 (or when s = 0).
    """
    if n < 1:
        raise ValueError(f"generation must be >= 1, got {n}")
    return tan_diff(tan_theta(n, p), tan_theta(n - 1, p))


def theta_float(n: int, p: TileParams) -> float:
    """Float angle (radians) from V_0 to V_n, clockwise positive."""
    return tan_theta(n, p).to_float()


def total_rotation_float(p: TileParams) -> float:
    """Limit of theta_n: arctan(tan(beta)/sqrt(5))."""
    return math.atan(float(p.s / p.t) / math.sqrt(5))
