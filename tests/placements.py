"""Exact pointwise oracles for tests: the action of a placement, the
motion that `Placement.compose` composes and the renderer's integer turns
apply, and the corners of a kite cell, which `geometry.KITE_OFFSETS`
holds as ints."""

from fractions import Fraction

from hatfam.exactnum import QSqrt3, VecE, reflect_y_axis, rotate60
from hatfam.geometry import U1, U2, KiteCell, Placement


def apply(q: Placement, v: VecE) -> VecE:
    """v reflected across the y axis if q is reflected, then turned by
    q.rotation_k steps of 60 degrees, then moved by q's translation."""
    if q.reflected:
        v = reflect_y_axis(v)
    return rotate60(v, q.rotation_k) + q.translation


def kite_corners(cell: KiteCell) -> tuple[VecE, VecE, VecE, VecE]:
    """The corners of a kite cell on the hexagon grid with edge 2,
    counterclockwise: its hexagon's centre, the midpoint of edge k - 1,
    corner k and the midpoint of edge k, each turned from corner 0 at (2,
    0) or midpoint 0 at (3/2, sqrt3/2) by k steps of 60 degrees."""
    q, r, k = cell
    c = q * U1 + r * U2
    half = Fraction(1, 2)
    mid = VecE(QSqrt3(3 * half), QSqrt3(0, half))
    return (c, c + rotate60(mid, k - 1),
            c + rotate60(VecE(QSqrt3(2), QSqrt3(0)), k), c + rotate60(mid, k))
