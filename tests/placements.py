"""Exact pointwise oracles for tests, on VecE points: the 60-degree turn
and the mirror that orientations are made of, the action of a placement
(the motion that `Placement.compose` composes and the renderer's integer
turns apply), the corners of a kite cell, which `geometry.KITE_OFFSETS`
holds as ints, and the turtle walk that `geometry.outline_from_turtle`
traces on Q(zeta) ints; `zeta_points`, VecE points as the Q(zeta) ints
over one denominator that `geometry` takes; and U1 and U2, the hexagon
lattice basis that `geometry.LATTICE_BASIS` holds as Q(zeta) ints."""

from fractions import Fraction
from math import lcm

from hatfam.exactnum import QSqrt3, VEC_ZERO, VecE, zeta_coords
from hatfam.geometry import EDGE_A, GeometryError, KiteCell, Placement

U1 = VecE(QSqrt3(3), QSqrt3(0, 1))  # hexagon lattice basis (3, sqrt3)
U2 = VecE(QSqrt3(0), QSqrt3(0, 2))  # (0, 2*sqrt3)

# signs (c, s) of cos = c/2 and sin = s*sqrt(3)/2 at 60*k degrees, k = 1, 2,
# 4, 5; k = 0 and k = 3 are the identity and the negation
_ROT60_SIGNS = {1: (1, 1), 2: (-1, 1), 4: (-1, -1), 5: (1, -1)}


def rotate60(v: VecE, k: int) -> VecE:
    """Rotate v counterclockwise by k steps of 60 degrees (k may be
    negative): x' = (c*x - s*sqrt3*y)/2 and y' = (s*sqrt3*x + c*y)/2."""
    k %= 6
    if k == 0:
        return v
    if k == 3:
        return -v
    c, s = _ROT60_SIGNS[k]
    r3 = QSqrt3(0, s)
    return VecE((v.x * c - v.y * r3) / 2, (v.x * r3 + v.y * c) / 2)


def reflect_y_axis(v: VecE) -> VecE:
    """Mirror across the y axis: (x, y) -> (-x, y)."""
    return VecE(-v.x, v.y)


def unit_k30(k: int) -> VecE:
    """Unit vector at heading 30*k degrees: (1, 0) or (sqrt3/2, 1/2),
    turned by k // 2 steps of 60 degrees."""
    half = Fraction(1, 2)
    v = (VecE(QSqrt3(1), QSqrt3(0)) if k % 2 == 0
         else VecE(QSqrt3(0, half), QSqrt3(half)))
    return rotate60(v, k // 2)


def trace_outline(steps, p, heading_k30: int) -> tuple:
    """The VecE vertices of the turtle walk from the origin, first edge at
    `heading_k30`; raises GeometryError with the residual vector, in the
    words `outline_from_turtle` uses, if the walk does not close."""
    verts = [VEC_ZERO]
    h = heading_k30
    for sym, turn in steps:
        verts.append(verts[-1] + unit_k30(h) * (p.a if sym == EDGE_A
                                                  else p.b))
        h += turn
    end = verts.pop()
    if end != VEC_ZERO:
        raise GeometryError(f"outline does not close; residual {end!r}")
    return tuple(verts)


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


def zeta_points(vs) -> tuple[list[tuple[int, int, int, int]], int]:
    """The Q(zeta) coordinates of the vectors vs, unreduced over their one
    common denominator d > 0, and d."""
    points = [zeta_coords(v) for v in vs]
    den = lcm(*(d for _, d in points))
    return [tuple(x * (den // d) for x in c) for c, d in points], den
