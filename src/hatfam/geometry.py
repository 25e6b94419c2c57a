"""Exact tile geometry: turtle-program outlines, rigid placements, and the
trihexagonal kite-cell lattice.

Points are Q(zeta) ints, zeta = e^(i*pi/6).  Every turn in the package
is one of 12 orientations, applied to them by `moved`, whose matrices are
read off the powers of zeta (`_ZETA`).  An orientation permutes the 12
directions zeta^k, all by one table (`SUPPORT_TURNS`): the renderer
reads a turned outline's and supertile's supports off it, and the kite
lattice reads it on the six sides, its even directions (`SIDE_TURNS`),
both to turn a hexagon and a patch's reach along them.

Outlines are traced by walking edges of the two tile edge classes (length a
or b) with headings at multiples of 30 degrees, the unit at heading h being
zeta^h, so the vertices are Q(zeta) ints over one denominator; `is_simple`
tests them, only where two edges' exact integer boxes meet, and
`shoelace_area` sums their int crosses.  `tile_from_config` alone
validates a tile, the outline it traces at the hat included, and raises
ConfigError for every fault.  At hat parameters (a=1, b=sqrt(3)) each hat
covers exactly 8 kites of the hexagon grid with edge 2.  This module places hats on that
grid (`hat_kite_cells`), keeps a flat per-hat disjointness check
(`disjoint_cells`, an oracle the supertile check does not call), and
packs a patch's cells into one int (`packing_width`), the form that
`substitution.check_kites` composes on a supertile's assembly DAG and
the contact rule (`cells_connected`) reads.
"""

from __future__ import annotations

from math import isqrt, lcm
from operator import add
from typing import NamedTuple

from .configfile import ConfigError, parse_config, value_int, value_ints
from .exactnum import (
    QSqrt3,
    VEC_ZERO,
    VecE,
    _reduced,
    _sign,
    reduced_coords,
    zeta_coords,
    zeta_vector,
)
from .supervectors import TileParams, hat_params

_new = object.__new__


class GeometryError(ValueError):
    """A geometric validation failed."""


class LatticeError(GeometryError):
    """A translation does not lie on the hexagon lattice."""


# ---------------------------------------------------------------------------
# placements
#
# A placement's linear part is one of 12 orientations o = rotation_k +
# 6*reflected, and its translation is a Q(zeta) point (see exactnum), so
# turning a point is an integer 4x4 map (`moved`), read off the powers of
# zeta: a turn by 60 degrees multiplies by zeta^2, and the mirror across
# the y axis takes zeta^j to -conj(zeta^j) = zeta^(6 - j).

# _ZETA[k]: zeta^k in the basis 1, zeta, zeta^2, zeta^3; each is zeta times
# the one before, zeta*(c0, c1, c2, c3) = (-c3, c0, c1 + c3, c2), since
# zeta^4 = zeta^2 - 1
_ZETA = ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1),
         (-1, 0, 1, 0), (0, -1, 0, 1), (-1, 0, 0, 0), (0, -1, 0, 0),
         (0, 0, -1, 0), (0, 0, 0, -1), (1, 0, -1, 0), (0, 1, 0, -1))
# _MATRICES[o]: orientation o's row-major 4x4 matrix, whose column j is
# the image of the basis point zeta^j
_MATRICES = tuple(
    tuple(_ZETA[(2 * (o % 6) + (6 - j if o >= 6 else j)) % 12][i]
          for i in range(4) for j in range(4))
    for o in range(12))
# _PRODUCT[o][p]: the orientation of applying p first, then o
_PRODUCT = tuple(
    tuple((o % 6 + (-(p % 6) if o >= 6 else p % 6)) % 6
          + 6 * ((o >= 6) != (p >= 6)) for p in range(12))
    for o in range(12))
# SUPPORT_TURNS[o][k]: the direction j whose zeta^j orientation o turns
# to zeta^k, so a set's greatest <v, zeta^j> is its turned copy's greatest
# <v, zeta^k>: o takes zeta^j to zeta^(j + 2*(o % 6)), after the y-axis
# mirror takes it to zeta^(6 - j) if o >= 6
SUPPORT_TURNS = tuple(tuple((6 + 2 * (o % 6) - k if o >= 6
                             else k - 2 * (o % 6)) % 12 for k in range(12))
                      for o in range(12))


def moved(o: int, c, t) -> tuple:
    """The Q(zeta) point c turned by orientation o, then moved by t, all
    four ints over one denominator."""
    (m00, m01, m02, m03, m10, m11, m12, m13,
     m20, m21, m22, m23, m30, m31, m32, m33) = _MATRICES[o]
    c0, c1, c2, c3 = c
    t0, t1, t2, t3 = t
    return (t0 + m00 * c0 + m01 * c1 + m02 * c2 + m03 * c3,
            t1 + m10 * c0 + m11 * c1 + m12 * c2 + m13 * c3,
            t2 + m20 * c0 + m21 * c1 + m22 * c2 + m23 * c3,
            t3 + m30 * c0 + m31 * c1 + m32 * c2 + m33 * c3)


def scaled(c, x: QSqrt3, k: int) -> tuple:
    """c*x over x.d*k for the Q(zeta) point c and the Q(sqrt3) scalar x:
    c*k*(x.a + x.b*sqrt3) on x's stored ints, sqrt3 = zeta + zeta^-1."""
    c0, c1, c2, c3 = c
    r, s = x.a * k, x.b * k
    return (r * c0 + s * (c1 - c3), r * c1 + s * (2 * c0 + c2),
            r * c2 + s * (c1 + 2 * c3), r * c3 + s * (c2 - c0))


def _placement(o: int, coords: tuple, den: int) -> "Placement":
    q = _new(Placement)
    q.orientation = o
    q.coords = coords
    q.den = den
    return q


class Placement:
    """Rigid motion applied as: reflect across the y axis (optional), then
    rotate counterclockwise by 60*rotation_k degrees, then translate.

    Stored as orientation = rotation_k + 6*reflected and the translation's
    exact Q(zeta) coordinates `coords` (four ints) over `den` > 0, in lowest
    terms, so equal motions have equal fields.  `translation` is the
    VecE of the same point.  Immutable by contract, like QSqrt3.
    """

    __slots__ = ("orientation", "coords", "den")

    def __init__(self, rotation_k: int = 0, reflected: bool = False,
                 translation: VecE = VEC_ZERO):
        self.orientation = rotation_k % 6 + 6 * bool(reflected)
        self.coords, self.den = zeta_coords(translation)

    @property
    def rotation_k(self) -> int:
        return self.orientation % 6

    @property
    def reflected(self) -> bool:
        return self.orientation >= 6

    @property
    def translation(self) -> VecE:
        return zeta_vector(self.coords, self.den)

    def compose(self, inner: "Placement") -> "Placement":
        """The motion equal to applying `inner` first, then `self`."""
        o, d, e = self.orientation, self.den, inner.den
        return _placement(_PRODUCT[o][inner.orientation], *reduced_coords(
            *moved(o, [c * d for c in inner.coords],
                   [t * e for t in self.coords]), d * e))

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not Placement:
            return NotImplemented
        return (self.orientation == other.orientation
                and self.coords == other.coords and self.den == other.den)

    def __hash__(self) -> int:
        return hash((self.orientation, self.coords, self.den))

    def __repr__(self) -> str:
        return (f"Placement(rotation_k={self.rotation_k}, "
                f"reflected={self.reflected}, "
                f"translation={self.translation!r})")


IDENTITY = Placement()


# ---------------------------------------------------------------------------
# turtle programs and outlines

EDGE_A = "A"
EDGE_B = "B"


class TurtleStep(NamedTuple):
    symbol: str        # EDGE_A or EDGE_B
    turn_after_k30: int  # signed turn after the edge, in 30-degree units


Outline = tuple  # (points, d): Q(zeta) int vertices over one d, cyclic


def outline_from_turtle(steps, p: TileParams, heading_k30: int) -> Outline:
    """Trace the walk of TurtleSteps from the origin with the first edge at
    `heading_k30`, as Q(zeta) ints over d = lcm of a's and b's
    denominators, the shape's one denominator.

    Edge symbols map to exact lengths a and b; `tile_from_config` has
    checked the steps.  The unit at heading h is zeta^h, so an edge of
    length x adds `scaled(zeta^h, x, d // x.d)`.  Raises GeometryError
    with the residual vector if the walk does not return to the origin.
    """
    d = lcm(p.a.d, p.b.d)
    points, c, h = [], (0, 0, 0, 0), heading_k30
    for sym, turn in steps:
        x = p.a if sym == EDGE_A else p.b
        points.append(c)
        c = tuple(map(add, c, scaled(_ZETA[h % 12], x, d // x.d)))
        h += turn
    if any(c):
        raise GeometryError(
            f"outline does not close; residual {zeta_vector(c, d)!r}")
    return tuple(points), d


def shoelace_area(o: Outline) -> QSqrt3:
    """Exact signed area; positive for counterclockwise orientation.  Each
    vertex's `xy_parts` are over 2d, so the cross sum is over 4d^2, and
    halved over 8d^2."""
    points, d = o
    pts = [xy_parts(c) for c in points]
    a = b = 0
    for (x, xr, y, yr), (u, ur, v, vr) in zip(pts, pts[1:] + pts[:1]):
        # (x + xr*sqrt3)(v + vr*sqrt3) - (y + yr*sqrt3)(u + ur*sqrt3)
        a += x * v + 3 * xr * vr - y * u - 3 * yr * ur
        b += x * vr + xr * v - y * ur - yr * u
    return _reduced(a, b, 8 * d * d)


def xy_parts(c) -> tuple[int, int, int, int]:
    """(x, x3, y, y3) of the Q(zeta) point c over d: its x is (x +
    x3*sqrt3)/2d and its y (y + y3*sqrt3)/2d (see `exactnum.zeta_vector`),
    so differences, products and signs of points over one d need no gcd."""
    c0, c1, c2, c3 = c
    return 2 * c0 + c2, c1, c1 + 2 * c3, c2


def _side(p, q, r) -> int:
    """Sign of (q - p) x (r - p) for `xy_parts` points: +1 when r lies
    left of the line from p to q, 0 on it."""
    ux, uxr, uy, uyr = q[0] - p[0], q[1] - p[1], q[2] - p[2], q[3] - p[3]
    vx, vxr, vy, vyr = r[0] - p[0], r[1] - p[1], r[2] - p[2], r[3] - p[3]
    # (ux + uxr*sqrt3)(vy + vyr*sqrt3) - (uy + uyr*sqrt3)(vx + vxr*sqrt3)
    return _sign(ux * vy + 3 * uxr * vyr - uy * vx - 3 * uyr * vxr,
                 ux * vyr + uxr * vy - uy * vxr - uyr * vx)


def _in_box(u, p, v) -> bool:
    """True if p lies in the closed axis-parallel box spanned by u and v,
    for `xy_parts` points."""
    return (_sign(p[0] - u[0], p[1] - u[1])
            * _sign(p[0] - v[0], p[1] - v[1]) <= 0
            and _sign(p[2] - u[2], p[3] - u[3])
            * _sign(p[2] - v[2], p[3] - v[3]) <= 0)


def _bounds(c: int, r: int) -> tuple[int, int]:
    """The integer floor and ceiling of c + r*sqrt3, exact: 3r^2 is never
    a perfect square for r != 0."""
    if not r:
        return c, c
    f = isqrt(3 * r * r)
    return (c + f, c + f + 1) if r > 0 else (c - f - 1, c - f)


def is_simple(o: Outline) -> bool:
    """Exact check that no two non-adjacent edges intersect and adjacent
    edges share only their common vertex.

    The traced vertices, over one denominator, are read as `xy_parts`, and
    each edge gets the integer box of its ends' `_bounds`; the side tests,
    each the sign of an integer combination, run only for edge pairs whose
    boxes meet.
    """
    pts = [xy_parts(c) for c in o[0]]
    n = len(pts)
    nxt = pts[1:] + pts[:1]
    ends = [(*_bounds(x, xr), *_bounds(y, yr)) for x, xr, y, yr in pts]
    boxes = [(min(u[0], v[0]), max(u[1], v[1]), min(u[2], v[2]),
              max(u[3], v[3])) for u, v in zip(ends, ends[1:] + ends[:1])]
    for i, (x0, x1, y0, y1) in enumerate(boxes):
        a, b = pts[i], nxt[i]
        if a == b:
            return False
        # collinear adjacent edges fold back when the far end of one lies
        # on the other; straight-through (turn 0) is fine
        c = nxt[(i + 1) % n]
        if not _side(a, b, c) and (_in_box(a, c, b) or _in_box(b, a, c)):
            return False
        for j in range(i + 2, n - (i == 0)):
            u0, u1, v0, v1 = boxes[j]
            if u0 > x1 or x0 > u1 or v0 > y1 or y0 > v1:
                continue
            c, d = pts[j], nxt[j]
            d1, d2 = _side(a, b, c), _side(a, b, d)
            d3, d4 = _side(c, d, a), _side(c, d, b)
            # a proper crossing, or an endpoint on the other edge
            if d1 * d2 < 0 and d3 * d4 < 0:
                return False
            if (not d1 and _in_box(a, c, b) or not d2 and _in_box(a, d, b)
                    or not d3 and _in_box(c, a, d)
                    or not d4 and _in_box(c, b, d)):
                return False
    return True


# ---------------------------------------------------------------------------
# kite-cell lattice (hat parameters: hexagon edge 2, kite = 1/6 hexagon)

LATTICE_BASIS = ((2, 0, 2, 0), (-2, 0, 4, 0))  # (3, sqrt3), (0, 2*sqrt3)


class KiteCell(NamedTuple):
    hex_q: int
    hex_r: int
    corner_k: int  # 0..5, the hexagon corner the kite points at


# a hexagon's corners and edge midpoints as int pairs (X, Y), the point
# (X/2, Y*sqrt3/2): corner k at 60k degrees, midpoint k on edge (k, k + 1)
_CORNERS = ((4, 0), (2, 2), (-2, 2), (-4, 0), (-2, -2), (2, -2))
_MIDS = ((3, 1), (0, 2), (-3, 1), (-3, -1), (0, -2), (3, -1))
# the corners of cell (0, 0, k), counterclockwise: centre, midpoint k - 1,
# corner k, midpoint k; cell (q, r, k) adds its hexagon centre (6q, 2(q +
# 2r)), which is q*(3, sqrt3) + r*(0, 2*sqrt3) on the lattice basis
KITE_OFFSETS = [((0, 0), _MIDS[k - 1], _CORNERS[k], _MIDS[k])
                for k in range(6)]


def _edges(pts) -> set:
    """The edges (X1, Y1, X2, Y2), lower end first, of the walk round pts."""
    return {(*u, *v) if u < v else (*v, *u)
            for u, v in zip(pts, pts[1:] + pts[:1])}


_KITE_EDGES = [_edges(pts) for pts in KITE_OFFSETS]


def packing_width(r_span: int) -> int:
    """The row width at which cells with r_lo <= hex_r <= r_lo + r_span,
    and their neighbours, pack to distinct bits: in a patch whose hex box
    has low corner (q_lo, r_lo), cell (q, r, k) is bit 6*((q - q_lo)*width
    + r - r_lo) + k, so a lattice step (m, n) adds 6*(m*width + n).  Each
    row ends in one slot past the box, r - r_lo = r_span + 1, that holds no
    cell: a neighbour one row past either edge (|n| <= 1) lands there, in
    its own row or, wrapping below r_lo, in the row before."""
    return r_span + 2


def cells_connected(parts, width: int) -> bool:
    """True if the parts, one or more edge-connected ints of kite cells
    packed about one box corner at `width` (2 or more, as `packing_width`
    gives), form one edge-connected patch: the patch grown from the first
    part meets further parts until none is left, or none is met, each
    round taking the edge-adjacent cells of the parts that joined last."""
    # bits 0, 6, 12, 18 of every 3 bytes, over every part: shifted up by k,
    # it masks the cells at corner k
    m0 = int.from_bytes(
        b"\x41\x10\x04" * (max(parts).bit_length() // 24 + 1), "little")
    m1, m2, m3, m4, m5 = (m0 << k for k in range(1, 6))
    w = 6 * width  # the bit step of one hexagon in q
    patch, *todo = parts
    near = 0
    while todo:
        a0, a1, a2, a3, a4, a5 = (patch & m0, patch & m1, patch & m2,
                                  patch & m3, patch & m4, patch & m5)
        # kite k meets kites k + 1 and k - 1 of its hexagon (5 and 0 wrap)
        # and, across its outer edges, kite k + 4 of the hexagon at 30 +
        # 60k degrees and kite k + 2 of the one at 60k - 30: six pairs of
        # kites one bit step apart, each met both ways
        near |= ((patch ^ a5) << 1 | a5 >> 5 | (patch ^ a0) >> 1 | a0 << 5
                 | a0 << w + 4 | a4 >> w + 4 | a0 << w - 4 | a2 >> w - 4
                 | a1 << 10 | a5 >> 10 | a1 << w + 2 | a3 >> w + 2
                 | a2 << 8 | a4 >> 8 | a5 << w - 8 | a3 >> w - 8)
        patch, rest = 0, []
        for bits in todo:
            if near & bits:
                patch |= bits
            else:
                rest.append(bits)
        if not patch:
            return False
        todo = rest
    return True


def lattice_shift(q: Placement) -> tuple[int, int]:
    """(m, n) of q's translation on LATTICE_BASIS, or raise LatticeError."""
    # (3m, (m + 2n)*sqrt3) = m*(3, sqrt3) + n*(0, 2*sqrt3) has c1 = c3 = 0,
    # c2 = 2(m + 2n) and c0 = 2(m - n), so 2 c0 + c2 = 6m and c2/2 - m = 2n
    c0, c1, c2, c3 = c = q.coords
    if q.den == 1 and not c1 and not c3 and not c2 % 2:
        m, r = divmod(2 * c0 + c2, 6)
        h = c2 // 2 - m
        if not r and not h % 2:
            return m, h // 2
    raise LatticeError(
        f"{zeta_vector(c, q.den)!r} is not on the hexagon lattice")


# a hex patch's reach: how far its hexagons get along the sides q, -q, r,
# -r, s = -q - r and -s, a third of its centres' supports in the
# directions zeta^0, zeta^6, zeta^4, zeta^10, zeta^8 and zeta^2; turned by
# o, it reaches as far along side i as it did along side SIDE_TURNS[o][i],
# SUPPORT_TURNS read on the sides, as the 12 turns permute even directions
SIDE_TURNS = tuple(
    tuple((0, 6, 4, 10, 8, 2).index(turn[k]) for k in (0, 6, 4, 10, 8, 2))
    for turn in SUPPORT_TURNS)


def hat_kite_cells(q: Placement, base_cells) -> frozenset:
    """The kite cells of a hat placed by q, from the canonical cell set;
    raises LatticeError when q's translation is off the hexagon lattice.

    Each hexagon (q, r) is turned by reading its sides (q, -q, r, -r,
    -q - r, q + r) through `SIDE_TURNS`: its new q is side SIDE_TURNS[o][0]
    and its new r side SIDE_TURNS[o][2].  Each corner k is reflected to
    3 - k for a reflected orientation, then turned o % 6 times.  The
    cells come back as plain (hex_q, hex_r, corner_k) tuples, which
    compare and hash as the equal KiteCells and cost half as much to make.
    """
    m, n = lattice_shift(q)
    o = q.orientation
    iq, _, ir, *_ = SIDE_TURNS[o]
    return frozenset([(s[iq] + m, s[ir] + n,
                       ((3 - k if o >= 6 else k) + o) % 6)
                      for hq, hr, k in base_cells
                      for s in [(hq, -hq, hr, -hr, -hq - hr, hq + hr)]])


def disjoint_cells(placements, base_cells):
    """Check, hat by hat, that placed hats cover pairwise distinct kites.

    Returns (True, cells) with the covered cells, or (False, (i, j, cell))
    with the indices of the first colliding pair in input order and the
    first shared KiteCell of hat j in sorted order.
    """
    seen = {}
    claim = seen.setdefault
    for j, q in enumerate(placements):
        cells = hat_kite_cells(q, base_cells)
        for cell in cells:
            if claim(cell, j) != j:
                cell = min(c for c in cells if seen.get(c, j) != j)
                return False, (seen[cell], j, KiteCell._make(cell))
    return True, seen.keys()


class TileData:
    """A tile as `tile_from_config` loads and checks it: the boundary walk
    as TurtleSteps plus the kite cells the tile covers at hat parameters.
    A command loads its tile once, so it traces each shape once."""

    def __init__(self, steps: tuple, heading_k30: int, cells: frozenset):
        self.steps = steps
        self.heading_k30 = heading_k30
        self.cells = cells
        self._outlines = {}

    def outline(self, p: TileParams) -> Outline:
        """The tile boundary at p as (points, d), traced once per TileData
        and shape.
        Raises GeometryError if the walk does not close at p or is not
        simple there, the only checks a shape can fail: each edge is a
        unit vector times a or b, and a simple walk whose turns sum to
        +360 runs counterclockwise."""
        if p not in self._outlines:
            o = outline_from_turtle(self.steps, p, self.heading_k30)
            if not is_simple(o):
                raise GeometryError("outline is not a simple polygon")
            self._outlines[p] = o
        return self._outlines[p]

    def area(self, p: TileParams) -> QSqrt3:
        """Signed area of `outline(p)`, positive."""
        return shoelace_area(self.outline(p))


def tile_from_config(text: str) -> TileData:
    """Parse and fully validate a tile config: [outline] edges/turns/heading
    and [cells] items.  Every fault raises ConfigError, those of the
    outline traced at the hat included: it must close, be simple and be
    the boundary of its 8 kites."""
    cfg = parse_config(text)
    edges = cfg.get("outline", "edges").split()
    turns = value_ints(cfg.get("outline", "turns"))
    if len(edges) != len(turns):
        raise ConfigError(
            f"outline has {len(edges)} edges but {len(turns)} turns")
    if len(edges) < 3:
        raise ConfigError("turtle program needs at least 3 edges")
    steps = []
    for i, (sym, deg) in enumerate(zip(edges, turns)):
        if deg % 30:
            raise ConfigError(f"turn {deg} is not a multiple of 30 degrees")
        if sym not in (EDGE_A, EDGE_B):
            raise ConfigError(f"edge {i}: unknown symbol {sym!r}")
        if abs(deg) >= 180:
            raise ConfigError(f"edge {i}: turn {deg} degrees reverses or "
                              "exceeds the walk")
        steps.append(TurtleStep(sym, deg // 30))
    if sum(turns) != 360:
        raise ConfigError(
            f"exterior turns sum to {sum(turns)} degrees, expected +360")
    heading = value_int(cfg.get("outline", "heading"))

    cells = []
    for item in cfg.get("cells", "items").split():
        try:
            q, r, k = map(int, item.split(","))
        except ValueError:
            raise ConfigError(f"bad cell {item!r}, expected q,r,k") from None
        if not 0 <= k < 6:
            raise ConfigError(f"bad cell {item!r}, corner must be 0..5")
        cells.append(KiteCell(q, r, k))
    if len(set(cells)) != len(cells):
        raise ConfigError("duplicate kite cells")
    if len(cells) != 8:
        raise ConfigError(f"expected 8 kite cells, got {len(cells)}")

    tile = TileData(tuple(steps), heading, frozenset(cells))
    try:
        points, _ = tile.outline(hat_params())  # over d = 1
    except GeometryError as e:
        raise ConfigError(str(e)) from None
    # each outline edge is one kite edge at the hat: the simple outline must
    # be the 8 kites' boundary, the edges no two of them share, and so the
    # kites are the inside of one simple polygon, one edge-connected patch
    boundary = set()
    for q, r, k in cells:
        cx, cy = 6 * q, 2 * (q + 2 * r)
        boundary ^= {(x1 + cx, y1 + cy, x2 + cx, y2 + cy)
                     for x1, y1, x2, y2 in _KITE_EDGES[k]}
    # the vertices that are kite corners (X/2, Y*sqrt3/2): x3 = y = 0 in
    # their `xy_parts` (x, x3, y, y3), and then X = x and Y = y3
    pts = [(x, y3) for x, x3, y, y3 in map(xy_parts, points)
           if not (x3 or y)]
    if len(pts) < len(points) or boundary != _edges(pts):
        raise ConfigError("tile outline is not the boundary of its 8 kite "
                          "cells at hat proportions")
    return tile
