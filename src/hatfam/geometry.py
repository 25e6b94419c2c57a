"""Exact tile geometry: turtle-program outlines, rigid placements, and the
trihexagonal kite-cell lattice.

Outlines are traced by walking edges of the two tile edge classes (length a
or b) with headings at multiples of 30 degrees, so every vertex stays in
Q(sqrt(3)).  Supertile non-overlap is decided combinatorially on the kite
lattice, which applies at hat parameters (a=1, b=sqrt(3)): each hat covers
exactly 8 kites of the hexagon grid with edge 2.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from fractions import Fraction
from typing import NamedTuple

from .configfile import ConfigError, parse_config, value_int, value_ints
from .exactnum import (
    QSqrt3,
    VEC_ZERO,
    VecE,
    qs3,
    reduced_coords,
    reflect_y_axis,
    rotate60,
    zeta_coords,
    zeta_vector,
)
from .supervectors import TileParams, has_hat_proportion

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
# composing two placements is an integer 4x4 map plus four int adds.

def _orientation_matrix(o: int) -> tuple[int, ...]:
    """Row-major 4x4 integer matrix of orientation o on Q(zeta)
    coordinates, read off the images of the basis 1, zeta, zeta^2, zeta^3."""
    columns = []
    for j in range(4):
        v = zeta_vector(tuple(int(i == j) for i in range(4)), 1)
        if o >= 6:
            v = reflect_y_axis(v)
        columns.append(zeta_coords(rotate60(v, o % 6))[0])
    return tuple(columns[j][i] for i in range(4) for j in range(4))


_MATRICES = tuple(_orientation_matrix(o) for o in range(12))
# _PRODUCT[o][p]: the orientation of applying p first, then o
_PRODUCT = tuple(
    tuple((o % 6 + (-(p % 6) if o >= 6 else p % 6)) % 6
          + 6 * ((o >= 6) != (p >= 6)) for p in range(12))
    for o in range(12))


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

    def apply(self, v: VecE) -> VecE:
        if self.reflected:
            v = reflect_y_axis(v)
        return rotate60(v, self.rotation_k) + self.translation

    def compose(self, inner: "Placement") -> "Placement":
        """The motion equal to applying `inner` first, then `self`."""
        o = self.orientation
        (m00, m01, m02, m03, m10, m11, m12, m13,
         m20, m21, m22, m23, m30, m31, m32, m33) = _MATRICES[o]
        c0, c1, c2, c3 = inner.coords
        r0 = m00 * c0 + m01 * c1 + m02 * c2 + m03 * c3
        r1 = m10 * c0 + m11 * c1 + m12 * c2 + m13 * c3
        r2 = m20 * c0 + m21 * c1 + m22 * c2 + m23 * c3
        r3 = m30 * c0 + m31 * c1 + m32 * c2 + m33 * c3
        t0, t1, t2, t3 = self.coords
        d, e = self.den, inner.den
        o = _PRODUCT[o][inner.orientation]
        if d == e:
            if d == 1:
                return _placement(o, (t0 + r0, t1 + r1, t2 + r2, t3 + r3), 1)
            return _placement(o, *reduced_coords(
                t0 + r0, t1 + r1, t2 + r2, t3 + r3, d))
        return _placement(o, *reduced_coords(
            t0 * e + r0 * d, t1 * e + r1 * d, t2 * e + r2 * d,
            t3 * e + r3 * d, d * e))

    def scaled(self, s: QSqrt3) -> "Placement":
        """The same linear part with the translation multiplied by s."""
        c0, c1, c2, c3 = self.coords
        # multiplying by sqrt3 = 2 zeta - zeta^3 maps (c0, c1, c2, c3) to
        # (c1 - c3, 2 c0 + c2, c1 + 2 c3, c2 - c0)
        a, b = s.a, s.b
        return _placement(self.orientation, *reduced_coords(
            a * c0 + b * (c1 - c3), a * c1 + b * (2 * c0 + c2),
            a * c2 + b * (c1 + 2 * c3), a * c3 + b * (c2 - c0),
            s.d * self.den))

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

_H = Fraction(1, 2)
_COS30 = (QSqrt3.of(1), qs3(0, _H), QSqrt3.of(_H), QSqrt3.of(0),
          QSqrt3.of(-_H), qs3(0, -_H), QSqrt3.of(-1), qs3(0, -_H),
          QSqrt3.of(-_H), QSqrt3.of(0), QSqrt3.of(_H), qs3(0, _H))
_SIN30 = (QSqrt3.of(0), QSqrt3.of(_H), qs3(0, _H), QSqrt3.of(1),
          qs3(0, _H), QSqrt3.of(_H), QSqrt3.of(0), QSqrt3.of(-_H),
          qs3(0, -_H), QSqrt3.of(-1), qs3(0, -_H), QSqrt3.of(-_H))

EDGE_A = "A"
EDGE_B = "B"


def unit_k30(k: int) -> VecE:
    """Unit vector at heading 30*k degrees, exact."""
    return VecE(_COS30[k % 12], _SIN30[k % 12])


class TurtleStep(NamedTuple):
    symbol: str        # EDGE_A or EDGE_B
    turn_after_k30: int  # signed turn after the edge, in 30-degree units


@dataclass(frozen=True)
class TurtleSpec:
    """Closed boundary walk: edge class plus the turn taken after it."""

    steps: tuple[TurtleStep, ...]

    def validate(self) -> None:
        if len(self.steps) < 3:
            raise GeometryError("turtle program needs at least 3 edges")
        for i, step in enumerate(self.steps):
            if step.symbol not in (EDGE_A, EDGE_B):
                raise GeometryError(
                    f"edge {i}: unknown symbol {step.symbol!r}")
            if abs(step.turn_after_k30) >= 6:
                raise GeometryError(
                    f"edge {i}: turn {step.turn_after_k30 * 30} degrees "
                    "reverses or exceeds the walk")
        total = sum(s.turn_after_k30 for s in self.steps)
        if total != 12:
            raise GeometryError(
                "exterior turns sum to "
                f"{total * 30} degrees, expected +360")


Outline = tuple  # cyclic tuple of VecE vertices


def outline_from_turtle(spec: TurtleSpec, p: TileParams, start: VecE,
                        heading_k30: int) -> Outline:
    """Trace the walk from `start` with the first edge at `heading_k30`.

    Edge symbols map to exact lengths a and b.  Raises GeometryError with
    the residual vector if the walk does not return to the start.
    """
    spec.validate()
    verts = [start]
    pos = start
    h = heading_k30
    for sym, turn in spec.steps:
        length = p.a if sym == EDGE_A else p.b
        pos = pos + unit_k30(h) * length
        verts.append(pos)
        h += turn
    end = verts.pop()
    if end != start:
        raise GeometryError(
            f"outline does not close; residual {end - start!r}")
    return tuple(verts)


def shoelace_area(o: Outline) -> QSqrt3:
    """Exact signed area; positive for counterclockwise orientation."""
    total = QSqrt3.of(0)
    for i, v in enumerate(o):
        total = total + v.cross(o[(i + 1) % len(o)])
    return total / 2


def apply_placement(o: Outline, q: Placement) -> Outline:
    return tuple(q.apply(v) for v in o)


def _between(lo: QSqrt3, x: QSqrt3, hi: QSqrt3) -> bool:
    if hi < lo:
        lo, hi = hi, lo
    return lo <= x <= hi


def _segments_cross(a: VecE, b: VecE, c: VecE, d: VecE) -> bool:
    """Exact test: do closed segments ab and cd share any point?"""
    ab = b - a
    cd = d - c
    d1 = ab.cross(c - a).sign()
    d2 = ab.cross(d - a).sign()
    d3 = cd.cross(a - c).sign()
    d4 = cd.cross(b - c).sign()
    if d1 * d2 < 0 and d3 * d4 < 0:
        return True
    for p, (u, v) in ((c, (a, b)), (d, (a, b)), (a, (c, d)), (b, (c, d))):
        uv = v - u
        if uv.cross(p - u).sign() == 0 and \
                _between(u.x, p.x, v.x) and _between(u.y, p.y, v.y):
            return True
    return False


def is_simple(o: Outline) -> bool:
    """Exact check that no two non-adjacent edges intersect and adjacent
    edges share only their common vertex."""
    n = len(o)
    for i in range(n):
        a, b = o[i], o[(i + 1) % n]
        if a == b:
            return False
        # adjacent edges may only fold back onto each other when collinear
        # and reversed; straight-through (turn 0) is fine
        c = o[(i + 2) % n]
        e1, e2 = b - a, c - b
        if e1.cross(e2).sign() == 0 and e1.dot(e2).sign() < 0:
            return False
        for j in range(i + 2, n):
            if i == 0 and j == n - 1:
                continue
            if _segments_cross(a, b, o[j], o[(j + 1) % n]):
                return False
    return True


def validate_outline(o: Outline, p: TileParams) -> None:
    """Check edge lengths (each exactly a or b) and simplicity."""
    a2 = p.a * p.a
    b2 = p.b * p.b
    for i, v in enumerate(o):
        e = o[(i + 1) % len(o)] - v
        l2 = e.dot(e)
        if l2 != a2 and l2 != b2:
            raise GeometryError(f"edge {i} has squared length {l2!r}, "
                                "which is neither a^2 nor b^2")
    if not is_simple(o):
        raise GeometryError("outline is not a simple polygon")


# ---------------------------------------------------------------------------
# kite-cell lattice (hat parameters: hexagon edge 2, kite = 1/6 hexagon)

U1 = VecE.of(3, qs3(0, 1))      # hexagon lattice basis (3, sqrt3)
U2 = VecE.of(0, qs3(0, 2))      # (0, 2*sqrt3)

# axial step d corresponds to direction 30 + 60*d degrees
_HEX_DIRS = ((1, 0), (0, 1), (-1, 1), (-1, 0), (0, -1), (1, -1))


class KiteCell(NamedTuple):
    hex_q: int
    hex_r: int
    corner_k: int  # 0..5, the hexagon corner the kite points at


def hex_center(q: int, r: int) -> VecE:
    return q * U1 + r * U2


def _vertex_offset(k: int) -> VecE:
    return rotate60(VecE.of(2, 0), k)


def _mid_offset(k: int) -> VecE:
    # midpoint of the hexagon edge between corners k and k+1
    return rotate60(VecE.of(Fraction(3, 2), qs3(0, Fraction(1, 2))), k)


def kite_corners(cell: KiteCell) -> tuple[VecE, VecE, VecE, VecE]:
    """Corners (center, midpoint, vertex, midpoint), counterclockwise."""
    q, r, k = cell
    c = hex_center(q, r)
    return (c,
            c + _mid_offset(k - 1),
            c + _vertex_offset(k),
            c + _mid_offset(k))


def kite_centroid(cell: KiteCell) -> VecE:
    pts = kite_corners(cell)
    s = pts[0]
    for v in pts[1:]:
        s = s + v
    return s * Fraction(1, 4)


def cell_rotate60(cell: KiteCell) -> KiteCell:
    q, r, k = cell
    return KiteCell(-r, q + r, (k + 1) % 6)


def cell_reflect(cell: KiteCell) -> KiteCell:
    q, r, k = cell
    return KiteCell(-q, q + r, (3 - k) % 6)


def cell_neighbors(cell: KiteCell):
    """The four edge-adjacent kites."""
    q, r, k = cell
    yield KiteCell(q, r, (k + 1) % 6)
    yield KiteCell(q, r, (k - 1) % 6)
    dq, dr = _HEX_DIRS[k]
    yield KiteCell(q + dq, r + dr, (k + 4) % 6)
    dq, dr = _HEX_DIRS[(k - 1) % 6]
    yield KiteCell(q + dq, r + dr, (k + 2) % 6)


def cells_connected(cells) -> bool:
    """True if the cell set is edge-connected."""
    todo = set(cells)
    if not todo:
        return True
    stack = [todo.pop()]
    while stack:
        cur = stack.pop()
        for nb in cell_neighbors(cur):
            if nb in todo:
                todo.remove(nb)
                stack.append(nb)
    return not todo


def _hex_shift(c: tuple[int, int, int, int], d: int) -> tuple[int, int]:
    """(m, n) with c/d = m*U1 + n*U2 in Q(zeta) coordinates, or raise
    LatticeError."""
    # m*U1 + n*U2 = (3m, (m + 2n)*sqrt3) has c1 = c3 = 0, c2 = 2(m + 2n)
    # and c0 = 2(m - n), so 2 c0 + c2 = 6m and c2/2 - m = 2n
    c0, c1, c2, c3 = c
    if d == 1 and not c1 and not c3 and not c2 % 2:
        m, r = divmod(2 * c0 + c2, 6)
        h = c2 // 2 - m
        if not r and not h % 2:
            return m, h // 2
    raise LatticeError(
        f"{zeta_vector(c, d)!r} is not on the hexagon lattice")


def lattice_decompose(v: VecE) -> tuple[int, int]:
    """Solve v = m*U1 + n*U2 over the integers, or raise LatticeError."""
    return _hex_shift(*zeta_coords(v))


def _orientation(o: int):
    """(qq, qr, rq, rr, corner_step, corner_shift): the cell map of
    orientation o, (q, r, k) -> (qq*q + qr*r, rq*q + rr*r,
    corner_step*k + corner_shift mod 6), read off the images of four
    cells."""
    def image(q, r, k):
        cell = KiteCell(q, r, k)
        if o >= 6:
            cell = cell_reflect(cell)
        for _ in range(o % 6):
            cell = cell_rotate60(cell)
        return cell
    e_q, e_r, k0, k1 = image(1, 0, 0), image(0, 1, 0), image(0, 0, 0), \
        image(0, 0, 1)
    return (e_q.hex_q, e_r.hex_q, e_q.hex_r, e_r.hex_r,
            (k1.corner_k - k0.corner_k) % 6, k0.corner_k)


_ORIENTATIONS = tuple(_orientation(o) for o in range(12))


@lru_cache(maxsize=8)
def _oriented_cells(cells: frozenset) -> tuple[tuple, ...]:
    """The cell set under each of the 12 orientations, before translation."""
    return tuple(
        tuple((qq * hq + qr * hr, rq * hq + rr * hr, (step * k + shift) % 6)
              for hq, hr, k in cells)
        for qq, qr, rq, rr, step, shift in _ORIENTATIONS)


def hat_kite_cells(q: Placement, base_cells) -> frozenset:
    """The kite cells of a hat placed by q, from the canonical cell set;
    raises LatticeError when q's translation is off the hexagon lattice.

    The cells come back as plain (hex_q, hex_r, corner_k) tuples, which
    compare and hash as the equal KiteCells and cost half as much to make.
    """
    m, n = _hex_shift(q.coords, q.den)
    return frozenset([(hq + m, hr + n, k) for hq, hr, k in
                      _oriented_cells(frozenset(base_cells))[q.orientation]])


def disjoint_cells(placements, base_cells):
    """Check that placed hats cover pairwise distinct kites.

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


def check_kites(placed, p: TileParams, tile: TileData,
                connected: bool = False) -> tuple[bool, str]:
    """Check that placed hats lie on distinct kites (and, if `connected`,
    form one edge-connected patch); returns (passed, detail).

    Kite cells exist only at hat proportions, so any other shape passes as
    skipped.  Tile(a, sqrt(3)*a) is the hat scaled by a, and the assembly
    is linear in (a, b), so each hat is mapped by 1/a onto the a = 1
    lattice first.  A hat off the lattice is a failure, not an exception.
    """
    if not has_hat_proportion(p):
        return True, "skipped: needs hat proportions"
    if p.a != 1:
        inv_a = 1 / p.a
        placed = (q.scaled(inv_a) for q in placed)
    try:
        ok, cells = disjoint_cells(placed, tile.cells)
    except LatticeError as e:
        return False, f"piece off the kite lattice: {e}"
    if not ok:
        i, j, cell = cells
        return False, f"pieces {i} and {j} overlap on kite {cell}"
    if connected and not cells_connected(cells):
        return False, "patch is disconnected"
    return True, f"{len(cells)} kite cells, no overlap"


@dataclass(frozen=True)
class TileData:
    """Tile description loaded from a config file: the boundary walk plus
    the kite cells the tile covers at hat parameters."""

    spec: TurtleSpec
    heading_k30: int
    cells: frozenset

    def outline(self, p: TileParams) -> Outline:
        """Trace and validate the tile boundary at the given parameters."""
        o = outline_from_turtle(self.spec, p, VEC_ZERO, self.heading_k30)
        validate_outline(o, p)
        if shoelace_area(o).sign() <= 0:
            raise GeometryError("tile outline is not counterclockwise")
        return o


def tile_from_config(text: str) -> TileData:
    """Parse a tile config: [outline] edges/turns/heading and [cells] items."""
    cfg = parse_config(text)
    edges = cfg.get("outline", "edges").split()
    turns = value_ints(cfg.get("outline", "turns"))
    if len(edges) != len(turns):
        raise ConfigError(
            f"outline has {len(edges)} edges but {len(turns)} turns")
    steps = []
    for sym, deg in zip(edges, turns):
        if deg % 30:
            raise ConfigError(f"turn {deg} is not a multiple of 30 degrees")
        steps.append(TurtleStep(sym, deg // 30))
    spec = TurtleSpec(tuple(steps))
    spec.validate()
    heading = value_int(cfg.get("outline", "heading"))

    cells = []
    for item in cfg.get("cells", "items").split():
        parts = item.split(",")
        if len(parts) != 3:
            raise ConfigError(f"bad cell {item!r}, expected q,r,k")
        q, r, k = (int(x) for x in parts)
        if not 0 <= k < 6:
            raise ConfigError(f"bad cell {item!r}, corner must be 0..5")
        cells.append(KiteCell(q, r, k))
    if len(set(cells)) != len(cells):
        raise ConfigError("duplicate kite cells")
    if len(cells) != 8:
        raise ConfigError(f"expected 8 kite cells, got {len(cells)}")
    if not cells_connected(cells):
        raise ConfigError("kite cells do not form a connected patch")
    return TileData(spec, heading, frozenset(cells))
