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
from fractions import Fraction
from typing import NamedTuple

from .configfile import ConfigError, parse_config, value_int, value_ints
from .exactnum import (
    QSqrt3,
    VEC_ZERO,
    VecE,
    qs3,
    reflect_y_axis,
    rotate60,
)
from .supervectors import TileParams


class GeometryError(ValueError):
    """A geometric validation failed."""


class LatticeError(GeometryError):
    """A translation does not lie on the hexagon lattice."""


# ---------------------------------------------------------------------------
# placements

@dataclass(frozen=True)
class Placement:
    """Rigid motion applied as: reflect across the y axis (optional), then
    rotate counterclockwise by 60*rotation_k degrees, then translate."""

    rotation_k: int = 0
    reflected: bool = False
    translation: VecE = VEC_ZERO

    def __post_init__(self):
        object.__setattr__(self, "rotation_k", self.rotation_k % 6)

    def apply(self, v: VecE) -> VecE:
        if self.reflected:
            v = reflect_y_axis(v)
        return rotate60(v, self.rotation_k) + self.translation

    def compose(self, inner: "Placement") -> "Placement":
        """The motion equal to applying `inner` first, then `self`."""
        k = self.rotation_k - inner.rotation_k if self.reflected \
            else self.rotation_k + inner.rotation_k
        t = self.translation + rotate60(
            reflect_y_axis(inner.translation) if self.reflected
            else inner.translation,
            self.rotation_k)
        return Placement(k % 6, self.reflected != inner.reflected, t)


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


def cell_translate(cell: KiteCell, m: int, n: int) -> KiteCell:
    return KiteCell(cell.hex_q + m, cell.hex_r + n, cell.corner_k)


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


def lattice_decompose(v: VecE) -> tuple[int, int]:
    """Solve v = m*U1 + n*U2 over the integers, or raise LatticeError."""
    # v = (3m, (m + 2n)*sqrt3): x is an integer multiple of 3 and y an
    # integer multiple of sqrt3 whose coefficient has the parity of m
    x, y = v.x, v.y
    if x.b or x.d != 1 or x.a % 3 or y.a or y.d != 1 \
            or (y.b - x.a // 3) % 2:
        raise LatticeError(f"{v!r} is not on the hexagon lattice")
    m = x.a // 3
    return m, (y.b - m) // 2


def _orientation(rotation_k: int, reflected: bool):
    """(qq, qr, rq, rr, corner_step, corner_shift): the cell map of a
    placement's linear part, (q, r, k) -> (qq*q + qr*r, rq*q + rr*r,
    corner_step*k + corner_shift mod 6), read off the images of four
    cells."""
    def image(q, r, k):
        cell = KiteCell(q, r, k)
        if reflected:
            cell = cell_reflect(cell)
        for _ in range(rotation_k):
            cell = cell_rotate60(cell)
        return cell
    e_q, e_r, k0, k1 = image(1, 0, 0), image(0, 1, 0), image(0, 0, 0), \
        image(0, 0, 1)
    return (e_q.hex_q, e_r.hex_q, e_q.hex_r, e_r.hex_r,
            (k1.corner_k - k0.corner_k) % 6, k0.corner_k)


# indexed [rotation_k][reflected]
_ORIENTATIONS = tuple((_orientation(k, False), _orientation(k, True))
                      for k in range(6))
# builds a KiteCell from a (q, r, k) tuple without the NamedTuple
# constructor's Python-level call
_new_cell = tuple.__new__


def transform_cells(cells, q: Placement) -> frozenset:
    """Apply a placement with lattice translation to a cell set."""
    m, n = lattice_decompose(q.translation)
    qq, qr, rq, rr, step, shift = _ORIENTATIONS[q.rotation_k][q.reflected]
    return frozenset([
        _new_cell(KiteCell, (qq * hq + qr * hr + m, rq * hq + rr * hr + n,
                             (step * k + shift) % 6))
        for hq, hr, k in cells])


def hat_kite_cells(q: Placement, base_cells) -> frozenset:
    """The 8 kite cells of a placed hat, from the canonical cell set."""
    return transform_cells(base_cells, q)


def disjoint_cells(placements, base_cells):
    """Check that placed hats cover pairwise distinct kites.

    Returns (True, None) or (False, (i, j, cell)) with the indices of the
    first colliding pair in input order and the shared cell.
    """
    seen = {}
    for i, q in enumerate(placements):
        for cell in sorted(hat_kite_cells(q, base_cells)):
            if cell in seen:
                return False, (seen[cell], i, cell)
            seen[cell] = i
    return True, None


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
