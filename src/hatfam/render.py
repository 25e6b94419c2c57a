"""SVG output for assembled supertiles.

One path per hat, colored by rotation class with reflected hats darkened,
optional kite-grid layer, and supervector arrows for the top generations.
All geometry stays exact until the final float formatting, and identical
inputs produce byte-identical documents.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .configfile import load_text
from .exactnum import VecE, zeta_coords
from .geometry import (
    KiteCell,
    Placement,
    TileData,
    apply_placement,
    hat_kite_cells,
    kite_corners,
    tile_from_config,
)
from .sequences import tile_counts
from .substitution import SupertileNode, expand
from .supervectors import TileParams, has_hat_proportion

SCHEME_ROTATION = "rotation"
SCHEME_PLAIN = "plain"

# fill per rotation class, with a darker variant for reflected hats
_ROT_FILLS = ("#8ecae6", "#ffb703", "#90be6d", "#f4978e", "#cdb4db", "#f9c74f")
_ROT_FILLS_DARK = ("#33708f", "#9a6f00", "#4a6d35", "#a0493f", "#6f5291",
                   "#9a7712")
_PLAIN_FILL = "#d9d9d9"
_PLAIN_FILL_DARK = "#6f6f6f"
# arrow color cycles with the supertile generation
_ARROW_COLORS = ("#1d3557", "#9d0208", "#1b4332", "#6a040f", "#3c096c",
                 "#7f4f24")
# grid corners are int pairs (X, Y), the point (X/2, Y*sqrt3/2); cell (q, r,
# k) adds its hexagon centre (6q, 2(q + 2r)) to the corners of cell (0, 0, k)
_KITE_OFFSETS = [[(int(2 * v.x.r), int(2 * v.y.s))
                  for v in kite_corners(KiteCell(0, 0, k))] for k in range(6)]


class RenderError(ValueError):
    """The requested figure cannot be drawn."""


@dataclass(frozen=True)
class RenderOptions:
    """Figure styling.

    show_supervectors draws anchor arrows for that many top generations
    (0 = none, 1 = the root supertile only).  The grid layer draws the
    kite cells under each hat and exists only at hat proportions.
    max_svg_nodes caps the number of hats the figure may expand to.
    """

    show_grid: bool = False
    show_supervectors: int = 0
    scheme: str = SCHEME_ROTATION
    stroke_width: float = 0.06
    margin: float = 1.0
    max_svg_nodes: int = 20000

    def __post_init__(self):
        if self.scheme not in (SCHEME_ROTATION, SCHEME_PLAIN):
            raise RenderError(f"unknown color scheme {self.scheme!r}")
        # nan fails every comparison and inf passes them, so both are
        # excluded by name
        if not (self.stroke_width > 0 and math.isfinite(self.stroke_width)):
            raise RenderError("stroke_width must be positive and finite")
        if not (self.margin >= 0 and math.isfinite(self.margin)):
            raise RenderError("margin must be finite and not negative")
        if self.max_svg_nodes < 1:
            raise RenderError("max_svg_nodes must be positive")
        if self.show_supervectors < 0:
            raise RenderError("show_supervectors must not be negative")


def _fmt(x: float) -> str:
    s = f"{x:.9f}".rstrip("0").rstrip(".")
    return "0" if s == "-0" else s


def _check_built(node: SupertileNode) -> None:
    seen = set()
    stack = [node]
    while stack:
        cur = stack.pop()
        if id(cur) in seen:
            continue
        seen.add(id(cur))
        want = tile_counts(cur.kind, cur.generation)
        if cur.hats != want:
            raise ValueError(
                f"generation-{cur.generation} {cur.kind} node has "
                f"{cur.hats} hats, expected {want}; use build()")
        stack.extend(child for child, _ in cur.children)


def _arrow_nodes(node: SupertileNode, placement: Placement, floor: int):
    if node.generation < floor:
        return
    yield node, placement
    if node.generation > 1:
        for child, q in node.children:
            yield from _arrow_nodes(child, placement.compose(q), floor)


class _Doc:
    """Accumulates the bounding box of the drawn geometry: once per hat,
    from all its vertices, and once per distinct grid corner."""

    def __init__(self):
        self.min_x = math.inf
        self.min_y = math.inf
        self.max_x = -math.inf
        self.max_y = -math.inf

    def pt(self, v: VecE) -> tuple[float, float]:
        x, y = v.to_floats()
        return self.raw(x, -y)

    def raw(self, x: float, y: float) -> tuple[float, float]:
        self.cover((x,), (y,))
        return x, y

    def cover(self, xs, ys) -> None:
        self.min_x = min(self.min_x, *xs)
        self.min_y = min(self.min_y, *ys)
        self.max_x = max(self.max_x, *xs)
        self.max_y = max(self.max_y, *ys)


def _grid_lines(doc: _Doc, placed: list[Placement], p: TileParams,
                tile: TileData) -> list[str]:
    # float(QSqrt3) of the corner scaled by a = (aa + ab*sqrt3)/ad: int /
    # int rounds correctly, so unreduced quotients give the same floats
    aa, ab, den = p.a.a, p.a.b, 2 * p.a.d
    sqrt3 = 3.0 ** 0.5
    strs = {}
    seen = set()
    lines = []
    for q in placed:
        for hq, hr, k in sorted(hat_kite_cells(q, tile.cells)):
            cx, cy = 6 * hq, 2 * (hq + 2 * hr)
            pts = [(cx + dx, cy + dy) for dx, dy in _KITE_OFFSETS[k]]
            for X, Y in pts:
                if (X, Y) not in strs:
                    x, y = doc.raw(X * aa / den + X * ab / den * sqrt3,
                                   -(3 * Y * ab / den + Y * aa / den * sqrt3))
                    strs[X, Y] = _fmt(x), _fmt(y)
            for u, v in zip(pts, pts[1:] + pts[:1]):
                key = (u, v) if u < v else (v, u)
                if key in seen:
                    continue
                seen.add(key)
                (x1, y1), (x2, y2) = strs[u], strs[v]
                lines.append(
                    f'<line x1="{x1}" y1="{y1}" x2="{x2}" y2="{y2}"/>')
    return lines


def _oriented_outlines(outline) -> list[tuple[list[tuple], int]]:
    """The outline under each of the 12 placement orientations, as Q(zeta)
    vertex coordinates over one common denominator per orientation."""
    out = []
    for o in range(12):
        verts = [zeta_coords(v) for v in
                 apply_placement(outline, Placement(o % 6, o >= 6))]
        den = math.lcm(*(d for _, d in verts))
        out.append(([tuple(c * (den // d) for c in cs) for cs, d in verts],
                    den))
    return out


def _hat_paths(doc: _Doc, placed: list[tuple[Placement, bool]],
               outline, scheme: str) -> list[str]:
    shapes = _oriented_outlines(outline)
    sqrt3 = 3.0 ** 0.5
    paths = []
    for q, reflected in placed:
        verts, vd = shapes[q.orientation]
        td = q.den
        t0, t1, t2, t3 = (c * vd for c in q.coords)
        den = 2 * vd * td
        xs, ys = [], []
        for v0, v1, v2, v3 in verts:
            c0, c1 = v0 * td + t0, v1 * td + t1
            c2, c3 = v2 * td + t2, v3 * td + t3
            # float(QSqrt3) of x = (2 c0 + c2 + c1*sqrt3)/den and
            # y = (c1 + 2 c3 + c2*sqrt3)/den: int / int rounds correctly,
            # so reduced or not, the floats are bit for bit the same
            x = (2 * c0 + c2) / den + c1 / den * sqrt3
            xs.append(x)
            ys.append(-((c1 + 2 * c3) / den + c2 / den * sqrt3))
        doc.cover(xs, ys)
        d = ("M " + " L ".join(f"{_fmt(x)} {_fmt(y)}" for x, y in zip(xs, ys))
             + " Z")
        if scheme == SCHEME_ROTATION:
            fills = _ROT_FILLS_DARK if reflected else _ROT_FILLS
            fill = fills[q.rotation_k]
        else:
            fill = _PLAIN_FILL_DARK if reflected else _PLAIN_FILL
        cls = "hat reflected" if reflected else "hat"
        paths.append(f'<path class="{cls}" fill="{fill}" d="{d}"/>')
    return paths


def _arrows(doc: _Doc, node: SupertileNode, opts: RenderOptions) -> list[str]:
    floor = node.generation - opts.show_supervectors + 1
    parts = []
    for sub, q in _arrow_nodes(node, Placement(), floor):
        ax, ay = doc.pt(q.apply(sub.v_tail))
        bx, by = doc.pt(q.apply(sub.v_head))
        length = math.hypot(bx - ax, by - ay)
        if length == 0:
            continue
        ux, uy = (bx - ax) / length, (by - ay) / length
        head = min(length / 3, max(0.8, length * 0.035))
        half = head * 0.4
        base_x, base_y = bx - ux * head, by - uy * head
        c1 = doc.raw(base_x - uy * half, base_y + ux * half)
        c2 = doc.raw(base_x + uy * half, base_y - ux * half)
        color = _ARROW_COLORS[(sub.generation - 1) % len(_ARROW_COLORS)]
        width = _fmt(opts.stroke_width * 2)
        parts.append(
            f'<line x1="{_fmt(ax)}" y1="{_fmt(ay)}" x2="{_fmt(base_x)}" '
            f'y2="{_fmt(base_y)}" stroke="{color}" stroke-width="{width}"/>')
        parts.append(
            f'<polygon fill="{color}" points="{_fmt(bx)},{_fmt(by)} '
            f'{_fmt(c1[0])},{_fmt(c1[1])} {_fmt(c2[0])},{_fmt(c2[1])}"/>')
    return parts


def render_supertile(node: SupertileNode, p: TileParams,
                     opts: RenderOptions = RenderOptions(),
                     tile: TileData | None = None) -> str:
    """Draw an assembled supertile as an SVG 1.1 document.

    The tile outline (and grid cells) come from the shipped tile config
    unless one is passed in.  Raises RenderError when the expansion would
    exceed max_svg_nodes or the grid is requested off hat proportions.
    """
    _check_built(node)
    if node.hats > opts.max_svg_nodes:
        raise RenderError(
            f"{node.kind} generation {node.generation} expands to "
            f"{node.hats} hats, over the max_svg_nodes cap of "
            f"{opts.max_svg_nodes}")
    if opts.show_grid and not has_hat_proportion(p):
        raise RenderError(
            "the kite grid exists only at hat proportions (b = sqrt(3)*a)")
    if tile is None:
        tile = tile_from_config(load_text("tile.cfg"))
    outline = tile.outline(p)

    placed = list(expand(node))
    doc = _Doc()
    grid = (_grid_lines(doc, [q for q, _ in placed], p, tile)
            if opts.show_grid else [])
    paths = _hat_paths(doc, placed, outline, opts.scheme)
    arrows = _arrows(doc, node, opts) if opts.show_supervectors else []

    m = opts.margin
    vb = (doc.min_x - m, doc.min_y - m,
          doc.max_x - doc.min_x + 2 * m, doc.max_y - doc.min_y + 2 * m)
    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'viewBox="{" ".join(_fmt(v) for v in vb)}">'
    ]
    if grid:
        out.append(f'<g class="grid" stroke="#9a9a9a" '
                   f'stroke-width="{_fmt(opts.stroke_width / 2)}" '
                   f'stroke-linecap="round">')
        out.extend(grid)
        out.append('</g>')
    out.append(f'<g class="hats" stroke="#2b2b2b" '
               f'stroke-width="{_fmt(opts.stroke_width)}" '
               f'stroke-linejoin="round">')
    out.extend(paths)
    out.append('</g>')
    if arrows:
        out.append('<g class="supervectors">')
        out.extend(arrows)
        out.append('</g>')
    out.append('</svg>')
    return "\n".join(out) + "\n"


def element_count(svg: str) -> int:
    """The number of elements in a document made by `render_supertile`.

    The renderer writes every element on a line of its own, empty or as a
    start tag, and every end tag (`</g>`, `</svg>`) on another line, so the
    count is the number of lines that are not end tags.
    """
    return svg.count("\n") - svg.count("\n</")
