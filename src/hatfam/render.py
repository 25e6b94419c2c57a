"""SVG output for assembled supertiles.

One path per hat, colored by rotation class with reflected hats darkened,
optional kite-grid layer, and supervector arrows for the top generations.
All geometry stays exact until the final float formatting, and identical
inputs produce byte-identical documents.  Every distinct coordinate is
formatted once per figure and axis, and the viewBox spans those
coordinates; the grid is one template of kite edges per orientation,
moved by each hat's lattice step.
"""

from __future__ import annotations

import math
from functools import lru_cache

from .configfile import load_text
from .exactnum import VecE
from .geometry import (
    KiteCell,
    Placement,
    TileData,
    hat_kite_cells,
    int_points,
    kite_corners,
    lattice_shift,
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


class RenderOptions:
    """Figure styling.

    show_supervectors draws anchor arrows for that many top generations
    (0 = none, 1 = the root supertile only).  The grid layer draws the
    kite cells under each hat and exists only at hat proportions.
    max_svg_nodes caps the number of hats the figure may expand to.
    """

    def __init__(self, show_grid: bool = False, show_supervectors: int = 0,
                 scheme: str = SCHEME_ROTATION, stroke_width: float = 0.06,
                 margin: float = 1.0, max_svg_nodes: int = 20000):
        if scheme not in (SCHEME_ROTATION, SCHEME_PLAIN):
            raise RenderError(f"unknown color scheme {scheme!r}")
        # nan fails every comparison and inf passes them, so both are
        # excluded by name
        if not (stroke_width > 0 and math.isfinite(stroke_width)):
            raise RenderError("stroke_width must be positive and finite")
        if not (margin >= 0 and math.isfinite(margin)):
            raise RenderError("margin must be finite and not negative")
        if max_svg_nodes < 1:
            raise RenderError("max_svg_nodes must be positive")
        if show_supervectors < 0:
            raise RenderError("show_supervectors must not be negative")
        self.show_grid = show_grid
        self.show_supervectors = show_supervectors
        self.scheme = scheme
        self.stroke_width = stroke_width
        self.margin = margin
        self.max_svg_nodes = max_svg_nodes


def _fmt(x: float) -> str:
    s = f"{x:.9f}".rstrip("0").rstrip(".")
    return "0" if s == "-0" else s


class _Memo(dict):
    """f of each distinct key, computed when first looked up."""

    def __init__(self, f):
        self.f = f

    def __missing__(self, key):
        value = self[key] = self.f(key)
        return value


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


def _svg_point(v: VecE) -> tuple[float, float]:
    x, y = v.to_floats()
    return x, -y


def _grid_lines(placed: list[Placement], p: TileParams, tile: TileData,
                fx: _Memo, fy: _Memo) -> list[str]:
    # float(QSqrt3) of the corner scaled by a = (aa + ab*sqrt3)/ad: int /
    # int rounds correctly, so unreduced quotients give the same floats
    aa, ab, den = p.a.a, p.a.b, 2 * p.a.d
    sqrt3 = 3.0 ** 0.5
    x_text = _Memo(lambda X: fx[X * aa / den + X * ab / den * sqrt3])
    y_text = _Memo(lambda Y: fy[-(3 * Y * ab / den + Y * aa / den * sqrt3)])
    # per orientation, the edges (X1, Y1, X2, Y2, end before start) of the
    # hat's sorted cells; a lattice step moves every corner alike, which
    # keeps the cell order and each edge's end order, so lines and the
    # first-seen dedup are those of the placed hat's sorted cells
    shapes = []
    for o in range(12):
        edges = []
        for hq, hr, k in sorted(hat_kite_cells(Placement(o % 6, o >= 6),
                                               tile.cells)):
            cx, cy = 6 * hq, 2 * (hq + 2 * hr)
            pts = [(cx + dx, cy + dy) for dx, dy in _KITE_OFFSETS[k]]
            edges += [(*u, *v, v < u) for u, v in zip(pts, pts[1:] + pts[:1])]
        shapes.append(edges)
    seen = set()
    lines = []
    for q in placed:
        m, n = lattice_shift(q)
        sx, sy = 6 * m, 2 * (m + 2 * n)
        for x1, y1, x2, y2, flip in shapes[q.orientation]:
            x1, y1, x2, y2 = x1 + sx, y1 + sy, x2 + sx, y2 + sy
            key = (x2, y2, x1, y1) if flip else (x1, y1, x2, y2)
            if key not in seen:
                seen.add(key)
                lines.append(f'<line x1="{x_text[x1]}" y1="{y_text[y1]}" '
                             f'x2="{x_text[x2]}" y2="{y_text[y2]}"/>')
    return lines


@lru_cache(maxsize=8)
def _oriented_outlines(outline) -> tuple[tuple[list, int], ...]:
    """The outline under each of the 12 placement orientations, as the
    `int_points` of its vertices and their denominator."""
    return tuple(int_points([Placement(o % 6, o >= 6).apply(v)
                             for v in outline]) for o in range(12))


def _hat_paths(placed: list[tuple[Placement, bool]], outline, scheme: str,
               fx: _Memo, fy: _Memo) -> list[str]:
    shapes = _oriented_outlines(outline)
    sqrt3 = 3.0 ** 0.5
    paths = []
    for q, reflected in placed:
        verts, vd = shapes[q.orientation]
        # the vertices are over vd, and the translation, the Q(zeta) point
        # t/d, has x = (2 t0 + t2 + t1*sqrt3)/2d and y = (t1 + 2 t3 +
        # t2*sqrt3)/2d: over den = 2d*vd each part of a placed vertex is
        # one int / int, which rounds correctly, so reduced or not the
        # floats are float(QSqrt3)'s bit for bit
        td = 2 * q.den
        t0, t1, t2, t3 = q.coords
        tx, tx3 = (2 * t0 + t2) * vd, t1 * vd
        ty, ty3 = (t1 + 2 * t3) * vd, t2 * vd
        den = vd * td
        xs = [(x0 * td + tx) / den + (x3 * td + tx3) / den * sqrt3
              for x0, x3, _, _ in verts]
        ys = [-((y0 * td + ty) / den + (y3 * td + ty3) / den * sqrt3)
              for _, _, y0, y3 in verts]
        d = "M " + " L ".join(f"{fx[x]} {fy[y]}" for x, y in zip(xs, ys)) \
            + " Z"
        if scheme == SCHEME_ROTATION:
            fills = _ROT_FILLS_DARK if reflected else _ROT_FILLS
            fill = fills[q.rotation_k]
        else:
            fill = _PLAIN_FILL_DARK if reflected else _PLAIN_FILL
        cls = "hat reflected" if reflected else "hat"
        paths.append(f'<path class="{cls}" fill="{fill}" d="{d}"/>')
    return paths


def _arrows(node: SupertileNode, opts: RenderOptions, fx: _Memo,
            fy: _Memo) -> list[str]:
    floor = node.generation - opts.show_supervectors + 1
    parts = []
    for sub, q in _arrow_nodes(node, Placement(), floor):
        ax, ay = _svg_point(q.apply(sub.v_tail))
        bx, by = _svg_point(q.apply(sub.v_head))
        length = math.hypot(bx - ax, by - ay)
        if length == 0:
            continue
        ux, uy = (bx - ax) / length, (by - ay) / length
        head = min(length / 3, max(0.8, length * 0.035))
        half = head * 0.4
        base_x, base_y = bx - ux * head, by - uy * head
        c1 = base_x - uy * half, base_y + ux * half
        c2 = base_x + uy * half, base_y - ux * half
        color = _ARROW_COLORS[(sub.generation - 1) % len(_ARROW_COLORS)]
        width = _fmt(opts.stroke_width * 2)
        parts.append(
            f'<line x1="{fx[ax]}" y1="{fy[ay]}" x2="{fx[base_x]}" '
            f'y2="{fy[base_y]}" stroke="{color}" stroke-width="{width}"/>')
        parts.append(
            f'<polygon fill="{color}" points="{fx[bx]},{fy[by]} '
            f'{fx[c1[0]]},{fy[c1[1]]} {fx[c2[0]]},{fy[c2[1]]}"/>')
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
    # each distinct coordinate is formatted once per figure and axis.  A
    # float key takes -0.0 and 0.0 as one: `_fmt` prints both as 0, and a
    # formatter that tells them apart still sees the right zero for hats
    # and grid, where every coordinate is u + v or -(u + v), u and v each
    # an int over a positive int (v then times sqrt3), so an exact zero is
    # +0.0 in x and -0.0 in y; arrow points, computed in floats, may hold
    # either
    fx, fy = _Memo(_fmt), _Memo(_fmt)
    grid = (_grid_lines([q for q, _ in placed], p, tile, fx, fy)
            if opts.show_grid else [])
    paths = _hat_paths(placed, outline, opts.scheme, fx, fy)
    arrows = _arrows(node, opts, fx, fy) if opts.show_supervectors else []

    # the memos' keys are every coordinate drawn, so they span the figure
    m = opts.margin
    vb = (min(fx) - m, min(fy) - m,
          max(fx) - min(fx) + 2 * m, max(fy) - min(fy) + 2 * m)
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
