"""SVG output for assembled supertiles.

One path per hat, colored by rotation class with reflected hats darkened,
optional kite-grid layer, and supervector arrows for the top generations.
All geometry stays exact until the final float formatting, and identical
inputs produce byte-identical documents.  Every distinct coordinate is
formatted once per figure and axis.

Points are Q(zeta) ints (the outline over one denominator, translations,
arrow anchors), read as x and y parts by `geometry.xy_parts`; arrows and
grid turn theirs by `geometry.moved`.  The outline's vertices are read
once in each of the 12 directions zeta^k (`_dots`), and an orientation
only permutes the directions (`geometry.SUPPORT_TURNS`), so a turned vertex's x
is its value in an even direction and its y in an odd one.  Every path
is written into one list of pieces per figure, whose separators are set
once: per hat, its head (class and fill) and its x and y columns of
texts go into their slots, and the list is joined.  Per axis, each part
of a translation has one list of texts, over every offset of the axis,
and a hat's column is one `operator.itemgetter` pick from its part's.
The viewBox spans the grid and arrow coordinates drawn and the hats'
exact supports, taken on the DAG in one pass per node (`_support_walk`):
each node's greatest <v, zeta^k> over its hats' vertices, the greatest
of its children's, permuted, plus their translations', compared in ints.
The grid is one list of kite edges per orientation, moved by each hat's
lattice step; only edges on the hat's boundary are checked against those
already drawn, and a hat's lines are one join of an `operator.itemgetter`
pick per orientation and set of boundary edges left to draw, from its
corners.  The renderer counts the elements it writes, so the document it
returns carries that count and nothing parses it to learn it.
"""

from __future__ import annotations

import math
from functools import cmp_to_key
from math import lcm
from operator import itemgetter, neg

from .exactnum import _SQRT3_FLOAT, _sign
from .geometry import (
    IDENTITY,
    KITE_OFFSETS,
    Placement,
    SUPPORT_TURNS,
    TileData,
    hat_kite_cells,
    lattice_shift,
    moved,
    xy_parts,
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
# a hat's grid lines: these pieces around each line's x1, y1, x2 and y2
_LINE = ('<line x1="', '" y1="', '" x2="', '" y2="', '"/>\n<line x1="', '"/>')
# orders the ints (u, u3) of (u + u3*sqrt3)/n over one n by value, exactly
_BY_VALUE = cmp_to_key(lambda u, v: _sign(u[0] - v[0], u[1] - v[1]))


class RenderError(ValueError):
    """The requested figure cannot be drawn."""


class SvgDocument(str):
    """An SVG document's text, and in `elements` the number of elements
    the renderer wrote into it, so that no caller parses it to count."""

    elements: int


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
    # node is at or above the floor; its children are one generation
    # down, except the generation-1 compound's two hats, which are skipped
    yield node, placement
    if node.generation > max(floor, 1):
        for child, q in node.children:
            yield from _arrow_nodes(child, placement.compose(q), floor)


def _pick(groups) -> itemgetter:
    """The pick of piece 0 and the groups' indices, each group ending in
    the piece that joins it to the next; the last ends in the one after."""
    order = [0]
    for group in groups:
        order += group
    order[-1] += 1
    return itemgetter(*order)


def _grid_lines(placed: list[Placement], p: TileParams, tile: TileData,
                fx: _Memo, fy: _Memo) -> tuple[list[str], int]:
    """Each hat's grid lines as one text, and the number of lines."""
    # float(QSqrt3) of the corner scaled by a = (aa + ab*sqrt3)/ad: int /
    # int rounds correctly, so unreduced quotients give the same floats
    aa, ab, den, r3 = p.a.a, p.a.b, 2 * p.a.d, _SQRT3_FLOAT
    x_text = _Memo(lambda X: fx[X * aa / den + X * ab / den * r3])
    y_text = _Memo(lambda Y: fy[-(3 * Y * ab / den + Y * aa / den * r3)])
    # per orientation, the hat's distinct corner X and Y, and its edges [u,
    # v, kites that have it] from corner u to v, each a pair of X and Y
    # indices, as first met in its sorted cells, which a lattice step keeps.
    # An edge two kites of the hat share is inside it, and no other hat has
    # it, since hats cover distinct kites: only boundary edges repeat
    shapes = []
    for o in range(12):
        xids, yids, edges = {}, {}, {}
        for q, r, k in sorted(hat_kite_cells(Placement(o % 6, o >= 6),
                                             tile.cells)):
            cx, cy = 6 * q, 2 * (q + 2 * r)
            ids = [(xids.setdefault(cx + dx, len(xids)),
                    yids.setdefault(cy + dy, len(yids)))
                   for dx, dy in KITE_OFFSETS[k]]
            for u, v in zip(ids, ids[1:] + ids[:1]):
                edges.setdefault((min(u, v), max(u, v)), [u, v, 0])[2] += 1
        shapes.append((list(xids), list(yids), list(edges.values())))
    # each hat's orientation and lattice step, added to its corners
    steps = [(q.orientation, 6 * m, 2 * (m + 2 * n))
             for q in placed for m, n in [lattice_shift(q)]]
    # kite edges meet only at their ends, so an edge is known by its
    # doubled midpoint, packed as (X1 + X2)*width + Y1 + Y2: one to one,
    # since |Y1 + Y2| <= 2*(max |Y| + max |sy|) < width/2 in this figure
    width = 4 * (max(abs(Y) for _, ys, _ in shapes for Y in ys)
                 + max(abs(sy) for _, _, sy in steps)) + 1
    outer, inner, picks, xcols, ycols = [], [], [], [], []
    for xs, ys, edges in shapes:
        n = 6 + len(xs)  # the pick's source: _LINE, X texts, Y texts
        groups = [(6 + u[0], 1, n + u[1], 2, 6 + v[0], 3, n + v[1], 4)
                  for u, v, _ in edges]
        bits = [(kites == 1) << b for b, (_, _, kites) in enumerate(edges)]
        inner.append(bits.count(0))
        outer.append([(bit, (xs[x1] + xs[x2]) * width + ys[y1] + ys[y2])
                      for bit, ((x1, y1), (x2, y2), _) in zip(bits, edges)
                      if bit])
        # by the mask of the hat's boundary edges not drawn before it
        picks.append(_Memo(lambda mask, g=groups, b=bits: _pick(
            [group for group, bit in zip(g, b) if mask & bit or not bit])))
        xcols.append(_Memo(lambda s, c=xs: tuple([x_text[X + s] for X in c])))
        ycols.append(_Memo(lambda s, c=ys: tuple([y_text[Y + s] for Y in c])))
    seen, lines = set(), []
    for o, sx, sy in steps:
        shift, mask = 2 * (sx * width + sy), 0
        for bit, key in outer[o]:
            key += shift
            if key not in seen:
                seen.add(key)
                mask |= bit
        lines.append("".join(picks[o][mask](_LINE + xcols[o][sx]
                                            + ycols[o][sy])))
    # every inner edge is drawn, and each boundary edge once
    return lines, len(seen) + sum(inner[o] for o, _, _ in steps)


def _floats(t: int, t3: int, d: int, offsets, vd: int) -> list[float]:
    """The float of (u + u3*sqrt3)/vd + (t + t3*sqrt3)/2d for each offset
    (u, u3): one axis of points over vd moved by a translation.

    Over den = 2d*vd each part is one int / int, which rounds correctly,
    so reduced or not the floats are float(QSqrt3)'s bit for bit.
    """
    td = 2 * d
    den, t, t3 = vd * td, t * vd, t3 * vd
    return [(u * td + t) / den + (u3 * td + t3) / den * _SQRT3_FLOAT
            for u, u3 in offsets]


def _svg_floats(q: Placement, pts, den: int) -> list[tuple[float, float]]:
    """The SVG floats (x, -y) of the Q(zeta) points over den placed by q."""
    pts = [xy_parts(moved(q.orientation, c, (0, 0, 0, 0))) for c in pts]
    tx, tx3, ty, ty3 = xy_parts(q.coords)
    xs = _floats(tx, tx3, q.den, [v[:2] for v in pts], 2 * den)
    ys = _floats(ty, ty3, q.den, [v[2:] for v in pts], 2 * den)
    return [(x, -y) for x, y in zip(xs, ys)]


def _dots(pts) -> list[list[tuple[int, int]]]:
    """Per direction zeta^k, k = 0..11, <c, zeta^k> for each Q(zeta)
    point c of pts over d, as (u, u3) of (u + u3*sqrt3)/2d: the x part of
    zeta^-k*c, where zeta^-1*(c0, c1, c2, c3) = (c1, c0 + c2, c3, -c0)
    and zeta^-6 = -1."""
    dots = []
    for _ in range(6):
        dots.append([(2 * c0 + c2, c1) for c0, c1, c2, c3 in pts])
        pts = [(c1, c0 + c2, c3, -c0) for c0, c1, c2, c3 in pts]
    return dots + [[(-u, -u3) for u, u3 in col] for col in dots]


def _hat_axes(pts) -> tuple[list, list]:
    """(offsets, ids) of the outline's points, over vd: offsets[0] holds
    the distinct <v, zeta^k> over its vertices v for even k, offsets[1] for
    odd k, each as (u, u3) over 2vd (see `_dots`) and sorted exactly by
    value (`_BY_VALUE`), and ids[k] the index of each vertex's in its k's
    offsets.  Turned by orientation o, a vertex's x is its value in
    direction SUPPORT_TURNS[o][0], which is even, and its y in
    SUPPORT_TURNS[o][3]."""
    dots, offsets, ids = _dots(pts), [], [None] * 12
    for axis in (0, 1):
        values = sorted({u for col in dots[axis::2] for u in col},
                        key=_BY_VALUE)
        at = {u: i for i, u in enumerate(values)}
        offsets.append(values)
        for k in range(axis, 12, 2):
            ids[k] = [at[u] for u in dots[k]]
    return offsets, ids


def _hat_paths(placed: list[tuple[Placement, bool]], axes, vd: int,
               scheme: str) -> list[str]:
    # as in `_svg_floats`, a hat's x column depends only on its
    # orientation and the x parts (x, x3, d) of its translation, and its
    # y column on the y parts (y, y3, d): per part, the texts of every
    # offset of its axis are made once, each distinct float formatted
    # once, and an orientation picks its vertices' texts from them
    (x_offsets, y_offsets), ids = axes
    x_texts, y_texts = _Memo(_fmt), _Memo(_fmt)
    xs = _Memo(lambda part: list(map(x_texts.__getitem__,
                                     _floats(*part, x_offsets, 2 * vd))))
    ys = _Memo(lambda part: list(map(y_texts.__getitem__, map(
        neg, _floats(*part, y_offsets, 2 * vd)))))
    x_picks = [itemgetter(*ids[turn[0]]) for turn in SUPPORT_TURNS]
    y_picks = [itemgetter(*ids[turn[3]]) for turn in SUPPORT_TURNS]
    fills = (_ROT_FILLS + _ROT_FILLS_DARK if scheme == SCHEME_ROTATION
             else (_PLAIN_FILL,) * 6 + (_PLAIN_FILL_DARK,) * 6)
    heads = [f'<path class="hat{" reflected" * (o >= 6)}" fill="{fills[o]}" '
             'd="M ' for o in range(12)]
    # one path's pieces: its head (class and fill), then per vertex x, " ",
    # y and the separator to the next vertex, or the end after the last.
    # Only the head and the two columns change from hat to hat
    buf = [None] + [None, " ", None, " L "] * len(ids[0])
    buf[-1] = ' Z"/>'
    # expand flags a hat reflected exactly when its orientation is >= 6
    paths = []
    for q, _ in placed:
        o, den = q.orientation, q.den
        x, x3, y, y3 = xy_parts(q.coords)
        buf[0] = heads[o]
        buf[1::4] = x_picks[o](xs[x, x3, den])
        buf[3::4] = y_picks[o](ys[y, y3, den])
        paths.append("".join(buf))
    return paths


def _support_walk(root: SupertileNode, axes, vd: int):
    """(support, den): support(node, k), for `root` and the nodes under
    it, is the node's support at orientation 0 in the direction zeta^k,
    the greatest <v, zeta^k> over the vertices v of its hats, as the ints
    (A, B) of (A + B*sqrt3)/2den; a single hat's are the greatest of its
    values in `axes`, its outline's `_hat_axes` over vd.

    One pass per node, exact: a piece's supports are its node's, permuted
    by SUPPORT_TURNS, plus its translation's `_dots`, and the node's are,
    per direction, the greatest of its pieces' by `_sign`."""
    (offsets, ids), den = axes, lcm(root.den, vd)
    hat = [(a * (den // vd), b * (den // vd))
           for a, b in (offsets[k % 2][max(ids[k])] for k in range(12))]
    supports = {}

    def walk(node):
        if not node.children:
            return hat
        if node not in supports:
            turned = zip(*[map(walk(child).__getitem__,
                               SUPPORT_TURNS[q.orientation])
                           for child, q in node.children])
            dots = _dots([[t * (den // q.den) for t in q.coords]
                          for _, q in node.children])
            supports[node] = [max([(a + u, b + u3) for (a, b), (u, u3)
                                   in zip(sups, col)], key=_BY_VALUE)
                              for sups, col in zip(turned, dots)]
        return supports[node]

    return lambda node, k: walk(node)[k], den


def _hat_box(node: SupertileNode, axes, vd: int) -> list[float]:
    """The least and greatest SVG x and y of the hats' vertices: the
    root's supports at 180, 0, 90 and 270 degrees (SVG y is -y), each the
    float that `_floats` makes of its exact value."""
    support, den = _support_walk(node, axes, vd)
    return [_floats(s * a, s * b, den, [(0, 0)], 1)[0]
            for s, k in ((-1, 6), (1, 0), (-1, 3), (1, 9))
            for a, b in [support(node, k)]]


def _arrows(node: SupertileNode, opts: RenderOptions, fx: _Memo,
            fy: _Memo) -> list[str]:
    floor = node.generation - opts.show_supervectors + 1
    width = _fmt(opts.stroke_width * 2)
    parts = []
    for sub, q in _arrow_nodes(node, IDENTITY, floor):
        (ax, ay), (bx, by) = _svg_floats(q, (sub.tail, sub.head), sub.den)
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
        parts.append(
            f'<line x1="{fx[ax]}" y1="{fy[ay]}" x2="{fx[base_x]}" '
            f'y2="{fy[base_y]}" stroke="{color}" stroke-width="{width}"/>')
        parts.append(
            f'<polygon fill="{color}" points="{fx[bx]},{fy[by]} '
            f'{fx[c1[0]]},{fy[c1[1]]} {fx[c2[0]]},{fy[c2[1]]}"/>')
    return parts


def render_supertile(node: SupertileNode, p: TileParams,
                     opts: RenderOptions, tile: TileData) -> SvgDocument:
    """Draw an assembled supertile as an SVG 1.1 document, each hat the
    outline of `tile` (and its grid cells), with the number of elements
    written.

    Raises RenderError when the expansion would exceed max_svg_nodes or
    the grid is requested off hat proportions.
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
    pts, vd = tile.outline(p)
    axes = _hat_axes(pts)

    placed = list(expand(node))
    # each distinct coordinate is formatted once per figure and axis, the
    # hats' in `_hat_paths`, the grid's and arrows' here.  A float key
    # takes -0.0 and 0.0 as one: `_fmt` prints both as 0, and a
    # formatter that tells them apart still sees the right zero for hats
    # and grid, where every coordinate is u + v or -(u + v), u and v each
    # an int over a positive int (v then times sqrt3), so an exact zero is
    # +0.0 in x and -0.0 in y; arrow points, computed in floats, may hold
    # either
    fx, fy = _Memo(_fmt), _Memo(_fmt)
    grid, grid_lines = (_grid_lines([q for q, _ in placed], p, tile, fx, fy)
                        if opts.show_grid else ([], 0))
    paths = _hat_paths(placed, axes, vd, opts.scheme)
    arrows = _arrows(node, opts, fx, fy) if opts.show_supervectors else []

    # the memos' keys are every grid and arrow coordinate drawn, and the
    # root's supports are the hats' extremes, so together they span the
    # figure
    x0, x1, y0, y1 = _hat_box(node, axes, vd)
    x0, x1 = min(x0, min(fx, default=x0)), max(x1, max(fx, default=x1))
    y0, y1 = min(y0, min(fy, default=y0)), max(y1, max(fy, default=y1))
    m = opts.margin
    vb = (x0 - m, y0 - m, x1 - x0 + 2 * m, y1 - y0 + 2 * m)
    out = [f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
           f'viewBox="{" ".join(_fmt(v) for v in vb)}">']
    elements = 2 + len(paths)  # the svg, the hats' group and their paths
    if grid:
        out.append(f'<g class="grid" stroke="#9a9a9a" '
                   f'stroke-width="{_fmt(opts.stroke_width / 2)}" '
                   f'stroke-linecap="round">')
        out.extend(grid)
        out.append('</g>')
        elements += 1 + grid_lines
    out.append(f'<g class="hats" stroke="#2b2b2b" '
               f'stroke-width="{_fmt(opts.stroke_width)}" '
               f'stroke-linejoin="round">')
    out.extend(paths)
    out.append('</g>')
    if arrows:
        out.append('<g class="supervectors">')
        out.extend(arrows)
        out.append('</g>')
        elements += 1 + len(arrows)
    out.append('</svg>\n')
    doc = SvgDocument("\n".join(out))
    doc.elements = elements
    return doc
