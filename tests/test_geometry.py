import functools
import math
import random
import re
import time
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hatfam.configfile import ConfigError, load_text
from hatfam.exactnum import (
    SQRT3,
    QSqrt3,
    VEC_ZERO,
    VecE,
    parse_scalar,
    zeta_coords,
    zeta_vector,
)
from hatfam.geometry import (
    EDGE_A,
    EDGE_B,
    GeometryError,
    IDENTITY,
    KITE_OFFSETS,
    KiteCell,
    LATTICE_BASIS,
    LatticeError,
    Placement,
    SIDE_TURNS,
    SUPPORT_TURNS,
    TileData,
    TurtleStep,
    _MATRICES,
    _PRODUCT,
    _ZETA,
    cells_connected,
    disjoint_cells,
    hat_kite_cells,
    is_simple,
    moved,
    outline_from_turtle,
    packing_width,
    scaled,
    shoelace_area,
    tile_from_config,
)
from hatfam.substitution import HAT, THC, SupertileNode, build, \
    check_kites, expand
from hatfam.supervectors import hat_params, make_params

from placements import U1, U2, apply, kite_corners, reflect_y_axis, \
    rotate60, trace_outline, unit_k30, zeta_points

# a hand-made node's anchors, as Q(zeta) coordinates
ORIGIN = (0, 0, 0, 0)


def _poly(*xy):
    """The polygon with these integer vertex coordinates."""
    return tuple(VecE(QSqrt3(x), QSqrt3(y)) for x, y in xy)


SQUARE = _poly((0, 0), (1, 0), (1, 1), (0, 1))
BOWTIE = _poly((0, 0), (2, 2), (2, 0), (0, 2))
# a vertex on a non-adjacent edge, which only the collinear-overlap branch
# of the segment test rejects
PINCHED = _poly((0, 0), (4, 0), (4, 2), (2, 0), (0, 2))


def _p(a, b):
    return make_params(QSqrt3(a), QSqrt3(b))


def _point_in_polygon(pt: VecE, poly) -> bool:
    """Exact even-odd ray cast; pt must not lie on an edge."""
    inside = False
    for i, a in enumerate(poly):
        b = poly[(i + 1) % len(poly)]
        if ((a.y - pt.y).sign() > 0) == ((b.y - pt.y).sign() > 0):
            continue
        # x where edge ab crosses the horizontal through pt
        cross_x = a.x + (pt.y - a.y) * (b.x - a.x) / (b.y - a.y)
        if (cross_x - pt.x).sign() > 0:
            inside = not inside
    return inside


def kite_centroid(cell: KiteCell) -> VecE:
    """Exact centroid of a kite's four corners: the oracle that ties the
    combinatorial cell maps to the plane."""
    pts = kite_corners(cell)
    return (pts[0] + pts[1] + pts[2] + pts[3]) * Fraction(1, 4)


def _random_placement(rng):
    return Placement(rng.randrange(6), rng.random() < 0.5,
                     U1 * rng.randint(-3, 3) + U2 * rng.randint(-3, 3))


# ---------------------------------------------------------------- placements

def test_placement_normalizes_rotation():
    assert Placement(7).rotation_k == 1
    assert Placement(-1).rotation_k == 5


def test_compose_matches_pointwise_action():
    rng = random.Random(3)
    for _ in range(80):
        q1, q2 = _random_placement(rng), _random_placement(rng)
        v = VecE(QSqrt3(rng.randint(-5, 5)), QSqrt3(0, rng.randint(-5, 5)))
        assert apply(q1.compose(q2), v) == apply(q1, apply(q2, v))


def test_compose_identity_and_associativity():
    rng = random.Random(4)
    for _ in range(40):
        q1, q2, q3 = (_random_placement(rng) for _ in range(3))
        assert IDENTITY.compose(q1) == q1
        assert q1.compose(IDENTITY) == q1
        assert q1.compose(q2.compose(q3)) == q1.compose(q2).compose(q3)


def test_unit_k30():
    half = Fraction(1, 2)
    # every heading, past 12 and below 0: unit length, and 30 degrees from
    # the next, whose sine is 1/2 and cosine sqrt(3)/2; zeta^k is the unit
    # at heading 30*k degrees
    for k in range(-13, 25):
        u, w = unit_k30(k), unit_k30(k + 1)
        assert u.x * u.x + u.y * u.y == QSqrt3(1)
        assert u.x * w.y - u.y * w.x == QSqrt3(half)
        assert u.x * w.x + u.y * w.y == QSqrt3(0, half)
        assert unit_k30(k + 12) == u
        assert zeta_vector(_ZETA[k % 12], 1) == u
    assert unit_k30(0) == VecE(QSqrt3(1), QSqrt3(0))
    assert unit_k30(3) == VecE(QSqrt3(0), QSqrt3(1))
    assert unit_k30(6) == VecE(QSqrt3(-1), QSqrt3(0))
    # 30 degrees: (sqrt(3)/2, 1/2)
    assert unit_k30(1) == VecE(QSqrt3(0, half), QSqrt3(half))


@pytest.mark.parametrize("o", range(12))
def test_orientation_matrices_are_the_exact_turns(o):
    # column j of orientation o's matrix is zeta^j reflected across the y
    # axis if o >= 6, then turned by o % 6 steps of 60 degrees
    for j in range(4):
        v = zeta_vector(_ZETA[j], 1)
        want = rotate60(reflect_y_axis(v) if o >= 6 else v, o % 6)
        assert zeta_vector(_MATRICES[o][j::4], 1) == want


# The reference below keeps a placement as (rotation_k, reflected, VecE)
# and composes with VecE arithmetic, as placements did before they held
# Q(zeta) coordinates.

_PROPERTY = settings(derandomize=True, database=None, max_examples=150,
                     deadline=None)
# hat-scale halves, off-hat denominators, and integers near 1e30
_SCALAR = st.one_of(
    st.builds(Fraction, st.integers(-300, 300), st.integers(1, 12)),
    st.builds(Fraction, st.integers(-10 ** 30, 10 ** 30),
              st.integers(1, 10 ** 6)))
_VECTORS = st.builds(lambda xr, xs, yr, ys: VecE(QSqrt3(xr, xs),
                                                  QSqrt3(yr, ys)),
                     _SCALAR, _SCALAR, _SCALAR, _SCALAR)
_PLACEMENTS = st.builds(Placement, st.integers(-7, 7), st.booleans(),
                        _VECTORS)


def _ref_compose(outer, inner):
    k1, r1, t1 = outer
    k2, r2, t2 = inner
    k = k1 - k2 if r1 else k1 + k2
    t = t1 + rotate60(reflect_y_axis(t2) if r1 else t2, k1)
    return k % 6, r1 != r2, t


@_PROPERTY
@given(_VECTORS)
def test_zeta_coords_round_trip(v):
    coords, d = zeta_coords(v)
    assert d > 0 and math.gcd(*coords, d) == 1
    # c/d is c0 + c1 zeta + c2 zeta^2 + c3 zeta^3 over d, zeta^i being the
    # unit vector at 30*i degrees
    total = VEC_ZERO
    for i, c in enumerate(coords):
        total = total + unit_k30(i) * c
    assert total * Fraction(1, d) == v
    assert zeta_vector(coords, d) == v
    q = Placement(3, True, v)
    assert q.translation == v


@_PROPERTY
@given(_VECTORS)
def test_orientation_matrices_match_vector_maps(v):
    shift = Placement(0, False, v)
    for k in range(6):
        for refl in (False, True):
            moved = Placement(k, refl).compose(shift)
            want = rotate60(reflect_y_axis(v) if refl else v, k)
            assert (moved.rotation_k, moved.reflected) == (k, refl)
            assert moved.translation == want


@_PROPERTY
@given(st.lists(_PLACEMENTS, min_size=1, max_size=6), _VECTORS)
def test_compose_chain_matches_reference(chain, v):
    got = chain[0]
    want = (got.rotation_k, got.reflected, got.translation)
    for q in chain[1:]:
        assert apply(got.compose(q), v) == apply(got, apply(q, v))
        got = got.compose(q)
        want = _ref_compose(want, (q.rotation_k, q.reflected, q.translation))
    assert (got.rotation_k, got.reflected, got.translation) == want


@_PROPERTY
@given(_PLACEMENTS, _VECTORS, st.integers(1, 10 ** 20))
def test_placement_equality_and_hash_across_routes(q, v, k):
    t = q.translation
    routes = [
        Placement(q.rotation_k + 6 * k, q.reflected, t),
        Placement(q.rotation_k, q.reflected,
                  VecE(t.x * k / k, t.y + QSqrt3(0, k) - QSqrt3(0, k))),
        IDENTITY.compose(q),
        q.compose(IDENTITY),
        Placement(0, False, t).compose(Placement(q.rotation_k, q.reflected)),
    ]
    for other in routes:
        assert other == q and hash(other) == hash(q)
    if v:
        moved = Placement(q.rotation_k, q.reflected, t + v)
        assert moved != q
    assert Placement(q.rotation_k + 1, q.reflected, t) != q
    assert Placement(q.rotation_k, not q.reflected, t) != q


# ------------------------------------------------------------------- turtles

def _tile_with_walk(edges: str, turns: str):
    """The shipped tile config with its walk replaced, loaded."""
    text = load_text("tile.cfg")
    text = re.sub(r"(?m)^edges = .*$", f"edges = {edges}", text)
    text = re.sub(r"(?m)^turns = .*$", f"turns = {turns}", text)
    return tile_from_config(text)


def test_turtle_square():
    steps = tuple(TurtleStep(EDGE_A, 3) for _ in range(4))
    tile = TileData(steps, 0, frozenset())
    assert tile.steps == steps
    o = tile.outline(_p(1, 2))
    assert o == outline_from_turtle(steps, _p(1, 2), 0)
    assert o == (tuple(zeta_points(SQUARE)[0]), 1)
    assert shoelace_area(o) == QSqrt3(1)
    assert is_simple(o)


def test_turtle_requires_closure():
    # exterior turns sum to 360, but an a-edge does not cancel the b-edge
    # at a != b
    tile = TileData(tuple(TurtleStep(sym, 3) for sym in "AABA"), 0,
                    frozenset())
    with pytest.raises(GeometryError, match="outline does not close"):
        tile.outline(_p(1, 2))


def test_turtle_spec_validation():
    for edges, turns, message in (
            ("A A", "180 180", "needs at least 3 edges"),
            ("C A A", "120 120 120", "edge 0: unknown symbol 'C'"),
            ("A A A A", "90 90 90 60", "exterior turns sum to 330 degrees"),
            ("A A A", "180 90 90", "edge 0: turn 180 degrees reverses"),
            # faults of the outline traced at the hat
            ("A A B A", "90 90 90 90", "outline does not close"),
            # a unit square, whose corners are off the kite grid
            ("A A A A", "90 90 90 90",
             "is not the boundary of its 8 kite cells")):
        with pytest.raises(ConfigError, match=message):
            _tile_with_walk(edges, turns)


def test_a_self_crossing_walk_is_a_config_error():
    # at the hat, edge 3, the b-edge, crosses edge 1 inside both
    with pytest.raises(ConfigError, match="simple"):
        _tile_with_walk("A A A B A A", "-90 90 150 -60 150 120")


_SHAPE_SCALARS = st.one_of(
    st.builds(Fraction, st.integers(1, 40), st.integers(1, 12)).map(QSqrt3),
    st.builds(lambda r, s: QSqrt3(Fraction(r, 2), Fraction(s, 2)),
              st.integers(-6, 12), st.integers(1, 8)).filter(
        lambda x: x.sign() > 0))


@settings(derandomize=True, database=None, max_examples=60, deadline=None)
@given(_SHAPE_SCALARS, _SHAPE_SCALARS)
def test_traced_edges_are_a_or_b_long_and_the_area_is_positive(tile, a, b):
    # the invariants no runtime check holds: each traced edge is a unit
    # vector times a or b, and a simple walk whose exterior turns sum to
    # +360 runs counterclockwise
    p = make_params(a, b)
    pts, d = tile.outline(p)
    o = [zeta_vector(c, d) for c in pts]
    lengths = {p.a * p.a, p.b * p.b}
    for u, v in zip(o, o[1:] + o[:1]):
        w = v - u
        assert w.x * w.x + w.y * w.y in lengths
    assert tile.area(p).sign() > 0


def _same_trace(steps, p, heading_k30):
    """The int trace and the VecE oracle's, asserted to be the same points,
    or None when both refuse an open walk in the same words."""
    try:
        want = trace_outline(steps, p, heading_k30)
    except GeometryError as e:
        with pytest.raises(GeometryError) as got:
            outline_from_turtle(steps, p, heading_k30)
        assert str(got.value) == str(e)
        return None
    got = outline_from_turtle(steps, p, heading_k30)
    pts, d = got
    assert [zeta_vector(c, d) for c in pts] == list(want)
    return got, want


@settings(derandomize=True, database=None, max_examples=60, deadline=None)
@given(_SHAPE_SCALARS, _SHAPE_SCALARS, st.integers(-13, 13))
def test_int_trace_matches_the_vece_oracle_on_the_tile(tile, a, b, heading):
    # the tile's walk closes at every shape, over d = lcm of a's and b's
    # denominators: the points zeta_points gives for the oracle's vectors
    got, want = _same_trace(tile.steps, make_params(a, b), heading)
    pts, d = zeta_points(want)
    assert got == (tuple(pts), d)


@_PROPERTY
@given(_SHAPE_SCALARS, _SHAPE_SCALARS, st.integers(-13, 13),
       st.lists(st.tuples(st.sampled_from((EDGE_A, EDGE_B)),
                          st.integers(-5, 5)), min_size=1, max_size=8),
       st.booleans())
def test_int_trace_matches_the_vece_oracle_on_any_walk(a, b, heading, walk,
                                                      closed):
    # an open walk, refused in the oracle's words, or one made to close:
    # the walk twice, turned by 180 degrees the second time
    steps = [TurtleStep(sym, turn) for sym, turn in walk]
    if closed:
        last = steps.pop()
        steps.append(TurtleStep(last.symbol, 6 - sum(t for _, t in steps)))
        steps += steps
    got = _same_trace(steps, make_params(a, b), heading)
    assert got is not None or not closed


@_PROPERTY
@given(st.tuples(*[st.integers(-10 ** 6, 10 ** 6)] * 4),
       st.builds(QSqrt3, _SCALAR, _SCALAR), st.integers(1, 12))
def test_scaled_is_the_vece_product(c, x, k):
    # c times k*(x.a + x.b*sqrt3) is c times x over x.d*k: sqrt3 acts as
    # zeta + zeta^-1
    assert zeta_vector(scaled(c, x, k), x.d * k) == zeta_vector(c, 1) * x


def test_is_simple():
    assert is_simple(zeta_points(SQUARE))
    assert not is_simple(zeta_points(BOWTIE))
    assert not is_simple(zeta_points(PINCHED))
    spike = _poly((0, 0), (2, 0), (1, 0), (1, 1))
    assert not is_simple(zeta_points(spike))


# The QSqrt3 segment test and simplicity check that `is_simple` replaced,
# kept as the oracle for the integer version; QSqrt3 has no ordering, so
# it compares by the sign of a difference.

def _cross(u: VecE, v: VecE) -> QSqrt3:
    return u.x * v.y - u.y * v.x


def _dot(u: VecE, v: VecE) -> QSqrt3:
    return u.x * v.x + u.y * v.y


def _between(lo: QSqrt3, x: QSqrt3, hi: QSqrt3) -> bool:
    if (hi - lo).sign() < 0:
        lo, hi = hi, lo
    return (x - lo).sign() >= 0 and (hi - x).sign() >= 0


def _segments_cross(a: VecE, b: VecE, c: VecE, d: VecE) -> bool:
    """Exact test: do closed segments ab and cd share any point?"""
    ab = b - a
    cd = d - c
    d1 = _cross(ab, c - a).sign()
    d2 = _cross(ab, d - a).sign()
    d3 = _cross(cd, a - c).sign()
    d4 = _cross(cd, b - c).sign()
    if d1 * d2 < 0 and d3 * d4 < 0:
        return True
    for p, (u, v) in ((c, (a, b)), (d, (a, b)), (a, (c, d)), (b, (c, d))):
        uv = v - u
        if _cross(uv, p - u).sign() == 0 and \
                _between(u.x, p.x, v.x) and _between(u.y, p.y, v.y):
            return True
    return False


def _oracle_is_simple(o) -> bool:
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
        if _cross(e1, e2).sign() == 0 and _dot(e1, e2).sign() < 0:
            return False
        for j in range(i + 2, n):
            if i == 0 and j == n - 1:
                continue
            if _segments_cross(a, b, o[j], o[(j + 1) % n]):
                return False
    return True


# points in 1/2 Z + 1/2 Z*sqrt3, on a window small enough that repeated
# vertices, collinear fold-backs, touching endpoints and bow-ties are common
_HALVES = st.builds(lambda i, j: QSqrt3(Fraction(i, 2), Fraction(j, 2)),
                    st.integers(-4, 4), st.integers(-2, 2))
_POINTS = st.builds(VecE, _HALVES, _HALVES)


_HALF_STEPS = st.integers(-2, 10).map(lambda i: Fraction(i, 2))
_RATIONAL_POINTS = st.builds(VecE, *[_HALF_STEPS.map(QSqrt3)] * 2)


@st.composite
def _pinched(draw):
    """A w x h rectangle whose top edge dips to one or two vertices at
    height y in {-1/2, 0, 1/2}, turned by 30*k degrees and moved by a
    rational point.  At y = 0 the dip touches the bottom edge at a vertex
    or overlaps it collinearly, and when k is a multiple of 3 the integer
    boxes of the edges that meet share exactly one bound; elsewhere boxes
    touch or overlap without their edges meeting, or the dip crosses."""
    w, h = draw(st.integers(1, 4)), draw(st.integers(1, 2))
    y = Fraction(draw(st.integers(-1, 1)), 2)
    xs = draw(st.lists(_HALF_STEPS, min_size=1, max_size=2))
    corners = [(0, 0), (w, 0), (w, h), *((x, y) for x in xs), (0, h)]
    k, shift = draw(st.integers(0, 11)), draw(_RATIONAL_POINTS)
    return tuple(unit_k30(k) * QSqrt3(u) + unit_k30(k + 3) * QSqrt3(v)
                 + shift for u, v in corners)


@st.composite
def _polygons(draw):
    kind = draw(st.sampled_from(("free", "pool", "pinched")))
    if kind == "free":
        return tuple(draw(st.lists(_POINTS, min_size=3, max_size=8)))
    if kind == "pinched":
        return draw(_pinched())
    # vertices drawn from a small pool repeat and line up more often
    pool = draw(st.lists(_POINTS, min_size=2, max_size=5, unique=True))
    return tuple(draw(st.lists(st.sampled_from(pool), min_size=3,
                               max_size=8)))


@settings(max_examples=600, deadline=None)
@given(_polygons())
@example(PINCHED)
@example(BOWTIE)
@example(SQUARE)
def test_is_simple_matches_the_qsqrt3_oracle(poly):
    assert is_simple(zeta_points(poly)) == _oracle_is_simple(poly)


@pytest.mark.parametrize("a,b", [
    ("1", "r3"), ("2", "3"), ("1", "1"), ("r3", "1"), ("5", "2"),
    ("7/3", "1/2"), ("2+r3", "3+2*r3"),
], ids=["hat", "2-3", "1-1", "turtle", "5-2", "7/3-1/2", "irrational"])
def test_is_simple_matches_the_oracle_on_the_tile(tile, a, b):
    p = make_params(parse_scalar(a), parse_scalar(b))
    o = trace_outline(tile.steps, p, tile.heading_k30)
    assert is_simple(outline_from_turtle(tile.steps, p, tile.heading_k30))
    assert _oracle_is_simple(o)
    # moving a vertex onto the vertex two before it folds the walk back
    for bad in (o[:3] + (o[1],) + o[4:], o[:2] + (o[0],) + o[3:]):
        assert not is_simple(zeta_points(bad)) and not _oracle_is_simple(bad)


def test_apply_placement_preserves_area():
    q = Placement(2, False, VecE(QSqrt3(5), QSqrt3(0, -3)))
    assert shoelace_area(zeta_points(apply(q, v) for v in SQUARE)) == \
        QSqrt3(1)
    mirrored = Placement(0, True, VEC_ZERO)
    assert shoelace_area(zeta_points(apply(mirrored, v) for v in SQUARE)) \
        == QSqrt3(-1)


# ------------------------------------------------------------ canonical tile

def test_canonical_outline_shape(tile, hat_p):
    pts, d = tile.outline(hat_p)
    assert len(pts) == 14 and d == 1
    assert pts[0] == ORIGIN
    symbols = [step.symbol for step in tile.steps]
    assert symbols.count(EDGE_A) == 8
    assert symbols.count(EDGE_B) == 6


@pytest.mark.parametrize("a,b,area", [
    ("1", "r3", "8*r3"),          # the hat: 8 kites
    ("2", "3", "18+17*r3"),
    ("1", "1", "3+3*r3"),
    ("r3", "1", "10*r3"),         # the turtle: 10 kites
    ("5", "2", "30+54*r3"),
], ids=["hat", "2-3", "1-1", "turtle", "5-2"])
def test_canonical_outline_area(tile, a, b, area):
    p = make_params(parse_scalar(a), parse_scalar(b))
    assert shoelace_area(tile.outline(p)) == parse_scalar(area)


def test_outline_is_traced_once_per_shape(tile):
    p = _p(3, 4)
    assert tile.outline(p) is tile.outline(p)
    assert tile.area(p) == shoelace_area(tile.outline(p))


def test_canonical_outline_simple_at_many_shapes(tile):
    for a, b in [(1, 2), (3, 1), (7, 2), (1, 5)]:
        assert is_simple(tile.outline(_p(a, b)))


def test_cells_match_outline_by_centroid(tile, hat_p):
    """The 8 configured cells are exactly the kites whose centroids fall
    inside the outline, over a generous window of candidates."""
    pts, d = tile.outline(hat_p)
    poly = [zeta_vector(c, d) for c in pts]
    inside = set()
    for q in range(-4, 5):
        for r in range(-4, 5):
            for k in range(6):
                cell = KiteCell(q, r, k)
                if _point_in_polygon(kite_centroid(cell), poly):
                    inside.add(cell)
    assert inside == set(tile.cells)


# ------------------------------------------------------------ the kite grid

# the kite-cell actions of a 60-degree turn and of the reflection across
# the y axis, written out by hand: the oracle for the turns geometry reads
# off its orientation matrices
def cell_rotate60(cell: KiteCell) -> KiteCell:
    q, r, k = cell
    return KiteCell(-r, q + r, (k + 1) % 6)


def cell_reflect(cell: KiteCell) -> KiteCell:
    q, r, k = cell
    return KiteCell(-q, q + r, (3 - k) % 6)


def test_cell_rotate_matches_centroid_rotation():
    for cell in (KiteCell(0, 0, 0), KiteCell(2, -1, 3), KiteCell(-1, 4, 5)):
        assert kite_centroid(cell_rotate60(cell)) == \
            rotate60(kite_centroid(cell), 1)
        orbit = cell
        for _ in range(6):
            orbit = cell_rotate60(orbit)
        assert orbit == cell


def test_cell_reflect_matches_centroid_reflection():
    for cell in (KiteCell(0, 0, 0), KiteCell(1, -2, 4), KiteCell(-3, 1, 2)):
        assert kite_centroid(cell_reflect(cell)) == \
            reflect_y_axis(kite_centroid(cell))
        assert cell_reflect(cell_reflect(cell)) == cell


@pytest.mark.parametrize("o", range(12))
def test_oriented_cells_compose_the_cell_actions(tile, o):
    # orientation o reflects first if o >= 6, then turns o % 6 times
    cells = frozenset(tile.cells | {KiteCell(3, -2, 4), KiteCell(-5, 1, 1)})
    want = [cell_reflect(c) if o >= 6 else c for c in cells]
    for _ in range(o % 6):
        want = [cell_rotate60(c) for c in want]
    assert hat_kite_cells(Placement(o % 6, o >= 6), cells) == set(want)


def _packing(cells):
    """({cell: its bit}, width): each cell's bit, packed about the low
    corner of the cells' hex box at the packing width."""
    q_lo = min(q for q, _, _ in cells)
    r_lo = min(r for _, r, _ in cells)
    width = packing_width(max(r for _, r, _ in cells) - r_lo)
    return {(q, r, k): 1 << 6 * ((q - q_lo) * width + r - r_lo) + k
            for q, r, k in cells}, width


def _connected(cells) -> bool:
    bits, width = _packing(cells)
    return cells_connected(bits.values(), width)


def _kite_edges(cell) -> set:
    corners = kite_corners(KiteCell(*cell))
    return {frozenset((corners[i - 1], corners[i])) for i in range(4)}


def _edge_connected(cells) -> bool:
    """Oracle: kites touch when they share an edge, compared as exact
    points; a flood over that relation reaches every cell."""
    edges = {cell: _kite_edges(cell) for cell in cells}
    todo = set(cells)
    stack = [todo.pop()] if todo else []
    while stack:
        cur = stack.pop()
        near = {c for c in todo if edges[cur] & edges[c]}
        todo -= near
        stack += near
    return not todo


@pytest.mark.parametrize("cell", [(0, 0, k) for k in range(6)]
                         + [(1, -1, 3), (-2, 3, 0)])
def test_kite_offsets_are_the_exact_corners(cell):
    # KITE_OFFSETS plus the hexagon centre (6q, 2(q + 2r)) are the exact
    # corners (X/2, Y*sqrt3/2), in order
    q, r, k = cell
    want = [(2 * v.x, 2 * v.y / SQRT3)
            for v in kite_corners(KiteCell(*cell))]
    got = [(QSqrt3(6 * q + X), QSqrt3(2 * (q + 2 * r) + Y))
           for X, Y in KITE_OFFSETS[k]]
    assert got == want


def test_cell_neighbors_share_an_edge():
    # two kites are connected exactly when they share an edge
    for cell in (KiteCell(0, 0, 0), KiteCell(1, -1, 3), KiteCell(2, 2, 5)):
        mine = set(kite_corners(cell))
        near = [KiteCell(cell.hex_q + dq, cell.hex_r + dr, k)
                for dq in (-1, 0, 1) for dr in (-1, 0, 1) for k in range(6)]
        joined = [o for o in near if o != cell and _connected([cell, o])]
        assert len(joined) == 4
        for other in near:
            shared = mine & set(kite_corners(other))
            assert (other in joined) == (len(shared) == 2)


def test_cells_connected():
    assert _connected([KiteCell(0, 0, k) for k in range(6)])
    assert not _connected([KiteCell(0, 0, 0), KiteCell(5, 5, 0)])
    # whole hexagons as parts: neighbours touch, hexagons two apart do not
    for far, joined in (((1, 0), True), ((2, 0), False), ((1, -1), True)):
        cells = [(q, r, k) for q, r in ((0, 0), far) for k in range(6)]
        bits, width = _packing(cells)
        hexagons = [sum(bits[cell] for cell in cells[:6]),
                    sum(bits[cell] for cell in cells[6:])]
        assert cells_connected(hexagons, width) == joined


def test_packing_keeps_cells_and_neighbours_apart():
    # at the width for the rows -bound..bound, every cell of a window that
    # spans them packs to its own bit, and no neighbour's bit lands on
    # another cell's: two cells touch exactly when they share an edge
    for bound in range(4):
        cells = [(q, r, k) for q in range(-1, 2)
                 for r in range(-bound, bound + 1) for k in range(6)]
        bits, width = _packing(cells)
        assert width == packing_width(2 * bound)
        assert len(set(bits.values())) == len(cells)
        edges = {cell: _kite_edges(cell) for cell in cells}
        for i, a in enumerate(cells):
            for b in cells[:i]:
                assert cells_connected([bits[a], bits[b]], width) == \
                    bool(edges[a] & edges[b])


@functools.cache
def _window_neighbours() -> dict:
    """The oracle's edge neighbours of each kite cell of the window of
    hexagons with hex_q, hex_r in -2..2, inside the window."""
    cells = [(q, r, k) for q in range(-2, 3) for r in range(-2, 3)
             for k in range(6)]
    edges = {cell: _kite_edges(cell) for cell in cells}
    return {a: [b for b in cells if b != a and edges[a] & edges[b]]
            for a in cells}


@st.composite
def _window_cells(draw) -> list:
    """Distinct kite cells of the window: a random set, or a patch of as
    many cells grown from its first by random edge steps, with up to two
    cells then dropped, which may cut it."""
    cells = draw(st.lists(st.sampled_from(sorted(_window_neighbours())),
                          min_size=1, max_size=24, unique=True))
    if draw(st.booleans()):
        rnd = draw(st.randoms(use_true_random=False))
        near = _window_neighbours()
        size, cells = len(cells), cells[:1]
        while len(cells) < size:
            cell = rnd.choice(near[rnd.choice(cells)])
            if cell not in cells:
                cells.append(cell)
        for _ in range(min(rnd.randint(0, 2), len(cells) - 1)):
            cells.pop(rnd.randrange(len(cells)))
    return cells


def _connected_split(cells, rnd) -> list[list]:
    """The cells cut at random into parts that are each edge-connected."""
    near = _window_neighbours()
    todo = sorted(cells)
    parts = []
    while todo:
        part = [todo.pop(rnd.randrange(len(todo)))]
        size = rnd.randint(1, len(cells))
        for cur in part:  # grows while it is read: a breadth-first flood
            for cell in near[cur]:
                if cell in todo and len(part) < size and rnd.random() < 0.7:
                    part.append(cell)
                    todo.remove(cell)
        parts.append(part)
    return parts


@_PROPERTY
@given(_window_cells(), st.randoms(use_true_random=False))
def test_cells_connected_matches_the_edge_oracle(cells, rnd):
    # as single-cell parts and as a random split into connected parts
    want = _edge_connected(cells)
    bits, width = _packing(cells)
    assert cells_connected(bits.values(), width) == want
    parts = _connected_split(cells, rnd)
    assert all(_edge_connected(part) for part in parts)
    assert cells_connected([sum(bits[c] for c in part) for part in parts],
                           width) == want


def test_lattice_basis_is_u1_and_u2():
    # the literal Q(zeta) ints of the basis are the VecE oracle's points
    assert LATTICE_BASIS == (zeta_coords(U1)[0], zeta_coords(U2)[0])
    assert zeta_coords(U1)[1] == zeta_coords(U2)[1] == 1


def test_lattice_decompose_round_trip(tile):
    for m in range(-3, 4):
        for n in range(-3, 4):
            moved = hat_kite_cells(Placement(0, False, U1 * m + U2 * n),
                                   tile.cells)
            assert moved == {(q + m, r + n, k) for q, r, k in tile.cells}


@pytest.mark.parametrize("v", [
    VecE(QSqrt3(1), QSqrt3(0)),
    VecE(QSqrt3(0), QSqrt3(1)),
    VecE(QSqrt3(3), QSqrt3(0, 2)),
    VecE(QSqrt3(0, 1), QSqrt3(0)),
])
def test_lattice_decompose_rejects(tile, v):
    with pytest.raises(LatticeError):
        hat_kite_cells(Placement(0, False, v), tile.cells)


def test_transform_cells_matches_centroid_action(tile):
    rng = random.Random(12)
    every_orientation = [Placement(k, refl, U1 * (k - 2) + U2 * int(refl))
                         for k in range(6) for refl in (False, True)]
    for q in every_orientation + [_random_placement(rng) for _ in range(30)]:
        moved = hat_kite_cells(q, tile.cells)
        assert {kite_centroid(c) for c in moved} == \
            {apply(q, kite_centroid(c)) for c in tile.cells}


def test_hat_kite_cells_identity(tile):
    assert hat_kite_cells(IDENTITY, tile.cells) == tile.cells


def _reach(cells) -> tuple:
    """How far the cells' hexagons get along q, -q, r, -r, s and -s."""
    return tuple(max(u * q + v * r for q, r, _ in cells)
                 for u, v in ((1, 0), (-1, 0), (0, 1), (0, -1), (-1, -1),
                              (1, 1)))


@given(cells=st.lists(st.tuples(st.integers(-5, 5), st.integers(-5, 5),
                                st.integers(0, 5)), min_size=1, max_size=8))
def test_side_turns_permute_a_patch_reach(cells):
    # a patch turned by o reaches along side i as far as the unturned one
    # did along side SIDE_TURNS[o][i]
    reach = _reach(cells)
    for o in range(12):
        turned = hat_kite_cells(Placement(o % 6, o >= 6), frozenset(cells))
        assert _reach(turned) == tuple(reach[i] for i in SIDE_TURNS[o])


def test_support_turns_are_the_orientations_on_directions():
    # orientation o turns zeta^SUPPORT_TURNS[o][k] to zeta^k, and the table
    # composes as the orientations do: p, then o, turns zeta^j to zeta^k
    # when p turns it to zeta^SUPPORT_TURNS[o][k]
    for o in range(12):
        for k in range(12):
            j = SUPPORT_TURNS[o][k]
            assert moved(o, _ZETA[j], (0, 0, 0, 0)) == _ZETA[k]
            for p in range(12):
                assert SUPPORT_TURNS[_PRODUCT[o][p]][k] == SUPPORT_TURNS[p][j]


def test_disjoint_cells_reports_first_clash(tile):
    a = IDENTITY
    b = Placement(0, False, U1)  # overlaps the canonical patch
    c = Placement(0, False, U1 * 9)
    ok, cells = disjoint_cells([a, c], tile.cells)
    assert ok and len(cells) == 16
    ok, clash = disjoint_cells([a, c, b], tile.cells)
    assert not ok
    i, j, cell = clash
    assert (i, j) == (0, 2)
    assert cell in hat_kite_cells(b, tile.cells)
    # a hat on top of another shares all 8 kites; the first in sorted
    # order is reported, as a KiteCell
    ok, clash = disjoint_cells([c, a, Placement(0, False, U1 * 9)],
                               tile.cells)
    assert clash == (0, 2, min(hat_kite_cells(c, tile.cells)))
    assert isinstance(clash[2], KiteCell)


def test_disjoint_cells_returns_the_covered_cells(layout, tile):
    placed = [q for q, _ in expand(build(HAT, 3, hat_params(), layout))]
    ok, cells = disjoint_cells(placed, tile.cells)
    assert ok
    union = set()
    for q in placed:
        union |= hat_kite_cells(q, tile.cells)
    assert set(cells) == union and len(union) == 8 * len(placed)


def _compound(partner: Placement) -> SupertileNode:
    """A generation-1 compound: a hat at the origin and one at partner."""
    hat = SupertileNode(HAT, 1, (), (), ORIGIN, ORIGIN)
    return SupertileNode(THC, 1, ((hat, IDENTITY), (hat, partner)),
                         ("hat", "partner"), ORIGIN, ORIGIN)


def test_check_kites_names_the_clash(tile):
    partner = Placement(0, False, U1)
    ok, detail = check_kites(_compound(partner), tile)
    cell = disjoint_cells([IDENTITY, partner], tile.cells)[1][2]
    assert not ok
    assert detail == f"thc-1: pieces hat and partner overlap on kite {cell}"


def test_check_kites_reports_a_lattice_miss(tile):
    ok, detail = check_kites(
        _compound(Placement(0, False, VecE(QSqrt3(1), QSqrt3(0)))), tile)
    assert not ok
    assert "kite lattice" in detail and "VecE(1, 0)" in detail


def test_check_kites_connectivity_is_opt_in(tile):
    apart = _compound(Placement(0, False, U1 * 9))
    assert check_kites(apart, tile) == \
        (True, "16 kite cells, no overlap")
    assert check_kites(apart, tile, connected=True) == \
        (False, "thc-1: patch is disconnected")


# ------------------------------------------------------------- config loads

def test_tile_from_config_rejects_bad_cells():
    text = load_text("tile.cfg")
    broken = text.replace("1,0,3", "1,0,9")
    with pytest.raises(ConfigError, match="corner"):
        tile_from_config(broken)
    short = text.replace("1,0,3", "0,0,0")
    with pytest.raises(ConfigError, match="duplicate"):
        tile_from_config(short)
    for item in ("x,0,0", "0,0", "0,0,0,0"):
        with pytest.raises(ConfigError,
                           match=f"bad cell '{item}', expected q,r,k"):
            tile_from_config(text.replace("0,0,0", item, 1))


@pytest.mark.parametrize("items", [
    # 8 connected kites, 6 of them one hexagon, of the outline's area
    "0,0,0 0,0,1 0,0,2 0,0,3 0,0,4 0,0,5 0,1,4 0,1,5",
    # the shipped cells one hexagon step away
    "1,0,0 1,0,1 1,0,2 1,0,5 1,1,4 1,1,5 2,0,2 2,0,3",
])
def test_tile_from_config_refuses_cells_the_outline_does_not_bound(items):
    text = load_text("tile.cfg")
    shipped = "items = 0,0,0 0,0,1 0,0,2 0,0,5 0,1,4 0,1,5 1,0,2 1,0,3"
    assert shipped in text
    with pytest.raises(ConfigError,
                       match="is not the boundary of its 8 kite cells"):
        tile_from_config(text.replace(shipped, "items = " + items))


@pytest.mark.parametrize("far", ["3,0,3", "2000,2000,3"])
def test_tile_from_config_refuses_a_disconnected_cell_at_once(far):
    # the simple outline is not the boundary of a cut patch, so a cell
    # away from the rest, 2000 steps away too, is refused by the boundary
    # check, which makes no int the size of the cells' box
    text = load_text("tile.cfg").replace("1,0,3", far)
    tracemalloc.start()
    try:
        t0 = time.perf_counter()
        with pytest.raises(ConfigError,
                           match="is not the boundary of its 8 kite cells "
                                 "at hat proportions"):
            tile_from_config(text)
        seconds = time.perf_counter() - t0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert seconds < 0.1 and peak < 1 << 20


def test_tile_from_config_rejects_bad_turns():
    text = load_text("tile.cfg").replace("turns = 90", "turns = 45")
    with pytest.raises(ConfigError, match="30"):
        tile_from_config(text)


def test_tile_from_config_rejects_length_mismatch():
    text = load_text("tile.cfg").replace("edges = B", "edges = B B")
    with pytest.raises(ConfigError, match="turns"):
        tile_from_config(text)


def test_tile_config_rejects_reversed_walk():
    # reversing every turn makes the walk run clockwise; the exterior-turn
    # sum catches it at load time
    text = load_text("tile.cfg")
    orig = "turns = 90 60 0 60 -90 60 90 60 -90 60 90 -60 90 -60"
    flipped = "turns = " + " ".join(
        str(-int(t)) for t in orig.split("=")[1].split())
    assert orig in text
    with pytest.raises(ConfigError, match="360"):
        tile_from_config(text.replace(orig, flipped))
