import math
import random
import warnings
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hatfam.configfile import ConfigError, load_text
from hatfam.exactnum import (
    VEC_ZERO,
    VecE,
    parse_scalar,
    qs3,
    reflect_y_axis,
    rotate60,
    zeta_coords,
    zeta_vector,
)
from hatfam.geometry import (
    EDGE_A,
    EDGE_B,
    GeometryError,
    IDENTITY,
    KiteCell,
    LatticeError,
    Placement,
    TurtleSpec,
    TurtleStep,
    U1,
    U2,
    apply_placement,
    cell_neighbors,
    cell_reflect,
    cell_rotate60,
    cells_connected,
    check_kites,
    disjoint_cells,
    hat_kite_cells,
    is_simple,
    kite_centroid,
    kite_corners,
    lattice_decompose,
    outline_from_turtle,
    shoelace_area,
    tile_from_config,
    unit_k30,
    validate_outline,
)
from hatfam.substitution import HAT, build, expand
from hatfam.supervectors import hat_params, make_params

SQUARE = (VecE.of(0, 0), VecE.of(1, 0), VecE.of(1, 1), VecE.of(0, 1))
BOWTIE = (VecE.of(0, 0), VecE.of(2, 2), VecE.of(2, 0), VecE.of(0, 2))


def _p(a, b):
    return make_params(qs3(a), qs3(b))


def _point_in_polygon(pt: VecE, poly) -> bool:
    """Exact even-odd ray cast; pt must not lie on an edge."""
    inside = False
    for i, a in enumerate(poly):
        b = poly[(i + 1) % len(poly)]
        if (a.y > pt.y) == (b.y > pt.y):
            continue
        # x where edge ab crosses the horizontal through pt
        cross_x = a.x + (pt.y - a.y) * (b.x - a.x) / (b.y - a.y)
        if (cross_x - pt.x).sign() > 0:
            inside = not inside
    return inside


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
        v = VecE.of(rng.randint(-5, 5), qs3(0, rng.randint(-5, 5)))
        assert q1.compose(q2).apply(v) == q1.apply(q2.apply(v))


def test_compose_identity_and_associativity():
    rng = random.Random(4)
    for _ in range(40):
        q1, q2, q3 = (_random_placement(rng) for _ in range(3))
        assert IDENTITY.compose(q1) == q1
        assert q1.compose(IDENTITY) == q1
        assert q1.compose(q2.compose(q3)) == q1.compose(q2).compose(q3)


def test_unit_k30():
    assert unit_k30(0) == VecE.of(1, 0)
    assert unit_k30(3) == VecE.of(0, 1)
    assert unit_k30(6) == VecE.of(-1, 0)
    # 30 degrees: (sqrt(3)/2, 1/2)
    assert unit_k30(1) == VecE(qs3(0, Fraction(1, 2)), qs3(Fraction(1, 2)))


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
_VECTORS = st.builds(lambda xr, xs, yr, ys: VecE(qs3(xr, xs), qs3(yr, ys)),
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
@given(_VECTORS, _SCALAR)
def test_zeta_coords_round_trip(v, s):
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
    assert q.scaled(qs3(s, 1)).translation == v * qs3(s, 1)


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
        assert got.compose(q).apply(v) == got.apply(q.apply(v))
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
                  VecE(t.x * k / k, t.y + qs3(0, k) - qs3(0, k))),
        IDENTITY.compose(q),
        q.compose(IDENTITY),
        Placement(0, False, t).compose(Placement(q.rotation_k, q.reflected)),
        q.scaled(qs3(k, 1)).scaled(1 / qs3(k, 1)),
    ]
    for other in routes:
        assert other == q and hash(other) == hash(q)
    if v:
        moved = Placement(q.rotation_k, q.reflected, t + v)
        assert moved != q
    assert Placement(q.rotation_k + 1, q.reflected, t) != q
    assert Placement(q.rotation_k, not q.reflected, t) != q


# ------------------------------------------------------------------- turtles

def test_turtle_square():
    spec = TurtleSpec(tuple(TurtleStep(EDGE_A, 3) for _ in range(4)))
    spec.validate()
    o = outline_from_turtle(spec, _p(1, 2), VEC_ZERO, 0)
    assert len(o) == 4
    assert shoelace_area(o) == qs3(1)
    assert is_simple(o)


def test_turtle_requires_closure():
    steps = (TurtleStep(EDGE_A, 3), TurtleStep(EDGE_A, 3),
             TurtleStep(EDGE_B, 3), TurtleStep(EDGE_A, 3))
    spec = TurtleSpec(steps)
    spec.validate()
    with pytest.raises(GeometryError, match="close"):
        outline_from_turtle(spec, _p(1, 2), VEC_ZERO, 0)


def test_turtle_spec_validation():
    with pytest.raises(GeometryError):
        TurtleSpec((TurtleStep(EDGE_A, 6), TurtleStep(EDGE_A, 6))).validate()
    with pytest.raises(GeometryError, match="symbol"):
        TurtleSpec((TurtleStep("C", 4), TurtleStep(EDGE_A, 4),
                    TurtleStep(EDGE_A, 4))).validate()
    with pytest.raises(GeometryError, match="360"):
        TurtleSpec((TurtleStep(EDGE_A, 3), TurtleStep(EDGE_A, 3),
                    TurtleStep(EDGE_A, 3), TurtleStep(EDGE_A, 2))).validate()
    with pytest.raises(GeometryError, match="180"):
        TurtleSpec((TurtleStep(EDGE_A, 6), TurtleStep(EDGE_A, 3),
                    TurtleStep(EDGE_A, 3))).validate()


def test_is_simple():
    assert is_simple(SQUARE)
    assert not is_simple(BOWTIE)
    spike = (VecE.of(0, 0), VecE.of(2, 0), VecE.of(1, 0), VecE.of(1, 1))
    assert not is_simple(spike)


def test_validate_outline_checks_edge_lengths():
    with pytest.raises(GeometryError, match="edge"):
        validate_outline(SQUARE, _p(2, 3))
    validate_outline(SQUARE, _p(1, 2))
    # vertical edge crosses the bottom edge at (1, 0)
    crossed = (VecE.of(0, 0), VecE.of(2, 0), VecE.of(2, 1),
               VecE.of(1, 1), VecE.of(1, -1), VecE.of(0, -1))
    with pytest.raises(GeometryError, match="simple"):
        validate_outline(crossed, _p(2, 1))


def test_apply_placement_preserves_area():
    q = Placement(2, False, VecE.of(5, qs3(0, -3)))
    assert shoelace_area(apply_placement(SQUARE, q)) == qs3(1)
    mirrored = Placement(0, True, VEC_ZERO)
    assert shoelace_area(apply_placement(SQUARE, mirrored)) == qs3(-1)


# ------------------------------------------------------------ canonical tile

def test_canonical_outline_shape(tile, hat_p):
    o = tile.outline(hat_p)
    assert len(o) == 14
    assert o[0] == VEC_ZERO
    symbols = [step.symbol for step in tile.spec.steps]
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
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        p = make_params(parse_scalar(a), parse_scalar(b))
    assert shoelace_area(tile.outline(p)) == parse_scalar(area)


def test_canonical_outline_simple_at_many_shapes(tile):
    for a, b in [(1, 2), (3, 1), (7, 2), (1, 5)]:
        assert is_simple(tile.outline(_p(a, b)))


def test_cells_match_outline_by_centroid(tile, hat_p):
    """The 8 configured cells are exactly the kites whose centroids fall
    inside the outline, over a generous window of candidates."""
    poly = tile.outline(hat_p)
    inside = set()
    for q in range(-4, 5):
        for r in range(-4, 5):
            for k in range(6):
                cell = KiteCell(q, r, k)
                if _point_in_polygon(kite_centroid(cell), poly):
                    inside.add(cell)
    assert inside == set(tile.cells)


# ------------------------------------------------------------ the kite grid

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


def test_cell_neighbors_share_an_edge():
    for cell in (KiteCell(0, 0, 0), KiteCell(1, -1, 3), KiteCell(2, 2, 5)):
        nbrs = cell_neighbors(cell)
        assert len(set(nbrs)) == 4
        mine = set(kite_corners(cell))
        for nbr in nbrs:
            shared = mine & set(kite_corners(nbr))
            assert len(shared) == 2
            assert cell in cell_neighbors(nbr)


def test_cells_connected():
    assert cells_connected([KiteCell(0, 0, k) for k in range(6)])
    assert not cells_connected([KiteCell(0, 0, 0), KiteCell(5, 5, 0)])
    assert cells_connected([])


def test_lattice_decompose_round_trip():
    for m in range(-3, 4):
        for n in range(-3, 4):
            assert lattice_decompose(U1 * m + U2 * n) == (m, n)


@pytest.mark.parametrize("v", [
    VecE.of(1, 0),
    VecE.of(0, 1),
    VecE.of(3, qs3(0, 2)),
    VecE.of(qs3(0, 1), 0),
])
def test_lattice_decompose_rejects(v):
    with pytest.raises(LatticeError):
        lattice_decompose(v)


def test_transform_cells_matches_centroid_action(tile):
    rng = random.Random(12)
    every_orientation = [Placement(k, refl, U1 * (k - 2) + U2 * int(refl))
                         for k in range(6) for refl in (False, True)]
    for q in every_orientation + [_random_placement(rng) for _ in range(30)]:
        moved = hat_kite_cells(q, tile.cells)
        assert {kite_centroid(c) for c in moved} == \
            {q.apply(kite_centroid(c)) for c in tile.cells}


def test_hat_kite_cells_identity(tile):
    assert hat_kite_cells(IDENTITY, tile.cells) == tile.cells


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


def test_check_kites_skips_off_hat_proportions(tile):
    # two hats on the same spot: no kite check exists to catch them
    assert check_kites([IDENTITY, IDENTITY], _p(2, 3), tile) == \
        (True, "skipped: needs hat proportions")


def test_check_kites_at_any_hat_scale(layout, tile):
    details = set()
    for a in (1, 2, Fraction(1, 2)):
        p = make_params(qs3(a), qs3(0, a))
        placed = [q for q, _ in expand(build(HAT, 3, p, layout))]
        ok, detail = check_kites(placed, p, tile, connected=True)
        assert ok
        details.add(detail)
    assert details == {"440 kite cells, no overlap"}


def test_check_kites_names_the_clash(tile):
    placed = [IDENTITY, Placement(0, False, U1 * 9), Placement(0, False, U1)]
    ok, detail = check_kites(placed, hat_params(), tile)
    cell = disjoint_cells(placed, tile.cells)[1][2]
    assert not ok and detail == f"pieces 0 and 2 overlap on kite {cell}"


def test_check_kites_reports_a_lattice_miss(tile):
    ok, detail = check_kites([IDENTITY, Placement(0, False, VecE.of(1, 0))],
                             hat_params(), tile)
    assert not ok
    assert "kite lattice" in detail and "VecE(1, 0)" in detail


def test_check_kites_connectivity_is_opt_in(tile):
    apart = [IDENTITY, Placement(0, False, U1 * 9)]
    assert check_kites(apart, hat_params(), tile) == \
        (True, "16 kite cells, no overlap")
    assert check_kites(apart, hat_params(), tile, connected=True) == \
        (False, "patch is disconnected")


# ------------------------------------------------------------- config loads

def test_tile_from_config_rejects_bad_cells():
    text = load_text("tile.cfg")
    broken = text.replace("1,0,3", "1,0,9")
    with pytest.raises(ConfigError, match="corner"):
        tile_from_config(broken)
    short = text.replace("1,0,3", "0,0,0")
    with pytest.raises(ConfigError, match="duplicate"):
        tile_from_config(short)


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
    with pytest.raises(GeometryError, match="360"):
        tile_from_config(text.replace(orig, flipped))
