import re
import tracemalloc
from collections import Counter
from fractions import Fraction
from math import lcm
from operator import add, sub
from typing import NamedTuple

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from hatfam import substitution
from hatfam.configfile import load_text, value_vector
from hatfam.exactnum import (
    SQRT3,
    VEC_ZERO,
    QSqrt3,
    VecE,
    render_scalar,
    zeta_coords,
    zeta_vector,
)
from hatfam.geometry import (
    IDENTITY,
    SIDE_TURNS,
    LatticeError,
    Placement,
    _PRODUCT,
    disjoint_cells,
    hat_kite_cells,
    lattice_shift,
    packing_width,
    scaled,
)
from hatfam.sequences import tile_counts
from hatfam.substitution import (
    HAT,
    THC,
    Chain,
    ConstructionError,
    FormVec,
    SupertileNode,
    build,
    chain_at,
    check_kites,
    expand,
    layout_from_config,
    measured_supervector,
    search_layout,
)
from hatfam.supervectors import hat_params, make_params, v_closed

from placements import U1, U2, apply, kite_corners, rotate60

# a hand-made node's anchors, as Q(zeta) coordinates
ORIGIN = (0, 0, 0, 0)

VARIED = [
    (QSqrt3(1), QSqrt3(0, 1)),
    (QSqrt3(2), QSqrt3(3)),
    (QSqrt3(Fraction(7, 3)), QSqrt3(Fraction(1, 2))),
]


def _plus(form, v) -> FormVec:
    """`form` with the VecE v, a point of Z[zeta], added to its a-part."""
    c, d = zeta_coords(v)
    assert d == 1
    return form._replace(u=tuple(map(add, form.u, c)))


def _at(form, p) -> VecE:
    """The value of `form` at p in VecE arithmetic: the oracle of the
    chain's int evaluation."""
    return zeta_vector(form.u, 1) * p.a + zeta_vector(form.w, 1) * p.b


def _ring_with(layout, index, rotation_k):
    ring = list(layout.ring)
    ring[index] = rotation_k
    return layout._replace(ring=tuple(ring))


# ------------------------------------------------------------------ structure

def test_layout_table_shape(layout):
    assert layout.ring == (4, 5, 0, 0, 1, 2)
    assert layout.partner_reflected
    assert layout.partner_rotation_k == 3


def test_form_vec(layout):
    # the forms load as Q(zeta) ints, and a chain evaluates them at its
    # shape over the shape's denominator, as VecE arithmetic does
    form = FormVec(zeta_coords(VecE(QSqrt3(1), QSqrt3(2)))[0],
                   zeta_coords(VecE(QSqrt3(0), QSqrt3(0, 1)))[0])
    assert _at(form, make_params(QSqrt3(5), QSqrt3(7))) == \
        VecE(QSqrt3(5), QSqrt3(10, 7))
    assert layout.p4_gen2 == FormVec((3, 0, 0, 0), (0, 2, 0, -1))
    for a, b in VARIED:
        p = make_params(a, b)
        chain = Chain(p, layout._replace(p4_gen2=form))
        assert chain.den == lcm(a.d, b.d)
        assert zeta_vector(chain.p4_gen2, chain.den) == _at(form, p)


def test_layout_round_trips_through_replace(layout):
    form = layout.p4_gen2
    moved = _plus(form, U1)
    assert moved != form and moved.w == form.w
    assert moved._replace(u=form.u) == form
    cand = layout._replace(p4_gen2=moved)
    assert cand != layout and cand.ring == layout.ring
    assert cand._replace(p4_gen2=form) == layout


def test_supertile_nodes_compare_by_identity(layout, hat_p):
    node = build(HAT, 2, hat_p, layout)
    twin = SupertileNode(node.kind, node.generation, node.children,
                         node.labels, node.tail, node.head, node.den)
    assert twin != node and len({node, twin}) == 2
    assert twin.hats == node.hats


def test_a_node_den_is_a_multiple_of_every_den_below_it():
    # expand walks on the root's den, so a node whose den does not cover a
    # child's or a placement's is refused when it is made
    hat = SupertileNode(HAT, 1, (), (), ORIGIN, ORIGIN, 3)
    half = Placement(0, False, VecE(QSqrt3(Fraction(1, 2)), QSqrt3(0)))
    assert half.den == 2
    for den, children in ((2, ((hat, IDENTITY),)), (3, ((hat, half),)),
                          (1, ((hat, IDENTITY),))):
        with pytest.raises(ValueError, match=(
                f"^hat-2: den {den} is not a multiple of every child's "
                f"and placement's$")):
            SupertileNode(HAT, 2, children, ("T",), ORIGIN, ORIGIN, den)
    node = SupertileNode(HAT, 2, ((hat, half),), ("T",), ORIGIN, ORIGIN, 6)
    assert _fields(expand(node)) == _fields(_ref_expand(node))


def test_generation_one(layout, hat_p):
    one = build(HAT, 1, hat_p, layout)
    assert one.generation == 1 and one.children == ()
    assert list(expand(one)) == [(IDENTITY, False)]
    compound = build(THC, 1, hat_p, layout)
    assert compound.labels == ("hat", "partner")
    (hat, at), (same, partner) = compound.children
    assert hat is same and hat.children == () and at == IDENTITY
    hats = list(expand(compound))
    assert len(hats) == 2
    assert [refl for _, refl in hats] == [False, True]
    assert hats[1][0] == partner


def test_counts_match_recurrence(layout):
    # the DAG's count, the expansion's length and the recurrence agree,
    # at the hat and off the hat ratio
    for a, b in (VARIED[0], VARIED[2]):
        p = make_params(a, b)
        for kind in (HAT, THC):
            for n in range(1, 7):
                node = build(kind, n, p, layout)
                assert node.hats == sum(1 for _ in expand(node)) \
                    == tile_counts(kind, n)


def test_reflected_counts(layout, hat_p):
    # one reflected hat per embedded generation-1 compound: h and c count
    # them in hat and compound supertiles, by the tile-count recurrence
    h, c = 0, 1
    for n in range(1, 6):
        for kind, want in ((HAT, h), (THC, c)):
            node = build(kind, n, hat_p, layout)
            assert sum(1 for _, r in expand(node) if r) == want
        h, c = 6 * h + c, 5 * h + c


@pytest.mark.parametrize("a,b", VARIED, ids=["hat", "2-3", "7/3-1/2"])
def test_supervector_matches_closed_form(layout, a, b):
    p = make_params(a, b)
    for n in range(1, 9):
        for kind in (HAT, THC):
            node = build(kind, n, p, layout)
            assert measured_supervector(node) == v_closed(n, p)


def test_compound_drops_the_third_piece(layout, hat_p):
    for hat, thc in list(Chain(hat_p, layout).upto(4))[1:]:
        assert len(hat.children) == 7
        assert len(thc.children) == 6
        assert "P3" not in thc.labels
        # the open slot the next generation's P4 fills is the hat's P3
        drop = hat.labels.index("P3")
        assert thc.children == hat.children[:drop] + hat.children[drop + 1:]


def _under(node, q) -> SupertileNode:
    """A hand-made node holding `node` alone, placed by q."""
    return SupertileNode(node.kind, node.generation + 1, ((node, q),),
                         ("T",), ORIGIN, ORIGIN, lcm(node.den, q.den))


def test_expand_rerooted(layout, hat_p):
    node = build(THC, 3, hat_p, layout)
    q = Placement(2, True, U1 * 4)
    base = list(expand(node))
    moved = list(expand(_under(node, q)))
    assert moved == [(q.compose(qq), q.compose(qq).reflected)
                     for qq, _ in base]


# ------------------------------------------ expand against a composing walk

def _ref_expand(node, placement=IDENTITY):
    """The walk `expand` made before its integer steps: one composed
    Placement per DAG edge, depth first, children in order."""
    stack = [(node, placement)]
    while stack:
        node, placement = stack.pop()
        if not node.children:
            yield placement, placement.orientation >= 6
        else:
            stack += [(child, placement.compose(q))
                      for child, q in reversed(node.children)]


def _fields(placed):
    return [(q.orientation, q.coords, q.den, reflected)
            for q, reflected in placed]


# start placements: the identity, a reflected lattice motion, and a motion
# with denominators in every part of its translation
_STARTS = [IDENTITY, Placement(2, True, U1 * 4),
           Placement(5, False, VecE(QSqrt3(Fraction(5, 6), Fraction(-1, 4)),
                                    QSqrt3(Fraction(-2, 9), 3)))]


@pytest.mark.parametrize("a,b", [
    (QSqrt3(1), QSqrt3(0, 1)), (QSqrt3(2), QSqrt3(3)),
    (QSqrt3(Fraction(7, 3)), QSqrt3(Fraction(5, 2))),
    (QSqrt3(7, 1), QSqrt3(1, 2)),
])
def test_expand_matches_the_composing_walk(layout, a, b):
    p = make_params(a, b)
    for gen, pair in enumerate(Chain(p, layout).upto(5), 1):
        for node in pair:
            for start in _STARTS:
                got = _fields(expand(_under(node, start)))
                assert got == _fields(_ref_expand(node, start))
                assert len(got) == tile_counts(node.kind, gen)


_PART = st.builds(Fraction, st.integers(-40, 40), st.integers(1, 12))
_HAND_PLACEMENTS = st.builds(
    Placement, st.integers(0, 5), st.booleans(),
    st.builds(lambda x, y: VecE(QSqrt3(*x), QSqrt3(*y)),
              st.tuples(_PART, _PART), st.tuples(_PART, _PART)))


@st.composite
def _hand_made_dag(draw):
    """A DAG of up to four levels over one hat, each node holding one to
    three earlier nodes, shared, under placements with any denominators."""
    hat = SupertileNode(HAT, 1, (), (), ORIGIN, ORIGIN)
    nodes = [hat]
    for gen in range(2, draw(st.integers(2, 5)) + 1):
        picks = draw(st.lists(st.tuples(st.sampled_from(nodes),
                                        _HAND_PLACEMENTS),
                              min_size=1, max_size=3))
        den = lcm(*(d for child, q in picks for d in (child.den, q.den)))
        nodes.append(SupertileNode(HAT, gen, tuple(picks),
                                   tuple(map(str, range(len(picks)))),
                                   ORIGIN, ORIGIN, den))
    return nodes[-1]


@settings(derandomize=True, database=None, max_examples=80, deadline=None)
@given(_hand_made_dag(), _HAND_PLACEMENTS)
def test_expand_matches_the_composing_walk_on_hand_made_nodes(node, start):
    for q in (IDENTITY, start):
        assert _fields(expand(_under(node, q))) == \
            _fields(_ref_expand(node, q))


# ---------------------------------------------------------------- bad layouts

def test_validate_structure_rejections(layout):
    short = layout._replace(ring=layout.ring[:5])
    with pytest.raises(ConstructionError, match="6 ring pieces"):
        short.validate_structure()

    turned = _ring_with(layout, 3, 1)
    with pytest.raises(ConstructionError, match="rotation"):
        turned.validate_structure()

    layout.validate_structure()


def test_meeting_slot_mismatch(layout, hat_p):
    # build() trusts the table, so a meeting rotation that disagrees with
    # the omitted piece passes generation 2 (fixed offset) and collides
    # with the open slot at generation 3
    turned = _ring_with(layout, 3, 1)
    build(HAT, 2, hat_p, turned)
    with pytest.raises(ConstructionError, match="meeting rule unsatisfiable"):
        build(HAT, 3, hat_p, turned)


def test_anchor_mismatch(layout):
    # a moved tail2 moves head2 with it, so generation 2 holds, but P1 and
    # P5, which carry hat-3's tail and head, move by different steps; the
    # integer anchors are worded as the VecE they stand for
    shifted = layout._replace(
        tail2=_plus(layout.tail2, VecE(QSqrt3(1), QSqrt3(0))))
    for (a, b), got, want in zip(VARIED, [
            "VecE(7, 17*r3)", "VecE(-10+12*r3, 27+16*r3)",
            "VecE(-35/3+2*r3, 9/2+56/3*r3)"], [
            "VecE(8, 18*r3)", "VecE(-8+12*r3, 27+18*r3)",
            "VecE(-28/3+2*r3, 9/2+21*r3)"]):
        p = make_params(a, b)
        build(HAT, 2, p, shifted)
        with pytest.raises(ConstructionError) as caught:
            build(HAT, 3, p, shifted)
        assert str(caught.value) == (
            f"generation 3: anchor mismatch: hat head minus tail is {got}, "
            f"closed form gives {want}")


def test_build_input_validation(layout, hat_p):
    with pytest.raises(ValueError, match="kind"):
        build("turtle", 2, hat_p, layout)
    with pytest.raises(ValueError, match="generation"):
        build(HAT, 0, hat_p, layout)


def test_ring_rotation_variant_rejected(tile):
    # rotations from a near-miss arrangement: every piece lands off the
    # kite lattice or on top of a neighbor
    text = load_text("layout.cfg")
    orig = "rotations = -120 -60 0 0 60 120"
    assert orig in text
    variant = text.replace(orig, "rotations = -60 0 60 60 120 180")
    with pytest.raises(ConstructionError, match="generation 2"):
        layout_from_config(variant, tile)


def test_offset_perturbation_rejected(tile):
    text = load_text("layout.cfg")
    orig = "p4_offset_u = 3, 0"
    assert orig in text
    shifted = text.replace(orig, "p4_offset_u = 6, 1*r3")
    with pytest.raises(ConstructionError, match="overlap"):
        layout_from_config(shifted, tile)


PERTURBED = [
    ("6, 1*r3", "generation 2: hat-2: pieces P3 and P4 overlap on kite "
                "KiteCell(hex_q=3, hex_r=-1, corner_k=5)"),
    ("0, 3*r3", "generation 3: hat-3: pieces P1 and P2 overlap on kite "
                "KiteCell(hex_q=4, hex_r=-6, corner_k=0)"),
    ("-3, -4*r3", "generation 3: hat-3: pieces T and P1 overlap on kite "
                  "KiteCell(hex_q=1, hex_r=-2, corner_k=0)"),
]


def _perturbed_failure(tile, offset) -> str:
    text = load_text("layout.cfg").replace(
        "p4_offset_u = 3, 0", f"p4_offset_u = {offset}")
    with pytest.raises(ConstructionError) as caught:
        layout_from_config(text, tile)
    return str(caught.value)


@pytest.mark.parametrize("offset,message", PERTURBED,
                         ids=[offset for offset, _ in PERTURBED])
def test_offset_perturbation_messages(tile, offset, message):
    # a clash names the DAG node where a piece meets the earlier ones, the
    # two pieces, and the lowest kite they share, in the root's frame
    assert _perturbed_failure(tile, offset) == message


def _lattice_miss_layout(layout):
    """The configured layout with the generation-2 fourth piece pushed off
    the hexagon lattice by (1, 0)."""
    return layout._replace(
        p4_gen2=_plus(layout.p4_gen2, VecE(QSqrt3(1), QSqrt3(0))))


def test_lattice_miss_names_the_piece(layout, tile, hat_p):
    node = build(HAT, 3, hat_p, _lattice_miss_layout(layout))
    assert check_kites(node, tile) == (
        False, "piece hat-3/T/P4 is off the kite lattice: VecE(7, 0) is "
               "not on the hexagon lattice")


_STEPS = st.integers(-10 ** 40, 10 ** 40) | st.integers(-3, 3)


@pytest.mark.parametrize("o", range(12))
@settings(derandomize=True, database=None, max_examples=60, deadline=None)
@given(rotation_k=st.integers(0, 5), reflected=st.booleans(), m=_STEPS,
       n=_STEPS)
def test_turn_table_matches_the_composed_placement(o, rotation_k, reflected,
                                                   m, n):
    # orientation o turns a lattice step (m, n) as hat_kite_cells turns a
    # hexagon, by reading its sides (m, -m, n, -n, -m - n, m + n) through
    # SIDE_TURNS: the new m is side SIDE_TURNS[o][0] and the new n side
    # SIDE_TURNS[o][2]; and the kite pass turns a child's orientation by
    # _PRODUCT, in place of composing the placement
    q = Placement(rotation_k, reflected, U1 * m + U2 * n)
    turned = Placement(o % 6, o >= 6).compose(q)
    sides = (m, -m, n, -n, -m - n, m + n)
    assert lattice_shift(q) == (m, n)
    assert lattice_shift(turned) == (sides[SIDE_TURNS[o][0]],
                                     sides[SIDE_TURNS[o][2]])
    assert turned.orientation == _PRODUCT[o][q.orientation]


def _turned_miss(rotation_k, reflected) -> SupertileNode:
    """A hand-made generation-2 node whose compound piece P1, placed by
    (rotation_k, reflected), holds a partner off the hexagon lattice; a
    third hat after it is off the lattice too."""
    hat = SupertileNode(HAT, 1, (), (), ORIGIN, ORIGIN)
    off = Placement(1, False, VecE(QSqrt3(1), QSqrt3(0, 1)))
    pair = SupertileNode(THC, 1, ((hat, IDENTITY), (hat, off)),
                         ("hat", "partner"), ORIGIN, ORIGIN)
    return SupertileNode(
        HAT, 2, ((hat, IDENTITY),
                 (pair, Placement(rotation_k, reflected, U1 * 2 - U2)),
                 (hat, Placement(0, False, VecE(QSqrt3(1), QSqrt3(0))))),
        ("T", "P1", "P2"), ORIGIN, ORIGIN)


@pytest.mark.parametrize("rotation_k,reflected,vector", [
    (2, True, "VecE(-1, -1*r3)"),
    (1, False, "VecE(-1, 1*r3)"),
    (0, True, "VecE(-1, 1*r3)"),
    (5, False, "VecE(2, 0)"),
])
def test_lattice_miss_under_a_turned_piece(tile, rotation_k, reflected,
                                           vector):
    # the miss is named where the walk first reaches it, inside P1 before
    # the root's own P2, with the partner's vector turned into the root's
    # frame
    node = _turned_miss(rotation_k, reflected)
    for connected in (False, True):
        assert check_kites(node, tile, connected) == (
            False, f"piece hat-2/P1/partner is off the kite lattice: "
                   f"{vector} is not on the hexagon lattice")


def test_passing_check_composes_no_placement(layout, tile, hat_p,
                                             monkeypatch):
    # a pass takes one lattice step per DAG edge and turns it in ints
    calls, shifts = [], []
    compose, shift = Placement.compose, substitution.lattice_shift

    def counted(self, inner):
        calls.append(inner)
        return compose(self, inner)

    def counted_shift(q):
        shifts.append(q)
        return shift(q)

    monkeypatch.setattr(substitution, "lattice_shift", counted_shift)
    for connected in (False, True):
        node = build(HAT, 6, hat_p, layout)
        edges = sum(len(sub.children) for sub in _distinct_nodes(node))
        shifts.clear()
        monkeypatch.setattr(Placement, "compose", counted)
        assert check_kites(node, tile, connected) == \
            (True, "141688 kite cells, no overlap")
        monkeypatch.setattr(Placement, "compose", compose)
        assert calls == [] and len(shifts) <= edges == 61


def test_two_clashes_are_named_in_piece_order(layout, tile, hat_p):
    # the generation-2 fourth piece moved by U1 - U2 meets P3, and the
    # ring's last piece meets the core: the clash named is the one a
    # check piece by piece meets first, on either kind
    cand = layout._replace(p4_gen2=_plus(layout.p4_gen2, U1 - U2))
    for connected in (False, True):
        assert check_kites(build(HAT, 2, hat_p, cand), tile, connected) == (
            False, "hat-2: pieces P3 and P4 overlap on kite "
                   "KiteCell(hex_q=3, hex_r=-2, corner_k=0)")
        assert check_kites(build(THC, 2, hat_p, cand), tile, connected) == (
            False, "thc-2: pieces T and P6 overlap on kite "
                   "KiteCell(hex_q=1, hex_r=0, corner_k=0)")


def test_a_clash_is_named_before_a_fault_in_a_later_piece(tile):
    # T and P1 overlap, and the later piece P2, a compound of its own,
    # holds a clash inside: the earlier clash comes first, as it would
    # piece by piece, whichever piece the count check meets
    hat = SupertileNode(HAT, 1, (), (), ORIGIN, ORIGIN)
    bad = SupertileNode(THC, 1, ((hat, IDENTITY), (hat, IDENTITY)),
                        ("hat", "partner"), ORIGIN, ORIGIN)
    node = SupertileNode(
        HAT, 2, ((hat, IDENTITY), (hat, Placement(0, False, U2)),
                 (bad, Placement(0, False, U1 * 5))),
        ("T", "P1", "P2"), ORIGIN, ORIGIN)
    for connected in (False, True):
        assert _matches_flat(node, tile, connected) == (
            False, "hat-2: pieces T and P1 overlap on kite "
                   "KiteCell(hex_q=0, hex_r=1, corner_k=5)")
    assert check_kites(bad, tile) == (
        False, "thc-1: pieces hat and partner overlap on kite "
               "KiteCell(hex_q=0, hex_r=0, corner_k=0)")


def test_a_passing_check_looks_for_no_clash(layout, tile, hat_p,
                                             monkeypatch):
    # one bit count per int decides a pass: no piece is ANDed
    def never(*args):
        raise AssertionError("a passing check looked for a clash")
    monkeypatch.setattr(substitution, "_fault", never)
    for connected in (False, True):
        assert check_kites(build(HAT, 6, hat_p, layout), tile, connected) \
            == (True, "141688 kite cells, no overlap")


def _p2_on_p1(hat_p, layout) -> SupertileNode:
    """Hat 5 with P2 put on P1's placement: the clash lies between two
    generation-4 pieces, above any shared sub-supertile."""
    hat5 = build(HAT, 5, hat_p, layout)
    children = list(hat5.children)
    p1, p2 = hat5.labels.index("P1"), hat5.labels.index("P2")
    children[p2] = children[p2][0], children[p1][1]
    return SupertileNode(hat5.kind, hat5.generation, tuple(children),
                         hat5.labels, hat5.tail, hat5.head, hat5.den)


def _bridged_compound() -> SupertileNode:
    """A hand-made generation-2 node: a compound whose partner lies three
    lattice steps from its hat, beside a third hat that touches both."""
    hat = SupertileNode(HAT, 1, (), (), ORIGIN, ORIGIN)
    pair = SupertileNode(
        THC, 1, ((hat, IDENTITY), (hat, Placement(0, False, U2 - U1 * 3))),
        ("hat", "partner"), ORIGIN, ORIGIN)
    return SupertileNode(
        HAT, 2, ((pair, IDENTITY), (hat, Placement(2, True, U2 - U1))),
        ("T", "P1"), ORIGIN, ORIGIN)


def test_check_kites_expands_no_hat(layout, tile, hat_p, monkeypatch):
    # every verdict, failures included, comes from the DAG's ints
    def never(*args):
        raise AssertionError("check_kites expanded a node")
    monkeypatch.setattr(substitution, "expand", never)
    for connected in (False, True):
        assert check_kites(build(HAT, 6, hat_p, layout), tile, connected) \
            == (True, "141688 kite cells, no overlap")
        ok, detail = check_kites(_p2_on_p1(hat_p, layout), tile, connected)
        assert not ok and detail.startswith("hat-5: pieces P1 and P2 overlap")
        node = build(HAT, 3, hat_p, _lattice_miss_layout(layout))
        assert check_kites(node, tile, connected)[1].startswith(
            "piece hat-3/T/P4 is off")
    assert check_kites(_bridged_compound(), tile, connected=True) == \
        (False, "hat-2/T: patch is disconnected")
    for offset, message in PERTURBED:
        assert _perturbed_failure(tile, offset) == message


def test_disconnected_piece_fails_inside_a_connected_patch(tile):
    # the root's 24 kites are one edge-connected patch, but the two hats
    # of its compound piece touch only through the third hat: every
    # supertile must be connected, and the failure names the piece
    node = _bridged_compound()
    assert _edge_connected([cell for q, _ in expand(node)
                            for cell in hat_kite_cells(q, tile.cells)])
    assert check_kites(node, tile) == (True, "24 kite cells, no overlap")
    assert _matches_flat(node, tile, True) == \
        (False, "hat-2/T: patch is disconnected")
    assert check_kites(node.children[0][0], tile, connected=True) == \
        (False, "thc-1: patch is disconnected")


def test_overlap_is_named_before_an_earlier_disconnection(tile):
    # the disconnected compound T is reached first, but the two copies of
    # the bridging hat after it overlap: a clash anywhere is named before
    # any disconnection
    (pair, core), piece = _bridged_compound().children
    node = SupertileNode(HAT, 2, ((pair, core), piece, piece),
                         ("T", "P1", "P2"), ORIGIN, ORIGIN)
    message = ("hat-2: pieces P1 and P2 overlap on kite "
               "KiteCell(hex_q=-2, hex_r=1, corner_k=0)")
    assert _matches_flat(node, tile, True) == (False, message)
    assert check_kites(node, tile) == (False, message)
    assert check_kites(pair, tile, connected=True) == \
        (False, "thc-1: patch is disconnected")


def test_far_partner_is_disconnected_without_a_large_allocation(tile):
    # the partner 10^6 lattice steps away in q and -10^6 in r: a bitset
    # over the generation-1 compound would span about 6*10^12 bits, so the
    # sparse patch is refused before any int is made
    text = load_text("layout.cfg")
    assert "offset_u = 3/2, 3/2*r3" in text
    text = text.replace("offset_u = 3/2, 3/2*r3",
                        "offset_u = 6000003/2, -1999997/2*r3")
    tracemalloc.start()
    try:
        with pytest.raises(ConstructionError) as caught:
            layout_from_config(text, tile)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert str(caught.value) == (
        "generation 1: thc-1: patch too sparse for the kite check: "
        "6000042000072 bits for 2 hats, over 256 per hat")
    assert peak < 4 * 2 ** 20


def test_a_compound_clash_is_named_before_a_later_lattice_miss(
        layout, tile, hat_p):
    # the partner on top of the first hat makes thc-1 clash, and the
    # generation-2 fourth piece lies off the hexagon lattice: thc-1 comes
    # first, as it would checking each supertile in turn
    case = _lattice_miss_layout(layout)._replace(
        partner_rotation_k=0, partner_reflected=False,
        partner_offset=FormVec(ORIGIN, ORIGIN))
    assert check_kites(build(HAT, 2, hat_p, case), tile)[1].startswith(
        "piece hat-2/P4 is off the kite lattice")
    with pytest.raises(ConstructionError) as caught:
        layout_from_config(_layout_text(case), tile)
    assert str(caught.value) == (
        "generation 1: thc-1: pieces hat and partner overlap on kite "
        "KiteCell(hex_q=0, hex_r=0, corner_k=0)")


def test_a_clash_is_named_before_a_later_anchor_mismatch(
        layout, tile, hat_p, monkeypatch):
    # a generation-3 anchor off the closed form is raised only once the
    # generations below it pass, so a generation-2 clash comes first
    closed = substitution.v_closed
    monkeypatch.setattr(substitution, "v_closed", lambda n, p: closed(
        n, p) + (U1 if n == 3 else VEC_ZERO))
    offset, message = PERTURBED[0]
    assert offset == "6, 1*r3"
    shifted = layout._replace(p4_gen2=layout.p4_gen2._replace(
        u=zeta_coords(VecE(QSqrt3(6), QSqrt3(0, 1)))[0]))
    for case in (layout, shifted):
        with pytest.raises(ConstructionError,
                           match="^generation 3: anchor mismatch"):
            build(HAT, 3, hat_p, case)
    assert message.startswith("generation 2: hat-2: pieces")
    assert _perturbed_failure(tile, offset) == message


def test_layout_validation_assembles_each_generation_once(tile, monkeypatch):
    calls = []
    assemble = substitution._assemble

    def counted(n, *args):
        calls.append(n)
        return assemble(n, *args)

    monkeypatch.setattr(substitution, "_assemble", counted)
    layout_from_config(load_text("layout.cfg"), tile)
    assert calls == [2, 3, 4]


def _spy_kite_ints(monkeypatch) -> list:
    """The (kite state, orientation, width) of each kite int a pass makes,
    in the order made, while the test runs: an int the pass already holds
    is read where it is needed, and a call that found one would only read
    it."""
    made, real = [], substitution._kite_bits

    def spied(kites, o, width, ints, *args):
        if (kites, o) not in ints:
            made.append((kites, o, width))
        return real(kites, o, width, ints, *args)

    monkeypatch.setattr(substitution, "_kite_bits", spied)
    return made


def _spy_builds(monkeypatch) -> list:
    """Each node `substitution.build` returns while the test runs."""
    built, real = [], substitution.build

    def spied(*args):
        built.append(real(*args))
        return built[-1]

    monkeypatch.setattr(substitution, "build", spied)
    return built


def _node_of(roots, tile) -> dict:
    """The node of each kite state for the tile under `roots`, by id."""
    return {id(node._kites[tile.cells]): node for root in roots
            for node in _distinct_nodes(root) if tile.cells in node._kites}


def _made_once_at_one_width(made) -> bool:
    return (len({(id(kites), o) for kites, o, _ in made}) == len(made)
            and len({width for *_, width in made}) == 1)


def test_layout_validation_makes_each_kite_int_once(tile, hat_p,
                                                    monkeypatch):
    # one ordered pass over the eight supertiles of generations 1-4, at
    # one packing width, tests overlap and contact together: each (node,
    # orientation) int is made once
    made, chains = _spy_kite_ints(monkeypatch), {}
    layout = layout_from_config(load_text("layout.cfg"), tile, chains)
    assert made and _made_once_at_one_width(made)
    node_of = _node_of(chains[layout, hat_p].pairs[3], tile)
    assert {node_of[id(kites)].generation for kites, _, _ in made} == \
        {1, 2, 3, 4}


def test_search_makes_each_kite_int_once(tile, hat_p, monkeypatch):
    # the candidates are decided in one pass at one packing width, so the
    # generation-1 nodes they share make each (node, orientation) int once
    chains = {}
    layout = layout_from_config(load_text("layout.cfg"), tile, chains)
    want = _reference_search(hat_p, layout, tile, 2)
    made, built = _spy_kite_ints(monkeypatch), _spy_builds(monkeypatch)
    assert search_layout(hat_p, layout, tile, 2, chains) == want
    assert len(built) == 25 and _made_once_at_one_width(made)
    node_of = _node_of(built, tile)
    # each candidate makes one int, its own at the root's orientation, and
    # every other int is of the generation 1 they share
    ints = [(node_of[id(kites)], o) for kites, o, _ in made]
    assert sorted((id(node), o) for node, o in ints if node in built) == \
        sorted((id(node), 0) for node in built)
    assert {id(node) for node, _ in ints if node not in built} == \
        {id(node) for node in chains[layout, hat_p].pairs[0]}


# ------------------------------------- validation against a check per node

def _form_lines(key, value) -> list:
    """The config lines key_u and key_w of the form `value`."""
    return [f"{key}_{part} = {render_scalar(v.x)}, {render_scalar(v.y)}"
            for part, v in zip("uw", (zeta_vector(c, 1) for c in value))]


def _layout_text(layout) -> str:
    """`layout` written as a layout config, [anchors] last."""
    return "\n".join([
        "version = 1", "[partner]",
        f"rotation = {layout.partner_rotation_k * 60}",
        f"reflected = {'yes' if layout.partner_reflected else 'no'}",
        *_form_lines("offset", layout.partner_offset),
        "[ring]", "rotations = " + " ".join(str(k * 60) for k in layout.ring),
        "[gen2]", *_form_lines("p4_offset", layout.p4_gen2),
        "[anchors]", *(line for key in ("tail1", "tail2")
                       for line in _form_lines(key, getattr(layout, key)))])


def _reference_fault(layout, tile):
    """The first fault of `layout` at hat proportions, found by checking
    each supertile of generations 1-4 in turn on a fresh chain, each
    generation assembled once the one before it passes; None if none
    fails."""
    try:
        for gen, nodes in enumerate(Chain(hat_params(), layout).upto(4), 1):
            for node in nodes:
                ok, detail = check_kites(node, tile, connected=True)
                if not ok:
                    return f"generation {gen}: {detail}"
    except ConstructionError as e:
        return str(e)
    return None


def _half_step(m, n) -> VecE:
    """(m*U1 + n*U2)/2: a lattice point when m and n are even."""
    return VecE(QSqrt3(Fraction(3 * m, 2)), QSqrt3(0, Fraction(m + 2 * n, 2)))


# the head anchors layout.cfg once carried, traced, as it wrote them; each
# is now its tail plus V_n, and a head key is not read
TRACED_HEADS = {"head1": ("1/2, 3/2*r3", "1/2*r3, 1/2"),
                "head2": ("3/2, 5/2*r3", "3/2*r3, 3/2")}


def _traced_head(key) -> FormVec:
    return FormVec(*(zeta_coords(value_vector(text))[0]
                     for text in TRACED_HEADS[key]))


# (id, edits): fields of the shipped layout to replace, a form shifted by
# the VecE given; a head key, not a field, is written into the text, as an
# old layout carried it, at its traced form so shifted, and changes nothing
_SWEEP = (
    [(f"p4({m},{n})", {"p4_gen2": _half_step(m, n)})
     for m in range(-4, 5) for n in range(-4, 5)]
    + [(f"partner({m},{n})", {"partner_offset": _half_step(m, n)})
       for m in range(-2, 3) for n in range(-2, 3)]
    + [(f"partner-rot{k}-{r}", {"partner_rotation_k": k,
                                "partner_reflected": r})
       for k in range(6) for r in (False, True)]
    + [(f"ring{list(i)}={k}",
        {"ring": tuple(k if j in i else rot
                       for j, rot in enumerate((4, 5, 0, 0, 1, 2)))})
       for i in ((0,), (1,), (2, 3), (4,), (5,)) for k in range(6)]
    + [(f"{keys}+{v!r}", dict.fromkeys(keys.split("&"), v))
       for keys in ("tail1", "head1", "tail2", "head2", "tail1&head1",
                    "tail2&head2", "head1&head2")
       for v in (VecE(QSqrt3(1), QSqrt3(0)), U1, U2)]
    + [(f"head1&head2+{VEC_ZERO!r}", {"head1": VEC_ZERO, "head2": VEC_ZERO})]
    + [(f"far-partner({m},{n})", {"partner_offset": _half_step(m, n)})
       for m, n in ((10 ** 6, 0), (0, 10 ** 6), (2 * 10 ** 6, -10 ** 6))])


@pytest.mark.parametrize("edits", [edits for _, edits in _SWEEP],
                         ids=[name for name, _ in _SWEEP])
def test_validation_words_a_fault_as_a_check_of_each_supertile(
        layout, tile, edits):
    # one ordered pass over the eight supertiles raises exactly what
    # checking each in turn, assembling each generation after the last
    # passed, finds first
    case = layout._replace(**{
        key: _plus(getattr(layout, key), v) if isinstance(v, VecE) else v
        for key, v in edits.items() if key not in TRACED_HEADS})
    text = "\n".join([_layout_text(case), *(
        line for key, v in edits.items() if key in TRACED_HEADS
        for line in _form_lines(key, _plus(_traced_head(key), v)))])
    want = _reference_fault(case, tile)
    if want is None:
        assert layout_from_config(text, tile) == case
    else:
        with pytest.raises(ConstructionError) as caught:
            layout_from_config(text, tile)
        assert str(caught.value) == want


# -------------------------------------------------------------------- search

def test_search_recovers_configured_offset(layout, tile, hat_p):
    found = search_layout(hat_p, layout, tile, window=2)
    assert {zeta_vector(cand.p4_gen2.u, 1) for cand in found} == {
        VecE(QSqrt3(-3), QSqrt3(0, -4)),
        VecE(QSqrt3(0), QSqrt3(0, 3)),
        VecE(QSqrt3(3), QSqrt3(0)),
    }
    assert layout.p4_gen2 in [cand.p4_gen2 for cand in found]


def _survives_generation_three(cand, tile, hat_p):
    try:
        node = build(HAT, 3, hat_p, cand)
    except ConstructionError:
        return False
    return check_kites(node, tile, connected=True)[0]


def test_configured_offset_is_the_generation_three_survivor(
        layout, tile, hat_p):
    found = search_layout(hat_p, layout, tile, window=2)
    survivors = [cand for cand in found
                 if _survives_generation_three(cand, tile, hat_p)]
    assert len(survivors) == 1
    assert survivors[0].p4_gen2 == layout.p4_gen2


def test_search_guards(layout, tile):
    with pytest.raises(ConstructionError, match="hat proportions"):
        search_layout(make_params(QSqrt3(2), QSqrt3(3)), layout, tile)


def test_search_reports_empty_window(layout, tile, hat_p):
    nudged = layout._replace(p4_gen2=_plus(layout.p4_gen2, U1))
    with pytest.raises(ConstructionError, match="no workable"):
        search_layout(hat_p, nudged, tile, window=0)


def _reference_search(p, layout, tile, window):
    """The search as a fresh build and kite check per offset: each
    candidate assembles and checks a generation 1 of its own."""
    found = []
    for dm in range(-window, window + 1):
        for dn in range(-window, window + 1):
            shift = U1 * dm + U2 * dn
            cand = layout._replace(p4_gen2=_plus(layout.p4_gen2, shift))
            if check_kites(build(HAT, 2, p, cand), tile, connected=True)[0]:
                found.append(cand)
    if not found:
        raise ConstructionError(
            f"no workable fourth-piece offset within {window} lattice "
            f"steps of the configured one")
    return found


def _outcome(search, *args):
    """What `search` returns, or the text of the ConstructionError it
    raises."""
    try:
        return search(*args)
    except ConstructionError as e:
        return str(e)


@pytest.mark.parametrize("key,move", [
    (None, None),
    ("p4_gen2", VecE(QSqrt3(1), QSqrt3(0))),
    ("partner_offset", U1),
    ("tail1", U2),
    ("tail2", U1),
], ids=["shipped", "p4-off-lattice", "partner-moved", "tail1-moved",
        "tail2-moved"])
def test_search_on_a_shared_generation_one_matches_a_build_per_offset(
        layout, tile, hat_p, key, move):
    if key:
        form = getattr(layout, key)
        layout = layout._replace(**{key: _plus(form, move)})
    got = _outcome(search_layout, hat_p, layout, tile, 2)
    assert got == _outcome(_reference_search, hat_p, layout, tile, 2)


def test_search_builds_each_candidate_on_one_generation_one(
        layout, tile, hat_p, monkeypatch):
    builds, anchors = [], []
    real_build, real_check = substitution.build, substitution._check_anchor

    def spied_build(kind, n, p, cand, chains=None):
        node = real_build(kind, n, p, cand, chains)
        builds.append((kind, n, cand, chains, node))
        return node

    def spied_check(n, *args):
        anchors.append(n)
        return real_check(n, *args)

    monkeypatch.setattr(substitution, "build", spied_build)
    monkeypatch.setattr(substitution, "_check_anchor", spied_check)
    found = search_layout(hat_p, layout, tile, window=1)
    assert len(builds) == 9
    # one candidate chain per build, held under its layout and the shape
    # as `chain_at` reads it, all on the search's one generation 1
    for kind, n, cand, chains, node in builds:
        assert (kind, n, list(chains)) == (HAT, 2, [(cand, hat_p)])
        assert chains[cand, hat_p].layout is cand
        assert chain_at(hat_p, cand, chains) is chains[cand, hat_p]
    assert len({id(chains[cand, hat_p].pairs[0])
                for _, _, cand, chains, _ in builds}) == 1
    assert len({id(node.children[0][0]) for *_, node in builds}) == 1
    # generations 1 and 2 hold their anchors by construction
    assert anchors == []
    assert [cand.p4_gen2 for cand in found] == [layout.p4_gen2]


def test_search_floods_no_overlapping_candidate(tile, hat_p, monkeypatch):
    # a candidate whose int lost bits fails on its overlap, so the contact
    # test grows a patch only for nodes whose int kept every bit
    chains = {}
    layout = layout_from_config(load_text("layout.cfg"), tile, chains)
    want = search_layout(hat_p, layout, tile, 1)
    stack, made, floods = [], [], []
    bits_of = substitution._kite_bits
    connected_of = substitution.cells_connected

    def spied_bits(kites, *args):
        stack.append(kites)
        made.append((kites, bits_of(kites, *args)))
        stack.pop()
        return made[-1][1]

    def spied_connected(parts, width):
        whole = 0
        for bits in parts:
            whole |= bits
        floods.append((stack[-1], whole))
        return connected_of(parts, width)

    monkeypatch.setattr(substitution, "_kite_bits", spied_bits)
    monkeypatch.setattr(substitution, "cells_connected", spied_connected)
    built = _spy_builds(monkeypatch)
    assert search_layout(hat_p, layout, tile, 1, chains) == want
    node_of = _node_of(built, tile)

    def whole(kites, bits) -> bool:
        return bits.bit_count() == len(tile.cells) * node_of[id(kites)].hats

    assert floods and all(whole(*flood) for flood in floods)
    assert not all(whole(*int_made) for int_made in made)


@pytest.mark.parametrize("window", [1, 2, 3])
def test_search_on_the_call_chain_reuses_its_generation_one(
        tile, hat_p, window, monkeypatch):
    # given the call's chains, the candidates are built on the generation
    # 1 that layout validation assembled and checked, and find what a
    # search on a generation 1 of its own finds
    text = load_text("layout.cfg")
    want = search_layout(hat_p, layout_from_config(text, tile), tile, window)
    chains = {}
    layout = layout_from_config(text, tile, chains)
    held = chains[layout, hat_p]
    gen1 = held.pairs[0]
    builds, anchors = [], []
    real_build, real_check = substitution.build, substitution._check_anchor

    def spied_build(kind, n, p, cand, chains=None):
        node = real_build(kind, n, p, cand, chains)
        builds.append(node)
        return node

    def spied_check(n, *args):
        anchors.append(n)
        return real_check(n, *args)

    monkeypatch.setattr(substitution, "build", spied_build)
    monkeypatch.setattr(substitution, "_check_anchor", spied_check)
    got = search_layout(hat_p, layout, tile, window, chains)
    assert got == want
    assert anchors == []  # generation 2 holds its anchors by construction
    # hat-2's core is thc-1, and its ring pieces hat-1
    assert all(node.children[0][0] is gen1[1]
               and node.children[1][0] is gen1[0] for node in builds)
    # the call's chain is left as validation made it
    assert chains == {(layout, hat_p): held} and held.layout is layout
    assert len(held.pairs) == 4 and held.pairs[0] is gen1


def _same_assembly(got, want) -> bool:
    """Whether two generation-n nodes hold the same placements and
    anchors."""
    return ([q for _, q in got.children] == [q for _, q in want.children]
            and (got.tail, got.head, got.den) == (want.tail, want.head,
                                                  want.den))


def test_one_dict_holds_each_layouts_chain(layout, hat_p):
    # the chains are keyed by layout and shape, so two layouts' chains at
    # one shape share a dict, and each is got back unchanged as its own
    other = layout._replace(p4_gen2=_plus(layout.p4_gen2, U1))
    chains = {}
    mine, theirs = (chain_at(hat_p, lay, chains) for lay in (layout, other))
    assert chains == {(layout, hat_p): mine, (other, hat_p): theirs}
    assert build(HAT, 2, hat_p, other, chains) is theirs.node(HAT, 2)
    assert build(HAT, 2, hat_p, layout, chains) is mine.node(HAT, 2)
    for lay, chain in ((layout, mine), (other, theirs)):
        assert chain_at(hat_p, lay, chains) is chain and chain.layout is lay
        assert len(chain.pairs) == 2 and _same_assembly(
            chain.node(HAT, 2), Chain(hat_p, lay).node(HAT, 2))
    assert len(chains) == 2
    # a chain moved to the other layout is held under it, and assembles
    # what a fresh chain of it does on the first chain's generation 1
    moved = mine.moved_p4(other, zeta_coords(U1)[0])
    assert chain_at(hat_p, other, {(other, hat_p): moved}) is moved
    got = moved.node(HAT, 2)
    assert got.children[0][0] is mine.node(THC, 1)
    assert _same_assembly(got, Chain(hat_p, other).node(HAT, 2))


# ------------------------------------------------ bitset against flat check

def _edge_connected(cells) -> bool:
    """Independent oracle: kites are adjacent when they share a corner
    pair, compared as exact points."""
    by_edge = {}
    for cell in cells:
        corners = kite_corners(cell)
        for i in range(4):
            edge = frozenset((corners[i], corners[(i + 1) % 4]))
            by_edge.setdefault(edge, []).append(cell)
    todo = set(cells)
    stack = [todo.pop()] if todo else []
    while stack:
        cur = stack.pop()
        corners = kite_corners(cur)
        for i in range(4):
            for nb in by_edge[frozenset((corners[i], corners[(i + 1) % 4]))]:
                if nb in todo:
                    todo.remove(nb)
                    stack.append(nb)
    return not todo


def _distinct_nodes(node):
    """Every node of the DAG under `node`, itself included, once."""
    found, stack = {}, [node]
    while stack:
        cur = stack.pop()
        if id(cur) not in found:
            found[id(cur)] = cur
            stack += [child for child, _ in cur.children]
    return found.values()


def _flat_check(node, tile, connected):
    """check_kites's verdict, computed hat by hat, with a failure worded
    in the flat check's own terms; `connected` asks every distinct node's
    hats to cover one edge-connected patch."""
    try:
        ok, found = disjoint_cells([q for q, _ in expand(node)], tile.cells)
    except LatticeError as e:
        return False, f"piece off the kite lattice: {e}"
    if not ok:
        i, j, cell = found
        return False, f"pieces {i} and {j} overlap on kite {cell}"
    if connected and not all(
            _edge_connected([cell for q, _ in expand(sub)
                             for cell in hat_kite_cells(q, tile.cells)])
            for sub in _distinct_nodes(node)):
        return False, "patch is disconnected"
    return True, f"{len(found)} kite cells, no overlap"


_KINDS = ("overlap on kite", "off the kite lattice", "disconnected")
_CLASH = re.compile(r"(\S+): pieces (\S+) and (\S+) overlap on kite "
                    r"KiteCell\(hex_q=(-?\d+), hex_r=(-?\d+), corner_k=(\d)\)")


def _kind(detail: str) -> str:
    """The failure kind a detail words, or the detail itself for a pass."""
    return next((kind for kind in _KINDS if kind in detail), detail)


def _assert_clash_is_real(node, tile, detail):
    """The kite a clash names is covered by two or more of the root's
    hats, and by each of the two pieces named on the node at the path."""
    path, first, second, *cell = _CLASH.fullmatch(detail).groups()
    cell = tuple(map(int, cell))
    covered = Counter(c for h, _ in expand(node)
                      for c in hat_kite_cells(h, tile.cells))
    assert covered[cell] >= 2
    at = IDENTITY
    for label in path.split("/")[1:]:
        node, q = node.children[node.labels.index(label)]
        at = at.compose(q)
    for label in (first, second):
        piece, q = node.children[node.labels.index(label)]
        assert any(cell in hat_kite_cells(at.compose(q).compose(h),
                                          tile.cells)
                   for h, _ in expand(piece))


def _matches_flat(node, tile, connected):
    """check_kites's result, asserted to agree with the flat check in
    verdict and failure kind, exactly on a pass."""
    got = check_kites(node, tile, connected)
    want = _flat_check(node, tile, connected)
    assert got[0] == want[0] and _kind(got[1]) == _kind(want[1])
    if "overlap on kite" in got[1]:
        _assert_clash_is_real(node, tile, got[1])
    return got


def _root_cells(node, tile):
    """The root's kite bitset decoded to (hex_q, hex_r, corner_k) cells:
    bit 6*(q*width + r) + k is the cell (q_lo + q, r_lo + r, k), where the
    root's reach along -q and -r is -q_lo and -r_lo."""
    kites = substitution._kite_state(node, tile.cells)
    _, q_lo, r_hi, r_lo, *_ = kites.reach
    q_lo, r_lo = -q_lo, -r_lo
    width = packing_width(r_hi - r_lo)
    bits = substitution._kite_bits(kites, 0, width, {}, False)
    out = set()
    for i, bit in enumerate(reversed(bin(bits)[2:])):
        if bit == "1":
            v, k = divmod(i, 6)
            q, r = divmod(v, width)
            out.add((q_lo + q, r_lo + r, k))
    return out


@pytest.mark.parametrize("kind", [HAT, THC])
def test_packed_cells_equal_the_flat_cells(layout, tile, hat_p, kind):
    for gen, nodes in enumerate(Chain(hat_p, layout).upto(6), 1):
        node = nodes[kind == THC]
        ok, flat = disjoint_cells([q for q, _ in expand(node)], tile.cells)
        assert ok and len(flat) == 8 * tile_counts(kind, gen)
        assert _root_cells(node, tile) == set(flat)
        assert check_kites(node, tile) == _flat_check(node, tile, False)


def test_pass_order_on_one_chain_gives_a_fresh_chains_verdicts(
        layout, tile, hat_p):
    # each pass keeps its ints to itself: on one chain, a pass without
    # contact then one with it, on a wide root and then on a narrow one
    # under it, each give what the same pass gives on a fresh chain.  The
    # fourth piece at generation 2 stays, moves to clash at generations 2
    # and 3, to disconnect hat-2, and off the lattice.
    kinds = set()
    for move in (VEC_ZERO, U1, VecE(QSqrt3(-3), QSqrt3(0, 3)), U2,
                 VecE(QSqrt3(1), QSqrt3(0))):
        case = layout._replace(p4_gen2=_plus(layout.p4_gen2, move))
        chain = Chain(hat_p, case)
        wide, narrow = chain.node(HAT, 4), chain.node(HAT, 2)
        reach = [substitution._kite_state(node, tile.cells).reach
                 for node in (wide, narrow)]
        if all(reach):  # packed at the widths their r spans need
            assert packing_width(sum(reach[0][2:4])) > \
                packing_width(sum(reach[1][2:4]))
        for node in (wide, narrow):
            for connected in (False, True):
                got = check_kites(node, tile, connected)
                assert got == check_kites(Chain(hat_p, case).node(
                    HAT, node.generation), tile, connected)
                kinds.add(_kind(got[1]) if not got[0] else "ok")
    assert kinds == {"ok", *_KINDS}


def test_root_clash_matches_the_flat_check(layout, tile, hat_p):
    node = _p2_on_p1(hat_p, layout)
    for connected in (False, True):
        got = _matches_flat(node, tile, connected)
        assert _kind(got[1]) == "overlap on kite"


def test_search_candidates_match_the_flat_check(layout, tile, hat_p):
    # the search window, and offsets off the lattice, at generations 2-4:
    # clashes, disconnected patches and lattice misses
    shifts = [U1 * dm + U2 * dn for dm in range(-2, 3) for dn in range(-2, 3)]
    shifts += [VecE(QSqrt3(1), QSqrt3(0)), VecE(QSqrt3(0), QSqrt3(0, 1))]
    verdicts = set()
    for shift in shifts:
        cand = layout._replace(p4_gen2=_plus(layout.p4_gen2, shift))
        for gen in (2, 3, 4):
            try:
                node = build(HAT, gen, hat_p, cand)
            except ConstructionError:
                continue
            for connected in (False, True):
                got = _matches_flat(node, tile, connected)
                verdicts.add(_kind(got[1]) if not got[0] else "ok")
    assert verdicts == {"ok", *_KINDS}


# each (10^6, -w * 10^6) lands the partner on the first hat if rows
# were packed w wide
@pytest.mark.parametrize("m,n", [(10 ** 6, -w * 10 ** 6) for w in range(1, 12)]
                         + [(0, 10 ** 6), (-10 ** 6, 10 ** 6 - 1)])
def test_far_compound_matches_the_flat_check(tile, monkeypatch, m, n):
    # the flat check finds the two hats apart, but the sparse patch is
    # refused before any bitset is made
    monkeypatch.setattr(substitution, "_kite_bits", None)
    partner = Placement(0, False, U1 * m + U2 * n)
    hat = SupertileNode(HAT, 1, (), (), ORIGIN, ORIGIN)
    node = SupertileNode(THC, 1, ((hat, IDENTITY), (hat, partner)),
                         ("hat", "partner"), ORIGIN, ORIGIN)
    assert _flat_check(node, tile, False) == \
        (True, "16 kite cells, no overlap")
    for connected in (False, True):
        ok, detail = check_kites(node, tile, connected)
        assert not ok and re.fullmatch(
            r"thc-1: patch too sparse for the kite check: \d+ bits for 2 "
            r"hats, over 256 per hat", detail)


# about one placement in 20 is moved half a step off the hexagon lattice
_NUDGES = [VEC_ZERO] * 57 + [_half_step(1, 0), _half_step(0, 1),
                             _half_step(1, 1)]


@st.composite
def _lattice_dags(draw):
    """The nodes of a hand-made DAG of 2-4 levels over one hat, the hat
    first and the root last: each node holds 1-4 shared earlier nodes,
    each placed by a random orientation and a lattice step m*U1 + n*U2
    with |m|, |n| <= 3, now and then nudged off the lattice."""
    nodes, step = [SupertileNode(HAT, 1, (), (), ORIGIN, ORIGIN)], \
        st.integers(-3, 3)
    for gen in range(2, draw(st.integers(3, 5)) + 1):
        pieces = draw(st.lists(st.tuples(
            st.sampled_from(nodes), st.integers(0, 5), st.booleans(), step,
            step, st.sampled_from(_NUDGES)), min_size=1, max_size=4))
        nodes.append(SupertileNode(HAT, gen, tuple(
            (child, Placement(k, reflected, U1 * m + U2 * n + nudge))
            for child, k, reflected, m, n, nudge in pieces),
            tuple(f"P{i}" for i in range(len(pieces))), ORIGIN, ORIGIN))
    return nodes


def _has_a_hat_off_the_lattice(node) -> bool:
    try:
        for q, _ in expand(node):
            lattice_shift(q)
    except LatticeError:
        return True
    return False


def _clear_kite_memos(nodes):
    for node in nodes:
        node._kites.clear()


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(nodes=_lattice_dags(), data=st.data())
def test_random_lattice_dags_match_the_flat_check(tile, nodes, data):
    # passes, clashes and disconnections agree with the flat check, and a
    # hat off the lattice anywhere is named before any clash, which the
    # flat check, hat by hat, may meet first; the wording reads the ints
    # of failing nodes, so a root's detail must not depend on what an
    # earlier check of an inner node left in the memos.  A refused sparse
    # patch has no flat counterpart.
    root = nodes[-1]
    assume("too sparse" not in check_kites(root, tile)[1])
    inner = data.draw(st.sampled_from(nodes[1:-1]))
    missed = _has_a_hat_off_the_lattice(root)
    for connected in (False, True):
        _clear_kite_memos(nodes)
        if missed:
            want = check_kites(root, tile, connected)
            assert not want[0] and _kind(want[1]) == "off the kite lattice"
        else:
            want = _matches_flat(root, tile, connected)
        _clear_kite_memos(nodes)
        check_kites(inner, tile, connected)
        assert check_kites(root, tile, connected) == want


# ------------------------------------------ integer assembly against VecE

# The reference below assembles as `substitution` did before its anchors
# and ring translations were Q(zeta) integers: VecE sums, turned by
# rotate60, each form evaluated where it is used.

class _RefNode(NamedTuple):
    children: tuple  # (node, placement) pairs
    v_tail: VecE
    v_head: VecE
    hats: int


def _ref_node(children, tail, head):
    return _RefNode(children, tail, head,
                    sum(child.hats for child, _ in children))


def _ref_assemble(n, prev_hat, prev_thc, p, layout):
    placements, head_world = [IDENTITY], None
    for i, k in enumerate(layout.ring):
        if i == 0:
            tau = prev_thc.v_tail - rotate60(prev_hat.v_tail, k)
        elif i != 3:
            tau = head_world - rotate60(prev_hat.v_tail, k)
        elif n == 2:
            tau = _at(layout.p4_gen2, p)
        else:
            tau = prev_hat.children[3][1].translation
        placements.append(Placement(k, False, tau))
        head_world = tau + rotate60(prev_hat.v_head, k)
    if n == 2:
        tail = _at(layout.tail2, p)
        head = tail + v_closed(2, p)
    else:
        sub, sub_q = prev_hat.children[3]
        point = apply(sub_q, sub.v_head)
        tail, head = apply(placements[1], point), apply(placements[5], point)
        assert head - tail == v_closed(n, p)
    children = tuple((prev_thc if i == 0 else prev_hat, q)
                     for i, q in enumerate(placements))
    return (_ref_node(children, tail, head),
            _ref_node(children[:3] + children[4:], tail, head))


def _ref_generations(n, p, layout):
    tail = _at(layout.tail1, p)
    head = tail + v_closed(1, p)
    hat = _RefNode((), tail, head, 1)
    partner = Placement(layout.partner_rotation_k, layout.partner_reflected,
                        _at(layout.partner_offset, p))
    out = [(hat, _ref_node(((hat, IDENTITY), (hat, partner)), tail, head))]
    for gen in range(2, n + 1):
        out.append(_ref_assemble(gen, *out[-1], p, layout))
    return out


_RATIONAL = st.builds(Fraction, st.integers(1, 60), st.integers(1, 12))
_SIGNED = st.builds(Fraction, st.integers(-60, 60), st.integers(1, 12))
_FIELD = st.builds(QSqrt3, _SIGNED, _SIGNED).filter(lambda x: x.sign() > 0)
_SHAPES = st.one_of(
    st.tuples(_RATIONAL.map(QSqrt3), _RATIONAL.map(QSqrt3)),
    st.tuples(_FIELD, _FIELD),
    # b = k*sqrt(3)*a: hat proportions at k = 1
    st.builds(lambda a, k: (a, a * SQRT3 * k), _FIELD, _RATIONAL))


@settings(derandomize=True, database=None, max_examples=60, deadline=None)
@given(_SHAPES)
def test_integer_assembly_matches_the_vece_reference(layout, shape):
    p = make_params(*shape)
    got = list(Chain(p, layout).upto(5))
    want = _ref_generations(5, p, layout)
    for gen, (pair, ref_pair) in enumerate(zip(got, want), 1):
        for node, ref in zip(pair, ref_pair):
            assert node.hats == ref.hats == tile_counts(node.kind, gen)
            assert zeta_vector(node.tail, node.den) == ref.v_tail
            assert zeta_vector(node.head, node.den) == ref.v_head
            assert [(q.orientation, q.coords, q.den, child.hats)
                    for child, q in node.children] == \
                [(q.orientation, q.coords, q.den, child.hats)
                 for child, q in ref.children]


def _v_form(n) -> FormVec:
    """V_n as a form from Fibonacci numbers alone: a*(-F_(2n+1) +
    L_2n*zeta^2) + b*(F_2n*zeta + F_(2n-1)*zeta^3), L_2n = F_(2n-1) +
    F_(2n+1)."""
    f = [0, 1]
    while len(f) < 2 * n + 2:
        f.append(f[-1] + f[-2])
    return FormVec((-f[2 * n + 1], 0, f[2 * n - 1] + f[2 * n + 1], 0),
                   (0, f[2 * n], 0, f[2 * n - 1]))


@settings(derandomize=True, database=None, max_examples=60, deadline=None)
@given(_SHAPES)
@example((QSqrt3(1), QSqrt3(0, 1)))
def test_derived_heads_are_the_tails_plus_v_n(layout, shape):
    # generations 1 and 2 take each head as its tail plus V_n; the oracles
    # are V_n's form and the heads layout.cfg once traced, each evaluated
    # at the shape by `scaled`, not through `v_closed`
    p = make_params(*shape)
    chain = Chain(p, layout)
    den = chain.den

    def at(form):
        return tuple(map(add, scaled(form.u, p.a, den // p.a.d),
                         scaled(form.w, p.b, den // p.b.d)))

    for n, pair in enumerate(chain.upto(2), 1):
        for node in pair:
            assert node.den == den
            assert tuple(map(sub, node.head, node.tail)) == at(_v_form(n))
            assert node.head == at(_traced_head(f"head{n}"))
