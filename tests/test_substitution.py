import dataclasses
from fractions import Fraction

import pytest

from hatfam.configfile import load_text
from hatfam.exactnum import VecE, qs3
from hatfam.geometry import IDENTITY, Placement, U1, check_kites
from hatfam.sequences import tile_counts
from hatfam.substitution import (
    HAT,
    RULE_CHAIN,
    RULE_MEETING,
    RULE_SHARED_TAIL,
    THC,
    ConstructionError,
    FormVec,
    PieceRule,
    build,
    expand,
    layout_from_config,
    measured_supervector,
    search_layout,
)
from hatfam.supervectors import make_params, v_closed

VARIED = [
    (qs3(1), qs3(0, 1)),
    (qs3(2), qs3(3)),
    (qs3(Fraction(7, 3)), qs3(Fraction(1, 2))),
]


def _ring_with(layout, index, piece):
    ring = list(layout.ring)
    ring[index] = piece
    return dataclasses.replace(layout, ring=tuple(ring))


# ------------------------------------------------------------------ structure

def test_layout_table_shape(layout):
    assert [pc.rotation_k for pc in layout.ring] == [4, 5, 0, 0, 1, 2]
    assert [pc.rule for pc in layout.ring] == [
        RULE_SHARED_TAIL, RULE_CHAIN, RULE_CHAIN,
        RULE_MEETING, RULE_CHAIN, RULE_CHAIN]
    assert layout.partner_reflected
    assert layout.partner_rotation_k == 3


def test_form_vec():
    form = FormVec(VecE.of(1, 2), VecE.of(0, qs3(0, 1)))
    p = make_params(qs3(5), qs3(7))
    assert form.at(p) == VecE.of(5, qs3(10, 7))


def test_generation_one(layout, hat_p):
    one = build(HAT, 1, hat_p, layout)
    assert one.generation == 1 and one.children == ()
    assert list(expand(one)) == [(IDENTITY, False)]
    compound = build(THC, 1, hat_p, layout)
    hats = list(expand(compound))
    assert len(hats) == 2
    assert [refl for _, refl in hats] == [False, True]
    assert hats[1][0] == compound.partner


def test_counts_match_recurrence(layout, hat_p):
    for kind in (HAT, THC):
        for n in range(1, 7):
            node = build(kind, n, hat_p, layout)
            assert sum(1 for _ in expand(node)) == tile_counts(kind, n)


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
    for n in (2, 3, 4):
        hat = build(HAT, n, hat_p, layout)
        thc = build(THC, n, hat_p, layout)
        assert len(hat.children) == 7
        assert len(thc.children) == 6
        assert "P3" not in thc.labels
        assert thc.missing == hat.child("P3")[1]
        with pytest.raises(KeyError):
            thc.child("P3")


def test_expand_rerooted(layout, hat_p):
    node = build(THC, 3, hat_p, layout)
    q = Placement(2, True, U1 * 4)
    base = list(expand(node))
    moved = list(expand(node, q))
    assert moved == [(q.compose(qq), q.compose(qq).reflected)
                     for qq, _ in base]


# ---------------------------------------------------------------- bad layouts

def test_validate_structure_rejections(layout):
    short = dataclasses.replace(layout, ring=layout.ring[:5])
    with pytest.raises(ConstructionError, match="6 ring pieces"):
        short.validate_structure()

    bad_first = _ring_with(layout, 0, PieceRule(4, RULE_CHAIN))
    with pytest.raises(ConstructionError, match="shared_tail"):
        bad_first.validate_structure()

    moved_meeting = _ring_with(
        _ring_with(layout, 3, PieceRule(0, RULE_CHAIN)),
        1, PieceRule(5, RULE_MEETING))
    with pytest.raises(ConstructionError, match="piece 4"):
        moved_meeting.validate_structure()

    second_tail = _ring_with(layout, 4, PieceRule(1, RULE_SHARED_TAIL))
    with pytest.raises(ConstructionError, match="only ring piece 1"):
        second_tail.validate_structure()

    turned = _ring_with(layout, 3, PieceRule(1, RULE_MEETING))
    with pytest.raises(ConstructionError, match="rotation"):
        turned.validate_structure()

    unknown = _ring_with(layout, 2, PieceRule(0, "hop"))
    with pytest.raises(ConstructionError, match="unknown ring rule"):
        unknown.validate_structure()

    layout.validate_structure()


def test_meeting_slot_mismatch(layout, hat_p):
    # build() trusts the table, so a meeting rotation that disagrees with
    # the omitted piece passes generation 2 (fixed offset) and collides
    # with the open slot at generation 3
    turned = _ring_with(layout, 3, PieceRule(1, RULE_MEETING))
    build(HAT, 2, hat_p, turned)
    with pytest.raises(ConstructionError, match="meeting rule unsatisfiable"):
        build(HAT, 3, hat_p, turned)


def test_anchor_mismatch(layout, hat_p):
    shifted = dataclasses.replace(
        layout, tail2=FormVec(layout.tail2.u + VecE.of(1, 0),
                              layout.tail2.w))
    with pytest.raises(ConstructionError, match="anchor mismatch"):
        build(HAT, 2, hat_p, shifted)


def test_build_input_validation(layout, hat_p):
    with pytest.raises(ValueError, match="kind"):
        build("turtle", 2, hat_p, layout)
    with pytest.raises(ValueError, match="generation"):
        build(HAT, 0, hat_p, layout)


def test_ring_rotation_variant_rejected(tile):
    # same rule pattern, rotations from a near-miss arrangement: every
    # piece lands off the kite lattice or on top of a neighbor
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


# -------------------------------------------------------------------- search

def test_search_recovers_configured_offset(layout, tile, hat_p):
    found = search_layout(hat_p, layout, tile, window=2)
    assert {cand.p4_gen2.u for cand in found} == {
        VecE.of(-3, qs3(0, -4)),
        VecE.of(0, qs3(0, 3)),
        VecE.of(3, 0),
    }
    assert layout.p4_gen2 in [cand.p4_gen2 for cand in found]


def _survives_generation_three(cand, tile, hat_p):
    try:
        node = build(HAT, 3, hat_p, cand)
    except ConstructionError:
        return False
    placed = [q for q, _ in expand(node)]
    return check_kites(placed, hat_p, tile, connected=True)[0]


def test_configured_offset_is_the_generation_three_survivor(
        layout, tile, hat_p):
    found = search_layout(hat_p, layout, tile, window=2)
    survivors = [cand for cand in found
                 if _survives_generation_three(cand, tile, hat_p)]
    assert len(survivors) == 1
    assert survivors[0].p4_gen2 == layout.p4_gen2


def test_search_guards(layout, tile):
    with pytest.raises(ConstructionError, match="hat proportions"):
        search_layout(make_params(qs3(2), qs3(3)), layout, tile)


def test_search_reports_empty_window(layout, tile, hat_p):
    nudged = dataclasses.replace(
        layout, p4_gen2=FormVec(layout.p4_gen2.u + U1, layout.p4_gen2.w))
    with pytest.raises(ConstructionError, match="no workable"):
        search_layout(hat_p, nudged, tile, window=0)
