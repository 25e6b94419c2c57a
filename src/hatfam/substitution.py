"""Recursive supertile assembly.

A generation-n hat supertile is a generation-(n-1) two-hat-compound core
surrounded by a ring of six generation-(n-1) hat supertiles.  The compound
supertile is the same cluster minus its third ring piece.  Ring pieces are
placed by three rules: the first shares the core's tail vertex, most chain
head-to-tail onto their predecessor, and the fourth drops into the open
slot left by the core's missing piece.  Tail and head anchor vertices are
traced for the first two generations and propagate by a fixed interior
coincidence from then on, so every generation's head minus tail can be
checked against the closed-form supervector.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Iterator, NamedTuple

from .configfile import (
    ConfigError,
    parse_config,
    value_bool,
    value_int,
    value_ints,
    value_vector,
)
from .exactnum import VecE, rotate60
from .geometry import (
    IDENTITY,
    Placement,
    TileData,
    U1,
    U2,
    check_kites,
    shoelace_area,
)
from .sequences import tile_counts
from .supervectors import TileParams, hat_params, v_closed

HAT = "hat"
THC = "thc"

RULE_SHARED_TAIL = "shared_tail"
RULE_CHAIN = "chain"
RULE_MEETING = "meeting"

_LABELS = ("T", "P1", "P2", "P3", "P4", "P5", "P6")
_MEETING_INDEX = 3  # ring position of the slot-filling piece (P4)
_OMITTED_INDEX = 2  # ring position absent from the compound (P3)


class ConstructionError(ValueError):
    """The layout data cannot be assembled into consistent supertiles."""


@dataclass(frozen=True)
class FormVec:
    """Vector depending linearly on the edge lengths: a*u + b*w."""

    u: VecE
    w: VecE

    def at(self, p: TileParams) -> VecE:
        return self.u * p.a + self.w * p.b


class PieceRule(NamedTuple):
    rotation_k: int
    rule: str


@dataclass(frozen=True)
class LayoutTable:
    """Placement data driving the assembly.

    ring: rotation and rule for the six surrounding pieces, in order.
    partner: placement of the second hat inside the generation-1 compound,
    relative to the first.
    p4_gen2: translation of the fourth piece at generation 2, where no
    smaller compound exists to dictate it.
    tail1/head1/tail2/head2: traced anchor vertices of generations 1 and 2.
    """

    ring: tuple[PieceRule, ...]
    partner_rotation_k: int
    partner_reflected: bool
    partner_offset: FormVec
    p4_gen2: FormVec
    tail1: FormVec
    head1: FormVec
    tail2: FormVec
    head2: FormVec

    def partner_placement(self, p: TileParams) -> Placement:
        return Placement(self.partner_rotation_k, self.partner_reflected,
                         self.partner_offset.at(p))

    def validate_structure(self) -> None:
        if len(self.ring) != 6:
            raise ConstructionError(
                f"layout needs 6 ring pieces, got {len(self.ring)}")
        rules = [piece.rule for piece in self.ring]
        for rule in rules:
            if rule not in (RULE_SHARED_TAIL, RULE_CHAIN, RULE_MEETING):
                raise ConstructionError(f"unknown ring rule {rule!r}")
        if rules[0] != RULE_SHARED_TAIL:
            raise ConstructionError("ring piece 1 must use shared_tail")
        if rules.count(RULE_MEETING) != 1 or rules[_MEETING_INDEX] != RULE_MEETING:
            raise ConstructionError(
                "ring must use the meeting rule exactly once, at piece 4")
        if any(r == RULE_SHARED_TAIL for r in rules[1:]):
            raise ConstructionError("only ring piece 1 may use shared_tail")
        if (self.ring[_MEETING_INDEX].rotation_k
                != self.ring[_OMITTED_INDEX].rotation_k):
            raise ConstructionError(
                "meeting piece must repeat the rotation of the piece the "
                "compound omits")


@dataclass(frozen=True, eq=False)
class SupertileNode:
    """One supertile in the assembly DAG.

    children holds (node, placement) pairs with labels parallel to it; the
    node objects are shared between parents, so the tree is materialized
    in O(generation) space.  partner is set on generation-1 compounds (the
    second hat's placement), missing on higher compounds (the slot of the
    omitted piece).
    """

    kind: str
    generation: int
    children: tuple
    labels: tuple
    v_tail: VecE
    v_head: VecE
    partner: Placement | None = None
    missing: Placement | None = None

    def child(self, label: str):
        for lab, pair in zip(self.labels, self.children):
            if lab == label:
                return pair
        raise KeyError(label)


def measured_supervector(node: SupertileNode) -> VecE:
    """Head anchor minus tail anchor of an assembled supertile."""
    return node.v_head - node.v_tail


def _check_anchor(kind: str, n: int, tail: VecE, head: VecE,
                  p: TileParams) -> None:
    want = v_closed(n, p)
    got = head - tail
    if got != want:
        raise ConstructionError(
            f"generation {n}: anchor mismatch: {kind} head minus tail is "
            f"{got}, closed form gives {want}")


def _assemble(n: int, prev_hat: SupertileNode, prev_thc: SupertileNode,
              p: TileParams, layout: LayoutTable):
    """Place the core and ring for generation n; return both kinds."""
    placements = [IDENTITY]
    head_world = None
    for piece in layout.ring:
        k = piece.rotation_k
        if piece.rule == RULE_SHARED_TAIL:
            tau = prev_thc.v_tail - rotate60(prev_hat.v_tail, k)
        elif piece.rule == RULE_CHAIN:
            tau = head_world - rotate60(prev_hat.v_tail, k)
        elif n == 2:
            tau = layout.p4_gen2.at(p)
        else:
            slot = prev_thc.missing
            if slot.reflected or slot.rotation_k != k:
                raise ConstructionError(
                    f"generation {n}: meeting rule unsatisfiable: piece "
                    f"rotation {k * 60} does not match the open slot "
                    f"rotation {slot.rotation_k * 60}")
            tau = slot.translation
        q = Placement(k, False, tau)
        placements.append(q)
        head_world = tau + rotate60(prev_hat.v_head, k)

    if n == 2:
        tail = layout.tail2.at(p)
        head = layout.head2.at(p)
    else:
        sub, sub_q = prev_hat.child(_LABELS[_OMITTED_INDEX + 1])
        point = sub_q.apply(sub.v_head)
        tail = placements[1].apply(point)
        head = placements[5].apply(point)
    _check_anchor(HAT, n, tail, head, p)

    children = tuple((prev_thc if i == 0 else prev_hat, q)
                     for i, q in enumerate(placements))
    hat = SupertileNode(HAT, n, children, _LABELS, tail, head)
    drop = _OMITTED_INDEX + 1  # child index: core at 0, ring from 1
    thc = SupertileNode(
        THC, n,
        children[:drop] + children[drop + 1:],
        _LABELS[:drop] + _LABELS[drop + 1:],
        tail, head,
        missing=placements[drop])
    return hat, thc


def build(kind: str, n: int, p: TileParams,
          layout: LayoutTable) -> SupertileNode:
    """Assemble the generation-n supertile of the given kind.

    Raises ConstructionError when the layout produces anchors that
    disagree with the closed-form supervector or a meeting-rule slot the
    fourth piece cannot occupy.
    """
    if kind not in (HAT, THC):
        raise ValueError(f"kind must be 'hat' or 'thc', got {kind!r}")
    if n < 1:
        raise ValueError(f"generation must be >= 1, got {n}")

    tail = layout.tail1.at(p)
    head = layout.head1.at(p)
    _check_anchor(HAT, 1, tail, head, p)
    hat = SupertileNode(HAT, 1, (), (), tail, head)
    thc = SupertileNode(THC, 1, (), (), tail, head,
                        partner=layout.partner_placement(p))
    for gen in range(2, n + 1):
        hat, thc = _assemble(gen, hat, thc, p, layout)
    return hat if kind == HAT else thc


def expand(node: SupertileNode,
           placement: Placement = IDENTITY) -> Iterator[tuple[Placement, bool]]:
    """Yield (absolute placement, is_reflected) for every single hat."""
    if node.generation == 1:
        yield placement, placement.reflected
        if node.kind == THC:
            q = placement.compose(node.partner)
            yield q, q.reflected
        return
    for child, q in node.children:
        yield from expand(child, placement.compose(q))


def _value_form(cfg, section: str, stem: str) -> FormVec:
    return FormVec(value_vector(cfg.get(section, stem + "_u")),
                   value_vector(cfg.get(section, stem + "_w")))


def _rotation_k(deg: int) -> int:
    if deg % 60:
        raise ConfigError(f"rotation {deg} is not a multiple of 60 degrees")
    return (deg // 60) % 6


def layout_from_config(text: str, tile: TileData) -> LayoutTable:
    """Parse and fully validate a layout config.

    Validation is structural (rule pattern, rotation multiples) and then
    constructive: generations 2 through 4 are assembled at hat proportions
    and checked for tile counts, kite disjointness, connectivity, and the
    closed-form supervector.
    """
    cfg = parse_config(text)
    rot_degs = value_ints(cfg.get("ring", "rotations"))
    rules = cfg.get("ring", "rules").split()
    if len(rot_degs) != len(rules):
        raise ConfigError(
            f"ring has {len(rot_degs)} rotations but {len(rules)} rules")
    ring = tuple(PieceRule(_rotation_k(d), r)
                 for d, r in zip(rot_degs, rules))
    layout = LayoutTable(
        ring=ring,
        partner_rotation_k=_rotation_k(
            value_int(cfg.get("partner", "rotation"))),
        partner_reflected=value_bool(cfg.get("partner", "reflected")),
        partner_offset=_value_form(cfg, "partner", "offset"),
        p4_gen2=_value_form(cfg, "gen2", "p4_offset"),
        tail1=_value_form(cfg, "anchors", "tail1"),
        head1=_value_form(cfg, "anchors", "head1"),
        tail2=_value_form(cfg, "anchors", "tail2"),
        head2=_value_form(cfg, "anchors", "head2"),
    )
    layout.validate_structure()
    # the constructive half: generations 2..4 at hat proportions
    p = hat_params()
    area = shoelace_area(tile.outline(p))
    if area != p.a * p.b * 8:
        raise ConstructionError(
            f"tile outline area {area} is not 8 kite units at hat "
            f"proportions")
    for gen in range(2, 5):
        for kind in (HAT, THC):
            placed = [q for q, _ in expand(build(kind, gen, p, layout))]
            want = tile_counts(kind, gen)
            if len(placed) != want:
                raise ConstructionError(
                    f"generation {gen}: expected {want} {kind} hats, "
                    f"assembled {len(placed)}")
            ok, detail = check_kites(placed, p, tile, connected=True)
            if not ok:
                raise ConstructionError(f"generation {gen}: {kind} {detail}")
    return layout


def search_layout(p: TileParams, layout: LayoutTable, tile: TileData,
                  window: int = 8) -> list[LayoutTable]:
    """Search fourth-piece offsets that complete a valid generation 2.

    Candidate translations sweep a (2*window+1)^2 patch of the hexagon
    lattice around the configured offset.  A candidate survives when every
    assembled hat lies on the kite lattice, on kites of its own, and the
    hats form one connected patch.  Runs on hat proportions only, where
    the kite decomposition exists; offsets are recorded on the a-edge
    component of the form.
    """
    if p != hat_params():
        raise ConstructionError(
            "the fourth-piece search needs hat proportions (kite cells "
            "exist only there)")
    found = []
    for dm in range(-window, window + 1):
        for dn in range(-window, window + 1):
            shift = U1 * dm + U2 * dn
            cand = dataclasses.replace(
                layout,
                p4_gen2=FormVec(layout.p4_gen2.u + shift, layout.p4_gen2.w))
            placed = [q for q, _ in expand(build(HAT, 2, p, cand))]
            if check_kites(placed, p, tile, connected=True)[0]:
                found.append(cand)
    if not found:
        raise ConstructionError(
            f"no workable fourth-piece offset within {window} lattice "
            f"steps of the configured one")
    return found
