"""Recursive supertile assembly.

A generation-n hat supertile is a generation-(n-1) two-hat-compound core
surrounded by a ring of six generation-(n-1) hat supertiles.  The compound
supertile is the same cluster minus its third ring piece.  Ring pieces are
placed by three rules: the first shares the core's tail vertex, most chain
head-to-tail onto their predecessor, and the fourth drops into the open
slot left by the core's missing piece.  Tail and head anchor vertices are
traced for the first two generations and propagate by a fixed interior
coincidence from then on, so every generation's head minus tail can be
checked against the closed-form supervector.  A node's hat count is a sum
over its children, once per shared node, and `check_kites` decides kite
disjointness and contact on the same DAG: each (node, orientation) holds
its cells as one int, the OR of its children's ints shifted into place,
kept on the node; connected pieces that touch make a connected node; a
failure names the label path of the node or piece at fault.
`expand` walks every single hat; it runs only to draw.
"""

from __future__ import annotations

from functools import cached_property
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
    KiteCell,
    LatticeError,
    Placement,
    TileData,
    U1,
    U2,
    cells_connected,
    hat_kite_cells,
    lattice_shift,
    packing_width,
    shoelace_area,
)
from .sequences import tile_counts
from .supervectors import TileParams, hat_params, v_closed

HAT = "hat"
THC = "thc"
# the kite check refuses a patch of more bits per hat than this (supertiles
# need at most 60), so no far-flung patch makes a huge int
_MAX_BITS_PER_HAT = 256

_LABELS = ("T", "P1", "P2", "P3", "P4", "P5", "P6")
_MEETING_INDEX = 3  # ring position of the slot-filling piece (P4)
_OMITTED_INDEX = 2  # ring position absent from the compound (P3)


class ConstructionError(ValueError):
    """The layout data cannot be assembled into consistent supertiles."""


class FormVec(NamedTuple):
    """Vector depending linearly on the edge lengths: a*u + b*w."""

    u: VecE
    w: VecE

    def at(self, p: TileParams) -> VecE:
        return self.u * p.a + self.w * p.b


class LayoutTable(NamedTuple):
    """Placement data driving the assembly.

    ring: rotation_k of the six surrounding pieces, in order.  The rule
    that places a piece follows from its position: piece 1 shares the
    core's tail vertex, piece 4 fills the slot the compound leaves open,
    and the others chain head-to-tail onto their predecessor.
    partner: placement of the second hat inside the generation-1 compound,
    relative to the first.
    p4_gen2: translation of the fourth piece at generation 2, where no
    smaller compound exists to dictate it.
    tail1/head1/tail2/head2: traced anchor vertices of generations 1 and 2.
    """

    ring: tuple[int, ...]
    partner_rotation_k: int
    partner_reflected: bool
    partner_offset: FormVec
    p4_gen2: FormVec
    tail1: FormVec
    head1: FormVec
    tail2: FormVec
    head2: FormVec

    def validate_structure(self) -> None:
        if len(self.ring) != 6:
            raise ConstructionError(
                f"layout needs 6 ring pieces, got {len(self.ring)}")
        if self.ring[_MEETING_INDEX] != self.ring[_OMITTED_INDEX]:
            raise ConstructionError(
                "meeting piece must repeat the rotation of the piece the "
                "compound omits")


class SupertileNode:
    """One supertile in the assembly DAG.

    children holds (node, placement) pairs with labels parallel to it; the
    node objects are shared between parents, so the tree is materialized
    in O(generation) space.  A single hat is the only leaf: the
    generation-1 compound holds two of it, labelled hat and partner.
    Nodes compare by identity.
    """

    def __init__(self, kind: str, generation: int, children: tuple,
                 labels: tuple, v_tail: VecE, v_head: VecE):
        self.kind = kind
        self.generation = generation
        self.children = children
        self.labels = labels
        self.v_tail = v_tail
        self.v_head = v_head

    @cached_property
    def _kites(self) -> dict:
        """The memo of `_kite_box` and `_kite_bits` for this node."""
        return {}

    @cached_property
    def hats(self) -> int:
        """Number of single hats, summed once per shared node."""
        if not self.children:
            return 1
        return sum(child.hats for child, _ in self.children)


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
    for i, k in enumerate(layout.ring):
        if i == 0:
            tau = prev_thc.v_tail - rotate60(prev_hat.v_tail, k)
        elif i != _MEETING_INDEX:
            tau = head_world - rotate60(prev_hat.v_tail, k)
        elif n == 2:
            tau = layout.p4_gen2.at(p)
        else:
            _, slot = prev_hat.children[_OMITTED_INDEX + 1]
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
        sub, sub_q = prev_hat.children[_OMITTED_INDEX + 1]
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
        tail, head)
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
    *_, (hat, thc) = generations(n, p, layout)
    return hat if kind == HAT else thc


def generations(n: int, p: TileParams, layout: LayoutTable):
    """Yield (hat, thc) for generations 1..n, each built from the last."""
    tail = layout.tail1.at(p)
    head = layout.head1.at(p)
    _check_anchor(HAT, 1, tail, head, p)
    hat = SupertileNode(HAT, 1, (), (), tail, head)
    partner = Placement(layout.partner_rotation_k, layout.partner_reflected,
                        layout.partner_offset.at(p))
    thc = SupertileNode(THC, 1, ((hat, IDENTITY), (hat, partner)),
                        ("hat", "partner"), tail, head)
    yield hat, thc
    for gen in range(2, n + 1):
        hat, thc = _assemble(gen, hat, thc, p, layout)
        yield hat, thc


def expand(node: SupertileNode,
           placement: Placement = IDENTITY) -> Iterator[tuple[Placement, bool]]:
    """Yield (absolute placement, is_reflected) for every single hat."""
    if not node.children:
        yield placement, placement.reflected
        return
    for child, q in node.children:
        yield from expand(child, placement.compose(q))


class _Clash(Exception):
    """Two pieces of a node share a kite: args are the wording up to the
    kite and the kite's bit in the root's int."""


class _Disconnected(Exception):
    """The pieces of a node do not touch as one patch: args are its path."""


def _kite_box(node: SupertileNode, o: int, base_cells, path: str):
    """(box, parts) for `node` at orientation o about its own origin: box
    = (q_lo, q_hi, r_lo, r_hi) bounds its kite cells' hex coordinates,
    and parts holds each child's node, orientation and placed (q_lo, r_lo),
    or a single hat's cells.  Memoized on the node; raises LatticeError
    naming the label path of a piece off the hexagon lattice, `path`
    being the node's own.
    """
    memo = node._kites
    key = o, base_cells
    if key not in memo:
        turn = Placement(o % 6, o >= 6)
        if not node.children:
            parts = hat_kite_cells(turn, base_cells)
            spans = [(q, q, r, r) for q, r, _ in parts]
        else:
            parts, spans = [], []
            for label, (child, q) in zip(node.labels, node.children):
                q = turn.compose(q)
                at = f"{path}/{label}"
                try:
                    m, n = lattice_shift(q)
                except LatticeError as e:
                    raise LatticeError(
                        f"piece {at} is off the kite lattice: {e}") from None
                (a, b, c, d), _ = _kite_box(child, q.orientation, base_cells,
                                            at)
                parts.append((child, q.orientation, a + m, c + n))
                spans.append((a + m, b + m, c + n, d + n))
        q_lo, q_hi, r_lo, r_hi = zip(*spans)
        memo[key] = (min(q_lo), max(q_hi), min(r_lo), max(r_hi)), parts
    return memo[key]


def _kite_bits(node: SupertileNode, o: int, width: int, base_cells,
               path: str, base: int, connected: bool = False) -> int:
    """The kite cells of `node` at orientation o about its own origin as
    one int, packed about the low corner of the node's box (see
    `packing_width`): the OR of its pieces' ints, each shifted into place
    (a single hat's pieces are its kites); memoized on the node.  Raises
    _Clash where a piece's int meets the earlier pieces', the kite lifted
    into the root's int by `base`, this node's offset there.  If
    `connected`, raises _Disconnected unless the pieces, each checked
    first, touch as one patch; a pass is memoized on the node once per
    tile, since a rigid motion keeps it.
    """
    memo = node._kites
    key = o, width, base_cells
    if key not in memo or connected and base_cells not in memo:
        (q_lo, _, r_lo, _), parts = _kite_box(node, o, base_cells, path)

        def placed():
            if not node.children:
                for q, r, k in parts:
                    yield None, 1 << 6 * ((q - q_lo) * width + r - r_lo) + k
            for label, (child, co, cq, cr) in zip(node.labels, parts):
                shift = 6 * ((cq - q_lo) * width + cr - r_lo)
                bits = _kite_bits(child, co, width, base_cells,
                                  f"{path}/{label}", base + shift, connected)
                yield label, bits << shift
        acc, pieces = 0, []
        for label, bits in placed():
            clash = acc & bits
            if clash:
                bit = (clash & -clash).bit_length() - 1
                first = next(lab for lab, b in placed() if b >> bit & 1)
                raise _Clash(f"{path}: pieces {first} and {label}", base + bit)
            acc |= bits
            if connected:  # else each shifted int is dropped once ORed
                pieces.append(bits)
        if connected:
            if not cells_connected(pieces, width):
                raise _Disconnected(path)
            memo[base_cells] = True
        memo[key] = acc
    return memo[key]


def check_kites(node: SupertileNode, tile: TileData,
                connected: bool = False) -> tuple[bool, str]:
    """Check that the hats of a supertile built at the hat itself (a = 1,
    b = sqrt(3)) lie on distinct kites (and, if `connected`, that each
    supertile of its DAG is one edge-connected patch); returns (passed,
    detail).

    The cells are one int per (node, orientation) (see `_kite_bits`).  A
    failure names the label path from the root, as in `hat-3/T/P4`: of
    the node where a piece meets the earlier ones, with the lowest kite
    they share, of a piece off the kite lattice, or of the first
    disconnected node.  A patch whose int would hold more than
    _MAX_BITS_PER_HAT bits per hat is refused before any int is made.
    """
    root = f"{node.kind}-{node.generation}"
    try:
        (q_lo, q_hi, r_lo, r_hi), _ = _kite_box(node, 0, tile.cells, root)
        width = packing_width(r_hi - r_lo)
        size = 6 * (q_hi - q_lo + 1) * width
        if size > _MAX_BITS_PER_HAT * node.hats:
            return False, (f"{root}: patch too sparse for the kite check: "
                           f"{size} bits for {node.hats} hats, over "
                           f"{_MAX_BITS_PER_HAT} per hat")
        bits = _kite_bits(node, 0, width, tile.cells, root, 0)
        if connected:  # once no pieces overlap anywhere
            _kite_bits(node, 0, width, tile.cells, root, 0, connected=True)
    except LatticeError as e:
        return False, str(e)
    except _Disconnected as e:
        return False, f"{e}: patch is disconnected"
    except _Clash as e:
        where, bit = e.args
        v, k = divmod(bit, 6)
        cell = KiteCell(q_lo + v // width, r_lo + v % width, k)
        return False, f"{where} overlap on kite {cell}"
    return True, f"{bits.bit_count()} kite cells, no overlap"


def _value_form(cfg, section: str, stem: str) -> FormVec:
    return FormVec(value_vector(cfg.get(section, stem + "_u")),
                   value_vector(cfg.get(section, stem + "_w")))


def _rotation_k(deg: int) -> int:
    if deg % 60:
        raise ConfigError(f"rotation {deg} is not a multiple of 60 degrees")
    return (deg // 60) % 6


def layout_from_config(text: str, tile: TileData) -> LayoutTable:
    """Parse and fully validate a layout config.

    Validation is structural (ring size, rotation multiples) and then
    constructive: generations 1 through 4 are assembled at hat proportions
    and checked for tile counts, kite disjointness, connectivity, and the
    closed-form supervector.
    """
    cfg = parse_config(text)
    layout = LayoutTable(
        ring=tuple(_rotation_k(d)
                   for d in value_ints(cfg.get("ring", "rotations"))),
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
    # the constructive half: generations 1..4 at hat proportions
    p = hat_params()
    area = shoelace_area(tile.outline(p))
    if area != p.a * p.b * 8:
        raise ConstructionError(
            f"tile outline area {area} is not 8 kite units at hat "
            f"proportions")
    # one lazy chain: each generation is checked before the next is made
    for gen, nodes in enumerate(generations(4, p, layout), 1):
        for node in nodes:
            want = tile_counts(node.kind, gen)
            if node.hats != want:
                raise ConstructionError(
                    f"generation {gen}: expected {want} {node.kind} hats, "
                    f"assembled {node.hats}")
            ok, detail = check_kites(node, tile, connected=True)
            if not ok:
                raise ConstructionError(f"generation {gen}: {detail}")
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
            cand = layout._replace(
                p4_gen2=FormVec(layout.p4_gen2.u + shift, layout.p4_gen2.w))
            if check_kites(build(HAT, 2, p, cand), tile, connected=True)[0]:
                found.append(cand)
    if not found:
        raise ConstructionError(
            f"no workable fourth-piece offset within {window} lattice "
            f"steps of the configured one")
    return found
