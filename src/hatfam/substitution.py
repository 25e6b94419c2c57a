"""Recursive supertile assembly.

A generation-n hat supertile is a generation-(n-1) two-hat-compound core
surrounded by a ring of six generation-(n-1) hat supertiles.  The compound
supertile is the same cluster minus its third ring piece.  Ring pieces are
placed by three rules: the first shares the core's tail vertex, most chain
head-to-tail onto their predecessor, and the fourth drops into the open
slot left by the core's missing piece.  The tail anchors of the first two
generations are traced, each head is its tail plus the closed-form
supervector V_n, and from generation 3 on both anchors propagate by a
fixed interior coincidence, checked against V_n.  A `Chain` holds the
generations of one layout at one shape, in Q(zeta) integers over the
shape's denominator, from forms that load as Z[zeta] points; a command
keeps its chains for the call, so each supertile is assembled once per
call; `search_layout`'s candidates share one chain's generation 1
(`Chain.moved_p4`) and its kite memos.  Hat counts sum over the
children, once per shared node.  `check_kites` decides
kite disjointness and contact on the same DAG in ints, in one pass: each
edge is one lattice step, turned per orientation by `LATTICE_TURNS`; each
(node, orientation) keeps its cells as one int, the OR of its children's
shifted ints, whose bit count shows whether they overlap; touching
connected pieces make a connected node.  The pass only decides; a root
that fails is walked once more, from the root, to word its fault.  The
pass takes supertiles in order, at one packing width, and names the
first that fails: `layout_from_config` checks the eight of
generations 1-4 in one pass, and hands that chain to the call.  `expand`
walks every single hat, only to draw: on Q(zeta) int steps over the
root's denominator, which it turns once per (node, orientation), making a
Placement per hat and none per edge.  Every turn here is geometry's `moved`.
"""

from __future__ import annotations

from functools import cached_property
from math import lcm
from operator import add, sub
from typing import Iterator, NamedTuple

from .configfile import (
    ConfigError,
    parse_config,
    value_bool,
    value_int,
    value_ints,
    value_vector,
)
from .exactnum import (VecE, reduced_coords, render_scalar, zeta_coords,
                       zeta_vector)
from .geometry import (
    IDENTITY,
    KiteCell,
    LATTICE_BASIS,
    LATTICE_TURNS,
    LatticeError,
    Placement,
    TileData,
    _PRODUCT,
    _placement,
    cells_connected,
    hat_kite_cells,
    lattice_shift,
    moved,
    packing_width,
    scaled,
)
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
    """Vector a*u + b*w in the edge lengths, u and w Q(zeta) int points."""

    u: tuple
    w: tuple


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
    tail1/tail2: traced tail anchors of generations 1 and 2 (see `Chain`).
    """

    ring: tuple[int, ...]
    partner_rotation_k: int
    partner_reflected: bool
    partner_offset: FormVec
    p4_gen2: FormVec
    tail1: FormVec
    tail2: FormVec

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
    tail and head, the anchor vertices, are Q(zeta) coordinates (see
    `exactnum.zeta_coords`) over den, unreduced; den is a multiple of each
    child's den and placement's (ValueError if not), so of every den below
    the node.  Nodes compare by identity.
    """

    def __init__(self, kind: str, generation: int, children: tuple,
                 labels: tuple, tail: tuple, head: tuple, den: int = 1):
        if any(den % child.den or den % q.den for child, q in children):
            raise ValueError(f"{kind}-{generation}: den {den} is not a "
                             f"multiple of every child's and placement's")
        self.kind = kind
        self.generation = generation
        self.children = children
        self.labels = labels
        self.tail = tail
        self.head = head
        self.den = den

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
    return zeta_vector(tuple(map(sub, node.head, node.tail)), node.den)


def _over(q: Placement, den: int) -> tuple:
    """q's translation over den, a multiple of q.den."""
    if q.den == den:
        return q.coords
    return tuple(c * (den // q.den) for c in q.coords)


class Chain:
    """The supertiles of one layout at one shape p: `pairs[n - 1]` is
    (hat, thc) of generation n, each generation assembled from the last
    once, when first asked for.  Anchors and translations are Q(zeta)
    coordinates over `den` = lcm(a.d, b.d), the outline's, so assembly is
    int sums and `moved` turns; the layout's four forms are evaluated at p
    once, here, by `scaled`, and heads 1 and 2 are their tails plus V_n.
    A command holds its chains for one call, by shape (see `chain_at`)."""

    def __init__(self, p: TileParams, layout: LayoutTable):
        self.p, self.layout = p, layout
        den = self.den = lcm(p.a.d, p.b.d)
        tail, partner, self.p4_gen2, self.tail2 = (
            tuple(map(add, scaled(form.u, p.a, den // p.a.d),
                      scaled(form.w, p.b, den // p.b.d)))
            for form in (layout.tail1, layout.partner_offset,
                         layout.p4_gen2, layout.tail2))
        head, self.head2 = _head(1, tail, self), _head(2, self.tail2, self)
        hat = SupertileNode(HAT, 1, (), (), tail, head, den)
        partner = _placement(layout.partner_rotation_k % 6
                             + 6 * layout.partner_reflected,
                             *reduced_coords(*partner, den))
        thc = SupertileNode(THC, 1, ((hat, IDENTITY), (hat, partner)),
                            ("hat", "partner"), tail, head, den)
        self.pairs = [(hat, thc)]

    def moved_p4(self, layout: LayoutTable, shift: tuple) -> "Chain":
        """The chain of `layout`, this one's with p4_gen2 moved by the
        Q(zeta) int point `shift`, on this chain's generation-1 nodes."""
        chain = Chain.__new__(Chain)
        vars(chain).update(vars(self), layout=layout, pairs=self.pairs[:1])
        chain.p4_gen2 = tuple(c + x * self.den
                              for c, x in zip(self.p4_gen2, shift))
        return chain

    def upto(self, n: int) -> Iterator[tuple]:
        """Yield (hat, thc) for generations 1..n, assembling each one not
        made yet after the one before it is yielded."""
        for gen in range(1, n + 1):
            if gen > len(self.pairs):
                self.pairs.append(_assemble(gen, self))
            yield self.pairs[gen - 1]

    def node(self, kind: str, n: int) -> SupertileNode:
        """The generation-n supertile of the given kind."""
        *_, (hat, thc) = self.upto(n)
        return hat if kind == HAT else thc


def _head(n: int, tail: tuple, chain: Chain) -> tuple:
    """tail + V_n over the chain's den, which covers V_n (a Z[zeta] form)."""
    c, d = zeta_coords(v_closed(n, chain.p))
    return tuple(t + x * (chain.den // d) for t, x in zip(tail, c))


def _check_anchor(n: int, tail: tuple, head: tuple, chain: Chain) -> None:
    if head != _head(n, tail, chain):
        got = zeta_vector(tuple(map(sub, head, tail)), chain.den)
        raise ConstructionError(
            f"generation {n}: anchor mismatch: {HAT} head minus tail is "
            f"{got}, closed form gives {v_closed(n, chain.p)}")


def _assemble(n: int, chain: Chain):
    """Place the core and ring for generation n of the chain on its
    generation n - 1; return both kinds."""
    prev_hat, prev_thc = chain.pairs[n - 2]
    den, ring = chain.den, chain.layout.ring
    back = tuple(-c for c in prev_hat.tail)
    placements, taus = [IDENTITY], []
    head_world = None
    for i, k in enumerate(ring):
        o = k % 6
        if i == 0:
            tau = moved(o, back, prev_thc.tail)
        elif i != _MEETING_INDEX:
            tau = moved(o, back, head_world)
        elif n == 2:
            tau = chain.p4_gen2
        else:
            _, slot = prev_hat.children[_OMITTED_INDEX + 1]
            if slot.reflected or slot.rotation_k != k:
                raise ConstructionError(
                    f"generation {n}: meeting rule unsatisfiable: piece "
                    f"rotation {k * 60} does not match the open slot "
                    f"rotation {slot.rotation_k * 60}")
            tau = _over(slot, den)
        placements.append(_placement(o, *reduced_coords(*tau, den)))
        taus.append(tau)
        head_world = moved(o, prev_hat.head, tau)

    if n == 2:
        tail, head = chain.tail2, chain.head2
    else:
        sub_node, sub_q = prev_hat.children[_OMITTED_INDEX + 1]
        point = moved(sub_q.orientation, sub_node.head, _over(sub_q, den))
        tail = moved(ring[0] % 6, point, taus[0])
        head = moved(ring[4] % 6, point, taus[4])
        _check_anchor(n, tail, head, chain)

    children = tuple((prev_thc if i == 0 else prev_hat, q)
                     for i, q in enumerate(placements))
    hat = SupertileNode(HAT, n, children, _LABELS, tail, head, den)
    drop = _OMITTED_INDEX + 1  # child index: core at 0, ring from 1
    thc = SupertileNode(
        THC, n,
        children[:drop] + children[drop + 1:],
        _LABELS[:drop] + _LABELS[drop + 1:],
        tail, head, den)
    return hat, thc


def chain_at(p: TileParams, layout: LayoutTable,
             chains: dict | None = None) -> Chain:
    """The chain of `layout` at p: the one `chains`, a call's chains of
    this layout by shape, holds, else a new one, which `chains` keeps.
    A held chain of another layout raises ValueError."""
    if chains is None:
        return Chain(p, layout)
    if p not in chains:
        chains[p] = Chain(p, layout)
    elif chains[p].layout != layout:
        raise ValueError(f"the chain held at Tile({render_scalar(p.a)}, "
                         f"{render_scalar(p.b)}) is of another layout")
    return chains[p]


def build(kind: str, n: int, p: TileParams, layout: LayoutTable,
          chains: dict | None = None) -> SupertileNode:
    """Assemble the generation-n supertile of the given kind, extending
    the chain at p that `chains` holds, if given (see `chain_at`).

    Raises ConstructionError when the layout produces anchors that
    disagree with the closed-form supervector or a meeting-rule slot the
    fourth piece cannot occupy.
    """
    if kind not in (HAT, THC):
        raise ValueError(f"kind must be 'hat' or 'thc', got {kind!r}")
    if n < 1:
        raise ValueError(f"generation must be >= 1, got {n}")
    return chain_at(p, layout, chains).node(kind, n)


def expand(node: SupertileNode) -> Iterator[tuple[Placement, bool]]:
    """Yield (placement, is_reflected) for every hat, depth first, with
    `node` at the identity.

    Translations are Q(zeta) ints over `node.den`, which every placement
    in the DAG divides (see SupertileNode), so a hat's is the sum of one
    step per edge on its path: each (node, orientation) turns its
    children's steps once per call, and each edge costs four int adds.  A
    Placement is made only for each hat."""
    # per (node, orientation), its children's steps over den, last first
    den, turned = node.den, {}
    stack = [(node, 0, 0, 0, 0, 0)]
    while stack:
        node, o, t0, t1, t2, t3 = stack.pop()
        if not node.children:
            yield (_placement(o, (t0, t1, t2, t3), 1) if den == 1 else
                   _placement(o, *reduced_coords(t0, t1, t2, t3, den))), o >= 6
            continue
        steps = turned.get((node, o))
        if steps is None:
            turn = _PRODUCT[o]
            steps = turned[node, o] = [
                (child, turn[q.orientation], *moved(o, _over(q, den),
                                                    (0, 0, 0, 0)))
                for child, q in reversed(node.children)]
        stack += [(child, co, t0 + s0, t1 + s1, t2 + s2, t3 + s3)
                  for child, co, s0, s1, s2, s3 in steps]


def _kite_box(node: SupertileNode, o: int, base_cells):
    """(box, parts) for `node` at orientation o about its own origin: box
    = (q_lo, q_hi, r_lo, r_hi) bounds its kite cells' hex coordinates, and
    parts holds each child's label, node, orientation and placed (q_lo,
    r_lo), or a single hat's cells; None if a hat under it is off the
    kite lattice.  Memoized on the node with its "steps", each child's
    lattice step from one `lattice_shift`, which `LATTICE_TURNS[o]`
    turns."""
    memo = node._kites
    key = o, base_cells
    if key not in memo:
        if not node.children:
            parts = hat_kite_cells(Placement(o % 6, o >= 6), base_cells)
            spans = [(q, q, r, r) for q, r, _ in parts]
        else:
            if "steps" not in memo:
                memo["steps"] = steps = []
                for label, (child, q) in zip(node.labels, node.children):
                    try:
                        steps.append((label, child, q.orientation,
                                      *lattice_shift(q)))
                    except LatticeError:  # off the lattice at every turn
                        steps.append((label, child, q, None, None))
            (a, c), (b, d) = LATTICE_TURNS[o]
            turn, parts, spans = _PRODUCT[o], [], []
            for label, child, co, m, n in memo["steps"]:
                box = m is not None and _kite_box(child, turn[co], base_cells)
                if not box:  # a miss at this step or under the piece
                    memo[key] = None
                    return None
                co, (q0, q1, r0, r1) = turn[co], box[0]
                m, n = a * m + b * n, c * m + d * n
                parts.append((label, child, co, q0 + m, r0 + n))
                spans.append((q0 + m, q1 + m, r0 + n, r1 + n))
        q_lo, q_hi, r_lo, r_hi = zip(*spans)
        memo[key] = (min(q_lo), max(q_hi), min(r_lo), max(r_hi)), parts
    return memo[key]


def _kite_bits(node: SupertileNode, o: int, width: int, base_cells,
               connected: bool = False) -> int:
    """The kite cells of `node` at orientation o about its own origin as
    one int, packed about the low corner of the node's box (see
    `packing_width`): the OR of its pieces' ints, each shifted into place
    (a single hat's pieces are its kites); memoized on the node.  Each
    piece's own bits are distinct, so the pieces share no kite exactly
    when the OR keeps all of them: one `bit_count` against the node's
    hats.  If `connected`, the same pass also decides, once per node and
    tile since a rigid motion keeps it, whether this node and every node
    under it are one edge-connected patch; a node whose OR lost bits
    fails without a flood, since its overlap is named first."""
    memo = node._kites
    key = o, width, base_cells
    contact = connected and base_cells not in memo
    if key not in memo or contact:
        (q_lo, _, r_lo, _), parts = _kite_box(node, o, base_cells)
        if node.children:
            pieces = (_kite_bits(child, co, width, base_cells, connected)
                      << 6 * ((cq - q_lo) * width + cr - r_lo)
                      for _, child, co, cq, cr in parts)
        else:  # a single hat: its kites are its pieces, distinct bits
            pieces = (1 << 6 * ((q - q_lo) * width + r - r_lo) + k
                      for q, r, k in parts)
        if contact:  # else each shifted int is dropped once ORed
            pieces = list(pieces)
        acc = 0
        for bits in pieces:
            acc |= bits
        if contact:
            memo[base_cells] = (
                acc.bit_count() == len(base_cells) * node.hats
                and all(child._kites[base_cells] for child, _ in node.children)
                and cells_connected(pieces, width))
        memo[key] = acc
    return memo[key]


def _fault(name: str, root: SupertileNode, base_cells, width: int) -> str:
    """The detail of the kite fault the pass at `width` found in `root`,
    named `name`: one walk from the root into the first piece that holds
    the fault.  At each node a lattice miss (no box) comes first; then a
    clash (its int lost bits): the first piece that meets the earlier
    ones, with the first that holds the lowest kite they share, unless a
    piece before it lost bits; else the first piece whose contact verdict
    failed, or the node, is disconnected."""
    node, o, where, lift = root, 0, name, 0
    while True:
        box = _kite_box(node, o, base_cells)
        if box is None:
            for label, child, co, m, _ in node._kites["steps"]:
                if m is None:  # co is the placement
                    v = Placement(o % 6, o >= 6).compose(co).translation
                    return (f"piece {where}/{label} is off the kite lattice: "
                            f"{v!r} is not on the hexagon lattice")
                co = _PRODUCT[o][co]
                if _kite_box(child, co, base_cells) is None:
                    break
        elif (node._kites[o, width, base_cells].bit_count()
              != len(base_cells) * node.hats):
            (q_lo, _, r_lo, _), parts = box
            acc, placed = 0, []
            for label, child, co, cq, cr in parts:
                shift = 6 * ((cq - q_lo) * width + cr - r_lo)
                bits = child._kites[co, width, base_cells]
                if bits.bit_count() != len(base_cells) * child.hats:
                    lift += shift
                    break
                bits <<= shift
                if clash := acc & bits:
                    bit = (clash & -clash).bit_length() - 1
                    first = next(lab for lab, other in placed
                                 if other >> bit & 1)
                    (q0, _, r0, _), _ = _kite_box(root, 0, base_cells)
                    v, k = divmod(bit + lift, 6)
                    cell = KiteCell(q0 + v // width, r0 + v % width, k)
                    return (f"{where}: pieces {first} and {label} overlap "
                            f"on kite {cell}")
                acc |= bits
                placed.append((label, bits))
        else:
            for label, (child, q) in zip(node.labels, node.children):
                if not child._kites[base_cells]:
                    co = _PRODUCT[o][q.orientation]
                    break
            else:
                return f"{where}: patch is disconnected"
        node, o, where = child, co, f"{where}/{label}"


def _first_kite_fault(roots, tile: TileData, connected: bool):
    """(root, detail) for the first of `roots` that fails the kite check,
    worded as `check_kites(root)` words it, else (None, the last root's
    detail).  Each root's box and size guard are taken in turn, up to the
    first lattice miss or refusal; the roots before it are then decided
    in turn at one packing width, the widest their boxes need, so no int
    is made for a refused patch and the nodes they share make each int
    once.  A root fails on its box, its int's bit count against its
    hats, or, with `connected`, its contact verdict; only then does
    `_fault` walk it for the wording."""
    cells, boxes, stop = tile.cells, [], None
    for root in roots:
        name = f"{root.kind}-{root.generation}"
        box = _kite_box(root, 0, cells)
        if box is None:
            stop = root, _fault(name, root, cells, 0)  # a miss needs no width
            break
        (q_lo, q_hi, r_lo, r_hi), _ = box
        size = 6 * (q_hi - q_lo + 1) * packing_width(r_hi - r_lo)
        if size > _MAX_BITS_PER_HAT * root.hats:
            stop = root, (f"{name}: patch too sparse for the kite check: "
                          f"{size} bits for {root.hats} hats, over "
                          f"{_MAX_BITS_PER_HAT} per hat")
            break
        boxes.append((name, r_hi - r_lo))
    width = packing_width(max((span for _, span in boxes), default=0))
    for root, (name, _) in zip(roots, boxes):
        bits = _kite_bits(root, 0, width, cells, connected)
        if (bits.bit_count() != len(cells) * root.hats
                or connected and not root._kites[cells]):
            return root, _fault(name, root, cells, width)
    return stop or (None, f"{bits.bit_count()} kite cells, no overlap")


def check_kites(node: SupertileNode, tile: TileData,
                connected: bool = False) -> tuple[bool, str]:
    """Check that the hats of a supertile built at the hat itself (a = 1,
    b = sqrt(3)) lie on distinct kites (and, if `connected`, that each
    supertile of its DAG is one edge-connected patch); returns (passed,
    detail).

    The cells are one int per (node, orientation) (see `_kite_bits`),
    made in one pass that decides overlap and contact and words nothing.
    Only a failure is then walked once from the root (see `_fault`), to
    name the label path, as in `hat-3/T/P4`: of a piece off the kite
    lattice, else of the node where a piece meets the earlier ones, with
    the lowest kite they share, else of the first disconnected node.  A
    patch over _MAX_BITS_PER_HAT bits per hat is refused before any int
    is made.  `_first_kite_fault` checks several supertiles in one pass.
    """
    failed, detail = _first_kite_fault([node], tile, connected)
    return failed is None, detail


def _value_form(cfg, section: str, stem: str) -> FormVec:
    """The form of keys stem_u and stem_w, each a point of Z[zeta], so its
    value is over the shape's denominator; else ConfigError names the key."""
    parts = []
    for key in (stem + "_u", stem + "_w"):
        v = value_vector(cfg.get(section, key))
        c, d = zeta_coords(v)
        if d != 1:
            raise ConfigError(f"key {key!r} in [{section}]: {v!r} does not "
                              f"lie in Z[zeta12]")
        parts.append(c)
    return FormVec(*parts)


def _rotation_k(deg: int) -> int:
    if deg % 60:
        raise ConfigError(f"rotation {deg} is not a multiple of 60 degrees")
    return (deg // 60) % 6


def layout_from_config(text: str, tile: TileData,
                       chains: dict | None = None) -> LayoutTable:
    """Parse and fully validate a layout config against `tile`'s cells.

    Validation is structural (ring size, rotation multiples) and then
    constructive: generations 1 through 4 are assembled at hat proportions,
    anchors from generation 3 on checked against the closed form, and their
    eight supertiles, hat-1, thc-1, ..., thc-4, are checked for kite
    disjointness and connectivity in that order, in one pass (see
    `_first_kite_fault`).  The first fault is raised, worded as by
    `check_kites` on its supertile; an assembly fault at generation n
    only once the generations below n pass.  `chains`, if given, keeps
    the checked chain under its shape (see `chain_at`), for the call to
    extend.
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
        tail2=_value_form(cfg, "anchors", "tail2"),
    )
    layout.validate_structure()
    # the constructive half: generations 1..4 at hat proportions
    p = hat_params()
    chain, nodes, late = Chain(p, layout), [], None
    try:
        for pair in chain.upto(4):
            nodes += pair
    except ConstructionError as e:
        late = e
    failed, detail = _first_kite_fault(nodes, tile, connected=True)
    if failed:
        raise ConstructionError(f"generation {failed.generation}: {detail}")
    if late:
        raise late
    if chains is not None:
        chains[p] = chain
    return layout


def search_layout(p: TileParams, layout: LayoutTable, tile: TileData,
                  window: int = 8,
                  chains: dict | None = None) -> list[LayoutTable]:
    """Search fourth-piece offsets that complete a valid generation 2.

    Candidate translations sweep a (2*window+1)^2 patch of the hexagon
    lattice around the configured offset.  A candidate survives when every
    assembled hat lies on the kite lattice, on kites of its own, and the
    hats form one connected patch.  Runs on hat proportions only, where
    the kite decomposition exists; offsets are recorded on the a-edge
    component of the form.  The candidates share the checked generation 1
    of `chain_at(p, layout, chains)`; each `build` adds a generation 2.
    """
    if p != hat_params():
        raise ConstructionError(
            "the fourth-piece search needs hat proportions (kite cells "
            "exist only there)")
    found, base = [], chain_at(p, layout, chains)
    for dm in range(-window, window + 1):
        for dn in range(-window, window + 1):
            shift = tuple(dm * u + dn * v for u, v in zip(*LATTICE_BASIS))
            cand = layout._replace(p4_gen2=FormVec(
                tuple(map(add, layout.p4_gen2.u, shift)), layout.p4_gen2.w))
            # a = 1, so the form's value moves by shift, a lattice point
            chain = base.moved_p4(cand, shift)
            if check_kites(build(HAT, 2, p, cand, {p: chain}), tile,
                           connected=True)[0]:
                found.append(cand)
    if not found:
        raise ConstructionError(
            f"no workable fourth-piece offset within {window} lattice "
            f"steps of the configured one")
    return found
