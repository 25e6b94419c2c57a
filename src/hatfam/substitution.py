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
keeps its chains for the call by layout and shape, so each supertile is
assembled once per call; `search_layout`'s candidates share one chain's
generation 1 (`Chain.moved_p4`) and its kite states.  `check_kites`
decides kite disjointness and contact on the DAG in one pass: each
node's lattice steps and six-sided reach are taken once per call, and
each (node, orientation) makes its cells once per pass as one int held
by the pass, the OR of its children's shifted ints, whose bit count
shows an overlap; touching connected pieces make a connected node.  A
root that fails is walked once more to word its fault.
`layout_from_config` checks generations 1-4 in one pass, and
`search_layout` all its candidates.  `expand` walks every single hat,
only to draw: on Q(zeta) int steps over the root's denominator, which it
turns once per (node, orientation), making a Placement per hat and none
per edge.  Every turn here is geometry's `moved`.
"""

from __future__ import annotations

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
from .exactnum import VecE, reduced_coords, zeta_coords, zeta_vector
from .geometry import (
    IDENTITY,
    KiteCell,
    LATTICE_BASIS,
    LatticeError,
    Placement,
    SIDE_TURNS,
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
    the node.  hats counts its single hats, summed once per shared node;
    _kites keeps its kite states by tile cells (see `_kite_state`).  Nodes
    compare by identity.
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
        self.hats = sum(child.hats for child, _ in children) if children else 1
        self._kites = {}


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
    A call's chains are keyed by layout and shape (see `chain_at`)."""

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
    """The chain of `layout` at p: the one `chains`, a call's chains by
    layout and shape, holds, else a new one, which `chains` keeps."""
    if chains is None:
        return Chain(p, layout)
    if (layout, p) not in chains:
        chains[layout, p] = Chain(p, layout)
    return chains[layout, p]


def build(kind: str, n: int, p: TileParams, layout: LayoutTable,
          chains: dict | None = None) -> SupertileNode:
    """Assemble the generation-n supertile of the given kind, extending
    the chain of `layout` at p that `chains` holds, if given (`chain_at`).

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


class _Kites:
    """A node's kite state for one tile's cells, made with its children's
    and kept on the node: size, 8 bits per hat; steps, per child up to the
    first off the kite lattice, (label, state, orientation, m, n) with (m,
    n) its lattice step, or (label, state, placement, None, None); reach,
    how far its hexagons get along the six sides at orientation 0 (see
    `SIDE_TURNS`), False if a hat under it is off the lattice; parts, per
    child (label, state, orientation, gaps), gaps[i] how far short of the
    node's reach along side i the placed child stops, or a single hat's
    cells; contact, a connected pass's verdict; its ints live in a pass."""

    __slots__ = "size", "steps", "reach", "parts", "contact"

    def __init__(self, node: SupertileNode, cells):
        self.size = len(cells) * node.hats
        self.steps, self.contact = [], None
        if not node.children:  # a single hat
            self.parts, self.reach = cells, tuple(map(max, zip(*[
                (q, -q, r, -r, -q - r, q + r) for q, r, _ in cells])))
            return
        self.reach, self.parts, reaches = False, False, []
        for label, (child, q) in zip(node.labels, node.children):
            child = _kite_state(child, cells)
            try:
                m, n = lattice_shift(q)
            except LatticeError:  # off the lattice at every turn
                self.steps.append((label, child, q, None, None))
                return
            self.steps.append((label, child, q.orientation, m, n))
            if not child.reach:  # a miss under the piece
                return
            g, s = child.reach, SIDE_TURNS[q.orientation]
            reaches.append((g[s[0]] + m, g[s[1]] - m, g[s[2]] + n,
                            g[s[3]] - n, g[s[4]] - m - n, g[s[5]] + m + n))
        self.reach = tuple(map(max, zip(*reaches)))
        self.parts = [(*step[:3], tuple(map(sub, self.reach, g)))
                      for step, g in zip(self.steps, reaches)]


def _kite_state(node: SupertileNode, cells) -> _Kites:
    """The kite state of `node` for `cells`, kept on the node."""
    if cells not in node._kites:
        node._kites[cells] = _Kites(node, cells)
    return node._kites[cells]


def _kite_bits(kites: _Kites, o: int, width: int, ints: dict,
               connected: bool) -> int:
    """Make `ints[kites, o]`, which the pass's `ints` lacks, each child's
    before it, and return it: the node's cells at orientation o packed
    about its box's low corner at `width` (see `packing_width`), the OR of
    its pieces' ints shifted by their gaps (a single hat's pieces are its
    kites), which share no kite exactly when the OR keeps every bit.  If
    `connected` and its contact verdict is open, the node passes when it
    kept every bit, each child passes and the pieces touch as one patch.
    An int the pass holds is read at the call site, with no call."""
    _, iq, _, ir, *_ = SIDE_TURNS[o]  # the sides -q and -r at the turn
    keep = connected and kites.contact is None
    if kites.steps:
        turn, acc, pieces = _PRODUCT[o], 0, []
        for _, child, co, gaps in kites.parts:
            co = turn[co]
            bits = (ints.get((child, co))
                    or _kite_bits(child, co, width, ints, connected)
                    ) << 6 * (gaps[iq] * width + gaps[ir])
            acc |= bits
            if keep:  # else each shifted int is dropped once ORed
                pieces.append(bits)
    else:  # a single hat: its kites are its pieces, distinct bits
        q0, r0 = kites.reach[iq], kites.reach[ir]
        pieces = [1 << 6 * ((q + q0) * width + r + r0) + k for q, r, k
                  in hat_kite_cells(_placement(o, (0,) * 4, 1), kites.parts)]
        acc = sum(pieces)
    if keep:
        kites.contact = (
            acc.bit_count() == kites.size
            and all(child.contact for _, child, *_ in kites.steps)
            and cells_connected(pieces, width))
    ints[kites, o] = acc
    return acc


def _fault(name: str, root: _Kites, width: int, ints: dict) -> str:
    """The detail of the kite fault the pass at `width`, with `ints`, found
    in `root`, named `name`, walking from it into the first piece that
    holds it: at each node a lattice miss first; then a clash (the int
    lost bits), the first piece to meet the earlier ones, with the first
    that holds their lowest shared kite, unless a piece before it lost
    bits; else the first piece, or the node, that is not one patch."""
    kites, o, where, lift = root, 0, name, 0
    while True:
        turn = _PRODUCT[o]
        if not kites.reach:
            for label, child, co, m, _ in kites.steps:
                if m is None:  # co is the placement
                    v = Placement(o % 6, o >= 6).compose(co).translation
                    return (f"piece {where}/{label} is off the kite lattice: "
                            f"{v!r} is not on the hexagon lattice")
            co = turn[co]  # the last step's piece holds the miss
        elif ints[kites, o].bit_count() != kites.size:
            _, iq, _, ir, *_ = SIDE_TURNS[o]
            acc, placed = 0, []
            for label, child, co, gaps in kites.parts:
                shift, co = 6 * (gaps[iq] * width + gaps[ir]), turn[co]
                bits = ints[child, co]
                if bits.bit_count() != child.size:
                    lift += shift
                    break
                bits <<= shift
                if clash := acc & bits:
                    bit = (clash & -clash).bit_length() - 1
                    first = next(lab for lab, other in placed
                                 if other >> bit & 1)
                    v, k = divmod(bit + lift, 6)
                    cell = KiteCell(v // width - root.reach[1],
                                    v % width - root.reach[3], k)
                    return (f"{where}: pieces {first} and {label} overlap "
                            f"on kite {cell}")
                acc |= bits
                placed.append((label, bits))
        else:
            for label, child, co, _ in kites.parts:
                if not child.contact:
                    co = turn[co]
                    break
            else:
                return f"{where}: patch is disconnected"
        kites, o, where = child, co, f"{where}/{label}"


def _kite_pass(roots, tile: TileData, connected: bool) -> tuple[list, str]:
    """(verdicts, detail): whether each of `roots` passes the kite check,
    and the first failure's detail as `check_kites(root)` words it, else
    the last root's cell count.  A root off the kite lattice fails, as does
    one whose box would take over _MAX_BITS_PER_HAT bits per hat, with no
    int made; the rest are decided at the widest packing width their boxes
    need, so shared nodes make each int once, into a dict freed on return."""
    screened, spans = [], []
    for root in roots:
        kites = _kite_state(root, tile.cells)
        name, refusal = f"{root.kind}-{root.generation}", None
        if kites.reach:  # a side's reach plus the opposite one's: a span
            q_span, r_span = map(add, kites.reach[:4:2], kites.reach[1:4:2])
            size = 6 * (q_span + 1) * packing_width(r_span)
            if size > _MAX_BITS_PER_HAT * root.hats:
                refusal = (f"{name}: patch too sparse for the kite check: "
                           f"{size} bits for {root.hats} hats, over "
                           f"{_MAX_BITS_PER_HAT} per hat")
            else:
                spans.append(r_span)
        screened.append((name, kites, refusal))
    width = packing_width(max(spans, default=0))
    verdicts, detail, ints = [], None, {}
    for name, kites, refusal in screened:
        ok = bool(kites.reach) and not refusal
        if ok:
            bits = (ints.get((kites, 0))
                    or _kite_bits(kites, 0, width, ints, connected))
            ok = bits.bit_count() == kites.size and (
                not connected or kites.contact)
        if not ok and detail is None:
            detail = refusal or _fault(name, kites, width, ints)
        verdicts.append(ok)
    return verdicts, detail or f"{bits.bit_count()} kite cells, no overlap"


def check_kites(node: SupertileNode, tile: TileData,
                connected: bool = False) -> tuple[bool, str]:
    """Check that the hats of a supertile built at the hat itself (a = 1,
    b = sqrt(3)) lie on distinct kites (and, if `connected`, that each
    supertile of its DAG is one edge-connected patch); returns (passed,
    detail).  One pass decides (see `_kite_pass`); a failure names its
    label path, as in `hat-3/T/P4` (see `_fault`): of a piece off the
    kite lattice, else of the node where a piece meets the earlier ones,
    with the lowest kite they share, else of the first disconnected node.
    """
    (ok,), detail = _kite_pass([node], tile, connected)
    return ok, detail


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
    `_kite_pass`).  The first fault is raised, worded as by
    `check_kites` on its supertile; an assembly fault at generation n
    only once the generations below n pass.  `chains`, if given, holds
    the chain it checks (see `chain_at`), for the call to extend.
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
    chain, nodes, late = chain_at(p, layout, chains), [], None
    try:
        for pair in chain.upto(4):
            nodes += pair
    except ConstructionError as e:
        late = e
    verdicts, detail = _kite_pass(nodes, tile, connected=True)
    if not all(verdicts):
        failed = nodes[verdicts.index(False)]
        raise ConstructionError(f"generation {failed.generation}: {detail}")
    if late:
        raise late
    return layout


def search_layout(p: TileParams, layout: LayoutTable, tile: TileData,
                  window: int = 8,
                  chains: dict | None = None) -> list[LayoutTable]:
    """Search fourth-piece offsets that complete a valid generation 2.

    Candidate translations sweep a (2*window+1)^2 patch of the hexagon
    lattice around the configured offset.  A candidate survives when every
    assembled hat lies on the kite lattice, on kites of its own, and the
    hats form one connected patch.  Runs on hat proportions only, where the
    kite decomposition exists; offsets are recorded on the a-edge component
    of the form.  The candidates share the checked generation 1 of
    `chain_at(p, layout, chains)`; each `build` adds a generation 2 on a
    chain held under its candidate, and one kite pass decides them all.
    """
    if p != hat_params():
        raise ConstructionError(
            "the fourth-piece search needs hat proportions (kite cells "
            "exist only there)")
    cands, roots, base = [], [], chain_at(p, layout, chains)
    for dm in range(-window, window + 1):
        for dn in range(-window, window + 1):
            shift = tuple(dm * u + dn * v for u, v in zip(*LATTICE_BASIS))
            cands.append(layout._replace(p4_gen2=FormVec(
                tuple(map(add, layout.p4_gen2.u, shift)), layout.p4_gen2.w)))
            # a = 1, so the form's value moves by shift, a lattice point
            chain = base.moved_p4(cands[-1], shift)
            roots.append(build(HAT, 2, p, cands[-1], {(cands[-1], p): chain}))
    verdicts, _ = _kite_pass(roots, tile, connected=True)
    found = [cand for cand, ok in zip(cands, verdicts) if ok]
    if not found:
        raise ConstructionError(
            f"no workable fourth-piece offset within {window} lattice "
            f"steps of the configured one")
    return found
