"""The verify suite: one item per invariant of the construction.

Each item takes the deepest generation to build and the run's context
(the tile, the layout, and the supertile chains built so far) and
returns a detail line, or raises VerifyFailure.  `run` times each item
and reports it as passed or failed.  Only `verify` imports this module,
and with it `render`, which the renderer item draws with.

`recurrence` and `angle-identity` read each shape's supervectors from one
`v_table` pass and compare on stored ints (`_same`, `_same_products`), so
no QSqrt3 is made only to be compared.  A failure text with fields is
formatted only once its check has failed.
"""

from __future__ import annotations

import math
import random
import time
from fractions import Fraction

from .configfile import ConfigError
from .exactnum import QSqrt3, render_scalar
from .geometry import GeometryError
from .render import RenderOptions, render_supertile
from .sequences import g_closed, g_recurrence, lucas, tile_counts
from .substitution import (
    HAT,
    ConstructionError,
    build,
    chain_at,
    check_kites,
    measured_supervector,
    search_layout,
)
from .supervectors import (
    TileParams,
    cross_dot,
    hat_params,
    make_params,
    tan_alpha,
    tan_theta,
    total_rotation_float,
    turtle_params,
    v3_buildup,
    v_closed,
    v_recurrence,
    v_table,
)

_PHI = (1 + math.sqrt(5)) / 2


class VerifyFailure(Exception):
    """One verification item did not hold."""


def _require(cond: bool, detail: str) -> None:
    """Fail with a fixed `detail`; a detail with fields is formatted in
    an `if` of its own, only when the check fails."""
    if not cond:
        raise VerifyFailure(detail)


def _same(x: QSqrt3, a: int, b: int, d: int) -> bool:
    """x == (a + b*sqrt(3))/d for ints a, b and d > 0, cross-multiplied
    on x's stored ints: no gcd runs and no QSqrt3 is made."""
    return x.a * d == a * x.d and x.b * d == b * x.d


def _same_products(x: QSqrt3, r: tuple, p: tuple, q: tuple) -> bool:
    """x*r == p*q, each of r, p, q ints (a, b, d) as `_same` takes them."""
    (ra, rb, rd), (pa, pb, pd), (qa, qb, qd) = r, p, q
    dx, dp = x.d * rd, pd * qd
    return ((x.a * ra + 3 * x.b * rb) * dp == (pa * qa + 3 * pb * qb) * dx
            and (x.a * rb + x.b * ra) * dp == (pa * qb + pb * qa) * dx)


def _is_3x_minus_y(c: QSqrt3, x: QSqrt3, y: QSqrt3) -> bool:
    """c == 3x - y on stored ints: directly when all three share one
    denominator, else cross-multiplied by `_same`."""
    if c.d == x.d == y.d:
        return c.a == 3 * x.a - y.a and c.b == 3 * x.b - y.b
    return _same(c, 3 * x.a * y.d - y.a * x.d, 3 * x.b * y.d - y.b * x.d,
                 x.d * y.d)


def _sample_params(count: int, seed: int = 20230306) -> list[TileParams]:
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        a = Fraction(rng.randint(1, 12), rng.randint(1, 12))
        b = Fraction(rng.randint(1, 12), rng.randint(1, 12))
        if a == b:
            continue
        out.append(make_params(QSqrt3(a), QSqrt3(b)))
    return out


def _chain(env, p: TileParams, top: int) -> list:
    """Generations 1..top at p as (hat, thc), from the run's chain at p:
    each is built once per verify run, and at the hat layout validation
    built generations 1-4."""
    return list(chain_at(p, env["layout"], env["chains"]).upto(top))


def _check_closed_forms(max_gen: int, env) -> str:
    hp = hat_params()
    want = [(0, 2), (1, 3), (3, 7), (8, 18)]
    for n, (x, y3) in enumerate(want):
        v = v_closed(n, hp)
        if not (v.x == QSqrt3(x) and v.y == QSqrt3(0, y3)):
            raise VerifyFailure(
                f"V_{n} = ({render_scalar(v.x)}, {render_scalar(v.y)})")
        if v_recurrence(n, hp) != v:
            raise VerifyFailure(f"recurrence V_{n} differs")
    for p in (hp, make_params(QSqrt3(2), QSqrt3(3))):
        _require(v3_buildup(p) == v_closed(3, p), "stepwise V_3 differs")
    return "V_0..V_3 exact, stepwise V_3 matches"


def _check_recurrence(max_gen: int, env) -> str:
    sets = [hat_params(), make_params(QSqrt3(2), QSqrt3(3)),
            make_params(QSqrt3(1), QSqrt3(1)),
            make_params(QSqrt3(Fraction(7, 3)), QSqrt3(Fraction(1, 2)))]
    for p in sets:
        vs = v_table(200, p)
        for n, (prev2, prev, cur) in enumerate(zip(vs, vs[1:], vs[2:]), 2):
            if not (_is_3x_minus_y(cur.x, prev.x, prev2.x)
                    and _is_3x_minus_y(cur.y, prev.y, prev2.y)):
                raise VerifyFailure(f"n={n} recurrence breaks")
    return "V_n = 3V_(n-1) - V_(n-2) for n <= 200 at 4 parameter sets"


def _check_g_sequence(max_gen: int, env) -> str:
    listed = [3, 11, 67, 451, 3083, 21123, 144771, 992267, 6801091,
              46615363, 319506443, 2189929731, 15010001667]
    closed = [g_closed(i) for i in range(1, 14)]
    if closed != listed:
        raise VerifyFailure(f"13-term table differs: {closed}")
    # one pass over the Lucas numbers, four plain steps per term: raws[n - 1]
    # is 8*lucas(4n - 2) + 21, and g(n) = raw / 15 in closed form
    raws = []
    cur, nxt = lucas(2), lucas(3)  # lucas(4n - 2), lucas(4n - 1)
    for _ in range(1000):
        raws.append(8 * cur + 21)
        l2 = cur + nxt
        l3 = nxt + l2
        cur = l2 + l3
        nxt = l3 + cur
    for n, raw in enumerate(raws, 1):
        if raw % 15:
            raise VerifyFailure(
                f"8*lucas({4 * n - 2}) + 21 not divisible by 15")
    _require(g_recurrence(500) == [raw // 15 for raw in raws[:500]],
             "closed form and recurrence disagree below n=500")
    return "13 listed terms, recurrence to n=500, divisibility to n=1000"


def _check_angle_identity(max_gen: int, env) -> str:
    # (shape, check the exact factor X_n, check g(n)): g(n) holds only at
    # hat proportions
    walks = [(hat_params(), True, True), (turtle_params(), True, False),
             *((p, True, False) for p in _sample_params(3)),
             (make_params(QSqrt3(5), QSqrt3(0, 5)), False, True)]
    for p, exact, hat_ratio in walks:
        tb, s2, t2 = p.s / p.t, p.s * p.s, p.t * p.t
        # tan(alpha_n) = cross/dot, so tan * X_n == tb, times 2t2 * dot,
        # is rhs * dot == cross * (t2 L_2n L_2n-2 + s2 F_2n F_2n-2), with
        # t2 and s2 put over one denominator d; tan * g(n) == tb is tb *
        # dot == cross * g(n).  No quotient is made.
        rhs, d = t2 * tb * 2, t2.d * s2.d
        ta, tr, sa, sr = t2.a * s2.d, t2.b * s2.d, s2.a * t2.d, s2.b * t2.d
        vs = v_table(50, p)
        # (F_2n-2, L_2n-2, F_2n, L_2n), stepped by x_n = 3x_(n-1) - x_(n-2)
        f0, l0, f1, l1 = 0, 2, 1, 3
        for n in range(1, 51):
            cross, dot = cross_dot(vs[n - 1], vs[n])
            ll, ff = l1 * l0, f1 * f0
            if exact and not _same_products(rhs, dot, cross, (
                    ta * ll + sa * ff, tr * ll + sr * ff, d)):
                raise VerifyFailure(f"exact factor identity fails at n={n}")
            if hat_ratio and not _same_products(tb, dot, cross,
                                                (g_closed(n), 0, 1)):
                raise VerifyFailure(f"g(n) identity fails at n={n}")
            f0, l0, f1, l1 = f1, l1, 3 * f1 - f0, 3 * l1 - l0
    return ("tan(alpha_n) times the exact factor is tan(beta) everywhere; "
            "the g(n) factor works at hat proportions")


def _check_angle_limit(max_gen: int, env) -> str:
    hp = hat_params()
    limit = math.asin(0.25)
    thetas = [tan_theta(n, hp) for n in range(41)]
    angles = [theta.to_float() for theta in thetas]
    if not abs(angles[40] - limit) < 1e-12:
        raise VerifyFailure(f"theta_40 = {angles[40]}")
    total = total_rotation_float(hp)
    if not abs(total - limit) < 1e-12:
        raise VerifyFailure(f"total rotation = {total}")
    tans = [theta.value for theta in thetas]
    _require(all((b - a).sign() > 0 for a, b in zip(tans, tans[1:])),
             "exact tan(theta_n) is not strictly increasing")
    _require(all(b >= a for a, b in zip(angles, angles[1:])),
             "float theta_n decreases somewhere")
    return "theta_40 and the limit equal arcsin(1/4); theta_n monotone"


def _check_scaling(max_gen: int, env) -> str:
    hp = hat_params()
    v20 = v_closed(20, hp).to_floats()
    v19 = v_closed(19, hp).to_floats()
    ratio = math.hypot(*v20) / math.hypot(*v19)
    if not abs(ratio - _PHI ** 2) < 1e-9:
        raise VerifyFailure(f"|V_20|/|V_19| = {ratio}")
    r = (float(tan_alpha(10, hp).value) / float(tan_alpha(11, hp).value))
    if not abs(r - _PHI ** 4) < 1e-6:
        raise VerifyFailure(f"alpha ratio = {r}")
    return "supervector growth phi^2, angle decay phi^4"


def _check_supervector_construction(max_gen: int, env) -> str:
    hp = hat_params()
    p23 = make_params(QSqrt3(2), QSqrt3(3))
    for p, top, where in ((hp, max_gen, "hat params"),
                          (p23, min(4, max_gen), "Tile(2,3)")):
        for n, nodes in enumerate(_chain(env, p, top), 1):
            for node in nodes:
                if measured_supervector(node) != v_closed(n, p):
                    raise VerifyFailure(
                        f"{node.kind}-{n} supervector differs at {where}")
    return (f"measured = closed form, both kinds, n <= {max_gen} "
            f"plus a rational shape")


def _check_tile_counts(max_gen: int, env) -> str:
    for n, nodes in enumerate(_chain(env, hat_params(), max_gen), 1):
        for node in nodes:
            if node.hats != tile_counts(node.kind, n):
                raise VerifyFailure(f"{node.kind}-{n} has {node.hats} hats")
    return f"expansion sizes match the count recurrence, n <= {max_gen}"


def _check_non_overlap(max_gen: int, env) -> str:
    # hat-max_gen's DAG holds every lower hat, and a root whose int keeps
    # all its bits has no two hats on one kite below it: one pass covers all
    hat = _chain(env, hat_params(), max_gen)[-1][0]
    ok, detail = check_kites(hat, env["tile"])
    if not ok:
        raise VerifyFailure(f"generation {max_gen}: {detail}")
    want = 8 * tile_counts(HAT, max_gen)
    if detail != f"{want} kite cells, no overlap":
        raise VerifyFailure(
            f"generation {max_gen} covers {detail}, expected {want} cells")
    return f"all hats on distinct kites, 8 cells per hat, n <= {max_gen}"


def _check_outline(max_gen: int, env) -> str:
    tile = env["tile"]
    varied = [hat_params(), make_params(QSqrt3(2), QSqrt3(3)),
              make_params(QSqrt3(1), QSqrt3(1)), turtle_params(),
              make_params(QSqrt3(5), QSqrt3(2))]
    # tracing an outline checks that it closes and stays simple at its
    # shape; the one at the hat is the one tile_from_config checked
    for p in varied:
        tile.outline(p)
    for k in (1, 2, 3, 5, 7):
        p = make_params(QSqrt3(k), QSqrt3(0, k))
        if tile.area(p) != p.a * p.b * 8:
            raise VerifyFailure(f"area != 8ab at a={k}")
    return "closes and stays simple at 5 shapes; area 8ab at hat proportions"


def _check_renderer(max_gen: int, env) -> str:
    import xml.etree.ElementTree as ET  # only this item parses XML
    tile, layout = env["tile"], env["layout"]
    hp = hat_params()
    gen = min(3, max_gen)
    node = _chain(env, hp, max_gen)[gen - 1][0]
    svg1 = render_supertile(node, hp, RenderOptions(), tile)
    svg2 = render_supertile(build(HAT, gen, hp, layout), hp,
                            RenderOptions(), tile)
    _require(svg1 == svg2, "two renders differ")
    root = ET.fromstring(svg1)
    paths = sum(1 for _ in root.iter("{http://www.w3.org/2000/svg}path"))
    if paths != tile_counts(HAT, gen):
        raise VerifyFailure(f"{paths} paths")
    return f"hat-{gen} SVG deterministic, {paths} paths, parses as XML"


def _check_layout_config(max_gen: int, env) -> str:
    tile, layout = env["tile"], env["layout"]
    found = search_layout(hat_params(), layout, tile, 1, env["chains"])
    _require(any(c.p4_gen2 == layout.p4_gen2 for c in found),
             "configured fourth-piece offset not found by search")
    return ("layout config passes construction validation; search refinds "
            "the configured offset")


_VERIFY_ITEMS = (
    ("closed-forms", _check_closed_forms),
    ("recurrence", _check_recurrence),
    ("g-sequence", _check_g_sequence),
    ("angle-identity", _check_angle_identity),
    ("angle-limit", _check_angle_limit),
    ("scaling", _check_scaling),
    ("supervector-construction", _check_supervector_construction),
    ("tile-counts", _check_tile_counts),
    ("non-overlap", _check_non_overlap),
    ("outline", _check_outline),
    ("renderer", _check_renderer),
    ("layout-config", _check_layout_config),
)


def run(max_gen: int, tile, layout,
        chains: dict) -> list[tuple[str, bool, str, float]]:
    """Run every item; return (name, passed, detail, seconds) for each.
    `chains`, the call's chains by layout and shape (see
    `substitution.chain_at`), is read and extended."""
    env = {"tile": tile, "layout": layout, "chains": chains}
    items = []
    for name, fn in _VERIFY_ITEMS:
        t0 = time.perf_counter()
        try:
            detail = fn(max_gen, env)
            ok = True
        except (VerifyFailure, ConstructionError, GeometryError,
                ConfigError) as e:
            detail, ok = str(e), False
        items.append((name, ok, detail, time.perf_counter() - t0))
    return items
