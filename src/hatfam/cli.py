"""Command line interface.

Subcommands: sequence (fib/lucas/g tables), vectors (supervectors and
rotation angles), build (assemble supertiles and check them), render
(SVG figures), verify (the whole invariant suite).  Exit codes: 0 on
success, 1 when a verification fails, 2 for usage or config problems.
"""

from __future__ import annotations

import argparse
import json
import math
import random
import sys
import time
from fractions import Fraction
from pathlib import Path

from .configfile import ConfigError, load_text
from .exactnum import QSqrt3, parse_scalar, render_scalar
from .geometry import GeometryError, shoelace_area, tile_from_config
from .render import (
    RenderError,
    RenderOptions,
    element_count,
    render_supertile,
)
from .sequences import fib, g_closed, g_recurrence, lucas, tile_counts
from .substitution import (
    HAT,
    THC,
    ConstructionError,
    build,
    check_kites,
    generations,
    layout_from_config,
    measured_supervector,
    search_layout,
)
from .supervectors import (
    AngleTan,
    DomainError,
    TileParams,
    hat_params,
    has_hat_proportion,
    make_params,
    tan_alpha,
    tan_between,
    tan_theta,
    total_rotation_float,
    turtle_params,
    v3_buildup,
    v_closed,
    v_recurrence,
)

_PHI = (1 + math.sqrt(5)) / 2
# build and verify refuse supertiles with more hats than this; the kite
# check no longer needs the cap, but it stands until lifted on purpose
MAX_HATS = 1_000_000


class VerifyFailure(Exception):
    """One verification item did not hold."""


def _scalar(text: str) -> QSqrt3:
    try:
        return parse_scalar(text)
    except ValueError as e:
        raise argparse.ArgumentTypeError(str(e)) from e


def _positive_int(text: str) -> int:
    try:
        n = int(text)
    except ValueError as e:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from e
    if n < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {n}")
    return n


def _emit(text: str, out: str | None) -> None:
    if out:
        Path(out).write_text(text + "\n", encoding="utf-8")
    else:
        print(text)


def _params(args) -> TileParams:
    p = make_params(args.a, args.b)
    if p.a == p.b:
        print("warning: a == b puts the tilt angle on the excluded boundary "
              "value (tan beta = 2 - sqrt(3)); the construction still works",
              file=sys.stderr)
    return p


def _load_tile_layout(args):
    tile = tile_from_config(load_text("tile.cfg", args.data_dir))
    layout = layout_from_config(load_text("layout.cfg", args.data_dir), tile)
    return tile, layout


def _too_many_hats(kind: str, gen: int) -> bool:
    count = tile_counts(kind, gen)
    if count <= MAX_HATS:
        return False
    print(f"error: {kind} generation {gen} expands to {count} hats, over "
          f"the cap of {MAX_HATS}", file=sys.stderr)
    return True


def _render_vec(v) -> str:
    return f"({render_scalar(v.x)}, {render_scalar(v.y)})"


def cmd_sequence(args) -> int:
    if args.kind == "g":
        terms = [g_closed(i) for i in range(1, args.count + 1)]
        recur = g_recurrence(args.count)
        verified = terms == recur
        if args.format == "json":
            _emit(json.dumps({"kind": "g", "count": args.count,
                              "terms": terms, "verified": verified},
                             indent=2), args.out)
        else:
            lines = [" ".join(str(t) for t in terms)]
            lines.append("closed form matches recurrence: "
                         + ("verified" if verified else "MISMATCH"))
            _emit("\n".join(lines), args.out)
        return 0 if verified else 1
    fn = fib if args.kind == "fib" else lucas
    terms = [fn(i) for i in range(args.count)]
    if args.format == "json":
        _emit(json.dumps({"kind": args.kind, "count": args.count,
                          "terms": terms}, indent=2), args.out)
    else:
        _emit(" ".join(str(t) for t in terms), args.out)
    return 0


def cmd_vectors(args) -> int:
    p = _params(args)
    rows = []
    vs = [v_closed(n, p) for n in range(args.max + 1)]
    for n, v in enumerate(vs):
        rows.append({
            "n": n,
            "vx": render_scalar(v.x),
            "vy": render_scalar(v.y),
            "theta": AngleTan(v.x / v.y).to_float(),
            "tan_alpha": (render_scalar(tan_between(vs[n - 1], v).value)
                          if n else None),
        })
    total = total_rotation_float(p)
    if args.format == "json":
        doc = {
            "params": {"a": render_scalar(p.a), "b": render_scalar(p.b),
                       "s": render_scalar(p.s), "t": render_scalar(p.t)},
            "rows": rows,
            "total_rotation": total,
        }
        _emit(json.dumps(doc, indent=2), args.out)
        return 0
    lines = [f"Tile(a={render_scalar(p.a)}, b={render_scalar(p.b)}): "
             f"s={render_scalar(p.s)}, t={render_scalar(p.t)}",
             f"{'n':>3}  {'V_n':<26} {'theta_n':>15}  "
             f"{'tan(alpha_n)':<22} {'g(n)':>14}"]
    for row in rows:
        g = g_closed(row["n"]) if row["n"] else "-"
        alpha = row["tan_alpha"] if row["tan_alpha"] is not None else "-"
        vn = f"({row['vx']}, {row['vy']})"
        lines.append(f"{row['n']:>3}  {vn:<26} {row['theta']:>15.12f}  "
                     f"{alpha:<22} {g:>14}")
    lines.append(f"total rotation: {total:.12f} rad")
    _emit("\n".join(lines), args.out)
    return 0


def cmd_build(args) -> int:
    p = _params(args)
    if _too_many_hats(args.kind, args.gen):
        return 2

    tile, layout = _load_tile_layout(args)
    t0 = time.perf_counter()
    node = build(args.kind, args.gen, p, layout)
    want = tile_counts(args.kind, args.gen)
    got_v = measured_supervector(node)
    want_v = v_closed(args.gen, p)
    if not has_hat_proportion(p):
        disjoint = True, "skipped: needs hat proportions"
    else:
        # kites exist at the hat itself; Tile(a, sqrt(3)*a) is that patch
        # scaled by a, so check the a = 1 supertile
        unit = node if p.a == 1 else build(args.kind, args.gen, hat_params(),
                                           layout)
        disjoint = check_kites(unit, tile)
    results = [
        ("counts", node.hats == want, f"{node.hats} hats, expected {want}"),
        ("supervector", got_v == want_v,
         f"measured {_render_vec(got_v)}, closed form {_render_vec(want_v)}"),
        ("disjoint", *disjoint),
    ]
    elapsed = time.perf_counter() - t0

    all_ok = all(ok for _, ok, _ in results)
    if args.format == "json":
        doc = {"kind": args.kind, "generation": args.gen,
               "params": {"a": render_scalar(p.a), "b": render_scalar(p.b)},
               "hats": node.hats,
               "checks": [{"name": n, "pass": ok, "detail": d}
                          for n, ok, d in results]}
        _emit(json.dumps(doc, indent=2), args.out)
    else:
        lines = [f"{args.kind} generation {args.gen}: {node.hats} hats "
                 f"({elapsed:.3f}s)"]
        lines += [f"{'PASS' if ok else 'FAIL'} {name}: {detail}"
                  for name, ok, detail in results]
        _emit("\n".join(lines), args.out)
    return 0 if all_ok else 1


def cmd_render(args) -> int:
    p = _params(args)
    tile, layout = _load_tile_layout(args)
    node = build(args.kind, args.gen, p, layout)
    opts = RenderOptions(
        show_grid=args.grid,
        show_supervectors=args.supervectors,
        scheme=args.scheme,
        stroke_width=args.stroke_width,
        margin=args.margin,
        max_svg_nodes=args.max_nodes,
    )
    svg = render_supertile(node, p, opts, tile)
    out = args.out or f"{args.kind}-{args.gen}.svg"
    Path(out).write_text(svg, encoding="utf-8")
    elements = element_count(svg)
    if args.format == "json":
        print(json.dumps({"out": out, "svg_elements": elements,
                          "hats": node.hats}, indent=2))
    else:
        print(f"{out}: {elements} svg elements, {node.hats} hats")
    return 0


def _require(cond: bool, detail: str) -> None:
    if not cond:
        raise VerifyFailure(detail)


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
    """Generations 1..top at p as (hat, thc), built once per verify run."""
    key = (p, top)
    if key not in env:
        env[key] = list(generations(top, p, env["layout"]))
    return env[key]


def _check_closed_forms(max_gen: int, env) -> str:
    hp = hat_params()
    want = [(0, 2), (1, 3), (3, 7), (8, 18)]
    for n, (x, y3) in enumerate(want):
        v = v_closed(n, hp)
        _require(v.x == QSqrt3(x) and v.y == QSqrt3(0, y3),
                 f"V_{n} = {_render_vec(v)}")
        _require(v_recurrence(n, hp) == v, f"recurrence V_{n} differs")
    for p in (hp, make_params(QSqrt3(2), QSqrt3(3))):
        _require(v3_buildup(p) == v_closed(3, p), "stepwise V_3 differs")
    return "V_0..V_3 exact, stepwise V_3 matches"


def _check_recurrence(max_gen: int, env) -> str:
    sets = [hat_params(), make_params(QSqrt3(2), QSqrt3(3)),
            make_params(QSqrt3(1), QSqrt3(1)),
            make_params(QSqrt3(Fraction(7, 3)), QSqrt3(Fraction(1, 2)))]
    for p in sets:
        prev2, prev = v_closed(0, p), v_closed(1, p)
        for n in range(2, 201):
            cur = v_closed(n, p)
            _require(cur == 3 * prev - prev2, f"n={n} recurrence breaks")
            prev2, prev = prev, cur
    return "V_n = 3V_(n-1) - V_(n-2) for n <= 200 at 4 parameter sets"


def _check_g_sequence(max_gen: int, env) -> str:
    listed = [3, 11, 67, 451, 3083, 21123, 144771, 992267, 6801091,
              46615363, 319506443, 2189929731, 15010001667]
    closed = [g_closed(i) for i in range(1, 14)]
    _require(closed == listed, f"13-term table differs: {closed}")
    # one pass over the Lucas numbers: after step i, cur = lucas(i), and
    # at i = 4n - 2 the closed form g(n) = (8*cur + 21)/15
    terms = []
    cur, nxt = lucas(0), lucas(1)
    for i in range(1, 4 * 1000 - 1):
        cur, nxt = nxt, cur + nxt
        if i % 4 == 2:
            _require((8 * cur + 21) % 15 == 0,
                     f"8*lucas({i}) + 21 not divisible by 15")
            if i < 4 * 500:
                terms.append((8 * cur + 21) // 15)
    _require(g_recurrence(500) == terms,
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
        vs = [v_closed(n, p) for n in range(51)]
        # (F_2n-2, L_2n-2, F_2n, L_2n), stepped by x_n = 3x_(n-1) - x_(n-2)
        f0, l0, f1, l1 = 0, 2, 1, 3
        for n in range(1, 51):
            tan = tan_between(vs[n - 1], vs[n]).value
            if exact:  # X_n = (t^2 L_2n L_2n-2 + s^2 F_2n F_2n-2) / 2t^2
                x_n = (t2 * (l1 * l0) + s2 * (f1 * f0)) / (t2 * 2)
                _require(tan * x_n == tb,
                         f"exact factor identity fails at n={n}")
            if hat_ratio:
                _require(tan * g_closed(n) == tb,
                         f"g(n) identity fails at n={n}")
            f0, l0, f1, l1 = f1, l1, 3 * f1 - f0, 3 * l1 - l0
    return ("tan(alpha_n) times the exact factor is tan(beta) everywhere; "
            "the g(n) factor works at hat proportions")


def _check_angle_limit(max_gen: int, env) -> str:
    hp = hat_params()
    limit = math.asin(0.25)
    thetas = [tan_theta(n, hp) for n in range(41)]
    angles = [theta.to_float() for theta in thetas]
    _require(abs(angles[40] - limit) < 1e-12, f"theta_40 = {angles[40]}")
    _require(abs(total_rotation_float(hp) - limit) < 1e-12,
             f"total rotation = {total_rotation_float(hp)}")
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
    _require(abs(ratio - _PHI ** 2) < 1e-9, f"|V_20|/|V_19| = {ratio}")
    r = (float(tan_alpha(10, hp).value) / float(tan_alpha(11, hp).value))
    _require(abs(r - _PHI ** 4) < 1e-6, f"alpha ratio = {r}")
    return "supervector growth phi^2, angle decay phi^4"


def _check_supervector_construction(max_gen: int, env) -> str:
    hp = hat_params()
    p23 = make_params(QSqrt3(2), QSqrt3(3))
    for p, top, where in ((hp, max_gen, "hat params"),
                          (p23, min(4, max_gen), "Tile(2,3)")):
        for n, nodes in enumerate(_chain(env, p, top), 1):
            for node in nodes:
                _require(measured_supervector(node) == v_closed(n, p),
                         f"{node.kind}-{n} supervector differs at {where}")
    return (f"measured = closed form, both kinds, n <= {max_gen} "
            f"plus a rational shape")


def _check_tile_counts(max_gen: int, env) -> str:
    for n, nodes in enumerate(_chain(env, hat_params(), max_gen), 1):
        for node in nodes:
            _require(node.hats == tile_counts(node.kind, n),
                     f"{node.kind}-{n} has {node.hats} hats")
    return f"expansion sizes match the count recurrence, n <= {max_gen}"


def _check_non_overlap(max_gen: int, env) -> str:
    tile = env["tile"]
    for n, (hat, _) in enumerate(_chain(env, hat_params(), max_gen), 1):
        ok, detail = check_kites(hat, tile)
        _require(ok, f"generation {n}: {detail}")
        want = 8 * tile_counts(HAT, n)
        _require(detail == f"{want} kite cells, no overlap",
                 f"generation {n} covers {detail}, expected {want} cells")
    return f"all hats on distinct kites, 8 cells per hat, n <= {max_gen}"


def _check_outline(max_gen: int, env) -> str:
    tile = env["tile"]
    varied = [hat_params(), make_params(QSqrt3(2), QSqrt3(3)),
              make_params(QSqrt3(1), QSqrt3(1)), turtle_params(),
              make_params(QSqrt3(5), QSqrt3(2))]
    # building an outline checks edge lengths and simplicity
    outlines = {p: tile.outline(p) for p in varied}
    for k in (1, 2, 3, 5, 7):
        p = make_params(QSqrt3(k), QSqrt3(0, k))
        outline = outlines[p] if p in outlines else tile.outline(p)
        _require(shoelace_area(outline) == p.a * p.b * 8,
                 f"area != 8ab at a={k}")
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
    _require(paths == tile_counts(HAT, gen), f"{paths} paths")
    return f"hat-{gen} SVG deterministic, {paths} paths, parses as XML"


def _check_layout_config(max_gen: int, env) -> str:
    tile, layout = env["tile"], env["layout"]
    found = search_layout(hat_params(), layout, tile, window=1)
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


def cmd_verify(args) -> int:
    if args.max_gen < 2:
        print("error: --max-gen must be >= 2", file=sys.stderr)
        return 2
    if _too_many_hats(HAT, args.max_gen):
        return 2
    items = []
    t0 = time.perf_counter()
    try:
        tile, layout = _load_tile_layout(args)
    except (ConstructionError, GeometryError) as e:
        # a layout that fails to load is the one item reported
        items.append(("layout-config", False, str(e),
                      time.perf_counter() - t0))
    else:
        env = {"tile": tile, "layout": layout}
        for name, fn in _VERIFY_ITEMS:
            t0 = time.perf_counter()
            try:
                detail = fn(args.max_gen, env)
                ok = True
            except VerifyFailure as e:
                detail, ok = str(e), False
            except (ConstructionError, GeometryError, ConfigError) as e:
                detail, ok = str(e), False
            items.append((name, ok, detail, time.perf_counter() - t0))
    all_ok = all(ok for _, ok, _, _ in items)
    if args.format == "json":
        doc = {"max_gen": args.max_gen,
               "items": [{"name": n, "pass": ok, "detail": d, "seconds": dt}
                         for n, ok, d, dt in items],
               "pass": all_ok}
        _emit(json.dumps(doc, indent=2), args.out)
    else:
        lines = [f"{'PASS' if ok else 'FAIL'} {name}: {detail} ({dt:.2f}s)"
                 for name, ok, detail, dt in items]
        lines.append(f"{sum(1 for _, ok, _, _ in items if ok)}/{len(items)} "
                     f"items passed")
        _emit("\n".join(lines), args.out)
    return 0 if all_ok else 1


def _add_common(sub, params=True):
    if params:
        sub.add_argument("-a", type=_scalar, default=parse_scalar("1"),
                         metavar="SCALAR",
                         help="edge length a (default 1)")
        sub.add_argument("-b", type=_scalar, default=parse_scalar("r3"),
                         metavar="SCALAR",
                         help="edge length b (default r3, the hat)")
    sub.add_argument("--format", choices=("text", "json"), default="text")
    sub.add_argument("-o", "--out", metavar="FILE",
                     help="write output to a file instead of stdout")
    sub.add_argument("--data-dir", metavar="DIR",
                     help="directory with tile.cfg and layout.cfg "
                          "(or set HATFAM_DATA_DIR)")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hatfam",
        description="Supertiles, supervectors, and rotation angles of the "
                    "Tile(a,b) hat family.")
    subs = parser.add_subparsers(dest="command", required=True)

    seq = subs.add_parser("sequence", help="print fib, lucas, or g terms")
    seq.add_argument("kind", choices=("fib", "lucas", "g"))
    seq.add_argument("count", type=_positive_int)
    _add_common(seq, params=False)
    seq.set_defaults(func=cmd_sequence)

    vec = subs.add_parser("vectors",
                          help="supervector table with rotation angles")
    vec.add_argument("-n", "--max", type=_positive_int, default=8,
                     help="largest generation to list (default 8)")
    _add_common(vec)
    vec.set_defaults(func=cmd_vectors)

    bld = subs.add_parser("build", help="assemble a supertile and check it")
    bld.add_argument("kind", choices=(HAT, THC))
    bld.add_argument("gen", type=_positive_int)
    _add_common(bld)
    bld.set_defaults(func=cmd_build)

    ren = subs.add_parser("render", help="write a supertile SVG figure")
    ren.add_argument("kind", choices=(HAT, THC))
    ren.add_argument("gen", type=_positive_int)
    ren.add_argument("--grid", action="store_true",
                     help="draw the kite grid under the hats")
    ren.add_argument("--supervectors", type=int, default=0, metavar="LEVELS",
                     help="draw anchor arrows for this many top generations")
    ren.add_argument("--scheme", choices=("rotation", "plain"),
                     default="rotation")
    ren.add_argument("--stroke-width", type=float, default=0.06)
    ren.add_argument("--margin", type=float, default=1.0)
    ren.add_argument("--max-nodes", type=_positive_int, default=20000,
                     help="refuse figures expanding past this many hats")
    _add_common(ren)
    ren.set_defaults(func=cmd_render)

    ver = subs.add_parser("verify", help="run the full invariant suite")
    ver.add_argument("--max-gen", type=_positive_int, default=5,
                     help="deepest generation the construction checks build")
    _add_common(ver, params=False)
    ver.set_defaults(func=cmd_verify)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, DomainError, RenderError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except (ConstructionError, GeometryError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except OSError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
