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
import warnings
import xml.etree.ElementTree as ET
from fractions import Fraction
from pathlib import Path

from .configfile import ConfigError, load_text
from .exactnum import QSqrt3, parse_scalar, render_scalar
from .geometry import (
    GeometryError,
    check_kites,
    disjoint_cells,
    is_simple,
    shoelace_area,
    tile_from_config,
    validate_outline,
)
from .render import RenderError, RenderOptions, render_supertile
from .sequences import fib, g_closed, g_recurrence, lucas, tile_counts
from .substitution import (
    HAT,
    THC,
    ConstructionError,
    build,
    expand,
    layout_from_config,
    measured_supervector,
    search_layout,
)
from .supervectors import (
    DomainError,
    TileParams,
    hat_params,
    has_hat_proportion,
    make_params,
    tan_alpha,
    tan_theta,
    theta_float,
    total_rotation_float,
    turtle_params,
    v3_buildup,
    v_closed,
    v_recurrence,
)

_PHI = (1 + math.sqrt(5)) / 2
# build and verify refuse supertiles with more hats than this: every
# placement and its eight kite cells are held in memory at once
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
    return make_params(args.a, args.b)


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
    for n in range(args.max + 1):
        v = v_closed(n, p)
        rows.append({
            "n": n,
            "vx": render_scalar(v.x),
            "vy": render_scalar(v.y),
            "theta": theta_float(n, p),
            "tan_alpha": render_scalar(tan_alpha(n, p).value) if n else None,
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
    wanted = set(args.checks)
    if "all" in wanted:
        wanted = {"counts", "supervector", "disjoint"}
        explicit_disjoint = False
    else:
        explicit_disjoint = "disjoint" in wanted
    if explicit_disjoint and not has_hat_proportion(p):
        print("error: the disjoint check runs on kite cells, which exist "
              "only at hat proportions (b = sqrt(3)*a)", file=sys.stderr)
        return 2
    if _too_many_hats(args.kind, args.gen):
        return 2

    tile, layout = _load_tile_layout(args)
    t0 = time.perf_counter()
    node = build(args.kind, args.gen, p, layout)
    placed = list(expand(node))
    results = []
    if "counts" in wanted:
        want = tile_counts(args.kind, args.gen)
        ok = len(placed) == want
        results.append(("counts", ok, f"{len(placed)} hats, expected {want}"))
    if "supervector" in wanted:
        got = measured_supervector(node)
        want_v = v_closed(args.gen, p)
        results.append(("supervector", got == want_v,
                        f"measured {_render_vec(got)}, closed form "
                        f"{_render_vec(want_v)}"))
    if "disjoint" in wanted:
        results.append(("disjoint",
                        *check_kites((q for q, _ in placed), p, tile)))
    elapsed = time.perf_counter() - t0

    all_ok = all(ok for _, ok, _ in results)
    if args.format == "json":
        doc = {"kind": args.kind, "generation": args.gen,
               "params": {"a": render_scalar(p.a), "b": render_scalar(p.b)},
               "hats": len(placed),
               "checks": [{"name": n, "pass": ok, "detail": d}
                          for n, ok, d in results]}
        _emit(json.dumps(doc, indent=2), args.out)
    else:
        lines = [f"{args.kind} generation {args.gen}: {len(placed)} hats "
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
    elements = sum(1 for _ in ET.fromstring(svg).iter())
    print(f"{out}: {elements} svg elements, "
          f"{tile_counts(args.kind, args.gen)} hats")
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
        out.append(make_params(QSqrt3.of(a), QSqrt3.of(b)))
    return out


def _alpha_factor(n: int, p: TileParams) -> QSqrt3:
    """Exact factor turning tan(alpha_n) into tan(beta) for any shape."""
    num = (p.t * p.t * lucas(2 * n) * lucas(2 * n - 2)
           + p.s * p.s * fib(2 * n) * fib(2 * n - 2))
    return num / (p.t * p.t * 2)


def _check_closed_forms(max_gen: int, env) -> str:
    hp = hat_params()
    want = [(0, 2), (1, 3), (3, 7), (8, 18)]
    for n, (x, y3) in enumerate(want):
        v = v_closed(n, hp)
        _require(v.x == QSqrt3.of(x) and v.y == QSqrt3.of(0, y3),
                 f"V_{n} = {_render_vec(v)}")
        _require(v_recurrence(n, hp) == v, f"recurrence V_{n} differs")
    for p in (hp, make_params(QSqrt3.of(2), QSqrt3.of(3))):
        _require(v3_buildup(p) == v_closed(3, p), "stepwise V_3 differs")
    return "V_0..V_3 exact, stepwise V_3 matches"


def _check_recurrence(max_gen: int, env) -> str:
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        sets = [hat_params(), make_params(QSqrt3.of(2), QSqrt3.of(3)),
                make_params(QSqrt3.of(1), QSqrt3.of(1)),
                make_params(QSqrt3.of(Fraction(7, 3)),
                            QSqrt3.of(Fraction(1, 2)))]
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
    _require(g_recurrence(500) == [g_closed(i) for i in range(1, 501)],
             "closed form and recurrence disagree below n=500")
    # one pass over the Lucas numbers: after step i, cur = lucas(i)
    cur, nxt = lucas(0), lucas(1)
    for i in range(1, 4 * 1000 - 1):
        cur, nxt = nxt, cur + nxt
        if i % 4 == 2:
            _require((8 * cur + 21) % 15 == 0,
                     f"8*lucas({i}) + 21 not divisible by 15")
    return "13 listed terms, recurrence to n=500, divisibility to n=1000"


def _check_angle_identity(max_gen: int, env) -> str:
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        shapes = [hat_params(), turtle_params()] + _sample_params(3)
    for p in shapes:
        tb = p.s / p.t
        for n in range(1, 51):
            got = tan_alpha(n, p).value * _alpha_factor(n, p)
            _require(got == tb, f"exact factor identity fails at n={n}")
    for p in (hat_params(), make_params(QSqrt3.of(5), QSqrt3.of(0, 5))):
        tb = p.s / p.t
        for n in range(1, 51):
            _require(tan_alpha(n, p).value * g_closed(n) == tb,
                     f"g(n) identity fails at n={n}")
    return ("tan(alpha_n) times the exact factor is tan(beta) everywhere; "
            "the g(n) factor works at hat proportions")


def _check_angle_limit(max_gen: int, env) -> str:
    hp = hat_params()
    limit = math.asin(0.25)
    _require(abs(theta_float(40, hp) - limit) < 1e-12,
             f"theta_40 = {theta_float(40, hp)}")
    _require(abs(total_rotation_float(hp) - limit) < 1e-12,
             f"total rotation = {total_rotation_float(hp)}")
    tans = [tan_theta(n, hp).value for n in range(41)]
    _require(all((b - a).sign() > 0 for a, b in zip(tans, tans[1:])),
             "exact tan(theta_n) is not strictly increasing")
    angles = [theta_float(n, hp) for n in range(41)]
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
    layout = env["layout"]
    hp = hat_params()
    p23 = make_params(QSqrt3.of(2), QSqrt3.of(3))
    for kind in (HAT, THC):
        for n in range(2, max_gen + 1):
            node = build(kind, n, hp, layout)
            _require(measured_supervector(node) == v_closed(n, hp),
                     f"{kind}-{n} supervector differs at hat params")
        for n in range(2, min(4, max_gen) + 1):
            node = build(kind, n, p23, layout)
            _require(measured_supervector(node) == v_closed(n, p23),
                     f"{kind}-{n} supervector differs at Tile(2,3)")
    return (f"measured = closed form, both kinds, n <= {max_gen} "
            f"plus a rational shape")


def _check_tile_counts(max_gen: int, env) -> str:
    layout = env["layout"]
    hp = hat_params()
    for kind in (HAT, THC):
        for n in range(1, max_gen + 1):
            node = build(kind, n, hp, layout)
            got = sum(1 for _ in expand(node))
            _require(got == tile_counts(kind, n),
                     f"{kind}-{n} expands to {got}")
    return f"expansion sizes match the count recurrence, n <= {max_gen}"


def _check_non_overlap(max_gen: int, env) -> str:
    tile, layout = env["tile"], env["layout"]
    hp = hat_params()
    for n in range(1, max_gen + 1):
        placed = [q for q, _ in expand(build(HAT, n, hp, layout))]
        ok, cells = disjoint_cells(placed, tile.cells)
        _require(ok, f"generation {n} overlap: {cells}")
        _require(len(cells) == 8 * len(placed),
                 f"generation {n} covers {len(cells)} cells")
    return f"all hats on distinct kites, 8 cells per hat, n <= {max_gen}"


def _check_outline(max_gen: int, env) -> str:
    tile = env["tile"]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        varied = [hat_params(), make_params(QSqrt3.of(2), QSqrt3.of(3)),
                  make_params(QSqrt3.of(1), QSqrt3.of(1)), turtle_params(),
                  make_params(QSqrt3.of(5), QSqrt3.of(2))]
    for p in varied:
        o = tile.outline(p)
        validate_outline(o, p)
        _require(is_simple(o), "outline self-intersects")
    for k in (1, 2, 3, 5, 7):
        p = make_params(QSqrt3.of(k), QSqrt3.of(0, k))
        _require(shoelace_area(tile.outline(p)) == p.a * p.b * 8,
                 f"area != 8ab at a={k}")
    return "closes and stays simple at 5 shapes; area 8ab at hat proportions"


def _check_renderer(max_gen: int, env) -> str:
    tile, layout = env["tile"], env["layout"]
    hp = hat_params()
    gen = min(3, max_gen)
    node = build(HAT, gen, hp, layout)
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
    try:
        tile, layout = _load_tile_layout(args)
    except (ConstructionError, GeometryError) as e:
        if args.format == "json":
            _emit(json.dumps({"max_gen": args.max_gen, "items": [
                {"name": "layout-config", "pass": False, "detail": str(e)}],
                "pass": False}, indent=2), args.out)
        else:
            _emit(f"FAIL layout-config: {e}", args.out)
        return 1
    env = {"tile": tile, "layout": layout}
    items = []
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
    bld.add_argument("--checks", nargs="+", default=["all"],
                     choices=("counts", "supervector", "disjoint", "all"))
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
