"""Command line interface.

Subcommands: sequence (fib/lucas/g tables), vectors (supervectors and
rotation angles), build (assemble supertiles and check them), render
(SVG figures), verify (the invariant suite in `checks`).  `render` and
`checks` are imported by the commands that use them, so the others do
not pay to load them.  Exit codes: 0 on success, 1 when a verification
fails, 2 for usage or config problems, every fault of tile.cfg included.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

from .configfile import ConfigError, load_text
from .exactnum import ONE, SQRT3, QSqrt3, parse_scalar, render_scalar
from .geometry import GeometryError, tile_from_config
from .sequences import fib, g_closed, g_recurrence, lucas, tile_counts
from .substitution import (
    HAT,
    THC,
    ConstructionError,
    build,
    chain_at,
    check_kites,
    layout_from_config,
    measured_supervector,
)
from .supervectors import (
    AngleTan,
    DomainError,
    TileParams,
    hat_params,
    has_hat_proportion,
    make_params,
    tan_between,
    total_rotation_float,
    v_closed,
    v_table,
)

# build and verify refuse supertiles with more hats than this; the kite
# check no longer needs the cap, but it stands until lifted on purpose
MAX_HATS = 1_000_000


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
    """The tile, the validated layout, and the call's chains by layout
    and shape (see `substitution.chain_at`), which hold the one layout
    validation checked at hat proportions."""
    tile = tile_from_config(load_text("tile.cfg", args.data_dir))
    chains = {}
    layout = layout_from_config(load_text("layout.cfg", args.data_dir), tile,
                                chains)
    return tile, layout, chains


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
    vs = v_table(args.max, p)
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

    tile, layout, chains = _load_tile_layout(args)
    t0 = time.perf_counter()
    node = build(args.kind, args.gen, p, layout, chains)
    want = tile_counts(args.kind, args.gen)
    got_v = measured_supervector(node)
    want_v = v_closed(args.gen, p)
    if not has_hat_proportion(p):
        disjoint = True, "skipped: needs hat proportions"
    else:
        # kites exist at the hat itself; Tile(a, sqrt(3)*a) is that patch
        # scaled by a, so check the a = 1 supertile, which extends the
        # chain layout validation checked (at a = 1, it is `node`)
        unit = chain_at(hat_params(), layout, chains).node(args.kind,
                                                           args.gen)
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
    from .render import (  # only render loads the SVG writer
        RenderError,
        RenderOptions,
        render_supertile,
    )
    p = _params(args)
    tile, layout, chains = _load_tile_layout(args)
    node = build(args.kind, args.gen, p, layout, chains)
    try:
        opts = RenderOptions(
            show_grid=args.grid,
            show_supervectors=args.supervectors,
            scheme=args.scheme,
            stroke_width=args.stroke_width,
            margin=args.margin,
            max_svg_nodes=args.max_nodes,
        )
        svg = render_supertile(node, p, opts, tile)
    except RenderError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    out = args.out or f"{args.kind}-{args.gen}.svg"
    Path(out).write_text(svg, encoding="utf-8")
    if args.format == "json":
        print(json.dumps({"out": out, "svg_elements": svg.elements,
                          "hats": node.hats}, indent=2))
    else:
        print(f"{out}: {svg.elements} svg elements, {node.hats} hats")
    return 0


def cmd_verify(args) -> int:
    if args.max_gen < 2:
        print("error: --max-gen must be >= 2", file=sys.stderr)
        return 2
    if _too_many_hats(HAT, args.max_gen):
        return 2
    t0 = time.perf_counter()
    try:
        tile, layout, chains = _load_tile_layout(args)
    except ConstructionError as e:
        # a layout that fails to load is the one item reported
        items = [("layout-config", False, str(e), time.perf_counter() - t0)]
    else:
        from . import checks  # only verify loads the suite and render
        items = checks.run(args.max_gen, tile, layout, chains)
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
        sub.add_argument("-a", type=_scalar, default=ONE,
                         metavar="SCALAR",
                         help="edge length a (default 1)")
        sub.add_argument("-b", type=_scalar, default=SQRT3,
                         metavar="SCALAR",
                         help="edge length b (default r3, the hat)")
    sub.add_argument("--format", choices=("text", "json"), default="text")
    sub.add_argument("-o", "--out", metavar="FILE",
                     help="write output to a file instead of stdout")
    sub.add_argument("--data-dir", metavar="DIR",
                     help="directory with tile.cfg and layout.cfg "
                          "(or set HATFAM_DATA_DIR)")


def _sequence_arguments(seq):
    seq.add_argument("kind", choices=("fib", "lucas", "g"))
    seq.add_argument("count", type=_positive_int)
    _add_common(seq, params=False)
    seq.set_defaults(func=cmd_sequence)


def _vectors_arguments(vec):
    vec.add_argument("-n", "--max", type=_positive_int, default=8,
                     help="largest generation to list (default 8)")
    _add_common(vec)
    vec.set_defaults(func=cmd_vectors)


def _build_arguments(bld):
    bld.add_argument("kind", choices=(HAT, THC))
    bld.add_argument("gen", type=_positive_int)
    _add_common(bld)
    bld.set_defaults(func=cmd_build)


def _render_arguments(ren):
    ren.add_argument("kind", choices=(HAT, THC))
    ren.add_argument("gen", type=_positive_int)
    ren.add_argument("--grid", action="store_true",
                     help="draw the kite grid under the hats")
    ren.add_argument("--supervectors", type=int, default=0,
                     metavar="LEVELS", help="draw anchor arrows for this "
                                            "many top generations")
    ren.add_argument("--scheme", choices=("rotation", "plain"),
                     default="rotation")
    ren.add_argument("--stroke-width", type=float, default=0.06)
    ren.add_argument("--margin", type=float, default=1.0)
    ren.add_argument("--max-nodes", type=_positive_int, default=20000,
                     help="refuse figures expanding past this many hats")
    _add_common(ren)
    ren.set_defaults(func=cmd_render)


def _verify_arguments(ver):
    ver.add_argument("--max-gen", type=_positive_int, default=5,
                     help="deepest generation the construction checks "
                          "build")
    _add_common(ver, params=False)
    ver.set_defaults(func=cmd_verify)


# each command's help line and the function that adds its arguments
_COMMANDS = {
    "sequence": ("print fib, lucas, or g terms", _sequence_arguments),
    "vectors": ("supervector table with rotation angles", _vectors_arguments),
    "build": ("assemble a supertile and check it", _build_arguments),
    "render": ("write a supertile SVG figure", _render_arguments),
    "verify": ("run the full invariant suite", _verify_arguments),
}


def _build_parser() -> argparse.ArgumentParser:
    """The full parser: the top level, with every command's parser."""
    parser = argparse.ArgumentParser(
        prog="hatfam",
        description="Supertiles, supervectors, and rotation angles of the "
                    "Tile(a,b) hat family.")
    # prog is the prefix argparse would format from the top level's usage,
    # which has no positionals
    subs = parser.add_subparsers(dest="command", required=True,
                                 prog=parser.prog)
    for name, (text, add_arguments) in _COMMANDS.items():
        add_arguments(subs.add_parser(name, help=text))
    return parser


def _parse_args(argv) -> argparse.Namespace:
    """argv parsed by the parser of the command its first item names
    alone, the parser the full one would hand the rest of argv to.  With
    no command named, or arguments left over, the full parser parses
    argv, so every help, usage and error text and exit code is its own."""
    if argv and argv[0] in _COMMANDS:
        name = argv[0]
        parser = argparse.ArgumentParser(prog=f"hatfam {name}")
        _COMMANDS[name][1](parser)
        args, extra = parser.parse_known_args(argv[1:])
        if not extra:
            args.command = name
            return args
    return _build_parser().parse_args(argv)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = _parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, DomainError) as e:
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
