"""Fixed-input layer probes and microbenchmarks of the traced run.

The probes call one layer each, with the same inputs on every workload,
so every per-layer figure exists on every workload: the ROADMAP baseline
rows (expand and disjoint_cells at hat 6, render_supertile at hat 5), the
fourth-piece search `verify` runs, and the angle and sequence functions.
The microbenchmarks time exactnum arithmetic and Placement.compose with
fixed iteration counts after a warm-up.  None of this runs inside the
timed workload loop.
"""

from __future__ import annotations

import hashlib
import statistics
import time
from fractions import Fraction

from tracing import op_summary
from workloads import hats

MICRO_REPEATS = 5


def _g_terms(count: int) -> list[int]:
    g = [3, 11]
    while len(g) < count:
        g.append(7 * g[-1] - g[-2] - 7)
    return g[:count]


def run_probes(tracer, smoke: bool) -> dict:
    """Run each probe under its own root span; return roots and outputs."""
    from hatfam import configfile, geometry, render, sequences
    from hatfam import substitution, supervectors

    expand_gen, render_gen = (3, 3) if smoke else (6, 5)
    tile = geometry.tile_from_config(configfile.load_text("tile.cfg"))
    layout = substitution.layout_from_config(configfile.load_text("layout.cfg"), tile)
    hp = supervectors.hat_params()
    roots, out = {}, {"expand_gen": expand_gen, "render_gen": render_gen}
    with tracer.installed():
        roots["hat"] = tracer.open("probe.hat")
        placed = [q for q, _ in substitution.expand(
            substitution.build("hat", expand_gen, hp, layout))]
        out["disjoint"] = geometry.disjoint_cells(placed, tile.cells)[0]
        out["hats"] = len(placed)
        tracer.close(roots["hat"])

        roots["render"] = tracer.open("probe.render")
        svg = render.render_supertile(
            substitution.build("hat", render_gen, hp, layout), hp,
            render.RenderOptions(), tile)
        tracer.close(roots["render"])
        out["svg_sha256"] = hashlib.sha256(svg.encode("utf-8")).hexdigest()

        roots["search"] = tracer.open("probe.search")
        found = substitution.search_layout(hp, layout, tile, window=1)
        tracer.close(roots["search"])
        out["search_refinds"] = any(c.p4_gen2 == layout.p4_gen2 for c in found)

        roots["angles"] = tracer.open("probe.angles")
        tans = [[supervectors.tan_alpha(n, p).value for n in range(1, 51)]
                for p in (hp, supervectors.turtle_params())]
        tracer.close(roots["angles"])
        # at hat proportions tan(alpha_n) * g(n) = s/t
        out["angles_ok"] = all(t * g == hp.s / hp.t
                               for t, g in zip(tans[0], _g_terms(50)))

        roots["g"] = tracer.open("probe.g")
        rec = sequences.g_recurrence(500)
        closed = [sequences.g_closed(i) for i in range(1, 501)]
        tracer.close(roots["g"])
        out["g_ok"] = rec == closed == _g_terms(500)
    out["roots"] = roots
    return out


def _per_op_ns(fn, iters: int) -> float:
    fn(max(1, iters // 10))  # warm-up
    times = []
    for _ in range(MICRO_REPEATS):
        t0 = time.perf_counter_ns()
        fn(iters)
        times.append(time.perf_counter_ns() - t0)
    return statistics.median(times) / iters


def run_micro(smoke: bool) -> dict:
    """ns per operation, median of MICRO_REPEATS timed loops of `iters`."""
    from hatfam.exactnum import QSqrt3, VecE
    from hatfam.geometry import Placement

    scale = 10 if smoke else 1
    # hat-scale: coordinates of a hat-6 placement; big: the size of the
    # exact tangents the verify suite carries
    small = (QSqrt3(Fraction(233, 2), Fraction(-89, 2)),
             QSqrt3(Fraction(-55), Fraction(21, 2)))
    big = (QSqrt3(Fraction(7 ** 40 + 3, 3 ** 50), Fraction(-(5 ** 37), 11 ** 30)),
           QSqrt3(Fraction(13 ** 33, 2 ** 90 + 1), Fraction(17 ** 29 - 4, 7 ** 35)))
    out = {}
    for label, (x, y) in (("", small), ("_big", big)):
        def mul(n, x=x, y=y):
            for _ in range(n):
                x * y

        def add(n, x=x, y=y):
            for _ in range(n):
                x + y

        def sign(n, x=x):
            for _ in range(n):
                x.sign()
        for op, fn in (("mul", mul), ("add", add), ("sign", sign)):
            iters = 4000 // scale
            out[f"exactnum.{op}{label}_ns"] = (_per_op_ns(fn, iters), iters)

    outer = Placement(2, True, VecE(small[0], small[1]))
    inner = Placement(5, False, VecE(small[1], small[0]))

    def compose(n):
        for _ in range(n):
            outer.compose(inner)
    iters = 1000 // scale
    out["geometry.compose_us"] = (_per_op_ns(compose, iters) / 1000, iters)
    return out


def probe_metrics(spans: list, probes: dict, refs: dict):
    """Per-layer metrics of the probes, and the list of failed checks."""
    s = {name: op_summary(spans, root)["names"]
         for name, root in probes["roots"].items()}
    exp = s["render"]["substitution.expand"]
    ren = s["render"]["render.render_supertile"]
    search = s["search"]
    metrics = {
        "substitution.expand_hat6_s": s["hat"]["substitution.expand"]["ns"] / 1e9,
        "geometry.disjoint_cells_hat6_s": s["hat"]["geometry.disjoint_cells"]["ns"] / 1e9,
        "render.render_supertile_s": ren["ns"] / 1e9,
        "render.us_per_hat": ren["ns"] / 1e3 / exp["counts"]["hats"],
        "render.svg_bytes": ren["counts"]["svg_bytes"],
        "substitution.search_layout_s": search["substitution.search_layout"]["ns"] / 1e9,
        "substitution.search_tried": search["substitution.build"]["calls"],
        "substitution.search_accepted":
            search["substitution.search_layout"]["counts"]["accepted"],
        "supervectors.tan_alpha_s": s["angles"]["supervectors.tan_alpha"]["ns"] / 1e9,
        "supervectors.tan_alpha_calls": s["angles"]["supervectors.tan_alpha"]["calls"],
        "sequences.g_recurrence_s": s["g"]["sequences.g_recurrence"]["ns"] / 1e9,
        "sequences.g_closed_s": s["g"]["sequences.g_closed"]["ns"] / 1e9,
        "sequences.g_closed_calls": s["g"]["sequences.g_closed"]["calls"],
    }
    failures = []
    if probes["hats"] != hats("hat", probes["expand_gen"]) or not probes["disjoint"]:
        failures.append(f"probe hat-{probes['expand_gen']}: wrong count or overlap")
    want = refs["outputs"].get(f"probe render hat {probes['render_gen']}")
    if probes["svg_sha256"] != want:
        failures.append(f"probe render: svg digest {probes['svg_sha256']} != {want}")
    for name in ("search_refinds", "angles_ok", "g_ok"):
        if not probes[name]:
            failures.append(f"probe check {name} failed")
    return metrics, failures
