"""Acceptance checks, one per shipped claim, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -rA` (or -s) to see the lines.
Every check re-times its own computation against the stated budget.
"""

import math
import random
import shutil
import time
import xml.etree.ElementTree as ET
from fractions import Fraction
from pathlib import Path

from hatfam import configfile
from hatfam.cli import main
from hatfam.exactnum import QSqrt3, VecE
from hatfam.geometry import hat_kite_cells, disjoint_cells, is_simple, \
    shoelace_area
from hatfam.render import RenderOptions, render_supertile
from hatfam.sequences import fib, g_closed, g_recurrence, lucas, tile_counts
from hatfam.substitution import HAT, THC, build, expand, measured_supervector
from hatfam.supervectors import (
    hat_params,
    make_params,
    tan_alpha,
    tan_theta,
    total_rotation_float,
    turtle_params,
    v_closed,
    v_recurrence,
)

PHI = (1 + math.sqrt(5)) / 2


def _criterion(k: int, ok: bool, detail: str) -> bool:
    print(f"criterion {k} {'PASS' if ok else 'FAIL'}: {detail}")
    return ok


def _sample_params(count: int, seed: int = 20230306):
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        a = Fraction(rng.randint(1, 12), rng.randint(1, 12))
        b = Fraction(rng.randint(1, 12), rng.randint(1, 12))
        if a == b:
            continue
        out.append(make_params(QSqrt3(a), QSqrt3(b)))
    return out


def test_criterion_1_first_supervectors():
    p = hat_params()
    want = [VecE(QSqrt3(0), QSqrt3(0, 2)), VecE(QSqrt3(1), QSqrt3(0, 3)),
            VecE(QSqrt3(3), QSqrt3(0, 7)), VecE(QSqrt3(8), QSqrt3(0, 18))]
    t0 = time.perf_counter()
    closed = [v_closed(n, p) for n in range(4)]
    recur = [v_recurrence(n, p) for n in range(4)]
    dt = time.perf_counter() - t0
    ok = closed == want and recur == want and dt < 0.001
    assert _criterion(1, ok, f"V_0..V_3 exact both ways in {dt * 1000:.3f}ms")


def test_criterion_2_three_term_recurrence():
    sets = [hat_params(), turtle_params(),
            make_params(QSqrt3(2), QSqrt3(3)),
            make_params(QSqrt3(Fraction(7, 3)), QSqrt3(Fraction(1, 2)))]
    t0 = time.perf_counter()
    ok = all(
        v_closed(n, p) == v_closed(n - 1, p) * 3 - v_closed(n - 2, p)
        for p in sets for n in range(2, 201))
    dt = time.perf_counter() - t0
    ok = ok and dt < 1.0
    assert _criterion(
        2, ok, f"V_n = 3V_(n-1) - V_(n-2) exact to n=200 at 4 parameter "
        f"sets in {dt:.3f}s")


def test_criterion_3_integer_sequence():
    table = [3, 11, 67, 451, 3083, 21123, 144771, 992267, 6801091,
             46615363, 319506443, 2189929731, 15010001667]
    t0 = time.perf_counter()
    closed = [g_closed(n) for n in range(1, 14)]
    ok = closed == table and g_recurrence(13) == table
    ok = ok and [g_closed(n) for n in range(1, 501)] == g_recurrence(500)
    ok = ok and all((8 * lucas(4 * n - 2) + 21) % 15 == 0
                    for n in range(1, 1001))
    dt = time.perf_counter() - t0
    ok = ok and dt < 1.0
    assert _criterion(
        3, ok, f"13 listed terms, closed = recurrence to n=500, "
        f"divisibility to n=1000 in {dt:.3f}s")


def _hat_proportioned_params(count: int, seed: int = 20230306):
    # Tile(a, sqrt(3)*a) at random rational a other than the hat's a = 1
    rng = random.Random(seed)
    scales = []
    while len(scales) < count:
        a = Fraction(rng.randint(1, 12), rng.randint(1, 12))
        if a != 1 and a not in scales:
            scales.append(a)
    return [make_params(QSqrt3(a), QSqrt3(0, a)) for a in scales]


def test_criterion_4_angle_identity():
    # From V_n = (F_2n s, L_2n t) and F_2n L_2n-2 - F_2n-2 L_2n = 2:
    #   tan(alpha_n) = 2st / (s^2 F_2n F_2n-2 + t^2 L_2n L_2n-2),
    # so tan(alpha_n) * X_n = s/t on every shape, with
    #   X_n = (t^2 L_2n L_2n-2 + s^2 F_2n F_2n-2) / (2t^2).
    # X_n reduces to g(n) exactly when t^2 = 3s^2; off that ratio the
    # g(n) factor already fails at n = 2 unless s = 0.
    hat_sets = [("hat", hat_params())]
    hat_sets += [(f"hat-proportioned {i + 1}", p)
                 for i, p in enumerate(_hat_proportioned_params(3))]
    other_sets = [("turtle", turtle_params())]
    other_sets += [(f"random {i + 1}", p)
                   for i, p in enumerate(_sample_params(3))]
    t0 = time.perf_counter()
    failures = []
    for name, p in hat_sets + other_sets:
        rhs = p.s / p.t
        tt, ss = p.t * p.t, p.s * p.s
        hat_ratio = tt == 3 * ss
        if hat_ratio != name.startswith("hat"):
            failures.append(f"{name}: t^2 = 3s^2 is {hat_ratio}")
        for n in range(1, 51):
            tan_a = tan_alpha(n, p).value
            x_n = (tt * (lucas(2 * n) * lucas(2 * n - 2))
                   + ss * (fib(2 * n) * fib(2 * n - 2))) / (tt * 2)
            g_n = g_closed(n)
            if tan_a * x_n != rhs:
                failures.append(f"{name}: tan(alpha_n)*X_n != s/t at n={n}")
                break
            if hat_ratio and x_n != g_n:
                failures.append(f"{name}: X_n != g(n) at n={n}")
                break
            if hat_ratio and tan_a * g_n != rhs:
                failures.append(f"{name}: tan(alpha_n)*g(n) != s/t at n={n}")
                break
        if name.startswith("random") and p.s.sign() != 0 \
                and tan_alpha(2, p).value * g_closed(2) == rhs:
            failures.append(f"{name}: tan(alpha_2)*g(2) = s/t off the ratio")
    dt = time.perf_counter() - t0
    ok = not failures and dt < 1.0
    if failures:
        detail = "; ".join(failures) + f" in {dt:.3f}s"
    else:
        detail = ("tan(alpha_n)*g(n) = s/t at 4 hat-proportioned sets, "
                  "tan(alpha_n)*X_n = s/t at 8 sets, X_n = g(n) where "
                  "t^2 = 3s^2, exact to n=50; g(2) fails at 3 random sets; "
                  f"in {dt:.3f}s")
    assert _criterion(4, ok, detail)


def test_criterion_5_angle_limit():
    p = hat_params()
    limit = math.asin(0.25)
    t0 = time.perf_counter()
    ok = abs(tan_theta(40, p).to_float() - limit) < 1e-12
    ok = ok and abs(total_rotation_float(p) - limit) < 1e-12
    thetas = [tan_theta(n, p).to_float() for n in range(41)]
    ok = ok and all(x <= y for x, y in zip(thetas, thetas[1:]))
    # the underlying exact tangents grow strictly even after the float
    # steps shrink below one ulp
    tans = [tan_theta(n, p).value for n in range(41)]
    ok = ok and all((y - x).sign() > 0 for x, y in zip(tans, tans[1:]))
    dt = time.perf_counter() - t0
    ok = ok and dt < 1.0
    assert _criterion(
        5, ok, f"theta_40 and the limit match asin(1/4) to 1e-12, "
        f"monotone to n=40 in {dt:.3f}s")


def test_criterion_6_golden_ratio_scaling():
    p = hat_params()
    t0 = time.perf_counter()

    def norm(n):
        v = v_closed(n, p)
        return math.hypot(float(v.x), float(v.y))

    growth = norm(20) / norm(19)
    ratio = float(tan_alpha(10, p).value) / float(tan_alpha(11, p).value)
    ok = abs(growth - PHI ** 2) < 1e-9 and abs(ratio - PHI ** 4) < 1e-6
    dt = time.perf_counter() - t0
    ok = ok and dt < 1.0
    assert _criterion(
        6, ok, f"|V_20|/|V_19| = phi^2 to 1e-9, alpha ratio = phi^4 "
        f"to 1e-6 in {dt:.3f}s")


def test_criterion_7_construction_supervector(layout):
    t0 = time.perf_counter()
    ok = True
    p = hat_params()
    for kind in (HAT, THC):
        for n in range(2, 7):
            node = build(kind, n, p, layout)
            ok = ok and measured_supervector(node) == v_closed(n, p)
    q = make_params(QSqrt3(2), QSqrt3(3))
    for kind in (HAT, THC):
        for n in range(2, 5):
            node = build(kind, n, q, layout)
            ok = ok and measured_supervector(node) == v_closed(n, q)
    dt = time.perf_counter() - t0
    ok = ok and dt < 10.0
    assert _criterion(
        7, ok, f"assembled anchors match the closed form exactly, both "
        f"kinds, n=2..6 plus a rational set in {dt:.3f}s")


def test_criterion_8_tile_counts(layout, hat_p):
    want = [1, 8, 55, 377, 2584, 17711]
    t0 = time.perf_counter()
    counts = [sum(1 for _ in expand(build(HAT, n, hat_p, layout)))
              for n in range(1, 7)]
    ok = counts == want
    ok = ok and want == [tile_counts(HAT, n) for n in range(1, 7)]
    dt = time.perf_counter() - t0
    ok = ok and dt < 10.0
    assert _criterion(
        8, ok, f"expansion counts {counts} match the recurrence in {dt:.3f}s")


def _on_hexagon_lattice(v: VecE) -> bool:
    """v = m*(3, sqrt3) + n*(0, 2*sqrt3) = (3m, (m + 2n)*sqrt3) with
    integers m and n."""
    x, y = v.x, v.y
    if x.s != 0 or y.r != 0:
        return False
    if x.r.denominator != 1 or y.s.denominator != 1:
        return False
    m, rem = divmod(x.r.numerator, 3)
    return rem == 0 and (y.s.numerator - m) % 2 == 0


def test_criterion_9_non_overlap(layout, tile, hat_p):
    t0 = time.perf_counter()
    ok = True
    for n in range(1, 6):
        placed = [q for q, _ in expand(build(HAT, n, hat_p, layout))]
        ok = ok and all(_on_hexagon_lattice(q.translation) for q in placed)
        disjoint, clash = disjoint_cells(placed, tile.cells)
        cells = set()
        for q in placed:
            cells |= hat_kite_cells(q, tile.cells)
        ok = ok and disjoint and len(cells) == 8 * len(placed)
    dt = time.perf_counter() - t0
    ok = ok and dt < 30.0
    assert _criterion(
        9, ok, f"n=1..5 hats pairwise disjoint on exactly 8 kites each, "
        f"all translations on the lattice, in {dt:.3f}s")


def test_criterion_10_outline(tile):
    # area = 8ab needs b = sqrt(3)*a; five scaled hats keep it exact
    sets = [make_params(QSqrt3(a), QSqrt3(0, a)) for a in (1, 2, 3, 5, 7)]
    t0 = time.perf_counter()
    ok = True
    for p in sets:
        outline = tile.outline(p)
        ok = ok and is_simple(outline)
        ok = ok and shoelace_area(outline) == p.a * p.b * 8
    dt = time.perf_counter() - t0
    ok = ok and dt < 1.0
    assert _criterion(
        10, ok, f"boundary closes, stays simple, area = 8ab exactly at "
        f"5 parameter sets in {dt:.3f}s")


def test_criterion_11_renderer(layout, tile, hat_p):
    t0 = time.perf_counter()
    first = render_supertile(build(HAT, 3, hat_p, layout), hat_p,
                             RenderOptions(), tile)
    second = render_supertile(build(HAT, 3, hat_p, layout), hat_p,
                              RenderOptions(), tile)
    root = ET.fromstring(first)
    paths = [el for el in root.iter() if el.tag.endswith("path")]
    ok = len(paths) == 55 and first.encode() == second.encode()
    dt = time.perf_counter() - t0
    ok = ok and dt < 5.0
    assert _criterion(
        11, ok, f"hat-3 figure parses, has 55 hat paths, byte-identical "
        f"across runs in {dt:.3f}s")


def test_criterion_12_end_to_end(tmp_path, capsys):
    code = main(["verify", "--max-gen", "5"])
    out = capsys.readouterr().out
    ok = code == 0 and "12/12 items passed" in out

    work = tmp_path / "data"
    shutil.copytree(Path(configfile.__file__).with_name("data"), work)
    cfg = work / "layout.cfg"
    text = cfg.read_text(encoding="utf-8")
    ok = ok and "p4_offset_u = 3, 0" in text
    cfg.write_text(text.replace("p4_offset_u = 3, 0",
                                "p4_offset_u = 6, 1*r3"), encoding="utf-8")
    code = main(["verify", "--max-gen", "2", "--data-dir", str(work)])
    broken = capsys.readouterr().out
    ok = ok and code == 1 and "FAIL layout-config" in broken \
        and "overlap" in broken
    assert _criterion(
        12, ok, "verify exits 0 clean; a one-lattice-step layout "
        "perturbation fails by name with exit 1")
