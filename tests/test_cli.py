import argparse
import json
import math
import os
import re
import shutil
import subprocess
import sys
import warnings
import xml.etree.ElementTree as ET
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest

from hatfam import checks, cli, configfile, geometry, substitution
from hatfam.cli import main
from hatfam.exactnum import QSqrt3, VecE
from hatfam.sequences import g_closed, g_recurrence
from hatfam.substitution import check_kites, expand, measured_supervector
from hatfam.supervectors import (
    TileParams,
    cross_dot,
    hat_params,
    make_params,
    v_closed,
    v_table,
)

SHIPPED_DATA = Path(configfile.__file__).with_name("data")


def _broken_data_dir(tmp_path) -> Path:
    """Copy the shipped configs and push the fourth piece one lattice
    step sideways, which makes generation 2 self-overlap."""
    work = tmp_path / "data"
    shutil.copytree(SHIPPED_DATA, work)
    cfg = work / "layout.cfg"
    text = cfg.read_text(encoding="utf-8")
    assert "p4_offset_u = 3, 0" in text
    cfg.write_text(text.replace("p4_offset_u = 3, 0",
                                "p4_offset_u = 6, 1*r3"),
                   encoding="utf-8")
    return work


# ---------------------------------------------------------------- sequence

def test_sequence_fib(capsys):
    assert main(["sequence", "fib", "8"]) == 0
    assert capsys.readouterr().out == "0 1 1 2 3 5 8 13\n"


def test_sequence_lucas(capsys):
    assert main(["sequence", "lucas", "5"]) == 0
    assert capsys.readouterr().out == "2 1 3 4 7\n"


def test_sequence_g(capsys):
    assert main(["sequence", "g", "5"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "3 11 67 451 3083"
    assert out[1] == "closed form matches recurrence: verified"


def test_sequence_g_json(capsys):
    assert main(["sequence", "g", "4", "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc == {"kind": "g", "count": 4,
                   "terms": [3, 11, 67, 451], "verified": True}


def test_sequence_rejects_bad_count():
    with pytest.raises(SystemExit) as exc:
        main(["sequence", "fib", "0"])
    assert exc.value.code == 2


# ----------------------------------------------------------------- vectors

def test_vectors_text(capsys):
    assert main(["vectors", "-n", "2"]) == 0
    out = capsys.readouterr().out
    assert "total rotation: 0.252680255142 rad" in out
    assert "(0, 2*r3)" in out
    assert "(1, 3*r3)" in out
    assert "(3, 7*r3)" in out


def test_vectors_json(capsys):
    assert main(["vectors", "-n", "2", "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["params"] == {"a": "1", "b": "1*r3", "s": "1", "t": "1*r3"}
    rows = doc["rows"]
    assert [row["n"] for row in rows] == [0, 1, 2]
    assert rows[0]["vx"] == "0" and rows[0]["vy"] == "2*r3"
    assert rows[0]["theta"] == 0.0
    assert rows[0]["tan_alpha"] is None
    assert rows[1]["vx"] == "1" and rows[1]["vy"] == "3*r3"
    assert rows[1]["tan_alpha"] is not None
    assert doc["total_rotation"] == pytest.approx(math.asin(0.25), abs=1e-15)


def test_vectors_custom_params(capsys):
    assert main(["vectors", "-a", "2", "-b", "3", "-n", "1",
                 "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["params"]["a"] == "2"
    assert doc["params"]["s"] == "-1+3/2*r3"


def test_vectors_rejects_bad_scalar():
    with pytest.raises(SystemExit) as exc:
        main(["vectors", "-a", "r5"])
    assert exc.value.code == 2


def test_vectors_rejects_nonpositive_edge(capsys):
    assert main(["vectors", "-a", "0"]) == 2
    assert "error:" in capsys.readouterr().err


def test_chevron_boundary_warns(capsys):
    # a == b puts the tilt on the excluded boundary: the command says so
    # once on stderr, and the library raises no Python warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["vectors", "-a", "5", "-b", "5", "-n", "1"]) == 0
    assert capsys.readouterr().err == (
        "warning: a == b puts the tilt angle on the excluded boundary "
        "value (tan beta = 2 - sqrt(3)); the construction still works\n")


# ------------------------------------------------------------------- build

def test_build_text(capsys):
    assert main(["build", "hat", "3"]) == 0
    out = capsys.readouterr().out
    assert "hat generation 3: 55 hats" in out
    for name in ("counts", "supervector", "disjoint"):
        assert f"PASS {name}" in out


def test_build_json(capsys):
    assert main(["build", "thc", "2", "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["kind"] == "thc" and doc["generation"] == 2
    assert doc["hats"] == 7
    assert [c["pass"] for c in doc["checks"]] == [True, True, True]


def test_a_call_adds_arguments_only_for_its_command(monkeypatch, capsys):
    # every command is listed, but only build gets its arguments: with
    # all five commands' arguments the parser made 41 add_argument calls
    calls = []
    add_argument = argparse.ArgumentParser.add_argument

    def counted(self, *args, **kwargs):
        calls.append(args)
        return add_argument(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "add_argument", counted)
    assert main(["build", "hat", "1"]) == 0
    assert "PASS counts" in capsys.readouterr().out
    assert len(calls) <= 15


def test_a_call_makes_a_parser_only_for_its_command(monkeypatch, capsys):
    # build alone: no top-level parser and no parser for the four commands
    # not invoked
    made = []
    init = argparse.ArgumentParser.__init__

    def counted(self, *args, **kwargs):
        made.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
    assert main(["build", "hat", "1"]) == 0
    assert "PASS counts" in capsys.readouterr().out
    assert made == ["hatfam build"]


@pytest.mark.parametrize("argv", [
    ["sequence", "g", "4", "--format", "json"],
    ["vectors", "-n", "3", "-a", "7/3", "-b", "1/2", "-o", "v.txt"],
    ["vectors", "--ma", "2"],
    ["build", "thc", "2", "--data-dir", "d"],
    ["build", "--", "hat", "1"],
    ["render", "hat", "4", "--grid", "--supervectors", "2", "--scheme",
     "plain", "--stroke-width", "0.1", "--margin", "2", "--max-nodes", "9"],
    ["verify", "--max-gen", "3", "--format", "json"],
])
def test_a_command_parser_alone_reads_what_the_full_parser_reads(argv):
    assert cli._parse_args(argv) == cli._build_parser().parse_args(argv)


@pytest.mark.parametrize("argv, left", [
    (["build", "hat", "1", "extra"], "extra"),
    (["vectors", "-n", "2", "--bogus", "x"], "--bogus x"),
    (["verify", "--max-gen", "2", "zz"], "zz"),
])
def test_arguments_left_over_are_the_top_levels_error(argv, left, capsys):
    # the command's parser leaves them, and the full parser reports them
    # under the top level's usage
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert capsys.readouterr().err == (
        "usage: hatfam [-h] {sequence,vectors,build,render,verify} ...\n"
        f"hatfam: error: unrecognized arguments: {left}\n")


@pytest.mark.parametrize("argv", [
    ["render", "hat", "3"],
    ["verify", "--max-gen", "3"],
])
def test_a_call_traces_the_hat_outline_once(argv, monkeypatch, tmp_path,
                                            capsys):
    # tile_from_config traces the outline at the hat; render at a = 1,
    # and verify's outline and renderer items, reuse it.  A trace per use
    # made two for render and four for verify
    traced = []
    trace = geometry.outline_from_turtle

    def spy(steps, p, heading_k30):
        traced.append(p)
        return trace(steps, p, heading_k30)

    monkeypatch.setattr(geometry, "outline_from_turtle", spy)
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 0
    capsys.readouterr()
    assert traced.count(hat_params()) == 1


@pytest.mark.parametrize("a,b", [("1/2", "1/2*r3"), ("2+r3", "3+2*r3")])
def test_build_disjoint_at_any_hat_scale(capsys, a, b):
    assert main(["build", "hat", "3", "-a", a, "-b", b]) == 0
    assert "PASS disjoint: 440 kite cells, no overlap" in \
        capsys.readouterr().out


def test_build_checks_the_unit_patch_at_any_hat_scale(monkeypatch, capsys):
    # Tile(2, 2*sqrt(3)) is the hat patch scaled by 2: the kite check
    # must see the a = 1 supertile
    seen = []

    def spy(node, tile, connected=False):
        seen.append(node)
        return check_kites(node, tile, connected)
    monkeypatch.setattr("hatfam.cli.check_kites", spy)
    assert main(["build", "hat", "3", "-a", "2", "-b", "2*r3"]) == 0
    assert len(seen) == 1
    assert measured_supervector(seen[0]) == v_closed(3, hat_params())
    assert "PASS disjoint: 440 kite cells, no overlap" in \
        capsys.readouterr().out


def test_a_build_call_assembles_each_supertile_once(monkeypatch, capsys):
    # layout validation's chain at the hat is the one the kite check
    # extends, and the chain at the asked shape is a second: no (generation,
    # shape) is assembled twice in one call, and a second call starts over
    made = []
    assemble = substitution._assemble

    def spy(n, *args):
        pair = assemble(n, *args)
        # the shape is the chain's, or an argument of its own
        shape = next(getattr(arg, "p", arg) for arg in args
                     if isinstance(getattr(arg, "p", arg), TileParams))
        made.append(((n, shape), pair))
        return pair

    def reached(pairs):
        found, stack = {}, [node for _, pair in pairs for node in pair]
        while stack:
            node = stack.pop()
            if id(node) not in found:
                found[id(node)] = node
                stack += [child for child, _ in node.children]
        return found

    monkeypatch.setattr(substitution, "_assemble", spy)
    argv = ["build", "hat", "5", "-a", "2", "-b", "2*r3"]
    assert main(argv) == 0
    assert "PASS disjoint: 20672 kite cells, no overlap" in \
        capsys.readouterr().out
    scaled = make_params(QSqrt3(2), QSqrt3(0, 2))
    assert sorted(Counter(key for key, _ in made).items(), key=str) == \
        sorted([((n, p), 1) for n in range(2, 6)
                for p in (hat_params(), scaled)], key=str)
    first, made[:] = list(made), []
    assert main(argv) == 0
    assert not reached(first).keys() & reached(made).keys()


def test_verify_searches_on_the_chain_validation_checked(monkeypatch,
                                                         capsys):
    # at the hat, a verify call makes two chains: layout validation's,
    # which every item that builds at the hat extends, the fourth-piece
    # search included, and the renderer item's second build, which it
    # compares with a render of the first
    made = []
    init = substitution.Chain.__init__

    def spy(self, p, layout):
        made.append(p)
        init(self, p, layout)

    monkeypatch.setattr(substitution.Chain, "__init__", spy)
    assert main(["verify", "--max-gen", "2"]) == 0
    assert "PASS layout-config" in capsys.readouterr().out
    assert made.count(hat_params()) == 2


def test_build_skips_disjoint_off_proportion(capsys):
    assert main(["build", "hat", "2", "-a", "2", "-b", "3"]) == 0
    assert "skipped: needs hat proportions" in capsys.readouterr().out


def test_build_at_a_equal_b_warns_once_on_stderr(capsys):
    assert main(["build", "hat", "2", "-a", "1", "-b", "1"]) == 0
    captured = capsys.readouterr()
    assert captured.err == (
        "warning: a == b puts the tilt angle on the excluded boundary "
        "value (tan beta = 2 - sqrt(3)); the construction still works\n")
    assert captured.out.startswith("hat generation 2: 8 hats")
    assert "skipped: needs hat proportions" in captured.out


@pytest.mark.parametrize("argv", [
    ["build", "hat", "5"],
    ["build", "hat", "5", "-a", "2", "-b", "2*r3"],
    ["build", "hat", "5", "-a", "7/3", "-b", "1/2"],
    ["verify", "--max-gen", "4"],
])
def test_deep_supertiles_are_counted_and_checked_without_expanding(
        monkeypatch, capsys, argv):
    # hat counts and the kite check come from the DAG, so build expands
    # nothing; verify's renderer item draws a generation-3 supertile
    deepest = 3 if argv[0] == "verify" else 0

    def shallow(node):
        if node.generation > deepest:
            pytest.fail(f"expanded a generation-{node.generation} node")
        return expand(node)
    # in its home module and in any module that imports it by name
    for module in ("substitution", "render", "cli"):
        monkeypatch.setattr(f"hatfam.{module}.expand", shallow,
                            raising=False)
    assert main(argv) == 0
    assert "FAIL" not in capsys.readouterr().out


@pytest.mark.parametrize("argv", [["build", "hat", "9"],
                                  ["build", "thc", "9"],
                                  ["verify", "--max-gen", "9"]])
def test_oversized_supertiles_refused_before_building(monkeypatch, capsys,
                                                      argv):
    def never(*args):
        pytest.fail("build() ran past the size cap")
    monkeypatch.setattr("hatfam.cli.build", never)
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "generation 9 expands to" in err and "cap of 1000000" in err


# runs one command in a grandchild and reports its peak RSS (KiB), so
# children that other tests ran earlier do not count
_PEAK_RSS = """
import resource, subprocess, sys
run = subprocess.run([sys.executable, "-m", "hatfam.cli", *sys.argv[1:]],
                     stdout=subprocess.PIPE)
sys.stdout.buffer.write(run.stdout)
print(resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss, file=sys.stderr)
sys.exit(run.returncode)
"""


def test_largest_build_fits_in_150_mb():
    run = subprocess.run(
        [sys.executable, "-c", _PEAK_RSS, "build", "hat", "8",
         "--format", "json"],
        capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)})
    assert run.returncode == 0
    checks = {c["name"]: c for c in json.loads(run.stdout)["checks"]}
    assert checks["disjoint"]["detail"] == "6656320 kite cells, no overlap"
    assert int(run.stderr.split()[-1]) < 150 * 1024


def test_build_rejects_generation_zero():
    with pytest.raises(SystemExit) as exc:
        main(["build", "hat", "0"])
    assert exc.value.code == 2


# ------------------------------------------------------------------ render

def test_render_writes_svg(tmp_path, capsys):
    out = tmp_path / "fig.svg"
    assert main(["render", "hat", "2", "--grid", "--supervectors", "2",
                 "-o", str(out)]) == 0
    assert f"{out}: " in capsys.readouterr().out
    root = ET.fromstring(out.read_text(encoding="utf-8"))
    paths = [el for el in root.iter() if el.tag.endswith("path")]
    assert len(paths) == 8


def test_render_json_reports_the_text_line_counts(tmp_path, capsys):
    out = tmp_path / "fig.svg"
    argv = ["render", "hat", "2", "--grid", "--supervectors", "2",
            "-o", str(out)]
    assert main(argv) == 0
    text = capsys.readouterr().out
    svg = out.read_bytes()
    assert main([*argv, "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc == {"out": str(out), "svg_elements": doc["svg_elements"],
                   "hats": 8}
    assert text == f"{out}: {doc['svg_elements']} svg elements, 8 hats\n"
    assert out.read_bytes() == svg


@pytest.mark.parametrize("argv,hats", [
    (["hat", "3", "--grid", "--supervectors", "2"], 55),
    (["thc", "3"], 47),
    (["hat", "3", "--grid"], 55),
    (["hat", "3", "--supervectors", "3"], 55),
    (["hat", "3", "--scheme", "plain", "--margin", "0"], 55),
    (["hat", "3", "-a", "7/3", "-b", "1/2", "--supervectors", "3"], 55),
    # more generations of arrows than the supertile has
    (["hat", "2", "--supervectors", "5"], 8),
], ids=["hat-grid-arrows", "thc", "hat-grid", "hat-arrows",
        "hat-plain-margin-0", "off-hat-arrows", "arrows-past-generation-1"])
def test_render_counts_the_parsed_elements(tmp_path, capsys, argv, hats):
    out = tmp_path / "fig.svg"
    assert main(["render", *argv, "-o", str(out)]) == 0
    parsed = sum(1 for _ in ET.fromstring(out.read_text("utf-8")).iter())
    assert capsys.readouterr().out == \
        f"{out}: {parsed} svg elements, {hats} hats\n"
    assert main(["render", *argv, "-o", str(out), "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out) == \
        {"out": str(out), "svg_elements": parsed, "hats": hats}


def test_render_default_filename(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert main(["render", "thc", "1"]) == 0
    assert "thc-1.svg: " in capsys.readouterr().out
    assert (tmp_path / "thc-1.svg").exists()


def test_render_respects_node_cap(capsys):
    assert main(["render", "hat", "12"]) == 2
    assert "max_svg_nodes" in capsys.readouterr().err


def test_render_grid_off_hat_is_refused(tmp_path, capsys):
    out = tmp_path / "hat.svg"
    assert main(["render", "hat", "2", "--grid", "-a", "1", "-b", "1",
                 "-o", str(out)]) == 2
    assert "error: the kite grid exists only at hat proportions" \
        in capsys.readouterr().err
    assert not out.exists()


# ------------------------------------------------------------------ verify

def test_verify_passes(capsys):
    assert main(["verify", "--max-gen", "3"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert sum(1 for line in lines if line.startswith("PASS ")) == 12
    assert lines[-1] == "12/12 items passed"


def test_verify_json(capsys):
    assert main(["verify", "--max-gen", "2", "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["max_gen"] == 2
    assert doc["pass"] is True
    assert len(doc["items"]) == 12
    assert all(item["pass"] for item in doc["items"])
    for item in doc["items"]:
        assert isinstance(item["seconds"], float) and item["seconds"] >= 0


def _moved_in_table(monkeypatch, p, k, by):
    """Patch the tables the verify items read: V_k at p moved by `by`."""
    def wrong(n, q):
        vs = v_table(n, q)
        if q == p and n >= k:
            vs[k] = vs[k] + by
        return vs

    monkeypatch.setattr("hatfam.checks.v_table", wrong)


def test_verify_fails_on_one_wrong_supervector(monkeypatch, capsys):
    # V_150 moved by (1, 0) at Tile(7/3, 1/2), a shape only the
    # recurrence item walks
    p = make_params(QSqrt3(Fraction(7, 3)), QSqrt3(Fraction(1, 2)))
    _moved_in_table(monkeypatch, p, 150, VecE(QSqrt3(1), QSqrt3(0)))
    assert main(["verify", "--max-gen", "2"]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines[1].startswith("FAIL recurrence: n=150 recurrence breaks ")
    assert lines[-1] == "11/12 items passed"


def test_verify_fails_on_a_supervector_moved_in_y_only(monkeypatch,
                                                      capsys):
    # the recurrence compares each component on its own ints, so a move of
    # V_150 in y alone at Tile(7/3, 1/2) fails there too
    p = make_params(QSqrt3(Fraction(7, 3)), QSqrt3(Fraction(1, 2)))
    _moved_in_table(monkeypatch, p, 150, VecE(QSqrt3(0), QSqrt3(1)))
    assert main(["verify", "--max-gen", "2"]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines[1].startswith("FAIL recurrence: n=150 recurrence breaks ")
    assert lines[-1] == "11/12 items passed"


def test_verify_fails_on_the_last_supervector_it_walks(monkeypatch, capsys):
    # V_200, the last term the recurrence item reads, moved by (1, 0) at
    # Tile(1, 1), where s and t carry a denominator
    p = make_params(QSqrt3(1), QSqrt3(1))
    _moved_in_table(monkeypatch, p, 200, VecE(QSqrt3(1), QSqrt3(0)))
    assert main(["verify", "--max-gen", "2"]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines[1].startswith("FAIL recurrence: n=200 recurrence breaks ")
    assert lines[-1] == "11/12 items passed"


def test_verify_fails_on_a_supervector_moved_at_the_hat(monkeypatch, capsys):
    # at the hat every term has denominator 1, so the recurrence compares
    # the stored ints directly; V_120 lies past the angle sweep's n <= 50
    _moved_in_table(monkeypatch, hat_params(), 120,
                    VecE(QSqrt3(0), QSqrt3(1)))
    assert main(["verify", "--max-gen", "2"]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines[1].startswith("FAIL recurrence: n=120 recurrence breaks ")
    assert lines[-1] == "11/12 items passed"


def test_verify_fails_on_one_wrong_g_factor(monkeypatch, capsys):
    # g(30) off by one, which only the angle identity's g(n) branch reads:
    # the g-sequence item calls g_closed for the 13 listed terms only
    def wrong(n):
        return g_closed(n) + (n == 30)

    monkeypatch.setattr("hatfam.checks.g_closed", wrong)
    assert main(["verify", "--max-gen", "2"]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines[3].startswith(
        "FAIL angle-identity: g(n) identity fails at n=30 ")
    assert lines[-1] == "11/12 items passed"


def test_verify_fails_on_one_wrong_g_term(monkeypatch, capsys):
    # g(400) off by one in the recurrence, past the 13 listed terms

    def wrong(count):
        terms = g_recurrence(count)
        if count >= 400:
            terms[399] += 1
        return terms

    monkeypatch.setattr("hatfam.checks.g_recurrence", wrong)
    assert main(["verify", "--max-gen", "2"]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines[2].startswith("FAIL g-sequence: closed form and recurrence "
                               "disagree below n=500 ")
    assert lines[-1] == "11/12 items passed"


def test_verify_fails_on_the_last_g_term(monkeypatch, capsys):
    # g(500), the last term the recurrence is compared on, off by one

    def wrong(count):
        terms = g_recurrence(count)
        terms[-1] += 1
        return terms

    monkeypatch.setattr("hatfam.checks.g_recurrence", wrong)
    assert main(["verify", "--max-gen", "2"]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines[2].startswith("FAIL g-sequence: closed form and recurrence "
                               "disagree below n=500 ")
    assert lines[-1] == "11/12 items passed"


def test_verify_fails_on_one_wrong_rotation_tangent(monkeypatch, capsys):
    # tan(alpha_37) off by one at a sampled shape, which only the exact
    # factor identity checks
    q = checks._sample_params(3)[1]
    v36, v37 = v_closed(36, q), v_closed(37, q)

    def wrong(v, w):
        cross, dot = cross_dot(v, w)
        if (v, w) == (v36, v37):  # (cross + dot)/dot is the tangent plus 1
            (ca, cb, cd), (da, db, dd) = cross, dot
            cross = (ca * dd + da * cd, cb * dd + db * cd, cd * dd)
        return cross, dot

    monkeypatch.setattr("hatfam.checks.cross_dot", wrong)
    assert main(["verify", "--max-gen", "2"]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines[3].startswith(
        "FAIL angle-identity: exact factor identity fails at n=37 ")
    assert lines[-1] == "11/12 items passed"


def test_verify_checks_kites_once_and_names_a_clash_from_the_top(
        monkeypatch, capsys):
    # generation 5 assembled with P2 on P1's placement, past layout
    # validation's generations 1-4: the one kite pass, on hat-6, names the
    # clash by its path from hat-6, inside its first piece, T
    real = substitution._assemble

    def clashing(n, chain):
        nodes = real(n, chain)
        if n != 5:
            return nodes
        moved = []
        for node in nodes:
            children = list(node.children)
            children[2] = children[2][0], children[1][1]
            moved.append(substitution.SupertileNode(
                node.kind, n, tuple(children), node.labels, node.tail,
                node.head, node.den))
        return tuple(moved)

    checked = []

    def spied(node, *args):
        checked.append(f"{node.kind}-{node.generation}")
        return check_kites(node, *args)

    monkeypatch.setattr(substitution, "_assemble", clashing)
    monkeypatch.setattr(checks, "check_kites", spied)
    assert main(["verify", "--max-gen", "6"]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert checked == ["hat-6"]
    [fail] = [line for line in lines if line.startswith("FAIL")]
    assert re.fullmatch(re.escape(
        "FAIL non-overlap: generation 6: hat-6/T: pieces P1 and P2 overlap "
        "on kite KiteCell(hex_q=-8, hex_r=-17, corner_k=0)") + r" \(.*\)",
        fail)
    assert lines[-1] == "11/12 items passed"


def test_verify_rejects_small_max_gen(capsys):
    assert main(["verify", "--max-gen", "1"]) == 2
    assert "--max-gen" in capsys.readouterr().err


def test_verify_catches_broken_layout(tmp_path, capsys):
    work = _broken_data_dir(tmp_path)
    assert main(["verify", "--max-gen", "2", "--data-dir", str(work)]) == 1
    out = capsys.readouterr().out
    assert "FAIL layout-config" in out
    assert "overlap" in out


def test_verify_reports_a_broken_layout_as_its_one_item(tmp_path, capsys):
    work = _broken_data_dir(tmp_path)
    argv = ["verify", "--max-gen", "2", "--data-dir", str(work)]
    assert main(argv + ["--format", "json"]) == 1
    doc = json.loads(capsys.readouterr().out)
    assert doc["pass"] is False
    [item] = doc["items"]
    assert item["name"] == "layout-config" and item["pass"] is False
    assert isinstance(item["seconds"], float) and item["seconds"] >= 0
    assert main(argv) == 1
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 2
    assert re.fullmatch(r"FAIL layout-config: .*overlap.* \(\d+\.\d\ds\)",
                        lines[0])
    assert lines[1] == "0/1 items passed"


def test_verify_missing_config_is_a_config_error(tmp_path, capsys):
    assert main(["verify", "--data-dir", str(tmp_path)]) == 2
    captured = capsys.readouterr()
    assert "cannot read config" in captured.err
    assert captured.out == ""


def test_a_non_integer_cell_is_a_config_error(tmp_path, capsys):
    work = tmp_path / "data"
    shutil.copytree(SHIPPED_DATA, work)
    cfg = work / "tile.cfg"
    text = cfg.read_text(encoding="utf-8")
    assert "items = 0,0,0 " in text
    cfg.write_text(text.replace("items = 0,0,0 ", "items = x,0,0 "),
                   encoding="utf-8")
    assert main(["build", "hat", "1", "--data-dir", str(work)]) == 2
    assert "bad cell 'x,0,0', expected q,r,k" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["build", "hat", "1"],
    ["render", "hat", "1"],
    ["verify", "--max-gen", "2"],
])
@pytest.mark.parametrize("old,new,error", [
    ("edges = B A ", "edges = C A ", "edge 0: unknown symbol 'C'\n"),
    # the last edge shortened from b to a leaves the walk open at the hat
    ("A A B\n", "A A A\n", "outline does not close; residual "),
    # 8 connected kites of the outline's area, not the ones it covers
    ("0,0,5 0,1,4 0,1,5 1,0,2 1,0,3", "0,0,3 0,0,4 0,0,5 0,1,4 0,1,5",
     "tile outline is not the boundary of its 8 kite cells"),
], ids=["unknown-symbol", "open-walk", "wrong-cells"])
def test_a_tile_fault_is_a_config_error(argv, old, new, error, tmp_path,
                                        capsys):
    work = tmp_path / "data"
    shutil.copytree(SHIPPED_DATA, work)
    cfg = work / "tile.cfg"
    text = cfg.read_text(encoding="utf-8")
    assert text.count(old) == 1
    cfg.write_text(text.replace(old, new), encoding="utf-8")
    assert main(argv + ["--data-dir", str(work)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: " + error)
    assert captured.out == ""


@pytest.mark.parametrize("argv", [
    ["build", "hat", "2"],
    ["render", "hat", "2"],
    ["verify", "--max-gen", "2"],
])
@pytest.mark.parametrize("old,new,error", [
    ("offset_u = 3/2, 3/2*r3", "offset_u = 3/4, 3/2*r3",
     "key 'offset_u' in [partner]: VecE(3/4, 3/2*r3) does not lie in "
     "Z[zeta12]\n"),
    ("tail2_w = 0, -2", "tail2_w = 0, -3/2",
     "key 'tail2_w' in [anchors]: VecE(0, -3/2) does not lie in "
     "Z[zeta12]\n"),
], ids=["partner-u", "tail2-w"])
def test_a_form_outside_z_zeta_is_a_config_error(argv, old, new, error,
                                                  tmp_path, capsys):
    # a layout form must be a point of Z[zeta], zeta = e^(i*pi/6), so that
    # its value at a shape is over the shape's denominator
    work = tmp_path / "data"
    shutil.copytree(SHIPPED_DATA, work)
    cfg = work / "layout.cfg"
    text = cfg.read_text(encoding="utf-8")
    assert text.count(old) == 1
    cfg.write_text(text.replace(old, new), encoding="utf-8")
    assert main(argv + ["--data-dir", str(work)]) == 2
    captured = capsys.readouterr()
    assert captured.err == "error: " + error
    assert captured.out == ""


def test_data_dir_env_var(tmp_path, monkeypatch, capsys):
    work = _broken_data_dir(tmp_path)
    monkeypatch.setenv("HATFAM_DATA_DIR", str(work))
    assert main(["build", "hat", "2"]) == 1
    capsys.readouterr()
    # an explicit --data-dir wins over the environment
    assert main(["build", "hat", "2", "--data-dir", str(SHIPPED_DATA)]) == 0


def test_out_flag_writes_file(tmp_path, capsys):
    target = tmp_path / "terms.txt"
    assert main(["sequence", "fib", "5", "-o", str(target)]) == 0
    assert capsys.readouterr().out == ""
    assert target.read_text(encoding="utf-8") == "0 1 1 2 3\n"
