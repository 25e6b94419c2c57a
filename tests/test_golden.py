"""Byte-identity of CLI outputs.

The sha256 digests below were recorded at commit 35d2436, before
placements held integer Q(zeta12) coordinates.  Build JSON, SVG figures
and the verify items (without their timings) must stay identical to
them.  Grid renders at a != 1 are not recorded here: they draw the kite
grid at scale a^2, a known fault.  Their bytes, with every other figure the
benchmark's render workload can draw and every build its build-hat
workload runs, are checked against the benchmark's own references in
`perfbench/refs.json`, read without changing anything under `perfbench/`.
"""

import hashlib
import importlib.util
import re
import sys
from pathlib import Path

import pytest

from hatfam.cli import main

_PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
_spec = importlib.util.spec_from_file_location(
    "perfbench_workloads", _PERFBENCH / "workloads.py")
workloads = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(workloads)

_TIMING = re.compile(r" \(\d+\.\d+s\)$", re.MULTILINE)

BUILDS = {
    ("hat", "1", "r3"):
        "e3cc5480ae444b0bfab8a04c254ea124cb88598424a3f510ab3d41f3395b2a10",
    ("hat", "2", "2*r3"):
        "5aa360b184e062701b25c8a12d5b8c1f062e14b4992718c64d2a092470eb0e0f",
    ("hat", "1/2", "1/2*r3"):
        "3689562606d235fe3c06ebfeceebc7b2678dab7cafef0370ae2737a7df8410f6",
    ("hat", "7/3", "1/2"):
        "c990026eb61e5f7a65b0f652b62db076f500ff40cd5b9b0d1e4593a838c474ad",
    ("thc", "1", "r3"):
        "91435b8afa6669abe988f3b652b7d619d3b7a5ee51914cd2200b57d64a7a5676",
    ("thc", "2", "2*r3"):
        "aedbfb31ff87279fe65704f193ada96dde52dbba1e5d98dd538c26e8a44781e6",
    ("thc", "1/2", "1/2*r3"):
        "b9129d68035e75f60fd9d1fa392233adb016da242a72c61db3e3039f394831ae",
    ("thc", "7/3", "1/2"):
        "0a13fc043949976406dbe40647a3631fe22407c6b6dcfcf981e6ef5f3e7094ad",
}

RENDERS = {
    ("--supervectors", "2", "--scheme", "rotation", "-a", "1", "-b", "r3"):
        "e085ddb37c66df56d554ef5cba77e575c8176efcb4de1499fc4621e9510fca00",
    ("--supervectors", "2", "--scheme", "plain", "-a", "1", "-b", "r3"):
        "4d9a44587660dc2258a13fc432ddbe19cb4fbb8bace8835c3fb79aec49ac149c",
    ("--supervectors", "2", "--scheme", "rotation", "-a", "2", "-b", "2*r3"):
        "58799dcdebaa644573851a273fc98a7775ab9bb00b83174c5408c8d7f48b32bf",
    ("--supervectors", "2", "--scheme", "plain", "-a", "2", "-b", "2*r3"):
        "cf7b7ce601dd0df4c440ca7750f42c187d40291a8c23892e4d8be7aaae4785ed",
    ("--grid", "-a", "1", "-b", "r3"):
        "c15ee5a38abb570782fbf69763b75976b5d807543ec824fd8c2d0d106582f3df",
    # off the integer hat scales: recorded at commit 9047fb3, before the
    # renderer formatted each distinct coordinate once
    ("--supervectors", "2", "-a", "7/3", "-b", "1/2"):
        "3801ce8245b5095849e957861b3879e1ae20bdd2ff122c329644d3b41fbf0ffd",
    ("--supervectors", "2", "-a", "2+r3", "-b", "3+2*r3"):
        "ecf0108e2ee3657f5fca59b76e1446c9a6f02bf1e85cde085be4ee907550e8f2",
    ("--supervectors", "2", "-a", "1/2", "-b", "1/2*r3"):
        "f2a1901dc60cfb3aad5df533e50f115e5f7f490cf59d9864f8f64460ce5ca09d",
}

VERIFY_MAX_GEN_3 = \
    "c224a1e7083cbc4ab2aa0f7b877846f7d45d6c73d4a142d1011e6f2075ed3593"

# `vectors -n 40` as (text, json), recorded at commit 413f86d
VECTORS = {
    ("1", "r3"): (
        "02c0d420ba770ae607c9d6aa0acf445dda24ea24ee5066491f46364936a5b364",
        "fbe905cad001222033635e984dadac84d897d5151619981deba00a2960ac80ea"),
    ("r3", "1"): (
        "e93e0d89c48c33f09fbb347297b1414f02ad4c7d136407c1e70d3232e4966187",
        "4feab79a1cf84b3b95760b3fe8b4010c0c78b7dd3c7732dce2fdef06fcb558a0"),
    ("7/3", "1/2"): (
        "e3aa277800dc6c68d922cef154d739119dc519acedc5d047f652035d123b70b9",
        "df69cce322b755815f0db845799147f4234329250a4a0f85ff432e1c124ba575"),
}

# `vectors` stdout as (text, json) by (a, b, -n), recorded at commit
# d5a5d63, before the table came from one Fibonacci-Lucas walk
VECTORS_BY_N = {
    ("1", "r3", "1"): (
        "4ec055ca0f534bb324955e6577bc22bc34197c3bcb36c4a3beb0e3990d8c96a7",
        "cc9878024ef1985215eb86cdb48af8de15f414dc2213f27eee7537b6dde43a9b"),
    ("1", "r3", "8"): (
        "e13c4d9ef03d29b24ba0993a30c9504c5632c1eb3069ab932ff555becba61889",
        "7a5119066806624fd48a0a7405d709d757cbc95f4618d1bdd35ba51132d68051"),
    ("1", "r3", "60"): (
        "6132336b226ba705d363f7da6c86861a82712c9cf6ac631f7348ef67e16b8ed3",
        "21dfbe22167ff9762b80ece5a2bc56084368b39293e1de8651a413c812f74650"),
    ("7/3", "1/2", "200"): (
        "89018f97b6a5b0f78f69e233286f859442eb703ddad53d490bf37669fc928ace",
        "8c6d93f745f5e324bcf7b2463fbe0b5087f93e2f26854f51f227209d40a075dc"),
}


# the CLI surface at COLUMNS=80 as (exit code, stdout, stderr) digests,
# recorded at commit 278a451, before the parser gave arguments only to
# the invoked command.  argparse words help and errors differently across
# Python versions (3.13 words five of these help texts otherwise), so the
# digests are keyed by the version they were recorded under: 3.10.13,
# 3.11.7 and 3.12.1 word them alike
_SURFACE = {
    ("-h",): (
        0, "9c50409f15df8351faaff58008e7408e53cc25f24876bba19568eea390da4dfa",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("sequence", "-h"): (
        0, "a49bdb67451679724a99f1723a1e9e32b1305a2a2dfb6290fe2668484c93ca99",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("vectors", "-h"): (
        0, "37e3ea44ebe76d44b6152377c68c6750af49f153393f5eee5ac1499dc5553e24",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("build", "-h"): (
        0, "70120ce24b9d156a313f3ae0c0e396b3e992d0a1f2c3c70da27d22497d3ee889",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("render", "-h"): (
        0, "26977978a917f5b8961912a59cacb46881bf39c32b490b45224e47b056607546",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("verify", "-h"): (
        0, "8afe83de8b56a0ce6a70b8664572f8ebded63b247cade39c1e114b5aa9ae8c55",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("bogus",): (
        2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "57b748d120f14b04f065e9d27a7946c2e2689a16434a5e5d838de9505327f55e"),
    ("build",): (
        2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "390784b9e5fb92709cda0893d48cb11ae28f28f042bf05e24634a1fc833fc6ca"),
    ("build", "hat", "x"): (
        2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "bc04efb2233b158d92df5d66b79beaa36f09066c5a21376e37904226c328cac7"),
}
CLI_SURFACE = {(3, 10): _SURFACE, (3, 11): _SURFACE, (3, 12): _SURFACE}


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize("kind,a,b", sorted(BUILDS))
def test_build_json_bytes(kind, a, b, tmp_path):
    out = tmp_path / "build.json"
    assert main(["build", kind, "4", "-a", a, "-b", b, "--format", "json",
                 "-o", str(out)]) == 0
    assert _sha256(out.read_bytes()) == BUILDS[(kind, a, b)]


@pytest.mark.parametrize("extra", sorted(RENDERS))
def test_render_svg_bytes(extra, tmp_path, capsys):
    out = tmp_path / "hat.svg"
    assert main(["render", "hat", "3", *extra, "-o", str(out)]) == 0
    assert _sha256(out.read_bytes()) == RENDERS[extra]


def test_verify_items_bytes(tmp_path):
    out = tmp_path / "verify.txt"
    assert main(["verify", "--max-gen", "3", "-o", str(out)]) == 0
    items = _TIMING.sub("", out.read_text(encoding="utf-8"))
    assert _sha256(items.encode("utf-8")) == VERIFY_MAX_GEN_3


@pytest.mark.parametrize("a,b", sorted(VECTORS))
def test_vectors_bytes(a, b, tmp_path):
    for fmt, want in zip(("text", "json"), VECTORS[(a, b)]):
        out = tmp_path / f"vectors.{fmt}"
        assert main(["vectors", "-n", "40", "-a", a, "-b", b,
                     "--format", fmt, "-o", str(out)]) == 0
        assert _sha256(out.read_bytes()) == want


@pytest.mark.parametrize("a,b,n", sorted(VECTORS_BY_N))
def test_vectors_bytes_by_generation(a, b, n, capsys):
    for fmt, want in zip(("text", "json"), VECTORS_BY_N[(a, b, n)]):
        assert main(["vectors", "-n", n, "-a", a, "-b", b,
                     "--format", fmt]) == 0
        assert _sha256(capsys.readouterr().out.encode("utf-8")) == want


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_vectors_refuses_generation_zero(fmt, capsys):
    with pytest.raises(SystemExit) as caught:
        main(["vectors", "-n", "0", "--format", fmt])
    assert caught.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.endswith("hatfam vectors: error: argument -n/--max: "
                        "must be >= 1, got 0\n")


def test_benchmark_verify_items(capsys):
    # the items at the benchmark's size, as its oracle reads them
    assert main(["verify", "--max-gen", "5", "--format", "json"]) == 0
    got = workloads.verify_items(capsys.readouterr().out, "json")
    assert got == workloads.load_refs()["verify"]["5"]


# every argv of the render workload, at the timed and at the smoke sizes
BENCH_RENDERS = [argv for smoke in (False, True)
                 for argv in workloads.all_argvs("render", smoke)]


@pytest.mark.parametrize("argv", BENCH_RENDERS, ids=workloads.key)
def test_benchmark_render_bytes(argv, tmp_path, capsys):
    out = tmp_path / "render.svg"
    i = argv.index("-o") + 1
    assert main([*argv[:i], str(out), *argv[i + 1:]]) == 0
    want = workloads.load_refs()["outputs"][workloads.key(argv)]
    assert _sha256(out.read_bytes()) == want


# every argv of the build-hat workload, at the timed and at the smoke sizes
BENCH_BUILDS = [argv for smoke in (False, True)
                for argv in workloads.all_argvs("build-hat", smoke)]


@pytest.mark.parametrize("argv", BENCH_BUILDS, ids=workloads.key)
def test_benchmark_build_bytes(argv, capsys):
    assert main(argv) == 0
    want = workloads.load_refs()["outputs"][workloads.key(argv)]
    assert _sha256(capsys.readouterr().out.encode("utf-8")) == want


@pytest.mark.skipif(sys.version_info[:2] not in CLI_SURFACE,
                    reason="no digests recorded under this Python version")
@pytest.mark.parametrize("argv", sorted(_SURFACE))
def test_cli_surface_bytes(argv, monkeypatch, capsys):
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as caught:
        main(list(argv))
    out, err = capsys.readouterr()
    assert (caught.value.code, _sha256(out.encode("utf-8")),
            _sha256(err.encode("utf-8"))) == \
        CLI_SURFACE[sys.version_info[:2]][argv]
