import json
import math
import shutil
import xml.etree.ElementTree as ET
from pathlib import Path

import pytest

from hatfam import configfile
from hatfam.cli import main

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


@pytest.mark.parametrize("a,b", [("1/2", "1/2*r3"), ("2+r3", "3+2*r3")])
def test_build_disjoint_at_any_hat_scale(capsys, a, b):
    assert main(["build", "hat", "3", "-a", a, "-b", b]) == 0
    assert "PASS disjoint: 440 kite cells, no overlap" in \
        capsys.readouterr().out


def test_build_skips_disjoint_off_proportion(capsys):
    assert main(["build", "hat", "2", "-a", "2", "-b", "3"]) == 0
    assert "skipped: needs hat proportions" in capsys.readouterr().out


def test_build_explicit_disjoint_needs_hat_proportions(capsys):
    assert main(["build", "hat", "2", "-a", "2", "-b", "3",
                 "--checks", "disjoint"]) == 2
    assert "hat proportions" in capsys.readouterr().err


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


def test_render_default_filename(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert main(["render", "thc", "1"]) == 0
    assert "thc-1.svg: " in capsys.readouterr().out
    assert (tmp_path / "thc-1.svg").exists()


def test_render_respects_node_cap(capsys):
    assert main(["render", "hat", "12"]) == 2
    assert "max_svg_nodes" in capsys.readouterr().err


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


def test_verify_rejects_small_max_gen(capsys):
    assert main(["verify", "--max-gen", "1"]) == 2
    assert "--max-gen" in capsys.readouterr().err


def test_verify_catches_broken_layout(tmp_path, capsys):
    work = _broken_data_dir(tmp_path)
    assert main(["verify", "--max-gen", "2", "--data-dir", str(work)]) == 1
    out = capsys.readouterr().out
    assert "FAIL layout-config" in out
    assert "overlap" in out


def test_verify_missing_config_is_a_config_error(tmp_path, capsys):
    assert main(["verify", "--data-dir", str(tmp_path)]) == 2
    captured = capsys.readouterr()
    assert "cannot read config" in captured.err
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
