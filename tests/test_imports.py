import ast
import os
import subprocess
import sys
from pathlib import Path

import hatfam

SRC = Path(hatfam.__file__).parent


def test_runtime_is_stdlib_only():
    # every module the package imports is in the standard library or is
    # part of hatfam itself
    outside = set()
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module]
            else:
                continue
            for name in names:
                top = name.split(".")[0]
                if top != "hatfam" and top not in sys.stdlib_module_names:
                    outside.add(f"{path.name}: {name}")
    assert not outside


def _names(tree) -> set:
    """Every name a tree refers to: loaded names, attributes, imported
    names, and strings, which the benchmark's tracer looks names up by."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, ast.alias):
            found.add(node.name)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            found.add(node.value)
    return found


def test_every_top_level_name_has_a_caller_outside_the_tests():
    # a def or class in src/ that only tests refer to is a helper for the
    # tests; a definition's own body does not count as a caller
    bench = Path(__file__).parents[1] / "perfbench"
    files = sorted(SRC.glob("*.py")) + sorted(
        path for path in bench.glob("*.py")
        if not path.name.startswith("test_"))
    defined, used = set(), set()
    for path in files:
        for stmt in ast.parse(path.read_text(encoding="utf-8")).body:
            own = None
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
                own = stmt.name
                if path.parent == SRC:
                    defined.add((path.name, own))
            used |= _names(stmt) - {own}
    assert sorted(d for d in defined if d[1] not in used) == []


def test_only_geometry_holds_the_orientation_matrices():
    # every turn goes through geometry's kernel, so no other module reads
    # its matrices
    users = [path.name for path in sorted(SRC.glob("*.py"))
             if "_MATRICES" in _names(ast.parse(
                 path.read_text(encoding="utf-8")))]
    assert users == ["geometry.py"]


# a cold `hatfam build` loads neither the verify suite nor the SVG writer,
# nor `dataclasses` (which pulls in `inspect`); `render` loads on use
_COLD_START = """
import sys
from hatfam.cli import main
assert main(["build", "hat", "2"]) == 0
loaded = [name for name in ("dataclasses", "inspect", "hatfam.render",
                            "hatfam.checks") if name in sys.modules]
assert not loaded, loaded
assert main(["render", "hat", "1", "-o", sys.argv[1]]) == 0
assert "hatfam.render" in sys.modules
"""


def test_cold_start_loads_only_what_the_command_runs(tmp_path):
    run = subprocess.run(
        [sys.executable, "-c", _COLD_START, str(tmp_path / "hat.svg")],
        capture_output=True, text=True, timeout=60,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)})
    assert run.returncode == 0, run.stderr
