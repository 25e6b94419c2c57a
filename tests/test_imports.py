import ast
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
