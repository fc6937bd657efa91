"""The package stays numpy-only: it imports nothing outside the standard library and numpy."""

import ast
import sys
from pathlib import Path

import duality


def test_package_imports_only_the_standard_library_and_numpy():
    allowed = set(sys.stdlib_module_names) | {"numpy"}
    paths = sorted(Path(duality.__file__).parent.glob("*.py"))
    assert len(paths) >= 9
    outside = []
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            outside += [(path.name, name) for name in names if name.split(".")[0] not in allowed]
    assert not outside
