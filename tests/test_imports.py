"""Checks on the package's source: it imports nothing outside the standard
library and numpy, the SQDS closed forms import nothing of the engine's
measures, and integer arguments have one validator."""

import ast
import sys
from pathlib import Path

import duality


def modules() -> dict:
    """The parsed source of every module of the package, by file name."""
    paths = sorted(Path(duality.__file__).parent.glob("*.py"))
    assert len(paths) >= 9
    return {path.name: ast.parse(path.read_text(encoding="utf-8"), str(path)) for path in paths}


def test_package_imports_only_the_standard_library_and_numpy():
    allowed = set(sys.stdlib_module_names) | {"numpy"}
    outside = []
    for name, tree in modules().items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            outside += [(name, module) for module in names if module.split(".")[0] not in allowed]
    assert not outside


def test_only_linalg_checks_for_integers():
    # Every integer argument goes through linalg.integer, which rejects bools
    # and checks the range; a second isinstance(x, numbers.Integral) test
    # would be a second validator to keep in step with it.
    found = []
    for name, tree in modules().items():
        for node in ast.walk(tree):
            if (isinstance(node, ast.Attribute) and node.attr == "Integral"
                    or isinstance(node, ast.ImportFrom) and node.module == "numbers"
                    and any(alias.name == "Integral" for alias in node.names)):
                found.append((name, node.lineno))
    assert found and {name for name, _ in found} == {"linalg.py"}, found


def test_sqds_imports_nothing_from_measures():
    # The closed forms are a route independent of the engine's measures, so
    # that test_dual_route_agreement_sample compares two routes, not one.
    imported = set()
    for node in ast.walk(modules()["sqds.py"]):
        if isinstance(node, ast.ImportFrom):
            imported |= {node.module or ""} | {f"{node.module or ''}.{alias.name}" for alias in node.names}
        elif isinstance(node, ast.Import):
            imported |= {alias.name for alias in node.names}
    assert imported and not any("measures" in name.split(".") for name in imported), imported
