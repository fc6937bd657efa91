"""Checks on the package's source: it imports nothing outside the standard
library and numpy, the SQDS closed forms import nothing of the engine's
measures, integer arguments have one validator, a failing member is named
through one function, every named tolerance is used, the README lists the
names the package exports, and only the command line catches the package's
errors, by an except clause or contextlib.suppress (one sanctioned site
aside)."""

import ast
import re
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


def test_only_require_members_names_a_failing_member():
    # A check that names its first failing member goes through linalg.require_members, the one function that
    # turns a failing mask into an error.  So linalg.label is called there and in linalg.reals' walk over
    # element types, which names an element by its type, not by a mask; and no module keeps a first_failure.
    callers, first_failure = set(), []

    def visit(node, module, function):
        for child in ast.iter_child_nodes(node):
            # A definition, an import, a name or an attribute.
            if "first_failure" in (getattr(child, "name", None), getattr(child, "asname", None),
                                   getattr(child, "id", None), getattr(child, "attr", None)):
                first_failure.append((module, child.lineno))
            if isinstance(child, ast.Call) and "label" in (getattr(child.func, "id", None),
                                                           getattr(child.func, "attr", None)):
                callers.add((module, function))
            visit(child, module, child.name if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)) else function)

    for name, tree in modules().items():
        visit(tree, name, None)
    assert callers == {("linalg.py", "require_members"), ("linalg.py", "reals")}, callers
    assert not first_failure, first_failure


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


def test_every_tolerance_is_imported_by_another_module():
    # tolerances.py is the one table of named tolerances, so each constant there is read by some module of the
    # package; one that none imports is a tolerance nothing honours any more.
    parsed = modules()
    defined = {target.id for node in parsed["tolerances.py"].body if isinstance(node, ast.Assign)
               for target in node.targets if isinstance(target, ast.Name)}
    imported = {alias.name for name, tree in parsed.items() if name != "tolerances.py" for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) and node.module == "tolerances" for alias in node.names}
    assert defined and defined <= imported, sorted(defined - imported)


def test_readme_api_list_matches_the_package_exports():
    # Each bullet "- `duality.<module>`: `name`, ..." of the README's Python API
    # section lists exactly the names duality/__init__.py imports from that module,
    # so a name deleted from the package cannot stay documented, nor a new one undocumented.
    exported = {}
    for node in modules()["__init__.py"].body:
        if isinstance(node, ast.ImportFrom):
            exported.setdefault(node.module, []).extend(alias.name for alias in node.names)
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Python API\n", 1)[1].split("\n## ", 1)[0]
    listed = {module: re.findall(r"`(\w+)`", names) for module, names in
              re.findall(r"^- `duality\.(\w+)`: (.*?)(?=\n- |\n\n)", section, re.M | re.S)}
    assert {module: sorted(names) for module, names in listed.items()} == {
        module: sorted(names) for module, names in exported.items()}


# The one place inside the package that catches a package error: interferometer._entries checks the matrices of
# an instance with one flat linalg.reals call and, should that fail, again one matrix at a time to name the first
# malformed one.  On 84 generated instances (n = 2 to 8, every class; best of 30, 2-vCPU VM) the flat call costs
# 42 us per instance, against 54 us when every instance is checked one matrix at a time.
SANCTIONED_CATCHES = {("interferometer.py", "_entries", "ValidationError")}


def test_only_the_cli_catches_the_package_errors():
    # Inside the package a failure is raised or recorded where it is found
    # (linalg.require_members), never caught to take a second route; only the
    # command line turns the errors of errors.py into exit codes.  A catch is
    # an except clause or a with statement over contextlib.suppress.
    parsed = modules()
    errors = {node.name for node in parsed["errors.py"].body if isinstance(node, ast.ClassDef)}
    assert {"DualityError", "DegenerateBranchError", "IdentityError"} <= errors
    caught = []

    def names(nodes) -> set:
        return {n.id if isinstance(n, ast.Name) else n.attr for node in nodes for n in ast.walk(node)
                if isinstance(n, (ast.Name, ast.Attribute))}

    def visit(node, module, function):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ExceptHandler) and child.type is not None:
                found = names([child.type])
            elif isinstance(child, (ast.With, ast.AsyncWith)):
                found = names(arg for item in child.items if isinstance(item.context_expr, ast.Call)
                              and "suppress" in names([item.context_expr.func]) for arg in item.context_expr.args)
            else:
                found = set()
            caught.extend((module, function, error) for error in sorted(found & errors))
            visit(child, module, child.name if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)) else function)

    for name, tree in parsed.items():
        visit(tree, name, None)
    outside = set(caught) - SANCTIONED_CATCHES
    assert outside and {name for name, _, _ in outside} == {"cli.py"}, caught
    assert SANCTIONED_CATCHES <= set(caught), caught
