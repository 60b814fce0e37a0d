"""Every public name of the package has a caller in `src/` or `perfbench/`.

A public name is a module-level function, class or constant of
`src/juntatester`, or a method of a public class, whose name does not start
with an underscore. It counts as used when its name is read (`name` or
`obj.name`) anywhere in `src/` or `perfbench/` outside `__init__.py`, whose
re-exports are not uses. Methods are matched by attribute name only, so this
errs toward passing a name that shares a spelling with a used one.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "juntatester"

# `main` is the console-script entry point.
ALLOWED = {"main"}


def _public(name: str) -> bool:
    return not name.startswith("_")


def public_names() -> set[str]:
    names = set()
    for path in PACKAGE.glob("*.py"):
        if path.name == "__init__.py":
            continue
        module = path.stem
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and _public(node.name):
                names.add(f"{module}.{node.name}")
            elif isinstance(node, ast.Assign):
                names.update(
                    f"{module}.{t.id}" for t in node.targets
                    if isinstance(t, ast.Name) and _public(t.id)
                )
            if isinstance(node, ast.ClassDef) and _public(node.name):
                names.update(
                    f"{module}.{node.name}.{item.name}" for item in node.body
                    if isinstance(item, ast.FunctionDef) and _public(item.name)
                )
    return names


def used_names() -> set[str]:
    files = [p for p in PACKAGE.glob("*.py") if p.name != "__init__.py"]
    files += sorted((ROOT / "perfbench").glob("*.py"))
    used = set()
    for path in files:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                used.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                used.add(node.attr)
    return used


def test_every_public_name_has_a_caller():
    used = used_names()
    unused = sorted(
        name for name in public_names()
        if name.rsplit(".", 1)[-1] not in used | ALLOWED
    )
    assert unused == []


def test_the_scan_sees_the_package():
    names = public_names()
    assert "harness.build_fixture" in names
    assert "distribution.Distribution.sample_indices" in names
    assert "boolfn.N_MAX" in names
