"""Every function, class and method of the package has a caller outside the tests.

A definition counts as reached when its name appears in `src/` or `scripts/`
as a name or an attribute, or as the last part of a dotted name such as
"solver.Scaling.apply" that the benchmark's layer trace (perfbench/layers.py)
wraps.  Dunders are called by Python itself, and the names the package
exports in `__all__` are its public interface.
"""

import ast
from pathlib import Path

import contact_topp

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "contact_topp"


def parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(), filename=str(path))


def definitions() -> list[tuple[str, str]]:
    """(module, name) of each module-level function or class and each method."""
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in parse(path).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                found.append((path.stem, node.name))
            if isinstance(node, ast.ClassDef):
                found += [
                    (path.stem, f"{node.name}.{item.name}")
                    for item in node.body
                    if isinstance(item, ast.FunctionDef)
                ]
    return found


def referenced_names() -> set[str]:
    names = set()
    for path in [*PACKAGE.glob("*.py"), *(ROOT / "scripts").glob("*.py")]:
        for node in ast.walk(parse(path)):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
    modules = {path.stem for path in PACKAGE.glob("*.py")}
    for node in ast.walk(parse(ROOT / "perfbench" / "layers.py")):
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            parts = node.value.split(".")
            if len(parts) > 1 and parts[0] in modules and all(p.isidentifier() for p in parts):
                names.add(parts[-1])
    return names


def test_every_definition_has_a_caller():
    reached = referenced_names()
    exempt = set(contact_topp.__all__)
    uncalled = [
        f"{module}.{qualname}"
        for module, qualname in definitions()
        for name in [qualname.rpartition(".")[2]]
        if not (name.startswith("__") and name.endswith("__")) and name not in exempt and name not in reached
    ]
    assert uncalled == []
