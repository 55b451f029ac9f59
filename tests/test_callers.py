"""Every function, class and method of the package has a caller outside the
tests, and so does every parameter default: a value no caller sets is a constant.

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


# parameters with a default: each is set by some call outside the tests, or
# it is a constant; `cli.main` takes `argv` from the console-script entry
# point, which passes none
DEFAULT_EXEMPT = {("main", "argv")}


def defaulted_parameters() -> list[tuple[str, str, int | None]]:
    """(function name, parameter, position in a call or None) of each parameter
    with a default of a function or method of the package.  A method's
    position leaves out self and cls; a class's `__init__` is listed under
    the class name, as a call names it."""
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        module = parse(path)
        methods = {id(f): cls.name for cls in ast.walk(module) if isinstance(cls, ast.ClassDef) for f in cls.body}
        for node in ast.walk(module):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            args = node.args
            positional = args.posonlyargs + args.args
            static = any(isinstance(d, ast.Name) and d.id == "staticmethod" for d in node.decorator_list)
            skip = 1 if id(node) in methods and not static else 0
            name = methods[id(node)] if node.name == "__init__" and id(node) in methods else node.name
            first = len(positional) - len(args.defaults)
            found += [(name, a.arg, i - skip) for i, a in enumerate(positional) if i >= first]
            found += [(name, a.arg, None) for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None]
    return found


def calls_outside_tests() -> list[ast.Call]:
    paths = [*PACKAGE.glob("*.py"), *(ROOT / "scripts").glob("*.py")]
    paths += [p for p in (ROOT / "perfbench").glob("*.py") if not p.name.startswith("test_")]
    return [node for path in paths for node in ast.walk(parse(path)) if isinstance(node, ast.Call)]


def set_parameters() -> set[tuple[str, str | int]]:
    """(called name, parameter name or position) of each value a call passes;
    a call that unpacks *args or **kwargs sets every parameter, written '*'."""
    found = set()
    for call in calls_outside_tests():
        func = call.func
        name = func.id if isinstance(func, ast.Name) else func.attr if isinstance(func, ast.Attribute) else None
        if name is None:
            continue
        if any(isinstance(a, ast.Starred) for a in call.args) or any(k.arg is None for k in call.keywords):
            found.add((name, "*"))
        found |= {(name, i) for i in range(len(call.args))}
        found |= {(name, k.arg) for k in call.keywords if k.arg is not None}
    return found


def test_every_parameter_default_has_a_caller():
    passed = set_parameters()
    unset = sorted(
        f"{name}: {param}"
        for name, param, position in defaulted_parameters()
        if (name, param) not in DEFAULT_EXEMPT
        and not {(name, param), (name, position), (name, "*")} & passed
    )
    assert unset == []
