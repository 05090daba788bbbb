"""Every public function, class and method of timetrail is reached by the
program: referenced outside its own definition in src/timetrail, scripts/ or
perfbench/. Tests do not count, so code that only a test calls fails here."""
import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "timetrail"
# the program's own files; perfbench/tests are tests too
SOURCES = [*PACKAGE.glob("*.py"), *(ROOT / "scripts").glob("*.py"), *(ROOT / "perfbench").glob("*.py")]


def _public_definitions():
    """(path, dotted name, node) of each public top-level def or class, and of
    each public method of a top-level class."""
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
                yield path, node.name, node
                for item in node.body if isinstance(node, ast.ClassDef) else ():
                    if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                        yield path, f"{node.name}.{item.name}", item


def _references():
    """name -> [(path, line)] of each use: a name, an attribute, an imported
    name, or a part of a dotted string (perfbench names what it wraps)."""
    refs = {}
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name):
                names = [node.id]
            elif isinstance(node, ast.Attribute):
                names = [node.attr]
            elif isinstance(node, ast.ImportFrom):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                names = [part for part in node.value.split(".") if part.isidentifier()]
            else:
                continue
            for name in names:
                refs.setdefault(name, []).append((path, node.lineno))
    return refs


def test_every_public_definition_is_reached_by_the_program():
    refs = _references()
    unreached = [
        f"{path.relative_to(ROOT)}: {dotted}"
        for path, dotted, node in _public_definitions()
        if not any(
            not (where == path and node.lineno <= line <= node.end_lineno)
            for where, line in refs.get(dotted.rsplit(".", 1)[-1], ())
        )
    ]
    assert unreached == []
