"""The library's public surface has callers outside the tests.

A public top-level name of src/hessquot (a def, a class or an assigned
name not starting with "_") must be referenced somewhere in src/,
scripts/ or perfbench/ outside its own definition. References are read
from the syntax tree, not the text: name loads, attribute reads and
from-imports. So a function whose last program caller is deleted fails
here until it is deleted too, or gets a reason below.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PROGRAM_DIRS = ("src", "scripts", "perfbench")

# public names kept with no caller in the program, each with its reason
ALLOWED = {
    "torus.load_fields": "README's documented reader of field dumps",
    "instances.generic_instance": "ROADMAP item 1's planned full-grid workload",
}


def public_definitions(tree):
    """(name, node) of every public top-level def, class and assigned name."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [target.id for target in targets if isinstance(target, ast.Name)]
        else:
            continue
        yield from ((name, node) for name in names if not name.startswith("_"))


def references(tree):
    """(name, line) of every name load, attribute read and from-import in tree."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            yield node.attr, node.lineno
        elif isinstance(node, ast.ImportFrom):
            yield from ((alias.name, node.lineno) for alias in node.names)


def test_every_public_name_has_a_caller_outside_the_tests():
    paths = sorted(path for d in PROGRAM_DIRS for path in (ROOT / d).rglob("*.py"))
    trees = {path: ast.parse(path.read_text(), filename=str(path)) for path in paths}
    used_at = {}
    for path, tree in trees.items():
        for name, line in references(tree):
            used_at.setdefault(name, []).append((path, line))
    library = sorted((ROOT / "src" / "hessquot").glob("*.py"))
    assert library, "no library modules found"
    uncalled = []
    for path in library:
        for name, node in public_definitions(trees[path]):
            own = range(node.lineno, node.end_lineno + 1)
            if not any(p != path or line not in own for p, line in used_at.get(name, ())):
                uncalled.append(f"{path.stem}.{name}")
    assert [name for name in uncalled if name not in ALLOWED] == []
