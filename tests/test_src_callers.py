"""A standing check that ``src/omegalab`` holds no dead private code: every
top-level ``_private`` function, class or constant is referenced somewhere
in ``src/`` outside its own definition. Code that only the tests call
belongs in ``tests/oracles.py``."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "omegalab"


def _defined_names(node: ast.stmt) -> list[str]:
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [node.name]
    targets = node.targets if isinstance(node, ast.Assign) else (
        [node.target] if isinstance(node, ast.AnnAssign) else [])
    return [t.id for t in targets if isinstance(t, ast.Name)]


def _used_names(node: ast.stmt) -> set[str]:
    used = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            used.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            used.add(sub.attr)
        elif isinstance(sub, ast.alias):
            used.add(sub.name)
    return used


def unreferenced(modules: dict[str, str]) -> list[str]:
    """"file: name" for each top-level private name of the modules (file
    name -> source) that no other top-level statement of any of them
    references, by name, attribute or import."""
    statements = [
        (fname, node) for fname, text in modules.items() for node in ast.parse(text).body
    ]
    uses = [_used_names(node) for _, node in statements]
    return [
        f"{fname}: {name}"
        for k, (fname, node) in enumerate(statements)
        for name in _defined_names(node)
        if name.startswith("_") and not name.startswith("__")
        and not any(name in used for j, used in enumerate(uses) if j != k)
    ]


def test_every_private_top_level_name_has_a_caller_in_src():
    sources = {p.name: p.read_text(encoding="utf-8") for p in sorted(SRC.glob("*.py"))}
    assert len(sources) > 5
    assert unreferenced(sources) == []


def test_the_check_sees_an_unused_private_name():
    # a helper nobody calls is reported, a recursive one still is, and one
    # reference from another statement or module is enough
    modules = {
        "a.py": "def _dead(n):\n    return _dead(n - 1)\ndef _live():\n    pass\n"
                "_LIMIT = 3\nclass _Kept:\n    pass\n",
        "b.py": "from a import _live\nX = _live() + _LIMIT\nY = a._Kept\n",
    }
    assert unreferenced(modules) == ["a.py: _dead"]
