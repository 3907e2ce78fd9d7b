"""Every private module-level helper in src/iqsl2 is used by src/ itself.

A ``_``-prefixed function or class defined at module level that no code in
``src/`` names, apart from its own definition, is dead: a fork left behind
by a rewrite. Tests may still call it, so they do not count as uses. A use
is a name or an attribute read anywhere, in any module of the package.
"""

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = sorted(ROOT.glob("src/**/*.py"))
DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _names(node):
    """Counter of the names and attribute names read inside node."""
    out = Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            out[sub.id] += 1
        elif isinstance(sub, ast.Attribute):
            out[sub.attr] += 1
    return out


def dead_helpers(sources):
    """(module, name) of each private module-level def that no source
    names outside its own body, for sources mapping module to its text."""
    trees = {mod: ast.parse(text) for mod, text in sources.items()}
    used = sum((_names(tree) for tree in trees.values()), Counter())
    dead = []
    for mod, tree in trees.items():
        for node in tree.body:
            name = getattr(node, "name", "")
            if (isinstance(node, DEFS) and name.startswith("_")
                    and not name.startswith("__")
                    and used[name] == _names(node)[name]):
                dead.append((mod, name))
    return sorted(dead)


def test_checker_finds_dead_helpers():
    sources = {
        "a": (
            "def _rec(n):\n"          # only calls itself: dead
            "    return _rec(n - 1) if n else 0\n"
            "def _used_by_b():\n"
            "    pass\n"
            "class _Attr:\n"
            "    pass\n"
            "def __getattr__(name):\n"  # dunder: not a helper
            "    pass\n"
            "def public():\n"
            "    pass\n"
            "_ALIAS = 1\n"
        ),
        "b": "from a import _used_by_b\n_used_by_b()\nimport a\na._Attr()\n",
    }
    assert dead_helpers(sources) == [("a", "_rec")]


def test_no_dead_private_helpers():
    assert SRC
    sources = {
        str(path.relative_to(ROOT)): path.read_text(encoding="utf-8")
        for path in SRC
    }
    found = [f"{mod}: {name}" for mod, name in dead_helpers(sources)]
    assert not found, "private helpers no code in src/ uses:\n" + "\n".join(found)
