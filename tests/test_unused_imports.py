"""Every module-level import in src/iqsl2 is read by the module itself.

A name bound by an import at module level that its module never reads is
left over from a rewrite. A name counts as read when the module loads it
anywhere, or lists it in its ``__all__``. ``__future__`` imports bind no
name, and a statement marked ``# noqa: F401`` is a deliberate re-export.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = sorted(ROOT.glob("src/**/*.py"))


def _bound(node):
    """Names a module-level import statement binds."""
    if isinstance(node, ast.Import):
        return [a.asname or a.name.split(".")[0] for a in node.names]
    if isinstance(node, ast.ImportFrom) and node.module != "__future__":
        return [a.asname or a.name for a in node.names]
    return []


def _exported(tree):
    """The strings of a module-level ``__all__`` list or tuple."""
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__"
                        for t in node.targets)
                and isinstance(node.value, (ast.List, ast.Tuple))):
            return {e.value for e in node.value.elts
                    if isinstance(e, ast.Constant)}
    return set()


def unused_imports(text):
    """The names of the module-level imports of the source ``text`` that
    the module never reads, in source order."""
    tree = ast.parse(text)
    lines = text.splitlines()
    read = {sub.id for sub in ast.walk(tree)
            if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load)}
    read |= _exported(tree)
    unused = []
    for node in tree.body:
        if any("# noqa: F401" in line
               for line in lines[node.lineno - 1:node.end_lineno]):
            continue
        unused += [name for name in _bound(node) if name not in read]
    return unused


def test_checker_finds_unused_imports():
    text = (
        "from __future__ import annotations\n"
        "import os\n"                       # read below
        "import os.path as osp\n"           # never read: unused
        "import collections.abc\n"          # binds collections, read below
        "from math import (\n"
        "    gcd,\n"                        # read below
        "    lcm,\n"                        # never read: unused
        ")\n"
        "from json import dumps  # noqa: F401\n"  # a deliberate re-export
        "from sys import argv\n"            # exported through __all__
        "__all__ = ['argv']\n"
        "def f():\n"
        "    import time\n"                 # not at module level
        "    return os.sep, gcd, collections.abc\n"
    )
    assert unused_imports(text) == ["osp", "lcm"]


def test_no_unused_imports():
    assert SRC
    found = [f"{path.relative_to(ROOT)}: {name}" for path in SRC
             for name in unused_imports(path.read_text(encoding="utf-8"))]
    assert not found, "imports no code of their module reads:\n" + "\n".join(
        found)
