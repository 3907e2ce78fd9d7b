"""Every private module-level helper in src/iqsl2 is used by src/ itself,
every public module-level function or class by src/ or the package's
``__all__``, and every public method by src/ or tests/.

A ``_``-prefixed function, class or assigned name at module level that no
code in ``src/`` reads, apart from its own definition, is dead: a fork left
behind by a rewrite, such as a sentinel whose only reader was deleted.
Tests may still use it, so they do not count as uses. A use is a name or an
attribute read anywhere, in any module of the package.

A public module-level function or class that no code in ``src/`` reads
and that ``iqsl2.__all__`` does not list serves only the tests, which is
no use of the package: it belongs under ``tests/`` (``tests/oracles.py``).

A public method of a class in ``src/`` whose name no code in ``src/`` or
``tests/`` reads, apart from its own definition, is dead too: nothing calls
it and nothing checks it.
"""

import ast
from collections import Counter
from pathlib import Path

import iqsl2

ROOT = Path(__file__).resolve().parent.parent
SRC = sorted(ROOT.glob("src/**/*.py"))
TESTS = sorted(ROOT.glob("tests/**/*.py"))
DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _names(node):
    """Counter of the names and attribute names read inside node."""
    out = Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
            out[sub.id] += 1
        elif isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Load):
            out[sub.attr] += 1
    return out


def _defined(node):
    """Names a module-level statement defines: a def, or assignment targets."""
    if isinstance(node, DEFS):
        return [node.name]
    if isinstance(node, (ast.Assign, ast.AnnAssign)):
        targets = node.targets if isinstance(node, ast.Assign) else [node.target]
        return [sub.id for t in targets for sub in ast.walk(t)
                if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Store)]
    return []


def dead_helpers(sources):
    """(module, name) of each private module-level def or assigned name
    that no source reads outside its own definition, for sources mapping
    module to its text."""
    trees = {mod: ast.parse(text) for mod, text in sources.items()}
    used = sum((_names(tree) for tree in trees.values()), Counter())
    dead = []
    for mod, tree in trees.items():
        for node in tree.body:
            for name in _defined(node):
                # "_" is a throwaway target, "__x" a dunder: no helper
                if (name.startswith("_") and not name.startswith("__")
                        and name != "_" and used[name] == _names(node)[name]):
                    dead.append((mod, name))
    return sorted(dead)


def dead_public(sources, exported):
    """(module, name) of each public module-level function or class in
    sources, mapping module to its text, that no source reads outside its
    own definition and that ``exported`` does not hold."""
    trees = {mod: ast.parse(text) for mod, text in sources.items()}
    used = sum((_names(tree) for tree in trees.values()), Counter())
    return sorted((mod, node.name) for mod, tree in trees.items()
                  for node in tree.body
                  if isinstance(node, DEFS) and not node.name.startswith("_")
                  and node.name not in exported
                  and used[node.name] == _names(node)[node.name])


def dead_methods(sources, readers):
    """(module, class.method) of each public method of a module-level class
    in sources whose name no text in readers reads outside its own
    definition; both map a module to its text."""
    used = sum((_names(ast.parse(text)) for text in readers.values()),
               Counter())
    dead = []
    for mod, text in sources.items():
        for node in ast.parse(text).body:
            if not isinstance(node, ast.ClassDef):
                continue
            for fn in node.body:
                if (isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
                        and not fn.name.startswith("_")
                        and used[fn.name] == _names(fn)[fn.name]):
                    dead.append((mod, f"{node.name}.{fn.name}"))
    return sorted(dead)


def _read(paths):
    return {str(path.relative_to(ROOT)): path.read_text(encoding="utf-8")
            for path in paths}


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
            "_WIDER = object()\n"     # assigned, never read: dead
            "_ALIAS: int = 1\n"
            "_SEEN, _ = 1, 2\n"
            "__all__ = []\n"           # dunder: not a helper
        ),
        "b": (
            "from a import _used_by_b\n_used_by_b()\nimport a\na._Attr()\n"
            "print(a._ALIAS, a._SEEN)\n"
        ),
    }
    assert dead_helpers(sources) == [("a", "_WIDER"), ("a", "_rec")]


def test_no_dead_private_helpers():
    assert SRC
    found = [f"{mod}: {name}" for mod, name in dead_helpers(_read(SRC))]
    assert not found, "private helpers no code in src/ uses:\n" + "\n".join(found)


def test_checker_finds_dead_public_names():
    sources = {
        "a": (
            "def exported():\n"       # listed: kept
            "    pass\n"
            "def rec(n):\n"           # only calls itself: dead
            "    return rec(n - 1) if n else 0\n"
            "def helper():\n"         # read by b
            "    pass\n"
            "class Oracle:\n"         # read by no source: dead
            "    pass\n"
            "def _private():\n"       # private: not this rule's
            "    pass\n"
            "CONSTANT = 1\n"          # assigned: not this rule's
        ),
        "b": "from a import helper\nhelper()\n",
    }
    assert dead_public(sources, {"exported"}) == [("a", "Oracle"),
                                                  ("a", "rec")]
    assert dead_public(sources, {"exported", "Oracle", "rec"}) == []


def test_no_dead_public_names():
    assert SRC
    found = [f"{mod}: {name}"
             for mod, name in dead_public(_read(SRC), set(iqsl2.__all__))]
    assert not found, ("public functions and classes that no code in src/"
                       " reads and iqsl2.__all__ does not list:\n"
                       + "\n".join(found))


def test_checker_finds_dead_methods():
    sources = {
        "a": (
            "class A:\n"
            "    def used(self):\n"
            "        return self.tested()\n"
            "    def tested(self):\n"
            "        pass\n"
            "    def rec(self, n):\n"  # only calls itself: dead
            "        return self.rec(n - 1) if n else 0\n"
            "    def _private(self):\n"  # private: not this rule's
            "        pass\n"
            "    @property\n"
            "    def shown(self):\n"
            "        pass\n"
            "def f(a):\n"
            "    return a.used()\n"
        ),
    }
    readers = dict(sources, t="print(A().shown)\n")
    assert dead_methods(sources, readers) == [("a", "A.rec")]
    assert dead_methods(sources, sources) == [("a", "A.rec"), ("a", "A.shown")]


def test_no_dead_public_methods():
    assert SRC and TESTS
    sources = _read(SRC)
    found = [f"{mod}: {name}"
             for mod, name in dead_methods(sources, {**sources, **_read(TESTS)})]
    assert not found, ("public methods no code in src/ or tests/ reads:\n"
                       + "\n".join(found))
