"""Every name imported in src/ and tests/ is used, and the package imports
light.

No linter ships with the package, so this stands in for pyflakes' F401. A
name counts as used when it is read anywhere in the module or listed in
``__all__``; an import line marked ``# noqa: F401`` is a deliberate
re-export and is skipped.
"""

import ast
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
FILES = sorted([*ROOT.glob("src/**/*.py"), *ROOT.glob("tests/**/*.py")])


def unused_imports(source):
    """(line, name) of each imported name that the module never uses."""
    tree = ast.parse(source)
    lines = source.splitlines()
    imported = {}
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            span = lines[node.lineno - 1:node.end_lineno]
            if getattr(node, "module", None) == "__future__" or any(
                "# noqa: F401" in s for s in span
            ):
                continue
            for alias in node.names:
                if alias.name != "*":
                    imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used.update(e.value for e in node.value.elts if isinstance(e, ast.Constant))
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_checker_finds_unused_and_honours_reexports():
    source = (
        "import os\n"
        "import os.path as osp\n"
        "from math import gcd, isqrt\n"
        "from json import dumps  # noqa: F401\n"
        "from hashlib import sha256\n"
        "__all__ = ['sha256']\n"
        "print(gcd(4, 6), os.sep)\n"
    )
    assert unused_imports(source) == [(2, "osp"), (3, "isqrt")]


def test_no_unused_imports():
    assert FILES
    found = [
        f"{path.relative_to(ROOT)}:{line}: {name}"
        for path in FILES
        for line, name in unused_imports(path.read_text(encoding="utf-8"))
    ]
    assert not found, "unused imports:\n" + "\n".join(found)


def test_package_import_pulls_in_no_introspection():
    # dataclasses brings in inspect, ast, dis and tokenize, about half the
    # import time that every iqsl2 command pays
    code = (f"import sys; sys.path.insert(0, {str(ROOT / 'src')!r}); "
            "import iqsl2, iqsl2.cli; "
            "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))")
    out = subprocess.run([sys.executable, "-S", "-c", code], check=True,
                         capture_output=True, text=True, timeout=60).stdout
    assert out == "[]\n"
