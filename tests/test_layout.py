"""Checks over the package source itself: no module imports a name it
never reads, so a symbol left behind by a removal cannot linger."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "uplinksim"


def unused_imports(source: str) -> list[str]:
    """The names ``source`` imports and never reads, ``__future__``
    features aside; a name listed in ``__all__`` counts as read."""
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                # ``import a.b`` binds ``a``
                imported[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    read = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            read.add(node.id)
        elif (isinstance(node, ast.Assign)
              and any(getattr(t, "id", None) == "__all__" for t in node.targets)):
            # ``from package import *`` reads what ``__all__`` lists
            read.update(ast.literal_eval(node.value))
    return [f"line {line}: {name}" for name, line in imported.items()
            if name not in read]


def test_the_scan_finds_an_unused_import():
    source = ("from __future__ import annotations\n"
              "import math\nimport os.path\n"
              "from collections import deque\nfrom dataclasses import field as f\n"
              "from .config import parse_config\n"
              "print(math.pi, os.sep)\n__all__ = ['parse_config']\n")
    assert unused_imports(source) == ["line 4: deque", "line 5: f"]


def test_no_module_imports_a_name_it_never_reads():
    unused = {path.name: problems for path in sorted(PACKAGE.glob("*.py"))
              if (problems := unused_imports(path.read_text(encoding="utf-8")))}
    assert unused == {}
