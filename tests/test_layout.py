"""Checks over the package source itself: no module of the package or of
its tests imports a name it never reads, and no package module defines a
top-level name, or a method or property of a top-level class, that the
package or the benchmark never reads, so a symbol left behind by a removal
cannot linger."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "uplinksim"


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
    # the package, its tests and the root conftest
    paths = [*PACKAGE.glob("*.py"), *(ROOT / "tests").glob("*.py"),
             ROOT / "conftest.py"]
    unused = {str(path.relative_to(ROOT)): problems for path in sorted(paths)
              if (problems := unused_imports(path.read_text(encoding="utf-8")))}
    assert unused == {}


def _listed(stmt) -> list[str]:
    """What ``stmt`` lists in ``__all__``, if it assigns it."""
    if (isinstance(stmt, ast.Assign)
            and any(getattr(t, "id", None) == "__all__" for t in stmt.targets)):
        return ast.literal_eval(stmt.value)
    return []


def _read(nodes) -> set[str]:
    """The names ``nodes`` read, as a name or as an attribute, or list in
    ``__all__``."""
    read = set()
    for top in nodes:
        read.update(_listed(top))
        for node in ast.walk(top):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    return read


def unread_names(package: dict[str, str], readers: dict[str, str]) -> list[str]:
    """``module line N: name`` for each top-level function, class or
    assigned name of a ``package`` module (name: source), and ``module line
    N: Class.name`` for each method or property of its top-level classes,
    that no statement of ``package`` or ``readers`` reads, as a name or as
    an attribute, outside the statement that defines it; dunder names
    aside, and a name listed in ``__all__`` counts as read."""
    # the names each statement reads, keyed (source, top-level line, line):
    # a top-level statement at its line twice; a class's body statements
    # apart, each at its own line, and its header at the class line
    reads = {}
    for label, source in {**package, **readers}.items():
        for stmt in ast.parse(source).body:
            line = stmt.lineno
            if isinstance(stmt, ast.ClassDef):
                reads[label, line, line] = _read(
                    [*stmt.decorator_list, *stmt.bases, *stmt.keywords])
                for member in stmt.body:
                    reads[label, line, member.lineno] = _read([member])
            else:
                reads[label, line, line] = _read([stmt])
    # (module, line, name, the keys of the statements that define it)
    defined = []
    for module, source in package.items():
        for stmt in ast.parse(source).body:
            line = stmt.lineno
            own = {key for key in reads if key[:2] == (module, line)}
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defined.append((module, line, stmt.name, own))
            elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
                targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
                defined += [(module, line, node.id, own)
                            for target in targets for node in ast.walk(target)
                            if isinstance(node, ast.Name)]
            if isinstance(stmt, ast.ClassDef):
                defined += [(module, member.lineno, f"{stmt.name}.{member.name}",
                             {(module, line, member.lineno)})
                            for member in stmt.body
                            if isinstance(member, (ast.FunctionDef, ast.AsyncFunctionDef))]
    unread = []
    for module, line, qualified, own in defined:
        name = qualified.rpartition(".")[2]
        if not (name.startswith("__") and name.endswith("__")) and not any(
                name in read for key, read in reads.items() if key not in own):
            unread.append(f"{module} line {line}: {qualified}")
    return unread


def test_the_scan_finds_an_unread_name():
    package = {
        "a.py": ("import math\n"
                 "def used():\n    return math.pi\n"
                 "def recursive(n):\n    return recursive(n - 1) if n else 0\n"
                 "LIMIT, _SPARE = 1, 2\n"
                 "_table: dict = {}\n"
                 "class Listed:\n"
                 "    def __init__(self):\n        self.ready = self.check()\n"
                 "    def check(self):\n        return self.check\n"
                 "    @property\n    def spare(self):\n        return self.spare\n"
                 "    def measured(self):\n        return 0\n"
                 "__all__ = ['Listed']\n"),
        "b.py": "from .a import used\nused()\n",
    }
    # a method or property is read like a top-level name, and read by
    # another member of its class, but not by its own body
    readers = {"bench.py": "import a\nprint(a.LIMIT, a.Listed().measured())\n"}
    assert unread_names(package, readers) == [
        "a.py line 4: recursive", "a.py line 6: _SPARE", "a.py line 7: _table",
        "a.py line 14: Listed.spare"]
    assert unread_names(package, {}) == [
        "a.py line 4: recursive", "a.py line 6: LIMIT", "a.py line 6: _SPARE",
        "a.py line 7: _table", "a.py line 14: Listed.spare",
        "a.py line 16: Listed.measured"]


def test_every_top_level_name_is_read():
    # the benchmark reads some names the package does not, such as
    # ``cli.run_matrix``; tests do not count as readers
    def sources(paths):
        return {str(path.relative_to(ROOT)): path.read_text(encoding="utf-8")
                for path in sorted(paths)
                if not path.name.startswith("test_")}

    assert unread_names(sources(PACKAGE.glob("*.py")),
                        sources((ROOT / "perfbench").glob("*.py"))) == []
