"""No module of ``src/repro`` imports a name it never uses.

An ``ast`` scan stands in for a linter: every name bound by an ``import``
must be read somewhere in its module — in code, in an annotation (string
annotations included, since modules use ``from __future__ import
annotations``) or in ``__all__``.  Package ``__init__.py`` files are skipped:
their imports are the package's re-exports.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Iterator, List, Set, Tuple

SRC = Path(__file__).resolve().parent.parent / "src" / "repro"


def _imported(tree: ast.Module) -> Iterator[Tuple[int, str]]:
    """(line, bound name) of every import in the module, at any depth."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.asname or alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                if alias.name != "*":
                    yield node.lineno, alias.asname or alias.name


def _used(tree: ast.Module) -> Set[str]:
    """Names the module reads: loads, attribute roots, string annotations, ``__all__``."""
    used: Set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            # ``__all__`` entries and string annotations ("nx.DiGraph").
            try:
                expression = ast.parse(node.value, mode="eval")
            except (SyntaxError, ValueError):  # prose, or a null byte before 3.12
                continue
            used.update(n.id for n in ast.walk(expression) if isinstance(n, ast.Name))
    return used


def unused_imports(source: str) -> List[Tuple[int, str]]:
    """(line, name) of every import in ``source`` that the module never reads."""
    tree = ast.parse(source)
    used = _used(tree)
    return [(line, name) for line, name in _imported(tree) if name not in used]


def test_scan_flags_only_the_unused_import() -> None:
    source = (
        "from __future__ import annotations\n"
        "import os, os.path\n"
        "from typing import Dict, List, Set\n"
        "__all__ = ['Set']\n"
        "def f(x: 'Dict[str, int]') -> List[int]:\n"
        "    return [os.sep]\n"
        "def g():\n"
        "    import json as codec\n"
    )
    assert unused_imports(source) == [(8, "codec")]


def test_no_unused_imports_in_src() -> None:
    found = [
        f"{path.relative_to(SRC.parent)}:{line}: {name}"
        for path in sorted(SRC.rglob("*.py"))
        if path.name != "__init__.py"
        for line, name in unused_imports(path.read_text(encoding="utf-8"))
    ]
    assert not found, "unused imports:\n" + "\n".join(found)
