"""Name census: the ``src/`` definitions nothing outside the tests reaches.

Lists every function, class and method defined under ``src/`` whose name
no code in ``src/``, ``examples/``, ``benchmarks/`` or ``scripts/``
mentions and no dotted target in ``benchmarks/e2e/layers.json`` names.
A mention is a bare name or an attribute (``x.name``); an import or an
``__all__`` entry is not one, so a definition that is only re-exported
is listed. Dunder methods are skipped: Python calls them.

The census is by name, not by call graph: any mention of a name anywhere
counts for every definition of that name, so it can miss dead code but
does not list code that has a caller by name. Each listed name has to
get a ``src/`` caller, move into the tests, or leave.

``scripts/census.txt`` holds the accepted list, one ``path qualname``
per line. Run from the repository root::

    python scripts/census.py

It prints one ``path:line qualname (N lines)`` row per orphan and a
total, then each difference from ``census.txt``. It exits 1 if there is
one: an orphan that joined the list, or a listed name that left it and
is still written down.
"""

from __future__ import annotations

import ast
import json
import pathlib
import sys
from typing import Iterator, List, Set, Tuple

ROOT = pathlib.Path(__file__).resolve().parent.parent
SOURCES = ROOT / "src"
REFERRERS = tuple(ROOT / d for d in ("src", "examples", "benchmarks", "scripts"))
LAYERS = ROOT / "benchmarks" / "e2e" / "layers.json"
ACCEPTED = ROOT / "scripts" / "census.txt"


def _python_files(root: pathlib.Path) -> Iterator[pathlib.Path]:
    yield from sorted(p for p in root.rglob("*.py") if "__pycache__" not in p.parts)


def _definitions(path: pathlib.Path) -> Iterator[Tuple[str, str, int, int]]:
    """``(name, qualname, line, length)`` of each module-level function or
    class and each method of a module-level class in ``path``."""
    kinds = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    for node in ast.parse(path.read_text(encoding="utf-8")).body:
        if not isinstance(node, kinds):
            continue
        yield node.name, node.name, node.lineno, node.end_lineno - node.lineno + 1
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, kinds):
                    length = item.end_lineno - item.lineno + 1
                    yield item.name, f"{node.name}.{item.name}", item.lineno, length


def _mentions(path: pathlib.Path) -> Set[str]:
    """Every bare name and attribute name ``path`` uses. Imports and
    ``__all__`` hold aliases and strings, so they add none."""
    names: Set[str] = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    return names


def _layer_targets() -> Set[str]:
    """Each component of every dotted span target in ``layers.json``."""
    spans = json.loads(LAYERS.read_text(encoding="utf-8")).get("spans", [])
    return {part for span in spans for target in span["targets"] for part in target.split(".")}


def census() -> List[Tuple[str, int, str, int]]:
    """``(path, line, qualname, length)`` of each orphan, in file order."""
    mentioned = _layer_targets()
    for root in REFERRERS:
        for path in _python_files(root):
            mentioned |= _mentions(path)
    orphans = []
    for path in _python_files(SOURCES):
        for name, qualname, line, length in _definitions(path):
            if name.startswith("__") and name.endswith("__"):
                continue
            if name in mentioned:
                continue
            orphans.append((str(path.relative_to(ROOT)), line, qualname, length))
    return orphans


def main() -> int:
    orphans = census()
    for path, line, qualname, length in orphans:
        print(f"{path}:{line} {qualname} ({length} lines)")
    total = sum(length for *_, length in orphans)
    print(f"{len(orphans)} definitions ({total} lines) that nothing outside the tests mentions")
    found = {f"{path} {qualname}" for path, _, qualname, _ in orphans}
    accepted = set(ACCEPTED.read_text(encoding="utf-8").splitlines())
    for entry in sorted(found - accepted):
        print(f"new orphan: {entry} (give it a src/ caller, move it into the tests, or delete it)")
    for entry in sorted(accepted - found):
        print(f"no longer an orphan: {entry} (drop it from {ACCEPTED.relative_to(ROOT)})")
    return 1 if found != accepted else 0


if __name__ == "__main__":
    sys.exit(main())
