#!/usr/bin/env python
"""CI lint: every module under src/ is reached by import from src/.

A module that no product module imports — directly or through a chain
of imports starting at the ``repro`` package or an entry point — is
test-only code living in the product, and it fails the build.  Entry
points and the test oracle are the allowlisted roots:

* ``repro.cli`` (``python -m repro.cli``),
* ``repro.experiments.__main__`` (``python -m repro.experiments``),
* ``repro.reference`` (the oracle; only tests import it).

An import of ``a.b.c`` reaches ``a``, ``a.b`` and ``a.b.c``; ``from a.b
import c`` also reaches the submodule ``a.b.c`` when there is one.
Imports anywhere in a module count, function-local ones included.

Usage: python tools/check_imports_reachable.py [repo-root]
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

ROOTS = ("repro", "repro.cli", "repro.experiments.__main__",
         "repro.reference")


def module_names(src: Path) -> dict[str, Path]:
    """Dotted module name -> file, for every module under *src*."""
    modules = {}
    for path in src.rglob("*.py"):
        parts = list(path.relative_to(src).with_suffix("").parts)
        if parts[-1] == "__init__":
            parts.pop()
        modules[".".join(parts)] = path
    return modules


def imported_names(name: str, path: Path) -> set[str]:
    """Every dotted name *path* (module *name*) imports, with its
    parent packages."""
    package = name if path.name == "__init__.py" else name.rpartition(".")[0]
    targets: set[str] = set()
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            targets.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:
                anchor = package.split(".")
                anchor = anchor[:len(anchor) - node.level + 1]
                base = ".".join(anchor + ([base] if base else []))
            targets.add(base)
            targets.update(f"{base}.{alias.name}" for alias in node.names)
    reached = set()
    for target in targets:
        parts = target.split(".")
        reached.update(".".join(parts[:i]) for i in range(1, len(parts) + 1))
    return reached


def unreachable(src: Path) -> list[str]:
    modules = module_names(src)
    seen = {root for root in ROOTS if root in modules}
    stack = list(seen)
    while stack:
        name = stack.pop()
        for target in imported_names(name, modules[name]):
            if target in modules and target not in seen:
                seen.add(target)
                stack.append(target)
    return sorted(set(modules) - seen)


def main(argv: list[str]) -> int:
    root = Path(argv[1]) if len(argv) > 1 else Path(".")
    orphans = unreachable(root / "src")
    for name in orphans:
        print(f"{name}: not reached by import from src/")
    return 1 if orphans else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
