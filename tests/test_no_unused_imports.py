"""Every name a module of the package, the tests or the tools imports is
used in that module: an import that nothing reads is dead code, and it
hides which modules a file really depends on. A name counts as used when
it appears as a bare name anywhere in the file (``nd`` in ``nd.add``
counts); ``from __future__`` imports bind no name and are skipped."""

import ast
import glob
import os

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PATTERNS = ("src/blockmdm/*.py", "tests/*.py", "tools/*.py")


def imported_names(tree):
    """``(name, line)`` of each name an import statement in ``tree`` binds."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.partition(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                if alias.name != "*":
                    yield alias.asname or alias.name, node.lineno


def test_every_import_is_used():
    unused = []
    for pattern in PATTERNS:
        for path in sorted(glob.glob(os.path.join(ROOT, pattern))):
            with open(path, encoding="utf-8") as f:
                tree = ast.parse(f.read(), filename=path)
            used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
            unused += [f"{os.path.relpath(path, ROOT)}:{line}: {name}"
                       for name, line in imported_names(tree) if name not in used]
    assert not unused, f"imported but never used: {unused}"
