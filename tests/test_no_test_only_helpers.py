"""Every top-level function, class and method of the package is named by
code in ``src/`` outside its own definition, or by the benchmark in
``perfbench/``: a helper that only tests call does not belong in the
package. A method counts as named only through an attribute (``x.name``)
or an identifier string, never through a bare name: a local variable
that happens to share a method's name does not call it."""

import ast
import glob
import os
from collections import Counter

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def definitions(tree):
    """``(name, node)`` of each top-level function and class and of each
    method of a top-level class."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef):
                    yield f"{node.name}.{item.name}", item


def names_used(node, bare=True):
    """How often each attribute, identifier string (a name that ``getattr``
    looks up, as ``perfbench/tracing.py`` patches by name) and, with
    ``bare``, each bare name appears in the code under ``node``."""
    used = Counter()
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            used[n.id] += bare
        elif isinstance(n, ast.Attribute):
            used[n.attr] += 1
        elif isinstance(n, ast.Constant) and isinstance(n.value, str) and n.value.isidentifier():
            used[n.value] += 1
    return used


def parse(pattern):
    trees = []
    for path in sorted(glob.glob(os.path.join(ROOT, pattern))):
        with open(path, encoding="utf-8") as f:
            trees.append((os.path.relpath(path, ROOT), ast.parse(f.read(), filename=path)))
    return trees


def test_every_definition_has_a_caller_outside_tests():
    src, perfbench = parse("src/blockmdm/*.py"), parse("perfbench/*.py")
    counts = {bare: (sum((names_used(tree, bare) for _, tree in src), Counter()),
                     sum((names_used(tree, bare) for _, tree in perfbench), Counter()))
              for bare in (True, False)}
    unused = []
    for path, tree in src:
        for qualname, node in definitions(tree):
            name = node.name
            if name.startswith("__") and name.endswith("__"):
                continue  # called by the language, not by name
            bare = "." not in qualname  # a method is named through attributes only
            in_src, in_perfbench = counts[bare]
            if in_src[name] == names_used(node, bare)[name] and not in_perfbench[name]:
                unused.append(f"{path}: {qualname}")
    assert not unused, f"named only by tests, or by nothing: {unused}"
