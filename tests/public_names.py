"""Print every public module-level name the ``ddaekit`` package defines,
one ``module.name`` per line, sorted.

A name counts when a module's top level defines it (a ``def``, a ``class``
or an assignment) and it does not start with an underscore; names a module
imports from another are left out, so each name is listed once, where it
lives.  The package is found on ``PYTHONPATH`` and read, not imported.
Run it on two checkouts and compare, to see the names a change adds and
removes::

    PYTHONPATH=<other checkout>/src python tests/public_names.py > old.txt
    PYTHONPATH=src python tests/public_names.py > new.txt
    diff old.txt new.txt

pytest does not collect this file.
"""

import ast
import importlib.util
from pathlib import Path


def _defined(tree):
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [
                node.target]
            for target in targets:
                for leaf in ast.walk(target):
                    if isinstance(leaf, ast.Name):
                        yield leaf.id


def public_names(package="ddaekit"):
    root = Path(importlib.util.find_spec(package).origin).parent
    names = set()
    for path in root.glob("*.py"):
        tree = ast.parse(path.read_text(), str(path))
        names.update(f"{package}.{path.stem}.{name}"
                     for name in _defined(tree) if not name.startswith("_"))
    return sorted(names)


if __name__ == "__main__":
    print("\n".join(public_names()))
