"""Rules about the source of flab that no single module's tests can see.

No answer flab reports as exact may be probabilistic, so no module draws
random numbers.  The CLI imports random only to seed it for --seed, and
flab.testing takes its generator as an argument.
"""

from __future__ import annotations

import ast
import os

import flab

SRC = os.path.dirname(os.path.abspath(flab.__file__))


def _imported_modules(path):
    with open(path, encoding="utf-8") as fh:
        tree = ast.parse(fh.read(), filename=path)
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module


def test_only_the_cli_imports_random():
    names = sorted(name for name in os.listdir(SRC) if name.endswith(".py"))
    assert "cli.py" in names and "modules.py" in names
    importers = [
        name
        for name in names
        if any(
            mod == "random" or mod.startswith("random.")
            for mod in _imported_modules(os.path.join(SRC, name))
        )
    ]
    assert importers == ["cli.py"]
