"""Every name a ``semimatch`` module exports in ``__all__`` exists, and
every module imports only the standard library and the package itself.

A name left in ``__all__`` after its definition is deleted breaks only
``from semimatch.<module> import *``, which nothing else in the suite runs.
"""

import ast
import importlib
import pathlib
import pkgutil
import sys

import pytest

import semimatch

MODULES = ["semimatch"] + [f"semimatch.{info.name}"
                           for info in pkgutil.iter_modules(semimatch.__path__)]


def test_every_module_is_covered():
    assert len(MODULES) == 9


@pytest.mark.parametrize("name", MODULES)
def test_all_resolves_and_star_import_works(name):
    module = importlib.import_module(name)
    for export in getattr(module, "__all__", ()):
        assert hasattr(module, export), f"{name}.__all__ names missing {export!r}"
    exec(f"from {name} import *", {})


def test_src_imports_only_the_standard_library():
    # The test extra installs networkx and hypothesis beside the package, so
    # an import of either in src would pass every other test.
    files = sorted(pathlib.Path(semimatch.__file__).parent.glob("*.py"))
    assert len(files) == len(MODULES)
    for path in files:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                top = name.split(".")[0]
                assert top in sys.stdlib_module_names or top == "semimatch", (path.name, name)
