"""Every name a ``semimatch`` module exports in ``__all__`` exists.

A name left in ``__all__`` after its definition is deleted breaks only
``from semimatch.<module> import *``, which nothing else in the suite runs.
"""

import importlib
import pkgutil

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
