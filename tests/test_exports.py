"""Every name a module exports through ``__all__`` exists.

A stale ``__all__`` entry breaks only ``from gibbslab import *``, which
nothing else in the suite runs, so it is checked here directly.
"""

from __future__ import annotations

import importlib
import pkgutil

import pytest

import gibbslab

MODULES = ["gibbslab"] + [
    f"gibbslab.{info.name}" for info in pkgutil.iter_modules(gibbslab.__path__)
]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    assert len(exported) == len(set(exported)), name
    missing = [entry for entry in exported if not hasattr(module, entry)]
    assert not missing, (name, missing)
