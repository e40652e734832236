"""Every name a module exports must exist: a deleted function left in an
``__all__`` breaks ``from gtbsplines import *`` and the documentation of the
public API, but no call in the library or the tests."""

import importlib
import pkgutil

import pytest

import gtbsplines

MODULES = ["gtbsplines"] + [
    f"gtbsplines.{info.name}" for info in pkgutil.iter_modules(gtbsplines.__path__)
]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    assert len(set(exported)) == len(exported), f"{name}.__all__ lists a name twice"
    missing = [attr for attr in exported if not hasattr(module, attr)]
    assert not missing, f"{name}.__all__ names missing attributes {missing}"

