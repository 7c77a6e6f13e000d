"""Every name a reebspec module exports through __all__ exists."""

import importlib
import pkgutil

import pytest

import reebspec

MODULES = sorted(info.name for info in pkgutil.iter_modules(reebspec.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(f"reebspec.{name}")
    missing = [attr for attr in getattr(module, "__all__", ())
               if not hasattr(module, attr)]
    assert not missing
    exec(f"from reebspec.{name} import *", {})
