"""Every exported name resolves, so a deletion cannot leave a stale export."""

import importlib
import pkgutil

import pytest

import edr

MODULES = ["edr", *(f"edr.{info.name}" for info in pkgutil.iter_modules(edr.__path__))]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    assert [attr for attr in getattr(module, "__all__", []) if not hasattr(module, attr)] == []
