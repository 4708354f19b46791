import importlib
import pkgutil

import pytest

import rbsdelab

MODULES = sorted(info.name for info in pkgutil.iter_modules(rbsdelab.__path__))


def test_every_module_is_listed():
    assert "rbsde" in MODULES and "snell" in MODULES


@pytest.mark.parametrize("name", MODULES)
def test_every_module_export_resolves(name):
    module = importlib.import_module(f"rbsdelab.{name}")
    assert [entry for entry in module.__all__ if not hasattr(module, entry)] == []


def test_every_package_export_resolves():
    assert [entry for entry in rbsdelab.__all__ if not hasattr(rbsdelab, entry)] == []
