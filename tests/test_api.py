"""Every name in the package's and its modules' ``__all__`` resolves."""

import importlib
import pkgutil

import pytest

import kmsteiner

MODULES = sorted(m.name for m in pkgutil.iter_modules(kmsteiner.__path__))


def test_package_all_resolves():
    assert len(set(kmsteiner.__all__)) == len(kmsteiner.__all__)
    missing = [name for name in kmsteiner.__all__ if not hasattr(kmsteiner, name)]
    assert missing == []
    namespace: dict = {}
    exec("from kmsteiner import *", namespace)
    assert set(kmsteiner.__all__) <= set(namespace)


@pytest.mark.parametrize("module", MODULES)
def test_module_all_resolves(module):
    mod = importlib.import_module(f"kmsteiner.{module}")
    names = getattr(mod, "__all__", [])
    assert len(set(names)) == len(names)
    assert [name for name in names if not hasattr(mod, name)] == []
