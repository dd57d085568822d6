"""Every name a module exports in ``__all__`` resolves."""

import importlib
import pkgutil

import pytest

import symdom

MODULES = ["symdom"] + [f"symdom.{m.name}"
                        for m in pkgutil.iter_modules(symdom.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    assert len(set(exported)) == len(exported)
    missing = [n for n in exported if not hasattr(module, n)]
    assert missing == []

