"""Every name listed in a public ``__all__`` resolves, so ``import *`` never breaks."""

import importlib
import pkgutil

import pytest

import actrecover

MODULES = ["actrecover"] + [
    f"actrecover.{info.name}" for info in pkgutil.iter_modules(actrecover.__path__)
]


@pytest.mark.parametrize("name", MODULES)
def test_all_exports_resolve(name):
    module = importlib.import_module(name)
    missing = [export for export in getattr(module, "__all__", ()) if not hasattr(module, export)]
    assert missing == []
