import importlib
import pkgutil

import pytest

import gpcn

MODULES = ["gpcn"] + [f"gpcn.{m.name}" for m in pkgutil.iter_modules(gpcn.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    assert len(set(exported)) == len(exported), f"{name}.__all__ lists a name twice"
    missing = [n for n in exported if not hasattr(module, n)]
    assert missing == [], f"{name}.__all__ names {missing}, which {name} does not define"


def test_every_module_but_the_entry_point_declares_its_exports():
    assert [n for n in MODULES if not hasattr(importlib.import_module(n), "__all__")] == ["gpcn.__main__"]
