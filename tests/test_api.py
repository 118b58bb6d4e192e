"""The public names each module declares."""

import importlib
import inspect
import pkgutil

import pytest

import fraclab

MODULES = [m.name for m in pkgutil.iter_modules(fraclab.__path__) if m.name != "__main__"]


@pytest.mark.parametrize("name", MODULES)
def test_every_name_in_all_resolves(name):
    # Tools that walk __all__, such as span tracers, skip a stale entry silently.
    module = importlib.import_module(f"fraclab.{name}")
    assert [n for n in getattr(module, "__all__", []) if not hasattr(module, n)] == []


def test_reexports_are_in_the_defining_modules_all():
    missing = [
        name
        for name, obj in vars(fraclab).items()
        if not name.startswith("_")
        and not inspect.ismodule(obj)
        and name not in importlib.import_module(obj.__module__).__all__
    ]
    assert missing == []
