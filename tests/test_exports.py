"""Every exported name resolves: each module's ``__all__`` and the package
namespace, so a deleted function cannot leave a dangling export."""

import importlib
import pkgutil

import pytest

import probunitary

MODULES = sorted(
    info.name for info in pkgutil.iter_modules(probunitary.__path__, "probunitary.")
    if not info.name.endswith("__main__")
)


@pytest.mark.parametrize("name", MODULES)
def test_module_all_resolves(name):
    module = importlib.import_module(name)
    assert [attr for attr in getattr(module, "__all__", ()) if not hasattr(module, attr)] == []


def test_package_names_resolve_in_their_modules():
    # each class and function the package re-exports is still the object
    # its defining module holds under that name
    for attr, value in vars(probunitary).items():
        owner = getattr(value, "__module__", None)
        if not attr.startswith("_") and owner and owner.startswith("probunitary."):
            assert getattr(importlib.import_module(owner), attr, None) is value, attr


def test_star_import():
    namespace = {}
    exec("from probunitary import *", namespace)
    assert "decompose_channel" in namespace
