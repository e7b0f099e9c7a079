"""Every exported name resolves: each module's ``__all__`` and the package
namespace, so a deleted function cannot leave a dangling export.  The
numerical thresholds stay constants: no exported callable takes one as a
parameter."""

import importlib
import inspect
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


def exported_names():
    for name in MODULES:
        module = importlib.import_module(name)
        for attr in getattr(module, "__all__", ()):
            yield f"{name}.{attr}", getattr(module, attr)
    for attr, value in vars(probunitary).items():
        if not attr.startswith("_"):
            yield f"probunitary.{attr}", value


def test_no_exported_function_takes_a_tolerance():
    # functions, and the constructors of classes that define one in Python
    signatures = {
        name: inspect.signature(value) for name, value in exported_names()
        if inspect.isfunction(value)
        or inspect.isclass(value) and inspect.isfunction(value.__init__)
    }
    assert "probunitary.decompose_trajectory" in signatures
    assert [name for name, sig in signatures.items() if "tol" in sig.parameters] == []


def test_config_defines_only_float_constants():
    config = importlib.import_module("probunitary.config")
    names = {attr: type(value) for attr, value in vars(config).items() if not attr.startswith("__")}
    assert names and set(names.values()) == {float}
    assert all(attr.isupper() for attr in names)
