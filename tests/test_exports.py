"""The package exports its modules' export lists, and nothing else leaks into it."""

from __future__ import annotations

import importlib
import inspect
import types

import beamlcp
from beamlcp import errors


def _source_modules():
    """The modules that define the names ``beamlcp`` re-exports."""
    names = {
        getattr(beamlcp, name).__module__
        for name in beamlcp.__all__
        if name != "__version__"
    }
    return [importlib.import_module(name) for name in sorted(names)]


def test_every_exported_name_resolves():
    assert len(beamlcp.__all__) == len(set(beamlcp.__all__))
    for module in [beamlcp, *_source_modules()]:
        for name in module.__all__:
            assert hasattr(module, name), f"{module.__name__}.__all__ lists missing {name!r}"


def test_package_exports_are_its_modules_exports_and_the_errors():
    error_types = {
        name
        for name, obj in vars(errors).items()
        if inspect.isclass(obj) and issubclass(obj, errors.LcpError)
    }
    assert set(errors.__all__) == error_types
    modules = _source_modules()
    assert {m.__name__ for m in modules} >= {"beamlcp.contact", "beamlcp.dense", "beamlcp.lcp"}
    expected = set().union(*(m.__all__ for m in modules)) | {"__version__"}
    assert set(beamlcp.__all__) == expected


def test_namespace_holds_only_exports_dunders_and_submodules():
    # A star import from a module without __all__ would leak its helpers here.
    leaked = [
        name
        for name, obj in vars(beamlcp).items()
        if name not in beamlcp.__all__
        and not (name.startswith("__") and name.endswith("__"))
        and not (isinstance(obj, types.ModuleType) and obj.__name__ == f"beamlcp.{name}")
    ]
    assert leaked == []
