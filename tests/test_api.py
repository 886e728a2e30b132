"""The public surface: every exported name exists."""

import importlib
import pkgutil

import povm_forge


def test_every_name_in_all_resolves():
    modules = [povm_forge] + [
        importlib.import_module(f"povm_forge.{info.name}")
        for info in pkgutil.iter_modules(povm_forge.__path__)
        if info.name != "__main__"  # importing it runs the CLI
    ]
    for module in modules:
        for name in getattr(module, "__all__", ()):
            assert hasattr(module, name), f"{module.__name__}.{name}"
