"""The package namespace: each module's ``__all__`` is its public API."""
import importlib

import kreinspec

MODULES = ("errors", "realsets", "krein", "tensorsum", "transversal",
           "waveguide2d")


def test_package_all_is_the_modules_all():
    modules = [importlib.import_module(f"kreinspec.{m}") for m in MODULES]
    names = ["__version__"] + [n for mod in modules for n in mod.__all__]
    assert kreinspec.__all__ == names
    assert len(set(names)) == len(names)
    for mod in modules:
        for name in mod.__all__:
            obj = getattr(mod, name)
            assert getattr(kreinspec, name) is obj
            assert obj.__module__ == mod.__name__  # defined there, not imported
