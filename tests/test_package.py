"""The package namespace exports exactly what ``segqa.__all__`` names."""

import inspect

import segqa


def test_star_import_binds_exactly_all():
    # A name left in __all__ after its object is gone raises AttributeError here.
    namespace: dict[str, object] = {}
    exec("from segqa import *", namespace)
    namespace.pop("__builtins__")
    assert sorted(namespace) == sorted(segqa.__all__)


def test_every_public_import_is_exported():
    public = {
        name
        for name, obj in vars(segqa).items()
        if not name.startswith("_") and not inspect.ismodule(obj)
    }
    assert public == set(segqa.__all__)
