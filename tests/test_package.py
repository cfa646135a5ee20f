"""The package namespace exports exactly what ``segqa.__all__`` names, and every
function the benchmark's per-layer metrics trace still exists."""

import importlib
import inspect
import json
from pathlib import Path

import segqa

BENCHMARK_JSON = Path(__file__).resolve().parents[1] / "BENCHMARK.json"


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


def test_traced_functions_resolve():
    # bench/run.py --trace 1 refuses a per-layer metric whose function is gone;
    # stage.* and trace.* metrics and <layer>.failures name no function.
    names = [m["name"] for m in json.loads(BENCHMARK_JSON.read_text())["per_layer"]]
    traced = [
        name.split(".")[:2]
        for name in names
        if not name.startswith(("stage.", "trace.")) and not name.endswith(".failures")
    ]
    assert traced
    missing = [
        f"{layer}.{attr}"
        for layer, attr in traced
        if not hasattr(importlib.import_module(f"segqa.{layer}"), attr)
    ]
    assert missing == []
