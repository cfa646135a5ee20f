"""Span tracing of the segqa layers from outside the program.

Every public function of each layer module is wrapped at every place a
module binds it: its own module globals, each ``from .x import f`` in
another module, and the package namespace. Validation in the ``volume``
data classes is traced through their ``__post_init__``. A span records its
name, start, end, parent span and case id; spans stay in memory and are
written out once, at the end of the run.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import time
import tracemalloc
from collections import defaultdict
from pathlib import Path

LAYERS = ("cli", "corpus", "nifti", "volume", "detect", "ensemble", "regions", "campaign")
# Functions whose peak traced allocation is recorded (tracemalloc slows them).
PEAK_ALLOC = {"detect.build_attention", "ensemble.ensemble_label"}


def _size(path: object) -> int:
    return os.path.getsize(path) if isinstance(path, (str, os.PathLike)) else 0


def _read_volume(args, kwargs, result) -> dict[str, float]:
    src = args[0] if args else kwargs["source"]
    size = len(src) if isinstance(src, (bytes, bytearray)) else _size(src)
    return {"bytes_in": size, "bytes_out": result.values.nbytes}


def _write_volume(args, kwargs, result) -> dict[str, float]:
    return {"bytes_out": _size(args[1] if len(args) > 1 else kwargs["path"])}


def _reduction(args, kwargs, result) -> dict[str, float]:
    return {"bytes": sum(a.nbytes for a in (args[0] if args else kwargs["arrays"]))}


def _components(args, kwargs, result) -> dict[str, float]:
    return {"voxels": (args[0] if args else kwargs["mask"]).values.size}


def _save_state(args, kwargs, result) -> dict[str, float]:
    return {"bytes": _size(args[1] if len(args) > 1 else kwargs["path"])}


# Per-call counters beyond calls and seconds, keyed by span name.
PROBES = {
    "nifti.read_volume": _read_volume,
    "nifti.write_volume": _write_volume,
    "volume.stable_mean": _reduction,
    "volume.stable_mean_std": _reduction,
    "regions.connected_components": _components,
    "campaign.save_state": _save_state,
}


def _case_getter(fn):
    """Function returning the case id a call works on, or None."""
    params = list(inspect.signature(fn).parameters)
    index = params.index("case_id") if "case_id" in params else None

    def get(args, kwargs):
        if "case_id" in kwargs:
            return kwargs["case_id"]
        if index is not None and index < len(args):
            return args[index]
        for a in args:
            cid = getattr(a, "case_id", None)
            if isinstance(cid, str):
                return cid
        return None

    return get


class Tracer:
    """Collects spans while installed; ``uninstall`` restores the originals."""

    def __init__(self) -> None:
        # One span list per install(); a span is
        # [id, parent, name, start, end, case, extra-or-None, failed].
        self.runs: list[list[list]] = []
        self.spans: list[list] = []
        self._stack: list[list] = []
        self._patched: list[tuple[object, str, object]] = []
        self._seen_failures: set[int] = set()
        self.names: set[str] = set()

    def _wrap(self, name: str, fn):
        probe = PROBES.get(name)
        case_of = _case_getter(fn)
        peak = name in PEAK_ALLOC
        self.names.add(name)
        spans, stack, seen = self.spans, self._stack, self._seen_failures

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            case = case_of(args, kwargs)
            if case is None and parent is not None:
                case = parent[5]
            span = [len(spans), parent[0] if parent else None, name, 0.0, 0.0, case, None, False]
            spans.append(span)
            stack.append(span)
            if peak:
                tracemalloc.start()
            span[3] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span[4] = time.perf_counter()
                if id(exc) not in seen:  # count a failure once, where it is raised
                    seen.add(id(exc))
                    span[7] = True
                raise
            else:
                span[4] = time.perf_counter()
                if probe is not None:
                    span[6] = probe(args, kwargs, result)
                return result
            finally:
                if peak:
                    extra = span[6] or {}
                    extra["peak_alloc_mb"] = tracemalloc.get_traced_memory()[1] / 2**20
                    span[6] = extra
                    tracemalloc.stop()
                stack.pop()

        return traced

    def install(self) -> None:
        """Start a new span list and patch every binding of the layer functions."""
        self.spans = []
        self.runs.append(self.spans)
        self._seen_failures.clear()
        modules = [importlib.import_module(f"segqa.{layer}") for layer in LAYERS]
        package = importlib.import_module("segqa")
        wrappers: dict[int, object] = {}
        for mod in modules:
            layer = mod.__name__.rsplit(".", 1)[1]
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    wrappers[id(obj)] = self._wrap(f"{layer}.{attr}", obj)
                elif layer == "volume" and inspect.isclass(obj) and "__post_init__" in vars(obj):
                    original = vars(obj)["__post_init__"]
                    self._patched.append((obj, "__post_init__", original))
                    setattr(obj, "__post_init__", self._wrap(f"volume.{attr}", original))
        for mod in (*modules, package):
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and id(obj) in wrappers:
                    self._patched.append((mod, attr, obj))
                    setattr(mod, attr, wrappers[id(obj)])

    def uninstall(self) -> None:
        for target, attr, original in reversed(self._patched):
            setattr(target, attr, original)
        self._patched.clear()

    def write(self, path: Path) -> None:
        """All spans as JSON lines; `run` numbers the install() they belong to."""
        keys = ("id", "parent", "name", "start", "end", "case", "extra", "failed")
        with open(path, "w", encoding="utf-8") as f:
            for run, spans in enumerate(self.runs):
                for span in spans:
                    f.write(json.dumps({"run": run, **dict(zip(keys, span))}) + "\n")


def layer_stats(spans: list[list]) -> dict[str, float]:
    """Per span name: calls, s (outermost calls), self_s and probe counters.

    Self time is a span's duration minus the time of its direct children,
    which never overlap in a single-threaded run. Failures are counted per
    layer as ``<layer>.failures``.
    """
    child_time: dict[int, float] = defaultdict(float)
    for s in spans:
        if s[1] is not None:
            child_time[s[1]] += s[4] - s[3]
    stats: dict[str, float] = defaultdict(float)
    for s in spans:
        sid, parent, name, start, end, _, extra, failed = s
        stats[f"{name}.calls"] += 1
        stats[f"{name}.self_s"] += (end - start) - child_time[sid]
        if not _has_ancestor(spans, parent, name):
            stats[f"{name}.s"] += end - start
        for key, value in (extra or {}).items():
            if key == "peak_alloc_mb":
                stats[f"{name}.{key}"] = max(stats[f"{name}.{key}"], value)
            else:
                stats[f"{name}.{key}"] += value
        if failed:
            stats[f"{name.split('.', 1)[0]}.failures"] += 1
    return dict(stats)


def _has_ancestor(spans: list[list], parent: int | None, name: str) -> bool:
    while parent is not None:
        span = spans[parent]  # a span's id is its index
        if span[2] == name:
            return True
        parent = span[1]
    return False
