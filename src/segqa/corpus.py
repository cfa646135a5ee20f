"""Directory-layout conventions for batch processing.

A model directory holds per-organ probability channels named
``<case_id>_organ<code>.nii[.gz]``; label directories hold one
``<case_id>.nii[.gz]`` per case. A ``manifest.json`` in a model directory
overrides the naming convention:

    {"cases": {"case01": {"1": "some/file.nii.gz", "2": "..."}}}

Each command lists every model directory once: ``discover_cases`` checks the
listings against each other and returns one ``CorpusIndex`` that hands every
case its own channel paths, so loading a case reads only its files. Two files
for one input (``c1_organ1.nii`` beside ``c1_organ1.nii.gz``, ``organ01``
beside ``organ1``, manifest codes ``"1"`` and ``"01"``, ``c1.nii`` beside
``c1.nii.gz``) are an error naming both, as is a model directory given twice.

A case id, from a file name, a manifest or a sizes sidecar, is a plain name:
non-empty, with no ``/``, ``\\`` or ``..``.

Attention outputs for a case are the union mask, one mask per organ and a
sizes sidecar, all keyed by the case id. Every output is written to a temp
file and renamed into place, so a killed run leaves no truncated file.
"""

from __future__ import annotations

import csv
import json
import math
import os
import re
from dataclasses import asdict
from pathlib import Path
from typing import NamedTuple, Sequence

import numpy as np

from .detect import AttentionMap, DetectionConfig
from .nifti import open_replacing, read_volume, write_volume
from .volume import ChannelError, LabelVolume, PredictionSet, VolumeGrid, organ_names

CHANNEL_RE = re.compile(r"^(?P<case>.+)_organ(?P<code>\d+)\.nii(\.gz)?$")
LABEL_RE = re.compile(r"^(?P<case>.+)\.nii(\.gz)?$")
MANIFEST_NAME = "manifest.json"
MANIFEST_SHAPE = '{"cases": {case id: {organ code: channel path}}}'


class CorpusError(ValueError):
    """The on-disk layout does not match the expected convention."""


# One case's channels: per model directory, the directory (whose name is the
# model id) and the channel paths relative to it in code order. The relative
# paths are str and the directory is shared by every case: a Path per channel
# costs several times the bytes.
CaseChannels = tuple[tuple[Path, tuple[str, ...]], ...]


class CorpusIndex(NamedTuple):
    """Sorted case ids, the organ count and each case's channels, from one listing."""

    case_ids: list[str]
    organ_count: int
    members: dict[str, CaseChannels]


def _check_case_id(case_id: object, source: str | Path) -> None:
    # Case ids name output files and are joined onto input directories: none may escape.
    if not isinstance(case_id, str) or not case_id or any(p in case_id for p in ("/", "\\", "..")):
        raise CorpusError(f"{source}: case id {case_id!r} is empty or has '/', '\\' or '..'")


def find_channel_volumes(model_dir: str | Path) -> dict[str, dict[int, str]]:
    """Map case id -> organ code -> channel path relative to one model directory."""
    model_dir = Path(model_dir)
    if not model_dir.is_dir():
        raise CorpusError(f"{model_dir}: not a directory")

    manifest = model_dir / MANIFEST_NAME
    if manifest.is_file():
        listing = read_json(manifest)
        cases = listing.get("cases", {}) if isinstance(listing, dict) else None
        if not isinstance(cases, dict) or not all(isinstance(c, dict) for c in cases.values()):
            raise CorpusError(f"{manifest}: expected {MANIFEST_SHAPE}")
        out: dict[str, dict[int, str]] = {}
        for case_id, channels in cases.items():
            _check_case_id(case_id, manifest)
            by_code = out[case_id] = {}
            for code, rel in channels.items():
                if not code.isdecimal() or not isinstance(rel, str):
                    raise CorpusError(f"{manifest}: case {case_id!r}: expected {MANIFEST_SHAPE}, "
                                      f"got {code!r}: {rel!r}")
                if os.path.isabs(rel) or os.path.normpath(rel).split(os.sep)[0] == "..":
                    raise CorpusError(f"{manifest}: case {case_id!r}, organ {code}: channel path "
                                      f"{rel!r} is absolute or leaves {model_dir}")
                organ = int(code)
                if organ in by_code:  # "1" and "01"
                    raise CorpusError(f"{manifest}: case {case_id!r}, organ {organ} has two "
                                      f"files: {by_code[organ]} and {rel}")
                by_code[organ] = rel
        if not out:
            raise CorpusError(f"{manifest}: manifest lists no cases")
        return out

    # Names sort as str: the order of sorted(iterdir()) within one directory,
    # without comparing Path objects. A case id is checked at its first file,
    # the first of its files the check would fail on.
    found: dict[str, dict[int, str]] = {}
    for name in sorted(os.listdir(model_dir)):
        m = CHANNEL_RE.match(name)
        if m:
            case_id, code = m.group("case"), int(m.group("code"))
            if case_id not in found:
                _check_case_id(case_id, model_dir / name)
            by_code = found.setdefault(case_id, {})
            if code in by_code:  # c1_organ1.nii and c1_organ1.nii.gz, or organ01 and organ1
                raise CorpusError(f"{model_dir}: case {case_id!r}, organ {code} has two files: "
                                  f"{by_code[code]} and {name}")
            by_code[code] = name
    if not found:
        raise CorpusError(f"{model_dir}: no *_organ<code>.nii[.gz] channel files found")
    return found


def find_label_volumes(directory: str | Path) -> dict[str, Path]:
    """Map case id -> label file for a directory of <case_id>.nii[.gz] volumes."""
    directory = Path(directory)
    if not directory.is_dir():
        raise CorpusError(f"{directory}: not a directory")
    found: dict[str, Path] = {}
    for name in sorted(os.listdir(directory)):
        if CHANNEL_RE.match(name):
            continue
        m = LABEL_RE.match(name)
        if m:
            case_id, path = m.group("case"), directory / name
            _check_case_id(case_id, path)
            if case_id in found:  # c1.nii and c1.nii.gz
                raise CorpusError(f"case {case_id!r} has two label files: "
                                  f"{found[case_id]} and {path}")
            found[case_id] = path
    if not found:
        raise CorpusError(f"{directory}: no *.nii[.gz] label files found")
    return found


def discover_cases(model_dirs: Sequence[str | Path]) -> CorpusIndex:
    """List each model directory once and index every case's channels per model."""
    if not model_dirs:
        raise CorpusError("need at least one model directory")
    # One model counted twice would agree with itself wherever it is wrong.
    resolved: dict[Path, str | Path] = {}
    for model_dir in model_dirs:
        key = Path(model_dir).resolve()
        if key in resolved:
            raise CorpusError(f"model directory given twice: {resolved[key]} and {model_dir}")
        resolved[key] = model_dir
    per_model = [find_channel_volumes(d) for d in model_dirs]
    for model_dir, channels in zip(model_dirs, per_model):
        if channels.keys() != per_model[0].keys():
            diff = sorted(per_model[0].keys() ^ channels.keys())
            raise CorpusError(
                f"model directories disagree on cases (e.g. {diff[:5]}); "
                f"offending directory: {model_dir}"
            )
    case_ids = sorted(per_model[0])
    dirs = [Path(d) for d in model_dirs]
    organ_counts = set()
    members = {}
    for case_id in case_ids:
        entry = []
        for model_dir, channels in zip(dirs, per_model):
            by_code = channels[case_id]
            names = tuple(by_code.get(code) for code in range(1, len(by_code) + 1))
            if None in names:
                raise CorpusError(f"{model_dir}: case {case_id!r} channels must cover codes "
                                  f"{list(range(1, len(names) + 1))}, got {sorted(by_code)}")
            organ_counts.add(len(names))
            entry.append((model_dir, names))
        members[case_id] = tuple(entry)
    if len(organ_counts) != 1:
        raise CorpusError(f"inconsistent organ channel counts: {sorted(organ_counts)}")
    return CorpusIndex(case_ids, organ_counts.pop(), members)


def load_prediction_set(case_id: str, members: CaseChannels) -> PredictionSet:
    """Load one case from its index entry: each model's directory and channels.

    Channels are decoded one organ at a time and cropped to the organ's
    support box before the next organ is read, so K decoded channels are
    alive at a time.
    """
    dirs = [model_dir for model_dir, _ in members]
    by_organ = zip(*(names for _, names in members))
    try:
        return PredictionSet.from_channels(
            case_id,
            [d.name for d in dirs],
            ([read_volume(d / name) for d, name in zip(dirs, names)] for names in by_organ),
        )
    except ChannelError as exc:
        model_dir, names = members[exc.member]
        raise CorpusError(f"case {case_id!r}: {model_dir / names[exc.code - 1]}: {exc}") from exc


def read_label_grid(path: str | Path) -> VolumeGrid:
    """Read a label volume: integer-kind (uint8 or int16) with no value below 0."""
    grid = read_volume(path)
    v = grid.values
    if v.dtype == np.dtype(np.float32):
        raise CorpusError(f"{path}: label volumes must be integer-kind, got float32")
    if v.dtype == np.dtype(np.int16) and int(v.min()) < 0:
        raise CorpusError(f"{path}: label values must be >= 0, found {int(v.min())}")
    return grid


def load_label_volume(path: str | Path, organs: int) -> LabelVolume:
    """Read a label volume; a code above the organ count is an error naming the file."""
    grid = read_label_grid(path)
    try:
        return LabelVolume(grid, organs)
    except ValueError as exc:
        raise CorpusError(f"{path}: {exc}") from None


# -- attention output naming ---------------------------------------------------

def attention_union_path(out_dir: Path, case_id: str) -> Path:
    return out_dir / f"{case_id}_attention.nii.gz"


def attention_organ_path(out_dir: Path, case_id: str, code: int) -> Path:
    return out_dir / f"{case_id}_attention_organ{code}.nii.gz"


def sizes_path(out_dir: Path, case_id: str) -> Path:
    return out_dir / f"{case_id}_sizes.json"


def write_attention_outputs(out_dir: str | Path, amap: AttentionMap, cfg: DetectionConfig) -> None:
    """Persist union + per-organ masks as NIfTI and the sizes JSON sidecar."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    write_volume(amap.union_mask, attention_union_path(out_dir, amap.case_id))
    names = organ_names(len(amap.organ_crops))
    for code in range(1, len(names) + 1):
        write_volume(amap.organ_mask(code), attention_organ_path(out_dir, amap.case_id, code))
    sizes = {
        "case_id": amap.case_id,
        "organ_names": list(names),
        "per_organ_mm3": dict(zip(names, amap.per_organ_mm3)),
        "total_mm3": amap.total_mm3,
        "config": asdict(cfg),
    }
    write_json(sizes_path(out_dir, amap.case_id), sizes)


def _is_size(value: object) -> bool:
    # JSON numbers arrive as int or float; a bool is an int but no size, and NaN fails both tests.
    return type(value) in (int, float) and 0 <= value < math.inf


def read_sizes(attention_dir: str | Path) -> list[dict[str, object]]:
    """All *_sizes.json sidecars of an attention directory, sorted by case id.

    Every sidecar must carry the organ names and detection config of the
    first one, so the cases can share one ranking, report and campaign, and
    a case id that no other sidecar has. ``organ_names`` must name at least
    one organ. Its sizes must be finite numbers >= 0: ``total_mm3`` one,
    ``per_organ_mm3`` an object of them keyed by exactly the names in
    ``organ_names``.
    """
    attention_dir = Path(attention_dir)
    if not attention_dir.is_dir():
        raise CorpusError(f"{attention_dir}: not a directory")
    paths = sorted(attention_dir.glob("*_sizes.json"))
    sizes = []
    sources: dict[str, Path] = {}
    for path in paths:
        sizes.append(read_json(path))
        if not isinstance(sizes[-1], dict):
            raise CorpusError(f"{path}: expected a JSON object, got {sizes[-1]!r}")
        case_id = sizes[-1].get("case_id")
        _check_case_id(case_id, path)
        if case_id in sources:
            raise CorpusError(f"{path}: case id {case_id!r} is also in {sources[case_id]}")
        sources[case_id] = path
        if not isinstance(sizes[-1].get("config"), dict):
            raise CorpusError(f"{path}: field 'config' must be a JSON object, "
                              f"got {sizes[-1].get('config')!r}")
        for key in ("organ_names", "config"):
            if sizes[-1].get(key) != sizes[0].get(key):
                raise CorpusError(f"{path}: field {key!r} is {sizes[-1].get(key)!r}, "
                                  f"but {paths[0]} has {sizes[0].get(key)!r}")
        total, per_organ = sizes[-1].get("total_mm3"), sizes[-1].get("per_organ_mm3")
        if not _is_size(total):
            raise CorpusError(f"{path}: field 'total_mm3' must be a finite number >= 0, "
                              f"got {total!r}")
        if not isinstance(per_organ, dict) or not all(map(_is_size, per_organ.values())):
            raise CorpusError(f"{path}: field 'per_organ_mm3' must be an object of finite "
                              f"numbers >= 0, got {per_organ!r}")
        names = sizes[-1].get("organ_names")
        if not (isinstance(names, list) and names and all(isinstance(n, str) for n in names)):
            raise CorpusError(f"{path}: field 'organ_names' must be a non-empty list of "
                              f"strings, got {names!r}")
        if sorted(per_organ) != sorted(names):
            raise CorpusError(f"{path}: field 'per_organ_mm3' must have one key per name in "
                              f"'organ_names' {names!r}, got {sorted(per_organ)!r}")
    if not sizes:
        raise CorpusError(f"{attention_dir}: no *_sizes.json files found")
    return sorted(sizes, key=lambda s: s["case_id"])


# -- small serialization helpers ----------------------------------------------

def read_json(path: Path) -> object:
    """Parse one JSON file; text that is not UTF-8 JSON is an error naming the file."""
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except ValueError as exc:
        raise CorpusError(f"{path}: {exc}") from None


def write_json(path: str | Path, payload: object) -> None:
    text = json.dumps(payload, indent=2, sort_keys=True, ensure_ascii=False) + "\n"
    with open_replacing(path, "w", encoding="utf-8") as f:
        f.write(text)


def write_csv(path: str | Path, header: Sequence[str], rows: Sequence[Sequence[object]]) -> None:
    with open_replacing(path, "w", encoding="utf-8", newline="") as f:
        writer = csv.writer(f, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def read_ranking_csv(path: str | Path) -> list[dict[str, object]]:
    """Rows of a ranking CSV as dicts with numeric rank and total_mm3 (finite, >= 0)."""
    with open(path, newline="", encoding="utf-8") as f:
        reader = csv.DictReader(f)
        rows = list(reader)
    if not rows:
        raise CorpusError(f"{path}: empty ranking")
    for field in ("rank", "case_id", "total_mm3"):
        if field not in reader.fieldnames:
            raise CorpusError(f"{path}: header {reader.fieldnames} lacks field {field!r}")
    for n, row in enumerate(rows, start=1):
        if None in row or None in row.values():  # too many fields, or too few
            raise CorpusError(f"{path}: row {n}: expected exactly {reader.fieldnames}")
        _check_case_id(row["case_id"], f"{path}: row {n}")
        try:
            row["rank"] = int(row["rank"])
            row["total_mm3"] = float(row["total_mm3"])
        except ValueError as exc:
            raise CorpusError(f"{path}: row {n}: {exc}") from exc
        if not _is_size(row["total_mm3"]):
            raise CorpusError(f"{path}: case {row['case_id']!r}: field 'total_mm3' must be "
                              f"a finite number >= 0, got {row['total_mm3']!r}")
    return rows
