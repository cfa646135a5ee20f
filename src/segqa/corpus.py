"""Directory-layout conventions for batch processing.

A model directory holds per-organ probability channels named
``<case_id>_organ<code>.nii[.gz]``; label directories hold one
``<case_id>.nii[.gz]`` per case. A ``manifest.json`` in a model directory
overrides the naming convention:

    {"cases": {"case01": {"1": "some/file.nii.gz", "2": "..."}}}

Attention outputs for a case are the union mask, one mask per organ and a
sizes sidecar, all keyed by the case id.
"""

from __future__ import annotations

import csv
import json
import os
import re
from pathlib import Path
from typing import Sequence

import numpy as np

from .detect import AttentionMap, DetectionConfig
from .nifti import read_volume, write_volume
from .volume import (
    LabelVolume,
    OrganLabelMap,
    PredictionSet,
    ProbabilityRangeError,
    SoftPrediction,
    VolumeGrid,
)

CHANNEL_RE = re.compile(r"^(?P<case>.+)_organ(?P<code>\d+)\.nii(\.gz)?$")
LABEL_RE = re.compile(r"^(?P<case>.+)\.nii(\.gz)?$")
MANIFEST_NAME = "manifest.json"


class CorpusError(ValueError):
    """The on-disk layout does not match the expected convention."""


def find_channel_volumes(model_dir: str | Path) -> dict[str, dict[int, Path]]:
    """Map case id -> organ code -> channel file for one model directory."""
    model_dir = Path(model_dir)
    if not model_dir.is_dir():
        raise CorpusError(f"{model_dir}: not a directory")

    manifest = model_dir / MANIFEST_NAME
    if manifest.is_file():
        listing = json.loads(manifest.read_text(encoding="utf-8"))
        out: dict[str, dict[int, Path]] = {}
        for case_id, channels in listing.get("cases", {}).items():
            # Case ids name output files, and channel paths are read: neither may escape.
            if not case_id or any(part in case_id for part in ("/", "\\", "..")):
                raise CorpusError(f"{manifest}: case id {case_id!r} is empty or has '/', '\\' or '..'")
            for code, rel in channels.items():
                if os.path.isabs(rel) or os.path.normpath(rel).split(os.sep)[0] == "..":
                    raise CorpusError(f"{manifest}: case {case_id!r}, organ {code}: channel path "
                                      f"{rel!r} is absolute or leaves {model_dir}")
            out[case_id] = {int(code): model_dir / rel for code, rel in channels.items()}
        if not out:
            raise CorpusError(f"{manifest}: manifest lists no cases")
        return out

    found: dict[str, dict[int, Path]] = {}
    for path in sorted(model_dir.iterdir()):
        m = CHANNEL_RE.match(path.name)
        if m:
            found.setdefault(m.group("case"), {})[int(m.group("code"))] = path
    if not found:
        raise CorpusError(f"{model_dir}: no *_organ<code>.nii[.gz] channel files found")
    return found


def find_label_volumes(directory: str | Path) -> dict[str, Path]:
    """Map case id -> label file for a directory of <case_id>.nii[.gz] volumes."""
    directory = Path(directory)
    if not directory.is_dir():
        raise CorpusError(f"{directory}: not a directory")
    found: dict[str, Path] = {}
    for path in sorted(directory.iterdir()):
        if CHANNEL_RE.match(path.name):
            continue
        m = LABEL_RE.match(path.name)
        if m:
            found[m.group("case")] = path
    if not found:
        raise CorpusError(f"{directory}: no *.nii[.gz] label files found")
    return found


def _check_codes(case_id: str, model_dir: Path, codes: Sequence[int]) -> int:
    expected = list(range(1, len(codes) + 1))
    if sorted(codes) != expected:
        raise CorpusError(
            f"{model_dir}: case {case_id!r} channels must cover codes {expected}, "
            f"got {sorted(codes)}"
        )
    return len(codes)


def discover_cases(model_dirs: Sequence[str | Path]) -> tuple[list[str], int]:
    """Shared sorted case ids and organ count across model directories."""
    if not model_dirs:
        raise CorpusError("need at least one model directory")
    per_model = [find_channel_volumes(d) for d in model_dirs]
    case_sets = [set(m) for m in per_model]
    common = case_sets[0]
    for i, s in enumerate(case_sets[1:], start=1):
        if s != common:
            diff = sorted(common ^ s)
            raise CorpusError(
                f"model directories disagree on cases (e.g. {diff[:5]}); "
                f"offending directory: {model_dirs[i]}"
            )
    organ_counts = set()
    for model_dir, channels in zip(model_dirs, per_model):
        for case_id, by_code in channels.items():
            organ_counts.add(_check_codes(case_id, Path(model_dir), list(by_code)))
    if len(organ_counts) != 1:
        raise CorpusError(f"inconsistent organ channel counts: {sorted(organ_counts)}")
    return sorted(common), organ_counts.pop()


def load_prediction_set(
    case_id: str, model_dirs: Sequence[str | Path]
) -> PredictionSet:
    """Load one case's channels from every model directory."""
    members = []
    for model_dir in model_dirs:
        model_dir = Path(model_dir)
        channels_by_code = find_channel_volumes(model_dir).get(case_id)
        if not channels_by_code:
            raise CorpusError(f"{model_dir}: no channels for case {case_id!r}")
        _check_codes(case_id, model_dir, list(channels_by_code))
        channels = tuple(
            read_volume(channels_by_code[code]) for code in sorted(channels_by_code)
        )
        try:
            members.append(SoftPrediction(model_id=model_dir.name, channels=channels))
        except ProbabilityRangeError as exc:
            raise CorpusError(f"case {case_id!r}: {channels_by_code[exc.code]}: {exc}") from exc
    return PredictionSet(case_id=case_id, members=tuple(members))


def load_label_volume(path: str | Path, labels: OrganLabelMap) -> LabelVolume:
    grid = read_volume(path)
    if grid.values.dtype == np.dtype(np.float32):
        raise CorpusError(f"{path}: label volumes must be integer-kind, got float32")
    return LabelVolume(grid, labels)


# -- attention output naming ---------------------------------------------------

def attention_union_path(out_dir: Path, case_id: str) -> Path:
    return out_dir / f"{case_id}_attention.nii.gz"


def attention_organ_path(out_dir: Path, case_id: str, code: int) -> Path:
    return out_dir / f"{case_id}_attention_organ{code}.nii.gz"


def sizes_path(out_dir: Path, case_id: str) -> Path:
    return out_dir / f"{case_id}_sizes.json"


def write_attention_outputs(
    out_dir: str | Path,
    amap: AttentionMap,
    labels: OrganLabelMap,
    cfg: DetectionConfig,
) -> dict[str, object]:
    """Persist union + per-organ masks as NIfTI and the sizes JSON sidecar."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    write_volume(amap.union_mask, attention_union_path(out_dir, amap.case_id))
    for code in labels.codes:
        write_volume(
            amap.organ_mask(code), attention_organ_path(out_dir, amap.case_id, code)
        )
    sizes = {
        "case_id": amap.case_id,
        "organ_names": list(labels.names),
        "per_organ_mm3": {
            labels.name_of(code): amap.per_organ_mm3[code - 1] for code in labels.codes
        },
        "total_mm3": amap.total_mm3,
        "config": cfg.as_dict(),
    }
    write_json(sizes_path(out_dir, amap.case_id), sizes)
    return sizes


def read_sizes(attention_dir: str | Path) -> list[dict[str, object]]:
    """All *_sizes.json sidecars of an attention directory, sorted by case id."""
    attention_dir = Path(attention_dir)
    if not attention_dir.is_dir():
        raise CorpusError(f"{attention_dir}: not a directory")
    sizes = []
    for path in sorted(attention_dir.glob("*_sizes.json")):
        sizes.append(json.loads(path.read_text(encoding="utf-8")))
    if not sizes:
        raise CorpusError(f"{attention_dir}: no *_sizes.json files found")
    return sorted(sizes, key=lambda s: s["case_id"])


def load_attention_masks(
    attention_dir: str | Path, case_id: str, organ_count: int
) -> list[VolumeGrid]:
    attention_dir = Path(attention_dir)
    return [
        read_volume(attention_organ_path(attention_dir, case_id, code))
        for code in range(1, organ_count + 1)
    ]


# -- small serialization helpers ----------------------------------------------

def write_json(path: str | Path, payload: object) -> None:
    text = json.dumps(payload, indent=2, sort_keys=True, ensure_ascii=False) + "\n"
    Path(path).write_text(text, encoding="utf-8")


def write_csv(path: str | Path, header: Sequence[str], rows: Sequence[Sequence[object]]) -> None:
    with open(path, "w", encoding="utf-8", newline="") as f:
        writer = csv.writer(f, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def read_ranking_csv(path: str | Path) -> list[dict[str, object]]:
    """Rows of a ranking CSV as dicts with numeric rank and total_mm3."""
    with open(path, newline="", encoding="utf-8") as f:
        rows = list(csv.DictReader(f))
    if not rows:
        raise CorpusError(f"{path}: empty ranking")
    for row in rows:
        row["rank"] = int(row["rank"])
        row["total_mm3"] = float(row["total_mm3"])
    return rows
