"""Connected components, benchmark error regions and component-wise metrics.

Attention maps are scored against each organ's error region, the symmetric
difference of its pseudo and truth masks, which :func:`organ_error` builds
with the organ's Dice from one pair of boolean masks: each error component
should be touched by the attention map (sensitivity) and each attention
component should touch a real error (precision). Metrics with a zero
denominator are reported as undefined (None / "undefined"), never coerced to
0 or 1, so averages cover only organs where the metric means something.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Callable, Iterable, Mapping, Sequence

import numpy as np

from .volume import (
    AlignmentError,
    LabelVolume,
    VolumeGrid,
    _require_binary,
    organ_names,
    require_aligned,
    support_box,
)

# ndimage.generate_binary_structure(3, r): the offsets within city-block distance r.
_STRUCTURES = {
    n: np.abs(np.indices((3, 3, 3)) - 1).sum(axis=0) <= r
    for n, r in ((6, 1), (18, 2), (26, 3))
}


@dataclass(frozen=True)
class ConfusionCounts:
    tp: int
    fp: int
    fn: int


@dataclass(frozen=True)
class OrganMetrics:
    """One organ's detection quality; the field order is the metrics CSV's column order."""

    sensitivity: float | None
    precision: float | None
    tp: int
    fp: int
    fn: int
    dsc: float


def connected_components(mask: VolumeGrid, connectivity: int = 26) -> tuple[np.ndarray, int]:
    """Label the connected regions of a binary mask: (int32 labels, count).

    Ids run from 1 to count; their order is not promised.
    """
    from scipy import ndimage  # here: its ~0.3 s, ~27 MB load would slow every command

    if connectivity not in _STRUCTURES:
        raise ValueError(f"connectivity must be one of {tuple(_STRUCTURES)}, got {connectivity}")
    # The transpose has the same components (each structure is symmetric in the
    # axes) and, for an x-fastest mask, is C order, which ndimage.label scans fastest.
    values = _require_binary(mask, "connected_components").T
    labels, count = ndimage.label(values, _STRUCTURES[connectivity])
    return labels.T, count


def remove_small_components(
    mask: VolumeGrid, min_voxels: int, connectivity: int = 26
) -> VolumeGrid:
    """Drop connected components with fewer than min_voxels voxels."""
    if min_voxels <= 1:
        return mask
    labels, _ = connected_components(mask, connectivity)
    keep = np.bincount(labels.ravel("K")) >= min_voxels
    keep[0] = False
    return mask.with_values(keep[labels].astype(np.uint8))


def componentwise_metrics(
    attention: VolumeGrid,
    benchmark_error: VolumeGrid,
    connectivity: int = 26,
) -> tuple[float | None, float | None, ConfusionCounts]:
    """Component-level sensitivity and precision of an attention mask.

    A benchmark-error component counts as detected (TP) if any of its voxels
    is attended; an attention component counts as useful if it touches any
    benchmark-error voxel. Zero-denominator metrics come back as None.
    """
    require_aligned(attention, benchmark_error, context="attention/benchmark masks")
    # The box of attention | error holds every nonzero voxel, so labeling the
    # crops finds every component and validates every value that could fail;
    # the counts below do not depend on id order.
    box = support_box([attention.values, benchmark_error.values])
    (att_labels, n_att), (err_labels, n_err) = (
        connected_components(m.with_values(m.values[box]), connectivity)
        for m in (attention, benchmark_error)
    )
    both = (att_labels != 0) & (err_labels != 0)
    tp = np.unique(err_labels[both]).size
    useful = np.unique(att_labels[both]).size

    sensitivity = tp / n_err if n_err else None
    precision = useful / n_att if n_att else None
    return sensitivity, precision, ConfusionCounts(tp=tp, fp=n_att - useful, fn=n_err - tp)


def _xor_dice(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, float]:
    """XOR boolean mask b into boolean mask a; return a, now A^B, and the Dice of A and B.

    2|A&B| = |A| + |B| - |A^B| in integers, so this is 2|A&B| / (|A|+|B|) bit
    for bit; two empty masks score 1.0.
    """
    sizes = int(np.count_nonzero(a)) + int(np.count_nonzero(b))
    a ^= b
    return a, (sizes - int(np.count_nonzero(a))) / sizes if sizes else 1.0


def dsc(a: VolumeGrid, b: VolumeGrid) -> float:
    """Dice similarity 2|A&B| / (|A|+|B|); two empty masks score 1.0.

    The both-empty convention rewards correctly predicted absence; it is
    echoed into report provenance because conventions differ between tools.
    """
    require_aligned(a, b, context="masks")
    return _xor_dice(a.values != 0, b.values != 0)[1]


def dsc_matrix(masks: Sequence[VolumeGrid]) -> np.ndarray:
    """Pairwise Dice matrix of M masks (symmetric, unit diagonal); nonzero is foreground."""
    if len(masks) < 2:
        raise ValueError("dsc_matrix: need at least two masks")
    require_aligned(*masks, context="masks")
    hits = [mask.values != 0 for mask in masks]
    m = len(hits)
    out = np.ones((m, m), dtype=np.float64)
    for i in range(m):
        for j in range(i + 1, m):
            out[i, j] = out[j, i] = _xor_dice(hits[i].copy(), hits[j])[1]
    return out


def organ_error(pseudo: LabelVolume, truth: LabelVolume, code: int) -> tuple[VolumeGrid, float]:
    """One organ's error region (pseudo XOR truth mask, uint8) and its Dice."""
    require_aligned(pseudo.grid, truth.grid, context="pseudo/truth labels")
    region, organ_dsc = _xor_dice(pseudo.grid.values == code, truth.grid.values == code)
    return pseudo.grid.with_values(region.view(np.uint8)), organ_dsc


def mean_label_dsc(a: LabelVolume, b: LabelVolume) -> float:
    """Mean per-organ Dice between two label volumes over every organ code."""
    if a.organs != b.organs:
        raise ValueError("label volumes have different organ counts")
    require_aligned(a.grid, b.grid, context="label volumes")
    va, vb = a.grid.values, b.grid.values
    return float(np.mean([_xor_dice(va == code, vb == code)[1] for code in range(1, a.organs + 1)]))


@dataclass(frozen=True)
class CaseComponentCount:
    case_id: str
    component_count: int


@dataclass(frozen=True)
class FalsePositiveScan:
    """Per-case false-positive inventory over known-negative volumes."""

    total_cases: int
    flagged_case_count: int
    total_component_count: int
    per_case: tuple[CaseComponentCount, ...]

    @property
    def fpr(self) -> float:
        return self.flagged_case_count / self.total_cases


def false_positive_scan(
    pred_masks: Iterable[tuple[str, VolumeGrid]], connectivity: int = 26
) -> FalsePositiveScan:
    """Count predictions on cases known to contain no target structure.

    A case is flagged as soon as its mask is non-empty; the component count
    totals the separate blobs across the flagged cases. Each mask is counted
    as it arrives and dropped before the next is drawn, so a generator that
    loads masks one by one holds one at a time.
    """
    per_case = []
    for case_id, mask in pred_masks:
        per_case.append(CaseComponentCount(case_id, connected_components(mask, connectivity)[1]))
        del mask
    if not per_case:
        raise ValueError("false_positive_scan: empty case list")
    return FalsePositiveScan(
        total_cases=len(per_case),
        flagged_case_count=sum(1 for c in per_case if c.component_count),
        total_component_count=sum(c.component_count for c in per_case),
        per_case=tuple(per_case),
    )


def evaluate_case(
    case_id: str,
    read_mask: Callable[[int], VolumeGrid],
    pseudo: LabelVolume,
    truth: LabelVolume,
    connectivity: int = 26,
) -> dict[str, OrganMetrics]:
    """Score one case's per-organ attention masks against the error benchmark.

    read_mask(code) returns the attention mask of one organ code of the pseudo
    labels; it is called as that organ is scored, in code order. The metrics
    are keyed by organ name (:func:`organ_names`), in code order.
    """
    if pseudo.organs != truth.organs:
        raise AlignmentError("pseudo and truth label volumes have different organ counts")
    organs: dict[str, OrganMetrics] = {}
    for code, name in enumerate(organ_names(pseudo.organs), start=1):
        benchmark, organ_dsc = organ_error(pseudo, truth, code)
        # A mask that fails to load, lies on another grid or is not binary names
        # the case and organ; componentwise_metrics checks the values as it labels them.
        try:
            attention = read_mask(code)
            require_aligned(pseudo.grid, attention, context="labels/attention mask")
            sensitivity, precision, counts = componentwise_metrics(
                attention, benchmark, connectivity
            )
        except ValueError as exc:
            raise ValueError(f"case {case_id!r}, organ {name!r}: attention mask: {exc}") from exc
        del attention, benchmark  # freed before the next read
        organs[name] = OrganMetrics(
            sensitivity=sensitivity, precision=precision, dsc=organ_dsc, **vars(counts)
        )
    return organs


METRICS_CSV_HEADER = ("case_id", "organ", *(f.name for f in fields(OrganMetrics)))


def metrics_csv_rows(cases: Mapping[str, Mapping[str, OrganMetrics]]) -> list[list[str]]:
    """One row per (case, organ) under METRICS_CSV_HEADER; undefined metrics spelled out."""
    return [
        [case_id, organ, *("undefined" if v is None else repr(v) for v in vars(m).values())]
        for case_id, organs in cases.items()
        for organ, m in organs.items()
    ]


def metrics_json_dict(
    cases: Mapping[str, Mapping[str, OrganMetrics]], provenance: Mapping[str, object]
) -> dict[str, object]:
    """JSON-ready structure with per-case detail and per-organ means over defined values."""
    summary: dict[str, dict[str, float | None]] = {}
    for organ in dict.fromkeys(organ for organs in cases.values() for organ in organs):
        for key in ("sensitivity", "precision", "dsc"):
            values = [
                getattr(organs[organ], key)
                for organs in cases.values()
                if organ in organs and getattr(organs[organ], key) is not None
            ]
            summary.setdefault(organ, {})[key] = (
                float(np.mean(values)) if values else None
            )
    return {
        "cases": {
            case_id: {organ: vars(m) for organ, m in organs.items()}
            for case_id, organs in cases.items()
        },
        "summary": summary,
        "provenance": dict(provenance),
    }
