"""Connected components, benchmark error regions and component-wise metrics.

Attention maps are scored against the symmetric difference between pseudo
labels and ground truth: each error component should be touched by the
attention map (sensitivity) and each attention component should touch a real
error (precision). Metrics with a zero denominator are reported as undefined
(None / "undefined"), never coerced to 0 or 1, so averages cover only organs
where the metric means something.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Iterable, Mapping, Sequence

import numpy as np
from scipy import ndimage

from .volume import (
    AlignmentError,
    LabelVolume,
    VolumeGrid,
    _require_binary,
    require_aligned,
    support_box,
)

_STRUCTURES = {
    6: ndimage.generate_binary_structure(3, 1),
    18: ndimage.generate_binary_structure(3, 2),
    26: ndimage.generate_binary_structure(3, 3),
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
    if connectivity not in _STRUCTURES:
        raise ValueError(f"connectivity must be one of {tuple(_STRUCTURES)}, got {connectivity}")
    return ndimage.label(_require_binary(mask, "connected_components"), _STRUCTURES[connectivity])


def remove_small_components(
    mask: VolumeGrid, min_voxels: int, connectivity: int = 26
) -> VolumeGrid:
    """Drop connected components with fewer than min_voxels voxels."""
    if min_voxels <= 1:
        return mask
    labels, _ = connected_components(mask, connectivity)
    keep = np.bincount(labels.ravel()) >= min_voxels
    keep[0] = False
    return mask.with_values(keep[labels].astype(np.uint8))


def error_region(pseudo: VolumeGrid, truth: VolumeGrid) -> VolumeGrid:
    """Voxelwise symmetric difference of two masks (false positives + negatives)."""
    require_aligned(pseudo, truth, context="pseudo/truth masks")
    diff = (pseudo.values != 0) ^ (truth.values != 0)
    return pseudo.with_values(diff.astype(np.uint8))


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


def dsc(a: VolumeGrid, b: VolumeGrid) -> float:
    """Dice similarity 2|A&B| / (|A|+|B|); two empty masks score 1.0.

    The both-empty convention rewards correctly predicted absence; it is
    echoed into report provenance because conventions differ between tools.
    """
    require_aligned(a, b, context="masks")
    va = a.values != 0
    vb = b.values != 0
    na = int(np.count_nonzero(va))
    nb = int(np.count_nonzero(vb))
    if na + nb == 0:
        return 1.0
    inter = int(np.count_nonzero(va & vb))
    return 2.0 * inter / (na + nb)


def dsc_matrix(labelings: Sequence[LabelVolume], organ_code: int) -> np.ndarray:
    """Pairwise Dice matrix of one organ across M labelings (symmetric, unit diagonal)."""
    if len(labelings) < 2:
        raise ValueError("dsc_matrix: need at least two labelings")
    masks = [lv.organ_mask(organ_code) for lv in labelings]
    require_aligned(*masks, context="labelings")
    m = len(masks)
    out = np.ones((m, m), dtype=np.float64)
    for i in range(m):
        for j in range(i + 1, m):
            value = dsc(masks[i], masks[j])
            out[i, j] = value
            out[j, i] = value
    return out


def _organ_dscs(a: LabelVolume, b: LabelVolume) -> list[float]:
    """Dice of every organ code of a's map, in code order, as :func:`dsc` scores its masks.

    The counts come from one joint histogram of the label pairs: row c counts
    ``a == c``, column c counts ``b == c`` and the diagonal counts both. The
    histogram holds (C + 1)² counts for C organs.
    """
    require_aligned(a.grid, b.grid, context="masks")
    n = len(a.labels) + 1
    pairs = a.grid.values.astype(np.intp) * n + b.grid.values
    joint = np.bincount(pairs.ravel(), minlength=n * n).reshape(n, n)
    both = joint.diagonal().tolist()
    sizes = (joint.sum(axis=1) + joint.sum(axis=0)).tolist()
    return [2.0 * both[c] / sizes[c] if sizes[c] else 1.0 for c in a.labels.codes]


def mean_label_dsc(a: LabelVolume, b: LabelVolume) -> float:
    """Mean per-organ Dice between two label volumes over the full label map."""
    if a.labels.codes != b.labels.codes:
        raise ValueError("label volumes use different organ maps")
    return float(np.mean(_organ_dscs(a, b)))


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
    pred_masks: Sequence[tuple[str, VolumeGrid]], connectivity: int = 26
) -> FalsePositiveScan:
    """Count predictions on cases known to contain no target structure.

    A case is flagged as soon as its mask is non-empty; the component count
    totals the separate blobs across the flagged cases.
    """
    if not pred_masks:
        raise ValueError("false_positive_scan: empty case list")
    per_case = tuple(
        CaseComponentCount(case_id, connected_components(mask, connectivity)[1])
        for case_id, mask in pred_masks
    )
    return FalsePositiveScan(
        total_cases=len(pred_masks),
        flagged_case_count=sum(1 for c in per_case if c.component_count),
        total_component_count=sum(c.component_count for c in per_case),
        per_case=per_case,
    )


def evaluate_case(
    case_id: str,
    attention_masks: Iterable[VolumeGrid],
    pseudo: LabelVolume,
    truth: LabelVolume,
    connectivity: int = 26,
) -> dict[str, OrganMetrics]:
    """Score one case's per-organ attention masks against the error benchmark.

    attention_masks yields the mask of each organ code of the pseudo label
    map in code order; each is taken only when its organ is scored. The
    metrics are keyed by organ name, in code order.
    """
    if pseudo.labels.codes != truth.labels.codes:
        raise AlignmentError("pseudo and truth label volumes use different organ maps")
    masks = iter(attention_masks)
    organs: dict[str, OrganMetrics] = {}
    for (code, name), organ_dsc in zip(pseudo.labels.entries, _organ_dscs(pseudo, truth)):
        try:  # a mask that fails to load, or a missing mask, names the case
            attention = next(masks)
        except StopIteration:
            raise ValueError(f"case {case_id!r}: attention masks: fewer than organs") from None
        except ValueError as exc:
            raise ValueError(f"case {case_id!r}: attention masks: {exc}") from exc
        benchmark = error_region(pseudo.organ_mask(code), truth.organ_mask(code))
        sensitivity, precision, counts = componentwise_metrics(attention, benchmark, connectivity)
        del attention, benchmark  # freed before the next read (a zip's tuple would keep the mask)
        organs[name] = OrganMetrics(
            sensitivity=sensitivity, precision=precision, dsc=organ_dsc, **vars(counts)
        )
    if next(masks, None) is not None:
        raise ValueError(f"case {case_id!r}: attention masks: more than organs")
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
