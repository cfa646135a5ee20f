"""Connected components, benchmark error regions and component-wise metrics.

Attention maps are scored against the symmetric difference between pseudo
labels and ground truth: each error component should be touched by the
attention map (sensitivity) and each attention component should touch a real
error (precision). Metrics with a zero denominator are reported as undefined
(None / "undefined"), never coerced to 0 or 1, so averages cover only organs
where the metric means something.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np
from scipy import ndimage

from .volume import (
    AlignmentError,
    LabelVolume,
    VolumeGrid,
    _require_binary,
    require_aligned,
)

CONNECTIVITIES = (6, 18, 26)

_STRUCTURES = {
    6: ndimage.generate_binary_structure(3, 1),
    18: ndimage.generate_binary_structure(3, 2),
    26: ndimage.generate_binary_structure(3, 3),
}


@dataclass(frozen=True)
class Component:
    """One connected region of a binary mask."""

    id: int
    voxel_count: int
    size_mm3: float
    bbox: tuple[tuple[int, int, int], tuple[int, int, int]]  # inclusive min, max
    centroid: tuple[float, float, float]  # voxel coordinates


@dataclass(frozen=True)
class ConfusionCounts:
    tp: int
    fp: int
    fn: int


@dataclass(frozen=True)
class OrganMetrics:
    sensitivity: float | None
    precision: float | None
    counts: ConfusionCounts
    dsc: float


@dataclass(frozen=True)
class MetricsReport:
    """Per-organ detection quality for one case, plus provenance for replay."""

    case_id: str
    organs: dict[str, OrganMetrics]
    provenance: dict[str, object]


def _structure(connectivity: int) -> np.ndarray:
    if connectivity not in CONNECTIVITIES:
        raise ValueError(f"connectivity must be one of {CONNECTIVITIES}, got {connectivity}")
    return _STRUCTURES[connectivity]


def connected_components(
    mask: VolumeGrid, connectivity: int = 26
) -> tuple[list[Component], np.ndarray]:
    """Label the connected regions of a binary mask.

    Returns the components plus an int32 label volume whose ids match them.
    Ids are assigned in ascending order of each component's first voxel in
    x-fastest scan order, which makes the labeling deterministic. The label
    pass numbers components in order of first visit in C order, where the
    last axis is fastest; on the transposed view that axis is x, and the
    connectivity structures are symmetric under transposition, so labeling
    ``v.T`` and transposing back gives exactly the x-fastest ids.
    """
    structure = _structure(connectivity)
    v = _require_binary(mask, "connected_components") != 0
    labels_t, n = ndimage.label(v.T, structure=structure)
    labels = labels_t.T
    counts = np.bincount(labels_t.ravel(), minlength=n + 1)[1:]
    slices = ndimage.find_objects(labels)
    centroids = ndimage.center_of_mass(v, labels=labels, index=np.arange(1, n + 1))
    components = [
        Component(
            id=i,
            voxel_count=int(count),
            size_mm3=float(count) * mask.voxel_volume_mm3,
            bbox=(tuple(s.start for s in sl), tuple(s.stop - 1 for s in sl)),
            centroid=tuple(float(x) for x in centroid),
        )
        for i, (count, sl, centroid) in enumerate(zip(counts, slices, centroids), start=1)
    ]
    return components, labels


def remove_small_components(
    mask: VolumeGrid, min_voxels: int, connectivity: int = 26
) -> VolumeGrid:
    """Drop connected components with fewer than min_voxels voxels."""
    if min_voxels <= 1:
        return mask
    structure = _structure(connectivity)
    labels, _ = ndimage.label(_require_binary(mask, "remove_small_components"), structure)
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
    structure = _structure(connectivity)
    att = _require_binary(attention, "componentwise_metrics") != 0
    err = _require_binary(benchmark_error, "componentwise_metrics") != 0

    # Cropping to the box of att | err keeps every component; the counts
    # below do not depend on id order.
    boxes = ndimage.find_objects((att | err).view(np.uint8))
    if not boxes:
        return None, None, ConfusionCounts(tp=0, fp=0, fn=0)
    att, err = att[boxes[0]], err[boxes[0]]
    att_labels, n_att = ndimage.label(att, structure)
    err_labels, n_err = ndimage.label(err, structure)
    both = att & err
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


def mean_label_dsc(a: LabelVolume, b: LabelVolume) -> float:
    """Mean per-organ Dice between two label volumes over the full label map."""
    if a.labels.codes != b.labels.codes:
        raise ValueError("label volumes use different organ maps")
    scores = [dsc(a.organ_mask(code), b.organ_mask(code)) for code in a.labels.codes]
    return float(np.mean(scores))


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
    structure = _structure(connectivity)
    per_case = tuple(
        CaseComponentCount(
            case_id, ndimage.label(_require_binary(mask, "false_positive_scan"), structure)[1]
        )
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
    attention_masks: Sequence[VolumeGrid],
    pseudo: LabelVolume,
    truth: LabelVolume,
    connectivity: int = 26,
    provenance: Mapping[str, object] | None = None,
) -> MetricsReport:
    """Score one case's per-organ attention masks against the error benchmark.

    attention_masks[i] belongs to organ code i + 1 of the pseudo label map.
    """
    if pseudo.labels.codes != truth.labels.codes:
        raise AlignmentError("pseudo and truth label volumes use different organ maps")
    if len(attention_masks) != len(pseudo.labels):
        raise ValueError(
            f"case {case_id!r}: {len(attention_masks)} attention masks for "
            f"{len(pseudo.labels)} organs"
        )
    organs: dict[str, OrganMetrics] = {}
    for code, name in pseudo.labels.entries:
        pseudo_mask = pseudo.organ_mask(code)
        truth_mask = truth.organ_mask(code)
        benchmark = error_region(pseudo_mask, truth_mask)
        sensitivity, precision, counts = componentwise_metrics(
            attention_masks[code - 1], benchmark, connectivity
        )
        organs[name] = OrganMetrics(
            sensitivity=sensitivity,
            precision=precision,
            counts=counts,
            dsc=dsc(pseudo_mask, truth_mask),
        )
    prov = dict(provenance or {})
    prov.setdefault("connectivity", connectivity)
    prov.setdefault("dsc_empty_convention", 1.0)
    return MetricsReport(case_id=case_id, organs=organs, provenance=prov)


def _cell(value: float | None) -> str:
    return "undefined" if value is None else repr(float(value))


METRICS_CSV_HEADER = ("case_id", "organ", "sensitivity", "precision", "tp", "fp", "fn", "dsc")


def metrics_csv(reports: Sequence[MetricsReport]) -> str:
    """One CSV row per (case, organ); undefined metrics spelled out."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(METRICS_CSV_HEADER)
    for report in reports:
        for organ, m in report.organs.items():
            writer.writerow(
                [
                    report.case_id,
                    organ,
                    _cell(m.sensitivity),
                    _cell(m.precision),
                    m.counts.tp,
                    m.counts.fp,
                    m.counts.fn,
                    repr(m.dsc),
                ]
            )
    return buf.getvalue()


def metrics_json_dict(reports: Sequence[MetricsReport]) -> dict[str, object]:
    """JSON-ready structure with per-case detail and per-organ means over defined values."""
    cases = {}
    for report in reports:
        cases[report.case_id] = {
            organ: {
                "sensitivity": m.sensitivity,
                "precision": m.precision,
                "tp": m.counts.tp,
                "fp": m.counts.fp,
                "fn": m.counts.fn,
                "dsc": m.dsc,
            }
            for organ, m in report.organs.items()
        }
    summary: dict[str, dict[str, float | None]] = {}
    for organ in dict.fromkeys(organ for report in reports for organ in report.organs):
        for key in ("sensitivity", "precision", "dsc"):
            values = [
                getattr(report.organs[organ], key)
                for report in reports
                if organ in report.organs and getattr(report.organs[organ], key) is not None
            ]
            summary.setdefault(organ, {})[key] = (
                float(np.mean(values)) if values else None
            )
    provenance = dict(reports[0].provenance) if reports else {}
    return {"cases": cases, "summary": summary, "provenance": provenance}
