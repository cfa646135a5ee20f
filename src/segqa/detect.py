"""Attention-map construction from model disagreement, entropy and overlap.

Three per-voxel criteria flag probable label errors in a case:

* inconsistency - the population standard deviation of the member models'
  soft outputs; large spread means the architectures disagree.
* uncertainty - the binary entropy of the consensus (mean) probability of
  each organ channel, normalized to [0, 1]; values near 1 mean the ensemble
  itself is on the fence.
* overlap - voxels claimed by two or more organ channels at once, which is
  anatomically impossible for the target structures.

The attention map is the union of the thresholded criterion masks, with
connected components below a configurable voxel count dropped as speckle.
All thresholds default to round values because no canonical setting exists;
they are surfaced on the command line and echoed into every output.

A case's predictions hold each organ as the members' crops of its support
box (:class:`segqa.volume.SoftPrediction`), the smallest box holding every
voxel where any member is nonzero, and each organ is reduced over its crops
only; results outside the box are written as zero. This is exact because
every threshold is > 0 (:class:`DetectionConfig`): where all K members are 0
(or -0.0) the mean is 0, the std is 0 and the entropy is 0, so no criterion
fires and the organ does not pass the binarize threshold. Per-organ work
therefore scales with the organ's nonzero support, not with the volume;
channels with no exact zero get a box the size of the volume.

An organ's attention mask is held the same way, as its uint8 crop of the
organ's support box: only the union is a whole volume.
:meth:`AttentionMap.organ_mask` expands one organ's mask when it is written.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import regions
from .volume import (
    Box,
    PredictionSet,
    VolumeGrid,
    stable_mean_std,
)


class InsufficientMembersError(ValueError):
    """Cross-model inconsistency needs at least two member predictions."""


@dataclass(frozen=True)
class DetectionConfig:
    """Thresholds steering attention-map construction.

    std_threshold applies to the member standard deviation (bounded by 0.5),
    entropy_threshold to the normalized binary entropy of the consensus,
    binarize_threshold to probability-to-mask conversion, and components of
    the union smaller than min_component_voxels are discarded.
    """

    std_threshold: float = 0.1
    entropy_threshold: float = 0.5
    binarize_threshold: float = 0.5
    min_component_voxels: int = 0

    def __post_init__(self) -> None:
        if not 0.0 < self.std_threshold <= 0.5:
            raise ValueError(f"std_threshold must be in (0, 0.5], got {self.std_threshold}")
        if not 0.0 < self.entropy_threshold <= 1.0:
            raise ValueError(
                f"entropy_threshold must be in (0, 1], got {self.entropy_threshold}"
            )
        if not 0.0 < self.binarize_threshold < 1.0:
            raise ValueError(
                f"binarize_threshold must be in (0, 1), got {self.binarize_threshold}"
            )
        if self.min_component_voxels < 0:
            raise ValueError(
                f"min_component_voxels must be >= 0, got {self.min_component_voxels}"
            )


@dataclass(frozen=True)
class AttentionMap:
    """Binary attention volume plus per-organ sub-masks and sizes in mm^3.

    organ_crops[i] belongs to organ code i + 1: the organ's support box and
    its uint8 mask inside it; the mask is 0 outside the box. The union mask
    equals the voxelwise OR of the criterion masks after speckle filtering;
    per-organ masks are not speckle-filtered.
    """

    case_id: str
    union_mask: VolumeGrid
    organ_crops: tuple[tuple[Box, np.ndarray], ...]
    per_organ_mm3: tuple[float, ...]
    total_mm3: float

    def organ_mask(self, code: int) -> VolumeGrid:
        """One organ's mask as a whole volume on the union's grid."""
        box, crop = self.organ_crops[code - 1]
        mask = np.zeros(self.union_mask.dims, dtype=np.uint8, order="F")
        mask[box] = crop
        return self.union_mask.with_values(mask)


def binary_entropy(p: np.ndarray | float) -> np.ndarray | float:
    """Normalized binary entropy, in bits: H(0.5) = 1, H(0) = H(1) = 0.

    The 0 * log 0 terms are taken as zero, so the function is exact at the
    endpoints and symmetric in p and 1 - p.
    """
    arr = np.asarray(p, dtype=np.float64)
    with np.errstate(divide="ignore", invalid="ignore"):
        a = np.where(arr > 0.0, arr * np.log2(arr), 0.0)
        b = np.where(arr < 1.0, (1.0 - arr) * np.log2(1.0 - arr), 0.0)
    out = -(a + b) + 0.0
    if np.isscalar(p):
        return float(out)
    return out


def build_attention(preds: PredictionSet, cfg: DetectionConfig | None = None) -> AttentionMap:
    """Union the three criterion masks for one case into an attention map.

    Per organ, the K member crops are reduced once to their mean and std
    (:func:`stable_mean_std`). A voxel enters the union if the std or the
    entropy of the mean passes its threshold; overlap voxels (two or more
    organs whose mean passes the binarize threshold) enter unconditionally.
    A per-organ sub-mask additionally claims overlap voxels where that
    organ's mean passes the binarize threshold.
    """
    cfg = cfg or DetectionConfig()
    if len(preds.model_ids) < 2:
        raise InsufficientMembersError(
            f"case {preds.case_id!r}: attention needs >= 2 members, got {len(preds.model_ids)}"
        )
    grid = preds.grid
    dims = grid.dims

    union = np.zeros(dims, dtype=bool, order="F")
    # Voxels where one organ passes, and where a second one does too: overlap
    # is "passed twice", for any number of organs and with no count array.
    passed = np.zeros(dims, dtype=bool, order="F")
    overlap = np.zeros(dims, dtype=bool, order="F")
    # Per organ: its support box and, inside it, the criterion part and passes.
    organs: list[tuple[Box, np.ndarray, np.ndarray]] = []

    for organ in preds.organs:
        box = organ.box
        mean, std = stable_mean_std(organ.crops)
        part = (std >= cfg.std_threshold) | (binary_entropy(mean) >= cfg.entropy_threshold)
        passes = mean >= cfg.binarize_threshold

        union[box] |= part
        overlap[box] |= passed[box] & passes
        passed[box] |= passes
        organs.append((box, part, passes))
    union |= overlap

    union_grid = grid.with_values(union.astype(np.uint8))
    if cfg.min_component_voxels > 1:
        union_grid = regions.remove_small_components(union_grid, cfg.min_component_voxels)

    crops = tuple(
        (box, (part | (overlap[box] & passes)).astype(np.uint8)) for box, part, passes in organs
    )
    return AttentionMap(
        case_id=preds.case_id,
        union_mask=union_grid,
        organ_crops=crops,
        per_organ_mm3=tuple(float(np.count_nonzero(c)) * grid.voxel_volume_mm3 for _, c in crops),
        total_mm3=float(np.count_nonzero(union_grid.values)) * grid.voxel_volume_mm3,
    )
