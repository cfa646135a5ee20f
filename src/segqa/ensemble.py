"""Unbiased final labels by averaging the member models' soft predictions.

Averaging (rather than majority voting on hard labels) keeps the result from
leaning toward any single architecture and preserves soft information for
downstream entropy. Members are unweighted.
"""

from __future__ import annotations

import numpy as np

from .volume import (
    LabelVolume,
    OrganLabelMap,
    PredictionSet,
    labels_from_soft,
    stable_mean,
    support_box,
)


def ensemble_label(
    preds: PredictionSet,
    binarize_threshold: float = 0.5,
    labels: OrganLabelMap | None = None,
) -> LabelVolume:
    """Discrete consensus labels: threshold-gated argmax of the mean channels.

    Each organ's mean is computed over its support box only and is 0 outside
    it; since the threshold is > 0, a zero mean never labels a voxel.
    """
    ref = preds.reference_grid
    mean_soft = []
    for c in range(preds.num_organs):
        channels = [m.channels[c].values for m in preds.members]
        box = support_box(channels)
        mean = np.zeros(ref.dims, dtype=np.float32)
        mean[box] = stable_mean([ch[box] for ch in channels])
        mean_soft.append(ref.with_values(mean))
    return labels_from_soft(mean_soft, binarize_threshold, labels)
