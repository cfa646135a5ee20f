"""Unbiased final labels by averaging the member models' soft predictions.

Averaging (rather than majority voting on hard labels) keeps the result from
leaning toward any single architecture and preserves soft information for
downstream entropy. Members are unweighted.
"""

from __future__ import annotations

import numpy as np

from .volume import (
    LabelVolume,
    PredictionSet,
    labels_from_soft,
    stable_mean,
)


def ensemble_label(preds: PredictionSet, binarize_threshold: float = 0.5) -> LabelVolume:
    """Discrete consensus labels: threshold-gated argmax of the mean channels.

    Each organ's mean is computed over its members' crops and labels only
    inside the organ's support box; since the threshold is > 0, the zero mean
    outside it never labels a voxel.
    """
    means = [(organ.box, stable_mean(organ.crops).astype(np.float32)) for organ in preds.organs]
    return labels_from_soft(preds.grid, means, binarize_threshold)
