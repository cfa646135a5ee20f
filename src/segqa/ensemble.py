"""Unbiased final labels by averaging the member models' soft predictions.

Averaging (rather than majority voting on hard labels) keeps the result from
leaning toward any single architecture and preserves soft information for
downstream entropy. Members are unweighted.
"""

from __future__ import annotations

import numpy as np

from .volume import LabelVolume, OrganLabelMap, PredictionSet, labels_from_soft, stable_mean


def ensemble_label(
    preds: PredictionSet,
    binarize_threshold: float = 0.5,
    labels: OrganLabelMap | None = None,
) -> LabelVolume:
    """Discrete consensus labels: threshold-gated argmax of the mean channels."""
    ref = preds.reference_grid
    mean_soft = [
        ref.with_values(
            stable_mean([m.channels[c].values for m in preds.members]).astype(np.float32)
        )
        for c in range(preds.num_organs)
    ]
    return labels_from_soft(mean_soft, binarize_threshold, labels)
