"""Builders for the small grids and prediction sets the tests use."""

from __future__ import annotations

import numpy as np

from segqa.volume import PredictionSet, SoftPrediction, VolumeGrid


def make_grid(values, spacing=(1.0, 1.0, 1.0), dtype=None) -> VolumeGrid:
    arr = np.asarray(values)
    if dtype is not None:
        arr = arr.astype(dtype)
    return VolumeGrid(arr, spacing)


def float_grid(values, spacing=(1.0, 1.0, 1.0)) -> VolumeGrid:
    return make_grid(values, spacing, dtype=np.float32)


def mask_grid(values, spacing=(1.0, 1.0, 1.0)) -> VolumeGrid:
    return make_grid(values, spacing, dtype=np.uint8)


def prediction_set(
    case_id: str, member_channels: list[list[np.ndarray]], spacing=(1.0, 1.0, 1.0)
) -> PredictionSet:
    """member_channels[k][c] is model k's channel for organ code c + 1."""
    members = tuple(
        SoftPrediction(
            model_id=f"m{k}",
            channels=tuple(float_grid(ch, spacing) for ch in channels),
        )
        for k, channels in enumerate(member_channels)
    )
    return PredictionSet(case_id=case_id, members=members)


def random_prediction_set(
    rng: np.random.Generator,
    case_id: str = "case",
    dims: tuple[int, int, int] = (4, 4, 4),
    members: int = 3,
    organs: int = 2,
) -> PredictionSet:
    return prediction_set(
        case_id,
        [
            [rng.random(dims, dtype=np.float32) for _ in range(organs)]
            for _ in range(members)
        ],
    )
