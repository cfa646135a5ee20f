"""Builders for the small grids and prediction sets the tests use."""

from __future__ import annotations

import numpy as np

from segqa.volume import PredictionSet, VolumeGrid

# The box of a dense channel: the whole volume.
WHOLE = (slice(None),) * 3


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
    return PredictionSet.from_channels(
        case_id,
        [f"m{k}" for k in range(len(member_channels))],
        ([float_grid(ch, spacing) for ch in organ] for organ in zip(*member_channels)),
    )


def whole(channels) -> tuple[VolumeGrid, list]:
    """labels_from_soft's grid and (box, values) channels for dense channels,
    given as grids or as arrays (taken as float32): each box is the whole volume."""
    grids = [ch if isinstance(ch, VolumeGrid) else float_grid(ch) for ch in channels]
    return grids[0], [(WHOLE, g.values) for g in grids]


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


SUPPORT_CASES = (
    "empty_organ",
    "full_volume",
    "six_faces",
    "corner_voxel",
    "negative_zero",
    "overlapping_boxes",
)


def support_case(name: str, rng: np.random.Generator, members: int = 3) -> list[list[np.ndarray]]:
    """Member channels of three organs on a 6x5x4 grid; ``name`` picks the shape of
    each organ's nonzero support (see SUPPORT_CASES). Values are multiples of 0.1,
    so ties between members and organs are common."""
    dims = (6, 5, 4)

    def coarse(low=0):
        return (rng.integers(low, 11, dims) / 10).astype(np.float32)

    channels = [[np.zeros(dims, np.float32) for _ in range(3)] for _ in range(members)]
    if name == "empty_organ":  # organ 2 is 0 in every member
        for k in range(members):
            channels[k][0][1:4, 1:3, 1:3] = coarse()[1:4, 1:3, 1:3]
            channels[k][2][2:, :, 2:] = coarse()[2:, :, 2:]
    elif name == "full_volume":  # no exact zero anywhere
        channels = [[coarse(low=1) for _ in range(3)] for _ in range(members)]
    elif name == "six_faces":  # support on every face of the volume, hollow inside
        shell = np.ones(dims, bool)
        shell[1:-1, 1:-1, 1:-1] = False
        for k in range(members):
            for c in range(3):
                channels[k][c][shell] = coarse()[shell]
    elif name == "corner_voxel":  # one nonzero voxel in one member, in opposite corners
        channels[0][0][0, 0, 0] = 1.0
        channels[members - 1][1][-1, -1, -1] = 0.6
    elif name == "negative_zero":  # -0.0 counts as zero
        for k in range(members):
            channels[k][0][:] = -0.0 if k % 2 else 0.0
            channels[k][1][2:5, 1:4, :] = coarse()[2:5, 1:4, :]
            channels[k][1][:2] = -0.0
            channels[k][2][:3] = -0.0
        channels[0][2][4, 2, 1] = 0.7  # organ 3 is nonzero in one voxel of one member
        channels[-1][2][1, 2, 1] = 0.4  # and beside the -0.0 of the other members
    elif name == "overlapping_boxes":  # organs 1 and 2 overlap in x 2..3, organ 3 crosses both
        for k in range(members):
            channels[k][0][:4, :, :2] = 1.0
            channels[k][1][2:, :, :2] = 0.9
            channels[k][2][:, 1:3, 1:3] = coarse()[:, 1:3, 1:3]
        channels[0][0][0, :, 0] = 0.0  # one member disagrees at one edge of organ 1
    else:
        raise ValueError(f"unknown support case {name!r}")
    return channels
