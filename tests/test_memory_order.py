"""Every volume built from decoded channels is x-fastest (Fortran order), as decoded."""

import numpy as np
import pytest
from grids import WHOLE, mask_grid

from segqa.campaign import simulate_revision
from segqa.detect import DetectionConfig, build_attention
from segqa.ensemble import ensemble_label
from segqa.volume import LabelVolume, PredictionSet, VolumeGrid, labels_from_soft

DIMS = (7, 6, 5)


def decoded(values: np.ndarray) -> VolumeGrid:
    """A grid whose voxels are laid out as the reader decodes them."""
    return VolumeGrid(np.asfortranarray(values))


def x_fastest(values: np.ndarray) -> bool:
    return values.flags.f_contiguous and not values.flags.c_contiguous


@pytest.fixture
def preds(rng) -> PredictionSet:
    """Three members, two organs; each organ's support box is short of the volume."""
    organs = []
    for box in ((slice(1, 6), slice(0, 4), slice(1, 5)), (slice(2, 7), slice(1, 6), slice(0, 3))):
        members = []
        for _ in range(3):
            ch = np.zeros(DIMS, np.float32)
            ch[box] = rng.random(ch[box].shape, dtype=np.float32)
            members.append(decoded(ch))
        organs.append(members)
    return PredictionSet.from_channels("case", ["m0", "m1", "m2"], organs)


def test_crops(preds):
    for organ in preds.organs:
        assert organ.crops[0].shape != DIMS
        assert all(x_fastest(crop) for crop in organ.crops)


@pytest.mark.parametrize("min_component", [0, 3])
def test_attention_union_and_organ_masks(preds, min_component):
    amap = build_attention(preds, DetectionConfig(min_component_voxels=min_component))
    assert x_fastest(amap.union_mask.values)
    assert all(x_fastest(crop) for _, crop in amap.organ_crops)
    assert all(x_fastest(amap.organ_mask(code).values) for code in (1, 2))


def test_consensus_labels_and_their_organ_masks(preds):
    labels = ensemble_label(preds)
    assert x_fastest(labels.grid.values)
    assert all(x_fastest(mask_grid(labels.grid.values == code).values) for code in (1, 2))


def test_labels_from_soft_of_c_order_channels(rng):
    channels = [(WHOLE, rng.random(DIMS, dtype=np.float32)) for _ in range(2)]
    grid = VolumeGrid(channels[0][1])
    assert not x_fastest(grid.values)
    assert x_fastest(labels_from_soft(grid, channels).grid.values)


def test_revised_labels(preds, rng):
    amap = build_attention(preds)
    pseudo = ensemble_label(preds)
    truth = LabelVolume(decoded(rng.integers(0, 3, DIMS).astype(np.uint8)), 2)
    revised = simulate_revision(pseudo, truth, amap.union_mask)
    assert x_fastest(revised.grid.values)
