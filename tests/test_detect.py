import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from grids import float_grid, prediction_set, random_prediction_set
from oracles import attention_union_oracle, sorted_stack_mean_std, sorted_stack_reduction
from segqa.detect import (
    DetectionConfig,
    InsufficientMembersError,
    binary_entropy,
    build_attention,
)
from segqa.ensemble import ensemble_label
from segqa.volume import AlignmentError, SoftPrediction, labels_from_soft, stable_mean_std


class TestDetectionConfig:
    def test_defaults(self):
        cfg = DetectionConfig()
        assert cfg.std_threshold == 0.1
        assert cfg.entropy_threshold == 0.5
        assert cfg.binarize_threshold == 0.5
        assert cfg.min_component_voxels == 0

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"std_threshold": 0.0},
            {"std_threshold": 0.6},
            {"entropy_threshold": 1.5},
            {"binarize_threshold": 1.0},
            {"min_component_voxels": -1},
        ],
    )
    def test_rejects_out_of_range(self, kwargs):
        with pytest.raises(ValueError):
            DetectionConfig(**kwargs)


def _std(preds, organ_index=0):
    return stable_mean_std([m.channels[organ_index].values for m in preds.members])[1]


class TestInconsistency:
    def test_identical_members_give_zero(self, rng):
        ch = rng.random((3, 3, 3), dtype=np.float32)
        ps = prediction_set("c", [[ch], [ch], [ch]])
        assert not _std(ps).any()

    def test_two_member_full_disagreement(self):
        ps = prediction_set("c", [[np.zeros((1, 1, 1))], [np.ones((1, 1, 1))]])
        assert _std(ps)[0, 0, 0] == 0.5

    def test_three_member_hand_value(self):
        ps = prediction_set(
            "c",
            [[np.full((1, 1, 1), 0.2)], [np.full((1, 1, 1), 0.5)], [np.full((1, 1, 1), 0.8)]],
        )
        value = float(_std(ps)[0, 0, 0])
        assert value == pytest.approx(math.sqrt(0.06), abs=1e-4)

    def test_single_member_rejected(self):
        ps = prediction_set("c", [[np.zeros((1, 1, 1))]])
        with pytest.raises(InsufficientMembersError):
            build_attention(ps)

    def test_permutation_invariant_bit_exact(self, rng):
        channels = [rng.random((4, 4, 4), dtype=np.float32) for _ in range(3)]
        a = _std(prediction_set("c", [[c] for c in channels]))
        b = _std(prediction_set("c", [[c] for c in channels[::-1]]))
        assert np.array_equal(a, b)

    def test_bounded_by_half(self, rng):
        ps = random_prediction_set(rng, members=3, organs=1)
        values = _std(ps)
        assert float(values.min()) >= 0.0 and float(values.max()) <= 0.5


class TestUncertainty:
    def test_half_is_max(self):
        assert binary_entropy(0.5) == 1.0

    def test_endpoints_are_zero(self):
        assert binary_entropy(0.0) == 0.0
        assert binary_entropy(1.0) == 0.0

    def test_hand_value(self):
        assert binary_entropy(0.9) == pytest.approx(0.4690, abs=1e-4)

    @settings(max_examples=200, deadline=None)
    @given(st.floats(0.0, 1.0))
    def test_symmetric(self, p):
        assert binary_entropy(p) == pytest.approx(binary_entropy(1.0 - p), abs=1e-12)

    def test_map_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            SoftPrediction("m", (float_grid(np.full((1, 1, 1), 1.5)),))

    def test_map_values(self):
        out = binary_entropy(np.array([0.5, 0.0, 1.0], dtype=np.float32))
        assert out[0] == 1.0 and out[1] == 0.0 and out[2] == 0.0


def _overlap(channels):
    """Overlap mask of two identical members, so each channel is its own mean."""
    ps = prediction_set("c", [channels, channels])
    return build_attention(ps).source_masks.overlap.values


class TestOverlap:
    def test_disjoint_organs(self):
        assert not _overlap([np.array([[[1.0, 0.0]]]), np.array([[[0.0, 1.0]]])]).any()

    def test_two_channels_passing(self):
        channels = [np.full((1, 1, 1), v) for v in (0.6, 0.7, 0.1)]
        assert _overlap(channels)[0, 0, 0] == 1

    def test_single_channel_passing(self):
        channels = [np.full((1, 1, 1), v) for v in (0.6, 0.4, 0.4)]
        assert _overlap(channels)[0, 0, 0] == 0


def _disagreement_case(dims=(6, 6, 6), blob_slice=(slice(1, 5), slice(1, 5), slice(2, 3))):
    """Two members, one organ: full disagreement on a blob, agreement elsewhere."""
    a = np.zeros(dims, dtype=np.float32)
    a[blob_slice] = 1.0
    b = np.zeros(dims, dtype=np.float32)
    return prediction_set("case", [[a], [b]]), a != 0


class TestBuildAttention:
    def test_confident_agreement_is_empty(self):
        organ1 = np.zeros((4, 4, 4), dtype=np.float32)
        organ1[:2] = 1.0
        organ2 = np.zeros((4, 4, 4), dtype=np.float32)
        organ2[3:] = 1.0
        ps = prediction_set("c", [[organ1, organ2], [organ1, organ2], [organ1, organ2]])
        amap = build_attention(ps)
        assert amap.total_mm3 == 0.0
        assert not amap.union_mask.values.any()

    def test_disagreement_blob_size(self):
        ps, blob = _disagreement_case()
        amap = build_attention(ps)
        assert np.array_equal(amap.union_mask.values != 0, blob)
        assert amap.total_mm3 == float(blob.sum())

    def test_speckle_filter_drops_single_voxel(self):
        a = np.zeros((5, 5, 5), dtype=np.float32)
        a[2, 2, 2] = 1.0
        ps = prediction_set("c", [[a], [np.zeros((5, 5, 5), dtype=np.float32)]])
        amap = build_attention(ps, DetectionConfig(min_component_voxels=2))
        assert amap.total_mm3 == 0.0
        # per-organ masks stay unfiltered; the union is authoritative for size
        assert not amap.union_mask.values.any()

    def test_single_member_rejected(self):
        ps = prediction_set("c", [[np.zeros((2, 2, 2))]])
        with pytest.raises(InsufficientMembersError):
            build_attention(ps)

    def test_union_is_or_of_sources(self, rng):
        for _ in range(25):
            ps = random_prediction_set(rng, dims=(4, 4, 4), members=3, organs=2)
            amap = build_attention(ps)
            expected = (
                (amap.source_masks.inconsistency.values != 0)
                | (amap.source_masks.uncertainty.values != 0)
                | (amap.source_masks.overlap.values != 0)
            )
            assert np.array_equal(amap.union_mask.values != 0, expected)

    def test_union_matches_brute_force_oracle(self, rng):
        cfg = DetectionConfig()
        for _ in range(10):
            member_channels = [
                [rng.random((3, 3, 3), dtype=np.float32) for _ in range(2)]
                for _ in range(3)
            ]
            ps = prediction_set("c", member_channels)
            amap = build_attention(ps, cfg)
            expected = attention_union_oracle(member_channels, cfg)
            assert np.array_equal(amap.union_mask.values != 0, expected)

    def test_monotone_in_thresholds(self, rng):
        ps = random_prediction_set(rng, dims=(5, 5, 5), members=3, organs=2)
        loose = build_attention(ps, DetectionConfig(std_threshold=0.05, entropy_threshold=0.2))
        tight = build_attention(ps, DetectionConfig(std_threshold=0.3, entropy_threshold=0.9))
        tight_set = tight.union_mask.values != 0
        loose_set = loose.union_mask.values != 0
        assert np.all(loose_set[tight_set])

    def test_outputs_grid_aligned(self, rng):
        ps = random_prediction_set(rng, dims=(3, 4, 5), members=2, organs=2)
        amap = build_attention(ps)
        assert amap.union_mask.dims == (3, 4, 5)
        assert amap.union_mask.spacing == ps.reference_grid.spacing
        assert all(m.dims == (3, 4, 5) for m in amap.per_organ_masks)

    def test_per_organ_mask_takes_overlap_where_organ_passes(self):
        # both organs claim the voxel confidently in all members
        one = np.ones((1, 1, 1), dtype=np.float32)
        ps = prediction_set("c", [[one, one], [one, one]])
        amap = build_attention(ps)
        assert amap.source_masks.overlap.values[0, 0, 0] == 1
        assert amap.organ_mask(1).values[0, 0, 0] == 1
        assert amap.organ_mask(2).values[0, 0, 0] == 1

    def test_misaligned_members_rejected(self):
        from segqa.volume import PredictionSet, SoftPrediction

        a = SoftPrediction("m1", (float_grid(np.zeros((2, 2, 2))),))
        b = SoftPrediction("m2", (float_grid(np.zeros((2, 2, 2)), spacing=(2, 2, 2)),))
        with pytest.raises(AlignmentError):
            PredictionSet("c", (a, b))


class TestReductionOracle:
    """build_attention and ensemble_label against the sort-based reference."""

    # Member values of organ 1 whose float64 mean lies just below 0.3 while the
    # float32 mean rounds up to float32(0.3).
    EDGE = {2: [0.55, 0.049999985843896866], 3: [0.5, 0.3, 0.09999998658895493]}

    @pytest.mark.parametrize("members", [2, 3])
    def test_matches_sorted_stack_oracle(self, rng, members):
        cfg = DetectionConfig(binarize_threshold=0.3)
        edge = np.array(self.EDGE[members], dtype=np.float32)
        edge_mean = sorted_stack_mean_std(list(edge))[0]
        assert edge_mean < 0.3 <= np.float32(edge_mean)

        # Coarse values make exact ties between members and between organs common.
        dims = (6, 6, 6)
        member_channels = [
            [(rng.integers(0, 11, dims) / 10).astype(np.float32) for _ in range(3)]
            for _ in range(members)
        ]
        for channels, value in zip(member_channels, edge):
            channels[2][:3] = channels[1][:3]  # organs 2 and 3 have equal means here
            for ch in channels:
                ch[5, 5, 4:] = 0.0
            channels[0][5, 5, 4:] = value  # organ 1 on the edge at two voxels
            channels[1][5, 5, 4] = 1.0  # organ 2 certain at one of them

        ps = prediction_set("c", member_channels)
        amap, labels = build_attention(ps, cfg), ensemble_label(ps, 0.3)
        ref = sorted_stack_reduction(member_channels, cfg)
        assert np.array_equal(amap.union_mask.values != 0, ref["union"])
        for key in ("inconsistency", "uncertainty", "overlap"):
            assert np.array_equal(getattr(amap.source_masks, key).values != 0, ref[key])
        for c in range(3):
            assert np.array_equal(amap.per_organ_masks[c].values != 0, ref["per_organ"][c])
            assert amap.per_organ_mm3[c] == float(ref["per_organ"][c].sum())
        assert amap.total_mm3 == float(ref["union"].sum())
        assert labels.grid.values.dtype == np.uint8
        assert np.array_equal(labels.grid.values, ref["labels"])

        # float32 gate labels the edge voxel; the float64 mean makes no overlap
        assert labels.grid.values[5, 5, 5] == 1
        assert labels.grid.values[5, 5, 4] == 2 and not ref["overlap"][5, 5, 4]
        # equal means of organs 2 and 3 go to the lower code
        tied = labels.grid.values[:3]
        assert (tied == 2).any() and not (tied == 3).any()

    def test_label_gate_compares_in_float32(self):
        # float32(0.7) < 0.7: the voxel is labelled as labels_from_soft labels it,
        # though its float64 mean does not pass for attention.
        cfg = DetectionConfig(binarize_threshold=0.7)
        value = np.full((1, 1, 1), 0.7, dtype=np.float32)
        ps = prediction_set("c", [[value, value]] * 2)
        amap, labels = build_attention(ps, cfg), ensemble_label(ps, 0.7)
        assert labels.grid.values[0, 0, 0] == 1
        assert amap.source_masks.overlap.values[0, 0, 0] == 0
        expected = labels_from_soft([ps.reference_grid] * 2, 0.7).grid.values
        assert np.array_equal(labels.grid.values, expected)
