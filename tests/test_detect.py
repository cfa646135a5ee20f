import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from grids import (
    SUPPORT_CASES,
    float_grid,
    prediction_set,
    random_prediction_set,
    support_case,
    whole,
)
from oracles import (
    attention_union_oracle,
    flood_components,
    sorted_stack_mean_std,
    sorted_stack_reduction,
)
from segqa.detect import (
    DetectionConfig,
    InsufficientMembersError,
    binary_entropy,
    build_attention,
)
from segqa.ensemble import ensemble_label
from segqa.volume import AlignmentError, PredictionSet, labels_from_soft, stable_mean_std


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
    return stable_mean_std(preds.organs[organ_index].crops)[1]


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
            prediction_set("c", [[np.full((1, 1, 1), 1.5)]])

    def test_map_values(self):
        out = binary_entropy(np.array([0.5, 0.0, 1.0], dtype=np.float32))
        assert out[0] == 1.0 and out[1] == 0.0 and out[2] == 0.0


# Thresholds under which one criterion alone fills the union of three members
# whose means never reach 0.999 nor equal 0.5: three members' population std is
# at most sqrt(2)/3 < 0.5, and the entropy reaches 1 only at a mean of 0.5.
ALONE = {
    name: DetectionConfig(std_threshold=std, entropy_threshold=entropy, binarize_threshold=bin_)
    for name, std, entropy, bin_ in [
        ("inconsistency", 0.1, 1.0, 0.999),
        ("uncertainty", 0.5, 0.5, 0.999),
        ("overlap", 0.5, 1.0, 0.3),
    ]
}


def _overlap(channels, binarize_threshold=0.5):
    """Overlap mask of two identical members: each channel is its own mean and
    the std is 0, so with no mean of 0.5 the entropy threshold of 1 leaves
    overlap alone in the union."""
    assert not any((ch == 0.5).any() for ch in channels)
    ps = prediction_set("c", [channels, channels])
    cfg = DetectionConfig(entropy_threshold=1.0, binarize_threshold=binarize_threshold)
    return build_attention(ps, cfg).union_mask.values


class TestOverlap:
    def test_disjoint_organs(self):
        assert not _overlap([np.array([[[1.0, 0.0]]]), np.array([[[0.0, 1.0]]])]).any()

    def test_two_channels_passing(self):
        channels = [np.full((1, 1, 1), v) for v in (0.6, 0.7, 0.1)]
        assert _overlap(channels)[0, 0, 0] == 1

    def test_mean_at_the_binarize_threshold_passes(self):
        channels = [np.full((1, 1, 1), 0.75) for _ in range(2)]
        assert _overlap(channels, binarize_threshold=0.75)[0, 0, 0] == 1

    def test_single_channel_passing(self):
        channels = [np.full((1, 1, 1), v) for v in (0.6, 0.4, 0.4)]
        assert _overlap(channels)[0, 0, 0] == 0

    def test_more_than_255_organs_passing(self):
        # 256 organs pass at voxel 0, where a uint8 pass count would wrap to 0;
        # only organ 1 passes at voxel 1.
        channels = [np.array([[[1.0]], [[0.0]]], np.float32) for _ in range(256)]
        channels[0] = np.ones((2, 1, 1), np.float32)
        assert _overlap(channels)[:, 0, 0].tolist() == [1, 0]


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
        # Each criterion alone makes the union (the others are empty under its
        # ALONE thresholds), and at the defaults the union is the OR of all three.
        found = dict.fromkeys(ALONE, 0)
        for _ in range(25):
            member_channels = [
                [rng.random((4, 4, 4), dtype=np.float32) for _ in range(2)] for _ in range(3)
            ]
            ps = prediction_set("c", member_channels)
            for criterion, cfg in ALONE.items():
                ref = TestReductionOracle.assert_attention_matches(
                    build_attention(ps, cfg), member_channels, cfg
                )
                assert not any(ref[k].any() for k in ALONE if k != criterion)
                found[criterion] += int(ref[criterion].sum())
            ref = sorted_stack_reduction(member_channels, DetectionConfig())
            expected = ref["inconsistency"] | ref["uncertainty"] | ref["overlap"]
            assert np.array_equal(build_attention(ps).union_mask.values != 0, expected)
        assert all(found.values())

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
        assert amap.union_mask.spacing == ps.grid.spacing
        for code in (1, 2):
            assert amap.organ_mask(code).dims == (3, 4, 5)
            assert amap.organ_mask(code).spacing == ps.grid.spacing

    def test_per_organ_mask_takes_overlap_where_organ_passes(self):
        # both organs claim the voxel confidently in all members: std and entropy
        # are 0, so only overlap can put it in the union and the organ masks
        one = np.ones((1, 1, 1), dtype=np.float32)
        ps = prediction_set("c", [[one, one], [one, one]])
        amap = build_attention(ps)
        assert amap.union_mask.values[0, 0, 0] == 1
        assert amap.organ_mask(1).values[0, 0, 0] == 1
        assert amap.organ_mask(2).values[0, 0, 0] == 1

    def test_map_holds_organ_masks_as_box_crops(self):
        # Nine organs in small boxes, each half flagged by disagreement: the map
        # holds the union as a whole volume and each organ's mask as its crop.
        dims, organs = (48, 48, 24), 9
        member_channels = [[np.zeros(dims, np.float32) for _ in range(organs)] for _ in range(2)]
        for c in range(organs):
            member_channels[0][c][4 * c:4 * c + 4, 8:14, 4:10] = 1.0
            member_channels[1][c][4 * c:4 * c + 2, 8:14, 4:10] = 1.0
        ps = prediction_set("c", member_channels)
        tracemalloc.start()
        try:
            amap = build_attention(ps)
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert all(amap.organ_mask(c + 1).values.sum() == 72 for c in range(organs))
        assert held < 2 * int(np.prod(dims))

    def test_misaligned_members_rejected(self):
        a = float_grid(np.zeros((2, 2, 2)))
        b = float_grid(np.zeros((2, 2, 2)), spacing=(2, 2, 2))
        with pytest.raises(AlignmentError):
            PredictionSet.from_channels("c", ["m1", "m2"], [[a, b]])


class TestReductionOracle:
    """build_attention and ensemble_label against the sort-based reference."""

    @staticmethod
    def assert_attention_matches(amap, member_channels, cfg):
        """Every mask and size of amap equals the oracle's, and so does the union
        under each of the ALONE thresholds; returns the oracle at cfg."""
        ref = sorted_stack_reduction(member_channels, cfg)
        union = ref["union"]
        if cfg.min_component_voxels > 1:
            union = np.zeros_like(union)
            for blob in flood_components(ref["union"], 26):
                if len(blob) >= cfg.min_component_voxels:
                    union[tuple(np.array(sorted(blob)).T)] = True
        assert np.array_equal(amap.union_mask.values != 0, union)
        assert amap.total_mm3 == float(union.sum())
        for c, expected in enumerate(ref["per_organ"]):
            assert np.array_equal(amap.organ_mask(c + 1).values != 0, expected)
            assert amap.per_organ_mm3[c] == float(expected.sum())
        ps = prediction_set("c", member_channels)
        for alone in ALONE.values():
            got = build_attention(ps, alone).union_mask.values != 0
            assert np.array_equal(got, sorted_stack_reduction(member_channels, alone)["union"])
        return ref

    @pytest.mark.parametrize("min_component", [0, 3])
    @pytest.mark.parametrize("name", SUPPORT_CASES)
    def test_support_shapes_match_oracle(self, rng, name, min_component):
        member_channels = support_case(name, rng)
        cfg = DetectionConfig(min_component_voxels=min_component)
        amap = build_attention(prediction_set("c", member_channels), cfg)
        self.assert_attention_matches(amap, member_channels, cfg)

    def test_overlap_spans_support_boxes(self, rng):
        member_channels = support_case("overlapping_boxes", rng)
        amap = build_attention(prediction_set("c", member_channels))
        # Where the boxes of organs 1 and 2 intersect, every member gives organ 1
        # a 1.0 (std and entropy 0): its mask holds these voxels only as overlap.
        assert amap.union_mask.values[2:4, :, :2].all()
        assert amap.organ_mask(1).values[2:4, :, :2].all()
        assert amap.organ_mask(2).values[2:4, :, :2].all()

    def test_reduction_runs_over_the_support_box(self, monkeypatch):
        from segqa import detect

        shapes = []

        def recording(arrays):
            shapes.append({a.shape for a in arrays})
            return stable_mean_std(arrays)

        monkeypatch.setattr(detect, "stable_mean_std", recording)
        organ1 = [np.zeros((8, 7, 6), np.float32) for _ in range(2)]
        organ1[0][2:5, 1, 4] = 0.7
        organ1[1][3, 2, 5] = -0.0  # -0.0 lies outside the support
        organ1[1][4, 2, 3] = 1.0
        organ2 = np.zeros((8, 7, 6), np.float32)
        amap = build_attention(prediction_set("c", [[organ1[0], organ2], [organ1[1], organ2]]))
        assert shapes == [{(3, 2, 2)}, {(0, 0, 0)}]
        assert amap.per_organ_mm3 == (4.0, 0.0)

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        members=st.integers(2, 4),
        kinds=st.lists(st.sampled_from(["no_zero", "all_zero", "boxes"]), min_size=1, max_size=4),
    )
    def test_crops_match_oracle_for_any_supports(self, seed, members, kinds):
        """Organs with no exact zero (the box is the volume), all-zero organs
        (an empty box) and organs whose members each fill their own box, with
        -0.0 scattered outside it, reduce as the dense sorted stack does."""
        rng = np.random.default_rng(seed)
        dims = (5, 4, 3)
        member_channels = [[] for _ in range(members)]
        for kind in kinds:
            for channels in member_channels:
                ch = np.where(rng.random(dims) < 0.5, -0.0, 0.0).astype(np.float32)
                if kind == "no_zero":
                    ch = (rng.integers(1, 11, dims) / 10).astype(np.float32)
                elif kind == "boxes":
                    lo = [int(rng.integers(0, n)) for n in dims]
                    box = tuple(slice(a, int(rng.integers(a + 1, n + 1))) for a, n in zip(lo, dims))
                    ch[box] = rng.integers(0, 11, ch[box].shape) / 10
                channels.append(ch)
        cfg = DetectionConfig(binarize_threshold=0.3)
        ps = prediction_set("c", member_channels)
        ref = self.assert_attention_matches(build_attention(ps, cfg), member_channels, cfg)
        assert np.array_equal(ensemble_label(ps, 0.3).grid.values, ref["labels"])

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
        ref = self.assert_attention_matches(amap, member_channels, cfg)
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
        # though its float64 mean does not pass for attention. The members agree
        # and H(0.7) < 1, so at the entropy threshold of 1 only overlap could
        # put the voxel in the union.
        cfg = DetectionConfig(binarize_threshold=0.7, entropy_threshold=1.0)
        value = np.full((1, 1, 1), 0.7, dtype=np.float32)
        ps = prediction_set("c", [[value, value]] * 2)
        amap, labels = build_attention(ps, cfg), ensemble_label(ps, 0.7)
        assert labels.grid.values[0, 0, 0] == 1
        assert amap.union_mask.values[0, 0, 0] == 0
        expected = labels_from_soft(*whole([value] * 2), 0.7).grid.values
        assert np.array_equal(labels.grid.values, expected)
