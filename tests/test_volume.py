import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from grids import float_grid, make_grid, mask_grid
from oracles import sorted_stack_mean_std, stacked_labels
from segqa.volume import (
    AlignmentError,
    LabelVolume,
    OrganLabelMap,
    PredictionSet,
    ProbabilityRangeError,
    SoftPrediction,
    VolumeGrid,
    binarize,
    labels_from_soft,
    physical_volume,
    soft_from_labels,
    stable_mean,
    stable_mean_std,
)


class TestVolumeGrid:
    def test_rejects_bad_dtype(self):
        with pytest.raises(TypeError):
            VolumeGrid(np.zeros((2, 2, 2), dtype=np.float64))

    def test_rejects_bad_spacing(self):
        with pytest.raises(ValueError):
            VolumeGrid(np.zeros((2, 2, 2), dtype=np.uint8), spacing=(1.0, 0.0, 1.0))

    def test_rejects_non_3d(self):
        with pytest.raises(ValueError):
            VolumeGrid(np.zeros((2, 2), dtype=np.uint8))

    def test_values_read_only(self):
        g = mask_grid(np.zeros((2, 2, 2)))
        with pytest.raises(ValueError):
            g.values[0, 0, 0] = 1

    def test_voxel_volume(self):
        g = mask_grid(np.zeros((1, 1, 1)), spacing=(0.5, 0.5, 2.0))
        assert g.voxel_volume_mm3 == 0.5

    def test_default_affine_is_spacing_scaled(self):
        g = mask_grid(np.zeros((1, 1, 1)), spacing=(2.0, 3.0, 4.0))
        assert np.allclose(np.diag(g.affine), (2.0, 3.0, 4.0, 1.0))


class TestOrganLabelMap:
    def test_default_has_nine_organs_in_order(self):
        m = OrganLabelMap.default()
        assert m.names == ("Spl", "RKid", "LKid", "Gall", "Liv", "Sto", "Aor", "IVC", "Pan")
        assert m.codes == tuple(range(1, 10))

    def test_codes_must_be_contiguous(self):
        with pytest.raises(ValueError):
            OrganLabelMap(((1, "a"), (3, "b")))

    def test_generic(self):
        m = OrganLabelMap.generic(2)
        assert m.names == ("organ1", "organ2")

    def test_channel_count_dispatch(self):
        assert OrganLabelMap.for_channel_count(9) == OrganLabelMap.default()
        assert OrganLabelMap.for_channel_count(3) == OrganLabelMap.generic(3)


class TestBinarize:
    def test_all_zero(self):
        g = float_grid(np.zeros((2, 2, 2)))
        assert not binarize(g, 0.5).values.any()

    def test_all_one(self):
        g = float_grid(np.ones((2, 2, 2)))
        assert binarize(g, 0.5).values.all()

    def test_threshold_is_inclusive(self):
        g = float_grid(np.array([0.49, 0.50]).reshape(2, 1, 1))
        out = binarize(g, 0.5)
        assert out.values.ravel().tolist() == [0, 1]

    def test_rejects_bad_threshold(self):
        g = float_grid(np.zeros((1, 1, 1)))
        with pytest.raises(ValueError):
            binarize(g, 0.0)

    @settings(max_examples=50, deadline=None)
    @given(
        st.lists(st.floats(0, 1, width=32), min_size=1, max_size=8),
        st.floats(0.01, 0.99),
    )
    def test_idempotent(self, probs, threshold):
        g = float_grid(np.array(probs, dtype=np.float32).reshape(-1, 1, 1))
        once = binarize(g, threshold)
        twice = binarize(once.with_values(once.values.astype(np.float32)), threshold)
        assert np.array_equal(once.values, twice.values)


class TestLabelsFromSoft:
    def test_clear_winner(self):
        lv = labels_from_soft(
            [float_grid([[[0.9]]]), float_grid([[[0.1]]])], 0.5
        )
        assert lv.grid.values[0, 0, 0] == 1

    def test_below_threshold_is_background(self):
        lv = labels_from_soft(
            [float_grid([[[0.3]]]), float_grid([[[0.3]]])], 0.5
        )
        assert lv.grid.values[0, 0, 0] == 0

    def test_tie_breaks_to_lowest_code(self):
        lv = labels_from_soft(
            [float_grid([[[0.6]]]), float_grid([[[0.6]]])], 0.5
        )
        assert lv.grid.values[0, 0, 0] == 1

    def test_misaligned_channels_rejected(self):
        with pytest.raises(AlignmentError):
            labels_from_soft(
                [float_grid(np.zeros((2, 1, 1))), float_grid(np.zeros((1, 1, 1)))], 0.5
            )

    @pytest.mark.parametrize("dtypes", [("f4",) * 4, ("f4", "u1", "f4", "i2")])
    def test_matches_channel_stack_argmax(self, rng, dtypes):
        # Coarse values make ties between channels common; 0.7 is not exact in float32.
        arrays = [(rng.integers(0, 11, (7, 7, 7)) / 10).astype(d) for d in dtypes]
        arrays[2][:2] = arrays[1][:2]
        arrays[1][0, 0, 0] = -0.0
        for t in (0.05, 0.3, 0.5, 0.7, 0.95):
            lv = labels_from_soft([make_grid(a, dtype=a.dtype) for a in arrays], t)
            assert lv.grid.values.dtype == np.uint8
            assert np.array_equal(lv.grid.values, stacked_labels(arrays, t))

    def test_default_map_for_nine_channels(self):
        channels = [float_grid(np.zeros((1, 1, 1))) for _ in range(9)]
        assert labels_from_soft(channels).labels == OrganLabelMap.default()

    @settings(max_examples=30, deadline=None)
    @given(st.integers(1, 4), st.integers(1, 3))
    def test_codes_bounded_by_channel_count(self, organs, side):
        rng = np.random.default_rng(organs * 10 + side)
        channels = [
            float_grid(rng.random((side, side, side), dtype=np.float32))
            for _ in range(organs)
        ]
        lv = labels_from_soft(channels, 0.5)
        assert int(lv.grid.values.max()) <= organs


class TestPhysicalVolume:
    def test_empty_mask(self):
        assert physical_volume(mask_grid(np.zeros((3, 3, 3)))) == 0.0

    def test_unit_spacing(self):
        v = np.zeros((4, 4, 4))
        v.ravel()[:10] = 1
        assert physical_volume(mask_grid(v)) == 10.0

    def test_anisotropic_spacing(self):
        v = np.zeros((4, 1, 1))
        v[:4] = 1
        assert physical_volume(mask_grid(v, spacing=(0.5, 0.5, 2.0))) == 2.0

    def test_rejects_non_binary(self):
        with pytest.raises(ValueError):
            physical_volume(make_grid(np.full((1, 1, 1), 3), dtype=np.uint8))

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 63))
    def test_additive_over_disjoint_masks(self, split):
        rng = np.random.default_rng(split)
        full = rng.integers(0, 2, (4, 4, 4)).astype(np.uint8)
        cut = np.zeros(64, dtype=bool)
        cut[:split] = True
        cut = cut.reshape(4, 4, 4)
        a = mask_grid(np.where(cut, full, 0))
        b = mask_grid(np.where(cut, 0, full))
        assert physical_volume(a) + physical_volume(b) == physical_volume(mask_grid(full))


class TestPredictionTypes:
    def test_probabilities_validated(self):
        with pytest.raises(ValueError):
            SoftPrediction("m", (float_grid([[[1.5]]]),))

    def test_nan_probabilities_rejected_with_model_and_organ(self):
        ok = float_grid([[[0.5]]])
        with pytest.raises(ProbabilityRangeError, match=r"model 'm', organ 2\b") as exc:
            SoftPrediction("m", (ok, float_grid([[[np.nan]]])))
        assert exc.value.code == 2

    def test_member_alignment_validated(self):
        a = SoftPrediction("m1", (float_grid(np.zeros((2, 1, 1))),))
        b = SoftPrediction("m2", (float_grid(np.zeros((1, 1, 1))),))
        with pytest.raises(AlignmentError):
            PredictionSet("c", (a, b))

    def test_channel_count_must_match(self):
        a = SoftPrediction("m1", (float_grid(np.zeros((1, 1, 1))),))
        b = SoftPrediction(
            "m2",
            (float_grid(np.zeros((1, 1, 1))), float_grid(np.zeros((1, 1, 1)))),
        )
        with pytest.raises(AlignmentError):
            PredictionSet("c", (a, b))

    def test_label_volume_rejects_out_of_map_codes(self):
        with pytest.raises(ValueError):
            LabelVolume(make_grid([[[5]]], dtype=np.uint8), OrganLabelMap.generic(2))


# Values that stress an order-stable sum: denormals, 1e-30 next to 1.0,
# signed zeros, exact ties (values repeat across members) and negatives,
# which the sort keys of the network map differently from positives.
ADVERSARIAL = [0.0, -0.0, 1e-45, 1e-40, 1e-30, 0.1, 0.3, 0.5, 1.0 - 2.0**-24, 1.0, -1e-30, -0.5]


class TestStableReductions:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("members", [2, 3, 4, 5])
    def test_network_matches_sorted_stack_bit_exact(self, members, dtype):
        rng = np.random.default_rng(members)
        pool = np.array(ADVERSARIAL + ([5e-324, 1e-310] if dtype == np.float64 else []), dtype)
        arrays = [rng.choice(pool, size=(8, 8, 4)) for _ in range(members)]
        ref_mean, ref_std = sorted_stack_mean_std(arrays)
        for perm in itertools.permutations(arrays):
            mean, std = stable_mean_std(list(perm))
            assert np.array_equal(mean.view(np.int64), ref_mean.view(np.int64))
            assert np.array_equal(std.view(np.int64), ref_std.view(np.int64))
            assert np.array_equal(stable_mean(list(perm)).view(np.int64), ref_mean.view(np.int64))

    def test_mean_matches_plain_mean(self, rng):
        arrays = [rng.random((3, 3, 3)) for _ in range(3)]
        assert np.allclose(stable_mean(arrays), np.mean(arrays, axis=0))

    def test_permutation_bit_exact(self, rng):
        arrays = [rng.random((4, 4, 4), dtype=np.float32) for _ in range(3)]
        m1, s1 = stable_mean_std(arrays)
        m2, s2 = stable_mean_std(arrays[::-1])
        m3, s3 = stable_mean_std([arrays[1], arrays[2], arrays[0]])
        assert np.array_equal(m1, m2) and np.array_equal(m1, m3)
        assert np.array_equal(s1, s2) and np.array_equal(s1, s3)

    def test_round_trip_through_one_hot(self):
        values = np.array([[[0, 1], [2, 0]]], dtype=np.uint8)
        lv = LabelVolume(make_grid(values, dtype=np.uint8), OrganLabelMap.generic(2))
        channels = soft_from_labels(lv)
        back = labels_from_soft(list(channels), 0.5, lv.labels)
        assert np.array_equal(back.grid.values, values)
