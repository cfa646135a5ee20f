import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from grids import WHOLE, float_grid, make_grid, mask_grid, whole
from oracles import sorted_stack_mean_std, stacked_labels
from segqa.campaign import _labels_as_predictions
from segqa.ensemble import ensemble_label
from segqa.volume import (
    DEFAULT_ORGANS,
    AlignmentError,
    ChannelError,
    LabelVolume,
    PredictionSet,
    ProbabilityRangeError,
    SoftPrediction,
    VolumeGrid,
    grids_aligned,
    labels_from_soft,
    organ_names,
    stable_mean,
    stable_mean_std,
    support_box,
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

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_affine(self, bad):
        affine = np.eye(4)
        affine[1, 3] = bad
        with pytest.raises(ValueError, match="affine must be finite"):
            VolumeGrid(np.zeros((2, 2, 2), dtype=np.uint8), affine=affine)
        affine.flags.writeable = False  # the form a grid stores
        with pytest.raises(ValueError, match="affine must be finite"):
            VolumeGrid(np.zeros((2, 2, 2), dtype=np.uint8), affine=affine)

    def test_with_values_shares_the_affine(self):
        g = make_grid(np.zeros((2, 2, 2)), spacing=(0.8, 0.8, 2.5), dtype=np.uint8)
        derived = g.with_values(np.ones((2, 2, 2), dtype=np.uint8))
        assert derived.affine is g.affine
        assert derived.spacing == g.spacing


def _aligned_by_rule(a: VolumeGrid, b: VolumeGrid) -> bool:
    return a.dims == b.dims and a.spacing == b.spacing and np.allclose(a.affine, b.affine, atol=1e-5)


def _offset(delta: float, at=(0, 3)) -> np.ndarray:
    affine = np.diag((0.8, 0.8, 2.5, 1.0))
    affine[at] += delta
    return affine


def _negative_zeros() -> np.ndarray:
    affine = np.diag((0.8, 0.8, 2.5, 1.0))
    affine[affine == 0] = -0.0
    return affine


class TestGridsAligned:
    """grids_aligned against dims == dims, spacing == spacing and allclose(atol=1e-5)."""

    BASE = np.diag((0.8, 0.8, 2.5, 1.0))
    CASES = {
        "same object": None,
        "equal copy": BASE.copy(),
        "equal list": BASE.tolist(),
        "-0.0 for 0.0": _negative_zeros(),
        "offset 1e-6": _offset(1e-6),
        "offset -1e-6 on the diagonal": _offset(-1e-6, at=(1, 1)),
        "offset 1e-4": _offset(1e-4),
        "offset 1e-4 on the diagonal": _offset(1e-4, at=(2, 2)),
        "rotated": np.array([[0.0, -0.8, 0, 0], [0.8, 0, 0, 0], [0, 0, 2.5, 0], [0, 0, 0, 1]]),
    }

    @pytest.mark.parametrize("name", list(CASES))
    def test_matches_the_allclose_rule(self, name):
        values = np.zeros((3, 2, 2), dtype=np.uint8)
        a = VolumeGrid(values, (0.8, 0.8, 2.5), self.BASE)
        other = self.CASES[name]
        b = a.with_values(values) if other is None else VolumeGrid(values, (0.8, 0.8, 2.5), other)
        for x, y in ((a, b), (b, a)):
            assert grids_aligned(x, y) is _aligned_by_rule(x, y)

    @pytest.mark.parametrize(
        "spacing_b, dims_b",
        [
            ((0.80000001, 0.8, 2.5), (3, 2, 2)),  # equal only after float32 rounding
            ((np.float32(0.8), 0.8, 2.5), (3, 2, 2)),
            ((0.8001, 0.8, 2.5), (3, 2, 2)),
            ((0.8, 0.8, 2.5), (2, 3, 2)),
        ],
    )
    def test_spacing_and_dims(self, spacing_b, dims_b):
        a = VolumeGrid(np.zeros((3, 2, 2), dtype=np.uint8), (0.8, 0.8, 2.5))
        b = VolumeGrid(np.zeros(dims_b, dtype=np.uint8), spacing_b)
        for x, y in ((a, b), (b, a)):
            assert grids_aligned(x, y) is _aligned_by_rule(x, y)


class TestOrganLabelMap:
    """The organ map is a function of the organ count: organ_names(n)."""

    def test_default_has_nine_organs_in_order(self):
        assert organ_names(9) == ("Spl", "RKid", "LKid", "Gall", "Liv", "Sto", "Aor", "IVC", "Pan")

    def test_generic(self):
        assert organ_names(2) == ("organ1", "organ2")

    def test_channel_count_dispatch(self):
        assert organ_names(9) == tuple(name for _, name in DEFAULT_ORGANS)
        assert organ_names(3) == ("organ1", "organ2", "organ3")
        assert organ_names(10) == tuple(f"organ{i}" for i in range(1, 11))
        with pytest.raises(ValueError):
            organ_names(0)


class TestLabelsFromSoft:
    def test_clear_winner(self):
        lv = labels_from_soft(
            *whole([float_grid([[[0.9]]]), float_grid([[[0.1]]])]), 0.5
        )
        assert lv.grid.values[0, 0, 0] == 1

    def test_below_threshold_is_background(self):
        lv = labels_from_soft(
            *whole([float_grid([[[0.3]]]), float_grid([[[0.3]]])]), 0.5
        )
        assert lv.grid.values[0, 0, 0] == 0

    def test_threshold_is_inclusive(self):
        lv = labels_from_soft(*whole([float_grid(np.array([0.49, 0.50]).reshape(2, 1, 1))]), 0.5)
        assert lv.grid.values.ravel().tolist() == [0, 1]

    def test_rejects_bad_threshold(self):
        for threshold in (0.0, 1.0, -0.1):
            with pytest.raises(ValueError):
                labels_from_soft(*whole([float_grid(np.zeros((1, 1, 1)))]), threshold)

    def test_tie_breaks_to_lowest_code(self):
        lv = labels_from_soft(
            *whole([float_grid([[[0.6]]]), float_grid([[[0.6]]])]), 0.5
        )
        assert lv.grid.values[0, 0, 0] == 1

    def test_misaligned_channels_rejected(self):
        with pytest.raises(AlignmentError):
            labels_from_soft(
                *whole([float_grid(np.zeros((2, 1, 1))), float_grid(np.zeros((1, 1, 1)))]), 0.5
            )

    @pytest.mark.parametrize("dtypes", [("f4",) * 4, ("f4", "u1", "f4", "i2")])
    def test_matches_channel_stack_argmax(self, rng, dtypes):
        # Coarse values make ties between channels common; 0.7 is not exact in float32.
        arrays = [(rng.integers(0, 11, (7, 7, 7)) / 10).astype(d) for d in dtypes]
        arrays[2][:2] = arrays[1][:2]
        arrays[1][0, 0, 0] = -0.0
        for t in (0.05, 0.3, 0.5, 0.7, 0.95):
            lv = labels_from_soft(*whole([make_grid(a, dtype=a.dtype) for a in arrays]), t)
            assert lv.grid.values.dtype == np.uint8
            assert np.array_equal(lv.grid.values, stacked_labels(arrays, t))

    def test_default_map_for_nine_channels(self):
        channels = [float_grid(np.zeros((1, 1, 1))) for _ in range(9)]
        assert organ_names(labels_from_soft(*whole(channels)).organs) == organ_names(9)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(1, 4), st.integers(1, 3))
    def test_codes_bounded_by_channel_count(self, organs, side):
        rng = np.random.default_rng(organs * 10 + side)
        channels = [
            float_grid(rng.random((side, side, side), dtype=np.float32))
            for _ in range(organs)
        ]
        lv = labels_from_soft(*whole(channels), 0.5)
        assert int(lv.grid.values.max()) <= organs


class TestPredictionTypes:
    def test_probabilities_validated(self):
        grid = float_grid([[[1.5]]])
        with pytest.raises(ProbabilityRangeError, match=r"model 'm', organ 1\b"):
            PredictionSet("c", ("m",), grid, [SoftPrediction(WHOLE, (grid.values,))])

    def test_nan_probabilities_rejected_with_model_and_organ(self):
        ok = float_grid([[[0.5]]])
        with pytest.raises(ProbabilityRangeError, match=r"model 'm', organ 2\b") as exc:
            PredictionSet.from_channels("c", ["m"], [[ok], [float_grid([[[np.nan]]])]])
        assert exc.value.code == 2

    def test_range_error_reports_the_whole_channel(self):
        values = np.zeros((3, 3, 3))
        values[1, 1, 1] = 1.5
        with pytest.raises(ProbabilityRangeError, match=r"range 0\.0\.\.1\.5$"):
            PredictionSet.from_channels("c", ["m"], [[float_grid(values)]])

    @pytest.mark.parametrize("dtype", [np.int16, np.uint8])
    def test_integer_channel_raises_channel_error(self, dtype):
        ok = float_grid(np.zeros((2, 2, 2)))
        bad = make_grid(np.ones((2, 2, 2)), dtype=dtype)
        with pytest.raises(ChannelError, match=r"^model 'm2', organ 2: soft channels must be "
                                               rf"float32, got {np.dtype(dtype)}$") as exc:
            PredictionSet.from_channels("c", ["m1", "m2"], [[ok, ok], [ok, bad]])
        assert (exc.value.member, exc.value.code) == (1, 2)

    def test_member_alignment_validated(self):
        a = float_grid(np.zeros((2, 1, 1)))
        b = float_grid(np.zeros((1, 1, 1)))
        with pytest.raises(AlignmentError):
            PredictionSet.from_channels("c", ["m1", "m2"], [[a, b]])

    def test_channel_count_must_match(self):
        zero = float_grid(np.zeros((1, 1, 1)))
        with pytest.raises(AlignmentError):
            PredictionSet.from_channels("c", ["m1", "m2"], [[zero, zero], [zero]])

    def test_label_volume_rejects_out_of_map_codes(self):
        with pytest.raises(ValueError):
            LabelVolume(make_grid([[[5]]], dtype=np.uint8), 2)


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
        # Labels recycled as hard members, as later campaign loops do, average
        # back to the same labels.
        values = np.array([[[0, 1], [2, 0]], [[0, 0], [0, 2]]], dtype=np.uint8)
        lv = LabelVolume(make_grid(values, dtype=np.uint8), 3)
        back = ensemble_label(_labels_as_predictions("c", lv, 1), 0.5)
        assert np.array_equal(back.grid.values, values)


class TestSupportBox:
    def test_box_of_any_member_nonzero(self):
        a = np.zeros((4, 5, 6), np.float32)
        a[1, 2, 3] = 0.5
        b = np.zeros_like(a)
        b[2, 4, 0] = 1.0
        b[3, 0, 5] = -0.0  # -0.0 is zero
        assert support_box([a, b]) == (slice(1, 3), slice(2, 5), slice(0, 4))

    def test_no_nonzero_voxel_gives_an_empty_box(self):
        a = np.full((3, 3, 3), -0.0, np.float32)
        box = support_box([a, np.zeros_like(a)])
        assert a[box].shape == (0, 0, 0)
