import tempfile
import tracemalloc
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from grids import make_grid, mask_grid
from oracles import (
    componentwise_oracle,
    first_voxel_components,
    first_voxel_componentwise,
    flood_components,
    per_organ_mean_dsc,
)
from segqa.corpus import write_csv, write_json
from segqa.nifti import NiftiFormatError
from segqa.regions import (
    METRICS_CSV_HEADER,
    ConfusionCounts,
    OrganMetrics,
    componentwise_metrics,
    connected_components,
    dsc,
    dsc_matrix,
    evaluate_case,
    false_positive_scan,
    mean_label_dsc,
    metrics_csv_rows,
    metrics_json_dict,
    organ_error,
    remove_small_components,
)
from segqa.volume import AlignmentError, LabelVolume, organ_names


def label_volume(values, organs=2):
    return LabelVolume(make_grid(values, dtype=np.uint8), organs)


class TestConnectedComponents:
    def test_empty_mask(self):
        labels, count = connected_components(mask_grid(np.zeros((3, 3, 3))))
        assert count == 0
        assert labels.dtype == np.int32
        assert not labels.any()

    def test_corner_touch_depends_on_connectivity(self):
        v = np.zeros((2, 2, 2))
        v[0, 0, 0] = 1
        v[1, 1, 1] = 1
        m = mask_grid(v)
        assert connected_components(m, 26)[1] == 1
        assert connected_components(m, 18)[1] == 2
        assert connected_components(m, 6)[1] == 2

    def test_solid_cube(self):
        labels, count = connected_components(mask_grid(np.ones((3, 3, 3))))
        assert count == 1
        assert (labels == 1).all()

    def test_rejects_non_binary(self):
        with pytest.raises(ValueError):
            connected_components(make_grid(np.full((2, 2, 2), 2), dtype=np.uint8))

    def test_rejects_bad_connectivity(self):
        with pytest.raises(ValueError):
            connected_components(mask_grid(np.zeros((2, 2, 2))), connectivity=4)

    @pytest.mark.parametrize("connectivity", [6, 18, 26])
    def test_partition_matches_flood_fill(self, rng, connectivity):
        for v in oracle_masks(rng):
            labels, count = connected_components(mask_grid(v), connectivity)
            assert labels.dtype == np.int32
            blobs = flood_components(v != 0, connectivity)
            # Ids are not promised in any order, so compare the sets of blobs.
            got = [{tuple(c) for c in np.argwhere(labels == i)} for i in range(1, count + 1)]
            assert len(got) == count == len(blobs)
            assert sorted(map(sorted, got)) == sorted(map(sorted, blobs))
            assert (labels != 0).sum() == (v != 0).sum()


def face_masks(rng):
    """Sparse random masks plus, per case, voxels on one face or on all six."""
    shape = (6, 5, 4)
    faces = [(axis, end) for axis in range(3) for end in (0, -1)]
    out = []
    for axis, end in faces:
        v = (rng.random(shape) < 0.15).astype(np.uint8)
        index = [slice(None)] * 3
        index[axis] = end
        v[tuple(index)] = rng.random(v[tuple(index)].shape) < 0.6
        out.append(v)
    shell = np.ones(shape, dtype=np.uint8)
    shell[1:-1, 1:-1, 1:-1] = 0  # one component touching every face
    out.append(shell)
    corners = np.zeros(shape, dtype=np.uint8)
    corners[::5, ::4, ::3] = 1  # one voxel in each corner of the volume
    out.append(corners)
    return out


def oracle_masks(rng):
    """Random masks of several shapes and densities, face cases and thin volumes."""
    out = []
    for shape in ((5, 5, 5), (7, 4, 3), (3, 6, 9)):
        for density in (0.05, 0.3, 0.6):
            out += [(rng.random(shape) < density).astype(np.uint8) for _ in range(4)]
    out += face_masks(rng)
    for shape in ((1, 6, 5), (6, 1, 5), (6, 5, 1), (1, 1, 8), (8, 1, 1), (1, 1, 1)):
        out += [(rng.random(shape) < 0.5).astype(np.uint8) for _ in range(3)]
    out.append(np.zeros((4, 3, 2), dtype=np.uint8))
    out.append(np.ones((4, 3, 2), dtype=np.uint8))
    return out


class TestFirstVoxelOracle:
    """The cropped metrics and the other labelers equal the whole-volume first-voxel references."""

    @pytest.mark.parametrize("connectivity", [6, 18, 26])
    def test_remove_small_matches_reference_sizes(self, rng, connectivity):
        for v in oracle_masks(rng):
            labels, _ = first_voxel_components(v, connectivity)
            keep = np.bincount(labels.ravel()) >= 3
            keep[0] = False
            out = remove_small_components(mask_grid(v), 3, connectivity)
            assert np.array_equal(out.values, keep[labels].astype(np.uint8))

    @pytest.mark.parametrize("connectivity", [6, 18, 26])
    def test_metrics_match_first_voxel_reference(self, rng, connectivity):
        masks = oracle_masks(rng)
        pairs = []
        for v in masks:
            # Pair each mask with a random one, then leave out either side or both.
            pairs.append((v, (rng.random(v.shape) < 0.3).astype(np.uint8)))
            pairs.append((v, np.zeros_like(v)))
            pairs.append((np.zeros_like(v), v))
            pairs.append((np.zeros_like(v), np.zeros_like(v)))
        whole = np.zeros((5, 4, 3), dtype=np.uint8)
        far = np.zeros_like(whole)
        whole[0, 0, 0] = far[-1, -1, -1] = 1  # the crop box is the whole volume
        pairs += [(whole, far), (far, whole), (whole | far, far)]
        for att, err in pairs:
            s, p, counts = componentwise_metrics(mask_grid(att), mask_grid(err), connectivity)
            expected = first_voxel_componentwise(att, err, connectivity)
            assert (s, p, counts.tp, counts.fp, counts.fn) == expected

    def test_scan_counts_match_reference(self, rng):
        masks = oracle_masks(rng)
        for connectivity in (6, 18, 26):
            scan = false_positive_scan(
                [(f"c{i}", mask_grid(v)) for i, v in enumerate(masks)], connectivity
            )
            expected = [first_voxel_components(v, connectivity)[1] for v in masks]
            assert [c.component_count for c in scan.per_case] == expected
            assert scan.total_component_count == sum(expected)
            assert scan.flagged_case_count == sum(1 for v in masks if v.any())


class TestRemoveSmall:
    def test_noop_for_zero_minimum(self, rng):
        v = (rng.random((4, 4, 4)) < 0.3).astype(np.uint8)
        m = mask_grid(v)
        assert np.array_equal(remove_small_components(m, 0).values, v)

    def test_drops_below_threshold(self):
        v = np.zeros((7, 1, 1))
        v[0] = 1  # singleton
        v[3:6] = 1  # triple
        out = remove_small_components(mask_grid(v), 2, connectivity=6)
        assert out.values.sum() == 3


class TestErrorRegion:
    """The error region half of organ_error: pseudo XOR truth for one organ code."""

    def test_identical_masks(self, rng):
        lv = label_volume(rng.integers(0, 3, (3, 3, 3)))
        for code in (1, 2):
            region, organ_dsc = organ_error(lv, lv, code)
            assert not region.values.any() and organ_dsc == 1.0

    def test_pure_false_negative(self):
        truth = np.zeros((2, 2, 2))
        truth[0] = 1
        region, _ = organ_error(label_volume(np.zeros((2, 2, 2))), label_volume(truth), 1)
        assert region.values.dtype == np.uint8
        assert np.array_equal(region.values, truth.astype(np.uint8))

    def test_symmetric_difference(self):
        pseudo = label_volume([[[2]], [[2]], [[1]]])  # organ 2 at {A, B}
        truth = label_volume([[[0]], [[2]], [[2]]])  # organ 2 at {B, C}
        region, _ = organ_error(pseudo, truth, 2)
        assert region.values.ravel().tolist() == [1, 0, 1]

    def test_symmetric_in_arguments(self, rng):
        a = label_volume(rng.integers(0, 3, (3, 3, 3)))
        b = label_volume(rng.integers(0, 3, (3, 3, 3)))
        for code in (1, 2):
            (ab, dsc_ab), (ba, dsc_ba) = organ_error(a, b, code), organ_error(b, a, code)
            assert np.array_equal(ab.values, ba.values) and dsc_ab == dsc_ba

    def test_alignment_checked(self):
        with pytest.raises(AlignmentError):
            organ_error(label_volume(np.zeros((2, 2, 2))), label_volume(np.zeros((3, 3, 3))), 1)


ORDERS = ("C", "F")


class TestOrganError:
    @settings(max_examples=80, deadline=None)
    @given(
        dims=st.tuples(*(st.integers(1, 6),) * 3),
        seed=st.integers(0, 2**32 - 1),
        orders=st.tuples(st.sampled_from(ORDERS), st.sampled_from(ORDERS)),
        truth_dtype=st.sampled_from((np.uint8, np.int16)),
    )
    def test_dice_matches_the_oracle_and_dsc_bit_for_bit(self, dims, seed, orders, truth_dtype):
        organs = 4
        rng = np.random.default_rng(seed)
        # Few codes per volume leave some organs empty on one side or both.
        present = rng.choice(np.arange(organs + 1), size=int(rng.integers(1, 4)))
        a = np.asarray(rng.choice(present, size=dims), np.uint8, order=orders[0])
        b = np.asarray(rng.choice(present, size=dims), truth_dtype, order=orders[1])
        pseudo, truth = LabelVolume(make_grid(a), organs), LabelVolume(make_grid(b), organs)
        for code in range(1, organs + 1):
            region, got = organ_error(pseudo, truth, code)
            expected = dsc(mask_grid(a == code), mask_grid(b == code))
            oracle = per_organ_mean_dsc(a, b, [code])
            assert np.float64(got).tobytes() == np.float64(expected).tobytes()
            assert np.float64(got).tobytes() == np.float64(oracle).tobytes()
            assert np.array_equal(region.values, (a == code) ^ (b == code))

    def test_mean_label_dsc_holds_few_bytes_per_voxel(self):
        """Two boolean masks at a time: no per-voxel histogram, also on mixed orders."""
        dims = (64, 64, 32)
        rng = np.random.default_rng(3)
        a = LabelVolume(make_grid(rng.integers(0, 10, dims).astype(np.uint8)), 9)
        b = LabelVolume(make_grid(np.asfortranarray(rng.integers(0, 10, dims), np.uint8)), 9)
        mean_label_dsc(a, b)  # warm-up outside the measurement
        tracemalloc.start()
        try:
            mean_label_dsc(a, b)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * int(np.prod(dims))


class TestComponentwiseMetrics:
    def test_perfect_detection(self):
        v = np.zeros((4, 4, 4))
        v[1:3, 1:3, 1:3] = 1
        s, p, counts = componentwise_metrics(mask_grid(v), mask_grid(v))
        assert s == 1.0 and p == 1.0
        assert (counts.tp, counts.fp, counts.fn) == (1, 0, 0)

    def test_half_sensitivity(self):
        errors = np.zeros((9, 1, 1))
        errors[0:2] = 1
        errors[6:8] = 1
        attention = np.zeros((9, 1, 1))
        attention[0] = 1  # touches first blob only
        s, p, counts = componentwise_metrics(mask_grid(attention), mask_grid(errors), 6)
        assert s == 0.5
        assert counts.tp == 1 and counts.fn == 1

    def test_precision_three_quarters(self):
        attention = np.zeros((9, 9, 1))
        for i, x in enumerate((0, 2, 4, 6)):
            attention[x, 0] = 1
        errors = np.zeros((9, 9, 1))
        errors[0, 0] = errors[2, 0] = errors[4, 0] = 1  # miss the 4th component
        s, p, counts = componentwise_metrics(mask_grid(attention), mask_grid(errors), 6)
        assert p == 0.75
        assert counts.fp == 1

    def test_undefined_sensitivity_when_no_errors(self):
        attention = np.zeros((3, 3, 3))
        attention[0, 0, 0] = 1
        s, p, counts = componentwise_metrics(
            mask_grid(attention), mask_grid(np.zeros((3, 3, 3)))
        )
        assert s is None
        assert p == 0.0
        assert counts.fp == 1

    def test_undefined_precision_when_no_attention(self):
        errors = np.zeros((3, 3, 3))
        errors[0, 0, 0] = 1
        s, p, counts = componentwise_metrics(
            mask_grid(np.zeros((3, 3, 3))), mask_grid(errors)
        )
        assert p is None
        assert s == 0.0

    def test_both_empty_all_undefined(self):
        s, p, counts = componentwise_metrics(
            mask_grid(np.zeros((2, 2, 2))), mask_grid(np.zeros((2, 2, 2)))
        )
        assert s is None and p is None
        assert (counts.tp, counts.fp, counts.fn) == (0, 0, 0)

    @pytest.mark.parametrize("attention_is_bad", [True, False])
    @pytest.mark.parametrize("case", ["float32_all_zero", "two_on_far_corner", "int16_minus_one"])
    def test_rejects_non_binary_anywhere(self, case, attention_is_bad):
        # The labels cover only the support box, so a bad value far from the
        # other mask, or a float mask with no voxel set, must still fail.
        good = np.zeros((5, 4, 3), dtype=np.uint8)
        good[0, 0, 0] = 1
        if case == "float32_all_zero":
            bad = make_grid(np.zeros(good.shape), dtype=np.float32)
        elif case == "two_on_far_corner":
            values = np.zeros(good.shape)
            values[-1, -1, -1] = 2
            bad = make_grid(values, dtype=np.uint8)
        else:
            values = np.zeros(good.shape)
            values[-1, -1, -1] = -1
            bad = make_grid(values, dtype=np.int16)
        for other in (good, np.zeros_like(good)):
            pair = (bad, mask_grid(other)) if attention_is_bad else (mask_grid(other), bad)
            with pytest.raises(ValueError):
                componentwise_metrics(*pair)

    @pytest.mark.parametrize("connectivity", [6, 26])
    def test_matches_oracle(self, rng, connectivity):
        for _ in range(40):
            att = (rng.random((4, 4, 4)) < 0.3).astype(np.uint8)
            err = (rng.random((4, 4, 4)) < 0.3).astype(np.uint8)
            s, p, counts = componentwise_metrics(
                mask_grid(att), mask_grid(err), connectivity
            )
            os_, op, otp, ofp, ofn = componentwise_oracle(att, err, connectivity)
            assert (s, p) == (os_, op)
            assert (counts.tp, counts.fp, counts.fn) == (otp, ofp, ofn)


class TestDsc:
    def test_identity(self, rng):
        v = (rng.random((3, 3, 3)) < 0.5).astype(np.uint8)
        v[0, 0, 0] = 1
        assert dsc(mask_grid(v), mask_grid(v)) == 1.0

    def test_disjoint(self):
        a = np.zeros((2, 1, 1))
        a[0] = 1
        b = np.zeros((2, 1, 1))
        b[1] = 1
        assert dsc(mask_grid(a), mask_grid(b)) == 0.0

    def test_hand_value(self):
        a = np.zeros((6, 1, 1))
        a[0:4] = 1
        b = np.zeros((6, 1, 1))
        b[2:6] = 1
        assert dsc(mask_grid(a), mask_grid(b)) == 0.5

    def test_both_empty_convention(self):
        z = mask_grid(np.zeros((2, 2, 2)))
        assert dsc(z, z) == 1.0

    def test_symmetry_and_range(self, rng):
        for _ in range(50):
            a = mask_grid((rng.random((3, 3, 3)) < 0.5).astype(np.uint8))
            b = mask_grid((rng.random((3, 3, 3)) < 0.5).astype(np.uint8))
            ab, ba = dsc(a, b), dsc(b, a)
            assert ab == ba
            assert 0.0 <= ab <= 1.0

    def test_one_only_for_equal_masks(self, rng):
        for _ in range(20):
            v = (rng.random((3, 3, 3)) < 0.5).astype(np.uint8)
            v[0, 0, 0] = 1
            flipped = v.copy()
            idx = tuple(rng.integers(0, 3, size=3))
            flipped[idx] ^= 1
            assert dsc(mask_grid(v), mask_grid(flipped)) < 1.0


class TestDscMatrix:
    def test_identical_labelings(self):
        mask = mask_grid([[[1, 0], [0, 1]]])
        m = dsc_matrix([mask, mask, mask])
        assert np.array_equal(m, np.ones((3, 3)))

    def test_disjoint_masks(self):
        a = mask_grid([[[1, 0]]])
        b = mask_grid([[[0, 1]]])
        m = dsc_matrix([a, b])
        assert m[0, 1] == 0.0 and m[1, 0] == 0.0
        assert m[0, 0] == 1.0 and m[1, 1] == 1.0

    def test_matches_pairwise_oracle(self, rng):
        masks = [mask_grid(rng.integers(0, 2, (4, 4, 4))) for _ in range(3)]
        m = dsc_matrix(masks)
        for i in range(3):
            for j in range(3):
                assert m[i, j] == dsc(masks[i], masks[j])
        assert np.array_equal(m, m.T)
        assert np.array_equal(np.diag(m), np.ones(3))

    def test_needs_two(self):
        with pytest.raises(ValueError):
            dsc_matrix([mask_grid([[[1]]])])


class TestMeanLabelDsc:
    def test_perfect(self):
        lv = label_volume([[[1, 2, 0]]])
        assert mean_label_dsc(lv, lv) == 1.0

    def test_mixed(self):
        a = label_volume([[[1, 0]]])
        b = label_volume([[[1, 2]]])
        # organ1 dsc 1.0, organ2 dsc 0.0 (empty vs nonempty)
        assert mean_label_dsc(a, b) == 0.5

    @pytest.mark.parametrize("dtypes", [(np.uint8, np.uint8), (np.int16, np.int16),
                                        (np.uint8, np.int16)])
    def test_matches_per_organ_loop_bit_for_bit(self, rng, dtypes):
        organs = 9
        for trial in range(40):
            dims = tuple(int(d) for d in rng.integers(1, 9, size=3))
            # Few codes per volume leave some organs absent from one or both sides.
            present = rng.choice(np.arange(organs + 1), size=int(rng.integers(1, 5)))
            a, b = (rng.choice(present, size=dims).astype(dt) for dt in dtypes)
            if trial % 10 == 0:
                a = np.zeros(dims, dtype=dtypes[0])  # all background
            lv_a, lv_b = (LabelVolume(make_grid(v), organs) for v in (a, b))
            expected = per_organ_mean_dsc(a, b, range(1, organs + 1))
            assert np.float64(mean_label_dsc(lv_a, lv_b)).tobytes() == np.float64(expected).tobytes()

    def test_all_background_scores_one(self):
        lv = label_volume(np.zeros((3, 2, 2)), organs=9)
        assert mean_label_dsc(lv, lv) == 1.0

    def test_misaligned_rejected(self):
        with pytest.raises(AlignmentError):
            mean_label_dsc(label_volume([[[1, 0]]]), label_volume([[[1]], [[0]]]))

    def test_different_maps_rejected(self):
        with pytest.raises(ValueError):
            mean_label_dsc(label_volume([[[1, 0]]]), label_volume([[[1, 0]]], organs=3))


class TestEvaluateCase:
    def test_dsc_matches_per_organ_dsc_bit_for_bit(self, rng):
        organs = 9
        for _ in range(30):
            dims = tuple(int(d) for d in rng.integers(1, 7, size=3))
            # Few codes per volume leave some organs absent from one or both sides.
            present = rng.choice(np.arange(organs + 1), size=int(rng.integers(1, 5)))
            a, b = (rng.choice(present, size=dims).astype(np.uint8) for _ in range(2))
            pseudo, truth = (LabelVolume(make_grid(v), organs) for v in (a, b))
            attention = [mask_grid(rng.random(dims) < 0.3) for _ in range(organs)]
            report = evaluate_case("c", lambda code: attention[code - 1], pseudo, truth)
            for code, name in enumerate(organ_names(organs), start=1):
                expected = dsc(mask_grid(a == code), mask_grid(b == code))
                got = report[name].dsc
                assert np.float64(got).tobytes() == np.float64(expected).tobytes()

    def test_misaligned_mask_names_the_case_and_organ(self):
        pseudo = truth = LabelVolume(make_grid(np.zeros((12, 12, 9), np.uint8)), 2)

        def read_mask(code):
            return mask_grid(np.zeros((12, 12, 9 if code == 1 else 8), bool))

        with pytest.raises(ValueError, match="case 'c7', organ 'organ2': attention mask: "):
            evaluate_case("c7", read_mask, pseudo, truth)

    def test_failed_read_names_the_case_and_organ(self):
        pseudo = truth = LabelVolume(make_grid(np.zeros((2, 2, 2), np.uint8)), 2)

        def read_mask(code):
            raise NiftiFormatError("truncated")

        with pytest.raises(ValueError, match="case 'c7', organ 'organ1': attention mask: trunc"):
            evaluate_case("c7", read_mask, pseudo, truth)

    def test_non_binary_mask_names_the_case_and_organ(self):
        pseudo = truth = LabelVolume(make_grid(np.zeros((4, 4, 4), np.uint8)), 2)

        def read_mask(code):
            return make_grid(np.full((4, 4, 4), code, np.uint8))

        with pytest.raises(ValueError, match="case 'c7', organ 'organ2': attention mask: .*binary"):
            evaluate_case("c7", read_mask, pseudo, truth)

    def test_previous_mask_released_before_the_next_is_read(self):
        """One organ's attention mask is alive at a time, also while the next is read."""
        pseudo = truth = LabelVolume(make_grid(np.ones((2, 2, 2), np.uint8)), 3)
        given = []

        def remembered(mask):
            given.append(weakref.ref(mask))
            return mask

        def read_mask(code):
            assert [ref() for ref in given if ref() is not None] == []
            return remembered(mask_grid(np.ones((2, 2, 2), bool)))

        assert list(evaluate_case("c", read_mask, pseudo, truth)) == list(organ_names(3))


defined_or_not = st.none() | st.floats(0, 1)
organ_metrics = st.builds(
    OrganMetrics,
    sensitivity=defined_or_not,
    precision=defined_or_not,
    tp=st.integers(0, 99),
    fp=st.integers(0, 99),
    fn=st.integers(0, 99),
    dsc=st.floats(0, 1),
)
# Organ sets differ between cases, so some organs are absent from some cases.
case_reports = st.dictionaries(
    st.sampled_from(["case01", "case02", "fall_ä", "x,y"]),
    st.dictionaries(st.sampled_from(["liver", "spleen", "pancréas", "腎臓"]), organ_metrics,
                    min_size=1),
    min_size=1,
)
provenances = st.fixed_dictionaries(
    {
        "connectivity": st.sampled_from([6, 18, 26]),
        "detect_config": st.fixed_dictionaries({"std_threshold": st.floats(0.01, 0.5)}),
        "attention_dir": st.text(max_size=8),
        "pseudo_dir": st.text(max_size=8),
        "truth_dir": st.text(max_size=8),
        "dsc_empty_convention": st.just(1.0),
    }
)


class TestReportWritersMatchReference:
    @settings(max_examples=60, deadline=None)
    @given(case_reports, provenances)
    def test_random_reports(self, cases, provenance):
        reports = [
            oracles.MetricsReport(
                case_id,
                {
                    name: oracles.OrganMetrics(
                        m.sensitivity, m.precision, ConfusionCounts(m.tp, m.fp, m.fn), m.dsc
                    )
                    for name, m in organs.items()
                },
                provenance,
            )
            for case_id, organs in cases.items()
        ]
        with tempfile.TemporaryDirectory() as tmp:
            got, want = Path(tmp) / "got.json", Path(tmp) / "want.json"
            write_json(got, metrics_json_dict(cases, provenance))
            write_json(want, oracles.metrics_json_dict(reports))
            assert got.read_bytes() == want.read_bytes()
            csv_path = Path(tmp) / "got.csv"
            write_csv(csv_path, METRICS_CSV_HEADER, metrics_csv_rows(cases))
            assert csv_path.read_bytes() == oracles.metrics_csv(reports).encode("utf-8")

    def test_header_is_the_organ_metrics_fields(self):
        assert METRICS_CSV_HEADER == oracles.METRICS_CSV_HEADER


class TestFalsePositiveScan:
    def test_all_clean(self):
        masks = [(f"c{i}", mask_grid(np.zeros((2, 2, 2)))) for i in range(5)]
        scan = false_positive_scan(masks)
        assert scan.flagged_case_count == 0
        assert scan.total_component_count == 0
        assert scan.fpr == 0.0

    def test_two_blob_case(self):
        v = np.zeros((5, 1, 1))
        v[0] = 1
        v[3] = 1
        scan = false_positive_scan([("c0", mask_grid(v))], connectivity=6)
        assert scan.flagged_case_count == 1
        assert scan.total_component_count == 2
        assert scan.per_case[0].component_count == 2

    def test_flag_arithmetic(self):
        blob = np.zeros((2, 2, 2))
        blob[0, 0, 0] = 1
        masks = [("f%03d" % i, mask_grid(blob)) for i in range(37)]
        masks += [("z%03d" % i, mask_grid(np.zeros((2, 2, 2)))) for i in range(392 - 37)]
        scan = false_positive_scan(masks)
        assert scan.total_cases == 392
        assert scan.flagged_case_count == 37
        assert scan.fpr == 37 / 392

    def test_empty_list_rejected(self):
        with pytest.raises(ValueError):
            false_positive_scan([])
