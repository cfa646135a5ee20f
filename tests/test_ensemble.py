import numpy as np
import pytest

from grids import SUPPORT_CASES, prediction_set, support_case, whole
from oracles import sorted_stack_reduction
from segqa.detect import DetectionConfig
from segqa.ensemble import ensemble_label
from segqa.volume import labels_from_soft, stable_mean


def _means(preds, organ_index=0):
    return stable_mean(preds.organs[organ_index].crops)


class TestMeanSoft:
    def test_single_member_is_identity(self, rng):
        ch = rng.random((3, 3, 3), dtype=np.float32)
        ps = prediction_set("c", [[ch]])
        assert np.array_equal(_means(ps), ch)

    def test_two_member_hand_mean(self):
        ps = prediction_set("c", [[np.full((1, 1, 1), 0.2)], [np.full((1, 1, 1), 0.6)]])
        assert float(_means(ps)[0, 0, 0]) == pytest.approx(0.4)

    def test_three_member_hand_mean(self):
        ps = prediction_set(
            "c", [[np.zeros((1, 1, 1))], [np.zeros((1, 1, 1))], [np.ones((1, 1, 1))]]
        )
        assert float(_means(ps)[0, 0, 0]) == pytest.approx(1 / 3)

    def test_permutation_invariant_bit_exact(self, rng):
        channels = [rng.random((4, 4, 4), dtype=np.float32) for _ in range(3)]
        a = _means(prediction_set("c", [[c] for c in channels]))
        b = _means(prediction_set("c", [[c] for c in reversed(channels)]))
        assert np.array_equal(a, b)

    def test_bounded_by_member_envelope(self, rng):
        member_channels = [
            [rng.random((4, 4, 4), dtype=np.float32) for _ in range(2)] for _ in range(3)
        ]
        ps = prediction_set("c", member_channels)
        for c in range(2):
            stack = np.stack([channels[c] for channels in member_channels])
            assert np.all(_means(ps, c) >= stack.min(axis=0) - 1e-7)
            assert np.all(_means(ps, c) <= stack.max(axis=0) + 1e-7)


class TestEnsembleLabel:
    def test_unanimous_hard_members(self, rng):
        organ1 = (rng.random((3, 3, 3)) < 0.4).astype(np.float32)
        organ2 = ((rng.random((3, 3, 3)) < 0.4) & (organ1 == 0)).astype(np.float32)
        ps = prediction_set("c", [[organ1, organ2]] * 3)
        lv = ensemble_label(ps, 0.5)
        single = labels_from_soft(*whole([organ1, organ2]), 0.5)
        assert np.array_equal(lv.grid.values, single.grid.values)

    def test_two_of_three_majority(self):
        one = np.ones((1, 1, 1))
        zero = np.zeros((1, 1, 1))
        ps = prediction_set("c", [[one], [one], [zero]])
        assert ensemble_label(ps, 0.5).grid.values[0, 0, 0] == 1

    def test_all_below_threshold_abstains(self):
        ps = prediction_set(
            "c", [[np.full((1, 1, 1), 0.3)], [np.full((1, 1, 1), 0.3)]]
        )
        assert ensemble_label(ps, 0.5).grid.values[0, 0, 0] == 0

    def test_single_member_is_its_own_consensus(self, rng):
        channels = [rng.random((3, 3, 3), dtype=np.float32) for _ in range(2)]
        ps = prediction_set("c", [channels])
        expected = labels_from_soft(*whole(channels), 0.5)
        assert np.array_equal(ensemble_label(ps, 0.5).grid.values, expected.grid.values)


class TestSupportBox:
    """ensemble_label reduces each organ over its support box only."""

    @pytest.mark.parametrize("members", [1, 3])
    @pytest.mark.parametrize("name", SUPPORT_CASES)
    def test_labels_match_sorted_stack_oracle(self, rng, name, members):
        member_channels = support_case(name, rng, members)
        ref = sorted_stack_reduction(member_channels, DetectionConfig())
        lv = ensemble_label(prediction_set("c", member_channels), 0.5)
        assert np.array_equal(lv.grid.values, ref["labels"])

    def test_mean_runs_over_the_support_box(self, monkeypatch):
        from segqa import ensemble

        shapes = []

        def recording(arrays):
            shapes.append({a.shape for a in arrays})
            return stable_mean(arrays)

        monkeypatch.setattr(ensemble, "stable_mean", recording)
        organ1 = np.zeros((5, 6, 7), np.float32)
        organ1[-1, -1, -1] = 0.8
        organ2 = np.zeros((5, 6, 7), np.float32)
        organ2[0, 1:3, 2:6] = 0.6
        organ2[3, 0, 0] = -0.0
        lv = ensemble_label(prediction_set("c", [[organ1, organ2], [organ1, np.zeros_like(organ2)]]))
        assert shapes == [{(1, 1, 1)}, {(1, 2, 4)}]
        assert lv.grid.values[-1, -1, -1] == 1 and not lv.grid.values[0].any()
