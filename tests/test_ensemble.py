import numpy as np
import pytest

from grids import prediction_set, random_prediction_set
from segqa.ensemble import ensemble_label
from segqa.volume import labels_from_soft, stable_mean


def _means(preds, organ_index=0):
    return stable_mean([m.channels[organ_index].values for m in preds.members])


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
        ps = random_prediction_set(rng, members=3, organs=2)
        for c in range(2):
            stack = np.stack([m.channels[c].values for m in ps.members])
            assert np.all(_means(ps, c) >= stack.min(axis=0) - 1e-7)
            assert np.all(_means(ps, c) <= stack.max(axis=0) + 1e-7)


class TestEnsembleLabel:
    def test_unanimous_hard_members(self, rng):
        organ1 = (rng.random((3, 3, 3)) < 0.4).astype(np.float32)
        organ2 = ((rng.random((3, 3, 3)) < 0.4) & (organ1 == 0)).astype(np.float32)
        ps = prediction_set("c", [[organ1, organ2]] * 3)
        lv = ensemble_label(ps, 0.5)
        single = labels_from_soft(list(ps.members[0].channels), 0.5)
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
        expected = labels_from_soft(list(ps.members[0].channels), 0.5)
        assert np.array_equal(ensemble_label(ps, 0.5).grid.values, expected.grid.values)
