import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from grids import make_grid, prediction_set
from segqa.campaign import (
    CampaignError,
    CampaignState,
    CaseEntry,
    IllegalTransitionError,
    LoopPolicy,
    MissingPredictionsError,
    UnknownCaseError,
    estimate_workload,
    knee_suggestion,
    load_state,
    mark_case,
    rank_cases,
    run_loop,
    save_state,
    select_for_revision,
    simulate_revision,
    size_rank_curve,
    stopping_check,
)
from segqa.detect import build_attention
from segqa.regions import mean_label_dsc
from segqa.volume import LabelVolume, OrganLabelMap, labels_from_soft


def entry(case_id, total, status="pending"):
    return CaseEntry(case_id=case_id, per_organ_mm3={}, total_mm3=total, status=status)


class TestRanking:
    def test_sorts_descending(self):
        ranked = rank_cases([entry("a", 5), entry("b", 9), entry("c", 1)])
        assert [e.case_id for e in ranked] == ["b", "a", "c"]

    def test_ties_break_alphabetically(self):
        ranked = rank_cases([entry("b", 3), entry("a", 3), entry("c", 3)])
        assert [e.case_id for e in ranked] == ["a", "b", "c"]

    def test_singleton(self):
        assert [e.case_id for e in rank_cases([entry("only", 0)])] == ["only"]

    def test_empty_rejected(self):
        with pytest.raises(CampaignError):
            rank_cases([])

    def test_curve_pairs(self):
        ranked = rank_cases([entry("a", 5), entry("b", 9)])
        assert size_rank_curve(ranked) == [(1, 9.0), (2, 5.0)]

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.floats(0, 1e6), min_size=1, max_size=20))
    def test_deterministic_total_order(self, sizes):
        entries = [entry(f"c{i:02d}", s) for i, s in enumerate(sizes)]
        first = rank_cases(entries)
        second = rank_cases(list(reversed(entries)))
        assert [e.case_id for e in first] == [e.case_id for e in second]
        totals = [e.total_mm3 for e in first]
        assert totals == sorted(totals, reverse=True)


class TestSelection:
    def test_threshold_splits_at_knee(self):
        ranked = rank_cases(
            [entry(c, s) for c, s in zip("abcde", (100, 80, 3, 2, 1))]
        )
        picked = select_for_revision(ranked, 10)
        assert [e.case_id for e in picked] == ["a", "b"]

    def test_zero_threshold_takes_all_nonzero(self):
        ranked = rank_cases([entry("a", 5), entry("b", 0)])
        assert [e.case_id for e in select_for_revision(ranked, 0)] == ["a"]

    def test_threshold_above_max_selects_none(self):
        ranked = rank_cases([entry("a", 5)])
        assert select_for_revision(ranked, 10) == []

    def test_negative_threshold_rejected(self):
        with pytest.raises(CampaignError):
            select_for_revision(rank_cases([entry("a", 1)]), -1)


class TestKnee:
    def test_finds_big_drop(self):
        suggestion = knee_suggestion([100, 80, 3, 2, 1])
        assert suggestion is not None
        assert suggestion.cases_before_knee == 2
        assert suggestion.drop_ratio == pytest.approx(80 / 3)

    def test_none_for_flat_curve(self):
        assert knee_suggestion([5, 5, 5]) is None

    def test_none_for_single_case(self):
        assert knee_suggestion([5]) is None


class TestWorkload:
    def test_headline_days(self):
        est = estimate_workload(400, 8000, 15, 8)
        assert est.estimated_days == 12.5

    def test_headline_fraction(self):
        est = estimate_workload(600, 8000, 15, 8)
        assert est.human_fraction == 0.075

    def test_zero_revisions(self):
        est = estimate_workload(0, 100)
        assert est.estimated_days == 0.0
        assert est.human_fraction == 0.0

    def test_rejects_bad_inputs(self):
        with pytest.raises(CampaignError):
            estimate_workload(5, 0)
        with pytest.raises(CampaignError):
            estimate_workload(10, 5)
        with pytest.raises(CampaignError):
            estimate_workload(1, 10, minutes_per_case=0)

    @settings(max_examples=50, deadline=None)
    @given(
        st.integers(0, 1000),
        st.integers(1, 10_000),
        st.floats(1, 120),
        st.floats(1, 24),
    )
    def test_algebraic_invariants(self, revised, extra, minutes, hours):
        total = revised + extra
        est = estimate_workload(revised, total, minutes, hours)
        assert est.estimated_days == revised * minutes / (60 * hours)
        assert est.human_fraction == revised / total


class TestMarkAndStop:
    def test_pending_to_revised(self):
        state = CampaignState(cases=(entry("a", 5),))
        out = mark_case(state, "a", "revised", ("cavity",))
        assert out.case("a").status == "revised"
        assert out.case("a").error_tags == ("cavity",)

    def test_revised_cannot_be_confirmed(self):
        state = CampaignState(cases=(entry("a", 5, status="revised"),))
        with pytest.raises(IllegalTransitionError):
            mark_case(state, "a", "confirmed")

    def test_unknown_case(self):
        state = CampaignState(cases=(entry("a", 5),))
        with pytest.raises(UnknownCaseError):
            mark_case(state, "zz", "revised")

    def test_stop_when_top_confirmed(self):
        state = CampaignState(cases=(entry("big", 9, "confirmed"), entry("small", 1)))
        assert stopping_check(state) is True

    def test_no_stop_when_top_pending(self):
        state = CampaignState(cases=(entry("big", 9), entry("small", 1, "confirmed")))
        assert stopping_check(state) is False

    def test_only_top_case_matters(self):
        state = CampaignState(
            cases=(entry("big", 9, "revised"), entry("small", 1, "confirmed"))
        )
        assert stopping_check(state) is False


class TestPersistence:
    def test_round_trip_field_exact(self, tmp_path):
        state = CampaignState(
            cases=(
                entry("a", 5.5),
                mark_case(
                    CampaignState(cases=(entry("b", 1.25),)), "b", "revised", ("tag",)
                ).case("b"),
            ),
            loop_index=2,
            config={"std_threshold": 0.1},
        )
        path = tmp_path / "campaign.json"
        save_state(state, path)
        assert load_state(path) == state

    def test_save_is_atomic(self, tmp_path):
        path = tmp_path / "campaign.json"
        save_state(CampaignState(cases=(entry("a", 1),)), path)
        leftovers = [p.name for p in tmp_path.iterdir() if p.suffix == ".tmp"]
        assert leftovers == []

    def test_version_checked(self, tmp_path):
        path = tmp_path / "campaign.json"
        path.write_text('{"version": 99, "loop_index": 0, "config": {}, "cases": []}')
        with pytest.raises(CampaignError):
            load_state(path)

    def test_lock_fails_fast_on_concurrent_access(self, tmp_path):
        from segqa.campaign import StateFileLockedError, _FileLock

        path = tmp_path / "campaign.json"
        with _FileLock(path):
            with pytest.raises(StateFileLockedError):
                save_state(CampaignState(cases=(entry("a", 1),)), path)

    def test_concurrent_marks_lose_no_update(self, tmp_path):
        """More marking processes than cores; each retries when the state is locked."""
        path = tmp_path / "campaign.json"
        workers, per_worker = 4, 4
        ids = [f"w{w}c{i}" for w in range(workers) for i in range(per_worker)]
        save_state(CampaignState(cases=tuple(entry(cid, 1) for cid in ids)), path)
        script = (
            "import contextlib, io, sys, time\n"
            "from segqa.cli import main\n"
            "deadline = time.monotonic() + 60\n"
            "for case in sys.argv[2:]:\n"
            "    while True:\n"
            "        err = io.StringIO()\n"
            "        with contextlib.redirect_stderr(err):\n"
            "            rc = main(['campaign', 'mark', '--state', sys.argv[1],\n"
            "                       '--case', case, '--status', 'revised'])\n"
            "        if rc == 0:\n"
            "            break\n"
            "        if 'in use' not in err.getvalue() or time.monotonic() > deadline:\n"
            "            sys.exit(err.getvalue() or 'timed out')\n"
        )
        env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
        procs = [
            subprocess.Popen(
                [sys.executable, "-c", script, str(path), *ids[w::workers]],
                env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
            )
            for w in range(workers)
        ]
        try:
            errors = [p.communicate(timeout=90)[1] for p in procs]
        finally:
            for p in procs:
                p.kill()
        assert [p.returncode for p in procs] == [0] * workers, errors
        assert {c.case_id: c.status for c in load_state(path).cases} == dict.fromkeys(
            ids, "revised"
        )


def two_organ_case(error_all_models=False):
    """One case: organ 1 cube, organ 2 cube; models disagree on part of organ 1."""
    dims = (8, 8, 8)
    organ1 = np.zeros(dims, dtype=np.float32)
    organ1[1:4, 1:4, 1:4] = 1.0
    organ2 = np.zeros(dims, dtype=np.float32)
    organ2[5:7, 5:7, 5:7] = 1.0

    truth = labels_from_soft(
        [make_grid(organ1, dtype=np.float32), make_grid(organ2, dtype=np.float32)], 0.5
    )

    wrong1 = organ1.copy()
    wrong1[1:3, 1:3, 1] = 0.0  # a chunk of organ 1 missed
    if error_all_models:
        members = [[wrong1, organ2]] * 3
    else:
        members = [[wrong1, organ2], [wrong1, organ2], [organ1, organ2]]
    return prediction_set("case0", members), truth


class TestSimulateRevision:
    def test_full_coverage_restores_truth(self):
        ps, truth = two_organ_case()
        amap = build_attention(ps)
        pseudo = labels_from_soft(list(ps.members[0].channels), 0.5)
        out = simulate_revision(pseudo, truth, amap)
        assert np.array_equal(out.grid.values, truth.grid.values)

    def test_empty_attention_is_noop(self):
        ps, truth = two_organ_case()
        pseudo = labels_from_soft(list(ps.members[0].channels), 0.5)
        agree = prediction_set(
            "agree", [[ch.values for ch in ps.members[0].channels]] * 2
        )
        amap = build_attention(agree)  # identical members, hard probs: empty
        assert amap.total_mm3 == 0.0
        out = simulate_revision(pseudo, truth, amap)
        assert np.array_equal(out.grid.values, pseudo.grid.values)

    def test_partial_coverage_leaves_uncovered_half(self):
        dims = (4, 4, 4)
        truth_values = np.zeros(dims, dtype=np.uint8)
        truth_values[0:2, 0, 0] = 1
        pseudo_values = np.zeros(dims, dtype=np.uint8)
        labels = OrganLabelMap.generic(1)
        truth = LabelVolume(make_grid(truth_values, dtype=np.uint8), labels)
        pseudo = LabelVolume(make_grid(pseudo_values, dtype=np.uint8), labels)

        # attention covering exactly one of the two error voxels
        half = np.zeros(dims, dtype=np.float32)
        half[0, 0, 0] = 1.0
        ps = prediction_set("c", [[half], [np.zeros(dims, dtype=np.float32)]])
        amap = build_attention(ps)
        out = simulate_revision(pseudo, truth, amap)
        residual = out.grid.values != truth.grid.values
        assert residual.sum() == 1
        assert residual[1, 0, 0]
        assert not (residual & (amap.union_mask.values != 0)).any()

    def test_revision_never_decreases_dsc(self):
        ps, truth = two_organ_case()
        amap = build_attention(ps)
        pseudo = labels_from_soft(list(ps.members[0].channels), 0.5)
        out = simulate_revision(pseudo, truth, amap)
        assert mean_label_dsc(out, truth) >= mean_label_dsc(pseudo, truth)

    def test_voxelwise_identity_against_where_oracle(self, rng):
        from segqa.detect import AttentionMap, CriterionMasks
        from grids import mask_grid

        labels = OrganLabelMap.generic(2)
        for _ in range(20):
            pseudo_values = rng.integers(0, 3, (4, 4, 4)).astype(np.uint8)
            truth_values = rng.integers(0, 3, (4, 4, 4)).astype(np.uint8)
            att = (rng.random((4, 4, 4)) < 0.4).astype(np.uint8)
            union = mask_grid(att)
            amap = AttentionMap(
                case_id="r",
                union_mask=union,
                per_organ_masks=(union, union),
                source_masks=CriterionMasks(union, union, union),
                per_organ_mm3=(0.0, 0.0),
                total_mm3=0.0,
            )
            pseudo = LabelVolume(make_grid(pseudo_values, dtype=np.uint8), labels)
            truth = LabelVolume(make_grid(truth_values, dtype=np.uint8), labels)
            out = simulate_revision(pseudo, truth, amap)
            expected = np.where(att != 0, truth_values, pseudo_values)
            assert np.array_equal(out.grid.values, expected)


class TestRunLoop:
    def test_perfect_predictions_stop_immediately(self):
        dims = (6, 6, 6)
        organ = np.zeros(dims, dtype=np.float32)
        organ[2:4, 2:4, 2:4] = 1.0
        ps = prediction_set("c0", [[organ]] * 3)
        truth = labels_from_soft([make_grid(organ, dtype=np.float32)], 0.5)
        reports = run_loop({0: {"c0": ps}}, {"c0": truth})
        assert len(reports) == 1
        assert reports[0].revised_count == 0
        assert reports[0].stopped is True

    def test_covered_errors_vanish_after_one_loop(self):
        ps, truth = two_organ_case()
        reports = run_loop({0: {ps.case_id: ps}}, {ps.case_id: truth})
        assert reports[0].revised_count == 1
        assert reports[0].residual_error_mm3 == 0.0
        assert reports[0].cases[0].dsc_after == 1.0

    def test_recycled_labels_shrink_attention(self):
        ps, truth = two_organ_case()
        reports = run_loop(
            {0: {ps.case_id: ps}}, {ps.case_id: truth}, policy=LoopPolicy(max_loops=3)
        )
        assert len(reports) == 2
        assert reports[1].total_attention_mm3 <= reports[0].total_attention_mm3
        assert reports[1].stopped is True

    def test_missing_loop_zero_rejected(self):
        ps, truth = two_organ_case()
        with pytest.raises(MissingPredictionsError):
            run_loop({1: {ps.case_id: ps}}, {ps.case_id: truth})

    def test_missing_later_loop_rejected_without_recycling(self):
        ps, truth = two_organ_case()
        with pytest.raises(MissingPredictionsError):
            run_loop(
                {0: {ps.case_id: ps}},
                {ps.case_id: truth},
                policy=LoopPolicy(max_loops=2, reuse_revised_labels=False),
            )

    def test_case_mismatch_rejected(self):
        ps, truth = two_organ_case()
        with pytest.raises(CampaignError):
            run_loop({0: {ps.case_id: ps}}, {"other": truth})
