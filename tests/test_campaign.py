import json
import math
import os
import re
import subprocess
import sys
import tempfile
import tracemalloc
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from grids import make_grid, prediction_set, whole
from oracles import two_pass_run_loop
from segqa.campaign import (
    CampaignError,
    CampaignState,
    STATUSES,
    CaseEntry,
    IllegalTransitionError,
    LoopPolicy,
    UnknownCaseError,
    _labels_as_predictions,
    _read_state,
    _write_state,
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
from segqa.volume import LabelVolume, PredictionSet, labels_from_soft


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

    @pytest.mark.parametrize("threshold", [math.nan, math.inf, -math.inf])
    def test_non_finite_threshold_rejected(self, threshold):
        with pytest.raises(CampaignError, match="finite"):
            select_for_revision(rank_cases([entry("a", 1)]), threshold)

    @pytest.mark.parametrize("threshold", [math.nan, math.inf, -math.inf])
    def test_non_finite_loop_cutoff_rejected(self, threshold):
        with pytest.raises(CampaignError, match="finite"):
            LoopPolicy(size_threshold_mm3=threshold)


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

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_rates(self, value):
        with pytest.raises(CampaignError, match="finite"):
            estimate_workload(1, 10, minutes_per_case=value)
        with pytest.raises(CampaignError, match="finite"):
            estimate_workload(1, 10, hours_per_day=value)

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


PINNED = "2026-01-02T03:04:05+00:00"
# Free text an annotator might type: non-ASCII, quotes and commas included.
free_text = st.text(max_size=8) | st.sampled_from(["Leberrand", "胰腺", "naïve \"tag\"", "a,b"])


@st.composite
def campaign_states(draw):
    ids = draw(st.lists(free_text.filter(bool), min_size=1, max_size=6, unique=True))
    sizes = st.floats(0, 1e9, allow_nan=False, allow_infinity=False)
    cases = tuple(
        CaseEntry(
            case_id=cid,
            per_organ_mm3=draw(st.dictionaries(free_text, sizes, max_size=4)),
            total_mm3=draw(sizes),
            status=draw(st.sampled_from(STATUSES)),
            loop_seen=draw(st.integers(0, 5)),
            error_tags=tuple(draw(st.lists(free_text, max_size=3))),
            created_at=PINNED,
            updated_at=PINNED,
        )
        for cid in ids
    )
    config = draw(st.dictionaries(free_text, st.integers() | sizes | free_text, max_size=4))
    return CampaignState(cases=cases, loop_index=draw(st.integers(0, 5)), config=config)


class TestStateMatchesReference:
    @settings(max_examples=60, deadline=None)
    @given(campaign_states())
    def test_written_bytes_and_read_back_fields(self, state):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "campaign.json"
            _write_state(state, path)
            assert path.read_bytes() == oracles.state_text(state).encode("utf-8")
            back = _read_state(path)
        assert back == state
        for got, want in zip(back.cases, state.cases):
            assert type(got.error_tags) is tuple
            assert (got.created_at, got.updated_at) == (PINNED, PINNED)
            assert got.per_organ_mm3 == want.per_organ_mm3


def valid_state_payload():
    return {
        "version": 1,
        "loop_index": 0,
        "config": {},
        "cases": [
            {"case_id": "a", "per_organ_mm3": {"liver": 2.0}, "total_mm3": 2.0,
             "status": "pending", "loop_seen": 0, "error_tags": [],
             "created_at": PINNED, "updated_at": PINNED},
        ],
    }


def with_entry(**fields):
    payload = valid_state_payload()
    payload["cases"][0].update(fields)
    return payload


def without_entry_field(name):
    payload = valid_state_payload()
    del payload["cases"][0][name]
    return payload


class TestMalformedState:
    @pytest.mark.parametrize(
        "payload",
        [
            [1],
            "campaign",
            {**valid_state_payload(), "cases": [5]},
            {**valid_state_payload(), "cases": 5},
            {**valid_state_payload(), "cases": [None]},
            {**valid_state_payload(), "loop_index": "0"},
            {**valid_state_payload(), "config": []},
            {**valid_state_payload(), "extra": 1},
            {k: v for k, v in valid_state_payload().items() if k != "loop_index"},
            without_entry_field("status"),
            without_entry_field("error_tags"),
            with_entry(note="unknown field"),
            with_entry(case_id=5),
            with_entry(per_organ_mm3=[1.0]),
            with_entry(total_mm3="2.0"),
            with_entry(total_mm3=None),
            with_entry(total_mm3=float("nan")),
            with_entry(total_mm3=float("inf")),
            with_entry(total_mm3=-1.0),
            with_entry(status=5),
            with_entry(status="done"),
            with_entry(loop_seen=1.5),
            with_entry(error_tags=5),
            with_entry(error_tags="boundary"),
            with_entry(created_at=0),
        ],
    )
    def test_rejected_naming_the_file(self, tmp_path, payload):
        path = tmp_path / "campaign.json"
        path.write_text(json.dumps(payload))
        with pytest.raises(CampaignError, match=re.escape(str(path))):
            load_state(path)

    def test_valid_payload_loads(self, tmp_path):
        path = tmp_path / "campaign.json"
        path.write_text(json.dumps(valid_state_payload()))
        assert load_state(path).case("a").per_organ_mm3 == {"liver": 2.0}


def two_organ_members(error_all_models=False):
    """Member channels of one case and its truth: organ 1 cube, organ 2 cube;
    models disagree on part of organ 1."""
    dims = (8, 8, 8)
    organ1 = np.zeros(dims, dtype=np.float32)
    organ1[1:4, 1:4, 1:4] = 1.0
    organ2 = np.zeros(dims, dtype=np.float32)
    organ2[5:7, 5:7, 5:7] = 1.0

    truth = labels_from_soft(*whole([organ1, organ2]), 0.5)

    wrong1 = organ1.copy()
    wrong1[1:3, 1:3, 1] = 0.0  # a chunk of organ 1 missed
    if error_all_models:
        members = [[wrong1, organ2]] * 3
    else:
        members = [[wrong1, organ2], [wrong1, organ2], [organ1, organ2]]
    return members, truth


def two_organ_case(error_all_models=False):
    members, truth = two_organ_members(error_all_models)
    return prediction_set("case0", members), truth


class TestSimulateRevision:
    def test_full_coverage_restores_truth(self):
        members, truth = two_organ_members()
        amap = build_attention(prediction_set("case0", members))
        pseudo = labels_from_soft(*whole(members[0]), 0.5)
        out = simulate_revision(pseudo, truth, amap.union_mask)
        assert np.array_equal(out.grid.values, truth.grid.values)

    def test_empty_attention_is_noop(self):
        members, truth = two_organ_members()
        pseudo = labels_from_soft(*whole(members[0]), 0.5)
        agree = prediction_set("agree", [members[0]] * 2)
        amap = build_attention(agree)  # identical members, hard probs: empty
        assert amap.total_mm3 == 0.0
        out = simulate_revision(pseudo, truth, amap.union_mask)
        assert np.array_equal(out.grid.values, pseudo.grid.values)

    def test_partial_coverage_leaves_uncovered_half(self):
        dims = (4, 4, 4)
        truth_values = np.zeros(dims, dtype=np.uint8)
        truth_values[0:2, 0, 0] = 1
        pseudo_values = np.zeros(dims, dtype=np.uint8)
        truth = LabelVolume(make_grid(truth_values, dtype=np.uint8), 1)
        pseudo = LabelVolume(make_grid(pseudo_values, dtype=np.uint8), 1)

        # attention covering exactly one of the two error voxels
        half = np.zeros(dims, dtype=np.float32)
        half[0, 0, 0] = 1.0
        ps = prediction_set("c", [[half], [np.zeros(dims, dtype=np.float32)]])
        amap = build_attention(ps)
        out = simulate_revision(pseudo, truth, amap.union_mask)
        residual = out.grid.values != truth.grid.values
        assert residual.sum() == 1
        assert residual[1, 0, 0]
        assert not (residual & (amap.union_mask.values != 0)).any()

    def test_revision_never_decreases_dsc(self):
        members, truth = two_organ_members()
        amap = build_attention(prediction_set("case0", members))
        pseudo = labels_from_soft(*whole(members[0]), 0.5)
        out = simulate_revision(pseudo, truth, amap.union_mask)
        assert mean_label_dsc(out, truth) >= mean_label_dsc(pseudo, truth)

    def test_voxelwise_identity_against_where_oracle(self, rng):
        from grids import mask_grid

        for _ in range(20):
            pseudo_values = rng.integers(0, 3, (4, 4, 4)).astype(np.uint8)
            truth_values = rng.integers(0, 3, (4, 4, 4)).astype(np.uint8)
            att = (rng.random((4, 4, 4)) < 0.4).astype(np.uint8)
            pseudo = LabelVolume(make_grid(pseudo_values, dtype=np.uint8), 2)
            truth = LabelVolume(make_grid(truth_values, dtype=np.uint8), 2)
            out = simulate_revision(pseudo, truth, mask_grid(att))
            expected = np.where(att != 0, truth_values, pseudo_values)
            assert np.array_equal(out.grid.values, expected)


class FreshLookups:
    """Loop-0 predictions loaded as a corpus on disk loads them: a new
    PredictionSet on every call, nothing kept between calls."""

    def __init__(self, sets, make=PredictionSet):
        self.parts = {ps.case_id: (ps.model_ids, ps.grid, ps.organs) for ps in sets}
        self.make = make
        self.lookups = 0

    def __call__(self, case_id):
        self.lookups += 1
        return self.make(case_id, *self.parts[case_id])


def three_cases():
    """Cases with covered errors, errors all models share, and none; and their truths."""
    (flagged, truth), (blind, _) = two_organ_members(), two_organ_members(error_all_models=True)
    clean = prediction_set("c2", [flagged[2]] * 2)
    sets = [prediction_set("c0", flagged), prediction_set("c1", blind), clean]
    return sets, {ps.case_id: truth for ps in sets}


def run_cases(sets, truths, **kwargs):
    """run_loop over in-memory cases keyed by id."""
    return run_loop(list(sets), sets.__getitem__, truths.__getitem__, **kwargs)


class TestRunLoop:
    def test_perfect_predictions_stop_immediately(self):
        dims = (6, 6, 6)
        organ = np.zeros(dims, dtype=np.float32)
        organ[2:4, 2:4, 2:4] = 1.0
        ps = prediction_set("c0", [[organ]] * 3)
        truth = labels_from_soft(*whole([organ]), 0.5)
        reports = run_cases({"c0": ps}, {"c0": truth})
        assert len(reports) == 1
        assert reports[0].revised_count == 0
        assert reports[0].stopped is True

    def test_covered_errors_vanish_after_one_loop(self):
        ps, truth = two_organ_case()
        reports = run_cases({ps.case_id: ps}, {ps.case_id: truth})
        assert reports[0].revised_count == 1
        assert reports[0].residual_error_mm3 == 0.0
        assert reports[0].cases[0].dsc_after == 1.0

    def test_recycled_labels_shrink_attention(self):
        ps, truth = two_organ_case()
        reports = run_cases(
            {ps.case_id: ps}, {ps.case_id: truth}, policy=LoopPolicy(max_loops=3)
        )
        assert len(reports) == 2
        assert reports[1].total_attention_mm3 <= reports[0].total_attention_mm3
        assert reports[1].stopped is True

    def test_missing_loop_zero_rejected(self):
        """An empty case list leaves loop 0 without predictions."""
        ps, truth = two_organ_case()
        with pytest.raises(CampaignError, match="empty case list"):
            run_loop([], {ps.case_id: ps}.__getitem__, {ps.case_id: truth}.__getitem__)

    def test_loop_zero_looked_up_once_per_case(self):
        sets, truths = three_cases()
        loop0 = FreshLookups(sets)
        truth_loads = []
        reports = run_loop([ps.case_id for ps in sets], loop0,
                           lambda cid: truth_loads.append(cid) or truths[cid])
        assert len(reports) == 2
        assert loop0.lookups == len(sets)
        assert truth_loads == [ps.case_id for ps in sets]
        assert reports == run_cases({ps.case_id: ps for ps in sets}, truths)

    def test_earlier_cases_labels_freed_before_the_next_loads(self, monkeypatch):
        """No consensus or revised labels of a case are alive when the next case loads."""
        from segqa import campaign

        made = []
        alive_at_load = []

        def kept(make):
            def call(*args):
                result = make(*args)
                made.append(weakref.ref(result))
                return result

            return call

        monkeypatch.setattr(campaign, "ensemble_label", kept(campaign.ensemble_label))
        monkeypatch.setattr(campaign, "simulate_revision", kept(campaign.simulate_revision))
        sets, truths = three_cases()
        loop0 = FreshLookups(sets)

        def load(cid):
            alive_at_load.append(sum(ref() is not None for ref in made))
            return loop0(cid)

        reports = run_loop([ps.case_id for ps in sets], load, truths.__getitem__)
        assert reports[0].revised_count > 0 and len(reports) == 2
        assert alive_at_load == [0] * len(sets)

    def test_unrevised_rows_score_once(self, monkeypatch):
        """An unrevised case's final labels are its consensus: one Dice, not two."""
        from segqa import campaign

        calls = []

        def counted(*args):
            calls.append(args)
            return mean_label_dsc(*args)

        monkeypatch.setattr(campaign, "mean_label_dsc", counted)
        sets, truths = three_cases()
        reports = run_cases({ps.case_id: ps for ps in sets}, truths)
        rows = [row for report in reports for row in report.cases]
        assert {row.selected for row in rows} == {True, False}
        assert len(calls) == sum(1 + row.selected for row in rows)
        assert all(row.dsc_after == row.dsc_before for row in rows if not row.selected)

    def test_stopped_case_repeats_its_last_row(self, monkeypatch):
        """A case that stops early is not run again; later reports repeat its row."""
        from segqa import campaign

        real = campaign._labels_as_predictions
        hard_members = []
        sets, truths = three_cases()
        flagged = sets[0]

        def noisy_c0(cid, label, loop_index):
            # c0 keeps its noisy loop-0 members, so it is revised in every loop.
            hard_members.append((cid, loop_index))
            return flagged if cid == flagged.case_id else real(cid, label, loop_index)

        monkeypatch.setattr(campaign, "_labels_as_predictions", noisy_c0)
        reports = run_cases({ps.case_id: ps for ps in sets}, truths,
                            policy=LoopPolicy(max_loops=4))
        assert [r.revised_count for r in reports] == [1, 1, 1, 1]
        assert hard_members == [("c0", 1), ("c0", 2), ("c0", 3), ("c1", 1), ("c2", 1)]
        for later in reports[2:]:
            assert later.cases[1:] == reports[1].cases[1:]
            assert later.cases[0] == reports[0].cases[0]

    @pytest.mark.parametrize("threshold", [0.0, 1e9], ids=["revised", "unrevised"])
    def test_organ_count_mismatch_names_the_case(self, threshold):
        ps, truth = two_organ_case()
        truth3 = LabelVolume(truth.grid, 3)
        with pytest.raises(CampaignError, match=r"case 'case0': .*2 organs.*3"):
            run_cases({ps.case_id: ps}, {ps.case_id: truth3},
                      policy=LoopPolicy(size_threshold_mm3=threshold))

    def test_each_case_freed_before_the_next_is_looked_up(self, monkeypatch):
        """A case's predictions and attention map are gone when the next case is read."""
        from segqa import campaign

        made = []
        alive_at_lookup = []

        def kept(make):
            def call(*args):
                result = make(*args)
                made.append(weakref.ref(result))
                return result

            return call

        def looked_up(make):
            make = kept(make)

            def call(*args):
                alive_at_lookup.append(sum(ref() is not None for ref in made))
                return make(*args)

            return call

        monkeypatch.setattr(campaign, "build_attention", kept(campaign.build_attention))
        # Loops >= 1 look each case up by building its hard channels.
        monkeypatch.setattr(campaign, "_labels_as_predictions",
                            looked_up(campaign._labels_as_predictions))
        sets, truths = three_cases()
        reports = run_loop([ps.case_id for ps in sets],
                           FreshLookups(sets, make=looked_up(PredictionSet)), truths.__getitem__)
        assert len(reports) == 2
        assert alive_at_lookup == [0] * (2 * len(sets))


def label_volume(values, organs, dtype=np.uint8, spacing=(1.0, 1.0, 1.0)):
    return LabelVolume(make_grid(values, spacing, dtype), organs)


def nine_organ_labels(dims):
    """Nine disjoint boxes of codes 1..9 in a 3 x 3 layout, background around them."""
    values = np.zeros(dims, np.uint8)
    nx, ny, nz = dims
    for code in range(1, 10):
        i, j = divmod(code - 1, 3)
        x, y = i * nx // 3 + 4, j * ny // 3 + 4
        values[x : x + nx // 6, y : y + ny // 6, nz // 4 : 3 * nz // 4] = code
    return values


class TestLabelsAsPredictions:
    """Later loops' hard members, against dense 0/1 channels cropped by from_channels."""

    @pytest.mark.parametrize(
        "label",
        [
            # organ 3 absent
            label_volume(np.random.default_rng(0).integers(0, 3, (7, 6, 5)), 3),
            # organ 2 fills the volume, organs 1 and 3 absent
            label_volume(np.full((4, 5, 3), 2), 3),
            # no background, one organ in a single voxel
            label_volume(np.where(np.arange(60).reshape(5, 4, 3) == 17, 1, 2), 2),
            # no organ at all
            label_volume(np.zeros((3, 3, 3)), 2),
            label_volume(np.random.default_rng(1).integers(0, 5, (8, 7, 6)), 4, np.int16,
                         spacing=(0.5, 0.75, 2.0)),
            # x-fastest labels, as a decoded volume holds them
            label_volume(np.asfortranarray(nine_organ_labels((24, 21, 8))), 9),
        ],
        ids=["absent", "fills", "no-background", "empty", "int16", "x-fastest"],
    )
    def test_matches_cropped_dense_channels(self, label):
        got = _labels_as_predictions("c7", label, 2)
        want = oracles.labels_as_predictions("c7", label, 2, 2)
        assert got.case_id == want.case_id and got.model_ids == want.model_ids
        assert got.grid.dims == want.grid.dims and got.grid.spacing == want.grid.spacing
        assert got.grid.affine is label.grid.affine is want.grid.affine
        assert got.grid.values.dtype == want.grid.values.dtype
        assert np.array_equal(got.grid.values, want.grid.values)
        assert len(got.organs) == len(want.organs)
        for ours, ref in zip(got.organs, want.organs):
            assert ours.box == ref.box
            for a, b in zip(ours.crops, ref.crops):
                assert a.dtype == b.dtype == np.float32
                assert a.shape == b.shape
                assert a.tobytes() == b.tobytes()

    def test_peak_below_one_float32_channel(self):
        dims = (128, 128, 48)
        label = label_volume(nine_organ_labels(dims), 9)
        channel_bytes = 4 * dims[0] * dims[1] * dims[2]
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            preds = _labels_as_predictions("c", label, 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert all(o.crops[0].any() for o in preds.organs)
        assert peak < channel_bytes, (peak, channel_bytes)


def loop_corpus(seed, cases, dims=(6, 5, 4), members=3, organs=2):
    """Random cases whose members waver on a per-case share of voxels.

    Each case also gets a box where every member agrees on wrong codes, an
    error the attention map cannot flag, so revision leaves a residual.
    """
    rng = np.random.default_rng(seed)
    sets, truths = {}, {}
    for i in range(cases):
        truth = rng.integers(0, organs + 1, size=dims).astype(np.uint8)
        shared = truth.copy()
        x, y, z = (int(rng.integers(0, n)) for n in dims)
        shared[x:x + 2, y:y + 2, z:z + 2] = rng.integers(0, organs + 1)
        waver_share = rng.uniform(0.0, 0.4)
        member_channels = [
            [
                np.where(rng.random(dims) < waver_share, rng.random(dims),
                         (shared == code).astype(np.float32))
                for code in range(1, organs + 1)
            ]
            for _ in range(members)
        ]
        cid = f"c{i}"
        sets[cid] = prediction_set(cid, member_channels)
        truths[cid] = LabelVolume(make_grid(truth, dtype=np.uint8), organs)
    return sets, truths


def cutoff_between(totals, pick):
    """A cutoff halfway between two adjacent distinct case totals, or None."""
    distinct = sorted(set(totals))
    if len(distinct) < 2:
        return None
    i = pick % (len(distinct) - 1)
    return (distinct[i] + distinct[i + 1]) / 2


class TestRunLoopMatchesTwoPassReference:
    """run_loop returns the reports of the two-pass, K-member reference."""

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        cases=st.integers(2, 5),
        max_loops=st.integers(1, 3),
        cutoff=st.sampled_from(["zero", "between", "above"]),
        pick=st.integers(0, 10),
    )
    def test_random_corpora(self, seed, cases, max_loops, cutoff, pick):
        sets, truths = loop_corpus(seed, cases)
        totals = [build_attention(ps).total_mm3 for ps in sets.values()]
        threshold = {
            "zero": 0.0,
            "between": cutoff_between(totals, pick),
            "above": max(totals) + 1.0,
        }[cutoff]
        if threshold is None:
            return
        policy = LoopPolicy(size_threshold_mm3=threshold, max_loops=max_loops)
        reports = run_cases(sets, truths, policy=policy)
        assert reports == two_pass_run_loop(sets, truths, policy=policy)
        # Recycled hard labels never disagree, waver or overlap.
        assert all(r.total_attention_mm3 == 0 and r.stopped for r in reports[1:])

    @pytest.mark.parametrize("max_loops", [1, 2, 3])
    def test_some_cases_selected_above_a_positive_cutoff(self, max_loops):
        """The cutoff sits just below the largest total: only the top case is
        revised, so loop 0 does not stop although the other cases are not."""
        sets, truths = loop_corpus(11, 4)
        totals = sorted(build_attention(ps).total_mm3 for ps in sets.values())
        policy = LoopPolicy(size_threshold_mm3=cutoff_between(totals, len(totals) - 2),
                            max_loops=max_loops)
        reference = two_pass_run_loop(sets, truths, policy=policy)
        assert policy.size_threshold_mm3 > 0
        assert [c.selected for c in reference[0].cases].count(True) == 1
        assert reference[0].stopped is False
        assert run_cases(sets, truths, policy=policy) == reference
