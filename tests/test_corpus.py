import json
import re
import tracemalloc

import numpy as np
import pytest

from segqa.corpus import (
    CorpusError,
    discover_cases,
    find_channel_volumes,
    find_label_volumes,
    load_label_volume,
    load_prediction_set,
    read_ranking_csv,
    read_sizes,
    write_csv,
)
from segqa.nifti import open_replacing, read_volume, write_volume
from segqa.volume import VolumeGrid


def write_float(path, values):
    path.parent.mkdir(parents=True, exist_ok=True)
    write_volume(VolumeGrid(np.asarray(values, dtype=np.float32)), path)


class TestDiscovery:
    def test_channel_convention(self, tmp_path):
        write_float(tmp_path / "m" / "c1_organ1.nii.gz", np.zeros((2, 2, 2)))
        write_float(tmp_path / "m" / "c1_organ2.nii.gz", np.zeros((2, 2, 2)))
        write_float(tmp_path / "m" / "c2_organ1.nii.gz", np.zeros((2, 2, 2)))
        write_float(tmp_path / "m" / "c2_organ2.nii.gz", np.zeros((2, 2, 2)))
        found = find_channel_volumes(tmp_path / "m")
        assert sorted(found) == ["c1", "c2"]
        assert sorted(found["c1"]) == [1, 2]

    def test_label_discovery_skips_channel_files(self, tmp_path):
        write_float(tmp_path / "d" / "case_organ1.nii.gz", np.zeros((2, 2, 2)))
        grid = VolumeGrid(np.zeros((2, 2, 2), dtype=np.uint8))
        write_volume(grid, tmp_path / "d" / "case.nii.gz")
        assert sorted(find_label_volumes(tmp_path / "d")) == ["case"]

    def test_case_mismatch_across_models(self, tmp_path):
        write_float(tmp_path / "a" / "c1_organ1.nii.gz", np.zeros((2, 2, 2)))
        write_float(tmp_path / "b" / "c2_organ1.nii.gz", np.zeros((2, 2, 2)))
        with pytest.raises(CorpusError, match="disagree"):
            discover_cases([tmp_path / "a", tmp_path / "b"])

    def test_noncontiguous_codes_rejected(self, tmp_path):
        write_float(tmp_path / "m" / "c1_organ1.nii.gz", np.zeros((2, 2, 2)))
        write_float(tmp_path / "m" / "c1_organ3.nii.gz", np.zeros((2, 2, 2)))
        with pytest.raises(CorpusError, match="codes"):
            discover_cases([tmp_path / "m"])

    def test_empty_directory_rejected(self, tmp_path):
        (tmp_path / "m").mkdir()
        with pytest.raises(CorpusError):
            find_channel_volumes(tmp_path / "m")


class TestTwoFilesForOneInput:
    """Discovery refuses two files for one input and names both; neither is picked."""

    @pytest.mark.parametrize("names", [("c1_organ1.nii", "c1_organ1.nii.gz"),
                                       ("c1_organ01.nii.gz", "c1_organ1.nii.gz")],
                             ids=["nii-and-gz", "organ01-and-organ1"])
    def test_channel_files(self, tmp_path, names):
        for name in names:
            write_float(tmp_path / "m" / name, np.zeros((2, 2, 2)))
        with pytest.raises(CorpusError, match=r"case 'c1', organ 1 has two files") as exc:
            find_channel_volumes(tmp_path / "m")
        assert all(name in str(exc.value) for name in names)

    def test_manifest_codes(self, tmp_path):
        model = tmp_path / "m"
        for name in ("a.nii.gz", "b.nii.gz"):
            write_float(model / name, np.zeros((2, 2, 2)))
        (model / "manifest.json").write_text(
            json.dumps({"cases": {"c1": {"1": "a.nii.gz", "01": "b.nii.gz"}}}))
        with pytest.raises(CorpusError, match=r"case 'c1', organ 1 has two files: "
                                              r"a\.nii\.gz and b\.nii\.gz$"):
            find_channel_volumes(model)

    def test_label_files(self, tmp_path):
        grid = VolumeGrid(np.zeros((2, 2, 2), dtype=np.uint8))
        for name in ("c1.nii", "c1.nii.gz"):
            write_volume(grid, tmp_path / name)
        with pytest.raises(CorpusError) as exc:
            find_label_volumes(tmp_path)
        assert str(exc.value) == (f"case 'c1' has two label files: {tmp_path / 'c1.nii'} and "
                                  f"{tmp_path / 'c1.nii.gz'}")

    def test_model_directory_given_twice(self, tmp_path):
        write_float(tmp_path / "one" / "c1_organ1.nii.gz", np.zeros((2, 2, 2)))
        again = tmp_path / "one" / ".." / "one"
        with pytest.raises(CorpusError) as exc:
            discover_cases([tmp_path / "one", again])
        assert str(exc.value) == f"model directory given twice: {tmp_path / 'one'} and {again}"


class TestListingOrder:
    """Listings sort names as str, in the order sorted(Path.iterdir()) gives them."""

    NAMES = ("case9", "case10", "a.b", "a", "A", "a-b", "B-1", "a_b")

    def test_channel_order_unchanged(self, tmp_path):
        from segqa.corpus import CHANNEL_RE

        # One file per channel: two files for one channel are refused.
        for i, case in enumerate(self.NAMES):
            for code in (10, 2, 1):
                (tmp_path / f"{case}_organ{code}{('.nii.gz', '.nii')[i % 2]}").touch()
        expected = {}
        for path in sorted(tmp_path.iterdir()):
            m = CHANNEL_RE.match(path.name)
            if m:
                expected.setdefault(m.group("case"), {})[int(m.group("code"))] = path.name
        found = find_channel_volumes(tmp_path)
        assert [(c, list(v.items())) for c, v in found.items()] == [
            (c, list(v.items())) for c, v in expected.items()
        ]
        assert found["a.b"][1] == "a.b_organ1.nii.gz"

    def test_label_order_unchanged(self, tmp_path):
        from segqa.corpus import CHANNEL_RE, LABEL_RE

        for i, case in enumerate(self.NAMES):
            for name in (f"{case}{('.nii', '.nii.gz')[i % 2]}", f"{case}_organ1.nii.gz"):
                (tmp_path / name).touch()
        expected = {}
        for path in sorted(tmp_path.iterdir()):
            m = LABEL_RE.match(path.name)
            if m and not CHANNEL_RE.match(path.name):
                expected[m.group("case")] = path
        found = find_label_volumes(tmp_path)
        assert list(found.items()) == list(expected.items())
        assert found["case10"].name == "case10.nii.gz"


class TestManifestOverride:
    def test_manifest_maps_arbitrary_names(self, tmp_path):
        model = tmp_path / "model"
        write_float(model / "weird_name_a.nii.gz", np.full((2, 2, 2), 0.25))
        write_float(model / "weird_name_b.nii.gz", np.full((2, 2, 2), 0.75))
        (model / "manifest.json").write_text(
            json.dumps(
                {
                    "cases": {
                        "caseX": {"1": "weird_name_a.nii.gz", "2": "weird_name_b.nii.gz"}
                    }
                }
            )
        )
        found = find_channel_volumes(model)
        assert list(found) == ["caseX"]
        preds = load_prediction_set("caseX", discover_cases([model]).members["caseX"])
        assert len(preds.organs) == 2
        assert float(preds.organs[1].crops[0][0, 0, 0]) == 0.75


    @pytest.mark.parametrize("case_id", ["../../escape", "sub/case", "..", "a..b", "win\\case", ""])
    def test_manifest_rejects_path_escaping_case_id(self, tmp_path, case_id):
        model = tmp_path / "model"
        write_float(model / "a.nii.gz", np.zeros((2, 2, 2)))
        manifest = model / "manifest.json"
        manifest.write_text(json.dumps({"cases": {case_id: {"1": "a.nii.gz"}}}))
        with pytest.raises(CorpusError) as exc:
            find_channel_volumes(model)
        assert str(manifest) in str(exc.value)
        assert repr(case_id) in str(exc.value)

    @pytest.mark.parametrize("rel", ["/data/other/a.nii.gz", "../outside.nii.gz", "sub/../../x.nii.gz", ".."])
    def test_manifest_rejects_channel_path_outside_model_dir(self, tmp_path, rel):
        model = tmp_path / "model"
        write_float(model / "a.nii.gz", np.zeros((2, 2, 2)))
        manifest = model / "manifest.json"
        manifest.write_text(json.dumps({"cases": {"c1": {"1": "a.nii.gz", "2": rel}}}))
        with pytest.raises(CorpusError) as exc:
            find_channel_volumes(model)
        assert str(manifest) in str(exc.value)
        assert repr(rel) in str(exc.value) and "'c1'" in str(exc.value)

    def test_manifest_accepts_nested_relative_paths(self, tmp_path):
        model = tmp_path / "model"
        write_float(model / "sub" / "a.nii.gz", np.zeros((2, 2, 2)))
        (model / "manifest.json").write_text(
            json.dumps({"cases": {"c.1": {"1": "sub/./a.nii.gz"}}})
        )
        assert find_channel_volumes(model) == {"c.1": {1: "sub/./a.nii.gz"}}
        preds = load_prediction_set("c.1", discover_cases([model]).members["c.1"])
        assert len(preds.organs) == 1

class TestLoad:
    def test_prediction_set_model_ids_from_dir_names(self, tmp_path):
        for model in ("alpha", "beta"):
            write_float(tmp_path / model / "c_organ1.nii.gz", np.zeros((2, 2, 2)))
        index = discover_cases([tmp_path / "alpha", tmp_path / "beta"])
        preds = load_prediction_set("c", index.members["c"])
        assert list(preds.model_ids) == ["alpha", "beta"]

    def test_nan_channel_names_case_and_file(self, tmp_path):
        write_float(tmp_path / "alpha" / "c_organ1.nii.gz", np.zeros((2, 2, 2)))
        bad = np.zeros((2, 2, 2))
        bad[1, 1, 1] = np.nan
        write_float(tmp_path / "beta" / "c_organ1.nii.gz", bad)
        index = discover_cases([tmp_path / "alpha", tmp_path / "beta"])
        with pytest.raises(CorpusError) as exc:
            load_prediction_set("c", index.members["c"])
        message = str(exc.value)
        assert "case 'c'" in message and "model 'beta', organ 1" in message
        assert str(tmp_path / "beta" / "c_organ1.nii.gz") in message

    def test_nan_inside_a_box_names_case_model_organ_and_file(self, tmp_path):
        models = ("alpha", "beta", "gamma")
        for model in models:
            for code in (1, 2):
                values = np.zeros((6, 6, 6))
                values[1:5, 1:5, 1:5] = 0.25 * code
                if (model, code) == ("gamma", 2):
                    values[2, 3, 2] = np.nan  # inside every member's support
                write_float(tmp_path / model / f"c_organ{code}.nii.gz", values)
        index = discover_cases([tmp_path / m for m in models])
        with pytest.raises(CorpusError) as exc:
            load_prediction_set("c", index.members["c"])
        message = str(exc.value)
        assert "case 'c'" in message and "model 'gamma', organ 2" in message
        assert str(tmp_path / "gamma" / "c_organ2.nii.gz") in message

    def test_misaligned_channel_names_case_model_organ_and_file(self, tmp_path):
        for model in ("alpha", "beta"):
            for code in (1, 2):
                values = np.zeros((4, 4, 4), dtype=np.float32)
                values[1:3, 1:3, 1:3] = 0.5
                spacing = (2.0, 1.0, 1.0) if (model, code) == ("beta", 2) else (1.0, 1.0, 1.0)
                path = tmp_path / model / f"c_organ{code}.nii.gz"
                path.parent.mkdir(parents=True, exist_ok=True)
                write_volume(VolumeGrid(values, spacing), path)
        index = discover_cases([tmp_path / "alpha", tmp_path / "beta"])
        with pytest.raises(CorpusError, match="not grid-aligned") as exc:
            load_prediction_set("c", index.members["c"])
        message = str(exc.value)
        assert "case 'c'" in message and "model 'beta', organ 2" in message
        assert str(tmp_path / "beta" / "c_organ2.nii.gz") in message

    def test_channels_without_zeros_are_held_once(self, tmp_path):
        """A channel with no exact zero has the whole volume as its box; the
        loaded case holds each decoded channel once, with no dense copy."""
        dims, models, organs = (32, 32, 24), ("m0", "m1", "m2"), (1, 2, 3, 4)
        for k, model in enumerate(models):
            for code in organs:
                values = np.full(dims, 1e-30)
                values[2 * code:2 * code + 5, 3:9, 4:8] = 0.1 * (k + code)
                write_float(tmp_path / model / f"c_organ{code}.nii.gz", values)
        members = discover_cases([tmp_path / m for m in models]).members["c"]
        load_prediction_set("c", members)  # first calls warm up outside the measurement
        tracemalloc.start()
        try:
            preds = load_prediction_set("c", members)
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        channel = int(np.prod(dims)) * 4
        dense = len(models) * len(organs) * channel
        assert all(crop.shape == dims for organ in preds.organs for crop in organ.crops)
        assert held < dense + channel
        assert peak < dense + len(models) * channel

    def test_held_bytes_do_not_grow_with_the_volume(self, tmp_path):
        """Eight times the volume around the same organ boxes: the loaded case
        holds less than one dense channel more."""

        def held(dims):
            root = tmp_path / "x".join(map(str, dims))
            for k in range(3):
                for code in (1, 2, 3):
                    values = np.zeros(dims)
                    values[1 + code:5 + code, 2:6, 1:4] = 0.1 * (k + code)
                    write_float(root / f"m{k}" / f"c_organ{code}.nii.gz", values)
            members = discover_cases([root / f"m{k}" for k in range(3)]).members["c"]
            tracemalloc.start()
            try:
                preds = load_prediction_set("c", members)
                return tracemalloc.get_traced_memory()[0], preds
            finally:
                tracemalloc.stop()

        small, small_preds = held((12, 12, 8))
        large, large_preds = held((24, 24, 16))
        assert large - small < 24 * 24 * 16 * 4
        assert [o.box for o in small_preds.organs] == [o.box for o in large_preds.organs]

    def test_one_organ_of_dense_channels_alive_while_loading(self, tmp_path):
        """The previous organ's K dense channels are dropped before the next
        organ is decoded, so loading peaks below 2K dense channels."""
        dims, models = (32, 32, 24), ("m0", "m1", "m2")
        for k, model in enumerate(models):
            for code in (1, 2, 3, 4):
                values = np.zeros(dims)
                values[2 * code:2 * code + 5, 3:9, 4:8] = 0.1 * (k + code)
                write_float(tmp_path / model / f"c_organ{code}.nii.gz", values)
        members = discover_cases([tmp_path / m for m in models]).members["c"]
        load_prediction_set("c", members)  # first calls warm up outside the measurement
        tracemalloc.start()
        try:
            load_prediction_set("c", members)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * len(models) * int(np.prod(dims)) * 4

    @pytest.mark.parametrize("dtype, value", [(np.float32, 1.0), (np.int16, -3), (np.uint8, 3)])
    def test_label_volume_must_be_non_negative_integers(self, tmp_path, dtype, value):
        path = tmp_path / "case.nii.gz"
        values = np.zeros((3, 2, 2), dtype=dtype)
        values[2, 1, 1] = value
        write_volume(VolumeGrid(values), path)
        with pytest.raises(CorpusError, match=r"integer-kind|>= 0|must lie in 0\.\.2") as exc:
            load_label_volume(path, 2)
        assert str(path) in str(exc.value)

    def test_int16_labels_load(self, tmp_path):
        path = tmp_path / "case.nii.gz"
        write_volume(VolumeGrid(np.full((2, 2, 2), 2, dtype=np.int16)), path)
        lv = load_label_volume(path, 2)
        assert lv.grid.values.dtype == np.int16 and int(lv.grid.values.sum()) == 16

    def test_file_like_read(self, tmp_path):
        path = tmp_path / "v.nii"
        write_volume(VolumeGrid(np.ones((2, 2, 2), dtype=np.uint8)), path)
        with open(path, "rb") as f:
            grid = read_volume(f)
        assert grid.values.sum() == 8


class TestIndex:
    def test_index_holds_each_case_channels_in_code_order(self, tmp_path):
        dirs = [tmp_path / "beta", tmp_path / "alpha"]
        for model in dirs:
            for case in ("c2", "c1"):
                for code in range(10, 0, -1):  # c_organ10 sorts before c_organ2 by name
                    write_float(model / f"{case}_organ{code}.nii.gz", np.zeros((2, 2, 2)))
        index = discover_cases(dirs)
        assert index.case_ids == ["c1", "c2"]
        assert index.organ_count == 10
        assert list(index.members) == ["c1", "c2"]
        assert index.members["c2"] == tuple(
            (d, tuple(f"c2_organ{code}.nii.gz" for code in range(1, 11))) for d in dirs
        )

    def test_load_lists_no_directory(self, tmp_path, monkeypatch):
        from segqa import corpus

        for model in ("alpha", "beta"):
            for code in (1, 2):
                write_float(tmp_path / model / f"c_organ{code}.nii.gz", np.full((2, 2, 2), code / 4))
        index = discover_cases([tmp_path / "alpha", tmp_path / "beta"])
        monkeypatch.setattr(corpus, "find_channel_volumes", lambda d: pytest.fail(f"listed {d}"))
        preds = load_prediction_set("c", index.members["c"])
        assert list(preds.model_ids) == ["alpha", "beta"]
        assert [float(organ.crops[1][0, 0, 0]) for organ in preds.organs] == [0.25, 0.5]


class TestCaseIdRule:
    @pytest.mark.parametrize("name", ["...nii.gz", "...nii", "a..b.nii.gz"])
    def test_label_file_name(self, tmp_path, name):
        write_volume(VolumeGrid(np.zeros((2, 2, 2), dtype=np.uint8)), tmp_path / "ok.nii.gz")
        write_volume(VolumeGrid(np.zeros((2, 2, 2), dtype=np.uint8)), tmp_path / name)
        with pytest.raises(CorpusError) as exc:
            find_label_volumes(tmp_path)
        assert str(tmp_path / name) in str(exc.value)

    @pytest.mark.parametrize("name", [".._organ1.nii.gz", "a..b_organ1.nii"])
    def test_channel_file_name(self, tmp_path, name):
        write_float(tmp_path / "m" / "ok_organ1.nii.gz", np.zeros((2, 2, 2)))
        write_float(tmp_path / "m" / name, np.zeros((2, 2, 2)))
        with pytest.raises(CorpusError) as exc:
            find_channel_volumes(tmp_path / "m")
        assert str(tmp_path / "m" / name) in str(exc.value)

    @pytest.mark.parametrize("case_id", ["../../escape", "sub/case", "win\\case", "..", "", 7, None])
    def test_sidecar_case_id(self, tmp_path, case_id):
        (tmp_path / "ok_sizes.json").write_text(json.dumps({"case_id": "ok"}))
        bad = tmp_path / "bad_sizes.json"
        bad.write_text(json.dumps({"case_id": case_id}))
        with pytest.raises(CorpusError) as exc:
            read_sizes(tmp_path)
        assert str(bad) in str(exc.value) and repr(case_id) in str(exc.value)


class TestWritesByRename:
    def test_failed_csv_write_keeps_previous_file(self, tmp_path):
        path = tmp_path / "ranking.csv"
        write_csv(path, ["rank"], [[1]])
        before = path.read_bytes()

        def rows_then_crash():
            yield [2]
            raise RuntimeError("killed part-way")

        with pytest.raises(RuntimeError):
            write_csv(path, ["rank"], rows_then_crash())
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["ranking.csv"]

    @pytest.mark.parametrize("name", ["c_organ1.nii.gz", "c.nii", "c_sizes.json"])
    def test_temp_file_is_invisible_to_discovery(self, tmp_path, name):
        with open_replacing(tmp_path / name) as f:
            f.write(b"half a file")
            assert len(list(tmp_path.iterdir())) == 1
            for discover in (find_channel_volumes, find_label_volumes, read_sizes):
                with pytest.raises(CorpusError, match="found"):
                    discover(tmp_path)
        assert [p.name for p in tmp_path.iterdir()] == [name]


class TestReadRankingCsv:
    @pytest.mark.parametrize("row", ["2", "2,b,5.0,extra", "2,../x,5.0"])
    def test_malformed_row_is_a_corpus_error(self, tmp_path, row):
        path = tmp_path / "ranking.csv"
        path.write_text(f"rank,case_id,total_mm3\n{row}\n")
        with pytest.raises(CorpusError, match=re.escape(f"{path}: row 1: ")):
            read_ranking_csv(path)
