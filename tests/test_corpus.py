import json

import numpy as np
import pytest

from segqa.corpus import (
    CorpusError,
    discover_cases,
    find_channel_volumes,
    find_label_volumes,
    load_prediction_set,
)
from segqa.nifti import read_volume, write_volume
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
        preds = load_prediction_set("caseX", [model])
        assert preds.num_organs == 2
        assert float(preds.members[0].channels[1].values[0, 0, 0]) == 0.75


class TestLoad:
    def test_prediction_set_model_ids_from_dir_names(self, tmp_path):
        for model in ("alpha", "beta"):
            write_float(tmp_path / model / "c_organ1.nii.gz", np.zeros((2, 2, 2)))
        preds = load_prediction_set("c", [tmp_path / "alpha", tmp_path / "beta"])
        assert [m.model_id for m in preds.members] == ["alpha", "beta"]

    def test_nan_channel_names_case_and_file(self, tmp_path):
        write_float(tmp_path / "alpha" / "c_organ1.nii.gz", np.zeros((2, 2, 2)))
        bad = np.zeros((2, 2, 2))
        bad[1, 1, 1] = np.nan
        write_float(tmp_path / "beta" / "c_organ1.nii.gz", bad)
        with pytest.raises(CorpusError) as exc:
            load_prediction_set("c", [tmp_path / "alpha", tmp_path / "beta"])
        message = str(exc.value)
        assert "case 'c'" in message and "model 'beta', organ 1" in message
        assert str(tmp_path / "beta" / "c_organ1.nii.gz") in message

    def test_file_like_read(self, tmp_path):
        path = tmp_path / "v.nii"
        write_volume(VolumeGrid(np.ones((2, 2, 2), dtype=np.uint8)), path)
        with open(path, "rb") as f:
            grid = read_volume(f)
        assert grid.values.sum() == 8
