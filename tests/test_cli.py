import csv
import json
from pathlib import Path

import numpy as np
import pytest

from segqa.cli import main
from segqa.nifti import read_volume, write_volume
from segqa.volume import VolumeGrid


def write_channel(path: Path, values: np.ndarray, spacing=(1.0, 1.0, 1.0)):
    path.parent.mkdir(parents=True, exist_ok=True)
    write_volume(VolumeGrid(values.astype(np.float32), spacing), path)


def write_labels(path: Path, values: np.ndarray, spacing=(1.0, 1.0, 1.0)):
    path.parent.mkdir(parents=True, exist_ok=True)
    write_volume(VolumeGrid(values.astype(np.uint8), spacing), path)


@pytest.fixture
def blob_corpus(tmp_path):
    """Two models, one organ, one case: they disagree on a 12-voxel blob."""
    dims = (6, 6, 6)
    blob = np.zeros(dims, dtype=np.float32)
    blob[1:4, 1:3, 1:3] = 1.0
    write_channel(tmp_path / "modelA" / "case1_organ1.nii.gz", blob)
    write_channel(tmp_path / "modelB" / "case1_organ1.nii.gz", np.zeros(dims, np.float32))
    return tmp_path, int(blob.sum())


def two_pending_cases():
    from segqa.campaign import CaseEntry

    return tuple(
        CaseEntry(case_id=cid, per_organ_mm3={"organ1": mm3}, total_mm3=mm3,
                  created_at="t0", updated_at="t0")
        for cid, mm3 in (("a", 2.0), ("b", 1.0))
    )


class TestEstimate:
    def test_headline_output(self, capsys):
        assert main(["estimate", "--revised", "400", "--total", "8000"]) == 0
        out = capsys.readouterr().out
        assert "estimated days: 12.5" in out
        assert "human fraction: 5.0%" in out

    def test_fraction_line(self, capsys):
        assert main(["estimate", "--revised", "600", "--total", "8000"]) == 0
        assert "human fraction: 7.5%" in capsys.readouterr().out

    def test_validation_exit_code(self, capsys):
        assert main(["estimate", "--revised", "10", "--total", "5"]) == 1


class TestDetectRankSelect:
    def test_detect_writes_blob_sized_attention(self, blob_corpus, capsys):
        root, blob_voxels = blob_corpus
        out = root / "attention"
        rc = main(
            ["detect", "--preds", str(root / "modelA"), str(root / "modelB"),
             "--out", str(out)]
        )
        assert rc == 0
        sizes = json.loads((out / "case1_sizes.json").read_text())
        assert sizes["total_mm3"] == float(blob_voxels)
        assert sizes["per_organ_mm3"]["organ1"] == float(blob_voxels)
        assert sizes["config"]["std_threshold"] == 0.1
        union = read_volume(out / "case1_attention.nii.gz")
        assert int(union.values.sum()) == blob_voxels

    def test_detect_rejects_nan_channel(self, blob_corpus, capsys):
        root, _ = blob_corpus
        bad = np.zeros((6, 6, 6), dtype=np.float32)
        bad[2, 2, 2] = np.nan
        path = root / "modelB" / "case1_organ1.nii.gz"
        write_channel(path, bad)
        rc = main(["detect", "--preds", str(root / "modelA"), str(root / "modelB"),
                   "--out", str(root / "attention")])
        assert rc == 1
        err = capsys.readouterr().err
        assert f"case 'case1': {path}: model 'modelB', organ 1:" in err
        assert not (root / "attention" / "case1_sizes.json").exists()

    def test_detect_rejects_path_escaping_manifest(self, blob_corpus, capsys):
        root, _ = blob_corpus
        for model in ("modelA", "modelB"):
            channel = str(root / model / "case1_organ1.nii.gz")  # absolute, and readable
            manifest = root / model / "manifest.json"
            manifest.write_text(json.dumps({"cases": {"../../escape": {"1": channel}}}))
        out = root / "deep" / "attention"
        rc = main(["detect", "--preds", str(root / "modelA"), str(root / "modelB"),
                   "--out", str(out)])
        assert rc == 1
        assert "'../../escape'" in capsys.readouterr().err
        assert not (root / "escape_attention_organ1.nii.gz").exists()
        assert not (root / "escape_sizes.json").exists()

    def test_detect_needs_two_models(self, blob_corpus):
        root, _ = blob_corpus
        rc = main(["detect", "--preds", str(root / "modelA"), "--out", str(root / "x")])
        assert rc == 1

    def test_rank_and_select(self, blob_corpus, capsys, tmp_path):
        root, blob_voxels = blob_corpus
        # add a second, clean case
        dims = (6, 6, 6)
        write_channel(root / "modelA" / "case2_organ1.nii.gz", np.zeros(dims, np.float32))
        write_channel(root / "modelB" / "case2_organ1.nii.gz", np.zeros(dims, np.float32))
        out = root / "attention"
        main(["detect", "--preds", str(root / "modelA"), str(root / "modelB"),
              "--out", str(out)])

        ranking = tmp_path / "ranking.csv"
        curve = tmp_path / "curve.csv"
        assert main(["rank", "--attention", str(out), "--out", str(ranking),
                     "--curve", str(curve)]) == 0
        with open(ranking) as f:
            rows = list(csv.DictReader(f))
        assert [r["case_id"] for r in rows] == ["case1", "case2"]
        assert float(rows[0]["total_mm3"]) == float(blob_voxels)
        assert rows[0]["organ1_mm3"]
        with open(curve) as f:
            curve_rows = list(csv.DictReader(f))
        assert [r["rank"] for r in curve_rows] == ["1", "2"]

        capsys.readouterr()
        assert main(["select", "--ranking", str(ranking), "--threshold-mm3", "5",
                     "--knee"]) == 0
        printed = capsys.readouterr().out
        assert "case1" in printed.splitlines()[0]
        assert "1 of 2 cases" in printed

    def test_select_rejects_negative_threshold(self, blob_corpus, capsys, tmp_path):
        root, _ = blob_corpus
        out = root / "attention"
        main(["detect", "--preds", str(root / "modelA"), str(root / "modelB"),
              "--out", str(out)])
        ranking = tmp_path / "ranking.csv"
        assert main(["rank", "--attention", str(out), "--out", str(ranking)]) == 0
        capsys.readouterr()
        rc = main(["select", "--ranking", str(ranking), "--threshold-mm3", "-1"])
        assert rc == 1
        assert "size threshold must be >= 0" in capsys.readouterr().err

    def test_nine_channel_corpus_gets_standard_organ_names(self, tmp_path):
        dims = (4, 4, 4)
        for model in ("m1", "m2"):
            for code in range(1, 10):
                write_channel(
                    tmp_path / model / f"c_organ{code}.nii.gz", np.zeros(dims, np.float32)
                )
        out = tmp_path / "att"
        assert main(["detect", "--preds", str(tmp_path / "m1"), str(tmp_path / "m2"),
                     "--out", str(out)]) == 0
        sizes = json.loads((out / "c_sizes.json").read_text())
        assert sizes["organ_names"] == [
            "Spl", "RKid", "LKid", "Gall", "Liv", "Sto", "Aor", "IVC", "Pan"
        ]

    def test_jobs_do_not_change_bytes(self, blob_corpus):
        root, _ = blob_corpus
        out1, out2 = root / "j1", root / "j2"
        args = ["--preds", str(root / "modelA"), str(root / "modelB")]
        assert main(["detect", *args, "--out", str(out1), "--jobs", "1"]) == 0
        assert main(["detect", *args, "--out", str(out2), "--jobs", "4"]) == 0
        names1 = sorted(p.name for p in out1.iterdir())
        names2 = sorted(p.name for p in out2.iterdir())
        assert names1 == names2
        for name in names1:
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


class TestDscAndMatrix:
    def test_dsc_self_is_one(self, tmp_path, capsys):
        values = np.zeros((4, 4, 4), dtype=np.uint8)
        values[1:3] = 1
        path = tmp_path / "m.nii.gz"
        write_labels(path, values)
        assert main(["dsc", "--a", str(path), "--b", str(path)]) == 0
        assert capsys.readouterr().out.strip() == "1.0"

    def test_dsc_with_organ_code(self, tmp_path, capsys):
        a = np.zeros((2, 1, 1), dtype=np.uint8)
        a[0] = 2
        b = np.zeros((2, 1, 1), dtype=np.uint8)
        b[0] = 2
        b[1] = 1  # different organ, ignored when comparing code 2
        pa, pb = tmp_path / "a.nii", tmp_path / "b.nii"
        write_labels(pa, a)
        write_labels(pb, b)
        assert main(["dsc", "--a", str(pa), "--b", str(pb), "--organ", "2"]) == 0
        assert capsys.readouterr().out.strip() == "1.0"

    def test_matrix(self, tmp_path):
        base = np.zeros((3, 3, 3), dtype=np.uint8)
        base[0] = 1
        other = np.zeros((3, 3, 3), dtype=np.uint8)
        other[1] = 1
        paths = []
        for name, values in [("x", base), ("y", base), ("z", other)]:
            p = tmp_path / f"{name}.nii.gz"
            write_labels(p, values)
            paths.append(str(p))
        out = tmp_path / "matrix.csv"
        assert main(["matrix", "--inputs", *paths, "--organ", "1", "--out", str(out)]) == 0
        with open(out) as f:
            rows = list(csv.reader(f))
        assert rows[0] == ["", "x", "y", "z"]
        assert float(rows[1][2]) == 1.0  # x vs y identical
        assert float(rows[1][3]) == 0.0  # x vs z disjoint


class TestEnsembleCli:
    def test_majority_vote_labels(self, tmp_path):
        dims = (3, 3, 3)
        one = np.ones(dims, dtype=np.float32)
        zero = np.zeros(dims, dtype=np.float32)
        for model, ch in [("m1", one), ("m2", one), ("m3", zero)]:
            write_channel(tmp_path / model / "k_organ1.nii.gz", ch)
        out = tmp_path / "labels"
        rc = main(
            ["ensemble", "--preds", str(tmp_path / "m1"), str(tmp_path / "m2"),
             str(tmp_path / "m3"), "--out", str(out)]
        )
        assert rc == 0
        label = read_volume(out / "k.nii.gz")
        assert label.values.all()
        sidecar = json.loads((out / "k_ensemble.json").read_text())
        assert sidecar["model_ids"] == ["m1", "m2", "m3"]


class TestEvaluateCli:
    def test_end_to_end_metrics(self, blob_corpus, tmp_path):
        root, blob_voxels = blob_corpus
        out = root / "attention"
        main(["detect", "--preds", str(root / "modelA"), str(root / "modelB"),
              "--out", str(out)])
        dims = (6, 6, 6)
        truth = np.zeros(dims, dtype=np.uint8)
        truth[1:4, 1:3, 1:3] = 1  # model A was right
        write_labels(root / "truth" / "case1.nii.gz", truth)
        write_labels(root / "pseudo" / "case1.nii.gz", np.zeros(dims, np.uint8))

        metrics = tmp_path / "metrics.json"
        rc = main(
            ["evaluate", "--attention", str(out), "--pseudo", str(root / "pseudo"),
             "--truth", str(root / "truth"), "--out", str(metrics)]
        )
        assert rc == 0
        payload = json.loads(metrics.read_text())
        organ = payload["cases"]["case1"]["organ1"]
        assert organ["sensitivity"] == 1.0
        assert organ["precision"] == 1.0
        assert organ["dsc"] == 0.0
        csv_text = metrics.with_suffix(".csv").read_text()
        assert "case1,organ1," in csv_text

    def test_undefined_metrics_spelled_out(self, tmp_path):
        dims = (4, 4, 4)
        zero = np.zeros(dims, np.float32)
        write_channel(tmp_path / "m1" / "c_organ1.nii.gz", zero)
        write_channel(tmp_path / "m2" / "c_organ1.nii.gz", zero)
        out = tmp_path / "att"
        main(["detect", "--preds", str(tmp_path / "m1"), str(tmp_path / "m2"),
              "--out", str(out)])
        write_labels(tmp_path / "truth" / "c.nii.gz", np.zeros(dims, np.uint8))
        write_labels(tmp_path / "pseudo" / "c.nii.gz", np.zeros(dims, np.uint8))
        metrics = tmp_path / "m.json"
        main(["evaluate", "--attention", str(out), "--pseudo", str(tmp_path / "pseudo"),
              "--truth", str(tmp_path / "truth"), "--out", str(metrics)])
        payload = json.loads(metrics.read_text())
        organ = payload["cases"]["c"]["organ1"]
        assert organ["sensitivity"] is None
        assert organ["precision"] is None
        assert "undefined" in metrics.with_suffix(".csv").read_text()


class TestCampaignCli:
    def test_init_status_mark_stop(self, blob_corpus, capsys):
        root, _ = blob_corpus
        out = root / "attention"
        main(["detect", "--preds", str(root / "modelA"), str(root / "modelB"),
              "--out", str(out)])
        state = root / "campaign.json"
        assert main(["campaign", "init", "--state", str(state),
                     "--attention", str(out)]) == 0
        assert main(["campaign", "init", "--state", str(state),
                     "--attention", str(out)]) == 1  # refuses to clobber

        capsys.readouterr()
        assert main(["campaign", "stop-check", "--state", str(state)]) == 0
        assert capsys.readouterr().out.strip().endswith("false")

        assert main(["campaign", "mark", "--state", str(state), "--case", "case1",
                     "--status", "confirmed", "--tag", "boundary"]) == 0
        capsys.readouterr()
        assert main(["campaign", "stop-check", "--state", str(state)]) == 0
        assert capsys.readouterr().out.strip().endswith("true")

        payload = json.loads(state.read_text())
        assert payload["version"] == 1
        assert payload["cases"][0]["error_tags"] == ["boundary"]

    def test_mark_holds_one_lock_across_load_and_save(self, tmp_path, monkeypatch, capsys):
        from segqa import campaign

        state = tmp_path / "campaign.json"
        campaign.save_state(campaign.CampaignState(cases=two_pending_cases()), state)
        original = campaign.mark_case
        inner = []

        def mark_with_a_concurrent_mark(*args, **kwargs):
            # Another mark arrives while this one is between load and save.
            monkeypatch.setattr(campaign, "mark_case", original)
            inner.append(main(["campaign", "mark", "--state", str(state),
                               "--case", "b", "--status", "revised"]))
            return original(*args, **kwargs)

        monkeypatch.setattr(campaign, "mark_case", mark_with_a_concurrent_mark)
        assert main(["campaign", "mark", "--state", str(state), "--case", "a",
                     "--status", "confirmed"]) == 0
        assert inner == [1]
        assert "in use by another process" in capsys.readouterr().err
        cases = {c["case_id"]: c["status"] for c in json.loads(state.read_text())["cases"]}
        assert cases == {"a": "confirmed", "b": "pending"}

    def test_mark_unknown_case_fails(self, blob_corpus):
        root, _ = blob_corpus
        out = root / "attention"
        main(["detect", "--preds", str(root / "modelA"), str(root / "modelB"),
              "--out", str(out)])
        state = root / "c.json"
        main(["campaign", "init", "--state", str(state), "--attention", str(out)])
        assert main(["campaign", "mark", "--state", str(state), "--case", "nope",
                     "--status", "revised"]) == 1


class TestSimulateCli:
    def test_report_written(self, blob_corpus, tmp_path):
        root, blob_voxels = blob_corpus
        dims = (6, 6, 6)
        truth = np.zeros(dims, dtype=np.uint8)
        truth[1:4, 1:3, 1:3] = 1
        write_labels(root / "truth" / "case1.nii.gz", truth)
        report = tmp_path / "report.json"
        rc = main(
            ["simulate", "--preds", str(root / "modelA"), str(root / "modelB"),
             "--truth", str(root / "truth"), "--loops", "3", "--out", str(report)]
        )
        assert rc == 0
        payload = json.loads(report.read_text())
        loops = payload["loops"]
        assert loops[0]["total_attention_mm3"] == float(blob_voxels)
        assert loops[0]["revised_count"] == 1
        assert loops[0]["residual_error_mm3"] == 0.0
        assert loops[-1]["stopped"] is True
        assert loops[1]["total_attention_mm3"] <= loops[0]["total_attention_mm3"]


class TestFpscanCli:
    def test_counts(self, tmp_path, capsys):
        dims = (5, 5, 5)
        blob = np.zeros(dims, dtype=np.uint8)
        blob[0, 0, 0] = 1
        blob[3, 3, 3] = 1
        write_labels(tmp_path / "preds" / "bad.nii.gz", blob)
        write_labels(tmp_path / "preds" / "clean.nii.gz", np.zeros(dims, np.uint8))
        out = tmp_path / "fp.json"
        rc = main(["fpscan", "--preds", str(tmp_path / "preds"), "--organ", "1",
                   "--out", str(out)])
        assert rc == 0
        payload = json.loads(out.read_text())
        assert payload["total_cases"] == 2
        assert payload["flagged_cases"] == 1
        assert payload["total_components"] == 2
        assert payload["fpr"] == 0.5
        assert payload["per_case"]["bad"] == 2


class TestExitCodes:
    def test_missing_file_is_io_error(self, tmp_path, capsys):
        assert main(["dsc", "--a", str(tmp_path / "no.nii"), "--b",
                     str(tmp_path / "no.nii")]) == 2

    def test_bad_flag_is_validation_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["detect", "--nope"])
        assert exc.value.code == 1

    def test_malformed_nifti_is_validation_error(self, tmp_path):
        bad = tmp_path / "bad.nii"
        bad.write_bytes(b"garbage")
        assert main(["dsc", "--a", str(bad), "--b", str(bad)]) == 1
