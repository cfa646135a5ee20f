import csv
import json
import shutil
import tracemalloc
import weakref
from pathlib import Path

import numpy as np
import pytest

from grids import qform_only
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


MODELS = ("m0", "m1", "m2")


@pytest.fixture
def six_case_corpus(tmp_path):
    """Three models, two organs, six cases of random probabilities, and truth labels."""
    rng = np.random.default_rng(7)
    dims = (5, 5, 4)
    root = tmp_path / "corpus"
    for case in range(6):
        write_labels(root / "truth" / f"case{case}.nii.gz", rng.integers(0, 3, size=dims))
        for model in MODELS:
            for code in (1, 2):
                write_channel(root / model / f"case{case}_organ{code}.nii.gz", rng.random(dims))
    return root, [str(root / m) for m in MODELS]


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


class TestDetectJobs:
    @pytest.mark.parametrize("jobs", ["0", "-3"])
    def test_jobs_below_one_rejected(self, blob_corpus, capsys, jobs):
        root, _ = blob_corpus
        args = ["detect", "--preds", str(root / "modelA"), str(root / "modelB")]
        assert main([*args, "--out", str(root / "att"), "--jobs", jobs]) == 1
        assert "--jobs" in capsys.readouterr().err
        assert not (root / "att").exists()

    @pytest.mark.parametrize("jobs, expected", [(1, []), (2, [2]), (8, [6])])
    def test_pool_never_larger_than_the_case_count(self, six_case_corpus, monkeypatch, tmp_path,
                                                    jobs, expected):
        import multiprocessing

        sizes = []

        class SerialPool:  # records the requested size and starts no process
            def __init__(self, processes):
                sizes.append(processes)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, tasks):
                return [fn(t) for t in tasks]

        monkeypatch.setattr(multiprocessing, "Pool", SerialPool)
        _, models = six_case_corpus
        assert main(["detect", "--preds", *models, "--out", str(tmp_path / "att"),
                     "--jobs", str(jobs)]) == 0
        assert sizes == expected
        assert len(list((tmp_path / "att").glob("*_sizes.json"))) == 6


class TestIntegerChannels:
    """A channel file of an integer kind breaks the float32 rule for soft channels."""

    @pytest.mark.parametrize("dtype", ["int16", "uint8"])
    @pytest.mark.parametrize("command", ["detect", "detect --jobs 2", "ensemble", "simulate"])
    def test_exits_1_naming_case_file_model_and_organ(self, tmp_path, capsys, command, dtype):
        values = np.zeros((4, 4, 4))
        values[1:3, 1:3, 1:3] = 1
        # Two cases, so that --jobs 2 starts a pool; the second has the bad file.
        for case in ("c0", "c1"):
            write_labels(tmp_path / "truth" / f"{case}.nii.gz", values)
            for model in ("m1", "m2"):
                for code in (1, 2):
                    kind = dtype if (case, model, code) == ("c1", "m2", 2) else np.float32
                    path = tmp_path / model / f"{case}_organ{code}.nii.gz"
                    path.parent.mkdir(parents=True, exist_ok=True)
                    write_volume(VolumeGrid(values.astype(kind)), path)
        name, *flags = command.split()
        if name == "simulate":
            flags += ["--truth", str(tmp_path / "truth"), "--out", str(tmp_path / "report.json")]
        else:
            flags += ["--out", str(tmp_path / "out")]
        assert main([name, "--preds", str(tmp_path / "m1"), str(tmp_path / "m2"), *flags]) == 1
        bad = tmp_path / "m2" / "c1_organ2.nii.gz"
        assert capsys.readouterr().err == (
            f"segqa: error: case 'c1': {bad}: model 'm2', organ 2: "
            f"soft channels must be float32, got {dtype}\n")


class TestSupportBoxEndToEnd:
    def test_zero_background_gives_the_bytes_of_full_support(self, tmp_path):
        """Outputs equal those of a copy with no exact zero, whose support box is the volume."""
        rng = np.random.default_rng(11)
        dims = (9, 8, 6)
        for case in ("a", "b"):
            for model in MODELS:
                organs = [np.zeros(dims, np.float32) for _ in range(3)]
                organs[0][1:5, 2:6, 1:4] = rng.integers(0, 11, (4, 4, 3)) / 10
                organs[1][4:8, 1:7, 2:] = rng.integers(0, 11, (4, 6, 4)) / 10  # overlaps organ 1
                if case == "b" and model == "m0":  # organ 3 is empty in case a
                    organs[2][-1, -1, -1] = 0.8
                for code, values in enumerate(organs, start=1):
                    write_channel(tmp_path / "zero" / model / f"{case}_organ{code}.nii.gz", values)
                    write_channel(tmp_path / "full" / model / f"{case}_organ{code}.nii.gz",
                                  np.where(values == 0, np.float32(1e-30), values))
        outputs = {}
        for variant in ("zero", "full"):
            root = tmp_path / variant
            models = [str(root / m) for m in MODELS]
            assert main(["detect", "--preds", *models, "--out", str(root / "att")]) == 0
            assert main(["ensemble", "--preds", *models, "--out", str(root / "ens")]) == 0
            outputs[variant] = {
                p.relative_to(root).as_posix(): p.read_bytes()
                for d in ("att", "ens") for p in sorted((root / d).iterdir())
            }
        assert len(outputs["zero"]) == 2 * (1 + 3 + 1) + 2 * 2
        assert outputs["zero"] == outputs["full"]
        organ3_mm3 = [json.loads(outputs["zero"][f"att/{case}_sizes.json"])["per_organ_mm3"]["organ3"]
                      for case in ("a", "b")]
        assert organ3_mm3 == [0.0, 1.0]


class TestCorpusIndex:
    @pytest.mark.parametrize("command", ["detect", "ensemble", "simulate"])
    def test_each_model_directory_listed_once(self, six_case_corpus, monkeypatch, tmp_path,
                                              command):
        from segqa import corpus

        root, models = six_case_corpus
        listed = []
        real = corpus.find_channel_volumes

        def counting(model_dir):
            listed.append(str(model_dir))
            return real(model_dir)

        monkeypatch.setattr(corpus, "find_channel_volumes", counting)
        out = ["--out", str(tmp_path / "out")]
        if command == "simulate":
            out = ["--truth", str(root / "truth"), "--out", str(tmp_path / "report.json")]
        assert main([command, "--preds", *models, *out]) == 0
        assert sorted(listed) == sorted(models)

    def test_manifest_corpus_gives_identical_outputs(self, six_case_corpus, tmp_path):
        root, models = six_case_corpus
        renamed = []
        for model in models:
            target = tmp_path / "renamed" / Path(model).name
            cases: dict[str, dict[str, str]] = {}
            for path in sorted(Path(model).iterdir()):
                case, code = path.name[: -len(".nii.gz")].split("_organ")
                rel = f"organ-{code}/{case}.nii.gz"
                (target / rel).parent.mkdir(parents=True, exist_ok=True)
                shutil.copyfile(path, target / rel)
                cases.setdefault(case, {})[code] = rel
            (target / "manifest.json").write_text(json.dumps({"cases": cases}))
            renamed.append(str(target))
        for command in ("detect", "ensemble"):
            a, b = tmp_path / f"{command}_a", tmp_path / f"{command}_b"
            assert main([command, "--preds", *models, "--out", str(a)]) == 0
            assert main([command, "--preds", *renamed, "--out", str(b)]) == 0
            names = sorted(p.name for p in a.iterdir())
            assert len(names) > 6 and names == sorted(p.name for p in b.iterdir())
            for name in names:
                assert (a / name).read_bytes() == (b / name).read_bytes(), name

    def test_parallel_task_carries_only_its_case(self, six_case_corpus, monkeypatch, tmp_path):
        from segqa import cli

        root, models = six_case_corpus
        tasks = []

        class InlinePool:
            def __init__(self, processes):
                assert processes == 2

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                tasks.extend(items)
                return [fn(t) for t in items]

        monkeypatch.setattr(cli.multiprocessing, "Pool", InlinePool)
        out = tmp_path / "attention"
        assert main(["detect", "--preds", *models, "--out", str(out), "--jobs", "2"]) == 0
        assert [t[0] for t in tasks] == [f"case{i}" for i in range(6)]
        for case_id, members, out_dir, _ in tasks:
            assert out_dir == str(out)
            assert members == tuple(
                (Path(m), tuple(f"{case_id}_organ{code}.nii.gz" for code in (1, 2)))
                for m in models
            )


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

    def test_dsc_rejects_float32_volume(self, tmp_path, capsys):
        path = tmp_path / "probs.nii.gz"
        write_channel(path, np.array([1.0, 0.7]).reshape(2, 1, 1))
        assert main(["dsc", "--a", str(path), "--b", str(path)]) == 1
        assert "integer-kind" in capsys.readouterr().err

    @pytest.mark.parametrize("organ", ["0", "-1"])
    def test_dsc_rejects_organ_below_one(self, tmp_path, capsys, organ):
        path = tmp_path / "m.nii.gz"
        write_labels(path, np.ones((2, 1, 1)))
        assert main(["dsc", "--a", str(path), "--b", str(path), "--organ", organ]) == 1
        assert "organ code must be >= 1" in capsys.readouterr().err

    def test_dsc_rejects_negative_labels(self, tmp_path, capsys):
        pa, pb = tmp_path / "a.nii.gz", tmp_path / "b.nii.gz"
        write_volume(VolumeGrid(np.array([1, -1, 0, 0], np.int16).reshape(4, 1, 1)), pa)
        write_volume(VolumeGrid(np.array([1, 0, 0, 0], np.int16).reshape(4, 1, 1)), pb)
        assert main(["dsc", "--a", str(pa), "--b", str(pb)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"{pa}: label values must be >= 0" in captured.err

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


    def test_matrix_names_follow_the_label_file_rule(self, tmp_path):
        values = np.zeros((2, 2, 2), dtype=np.uint8)
        values[0] = 1
        names = ("case.nii", "case.nii.gz", "a.b.nii.gz", "x.img")
        for name in names:
            write_labels(tmp_path / name, values)
        out = tmp_path / "matrix.csv"
        assert main(["matrix", "--inputs", *(str(tmp_path / n) for n in names),
                     "--organ", "1", "--out", str(out)]) == 0
        with open(out, newline="") as f:
            rows = list(csv.reader(f))
        assert rows[0] == ["", "case", "case", "a.b", "x.img"]
        assert [r[0] for r in rows[1:]] == ["case", "case", "a.b", "x.img"]

    def test_dsc_names_both_misaligned_files(self, tmp_path, capsys):
        pa, pb = tmp_path / "a.nii.gz", tmp_path / "b.nii.gz"
        write_labels(pa, np.ones((4, 4, 4)))
        write_labels(pb, np.ones((4, 4, 5)))
        assert main(["dsc", "--a", str(pa), "--b", str(pb)]) == 1
        assert capsys.readouterr().err == (
            f"segqa: error: masks {pa} and {pb} are not grid-aligned: "
            f"(4, 4, 4)/(1.0, 1.0, 1.0) vs (4, 4, 5)/(1.0, 1.0, 1.0)\n")

    def test_matrix_names_both_misaligned_files(self, tmp_path, capsys):
        paths = [tmp_path / f"{name}.nii.gz" for name in "xyz"]
        for path, dims in zip(paths, [(3, 3, 3), (3, 3, 3), (3, 2, 3)]):
            write_labels(path, np.ones(dims))
        out = tmp_path / "matrix.csv"
        assert main(["matrix", "--inputs", *map(str, paths), "--organ", "1",
                     "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert f"masks {paths[0]} and {paths[2]} are not grid-aligned" in err
        assert not out.exists()


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


    def test_previous_case_freed_before_next_loads(self, six_case_corpus, monkeypatch,
                                                   tmp_path):
        from segqa import corpus

        _, models = six_case_corpus
        real = corpus.load_prediction_set
        loaded = []
        alive_at_load = []

        def tracking(case_id, members):
            alive_at_load.append(sum(ref() is not None for ref in loaded))
            preds = real(case_id, members)
            loaded.append(weakref.ref(preds))
            return preds

        monkeypatch.setattr(corpus, "load_prediction_set", tracking)
        assert main(["ensemble", "--preds", *models, "--out", str(tmp_path / "out")]) == 0
        assert alive_at_load == [0] * 6


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

    def test_peak_memory_does_not_grow_with_the_organ_count(self, tmp_path):
        """Nine more organs must cost less than one organ's attention mask:
        evaluate reads each mask as it scores the organ."""
        dims = (32, 32, 16)
        rng = np.random.default_rng(5)

        def case_of(organs: int, name: str) -> list[str]:
            root = tmp_path / name
            for code in range(1, organs + 1):
                mask = np.zeros(dims, np.uint8)
                mask[code:code + 4, 4:12, 2:6] = 1
                write_labels(root / "att" / f"c_attention_organ{code}.nii.gz", mask)
            names = [f"organ{code}" for code in range(1, organs + 1)]
            (root / "att" / "c_sizes.json").write_text(json.dumps({
                "case_id": "c", "organ_names": names, "per_organ_mm3": dict.fromkeys(names, 1.0),
                "total_mm3": 1.0, "config": {},
            }))
            for labels in ("pseudo", "truth"):
                write_labels(root / labels / "c.nii.gz", rng.integers(0, organs + 1, size=dims))
            return ["evaluate", "--attention", str(root / "att"), "--pseudo", str(root / "pseudo"),
                    "--truth", str(root / "truth"), "--out", str(root / "metrics.json")]

        def peak(argv: list[str]) -> int:
            tracemalloc.start()
            try:
                assert main(argv) == 0
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        few, many = case_of(9, "organs9"), case_of(18, "organs18")
        # As in the simulate test below: the many-organ case warms up through a
        # copy under another root and is measured on its first call.
        for argv in (few, case_of(18, "organs18_warm")):
            assert main(argv) == 0
        assert peak(many) - peak(few) < int(np.prod(dims))


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

    def test_status_and_stop_check_read_while_locked(self, tmp_path, capsys):
        from segqa import campaign

        state = tmp_path / "campaign.json"
        campaign.save_state(campaign.CampaignState(cases=two_pending_cases()), state)
        with campaign._FileLock(state):
            assert main(["campaign", "status", "--state", str(state)]) == 0
            assert main(["campaign", "stop-check", "--state", str(state)]) == 0
            assert main(["campaign", "mark", "--state", str(state), "--case", "a",
                         "--status", "revised"]) == 1
        out = capsys.readouterr().out
        assert "pending: 2" in out and out.strip().endswith("false")

    def test_sidecar_case_id_cannot_escape(self, blob_corpus, monkeypatch, capsys):
        from segqa import corpus

        root, _ = blob_corpus
        out = root / "deep" / "attention"
        assert main(["detect", "--preds", str(root / "modelA"), str(root / "modelB"),
                     "--out", str(out)]) == 0
        for labels in ("pseudo", "truth"):
            write_labels(root / labels / "case1.nii.gz", np.zeros((6, 6, 6)))
        # readable files where the escaping id points, were it joined onto --attention
        shutil.copyfile(out / "case1_attention_organ1.nii.gz",
                        root / "escape_attention_organ1.nii.gz")
        sizes = json.loads((out / "case1_sizes.json").read_text())
        evil = out / "evil_sizes.json"
        evil.write_text(json.dumps(dict(sizes, case_id="../../escape")))
        before = sorted(p.relative_to(root) for p in root.rglob("*"))
        read = []
        real_read = corpus.read_volume
        monkeypatch.setattr(corpus, "read_volume", lambda p: read.append(p) or real_read(p))

        capsys.readouterr()
        assert main(["evaluate", "--attention", str(out), "--pseudo", str(root / "pseudo"),
                     "--truth", str(root / "truth"), "--out", str(out / "metrics.json")]) == 1
        assert str(evil) in capsys.readouterr().err
        state = out / "campaign.json"
        assert main(["campaign", "init", "--state", str(state), "--attention", str(out)]) == 1
        assert str(evil) in capsys.readouterr().err
        assert read == []
        assert sorted(p.relative_to(root) for p in root.rglob("*")) == before

    @pytest.mark.parametrize("argv, named", [
        (["status", "--force"], "unrecognized arguments: --force"),
        (["stop-check", "--case", "c"], "unrecognized arguments: --case c"),
        (["init"], "required: --attention"),
        (["mark", "--case", "a"], "required: --status"),
    ], ids=["status-force", "stop-check-case", "init-no-attention", "mark-no-status"])
    def test_action_takes_only_its_own_flags(self, tmp_path, capsys, argv, named):
        from segqa import campaign

        state = tmp_path / "campaign.json"
        campaign.save_state(campaign.CampaignState(cases=two_pending_cases()), state)
        before = state.read_bytes()
        with pytest.raises(SystemExit) as exc:
            main(["campaign", argv[0], "--state", str(state), *argv[1:]])
        assert exc.value.code == 1
        assert named in capsys.readouterr().err
        assert state.read_bytes() == before

    def test_mark_unknown_case_fails(self, blob_corpus):
        root, _ = blob_corpus
        out = root / "attention"
        main(["detect", "--preds", str(root / "modelA"), str(root / "modelB"),
              "--out", str(out)])
        state = root / "c.json"
        main(["campaign", "init", "--state", str(state), "--attention", str(out)])
        assert main(["campaign", "mark", "--state", str(state), "--case", "nope",
                     "--status", "revised"]) == 1


class TestMixedSidecars:
    """An attention directory whose sidecars disagree on organ names or config."""

    @pytest.fixture(params=["organ_names", "config"])
    def mixed(self, request, blob_corpus):
        root, _ = blob_corpus
        out = root / "attention"
        assert main(["detect", "--preds", str(root / "modelA"), str(root / "modelB"),
                     "--out", str(out)]) == 0
        sizes = json.loads((out / "case1_sizes.json").read_text())
        field = request.param
        changed = {
            "organ_names": ["liver"],
            "config": dict(sizes["config"], std_threshold=0.2),
        }[field]
        other = out / "case2_sizes.json"
        other.write_text(json.dumps(dict(sizes, case_id="case2", **{field: changed})))
        return root, out, other, field

    def assert_names_file_and_field(self, capsys, other, field):
        err = capsys.readouterr().err
        assert str(other) in err and repr(field) in err

    def test_rank_fails(self, mixed, capsys, tmp_path):
        _, out, other, field = mixed
        ranking = tmp_path / "ranking.csv"
        assert main(["rank", "--attention", str(out), "--out", str(ranking)]) == 1
        self.assert_names_file_and_field(capsys, other, field)
        assert not ranking.exists()

    def test_evaluate_fails(self, mixed, capsys, tmp_path):
        root, out, other, field = mixed
        for labels in ("pseudo", "truth"):
            for case in ("case1", "case2"):
                write_labels(root / labels / f"{case}.nii.gz", np.zeros((6, 6, 6)))
        metrics = tmp_path / "metrics.json"
        assert main(["evaluate", "--attention", str(out), "--pseudo", str(root / "pseudo"),
                     "--truth", str(root / "truth"), "--out", str(metrics)]) == 1
        self.assert_names_file_and_field(capsys, other, field)
        assert not metrics.exists()

    def test_campaign_init_fails(self, mixed, capsys):
        root, out, other, field = mixed
        state = root / "campaign.json"
        assert main(["campaign", "init", "--state", str(state), "--attention", str(out)]) == 1
        self.assert_names_file_and_field(capsys, other, field)
        assert not state.exists()


class TestSidecarSizes:
    """An attention directory with a sidecar whose sizes are not finite numbers >= 0."""

    @pytest.fixture(params=[
        ("total_mm3", float("nan")),
        ("total_mm3", -1.0),
        ("total_mm3", "12"),
        ("per_organ_mm3", 5),
        ("per_organ_mm3", {"organ1": float("nan")}),
        ("per_organ_mm3", {"organ1": -2.0}),
        ("per_organ_mm3", {"organ2": 1.0}),
        ("per_organ_mm3", {}),
        ("per_organ_mm3", {"organ1": 1.0, "organ2": 1.0}),
        ("config", 5),
    ], ids=["total-nan", "total-negative", "total-string", "organs-number", "organ-nan",
            "organ-negative", "organ-renamed", "organ-missing", "organ-extra", "config-number"])
    def bad(self, request, blob_corpus):
        root, _ = blob_corpus
        out = root / "attention"
        assert main(["detect", "--preds", str(root / "modelA"), str(root / "modelB"),
                     "--out", str(out)]) == 0
        sizes = json.loads((out / "case1_sizes.json").read_text())
        field, value = request.param
        other = out / "case2_sizes.json"
        other.write_text(json.dumps(dict(sizes, case_id="case2", **{field: value})))
        return root, out, other, field

    def assert_names_file_and_field(self, capsys, other, field):
        err = capsys.readouterr().err
        assert str(other) in err and repr(field) in err

    def test_rank_fails(self, bad, capsys, tmp_path):
        _, out, other, field = bad
        ranking = tmp_path / "ranking.csv"
        assert main(["rank", "--attention", str(out), "--out", str(ranking)]) == 1
        self.assert_names_file_and_field(capsys, other, field)
        assert not ranking.exists()

    def test_evaluate_fails(self, bad, capsys, tmp_path):
        root, out, other, field = bad
        for labels in ("pseudo", "truth"):
            for case in ("case1", "case2"):
                write_labels(root / labels / f"{case}.nii.gz", np.zeros((6, 6, 6)))
        metrics = tmp_path / "metrics.json"
        assert main(["evaluate", "--attention", str(out), "--pseudo", str(root / "pseudo"),
                     "--truth", str(root / "truth"), "--out", str(metrics)]) == 1
        self.assert_names_file_and_field(capsys, other, field)
        assert not metrics.exists()

    def test_campaign_init_fails(self, bad, capsys):
        root, out, other, field = bad
        state = root / "campaign.json"
        assert main(["campaign", "init", "--state", str(state), "--attention", str(out)]) == 1
        self.assert_names_file_and_field(capsys, other, field)
        assert not state.exists()

    @pytest.mark.parametrize("command", ["rank", "evaluate", "campaign-init"])
    def test_sole_sidecar_without_config_fails(self, blob_corpus, capsys, tmp_path, command):
        def change(sizes):
            del sizes["config"]

        self.assert_sole_sidecar_fails(blob_corpus, capsys, tmp_path, command, change, "config")

    @pytest.mark.parametrize("command", ["rank", "evaluate", "campaign-init"])
    def test_sole_sidecar_with_no_organs_fails(self, blob_corpus, capsys, tmp_path, command):
        def change(sizes):
            sizes.update(organ_names=[], per_organ_mm3={})

        self.assert_sole_sidecar_fails(blob_corpus, capsys, tmp_path, command, change,
                                       "organ_names")

    def assert_sole_sidecar_fails(self, blob_corpus, capsys, tmp_path, command, change, field):
        root, _ = blob_corpus
        out = root / "attention"
        assert main(["detect", "--preds", str(root / "modelA"), str(root / "modelB"),
                     "--out", str(out)]) == 0
        sidecar = out / "case1_sizes.json"
        sizes = json.loads(sidecar.read_text())
        change(sizes)
        sidecar.write_text(json.dumps(sizes))
        for labels in ("pseudo", "truth"):
            write_labels(root / labels / "case1.nii.gz", np.zeros((6, 6, 6)))
        target = tmp_path / "out"
        argv = {
            "rank": ["rank", "--attention", str(out), "--out", str(target)],
            "evaluate": ["evaluate", "--attention", str(out), "--pseudo", str(root / "pseudo"),
                         "--truth", str(root / "truth"), "--out", str(target)],
            "campaign-init": ["campaign", "init", "--state", str(target),
                              "--attention", str(out)],
        }[command]
        capsys.readouterr()
        assert main(argv) == 1
        self.assert_names_file_and_field(capsys, sidecar, field)
        assert not target.exists()


class TestOrganNames:
    """detect, ensemble and evaluate name a corpus's organs by one rule."""

    @pytest.mark.parametrize("organs, names", [
        (9, ["Spl", "RKid", "LKid", "Gall", "Liv", "Sto", "Aor", "IVC", "Pan"]),
        (2, ["organ1", "organ2"]),
    ])
    def test_every_writer_uses_the_same_names(self, tmp_path, organs, names):
        rng = np.random.default_rng(organs)
        dims = (4, 4, 3)
        models = [str(tmp_path / m) for m in ("m1", "m2")]
        for model in models:
            for code in range(1, organs + 1):
                write_channel(Path(model) / f"c_organ{code}.nii.gz", rng.random(dims))
        write_labels(tmp_path / "truth" / "c.nii.gz", rng.integers(0, organs + 1, size=dims))
        att, ens, metrics = tmp_path / "att", tmp_path / "ens", tmp_path / "metrics.json"
        for argv in (["detect", "--preds", *models, "--out", str(att)],
                     ["ensemble", "--preds", *models, "--out", str(ens)],
                     ["evaluate", "--attention", str(att), "--pseudo", str(ens),
                      "--truth", str(tmp_path / "truth"), "--out", str(metrics)]):
            assert main(argv) == 0, argv
        sizes = json.loads((att / "c_sizes.json").read_text())
        assert sizes["organ_names"] == names
        assert sorted(sizes["per_organ_mm3"]) == sorted(names)
        assert json.loads((ens / "c_ensemble.json").read_text())["organ_names"] == names
        # The metrics JSON is written with sorted keys: it pins the names, not their order.
        payload = json.loads(metrics.read_text())
        assert sorted(payload["cases"]["c"]) == sorted(payload["summary"]) == sorted(names)


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

    def test_peak_memory_does_not_grow_with_the_corpus(self, tmp_path):
        """Four more cases must cost less than one case's K x C float32 channels."""
        dims, organs = (16, 16, 8), 9
        rng = np.random.default_rng(11)

        def corpus_of(cases: int, name: str) -> list[str]:
            root = tmp_path / name
            for case in range(cases):
                write_labels(root / "truth" / f"case{case}.nii.gz",
                             rng.integers(0, organs + 1, size=dims))
                for model in MODELS:
                    for code in range(1, organs + 1):
                        write_channel(root / model / f"case{case}_organ{code}.nii.gz",
                                      rng.random(dims))
            return ["simulate", "--preds", *(str(root / m) for m in MODELS),
                    "--truth", str(root / "truth"), "--out", str(root / "report.json")]

        def peak(argv: list[str]) -> int:
            tracemalloc.start()
            try:
                assert main(argv) == 0
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        small, large = corpus_of(2, "cases2"), corpus_of(6, "cases6")
        # First calls warm up outside the measurement. The large corpus warms up
        # through a copy under another root: its file names intern the same
        # parts, so no resize of the interpreter's intern table lands in the
        # measurement, while whatever the first call on the measured corpus
        # allocates and keeps still counts.
        for argv in (small, corpus_of(6, "cases6_warm")):
            assert main(argv) == 0
        one_case_channels = len(MODELS) * organs * int(np.prod(dims)) * 4
        assert peak(large) - peak(small) < one_case_channels

    def test_nan_in_last_case_fails_without_report(self, six_case_corpus, tmp_path, capsys):
        root, models = six_case_corpus
        bad = Path(models[1]) / "case5_organ2.nii.gz"
        values = read_volume(bad).values.copy()
        values[2, 2, 1] = np.nan
        write_channel(bad, values)
        report = tmp_path / "report.json"
        rc = main(["simulate", "--preds", *models, "--truth", str(root / "truth"),
                   "--out", str(report)])
        assert rc == 1
        err = capsys.readouterr().err
        assert "'case5'" in err and str(bad) in err
        assert not report.exists()

    def test_case_without_truth_fails_without_report(self, six_case_corpus, tmp_path, capsys):
        root, models = six_case_corpus
        (root / "truth" / "case3.nii.gz").unlink()
        report = tmp_path / "report.json"
        rc = main(["simulate", "--preds", *models, "--truth", str(root / "truth"),
                   "--out", str(report)])
        assert rc == 1
        assert "missing truth labels for cases: ['case3']" in capsys.readouterr().err
        assert not report.exists()

    def test_bad_code_in_last_truth_fails_without_report(self, six_case_corpus, tmp_path,
                                                          capsys):
        root, models = six_case_corpus
        bad = root / "truth" / "case5.nii.gz"
        write_labels(bad, np.full((5, 5, 4), 3))
        report = tmp_path / "report.json"
        rc = main(["simulate", "--preds", *models, "--truth", str(root / "truth"),
                   "--out", str(report)])
        assert rc == 1
        assert f"{bad}: label values must lie in 0..2" in capsys.readouterr().err
        assert not report.exists()

    def test_previous_truth_freed_before_next_loads(self, six_case_corpus, monkeypatch,
                                                    tmp_path):
        from segqa import corpus

        root, models = six_case_corpus
        real = corpus.load_label_volume
        loaded = []
        alive_at_load = []

        def tracking(path, labels):
            alive_at_load.append(sum(ref() is not None for ref in loaded))
            truth = real(path, labels)
            loaded.append(weakref.ref(truth))
            return truth

        monkeypatch.setattr(corpus, "load_label_volume", tracking)
        report = tmp_path / "report.json"
        assert main(["simulate", "--preds", *models, "--truth", str(root / "truth"),
                     "--out", str(report)]) == 0
        assert len(json.loads(report.read_text())["loops"]) == 2
        assert alive_at_load == [0] * 6


class TestMissingOutputDirectory:
    """An --out file in a directory that does not exist is refused before any case is read."""

    @pytest.fixture
    def corpus(self, blob_corpus, monkeypatch):
        from segqa import cli, corpus

        root, _ = blob_corpus
        preds = [str(root / "modelA"), str(root / "modelB")]
        assert main(["detect", "--preds", *preds, "--out", str(root / "att")]) == 0
        assert main(["ensemble", "--preds", *preds, "--out", str(root / "pseudo")]) == 0
        write_labels(root / "truth" / "case1.nii.gz", np.zeros((6, 6, 6)))
        reads = []
        for module in (cli, corpus):
            real = module.read_volume
            monkeypatch.setattr(module, "read_volume",
                                lambda path, real=real: reads.append(path) or real(path))
        return root, preds, reads

    def assert_refused(self, argv, out, reads, capsys):
        capsys.readouterr()
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert f"{out}: output directory {out.parent} does not exist" in err
        assert ".tmp" not in err
        assert reads == []
        assert not out.parent.exists()

    def test_evaluate(self, corpus, capsys):
        root, _, reads = corpus
        out = root / "nonexist" / "metrics.json"
        self.assert_refused(["evaluate", "--attention", str(root / "att"),
                             "--pseudo", str(root / "pseudo"), "--truth", str(root / "truth"),
                             "--out", str(out)], out, reads, capsys)

    def test_simulate(self, corpus, capsys):
        root, preds, reads = corpus
        out = root / "nonexist" / "sim.json"
        self.assert_refused(["simulate", "--preds", *preds, "--truth", str(root / "truth"),
                             "--out", str(out)], out, reads, capsys)

    def test_fpscan(self, corpus, capsys):
        root, _, reads = corpus
        out = root / "nonexist" / "fp.json"
        self.assert_refused(["fpscan", "--preds", str(root / "truth"), "--organ", "1",
                             "--out", str(out)], out, reads, capsys)


class TestQformOnlyCorpus:
    """Channels with a qform and no sform: the qform is their geometry."""

    TURN = (0.5, 0.5, 0.5)  # 120 degrees about (1, 1, 1): permutes the axes

    def write(self, root, model, qoffset):
        path = root / model / "c1_organ1.nii"
        values = np.zeros((6, 6, 6), dtype=np.float32)
        values[1:4, 1:3, 1:3] = 1.0 if model == "m0" else 0.0
        write_channel(path, values, spacing=(2.0, 3.0, 4.0))
        path.write_bytes(qform_only(path.read_bytes(), self.TURN, qoffset))
        return path

    def test_detect_writes_the_qform_affine(self, tmp_path):
        for model in ("m0", "m1"):
            self.write(tmp_path, model, (10.0, -20.0, 5.0))
        out = tmp_path / "att"
        assert main(["detect", "--preds", str(tmp_path / "m0"), str(tmp_path / "m1"),
                     "--out", str(out)]) == 0
        want = [[0, 0, 4, 10], [2, 0, 0, -20], [0, 3, 0, 5], [0, 0, 0, 1]]
        for name in ("c1_attention.nii.gz", "c1_attention_organ1.nii.gz"):
            assert np.array_equal(read_volume(out / name).affine, want)

    def test_members_with_different_qoffsets_refused(self, tmp_path, capsys):
        self.write(tmp_path, "m0", (10.0, -20.0, 5.0))
        path = self.write(tmp_path, "m1", (10.0, -20.0, 6.0))
        out = tmp_path / "att"
        assert main(["detect", "--preds", str(tmp_path / "m0"), str(tmp_path / "m1"),
                     "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert f"case 'c1': {path}: model 'm1', organ 1: channel is not grid-aligned" in err
        assert not out.exists()

    def test_ensemble_of_members_with_different_qoffsets_leaves_no_directory(self, tmp_path,
                                                                               capsys):
        self.write(tmp_path, "m0", (10.0, -20.0, 5.0))
        path = self.write(tmp_path, "m1", (10.0, -20.0, 6.0))
        out = tmp_path / "pseudo"
        assert main(["ensemble", "--preds", str(tmp_path / "m0"), str(tmp_path / "m1"),
                     "--out", str(out)]) == 1
        assert f"{path}: model 'm1', organ 1: channel is not grid-aligned" in capsys.readouterr().err
        assert not out.exists()


class TestMisalignedTruth:
    """A truth volume on another grid than the case's predictions names the case."""

    @pytest.fixture
    def corpus(self, tmp_path):
        rng = np.random.default_rng(9)
        for model in ("m0", "m1"):
            write_channel(tmp_path / model / "c1_organ1.nii.gz", rng.random((12, 12, 8)))
        truth = tmp_path / "truth" / "c1.nii.gz"
        write_labels(truth, np.zeros((12, 12, 9)))
        return tmp_path, truth

    def test_evaluate(self, corpus, capsys):
        root, truth = corpus
        preds = [str(root / "m0"), str(root / "m1")]
        assert main(["detect", "--preds", *preds, "--out", str(root / "att")]) == 0
        assert main(["ensemble", "--preds", *preds, "--out", str(root / "pseudo")]) == 0
        capsys.readouterr()
        rc = main(["evaluate", "--attention", str(root / "att"), "--pseudo", str(root / "pseudo"),
                   "--truth", str(root / "truth"), "--out", str(root / "metrics.json")])
        assert rc == 1
        err = capsys.readouterr().err
        assert f"case 'c1': {truth}: pseudo/truth labels are not grid-aligned" in err
        assert not (root / "metrics.json").exists()

    def test_evaluate_misaligned_attention_mask(self, corpus, capsys):
        # 12x12x8 attention masks against 12x12x9 pseudo and truth labels.
        root, truth = corpus
        assert main(["detect", "--preds", str(root / "m0"), str(root / "m1"),
                     "--out", str(root / "att")]) == 0
        write_labels(root / "pseudo" / "c1.nii.gz", np.zeros((12, 12, 9)))
        capsys.readouterr()
        rc = main(["evaluate", "--attention", str(root / "att"), "--pseudo", str(root / "pseudo"),
                   "--truth", str(root / "truth"), "--out", str(root / "metrics.json")])
        assert rc == 1
        err = capsys.readouterr().err
        assert "case 'c1', organ 'organ1': attention mask: " in err
        assert "not grid-aligned: (12, 12, 9)" in err
        assert not (root / "metrics.json").exists()

    def test_simulate(self, corpus, capsys):
        root, truth = corpus
        rc = main(["simulate", "--preds", str(root / "m0"), str(root / "m1"),
                   "--truth", str(root / "truth"), "--out", str(root / "report.json")])
        assert rc == 1
        err = capsys.readouterr().err
        assert "case 'c1': predictions/truth are not grid-aligned" in err
        assert not (root / "report.json").exists()


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


    def test_rejects_float32_map(self, tmp_path, capsys):
        probs = np.zeros((5, 1, 1), dtype=np.float32)
        probs[0], probs[3] = 1.0, 0.7
        write_channel(tmp_path / "preds" / "soft.nii.gz", probs)
        out = tmp_path / "fp.json"
        rc = main(["fpscan", "--preds", str(tmp_path / "preds"), "--organ", "1",
                   "--out", str(out)])
        assert rc == 1
        assert "integer-kind" in capsys.readouterr().err
        assert not out.exists()

    def test_rejects_negative_labels(self, tmp_path, capsys):
        labels = np.array([1, 0, 0, -1, 0], np.int16).reshape(5, 1, 1)
        path = tmp_path / "preds" / "signed.nii.gz"
        path.parent.mkdir()
        write_volume(VolumeGrid(labels), path)
        out = tmp_path / "fp.json"
        rc = main(["fpscan", "--preds", str(tmp_path / "preds"), "--organ", "1",
                   "--out", str(out)])
        assert rc == 1
        assert f"{path}: label values must be >= 0" in capsys.readouterr().err
        assert not out.exists()

    def test_previous_mask_freed_before_next_loads(self, tmp_path, monkeypatch):
        from segqa import cli

        blob = np.zeros((4, 4, 4), dtype=np.uint8)
        blob[1:3, 1:3, 1:3] = 1
        for case in range(4):
            write_labels(tmp_path / "preds" / f"case{case}.nii.gz", blob)
        real = cli._load_mask
        loaded = []
        alive_at_load = []

        def tracking(path, organ):
            alive_at_load.append(sum(ref() is not None for ref in loaded))
            mask = real(path, organ)
            loaded.append(weakref.ref(mask))
            return mask

        monkeypatch.setattr(cli, "_load_mask", tracking)
        assert main(["fpscan", "--preds", str(tmp_path / "preds"), "--organ", "1",
                     "--out", str(tmp_path / "fp.json")]) == 0
        assert alive_at_load == [0] * 4

    @pytest.mark.parametrize("organ", ["0", "-1"])
    def test_rejects_organ_below_one(self, tmp_path, capsys, organ):
        write_labels(tmp_path / "preds" / "bad.nii.gz", np.ones((2, 1, 1)))
        out = tmp_path / "fp.json"
        rc = main(["fpscan", "--preds", str(tmp_path / "preds"), "--organ", organ,
                   "--out", str(out)])
        assert rc == 1
        assert "organ code must be >= 1" in capsys.readouterr().err
        assert not out.exists()


# A file cut off mid-write: not JSON at all.
TRUNCATED = pytest.param(b'{"cases": {"case1": {"1": "x.ni', id="truncated")


def json_bytes(payload) -> bytes:
    return payload if isinstance(payload, bytes) else json.dumps(payload).encode()


class TestMalformedJsonInputs:
    """Hand-edited or cut-off JSON inputs exit 1 with the file named."""

    @pytest.mark.parametrize("manifest", [{"cases": {"case1": ["x.nii.gz"]}}, ["x"],
                                          {"cases": ["case1"]},
                                          {"cases": {"case1": {"1": 5}}},
                                          {"cases": {"case1": {"one": "x.nii.gz"}}},
                                          TRUNCATED])
    def test_detect_rejects_malformed_manifest(self, blob_corpus, capsys, manifest):
        root, _ = blob_corpus
        path = root / "modelA" / "manifest.json"
        path.write_bytes(json_bytes(manifest))
        rc = main(["detect", "--preds", str(root / "modelA"), str(root / "modelB"),
                   "--out", str(root / "attention")])
        assert rc == 1
        assert capsys.readouterr().err.startswith(f"segqa: error: {path}: ")

    @pytest.mark.parametrize("sidecar", [[1, 2], "case1", {"total_mm3": 1.0}, TRUNCATED])
    def test_rank_rejects_malformed_sizes_sidecar(self, blob_corpus, capsys, tmp_path,
                                                  sidecar):
        root, _ = blob_corpus
        out = root / "attention"
        assert main(["detect", "--preds", str(root / "modelA"), str(root / "modelB"),
                     "--out", str(out)]) == 0
        bad = out / "other_sizes.json"
        bad.write_bytes(json_bytes(sidecar))
        capsys.readouterr()
        assert main(["rank", "--attention", str(out), "--out", str(tmp_path / "r.csv")]) == 1
        assert capsys.readouterr().err.startswith(f"segqa: error: {bad}: ")
        assert not (tmp_path / "r.csv").exists()

    @pytest.mark.parametrize("command", ["rank", "evaluate", "campaign"])
    def test_sidecars_sharing_a_case_id_rejected(self, blob_corpus, capsys, command):
        root, _ = blob_corpus
        out = root / "attention"
        assert main(["detect", "--preds", str(root / "modelA"), str(root / "modelB"),
                     "--out", str(out)]) == 0
        copy = out / "copy_sizes.json"
        shutil.copy(out / "case1_sizes.json", copy)
        result = root / "result"
        argv = {
            "rank": ["rank", "--attention", str(out), "--out", str(result)],
            "evaluate": ["evaluate", "--attention", str(out), "--pseudo", str(root),
                         "--truth", str(root), "--out", str(result)],
            "campaign": ["campaign", "init", "--attention", str(out), "--state", str(result)],
        }[command]
        capsys.readouterr()
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert f"{copy}: case id 'case1' is also in {out / 'case1_sizes.json'}" in err
        assert not result.exists()

    @pytest.mark.parametrize("payload", [
        {"version": 1, "loop_index": 0, "config": {}, "cases": [5]},
        [1],
        TRUNCATED,
    ])
    @pytest.mark.parametrize("action", ["status", "stop-check", "mark"])
    def test_campaign_rejects_malformed_state(self, tmp_path, capsys, payload, action):
        state = tmp_path / "campaign.json"
        state.write_bytes(json_bytes(payload))
        extra = ["--case", "a", "--status", "revised"] if action == "mark" else []
        assert main(["campaign", action, "--state", str(state), *extra]) == 1
        assert capsys.readouterr().err.startswith(f"segqa: error: {state}: ")
        assert state.read_bytes() == json_bytes(payload)


class TestNonFiniteThresholds:
    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_simulate_rejects_cutoff(self, blob_corpus, tmp_path, capsys, value):
        root, _ = blob_corpus
        write_labels(root / "truth" / "case1.nii.gz", np.zeros((6, 6, 6), np.uint8))
        report = tmp_path / "report.json"
        rc = main(["simulate", "--preds", str(root / "modelA"), str(root / "modelB"),
                   "--truth", str(root / "truth"), "--threshold-mm3", value,
                   "--out", str(report)])
        assert rc == 1
        assert "finite" in capsys.readouterr().err
        assert not report.exists()

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_select_rejects_cutoff(self, tmp_path, capsys, value):
        ranking = tmp_path / "ranking.csv"
        ranking.write_text("rank,case_id,total_mm3\n1,a,5.0\n")
        out = tmp_path / "selected.csv"
        assert main(["select", "--ranking", str(ranking), "--threshold-mm3", value,
                     "--out", str(out)]) == 1
        assert "finite" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("total", ["nan", "inf", "-1.0"])
    def test_select_rejects_ranking_total(self, tmp_path, capsys, total):
        ranking = tmp_path / "ranking.csv"
        ranking.write_text(f"rank,case_id,total_mm3\n1,a,{total}\n2,b,5.0\n")
        out = tmp_path / "selected.csv"
        assert main(["select", "--ranking", str(ranking), "--threshold-mm3", "0",
                     "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert str(ranking) in err and "'total_mm3'" in err
        assert not out.exists()

    @pytest.mark.parametrize("flag", ["--minutes", "--hours"])
    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_estimate_rejects_rate(self, capsys, flag, value):
        assert main(["estimate", "--revised", "1", "--total", "2", flag, value]) == 1
        captured = capsys.readouterr()
        assert "finite" in captured.err
        assert "estimated days" not in captured.out


class TestMalformedRankingRows:
    @pytest.mark.parametrize(
        "row", ["2", "2,b", "2,b,5.0,extra", "2,../x,5.0", "2,b,abc", "x,b,5.0", "2.5,b,5.0"]
    )
    def test_select_names_file_and_row(self, tmp_path, capsys, row):
        ranking = tmp_path / "ranking.csv"
        ranking.write_text(f"rank,case_id,total_mm3\n1,a,5.0\n{row}\n")
        out = tmp_path / "selected.csv"
        assert main(["select", "--ranking", str(ranking), "--threshold-mm3", "0",
                     "--out", str(out)]) == 1
        assert f"{ranking}: row 2: " in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("header, field", [
        ("a,b,c", "rank"),
        ("x,case_id,total_mm3", "rank"),
        ("rank,x,total_mm3", "case_id"),
        ("rank,case_id,x", "total_mm3"),
    ])
    def test_select_names_file_and_missing_column(self, tmp_path, capsys, header, field):
        ranking = tmp_path / "ranking.csv"
        ranking.write_text(f"{header}\n1,a,5.0\n")
        out = tmp_path / "selected.csv"
        assert main(["select", "--ranking", str(ranking), "--threshold-mm3", "0",
                     "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert f"{ranking}: " in err and repr(field) in err
        assert not out.exists()


def _no_constant(name):
    raise AssertionError(f"non-standard JSON constant {name}")


def test_every_json_output_is_strict_json(six_case_corpus, tmp_path, capsys):
    """NaN and Infinity are not JSON (RFC 8259): no command may write them."""
    root, models = six_case_corpus
    att, ens = tmp_path / "att", tmp_path / "ens"
    state = tmp_path / "campaign.json"
    commands = [
        ["detect", "--preds", *models, "--out", str(att)],
        ["ensemble", "--preds", *models, "--out", str(ens)],
        ["evaluate", "--attention", str(att), "--pseudo", str(ens),
         "--truth", str(root / "truth"), "--out", str(tmp_path / "metrics.json")],
        ["simulate", "--preds", *models, "--truth", str(root / "truth"),
         "--out", str(tmp_path / "simulate.json")],
        ["campaign", "init", "--state", str(state), "--attention", str(att)],
        ["campaign", "mark", "--state", str(state), "--case", "case0",
         "--status", "revised", "--tag", "boundary"],
    ]
    for argv in commands:
        assert main(argv) == 0, argv
    written = sorted(tmp_path.rglob("*.json"))
    assert {p.parent for p in written} == {tmp_path, att, ens}
    assert len(written) == 3 + 6 + 6
    for path in written:
        json.loads(path.read_text(encoding="utf-8"), parse_constant=_no_constant)


class TestExitCodes:
    def test_missing_file_is_io_error(self, tmp_path, capsys):
        assert main(["dsc", "--a", str(tmp_path / "no.nii"), "--b",
                     str(tmp_path / "no.nii")]) == 2

    def test_bad_flag_is_validation_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["detect", "--nope"])
        assert exc.value.code == 1

    @pytest.mark.parametrize("argv, usage", [
        (["campaign", "status", "--state", "s", "--force"], "usage: segqa campaign status "),
        (["rank", "--attention", "a", "--out", "b", "--bogus"], "usage: segqa rank "),
    ], ids=["campaign-status", "rank"])
    def test_stray_flag_prints_its_sub_command_usage(self, capsys, argv, usage):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 1
        err = capsys.readouterr().err
        assert err.startswith(usage)
        assert f"unrecognized arguments: {argv[-1]}" in err

    @pytest.mark.parametrize("argv", [
        ["--bogus", "rank", "--attention", "a", "--out", "b"],
        ["--bogus", "rank", "--attention", "a", "--out", "b", "--other"],
        ["--bogus", "campaign", "status", "--state", "s"],
    ], ids=["rank", "rank-and-leaf-stray", "campaign-status"])
    def test_stray_flag_before_the_sub_command_prints_the_root_usage(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 1
        err = capsys.readouterr().err
        assert err.startswith("usage: segqa [-h]") and f"usage: segqa {argv[1]}" not in err
        assert "segqa: error: unrecognized arguments: --bogus\n" in err

    def test_malformed_nifti_is_validation_error(self, tmp_path):
        bad = tmp_path / "bad.nii"
        bad.write_bytes(b"garbage")
        assert main(["dsc", "--a", str(bad), "--b", str(bad)]) == 1


class TestParserBuiltOnce:
    def test_two_calls_build_the_parser_once(self, capsys):
        from segqa import cli

        cli.build_parser.cache_clear()
        assert main(["estimate", "--revised", "1", "--total", "2"]) == 0
        assert main(["estimate", "--revised", "3", "--total", "4"]) == 0
        info = cli.build_parser.cache_info()
        assert (info.misses, info.hits) == (1, 1)

    def test_command_replaced_after_the_first_call_is_the_one_run(self, monkeypatch, capsys):
        from segqa import cli

        assert main(["estimate", "--revised", "1", "--total", "2"]) == 0
        calls = []
        monkeypatch.setattr(cli, "cmd_estimate", lambda args: calls.append(args.revised) or 0)
        assert main(["estimate", "--revised", "3", "--total", "4"]) == 0
        assert calls == [3]

    def test_appended_tags_do_not_leak_into_the_next_parse(self):
        from segqa import cli

        parser = cli.build_parser()
        mark = ["campaign", "mark", "--state", "s", "--case", "c", "--status", "revised"]
        first = parser.parse_args([*mark, "--tag", "x"])
        second = parser.parse_args(mark)
        assert (first.tag, second.tag) == (["x"], [])
