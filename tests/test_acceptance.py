"""Acceptance suite: one test per release criterion.

Each criterion is checked at its stated tolerance against independent
oracles (brute-force flood fill, voxel-by-voxel recomputation, closed-form
arithmetic). The conftest hook prints one PASS/FAIL line per criterion at
the end of the run.
"""

import json
import time

import numpy as np
import pytest

from grids import mask_grid, prediction_set, whole
from oracles import attention_union_oracle, componentwise_oracle
from segqa.campaign import LoopPolicy, run_loop
from segqa.cli import main
from segqa.detect import DetectionConfig, binary_entropy, build_attention
from segqa.nifti import NiftiFormatError, read_volume, write_volume
from segqa.regions import componentwise_metrics, dsc
from segqa.volume import (
    VolumeGrid,
    labels_from_soft,
    stable_mean_std,
)


def test_workload_arithmetic(capsys):
    """estimate reports exactly 12.5 days for 400/8000 and 7.5% for 600/8000."""
    start = time.monotonic()
    assert main(["estimate", "--revised", "400", "--total", "8000",
                 "--minutes", "15", "--hours", "8"]) == 0
    out = capsys.readouterr().out
    assert "estimated days: 12.5" in out
    assert "human fraction: 5.0%" in out

    assert main(["estimate", "--revised", "600", "--total", "8000",
                 "--minutes", "15", "--hours", "8"]) == 0
    out = capsys.readouterr().out
    assert "human fraction: 7.5%" in out
    elapsed = time.monotonic() - start
    assert elapsed < 1.0, f"estimate took {elapsed:.2f}s"

    # exact closed-form values, tolerance zero
    from segqa.campaign import estimate_workload

    assert estimate_workload(400, 8000, 15, 8).estimated_days == 12.5
    assert estimate_workload(600, 8000, 15, 8).human_fraction == 600 / 8000 == 0.075


def test_fpr_computation(tmp_path, capsys):
    """392 synthetic cases, 37 flagged with 161 components, FPR 9.44% +/- 0.01pp."""
    preds = tmp_path / "preds"
    preds.mkdir()
    dims = (64, 64, 64)
    empty = VolumeGrid(np.zeros(dims, dtype=np.uint8))

    # 24 cases with 4 components + 13 cases with 5 components = 161 total
    component_counts = [4] * 24 + [5] * 13
    assert sum(component_counts) == 161 and len(component_counts) == 37
    for i, count in enumerate(component_counts):
        values = np.zeros(dims, dtype=np.uint8)
        for j in range(count):
            values[8 * j + 2, 2, 2] = 1  # well-separated single-voxel blobs
        write_volume(VolumeGrid(values), preds / f"dirty{i:03d}.nii.gz")
    for i in range(392 - 37):
        write_volume(empty, preds / f"clean{i:03d}.nii.gz")

    out = tmp_path / "fp.json"
    start = time.monotonic()
    assert main(["fpscan", "--preds", str(preds), "--organ", "1",
                 "--out", str(out)]) == 0
    elapsed = time.monotonic() - start
    assert elapsed < 10.0, f"fpscan took {elapsed:.2f}s"

    payload = json.loads(out.read_text())
    assert payload["total_cases"] == 392
    assert payload["flagged_cases"] == 37
    assert payload["total_components"] == 161
    assert abs(payload["fpr"] * 100 - 9.44) <= 0.01


def test_attention_union_identity():
    """Union mask equals a brute-force voxelwise OR on 1000 random small cases."""
    rng = np.random.default_rng(42)
    for trial in range(1000):
        dims = tuple(int(d) for d in rng.integers(1, 9, size=3))
        members = int(rng.integers(2, 4))
        organs = int(rng.integers(1, 4))
        cfg = DetectionConfig(
            std_threshold=float(rng.uniform(0.02, 0.5)),
            entropy_threshold=float(rng.uniform(0.05, 1.0)),
            binarize_threshold=float(rng.uniform(0.2, 0.8)),
            min_component_voxels=0,
        )
        member_channels = [
            [rng.random(dims, dtype=np.float32) for _ in range(organs)]
            for _ in range(members)
        ]
        amap = build_attention(prediction_set(f"t{trial}", member_channels), cfg)
        expected = attention_union_oracle(member_channels, cfg)
        assert np.array_equal(amap.union_mask.values != 0, expected), (
            f"trial {trial}: union mismatch for dims={dims} cfg={cfg}"
        )


def test_component_metrics_oracle():
    """Component-wise sensitivity/precision match exhaustive flood fill, 1000 trials."""
    rng = np.random.default_rng(7)
    for trial in range(1000):
        dims = tuple(int(d) for d in rng.integers(1, 7, size=3))
        connectivity = int(rng.choice([6, 18, 26]))
        density_a = float(rng.uniform(0.0, 0.6))
        density_b = float(rng.uniform(0.0, 0.6))
        att = (rng.random(dims) < density_a).astype(np.uint8)
        err = (rng.random(dims) < density_b).astype(np.uint8)

        s, p, counts = componentwise_metrics(
            mask_grid(att), mask_grid(err), connectivity
        )
        es, ep, etp, efp, efn = componentwise_oracle(att, err, connectivity)
        assert (s, p) == (es, ep), f"trial {trial}: {s},{p} != {es},{ep}"
        assert (counts.tp, counts.fp, counts.fn) == (etp, efp, efn)


def test_entropy_std_analytic():
    """Closed-form entropy and std values, and exact permutation invariance."""
    assert abs(binary_entropy(0.5) - 1.0) <= 1e-12
    assert abs(binary_entropy(0.0)) <= 1e-12
    assert abs(binary_entropy(1.0)) <= 1e-12

    rng = np.random.default_rng(11)
    ps = rng.random(1000)
    for p in ps:
        assert abs(binary_entropy(float(p)) - binary_entropy(1.0 - float(p))) <= 1e-12

    _, std = stable_mean_std([np.zeros((1, 1, 1), np.float32), np.ones((1, 1, 1), np.float32)])
    assert abs(float(std[0, 0, 0]) - 0.5) <= 1e-12

    for _ in range(100):
        members = int(rng.integers(2, 5))
        arrays = [rng.random((3, 3, 3), dtype=np.float32) for _ in range(members)]
        perm = [arrays[i] for i in rng.permutation(members)]
        m1, s1 = stable_mean_std(arrays)
        m2, s2 = stable_mean_std(perm)
        assert np.array_equal(m1, m2) and np.array_equal(s1, s2)


def test_dsc_properties():
    """Symmetry, range and self-identity of Dice on 1000 random mask pairs."""
    rng = np.random.default_rng(23)
    for _ in range(1000):
        dims = tuple(int(d) for d in rng.integers(1, 7, size=3))
        a = mask_grid((rng.random(dims) < rng.uniform(0, 0.8)).astype(np.uint8))
        b = mask_grid((rng.random(dims) < rng.uniform(0, 0.8)).astype(np.uint8))
        ab = dsc(a, b)
        assert ab == dsc(b, a)
        assert 0.0 <= ab <= 1.0
        assert dsc(a, a) == 1.0

    from segqa.regions import dsc_matrix

    for _ in range(20):
        masks = [mask_grid(rng.integers(0, 2, (4, 4, 4), dtype=np.uint8)) for _ in range(4)]
        matrix = dsc_matrix(masks)
        assert np.array_equal(matrix, matrix.T)
        assert np.array_equal(np.diag(matrix), np.ones(4))
        assert float(matrix.min()) >= 0.0 and float(matrix.max()) <= 1.0


def _loop_corpus():
    """10 cases, 48^3, 2 organs, 3 members.

    Each case has a region where 2 of 3 models miss organ 1 (detectable:
    the members disagree), and 3 cases also have a small region where all
    models agree on the wrong answer (undetectable by construction).
    """
    dims = (48, 48, 48)
    organ1 = np.zeros(dims, dtype=np.float32)
    organ1[4:20, 4:20, 4:20] = 1.0
    organ2 = np.zeros(dims, dtype=np.float32)
    organ2[28:44, 28:44, 28:44] = 1.0
    truth = labels_from_soft(*whole([organ1, organ2]), 0.5)

    predictions = {}
    truths = {}
    covered_error = {}
    uncovered_error = {}
    for i in range(10):
        case_id = f"case{i:02d}"
        covered = np.zeros(dims, dtype=bool)
        covered[4 + i : 10 + i, 4:10, 4:10] = True  # 216 voxels inside organ 1
        uncovered = np.zeros(dims, dtype=bool)
        if i < 3:
            uncovered[12:14, 12:14, 12:14] = True  # 8 voxels missed by all models

        miss_some = organ1.copy()
        miss_some[covered] = 0.0
        ok = organ1.copy()
        ok[uncovered] = 0.0  # even the "good" model misses these
        miss_some[uncovered] = 0.0

        predictions[case_id] = prediction_set(
            case_id, [[miss_some, organ2], [miss_some, organ2], [ok, organ2]]
        )
        truths[case_id] = truth
        covered_error[case_id] = covered
        uncovered_error[case_id] = uncovered
    return predictions, truths, covered_error, uncovered_error


def test_simulated_loop():
    """One loop fixes every attended error; recycled labels shrink attention."""
    start = time.monotonic()
    predictions, truths, covered_error, uncovered_error = _loop_corpus()
    cfg = DetectionConfig()

    # fixture sanity: at least 90% of all error voxels sit inside attention
    total_errors = 0
    covered_errors = 0
    for case_id, preds in predictions.items():
        amap = build_attention(preds, cfg)
        att = amap.union_mask.values != 0
        errs = covered_error[case_id] | uncovered_error[case_id]
        total_errors += int(errs.sum())
        covered_errors += int((errs & att).sum())
    assert covered_errors / total_errors >= 0.9

    reports = run_loop(
        sorted(predictions),
        predictions.__getitem__,
        truths.__getitem__,
        cfg=cfg,
        policy=LoopPolicy(size_threshold_mm3=0.0, max_loops=3),
    )

    loop0 = reports[0]
    assert loop0.revised_count == 10
    for result in loop0.cases:
        assert result.dsc_after > result.dsc_before, result.case_id
        expected_residual = float(uncovered_error[result.case_id].sum())
        assert result.residual_error_mm3 == expected_residual, result.case_id

    assert len(reports) >= 2
    loop1 = reports[1]
    assert loop1.total_attention_mm3 <= loop0.total_attention_mm3
    assert loop1.stopped is True

    elapsed = time.monotonic() - start
    assert elapsed < 120.0, f"simulated loop took {elapsed:.1f}s"


def test_nifti_roundtrip_and_fuzz(tmp_path):
    """Value-exact round trips on 100 random volumes; 10k fuzz inputs never crash."""
    rng = np.random.default_rng(5)
    dtypes = [np.uint8, np.int16, np.float32]
    for i in range(100):
        dtype = dtypes[i % 3]
        dims = tuple(int(d) for d in rng.integers(1, 13, size=3))
        if dtype == np.uint8:
            values = rng.integers(0, 256, dims).astype(dtype)
        elif dtype == np.int16:
            values = rng.integers(-32768, 32768, dims).astype(dtype)
        else:
            values = rng.standard_normal(dims).astype(dtype)
        spacing = tuple(float(s) for s in rng.uniform(0.2, 5.0, size=3))
        grid = VolumeGrid(values, spacing)
        for suffix in ("nii", "nii.gz"):
            path = tmp_path / f"v{i}.{suffix}"
            write_volume(grid, path)
            back = read_volume(path)
            assert back.dims == grid.dims
            assert back.spacing == grid.spacing
            assert back.values.dtype == grid.values.dtype
            assert np.array_equal(back.values, grid.values)

    for trial in range(10_000):
        blob = rng.bytes(int(rng.integers(0, 600)))
        if trial % 4 == 0:
            blob = b"\x1f\x8b" + blob
        with pytest.raises(NiftiFormatError):
            read_volume(blob)


def test_detect_determinism_parallel(tmp_path):
    """detect output bytes are identical for --jobs 1 and --jobs 8."""
    rng = np.random.default_rng(17)
    dims = (12, 12, 12)
    model_dirs = []
    for model in ("m1", "m2"):
        d = tmp_path / model
        d.mkdir()
        model_dirs.append(str(d))
    for case in range(20):
        base = rng.random(dims, dtype=np.float32)
        noisy = np.clip(base + rng.normal(0, 0.2, dims), 0, 1).astype(np.float32)
        for model_dir, probs in zip(model_dirs, (base, noisy)):
            for organ in (1, 2):
                channel = probs if organ == 1 else (1.0 - probs).astype(np.float32)
                write_volume(
                    VolumeGrid(channel),
                    f"{model_dir}/case{case:02d}_organ{organ}.nii.gz",
                )

    out1, out2 = tmp_path / "jobs1", tmp_path / "jobs8"
    assert main(["detect", "--preds", *model_dirs, "--out", str(out1),
                 "--jobs", "1"]) == 0
    assert main(["detect", "--preds", *model_dirs, "--out", str(out2),
                 "--jobs", "8"]) == 0

    names1 = sorted(p.name for p in out1.iterdir())
    names2 = sorted(p.name for p in out2.iterdir())
    assert names1 == names2 and len(names1) == 20 * 4  # union + 2 organs + sizes
    for name in names1:
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name
