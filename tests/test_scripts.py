import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import numpy as np

from segqa.nifti import read_volume

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def run(args):
    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, timeout=120
    )


def test_demo_scripts_end_to_end(tmp_path):
    corpus = tmp_path / "corpus"
    made = run([SCRIPTS / "make_demo_corpus.py", str(corpus), "--cases", "4", "--dim", "16"])
    assert made.returncode == 0, made.stderr
    assert (corpus / "model0").is_dir() and (corpus / "truth").is_dir()

    demo = run([SCRIPTS / "run_demo.py", str(corpus), "--threshold-mm3", "5"])
    assert demo.returncode == 0, demo.stderr

    report = json.loads((corpus / "work" / "loop_report.json").read_text())
    assert report["loops"][-1]["stopped"] is True
    assert (corpus / "work" / "ranking.csv").exists()
    assert (corpus / "work" / "metrics.json").exists()


def test_probe_case_equals_the_benchmark_generators(tmp_path):
    """probe_memory streams corpusgen.make_case's case, so both must stay voxel for voxel equal."""
    spec = importlib.util.spec_from_file_location("probe_memory", SCRIPTS / "probe_memory.py")
    probe = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(probe)  # puts bench/ on sys.path
    import corpusgen

    dims = (48, 40, 24)
    probe.write_case(tmp_path, dims)
    truth, models = corpusgen.make_case(np.random.default_rng(probe.SEED), dims)
    grid = read_volume(tmp_path / "truth" / f"{probe.CASE}.nii.gz")
    assert grid.spacing == tuple(float(np.float32(s)) for s in corpusgen.SPACING)
    assert grid.values.dtype == truth.dtype and np.array_equal(grid.values, truth)
    assert len(models) == corpusgen.MODELS
    for k, channels in enumerate(models):
        for o, expected in enumerate(channels):
            path = tmp_path / f"model{k}" / f"{probe.CASE}_organ{o + 1}.nii.gz"
            values = read_volume(path).values
            assert values.dtype == np.float32 and np.array_equal(values, expected), path


def test_probe_runs_every_command():
    probe = run([SCRIPTS / "probe_memory.py", "--dims", "24", "24", "12"])
    assert probe.returncode == 0, probe.stderr
    results = [json.loads(line) for line in probe.stdout.splitlines()]
    assert [r["command"] for r in results] == [
        "detect", "rank", "campaign init", "campaign mark", "ensemble", "evaluate", "simulate"]
    assert all(r["exit"] == 0 and r["dims"] == [24, 24, 12] for r in results), results
