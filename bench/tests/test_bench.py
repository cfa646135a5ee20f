"""Fast tests of the benchmark itself, at tiny corpus sizes.

Run from the repository root: python3 -m pytest bench/tests -q
"""

from __future__ import annotations

import gzip
import json
import os
import re
from pathlib import Path

import numpy as np
import pytest

import check
import pipeline
import run
import workloads as wl
from corpusgen import VolumeSpec
from tracer import Tracer, layer_stats

TINY = wl.Workload("tiny", "test", VolumeSpec(cases=2, dims=(12, 12, 8)))
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def spec() -> dict:
    return json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def test_benchmark_json_is_well_formed():
    s = spec()
    assert set(s) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert [w["name"] for w in s["workloads"]] == list(wl.WORKLOADS)
    names = [m["name"] for key in ("workloads", "end_to_end", "per_layer") for m in s[key]]
    assert len(names) == len(set(names)) and all(NAME.match(n) for n in names)
    assert all(0 < m["bound"] <= 0.25 for m in s["end_to_end"])
    setup = next(m for m in s["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in s["end_to_end"])


@pytest.mark.parametrize("trace", [False, True])
def test_every_metric_is_emitted_with_its_unit(tmp_path, trace):
    result = run.measure(TINY, 1, 0.0, trace, tmp_path / "run")
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    wanted = spec()["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in wanted]
    for m in wanted:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"] and isinstance(got["value"], float)
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())


@pytest.fixture(scope="module")
def finished_run(tmp_path_factory):
    w = TINY
    run_dir = tmp_path_factory.mktemp("check") / "run"
    run.measure(w, 3, 0.0, False, run_dir)
    iterations = json.loads((run_dir / "result.json").read_text())["iterations"]
    assert all(check.check_run(w, 3, run_dir, iterations).values())
    return w, run_dir, iterations


def _rewrite(path: Path, mutate) -> bytes:
    original = path.read_bytes()
    path.write_bytes(mutate(original))
    return original


def test_corrupted_union_mask_fails_the_check(finished_run):
    w, run_dir, iterations = finished_run
    out = run_dir / wl.OUT
    masks = sorted((out / "attention").glob("*_attention.nii.gz"))
    blank = lambda raw: gzip.compress(gzip.decompress(raw)[: check.VOX_OFFSET]
                                      + bytes(len(gzip.decompress(raw)) - check.VOX_OFFSET))
    originals = {p: _rewrite(p, blank) for p in masks}
    try:
        assert not check.seed_independent(w, 3, run_dir)["union_recomputed"]
        assert pipeline.output_digests(out) != iterations[-1]["digests"]
    finally:
        for p, raw in originals.items():
            p.write_bytes(raw)
    assert check.seed_independent(w, 3, run_dir)["union_recomputed"]


def test_reordered_ranking_fails_the_check(finished_run):
    w, run_dir, _ = finished_run
    path = run_dir / wl.OUT / "ranking.csv"

    def swap(raw: bytes) -> bytes:
        header, first, second, *rest = raw.decode().splitlines(keepends=True)
        return "".join([header, second, first, *rest]).encode()

    original = _rewrite(path, swap)
    try:
        assert not check.seed_independent(w, 3, run_dir)["ranking"]
    finally:
        path.write_bytes(original)


def test_missing_outputs_fail_the_check_without_crashing(finished_run):
    w, run_dir, iterations = finished_run
    out = run_dir / wl.OUT
    saved = {p: p.read_bytes() for p in (out / "ranking.csv", out / "campaign.json")}
    for p in saved:
        p.unlink()
    try:
        results = check.check_run(w, check.DEFAULT_SEED, run_dir, iterations)
    finally:
        for p, raw in saved.items():
            p.write_bytes(raw)
    assert not any(results[k] for k in ("ranking", "selection", "campaign_statuses",
                                        "digests_committed"))
    assert results["outputs_present"] and results["union_recomputed"]


def test_committed_digests_reject_a_changed_artifact(finished_run, monkeypatch, tmp_path):
    w, run_dir, iterations = finished_run
    monkeypatch.setattr(check, "DIGESTS", tmp_path / "digests.json")
    statuses = check.status_counts(run_dir / wl.STATE)
    check.record_expected(w.name, iterations[-1]["digests"], statuses)
    assert check.check_run(w, check.DEFAULT_SEED, run_dir, iterations)["digests_committed"]
    changed = [dict(it, digests=dict(it["digests"], **{"ranking.csv": "0" * 64}))
               for it in iterations]
    assert not check.check_run(w, check.DEFAULT_SEED, run_dir, changed)["digests_committed"]


def test_traced_self_times_add_up_to_span_totals(finished_run, monkeypatch):
    w, run_dir, _ = finished_run
    from segqa import cli, corpus, detect, nifti

    monkeypatch.chdir(run_dir)
    original = cli.build_attention
    tracer = Tracer()
    tracer.install()
    try:
        # every binding site of a function is patched, not only its definition
        assert cli.build_attention is not original
        assert corpus.read_volume is nifti.read_volume
        assert nifti.read_volume.__wrapped__ is not None
        result = pipeline.run_iteration(cli)
    finally:
        tracer.uninstall()
    assert cli.build_attention is original is detect.build_attention
    assert result["failed"] == 0
    spans = tracer.spans
    stats = layer_stats(spans)
    roots = sum(s[4] - s[3] for s in spans if s[1] is None)
    self_total = sum(v for k, v in stats.items() if k.endswith(".self_s"))
    assert self_total == pytest.approx(roots, rel=1e-9, abs=1e-9)
    assert stats["cli.main.calls"] == result["attempted"]
    assert stats["detect.build_attention.calls"] == w.volumes.cases * 3  # detect + 2 loops
    assert stats["volume.stable_mean.calls"] == stats["volume.stable_mean_std.calls"]
    assert all(s[5] is not None for s in spans if s[2] == "detect.build_attention")
    assert not any(k.endswith(".failures") for k in stats)


def test_failures_are_counted_once_where_raised():
    from segqa import corpus

    tracer = Tracer()
    tracer.install()
    try:
        with pytest.raises(corpus.CorpusError):
            corpus.discover_cases([os.devnull])
    finally:
        tracer.uninstall()
    assert layer_stats(tracer.spans)["corpus.failures"] == 1


def test_generator_is_deterministic(tmp_path):
    import corpusgen

    spec_ = VolumeSpec(cases=1, dims=(24, 24, 12))
    for d in ("a", "b"):
        corpusgen.write_volume_corpus(tmp_path / d, 5, spec_)
    files = sorted(p.relative_to(tmp_path / "a") for p in (tmp_path / "a").rglob("*") if p.is_file())
    assert files and all(
        (tmp_path / "a" / f).read_bytes() == (tmp_path / "b" / f).read_bytes() for f in files
    )
    truth = check.read_nifti(tmp_path / "a/truth/case0000.nii.gz", "u1", spec_.dims)
    assert set(np.unique(truth)) == set(range(10))


def test_per_layer_names_must_name_a_traced_function():
    timed = [
        {"traced": False, "pipeline_s": 1.0, "marks": [0.1, 0.2], "stages": {"detect": 0.5}},
        {"traced": True, "pipeline_s": 1.2, "marks": [], "stages": {}, "layers": {}},
    ]
    values = run.per_layer(timed, ["nifti.read_volume"], ["nifti.read_volume.calls", "nifti.failures"])
    assert values["nifti.read_volume.calls"] == 0.0 and values["nifti.failures"] == 0.0
    assert values["stage.detect_s"] == 0.5
    with pytest.raises(ValueError, match="read_volumes"):
        run.per_layer(timed, ["nifti.read_volume"], ["nifti.read_volumes.calls"])
