"""segqa benchmark: one workload, one run, one JSON line of results.

Usage (from the root of a segqa checkout):

    python3 bench/run.py --workload ct_abdomen --seed 0 --seconds 45 --trace 0

The run generates the workload's corpus from the seed (several times, timed
as ``setup_s``), runs the workload's command sequence in a fresh child
process (bench/pipeline.py) for about ``--seconds`` seconds, checks the
outputs and prints one JSON object as its last line of output:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the ``end_to_end`` metrics of
BENCHMARK.json; with ``--trace 1`` the ``per_layer`` ones, from traced
iterations that alternate with untraced ones. ``--record-digests`` (at the
default seed) stores the artifacts' digests in bench/digests.json, for use
after an intended change of the program's outputs.

The program is imported from ``src/`` of the checkout; without it the run
fails before printing a result.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracer import LAYERS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
# Corpus generations per run, half before and half after the measured
# iterations: the machine's speed drifts over seconds, and set-up times taken
# at both ends of a run repeat better than back-to-back ones.
SETUP_REPEATS = 4
# A run must end within 180 s; the child gets what set-up leaves of this.
RUN_LIMIT_S = 170.0


def metric_specs() -> dict[str, list[dict[str, str]]]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {"end_to_end": spec["end_to_end"], "per_layer": spec["per_layer"]}


def setup(w, seed: int, run_dir: Path, repeats: int) -> list[float]:
    """Generate the corpus `repeats` times into run_dir; the last copy stays.

    Dirty pages and freed blocks are flushed before each timed part, so
    write-back of earlier files does not land in the next measurement.
    """
    import corpusgen

    times = []
    for _ in range(repeats):
        shutil.rmtree(run_dir / "vol", ignore_errors=True)
        os.sync()
        start = time.perf_counter()
        corpusgen.write_volume_corpus(run_dir / "vol", seed, w.volumes)
        times.append(time.perf_counter() - start)
    os.sync()
    return times


def run_child(run_dir: Path, seconds: float, trace: bool, timeout: float) -> dict:
    """Run the iterations in a fresh process; its peak RSS is this run's alone."""
    plan = {
        "run_dir": str(run_dir),
        "seconds": seconds,
        "trace": trace,
    }
    plan_path = run_dir / "plan.json"
    plan_path.write_text(json.dumps(plan), encoding="utf-8")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC), str(BENCH)]))
    subprocess.run(
        [sys.executable, str(BENCH / "pipeline.py"), str(plan_path)],
        env=env, check=True, timeout=timeout,
    )
    return json.loads((run_dir / "result.json").read_text(encoding="utf-8"))


def _median(values: list[float]) -> float:
    return float(statistics.median(values))


def end_to_end(timed, setup_times, peak_rss_mb, attempted, failed) -> dict[str, float]:
    return {
        "setup_s": _median(setup_times),
        "pipeline_s": _median([it["pipeline_s"] for it in timed if not it["traced"]]),
        "peak_rss_mb": peak_rss_mb,
        "ok_frac": (attempted - failed) / attempted,
    }


def per_layer(timed, span_names: list[str], names: list[str]) -> dict[str, float]:
    """Layer metrics of the traced iterations, stage times of the untraced ones."""
    traced = [it for it in timed if it["traced"]]
    plain = [it for it in timed if not it["traced"]]
    traced_s = _median([it["pipeline_s"] for it in traced])
    marks = [m for it in plain for m in it["marks"]]
    values = {
        "trace.pipeline_s": traced_s,
        "trace.overhead_s": traced_s - _median([it["pipeline_s"] for it in plain]),
        "stage.mark_p50_s": _median(marks) if marks else 0.0,
        "stage.mark_p75_s": statistics.quantiles(marks, n=4)[2] if len(marks) > 1 else sum(marks),
    }
    for stage in plain[0]["stages"]:
        values[f"stage.{stage}_s"] = _median([it["stages"][stage] for it in plain])
    known = set(span_names) | set(LAYERS)
    for name in names:
        if name in values:
            continue
        function = name.rsplit(".", 1)[0]
        if function not in known:
            raise ValueError(f"per-layer metric {name!r} names no traced function or layer")
        values[name] = _median([it["layers"].get(name, 0.0) for it in traced])
    return values


def measure(w, seed: int, seconds: float, trace: bool, run_dir: Path, record: bool = False) -> dict:
    """One benchmark run of workload `w`; returns the result object."""
    import check

    begin = time.perf_counter()
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    setup_times = setup(w, seed, run_dir, SETUP_REPEATS // 2)
    reserve = (SETUP_REPEATS - len(setup_times) + 2) * max(setup_times) + 10.0
    timeout = RUN_LIMIT_S - (time.perf_counter() - begin) - reserve
    result = run_child(run_dir, seconds, trace, timeout)
    iterations = result["iterations"]
    # The largest peak of any waited-for child: this run's child, since
    # run.py starts no other process.
    peak_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    again = run_dir / "setup_again"
    setup_times += setup(w, seed, again, SETUP_REPEATS - len(setup_times))
    shutil.rmtree(again)

    if record:
        check.record_expected(
            w.name, iterations[-1]["digests"], check.status_counts(run_dir / "out/campaign.json")
        )
    checks = check.check_run(w, seed, run_dir, iterations)
    attempted = sum(it["attempted"] for it in iterations) + len(checks)
    failed = sum(it["failed"] for it in iterations) + sum(not ok for ok in checks.values())

    specs = metric_specs()["per_layer" if trace else "end_to_end"]
    timed = [it for it in iterations if not it["warmup"]]
    if trace:
        values = per_layer(timed, result["span_names"], [s["name"] for s in specs])
    else:
        values = end_to_end(timed, setup_times, peak_kb / 1024.0, attempted, failed)
    (run_dir / "checks.json").write_text(json.dumps(checks, indent=1), encoding="utf-8")
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {s["name"]: {"value": values[s["name"]], "unit": s["unit"]} for s in specs},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-digests", action="store_true")
    args = parser.parse_args(argv)
    if not (SRC / "segqa" / "__init__.py").is_file():
        print(f"bench: {SRC / 'segqa'} not found; run from the root of a segqa checkout",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(BENCH)]
    import check
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; one of {sorted(workloads.WORKLOADS)}")
    if args.record_digests and args.seed != check.DEFAULT_SEED:
        parser.error(f"--record-digests needs --seed {check.DEFAULT_SEED}")
    w = workloads.WORKLOADS[args.workload]
    result = measure(w, args.seed, args.seconds, bool(args.trace), WORK / w.name,
                     record=args.record_digests)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
