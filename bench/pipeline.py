"""Child process of a benchmark run: repeats the workload's command sequence.

Usage: python3 pipeline.py PLAN_JSON

The plan (written by run.py) names the run directory holding the generated
corpus, the measuring time and whether to trace. Commands run in-process
through ``segqa.cli.main``. A first iteration warms up; the measuring time
starts after it. Timed iterations then repeat while another one is expected
to fit in the measuring time, and there is always at least one. In a traced
run, untraced and traced iterations alternate, so their difference is the
tracing overhead. Results go to ``result.json`` in the run directory and
spans to ``spans.jsonl``.
"""

from __future__ import annotations

import contextlib
import csv
import gc
import hashlib
import io
import json
import os
import shutil
import sys
import time
from pathlib import Path

import workloads as wl


def run_command(cli, argv: list[str]) -> tuple[float, bool]:
    """Wall time of one CLI call and whether it succeeded."""
    sink = io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            ok = cli.main(argv) == 0
    except (Exception, SystemExit):  # a crash is a failed operation, not a failed run
        ok = False
    return time.perf_counter() - start, ok


def run_iteration(cli) -> dict[str, object]:
    """Run the whole sequence once; stage times, mark times and failures."""
    shutil.rmtree(wl.OUT, ignore_errors=True)
    Path(wl.OUT).mkdir()
    stages: dict[str, float] = {}
    marks: list[float] = []
    attempted = failed = 0

    def run(stage: str, argv: list[str]) -> float:
        nonlocal attempted, failed
        seconds, ok = run_command(cli, argv)
        stages[stage] = stages.get(stage, 0.0) + seconds
        attempted += 1
        failed += not ok
        return seconds

    start = time.perf_counter()
    for stage, argv in wl.FIXED_COMMANDS:
        run(stage, argv)
    selected = []
    if os.path.exists(wl.SELECTED):
        with open(wl.SELECTED, newline="", encoding="utf-8") as f:
            selected = [row["case_id"] for row in csv.DictReader(f)]
    for case_id in selected:
        marks.append(run("campaign", wl.mark_command(case_id)))
    for stage, argv in wl.FINAL_COMMANDS:
        run(stage, argv)
    pipeline_s = time.perf_counter() - start
    return {
        "pipeline_s": pipeline_s,
        "stages": stages,
        "marks": marks,
        "attempted": attempted,
        "failed": failed,
        "digests": output_digests(Path(wl.OUT)),
    }


def output_digests(out: Path) -> dict[str, str]:
    """SHA-256 of every deterministic artifact under the output directory.

    The campaign state holds timestamps, so it is checked by content instead.
    """
    digests = {}
    for path in sorted(out.rglob("*")):
        if path.is_file() and not path.name.startswith("campaign.json"):
            digests[path.relative_to(out).as_posix()] = hashlib.sha256(path.read_bytes()).hexdigest()
    return digests


def main(plan_path: str) -> int:
    plan = json.loads(Path(plan_path).read_text(encoding="utf-8"))
    os.chdir(plan["run_dir"])
    from segqa import cli
    from tracer import Tracer, layer_stats

    iterations = []
    tracer = Tracer() if plan["trace"] else None
    # Iteration 0 warms up (first calls, allocator growth) and is not timed.
    # In a traced run, untraced and traced iterations then alternate.
    least = 3 if tracer is not None else 2
    begin = None
    while True:
        index = len(iterations)
        traced = tracer is not None and index > 0 and index % 2 == 0
        if traced:
            tracer.install()
        gc.collect()
        try:
            result = run_iteration(cli)
        finally:
            if traced:
                tracer.uninstall()
        result["warmup"] = index == 0
        result["traced"] = traced
        if traced:
            result["layers"] = layer_stats(tracer.spans)
        iterations.append(result)
        if begin is None:
            # The measuring time starts after the warm-up.
            begin = time.perf_counter()
            continue
        elapsed = time.perf_counter() - begin
        if len(iterations) >= least and elapsed + result["pipeline_s"] > plan["seconds"]:
            break
    if tracer is not None:
        tracer.write(Path("spans.jsonl"))
    span_names = sorted(tracer.names) if tracer is not None else []
    Path("result.json").write_text(
        json.dumps({"iterations": iterations, "span_names": span_names}), encoding="utf-8"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
