"""The benchmark workloads and the command sequence every workload runs.

Each iteration runs the whole workflow through ``segqa.cli.main`` with
``--jobs 1``: the voxel stages (detect, ensemble, evaluate, simulate) on the
workload's volume corpus, then the bookkeeping stages (rank, select, campaign
init, one mark per selected case, status, stop-check) on the detect
output. The machine has two shared cores, so ``--jobs`` scaling would
measure the scheduler and stays out.

Every case has injected errors, so ``select`` at threshold 0 selects every
case and each iteration marks every case once.

Sizes are chosen so one iteration takes a few seconds on a two-core machine
and a run repeats it several times within ``--seconds``.
"""

from __future__ import annotations

from dataclasses import dataclass

from corpusgen import VolumeSpec

MODEL_DIRS = tuple(f"vol/model{k}" for k in range(3))
TRUTH_DIR = "vol/truth"
OUT = "out"
ATTENTION = f"{OUT}/attention"
PSEUDO = f"{OUT}/pseudo"
STATE = f"{OUT}/campaign.json"
SELECTED = f"{OUT}/selected.csv"


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    volumes: VolumeSpec


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "ct_abdomen",
            "few large CT-like cases: volume reductions, connected components "
            "and NIfTI decode of large payloads dominate; discovery is cheap",
            VolumeSpec(cases=3, dims=(64, 64, 32)),
        ),
        Workload(
            "many_cases",
            "many tiny cases: per-file and per-case overhead dominates, "
            "including corpus discovery that re-lists every model directory",
            VolumeSpec(cases=40, dims=(20, 20, 12)),
        ),
    )
}


# (stage, argv) of every command before the marks.
FIXED_COMMANDS = [
    ("detect", ["detect", "--preds", *MODEL_DIRS, "--out", ATTENTION, "--jobs", "1"]),
    ("ensemble", ["ensemble", "--preds", *MODEL_DIRS, "--out", PSEUDO]),
    ("evaluate", ["evaluate", "--attention", ATTENTION, "--pseudo", PSEUDO,
                  "--truth", TRUTH_DIR, "--out", f"{OUT}/metrics.json"]),
    ("simulate", ["simulate", "--preds", *MODEL_DIRS, "--truth", TRUTH_DIR,
                  "--loops", "2", "--out", f"{OUT}/simulate.json"]),
    ("rank", ["rank", "--attention", ATTENTION, "--out", f"{OUT}/ranking.csv",
              "--curve", f"{OUT}/curve.csv"]),
    ("select", ["select", "--ranking", f"{OUT}/ranking.csv",
                "--threshold-mm3", "0.0", "--knee", "--out", SELECTED]),
    ("campaign", ["campaign", "init", "--state", STATE,
                  "--attention", ATTENTION, "--force"]),
]


def mark_command(case_id: str) -> list[str]:
    return ["campaign", "mark", "--state", STATE, "--case", case_id, "--status", "revised"]


FINAL_COMMANDS = [
    ("campaign", ["campaign", "status", "--state", STATE]),
    ("campaign", ["campaign", "stop-check", "--state", STATE]),
]
