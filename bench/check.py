"""Output checks of a benchmark run.

Each check is one operation of the run's ``attempted`` count; a check that
does not hold is one ``failed`` operation. The checks are:

* every iteration wrote byte-identical artifacts (traced or not);
* at the default seed, the artifacts' SHA-256 digests equal the ones
  committed in ``digests.json``;
* at any seed: every case has its outputs, the ranking descends by
  ``total_mm3`` and covers every case, every case is selected and marked
  revised, and one sampled case's union mask equals a direct numpy
  recomputation from the generated channels.

The recomputation decodes the files with its own minimal reader, so it does
not trust ``segqa.nifti``.
"""

from __future__ import annotations

import csv
import gzip
import json
from pathlib import Path

import numpy as np

import workloads as wl
from corpusgen import ORGAN_NAMES

DEFAULT_SEED = 0
DIGESTS = Path(__file__).resolve().parent / "digests.json"
VOX_OFFSET = 352
# DetectionConfig defaults, which the workloads use.
STD_THRESHOLD, ENTROPY_THRESHOLD, BINARIZE_THRESHOLD = 0.1, 0.5, 0.5


def load_expected(workload: str) -> dict[str, object] | None:
    if not DIGESTS.is_file():
        return None
    return json.loads(DIGESTS.read_text(encoding="utf-8")).get(workload)


def record_expected(workload: str, digests: dict[str, str], statuses: dict[str, int]) -> None:
    table = json.loads(DIGESTS.read_text(encoding="utf-8")) if DIGESTS.is_file() else {}
    table[workload] = {"seed": DEFAULT_SEED, "statuses": statuses, "digests": digests}
    DIGESTS.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n", encoding="utf-8")


def read_nifti(path: Path, dtype: str, dims: tuple[int, int, int]) -> np.ndarray:
    raw = gzip.decompress(path.read_bytes())
    count = int(np.prod(dims))
    return np.frombuffer(raw, dtype=dtype, count=count, offset=VOX_OFFSET).reshape(dims, order="F")


def _entropy(p: np.ndarray) -> np.ndarray:
    with np.errstate(divide="ignore", invalid="ignore"):
        a = np.where(p > 0.0, p * np.log2(p), 0.0)
        b = np.where(p < 1.0, (1.0 - p) * np.log2(1.0 - p), 0.0)
    return -(a + b)


def union_mask(run_dir: Path, case_id: str, dims: tuple[int, int, int]) -> np.ndarray:
    """Attention union recomputed from the generated channels.

    Member values are summed in ascending order, as the program does, so the
    mean and standard deviation are bit-identical and the thresholds agree.
    """
    union = np.zeros(dims, dtype=bool)
    passes = np.zeros(dims, dtype=np.int32)
    for code in range(1, len(ORGAN_NAMES) + 1):
        stack = np.stack([
            read_nifti(run_dir / m / f"{case_id}_organ{code}.nii.gz", "<f4", dims)
            for m in wl.MODEL_DIRS
        ]).astype(np.float64)
        stack.sort(axis=0)
        k = stack.shape[0]
        acc = stack[0].copy()
        for i in range(1, k):
            acc += stack[i]
        mean = acc / k
        var = (stack[0] - mean) ** 2
        for i in range(1, k):
            var += (stack[i] - mean) ** 2
        std = np.sqrt(var / k)
        union |= (std >= STD_THRESHOLD) | (_entropy(mean) >= ENTROPY_THRESHOLD)
        passes += mean >= BINARIZE_THRESHOLD
    return union | (passes >= 2)


def _statuses(state_path: Path) -> dict[str, str]:
    state = json.loads(state_path.read_text(encoding="utf-8"))
    return {c["case_id"]: c["status"] for c in state["cases"]}


def status_counts(state_path: Path) -> dict[str, int]:
    counts: dict[str, int] = {}
    for status in _statuses(state_path).values():
        counts[status] = counts.get(status, 0) + 1
    return counts


def _read_csv(path: Path) -> list[dict[str, str]]:
    with open(path, newline="", encoding="utf-8") as f:
        return list(csv.DictReader(f))


def seed_independent(w: wl.Workload, seed: int, run_dir: Path) -> dict[str, bool]:
    """Checks that hold at every seed, by name."""
    out = run_dir / wl.OUT
    attention, pseudo = run_dir / wl.ATTENTION, run_dir / wl.PSEUDO
    case_ids = [f"case{i:04d}" for i in range(w.volumes.cases)]
    results: dict[str, bool] = {}

    def outputs_present() -> bool:
        names = [f"{c}_attention.nii.gz" for c in case_ids]
        names += [f"{c}_sizes.json" for c in case_ids]
        names += [f"{c}_attention_organ{k}.nii.gz" for c in case_ids
                  for k in range(1, len(ORGAN_NAMES) + 1)]
        metrics = json.loads((out / "metrics.json").read_text(encoding="utf-8"))
        loops = json.loads((out / "simulate.json").read_text(encoding="utf-8"))["loops"]
        return (
            all((attention / n).is_file() for n in names)
            and all((pseudo / f"{c}.nii.gz").is_file() for c in case_ids)
            and all((pseudo / f"{c}_ensemble.json").is_file() for c in case_ids)
            and sorted(metrics["cases"]) == case_ids
            and all(sorted(c["case_id"] for c in lp["cases"]) == case_ids for lp in loops)
            and (out / "metrics.csv").is_file()
        )

    try:
        ranking = _read_csv(out / "ranking.csv")
        totals = [float(r["total_mm3"]) for r in ranking]
    except (OSError, ValueError, KeyError):
        ranking, totals = [], []

    def ranking_ok() -> bool:
        curve = _read_csv(out / "curve.csv")
        return (
            sorted(r["case_id"] for r in ranking) == case_ids
            and [int(r["rank"]) for r in ranking] == list(range(1, len(ranking) + 1))
            and all(a >= b for a, b in zip(totals, totals[1:]))
            and [float(r["total_mm3"]) for r in curve] == totals
        )

    # Every case has injected errors, so threshold 0 selects every case and
    # every case is marked revised.
    def selection_ok() -> bool:
        selected = sorted(r["case_id"] for r in _read_csv(out / "selected.csv"))
        above = sorted(r["case_id"] for r, t in zip(ranking, totals) if t > 0)
        return selected == above == case_ids

    def campaign_ok() -> bool:
        statuses = _statuses(run_dir / wl.STATE)
        return sorted(statuses) == case_ids and set(statuses.values()) == {"revised"}

    def union_ok() -> bool:
        case_id = case_ids[int(np.random.default_rng(seed).integers(len(case_ids)))]
        dims = w.volumes.dims
        written = read_nifti(attention / f"{case_id}_attention.nii.gz", "u1", dims)
        return np.array_equal(written != 0, union_mask(run_dir, case_id, dims))

    for name, check in (
        ("outputs_present", outputs_present),
        ("ranking", ranking_ok),
        ("selection", selection_ok),
        ("campaign_statuses", campaign_ok),
        ("union_recomputed", union_ok),
    ):
        try:
            results[name] = bool(check())
        except (OSError, ValueError, KeyError, IndexError):
            results[name] = False
    return results


def check_run(
    w: wl.Workload, seed: int, run_dir: Path, iterations: list[dict[str, object]]
) -> dict[str, bool]:
    """Every check of a run, by name; True where it holds."""
    final = iterations[-1]["digests"]
    results = {
        f"iteration{i}_identical": it["digests"] == final for i, it in enumerate(iterations)
    }
    if seed == DEFAULT_SEED:
        expected = load_expected(w.name)
        try:
            statuses = status_counts(run_dir / wl.STATE)
        except (OSError, ValueError, KeyError):
            statuses = None
        results["digests_committed"] = (
            expected is not None
            and expected["digests"] == final
            and expected["statuses"] == statuses
        )
    results.update(seed_independent(w, seed, run_dir))
    return results
