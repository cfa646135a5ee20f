"""Prioritized human-in-the-loop annotation campaigning.

Cases are ranked by total attention-map size so the annotator always works
on the volume most likely to contain errors. A campaign loop is: detect,
rank, revise the cases above a size cutoff, refresh predictions, repeat; it
stops once the top-ranked case is confirmed as needing no further revision.
Model refreshing is out of process - the loop runner takes caller-supplied
loop-0 predictions and, for desk-scale simulation, recycles each loop's
revised labels as the next loop's predictions.

A simulated annotator (perfect within the attended region, blind outside it)
makes the protocol reproducible without a human in the chair.
"""

from __future__ import annotations

import fcntl
import json
import math
import os
from dataclasses import dataclass, field, replace
from datetime import datetime, timezone
from itertools import repeat
from operator import itemgetter
from pathlib import Path
from typing import Callable, Iterator, Sequence, get_origin, get_type_hints

import numpy as np
from scipy import ndimage

from .corpus import read_json
from .detect import DetectionConfig, build_attention
from .ensemble import ensemble_label
from .nifti import open_replacing
from .regions import mean_label_dsc
from .volume import (
    EMPTY_BOX,
    LabelVolume,
    PredictionSet,
    SoftPrediction,
    VolumeGrid,
    require_aligned,
)

STATE_VERSION = 1
STATUSES = ("pending", "revised", "confirmed")


class CampaignError(ValueError):
    pass


class UnknownCaseError(CampaignError):
    pass


class IllegalTransitionError(CampaignError):
    pass


class StateFileLockedError(CampaignError):
    pass


def _utcnow() -> str:
    return datetime.now(timezone.utc).isoformat()


@dataclass(frozen=True)
class CaseEntry:
    """One case's attention sizes and review status."""

    case_id: str
    per_organ_mm3: dict[str, float]
    total_mm3: float
    status: str = "pending"
    loop_seen: int = 0
    error_tags: tuple[str, ...] = ()
    created_at: str = field(default_factory=_utcnow)
    updated_at: str = field(default_factory=_utcnow)

    def __post_init__(self) -> None:
        if self.status not in STATUSES:
            raise CampaignError(f"unknown status {self.status!r}")
        if not 0 <= self.total_mm3 < math.inf:
            raise CampaignError(f"case {self.case_id!r}: attention size must be finite and "
                                f">= 0, got {self.total_mm3!r}")
        object.__setattr__(self, "error_tags", tuple(self.error_tags))


@dataclass(frozen=True)
class CampaignState:
    """Everything needed to resume a campaign: cases, loop index, config echo."""

    cases: tuple[CaseEntry, ...]
    loop_index: int = 0
    config: dict[str, object] = field(default_factory=dict)

    def __post_init__(self) -> None:
        object.__setattr__(self, "cases", tuple(self.cases))
        ids = [c.case_id for c in self.cases]
        if len(set(ids)) != len(ids):
            raise CampaignError("duplicate case ids in campaign state")

    @property
    def ranking(self) -> tuple[CaseEntry, ...]:
        return tuple(rank_cases(self.cases))

    def case(self, case_id: str) -> CaseEntry:
        for entry in self.cases:
            if entry.case_id == case_id:
                return entry
        raise UnknownCaseError(f"no such case: {case_id!r}")


def rank_cases(entries: Sequence[CaseEntry]) -> list[CaseEntry]:
    """Sort by total attention size, largest first; ties break by case id."""
    if not entries:
        raise CampaignError("rank_cases: empty case list")
    return sorted(entries, key=lambda e: (-e.total_mm3, e.case_id))


def size_rank_curve(ranked: Sequence[CaseEntry]) -> list[tuple[int, float]]:
    """(rank, total_mm3) pairs of an already ranked list, for plotting."""
    return [(i + 1, e.total_mm3) for i, e in enumerate(ranked)]


def select_for_revision(
    ranking: Sequence[CaseEntry], size_threshold_mm3: float
) -> list[CaseEntry]:
    """Cases whose total attention size exceeds the cutoff, in rank order."""
    if not 0 <= size_threshold_mm3 < math.inf:
        raise CampaignError(f"size threshold must be >= 0 and finite, got {size_threshold_mm3}")
    return [e for e in ranking if e.total_mm3 > size_threshold_mm3]


@dataclass(frozen=True)
class KneeSuggestion:
    """Advisory cutoff from the largest consecutive drop in sorted sizes."""

    cases_before_knee: int
    drop_ratio: float
    size_at_knee: float


def knee_suggestion(sizes: Sequence[float]) -> KneeSuggestion | None:
    """Largest consecutive ratio drop in a descending size list, or None.

    Advisory only: the explicit size threshold remains the selection contract.
    """
    if len(sizes) < 2:
        return None
    best_i = -1
    best_ratio = 0.0
    for i in range(len(sizes) - 1):
        hi, lo = sizes[i], sizes[i + 1]
        if hi <= 0:
            continue
        ratio = float("inf") if lo <= 0 else hi / lo
        if ratio > best_ratio:
            best_ratio = ratio
            best_i = i
    if best_i < 0 or best_ratio <= 1.0:
        return None
    return KneeSuggestion(
        cases_before_knee=best_i + 1,
        drop_ratio=best_ratio,
        size_at_knee=float(sizes[best_i]),
    )


@dataclass(frozen=True)
class WorkloadEstimate:
    cases_needing_revision: int
    total_cases: int
    minutes_per_case: float
    hours_per_day: float
    estimated_days: float
    human_fraction: float


def estimate_workload(
    revision_count: int,
    total_cases: int,
    minutes_per_case: float = 15.0,
    hours_per_day: float = 8.0,
) -> WorkloadEstimate:
    """Annotator-days and human-refined fraction for a revision campaign."""
    if total_cases <= 0:
        raise CampaignError(f"total_cases must be positive, got {total_cases}")
    if not (0 < minutes_per_case < math.inf and 0 < hours_per_day < math.inf):
        raise CampaignError(
            f"minutes_per_case and hours_per_day must be finite and positive, "
            f"got {minutes_per_case} and {hours_per_day}"
        )
    if revision_count < 0 or revision_count > total_cases:
        raise CampaignError(
            f"revision_count must be in 0..{total_cases}, got {revision_count}"
        )
    return WorkloadEstimate(
        cases_needing_revision=revision_count,
        total_cases=total_cases,
        minutes_per_case=float(minutes_per_case),
        hours_per_day=float(hours_per_day),
        estimated_days=revision_count * minutes_per_case / (60.0 * hours_per_day),
        human_fraction=revision_count / total_cases,
    )


def mark_case(
    state: CampaignState,
    case_id: str,
    new_status: str,
    tags: Sequence[str] = (),
) -> CampaignState:
    """Move a pending case to revised or confirmed, appending any error tags.

    Only pending cases may transition; anything else is rejected so a case's
    outcome within a loop is written exactly once.
    """
    if new_status not in ("revised", "confirmed"):
        raise CampaignError(f"target status must be revised or confirmed, got {new_status!r}")
    entry = state.case(case_id)
    if entry.status != "pending":
        raise IllegalTransitionError(
            f"case {case_id!r}: cannot move {entry.status} -> {new_status}"
        )
    updated = replace(
        entry,
        status=new_status,
        error_tags=entry.error_tags + tuple(tags),
        loop_seen=state.loop_index,
        updated_at=_utcnow(),
    )
    cases = tuple(updated if c.case_id == case_id else c for c in state.cases)
    return replace(state, cases=cases)


def stopping_check(state: CampaignState) -> bool:
    """True once the top-ranked case is confirmed as needing no revision."""
    ranking = state.ranking
    return ranking[0].status == "confirmed"


# -- persistence -------------------------------------------------------------

class _FileLock:
    """Advisory exclusive lock guarding writes to the campaign state file."""

    def __init__(self, path: Path):
        self._path = path.with_name(path.name + ".lock")
        self._fd: int | None = None

    def __enter__(self) -> "_FileLock":
        self._fd = os.open(self._path, os.O_CREAT | os.O_RDWR, 0o644)
        try:
            fcntl.flock(self._fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
        except BlockingIOError:
            os.close(self._fd)
            self._fd = None
            raise StateFileLockedError(
                f"{self._path}: state file is in use by another process"
            ) from None
        return self

    def __exit__(self, *exc) -> None:
        if self._fd is not None:
            fcntl.flock(self._fd, fcntl.LOCK_UN)
            os.close(self._fd)
            self._fd = None


def _write_state(state: CampaignState, path: Path) -> None:
    """Write a temp file, flush it to disk, then rename it over the state file."""
    # vars(), not asdict(): asdict deep-copies every entry, which costs more
    # than the encoding itself at corpus scale. json writes tuples as arrays.
    payload = {**vars(state), "version": STATE_VERSION, "cases": [vars(c) for c in state.cases]}
    # No indent: json encodes in C only without one, and the lock is held meanwhile.
    text = json.dumps(payload, sort_keys=True, ensure_ascii=False) + "\n"
    with open_replacing(path, "w", encoding="utf-8") as f:
        f.write(text)
        f.flush()
        os.fsync(f.fileno())


# JSON has no tuple, and a float may be written as a whole number.
_JSON_SPELLINGS = {tuple: list, float: (int, float)}


def _check_fields(cls: type, records: list) -> None:
    """Refuse records that are not objects holding exactly cls's fields, each of its type."""
    kinds = {name: get_origin(hint) or hint for name, hint in get_type_hints(cls).items()}
    for record in records:
        if not isinstance(record, dict):
            raise CampaignError(f"{cls.__name__}: expected an object, got {record!r}")
        if record.keys() != kinds.keys():
            raise CampaignError(
                f"{cls.__name__}: missing fields {sorted(kinds.keys() - record.keys())}, "
                f"unknown fields {sorted(record.keys() - kinds.keys())}"
            )
    # One field across all records at a time, so that isinstance runs in C: a state
    # holds thousands of entries and is read on every mark.
    for name, kind in kinds.items():
        kind = _JSON_SPELLINGS.get(kind, kind)
        if not all(map(isinstance, map(itemgetter(name), records), repeat(kind))):
            bad = next(r[name] for r in records if not isinstance(r[name], kind))
            raise CampaignError(f"{cls.__name__}: field {name!r} has the wrong type: {bad!r}")


def _read_state(path: Path) -> CampaignState:
    payload = read_json(path)
    version = payload.pop("version", None) if isinstance(payload, dict) else None
    if version != STATE_VERSION:
        raise CampaignError(f"{path}: unsupported state version {version!r}")
    try:
        _check_fields(CampaignState, [payload])
        _check_fields(CaseEntry, payload["cases"])
        cases = [CaseEntry(**entry) for entry in payload["cases"]]
        return CampaignState(**{**payload, "cases": cases})
    except CampaignError as exc:
        raise CampaignError(f"{path}: {exc}") from None


def save_state(state: CampaignState, path: str | Path) -> None:
    """Atomically persist campaign state (write and fsync a temp file, then rename)."""
    path = Path(path)
    with _FileLock(path):
        _write_state(state, path)


def load_state(path: str | Path) -> CampaignState:
    """Read the state without the lock: every write renames a whole file into place."""
    return _read_state(Path(path))


def update_state(path: str | Path, change: Callable[[CampaignState], CampaignState]) -> None:
    """Load, change and save the state under one lock, so no concurrent update is lost."""
    path = Path(path)
    with _FileLock(path):
        _write_state(change(_read_state(path)), path)


# -- simulated annotator and loop runner --------------------------------------

def simulate_revision(
    pseudo: LabelVolume, truth: LabelVolume, union_mask: VolumeGrid
) -> LabelVolume:
    """Oracle annotator: copy truth inside the attention union, keep pseudo outside.

    Any residual disagreement with truth therefore lies entirely outside the
    attention map, which is exactly the error the detector failed to flag.
    """
    if pseudo.organs != truth.organs:
        raise CampaignError("pseudo and truth label volumes have different organ counts")
    require_aligned(pseudo.grid, truth.grid, union_mask, context="revision inputs")
    inside = union_mask.values != 0
    revised = np.where(inside, truth.grid.values, pseudo.grid.values)
    return LabelVolume(pseudo.grid.with_values(revised.astype(pseudo.grid.values.dtype)), pseudo.organs)


@dataclass(frozen=True)
class LoopPolicy:
    """Knobs for the loop runner: the selection cutoff and the loop budget."""

    size_threshold_mm3: float = 0.0
    max_loops: int = 2

    def __post_init__(self) -> None:
        if not 0 <= self.size_threshold_mm3 < math.inf:
            raise CampaignError(
                f"size_threshold_mm3 must be >= 0 and finite, got {self.size_threshold_mm3}"
            )
        if self.max_loops < 1:
            raise CampaignError("max_loops must be >= 1")


@dataclass(frozen=True)
class CaseLoopResult:
    case_id: str
    attention_mm3: float
    selected: bool
    dsc_before: float
    dsc_after: float
    residual_error_mm3: float


@dataclass(frozen=True)
class LoopReport:
    loop_index: int
    total_attention_mm3: float
    revised_count: int
    residual_error_mm3: float
    stopped: bool
    cases: tuple[CaseLoopResult, ...]


def _labels_as_predictions(case_id: str, label: LabelVolume, loop_index: int) -> PredictionSet:
    # Identical 0/1 members have std 0 and a mean equal to the channel, whatever
    # their count, so two (the fewest build_attention accepts) share one crop.
    # An organ's bounding box in the labels is the support box of its channel.
    values = label.grid.values
    organs = []
    for code, box in enumerate(ndimage.find_objects(values, label.organs), start=1):
        box = box or EMPTY_BOX
        crop = (values[box] == code).astype(np.float32)
        organs.append(SoftPrediction(box, (crop, crop)))
    model_ids = [f"revised-loop{loop_index}-m{k}" for k in range(2)]
    return PredictionSet(case_id, model_ids, label.grid, organs)


def run_loop(
    case_ids: Sequence[str],
    load_predictions: Callable[[str], PredictionSet],
    load_truth: Callable[[str], LabelVolume],
    cfg: DetectionConfig | None = None,
    policy: LoopPolicy | None = None,
) -> list[LoopReport]:
    """Run the detect / select / revise loop over a fixed corpus.

    Cases run one at a time in case-id order, each through its loops before
    the next case loads. `load_predictions` and `load_truth` are called once
    per case, and of a case only its rows outlive it, so the loop holds one
    case's channels, labels and truth at a time. In each loop a case whose
    attention total exceeds the cutoff is revised by the simulated annotator,
    then scored against truth.

    Every later loop recycles the previous loop's labels as two identical
    hard members, which exercises the full protocol without a training
    system attached. Such members have std 0 and entropy 0, and each voxel
    carries at most one organ, so every loop >= 1 has an empty attention map
    and the loop stops there. The loop stops when no case is above the cutoff
    (the top-ranked case is confirmed) or when the loop budget runs out.
    """
    cfg = cfg or DetectionConfig()
    policy = policy or LoopPolicy()
    if not case_ids:
        raise CampaignError("run_loop: empty case list")

    def case_rows(cid: str) -> Iterator[CaseLoopResult]:
        # Loop 0 on, up to the budget or the first loop >= 1 that revises
        # nothing: that loop gives back the labels it was given, so every
        # later loop would repeat its row.
        preds, truth = load_predictions(cid), load_truth(cid)
        require_aligned(preds.grid, truth.grid, context=f"case {cid!r}: predictions/truth")
        if len(preds.organs) != truth.organs:
            raise CampaignError(f"case {cid!r}: predictions have {len(preds.organs)} organs, "
                                f"truth has {truth.organs}")
        for loop_index in range(policy.max_loops):
            if loop_index:
                preds = _labels_as_predictions(cid, final, loop_index)
                del final
            amap = build_attention(preds, cfg)
            pseudo = ensemble_label(preds, cfg.binarize_threshold)
            attention_mm3, union_mask = amap.total_mm3, amap.union_mask
            # Dropped before the next members are built: one loop's channels at a time.
            del preds, amap

            selected = attention_mm3 > policy.size_threshold_mm3
            final = simulate_revision(pseudo, truth, union_mask) if selected else pseudo
            dsc_before = mean_label_dsc(pseudo, truth)
            residual_voxels = int(np.count_nonzero(final.grid.values != truth.grid.values))
            yield CaseLoopResult(
                case_id=cid,
                attention_mm3=attention_mm3,
                selected=selected,
                dsc_before=dsc_before,
                dsc_after=mean_label_dsc(final, truth) if selected else dsc_before,
                residual_error_mm3=residual_voxels * truth.grid.voxel_volume_mm3,
            )
            del pseudo, union_mask
            if loop_index and not selected:
                return

    rows = [list(case_rows(cid)) for cid in sorted(case_ids)]
    reports: list[LoopReport] = []
    for loop_index in range(policy.max_loops):
        # A case that stopped earlier repeats its last row.
        results = tuple(case[min(loop_index, len(case) - 1)] for case in rows)
        revised_count = sum(r.selected for r in results)
        reports.append(
            LoopReport(
                loop_index=loop_index,
                total_attention_mm3=sum(r.attention_mm3 for r in results),
                revised_count=revised_count,
                residual_error_mm3=sum(r.residual_error_mm3 for r in results),
                # The top-ranked case has the largest total: it is confirmed
                # exactly when no case is above the cutoff.
                stopped=revised_count == 0,
                cases=results,
            )
        )
        if revised_count == 0:
            break
    return reports
