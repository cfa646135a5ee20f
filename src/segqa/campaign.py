"""Prioritized human-in-the-loop annotation campaigning.

Cases are ranked by total attention-map size so the annotator always works
on the volume most likely to contain errors. A campaign loop is: detect,
rank, revise the cases above a size cutoff, refresh predictions, repeat; it
stops once the top-ranked case is confirmed as needing no further revision.
Model refreshing is out of process - the loop runner consumes caller-supplied
predictions per loop index, and for desk-scale simulation can recycle the
revised labels as the next loop's predictions.

A simulated annotator (perfect within the attended region, blind outside it)
makes the protocol reproducible without a human in the chair.
"""

from __future__ import annotations

import fcntl
import json
import os
from dataclasses import dataclass, field, replace
from datetime import datetime, timezone
from pathlib import Path
from typing import Callable, Mapping, Sequence

import numpy as np

from .detect import AttentionMap, DetectionConfig, build_attention
from .ensemble import ensemble_label
from .regions import mean_label_dsc
from .volume import (
    LabelVolume,
    PredictionSet,
    SoftPrediction,
    require_aligned,
    soft_from_labels,
)

STATE_VERSION = 1
STATUSES = ("pending", "revised", "confirmed")


class CampaignError(ValueError):
    pass


class UnknownCaseError(CampaignError):
    pass


class IllegalTransitionError(CampaignError):
    pass


class MissingPredictionsError(CampaignError):
    """run_loop was asked for a loop with no prediction source."""


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
        if self.total_mm3 < 0:
            raise CampaignError(f"case {self.case_id!r}: negative attention size")
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
    if size_threshold_mm3 < 0:
        raise CampaignError(f"size threshold must be >= 0, got {size_threshold_mm3}")
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
    if minutes_per_case <= 0 or hours_per_day <= 0:
        raise CampaignError("minutes_per_case and hours_per_day must be positive")
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

def _entry_to_dict(entry: CaseEntry) -> dict[str, object]:
    return {
        "case_id": entry.case_id,
        "per_organ_mm3": entry.per_organ_mm3,
        "total_mm3": entry.total_mm3,
        "status": entry.status,
        "loop_seen": entry.loop_seen,
        "error_tags": list(entry.error_tags),
        "created_at": entry.created_at,
        "updated_at": entry.updated_at,
    }


def _entry_from_dict(d: Mapping[str, object]) -> CaseEntry:
    return CaseEntry(
        case_id=d["case_id"],
        per_organ_mm3=dict(d["per_organ_mm3"]),
        total_mm3=float(d["total_mm3"]),
        status=d["status"],
        loop_seen=int(d["loop_seen"]),
        error_tags=tuple(d.get("error_tags", ())),
        created_at=d["created_at"],
        updated_at=d["updated_at"],
    )


class _FileLock:
    """Advisory exclusive lock guarding the campaign state file."""

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
    payload = {
        "version": STATE_VERSION,
        "loop_index": state.loop_index,
        "config": state.config,
        "cases": [_entry_to_dict(c) for c in state.cases],
    }
    text = json.dumps(payload, indent=2, sort_keys=True, ensure_ascii=False) + "\n"
    tmp = path.with_name(path.name + ".tmp")
    with open(tmp, "w", encoding="utf-8") as f:
        f.write(text)
        f.flush()
        os.fsync(f.fileno())
    os.replace(tmp, path)


def _read_state(path: Path) -> CampaignState:
    payload = json.loads(path.read_text(encoding="utf-8"))
    if payload.get("version") != STATE_VERSION:
        raise CampaignError(
            f"{path}: unsupported state version {payload.get('version')!r}"
        )
    return CampaignState(
        cases=tuple(_entry_from_dict(d) for d in payload["cases"]),
        loop_index=int(payload["loop_index"]),
        config=dict(payload["config"]),
    )


def save_state(state: CampaignState, path: str | Path) -> None:
    """Atomically persist campaign state (write and fsync a temp file, then rename)."""
    path = Path(path)
    with _FileLock(path):
        _write_state(state, path)


def load_state(path: str | Path) -> CampaignState:
    path = Path(path)
    with _FileLock(path):
        return _read_state(path)


def update_state(path: str | Path, change: Callable[[CampaignState], CampaignState]) -> None:
    """Load, change and save the state under one lock, so no concurrent update is lost."""
    path = Path(path)
    with _FileLock(path):
        _write_state(change(_read_state(path)), path)


# -- simulated annotator and loop runner --------------------------------------

def simulate_revision(
    pseudo: LabelVolume, truth: LabelVolume, attention: AttentionMap
) -> LabelVolume:
    """Oracle annotator: copy truth inside the attention union, keep pseudo outside.

    Any residual disagreement with truth therefore lies entirely outside the
    attention map, which is exactly the error the detector failed to flag.
    """
    if pseudo.labels.codes != truth.labels.codes:
        raise CampaignError("pseudo and truth label volumes use different organ maps")
    require_aligned(
        pseudo.grid, truth.grid, attention.union_mask, context="revision inputs"
    )
    inside = attention.union_mask.values != 0
    revised = np.where(inside, truth.grid.values, pseudo.grid.values)
    return LabelVolume(pseudo.grid.with_values(revised.astype(pseudo.grid.values.dtype)), pseudo.labels)


@dataclass(frozen=True)
class LoopPolicy:
    """Knobs for the loop runner.

    When reuse_revised_labels is set and no predictions exist for a loop,
    the previous loop's revised labels are recycled as hard predictions
    (replicated to the original member count), exercising the full protocol
    without a training system attached.
    """

    size_threshold_mm3: float = 0.0
    max_loops: int = 2
    reuse_revised_labels: bool = True

    def __post_init__(self) -> None:
        if self.size_threshold_mm3 < 0:
            raise CampaignError("size_threshold_mm3 must be >= 0")
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


PredictionSource = Callable[[int], Mapping[str, PredictionSet] | None]


def _labels_as_predictions(
    case_id: str, label: LabelVolume, members: int, loop_index: int
) -> PredictionSet:
    channels = soft_from_labels(label)
    return PredictionSet(
        case_id=case_id,
        members=tuple(
            SoftPrediction(model_id=f"revised-loop{loop_index}-m{k}", channels=channels)
            for k in range(members)
        ),
    )


def run_loop(
    predictions: Mapping[int, Mapping[str, PredictionSet]] | PredictionSource,
    truths: Mapping[str, LabelVolume],
    cfg: DetectionConfig | None = None,
    policy: LoopPolicy | None = None,
) -> list[LoopReport]:
    """Run the detect / rank / select / revise loop over a fixed corpus.

    `predictions` maps a loop index to per-case prediction sets (a dict or a
    callable returning None for loops it cannot serve). Loop 0 must be
    present. The loop stops when the simulated annotator confirms the
    top-ranked case (its attention size is at or below the cutoff) or when
    the loop budget runs out. Residual error is measured against truth after
    the selected cases are revised.
    """
    cfg = cfg or DetectionConfig()
    policy = policy or LoopPolicy()

    if callable(predictions):
        source: PredictionSource = predictions
    else:
        table = dict(predictions)
        source = table.get

    current = source(0)
    if not current:
        raise MissingPredictionsError("no predictions for loop 0")

    member_count = next(iter(current.values())).num_members
    reports: list[LoopReport] = []

    for loop_index in range(policy.max_loops):
        if current is None:
            raise MissingPredictionsError(f"no predictions for loop {loop_index}")
        case_ids = sorted(current)
        if sorted(truths) != case_ids:
            missing = sorted(set(case_ids) ^ set(truths))
            raise CampaignError(f"prediction/truth case mismatch: {missing}")

        attentions = {cid: build_attention(current[cid], cfg) for cid in case_ids}
        pseudos = {
            cid: ensemble_label(
                current[cid], cfg.binarize_threshold, truths[cid].labels
            )
            for cid in case_ids
        }
        entries = [
            CaseEntry(
                case_id=cid,
                per_organ_mm3={},
                total_mm3=attentions[cid].total_mm3,
            )
            for cid in case_ids
        ]
        ranking = rank_cases(entries)
        selected = {e.case_id for e in select_for_revision(ranking, policy.size_threshold_mm3)}
        stopped = ranking[0].case_id not in selected  # top case confirmed untouched

        revised: dict[str, LabelVolume] = {}
        results = []
        for cid in case_ids:
            pseudo = pseudos[cid]
            truth = truths[cid]
            if cid in selected:
                final = simulate_revision(pseudo, truth, attentions[cid])
            else:
                final = pseudo
            revised[cid] = final
            residual_voxels = int(np.count_nonzero(final.grid.values != truth.grid.values))
            results.append(
                CaseLoopResult(
                    case_id=cid,
                    attention_mm3=attentions[cid].total_mm3,
                    selected=cid in selected,
                    dsc_before=mean_label_dsc(pseudo, truth),
                    dsc_after=mean_label_dsc(final, truth),
                    residual_error_mm3=residual_voxels * truth.grid.voxel_volume_mm3,
                )
            )

        residual_total = sum(r.residual_error_mm3 for r in results)
        reports.append(
            LoopReport(
                loop_index=loop_index,
                total_attention_mm3=sum(r.attention_mm3 for r in results),
                revised_count=len(selected),
                residual_error_mm3=residual_total,
                stopped=stopped,
                cases=tuple(results),
            )
        )
        if stopped or loop_index + 1 >= policy.max_loops:
            break

        current = source(loop_index + 1)
        if current is None:
            if not policy.reuse_revised_labels:
                raise MissingPredictionsError(f"no predictions for loop {loop_index + 1}")
            current = {
                cid: _labels_as_predictions(cid, revised[cid], member_count, loop_index + 1)
                for cid in case_ids
            }
    return reports


def loop_report_dict(report: LoopReport) -> dict[str, object]:
    return {
        "loop_index": report.loop_index,
        "total_attention_mm3": report.total_attention_mm3,
        "revised_count": report.revised_count,
        "residual_error_mm3": report.residual_error_mm3,
        "stopped": report.stopped,
        "cases": [
            {
                "case_id": c.case_id,
                "attention_mm3": c.attention_mm3,
                "selected": c.selected,
                "dsc_before": c.dsc_before,
                "dsc_after": c.dsc_after,
                "residual_error_mm3": c.residual_error_mm3,
            }
            for c in report.cases
        ],
    }
