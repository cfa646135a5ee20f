"""Independent brute-force oracles the implementation is checked against.

Most of this walks voxels one by one in plain Python. The only shared
primitive with the library is the floating-point math itself (numpy scalar
log2 for the entropy criterion); all set logic, component search and
reductions are recomputed from scratch.

The sort-based references are the vectorized member reduction, attention
map and consensus labels as the library computed them before it fused them
into one pass: a float64 stack sorted along the member axis per organ, and a
float32 stack of the mean channels for the label argmax.

The first-voxel references at the end are the component labeling and the
component-wise metrics as the library computed them before it cropped
evaluation to the foreground: whole-volume labels whose ids are ordered by a
per-component minimum over a linear x-fastest index.

The per-organ Dice loop is the mean label Dice as the library computed it
before it read every organ's counts from one joint histogram.

The two-pass loop runner is ``run_loop`` as the library ran it before it
made one pass per case: it reduced every case into a table, ranked the table
with ``CaseEntry`` rows, and then revised and scored every case in a second
pass; later loops recycled the revised labels as one member per loop-0 model,
each organ's dense 0/1 channel made and then cropped to its support box.

The report and state writers are the metrics JSON, the metrics CSV and the
campaign state as the library wrote them while it listed each record's
fields by hand: a ``MetricsReport`` per case whose ``OrganMetrics`` nested
the confusion counts, and a ``CaseEntry`` spelled out field by field.
"""

from __future__ import annotations

import csv
import io
import json
from collections import deque
from dataclasses import dataclass

import numpy as np
from scipy import ndimage

NEIGHBORS = {
    6: [
        (dx, dy, dz)
        for dx in (-1, 0, 1)
        for dy in (-1, 0, 1)
        for dz in (-1, 0, 1)
        if abs(dx) + abs(dy) + abs(dz) == 1
    ],
    18: [
        (dx, dy, dz)
        for dx in (-1, 0, 1)
        for dy in (-1, 0, 1)
        for dz in (-1, 0, 1)
        if 1 <= abs(dx) + abs(dy) + abs(dz) <= 2
    ],
    26: [
        (dx, dy, dz)
        for dx in (-1, 0, 1)
        for dy in (-1, 0, 1)
        for dz in (-1, 0, 1)
        if (dx, dy, dz) != (0, 0, 0)
    ],
}


def scan_order(dims):
    """Voxel coordinates in x-fastest linear order."""
    nx, ny, nz = dims
    for z in range(nz):
        for y in range(ny):
            for x in range(nx):
                yield x, y, z


def flood_components(mask: np.ndarray, connectivity: int) -> list[set[tuple[int, int, int]]]:
    """Exhaustive flood fill; component order follows each first voxel in scan order."""
    offsets = NEIGHBORS[connectivity]
    nx, ny, nz = mask.shape
    seen = np.zeros(mask.shape, dtype=bool)
    components = []
    for x, y, z in scan_order(mask.shape):
        if not mask[x, y, z] or seen[x, y, z]:
            continue
        blob = set()
        queue = deque([(x, y, z)])
        seen[x, y, z] = True
        while queue:
            cx, cy, cz = queue.popleft()
            blob.add((cx, cy, cz))
            for dx, dy, dz in offsets:
                px, py, pz = cx + dx, cy + dy, cz + dz
                if 0 <= px < nx and 0 <= py < ny and 0 <= pz < nz:
                    if mask[px, py, pz] and not seen[px, py, pz]:
                        seen[px, py, pz] = True
                        queue.append((px, py, pz))
        components.append(blob)
    return components


def componentwise_oracle(attention: np.ndarray, benchmark: np.ndarray, connectivity: int):
    """Sensitivity/precision by pairwise set intersection over flood-fill components."""
    att_set = {c for c in zip(*np.nonzero(attention))}
    err_set = {c for c in zip(*np.nonzero(benchmark))}
    att_components = flood_components(attention != 0, connectivity)
    err_components = flood_components(benchmark != 0, connectivity)

    tp = sum(1 for blob in err_components if blob & att_set)
    fn = len(err_components) - tp
    useful = sum(1 for blob in att_components if blob & err_set)
    fp = len(att_components) - useful

    sensitivity = tp / (tp + fn) if (tp + fn) > 0 else None
    precision = useful / len(att_components) if att_components else None
    return sensitivity, precision, tp, fp, fn


def sorted_mean_std(values):
    """Mean and population std accumulated in value-sorted order (matches library)."""
    vals = sorted(float(v) for v in values)
    k = len(vals)
    acc = vals[0]
    for v in vals[1:]:
        acc += v
    mean = acc / k
    dev = vals[0] - mean
    var = dev * dev
    for v in vals[1:]:
        dev = v - mean
        var += dev * dev
    var /= k
    return mean, np.sqrt(var)


def entropy_scalar(p: float) -> float:
    a = p * float(np.log2(p)) if p > 0.0 else 0.0
    b = (1.0 - p) * float(np.log2(1.0 - p)) if p < 1.0 else 0.0
    return -(a + b) + 0.0


def attention_union_oracle(member_channels, cfg) -> np.ndarray:
    """Recompute the union mask voxel by voxel from the raw member channels.

    member_channels[k][c] is model k's float32 array for organ c. Only valid
    for min_component_voxels <= 1 (no speckle filtering).
    """
    organs = len(member_channels[0])
    dims = member_channels[0][0].shape
    union = np.zeros(dims, dtype=bool)
    for x, y, z in scan_order(dims):
        passing = 0
        fired = False
        for c in range(organs):
            probs = [member_channels[k][c][x, y, z] for k in range(len(member_channels))]
            mean, std = sorted_mean_std(probs)
            if std >= cfg.std_threshold:
                fired = True
            if entropy_scalar(mean) >= cfg.entropy_threshold:
                fired = True
            if mean >= cfg.binarize_threshold:
                passing += 1
        if fired or passing >= 2:
            union[x, y, z] = True
    return union


def sorted_stack_mean_std(arrays):
    """Mean and population std of a member stack sorted along axis 0."""
    s = np.stack([np.asarray(a, dtype=np.float64) for a in arrays], axis=0)
    s.sort(axis=0)
    k = s.shape[0]
    acc = s[0].copy()
    for i in range(1, k):
        acc += s[i]
    mean = acc / k
    dev = s[0] - mean
    var = dev * dev
    for i in range(1, k):
        dev = s[i] - mean
        var += dev * dev
    var /= k
    return mean, np.sqrt(var)


def stacked_labels(arrays, threshold):
    """uint8 label codes from a channel stack: argmax + 1 where its maximum passes."""
    stack = np.stack(arrays, axis=0)
    peak = np.max(stack, axis=0)
    return np.where(peak >= float(threshold), np.argmax(stack, axis=0) + 1, 0).astype(np.uint8)


def sorted_stack_reduction(member_channels, cfg):
    """Attention masks and consensus labels, each from its own reduction.

    member_channels[k][c] is model k's float32 array for organ c. Returns a
    dict of boolean masks (union before speckle filtering, inconsistency,
    uncertainty, overlap, per_organ list) and the uint8 label codes.
    """
    from segqa.detect import binary_entropy

    organs = len(member_channels[0])
    reduced = [
        sorted_stack_mean_std([member[c] for member in member_channels])
        for c in range(organs)
    ]
    inconsistent = [std >= cfg.std_threshold for _, std in reduced]
    uncertain = [binary_entropy(mean) >= cfg.entropy_threshold for mean, _ in reduced]
    passes = [mean >= cfg.binarize_threshold for mean, _ in reduced]
    overlap = np.sum(passes, axis=0) >= 2
    any_inconsistent = np.any(inconsistent, axis=0)
    any_uncertain = np.any(uncertain, axis=0)

    codes = stacked_labels([mean.astype(np.float32) for mean, _ in reduced], cfg.binarize_threshold)
    return {
        "union": any_inconsistent | any_uncertain | overlap,
        "inconsistency": any_inconsistent,
        "uncertainty": any_uncertain,
        "overlap": overlap,
        "per_organ": [
            inconsistent[c] | uncertain[c] | (overlap & passes[c]) for c in range(organs)
        ],
        "labels": codes,
    }


def first_voxel_components(mask: np.ndarray, connectivity: int):
    """int32 labels with ids sorted by each first voxel's x-fastest index, and the count."""
    rank = {6: 1, 18: 2, 26: 3}[connectivity]
    v = np.asarray(mask) != 0
    raw, n = ndimage.label(v, structure=ndimage.generate_binary_structure(3, rank))
    if n == 0:
        return raw.astype(np.int32), 0

    ids = np.arange(1, n + 1)
    linear = np.arange(v.size, dtype=np.int64).reshape(v.shape, order="F")
    first = np.asarray(ndimage.minimum(linear, labels=raw, index=ids))
    order = np.argsort(first, kind="stable")
    lut = np.zeros(n + 1, dtype=np.int32)
    lut[ids[order]] = np.arange(1, n + 1, dtype=np.int32)
    return lut[raw], n


def first_voxel_componentwise(attention: np.ndarray, benchmark: np.ndarray, connectivity: int):
    """Sensitivity/precision from whole-volume first-voxel labelings of both masks."""
    att_labels, n_att = first_voxel_components(attention, connectivity)
    err_labels, n_err = first_voxel_components(benchmark, connectivity)
    att = attention != 0
    err = benchmark != 0

    tp = int(np.unique(err_labels[att & (err_labels > 0)]).size)
    fn = n_err - tp
    fp = n_att - int(np.unique(att_labels[err & (att_labels > 0)]).size)

    sensitivity = tp / (tp + fn) if (tp + fn) > 0 else None
    precision = (n_att - fp) / n_att if n_att else None
    return sensitivity, precision, tp, fp, fn


def per_organ_mean_dsc(a: np.ndarray, b: np.ndarray, codes) -> float:
    """Mean Dice over organ codes from one pair of masks per organ, the library's old loop.

    Each organ scores 2|A&B| / (|A|+|B|) in Python ints, and 1.0 when both
    masks are empty; the scores are averaged by ``np.mean``.
    """
    scores = []
    for code in codes:
        ma, mb = a == code, b == code
        na, nb = int(np.count_nonzero(ma)), int(np.count_nonzero(mb))
        if na + nb == 0:
            scores.append(1.0)
        else:
            scores.append(2.0 * int(np.count_nonzero(ma & mb)) / (na + nb))
    return float(np.mean(scores))


def soft_from_labels(label):
    """Hard 0/1 float32 channels of a label volume, one per organ code, made on demand."""
    return (
        label.grid.with_values((label.grid.values == code).astype(np.float32))
        for code in range(1, label.organs + 1)
    )


def labels_as_predictions(case_id, label, members, loop_index):
    """A label volume as `members` identical hard members, cropped from dense channels."""
    from segqa.volume import PredictionSet

    return PredictionSet.from_channels(
        case_id,
        [f"revised-loop{loop_index}-m{k}" for k in range(members)],
        ([channel] * members for channel in soft_from_labels(label)),
    )


def two_pass_run_loop(loop0, truths, cfg=None, policy=None):
    """The loop runner with a reduced table, a ranking pass and K-member later loops."""
    from segqa.campaign import (
        CampaignError,
        CaseEntry,
        CaseLoopResult,
        LoopPolicy,
        LoopReport,
        rank_cases,
        select_for_revision,
        simulate_revision,
    )
    from segqa.detect import DetectionConfig, build_attention
    from segqa.ensemble import ensemble_label
    from segqa.regions import mean_label_dsc

    cfg = cfg or DetectionConfig()
    policy = policy or LoopPolicy()
    if not loop0:
        raise CampaignError("run_loop: empty case list")
    case_ids = sorted(loop0)
    if sorted(truths) != case_ids:
        missing = sorted(set(case_ids) ^ set(truths))
        raise CampaignError(f"prediction/truth case mismatch: {missing}")

    member_count = 0
    revised = {}
    reports = []

    for loop_index in range(policy.max_loops):
        # Per case: attention total, union mask and consensus labels.
        reduced = {}
        for cid in case_ids:
            if loop_index == 0:
                preds = loop0[cid]
                member_count = member_count or len(preds.model_ids)
            else:
                preds = labels_as_predictions(cid, revised.pop(cid), member_count, loop_index)
            amap = build_attention(preds, cfg)
            pseudo = ensemble_label(preds, cfg.binarize_threshold)
            reduced[cid] = (amap.total_mm3, amap.union_mask, pseudo)
            del preds, amap

        ranking = rank_cases(
            [CaseEntry(case_id=cid, per_organ_mm3={}, total_mm3=reduced[cid][0])
             for cid in case_ids]
        )
        selected = {e.case_id for e in select_for_revision(ranking, policy.size_threshold_mm3)}
        stopped = ranking[0].case_id not in selected  # top case confirmed untouched

        results = []
        for cid in case_ids:
            attention_mm3, union_mask, pseudo = reduced.pop(cid)
            truth = truths[cid]
            final = simulate_revision(pseudo, truth, union_mask) if cid in selected else pseudo
            revised[cid] = final
            residual_voxels = int(np.count_nonzero(final.grid.values != truth.grid.values))
            results.append(
                CaseLoopResult(
                    case_id=cid,
                    attention_mm3=attention_mm3,
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
        if stopped:
            break
    return reports


@dataclass(frozen=True)
class OrganMetrics:
    sensitivity: float | None
    precision: float | None
    counts: object  # segqa.regions.ConfusionCounts
    dsc: float


@dataclass(frozen=True)
class MetricsReport:
    """Per-organ detection quality for one case, plus provenance for replay."""

    case_id: str
    organs: dict[str, OrganMetrics]
    provenance: dict[str, object]


def _cell(value: float | None) -> str:
    return "undefined" if value is None else repr(float(value))


METRICS_CSV_HEADER = ("case_id", "organ", "sensitivity", "precision", "tp", "fp", "fn", "dsc")


def metrics_csv(reports) -> str:
    """One CSV row per (case, organ); undefined metrics spelled out."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(METRICS_CSV_HEADER)
    for report in reports:
        for organ, m in report.organs.items():
            writer.writerow(
                [
                    report.case_id,
                    organ,
                    _cell(m.sensitivity),
                    _cell(m.precision),
                    m.counts.tp,
                    m.counts.fp,
                    m.counts.fn,
                    repr(m.dsc),
                ]
            )
    return buf.getvalue()


def metrics_json_dict(reports) -> dict[str, object]:
    """JSON-ready structure with per-case detail and per-organ means over defined values."""
    cases = {}
    for report in reports:
        cases[report.case_id] = {
            organ: {
                "sensitivity": m.sensitivity,
                "precision": m.precision,
                "tp": m.counts.tp,
                "fp": m.counts.fp,
                "fn": m.counts.fn,
                "dsc": m.dsc,
            }
            for organ, m in report.organs.items()
        }
    summary: dict[str, dict[str, float | None]] = {}
    for organ in dict.fromkeys(organ for report in reports for organ in report.organs):
        for key in ("sensitivity", "precision", "dsc"):
            values = [
                getattr(report.organs[organ], key)
                for report in reports
                if organ in report.organs and getattr(report.organs[organ], key) is not None
            ]
            summary.setdefault(organ, {})[key] = (
                float(np.mean(values)) if values else None
            )
    provenance = dict(reports[0].provenance) if reports else {}
    return {"cases": cases, "summary": summary, "provenance": provenance}


def _entry_to_dict(entry) -> dict[str, object]:
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


def state_text(state) -> str:
    """The text the state writer put in the file, from the hand-listed entry fields."""
    payload = {
        "version": 1,
        "loop_index": state.loop_index,
        "config": state.config,
        "cases": [_entry_to_dict(c) for c in state.cases],
    }
    return json.dumps(payload, sort_keys=True, ensure_ascii=False) + "\n"
