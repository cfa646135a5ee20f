"""Batch command-line front end.

Subcommands cover the full workflow: detect attention maps over a corpus,
rank and select cases for revision, evaluate attention quality against
ground truth, build ensemble labels, track a campaign, simulate the
human-in-the-loop protocol, estimate workload and scan for false positives.

Exit codes: 0 success, 1 validation error, 2 I/O error. All numeric
configuration is echoed into outputs, and re-running a subcommand on the
same inputs produces byte-identical files (timestamps only ever live in the
campaign state).
"""

from __future__ import annotations

import argparse
import functools
import multiprocessing
import sys
from dataclasses import asdict
from pathlib import Path
from typing import Sequence

import numpy as np

from . import campaign as camp
from . import corpus, regions
from .detect import DetectionConfig, build_attention
from .ensemble import ensemble_label
from .nifti import read_volume, write_volume
from .volume import VolumeGrid, organ_names, require_aligned

PROG = "segqa"


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        # A sub-parser's defaults override its parent's, so this names the leaf
        # parser that ``main`` reports a stray flag through.
        self.set_defaults(parser=self)

    # argparse exits 2 on bad flags; the contract reserves 2 for I/O errors.
    def error(self, message: str) -> None:  # type: ignore[override]
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _detection_config(args: argparse.Namespace) -> DetectionConfig:
    return DetectionConfig(
        std_threshold=args.tau_std,
        entropy_threshold=args.tau_entropy,
        binarize_threshold=args.bin_thresh,
        min_component_voxels=args.min_component,
    )


def _add_detect_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--tau-std", type=float, default=0.1,
                   help="member std-dev threshold (default 0.1)")
    p.add_argument("--tau-entropy", type=float, default=0.5,
                   help="normalized entropy threshold (default 0.5)")
    p.add_argument("--bin-thresh", type=float, default=0.5,
                   help="probability binarization threshold (default 0.5)")
    p.add_argument("--min-component", type=int, default=0,
                   help="drop union components smaller than this many voxels")


def _detect_one(task: tuple[str, corpus.CaseChannels, str, DetectionConfig]) -> str:
    case_id, members, out_dir, cfg = task
    preds = corpus.load_prediction_set(case_id, members)
    corpus.write_attention_outputs(out_dir, build_attention(preds, cfg), cfg)
    return case_id


def cmd_detect(args: argparse.Namespace) -> int:
    cfg = _detection_config(args)
    model_dirs = [str(d) for d in args.preds]
    if len(model_dirs) < 2:
        raise ValueError("detect: need at least two --preds model directories")
    if args.jobs < 1:
        raise ValueError(f"detect: --jobs must be at least 1, got {args.jobs}")
    index = corpus.discover_cases(model_dirs)
    tasks = [(cid, index.members[cid], str(args.out), cfg) for cid in index.case_ids]
    jobs = min(args.jobs, len(tasks))
    if jobs > 1:
        with multiprocessing.Pool(jobs) as pool:
            done = pool.map(_detect_one, tasks)
    else:
        done = [_detect_one(t) for t in tasks]
    for cid in sorted(done):
        print(f"detect: {cid}")
    print(f"detect: wrote {len(done)} cases to {args.out}")
    return 0


RANKING_BASE_HEADER = ("rank", "case_id", "total_mm3")


def _case_entries(sizes: list[dict[str, object]]) -> list[camp.CaseEntry]:
    """One pending campaign entry per sizes sidecar written by detect."""
    return [
        camp.CaseEntry(
            case_id=s["case_id"],
            per_organ_mm3=dict(s["per_organ_mm3"]),
            total_mm3=float(s["total_mm3"]),
        )
        for s in sizes
    ]


def cmd_rank(args: argparse.Namespace) -> int:
    sizes = corpus.read_sizes(args.attention)
    organ_names = list(sizes[0]["organ_names"])
    ranked = camp.rank_cases(_case_entries(sizes))
    header = list(RANKING_BASE_HEADER) + [f"{name}_mm3" for name in organ_names]
    rows = [
        [rank, entry.case_id, repr(entry.total_mm3)]
        + [repr(float(entry.per_organ_mm3[name])) for name in organ_names]
        for rank, entry in enumerate(ranked, start=1)
    ]
    corpus.write_csv(args.out, header, rows)
    if args.curve:
        curve = camp.size_rank_curve(ranked)
        corpus.write_csv(args.curve, ("rank", "total_mm3"), [[r, repr(t)] for r, t in curve])
    print(f"rank: wrote {len(rows)} cases to {args.out}")
    return 0


def cmd_select(args: argparse.Namespace) -> int:
    rows = corpus.read_ranking_csv(args.ranking)
    ranking = [camp.CaseEntry(r["case_id"], {}, r["total_mm3"]) for r in rows]
    chosen = {e.case_id for e in camp.select_for_revision(ranking, args.threshold_mm3)}
    selected = [r for r in rows if r["case_id"] in chosen]
    for row in selected:
        print(row["case_id"])
    if args.out:
        corpus.write_csv(
            args.out,
            RANKING_BASE_HEADER,
            [[r["rank"], r["case_id"], repr(r["total_mm3"])] for r in selected],
        )
    print(f"select: {len(selected)} of {len(rows)} cases above {args.threshold_mm3} mm3")
    if args.knee:
        suggestion = camp.knee_suggestion([r["total_mm3"] for r in rows])
        if suggestion is None:
            print("knee: no clear drop in the size curve")
        else:
            print(
                f"knee: advisory cutoff after {suggestion.cases_before_knee} cases "
                f"(drop ratio {suggestion.drop_ratio:.2f} below {suggestion.size_at_knee:g} mm3)"
            )
    return 0


def _require_out_dir(out: str) -> None:
    # Checked before any case is read: the write comes only after all of them.
    if not Path(out).parent.is_dir():
        raise FileNotFoundError(f"{out}: output directory {Path(out).parent} does not exist")


def cmd_evaluate(args: argparse.Namespace) -> int:
    _require_out_dir(args.out)
    sizes = corpus.read_sizes(args.attention)
    organs = len(sizes[0]["organ_names"])
    pseudo_files = corpus.find_label_volumes(args.pseudo)
    truth_files = corpus.find_label_volumes(args.truth)
    attention_dir = Path(args.attention)

    # read_sizes refuses sidecars whose config differs, so the first one speaks for all.
    provenance = {
        "connectivity": args.connectivity,
        "detect_config": sizes[0]["config"],
        "attention_dir": str(args.attention),
        "pseudo_dir": str(args.pseudo),
        "truth_dir": str(args.truth),
        "dsc_empty_convention": 1.0,
    }
    cases = {}
    for s in sizes:
        case_id = str(s["case_id"])
        if case_id not in pseudo_files or case_id not in truth_files:
            raise corpus.CorpusError(f"case {case_id!r}: missing pseudo or truth labels")
        pseudo = corpus.load_label_volume(pseudo_files[case_id], organs)
        truth = corpus.load_label_volume(truth_files[case_id], organs)
        require_aligned(pseudo.grid, truth.grid,
                        context=f"case {case_id!r}: {truth_files[case_id]}: pseudo/truth labels")
        cases[case_id] = regions.evaluate_case(
            case_id,
            lambda code: read_volume(corpus.attention_organ_path(attention_dir, case_id, code)),
            pseudo,
            truth,
            connectivity=args.connectivity,
        )

    corpus.write_json(args.out, regions.metrics_json_dict(cases, provenance))
    csv_path = Path(args.out).with_suffix(".csv")
    corpus.write_csv(csv_path, regions.METRICS_CSV_HEADER, regions.metrics_csv_rows(cases))
    print(f"evaluate: wrote {args.out} and {csv_path} ({len(cases)} cases)")
    return 0


def _load_mask(path: str | Path, organ: int | None) -> VolumeGrid:
    """Binary mask of one organ code, or of any nonzero label, from an integer volume."""
    if organ is not None and organ < 1:
        raise ValueError(f"organ code must be >= 1, got {organ}")
    grid = corpus.read_label_grid(path)
    hits = grid.values != 0 if organ is None else grid.values == organ
    return grid.with_values(hits.astype(np.uint8))


def cmd_dsc(args: argparse.Namespace) -> int:
    a, b = _load_mask(args.a, args.organ), _load_mask(args.b, args.organ)
    require_aligned(a, b, context=f"masks {args.a} and {args.b}")
    value = regions.dsc(a, b)
    print(repr(value))
    return 0


def cmd_matrix(args: argparse.Namespace) -> int:
    if len(args.inputs) < 2:
        raise ValueError("matrix: need at least two --inputs files")
    names = []
    masks = []
    for path in args.inputs:
        masks.append(_load_mask(path, args.organ))
        require_aligned(masks[0], masks[-1], context=f"masks {args.inputs[0]} and {path}")
        name = Path(path).name
        match = corpus.LABEL_RE.match(name)
        names.append(match.group("case") if match else name)
    matrix = regions.dsc_matrix(masks)
    rows = [[names[i]] + [repr(float(v)) for v in matrix[i]] for i in range(len(names))]
    corpus.write_csv(args.out, [""] + names, rows)
    print(f"matrix: wrote {len(names)}x{len(names)} matrix to {args.out}")
    return 0


def _ensemble_one(
    case_id: str, members: corpus.CaseChannels, out_dir: Path, threshold: float
) -> None:
    # A function of its own, so one case's channels are freed before the next loads.
    preds = corpus.load_prediction_set(case_id, members)
    label = ensemble_label(preds, threshold)
    out_dir.mkdir(parents=True, exist_ok=True)
    write_volume(label.grid, out_dir / f"{case_id}.nii.gz")
    corpus.write_json(
        out_dir / f"{case_id}_ensemble.json",
        {
            "case_id": case_id,
            "model_ids": list(preds.model_ids),
            "binarize_threshold": threshold,
            "organ_names": list(organ_names(label.organs)),
        },
    )


def cmd_ensemble(args: argparse.Namespace) -> int:
    index = corpus.discover_cases([str(d) for d in args.preds])
    for case_id in index.case_ids:
        _ensemble_one(case_id, index.members[case_id], Path(args.out), args.bin_thresh)
    print(f"ensemble: wrote {len(index.case_ids)} label volumes to {args.out}")
    return 0


def cmd_campaign(args: argparse.Namespace) -> int:
    if args.action == "init":
        state_path = Path(args.state)
        if state_path.exists() and not args.force:
            raise ValueError(f"campaign init: {state_path} exists (use --force to overwrite)")
        sizes = corpus.read_sizes(args.attention)
        entries = _case_entries(sizes)
        state = camp.CampaignState(cases=entries, loop_index=0, config=sizes[0]["config"])
        camp.save_state(state, state_path)
        print(f"campaign: initialized {state_path} with {len(entries)} cases")
        return 0

    if args.action == "mark":
        camp.update_state(
            args.state, lambda state: camp.mark_case(state, args.case, args.status, tuple(args.tag))
        )
        print(f"campaign: {args.case} -> {args.status}")
        return 0

    state = camp.load_state(args.state)
    if args.action == "status":
        counts = {status: 0 for status in camp.STATUSES}
        for entry in state.cases:
            counts[entry.status] += 1
        print(f"loop_index: {state.loop_index}")
        for status in camp.STATUSES:
            print(f"{status}: {counts[status]}")
        for rank, entry in enumerate(state.ranking, start=1):
            print(f"{rank}\t{entry.case_id}\t{entry.total_mm3:g}\t{entry.status}")
        return 0
    done = camp.stopping_check(state)  # stop-check: the parser admits no other action
    print("true" if done else "false")
    return 0


def cmd_simulate(args: argparse.Namespace) -> int:
    _require_out_dir(args.out)
    cfg = _detection_config(args)
    index = corpus.discover_cases([str(d) for d in args.preds])
    truth_files = corpus.find_label_volumes(args.truth)
    missing = [cid for cid in index.case_ids if cid not in truth_files]
    if missing:
        raise corpus.CorpusError(f"missing truth labels for cases: {missing[:5]}")

    policy = camp.LoopPolicy(size_threshold_mm3=args.threshold_mm3, max_loops=args.loops)
    reports = camp.run_loop(
        index.case_ids,
        lambda cid: corpus.load_prediction_set(cid, index.members[cid]),
        lambda cid: corpus.load_label_volume(truth_files[cid], index.organ_count),
        cfg,
        policy,
    )
    corpus.write_json(
        args.out,
        {
            "config": asdict(cfg),
            "policy": asdict(policy),
            "loops": [asdict(r) for r in reports],
        },
    )
    for report in reports:
        print(
            f"loop {report.loop_index}: attention {report.total_attention_mm3:g} mm3, "
            f"revised {report.revised_count}, residual {report.residual_error_mm3:g} mm3"
            + (" (stopped)" if report.stopped else "")
        )
    print(f"simulate: wrote {args.out}")
    return 0


def cmd_estimate(args: argparse.Namespace) -> int:
    est = camp.estimate_workload(args.revised, args.total, args.minutes, args.hours)
    print(f"cases needing revision: {est.cases_needing_revision}")
    print(f"total cases: {est.total_cases}")
    print(f"minutes per case: {est.minutes_per_case:g}")
    print(f"hours per day: {est.hours_per_day:g}")
    print(f"estimated days: {est.estimated_days:g}")
    print(f"human fraction: {est.human_fraction:.1%}")
    return 0


def cmd_fpscan(args: argparse.Namespace) -> int:
    _require_out_dir(args.out)
    label_files = corpus.find_label_volumes(args.preds)
    masks = ((cid, _load_mask(label_files[cid], args.organ)) for cid in sorted(label_files))
    scan = regions.false_positive_scan(masks, connectivity=args.connectivity)
    payload = {
        "organ": args.organ,
        "connectivity": args.connectivity,
        "total_cases": scan.total_cases,
        "flagged_cases": scan.flagged_case_count,
        "fpr": scan.fpr,
        "total_components": scan.total_component_count,
        "per_case": {c.case_id: c.component_count for c in scan.per_case},
    }
    corpus.write_json(args.out, payload)
    print(
        f"fpscan: {scan.flagged_case_count} of {scan.total_cases} cases flagged "
        f"(FPR {scan.fpr:.2%}), {scan.total_component_count} components"
    )
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process.

    It holds no command function: ``main`` looks ``cmd_<command>`` up in this
    module when it dispatches, so a function replaced after the first call
    is the one that runs.
    """
    parser = _Parser(prog=PROG, description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("detect", help="build attention maps for a corpus")
    p.add_argument("--preds", nargs="+", required=True,
                   help="one directory per model with <case>_organ<code>.nii[.gz] channels")
    p.add_argument("--out", required=True, help="output directory")
    _add_detect_flags(p)
    p.add_argument("--jobs", type=int, default=1, help="parallel workers (wall time only)")

    p = sub.add_parser("rank", help="rank cases by attention size")
    p.add_argument("--attention", required=True, help="directory written by detect")
    p.add_argument("--out", required=True, help="ranking CSV path")
    p.add_argument("--curve", help="optional size-vs-rank curve CSV")

    p = sub.add_parser("select", help="pick cases above a size threshold")
    p.add_argument("--ranking", required=True, help="CSV written by rank")
    p.add_argument("--threshold-mm3", type=float, required=True)
    p.add_argument("--knee", action="store_true", help="print advisory knee cutoff")
    p.add_argument("--out", help="optional CSV of the selected cases")

    p = sub.add_parser("evaluate", help="score attention maps against ground truth")
    p.add_argument("--attention", required=True)
    p.add_argument("--pseudo", required=True, help="directory of pseudo label volumes")
    p.add_argument("--truth", required=True, help="directory of ground-truth label volumes")
    p.add_argument("--out", required=True, help="metrics JSON path (CSV written alongside)")
    p.add_argument("--connectivity", type=int, default=26, choices=(6, 18, 26))

    p = sub.add_parser("dsc", help="Dice similarity of two volumes")
    p.add_argument("--a", required=True)
    p.add_argument("--b", required=True)
    p.add_argument("--organ", type=int, help="compare this organ code instead of any-foreground")

    p = sub.add_parser("matrix", help="pairwise Dice matrix for one organ")
    p.add_argument("--inputs", nargs="+", required=True, help="label volumes to compare")
    p.add_argument("--organ", type=int, required=True)
    p.add_argument("--out", required=True, help="matrix CSV path")

    p = sub.add_parser("ensemble", help="average model predictions into final labels")
    p.add_argument("--preds", nargs="+", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--bin-thresh", type=float, default=0.5)

    state = argparse.ArgumentParser(add_help=False)
    state.add_argument("--state", required=True, help="campaign state JSON")
    actions = sub.add_parser("campaign", help="track an annotation campaign").add_subparsers(
        dest="action", required=True)
    p = actions.add_parser("init", parents=[state], help="start a campaign from detect's sizes")
    p.add_argument("--attention", required=True, help="directory written by detect")
    p.add_argument("--force", action="store_true", help="overwrite an existing state")
    p = actions.add_parser("mark", parents=[state], help="record a case's revision")
    p.add_argument("--case", required=True, help="case id")
    p.add_argument("--status", required=True, choices=("revised", "confirmed"))
    p.add_argument("--tag", action="append", default=[], help="free-text error tag")
    actions.add_parser("status", parents=[state], help="print counts and the ranking")
    actions.add_parser("stop-check", parents=[state], help="print whether to stop revising")

    p = sub.add_parser("simulate", help="run the loop with a simulated annotator")
    p.add_argument("--preds", nargs="+", required=True, help="loop-0 model directories")
    p.add_argument("--truth", required=True, help="ground-truth label directory")
    p.add_argument("--loops", type=int, default=2, help="loop budget")
    p.add_argument("--threshold-mm3", type=float, default=0.0)
    p.add_argument("--out", required=True, help="report JSON path")
    _add_detect_flags(p)

    p = sub.add_parser("estimate", help="workload arithmetic for a revision count")
    p.add_argument("--revised", type=int, required=True)
    p.add_argument("--total", type=int, required=True)
    p.add_argument("--minutes", type=float, default=15.0)
    p.add_argument("--hours", type=float, default=8.0)

    p = sub.add_parser("fpscan", help="false positives on known-negative volumes")
    p.add_argument("--preds", required=True, help="directory of predicted label volumes")
    p.add_argument("--organ", type=int, required=True)
    p.add_argument("--out", required=True, help="report JSON path")
    p.add_argument("--connectivity", type=int, default=26, choices=(6, 18, 26))

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    # parse_args would report a flag the sub-command does not know through the
    # root parser, whose usage line names no sub-command. The root parser takes
    # no flag but -h, so every word before the sub-command's name is a stray
    # flag of its own.
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = build_parser()
    args, stray = parser.parse_known_args(argv)
    if stray:
        early = argv[:argv.index(args.command)]
        (parser if early else args.parser).error(
            f"unrecognized arguments: {' '.join(early or stray)}")
    try:
        return globals()[f"cmd_{args.command}"](args)
    except ValueError as exc:
        print(f"{PROG}: error: {exc}", file=sys.stderr)
        return 1
    except KeyError as exc:
        print(f"{PROG}: error: input file is missing field {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"{PROG}: i/o error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
