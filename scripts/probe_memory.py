#!/usr/bin/env python3
"""Measure each command's wall time and peak RSS on one case at paper geometry.

Writes one case with the benchmark generator's organ layout and injected
errors (``bench/corpusgen.py``): three models, nine organs and a truth label
map. The case is streamed one channel at a time, because holding all 27
channels at 512 x 512 x 380 takes 10.8 GB; inputs are gzipped at level 1 to
keep generation short. The voxels equal ``corpusgen.make_case``'s for the
same seed (``tests/test_scripts.py`` checks this at 48 x 40 x 24). Then ``detect``, ``ensemble``, ``evaluate`` and ``simulate`` each
run in a fresh process, and one JSON line per command gives its wall time
and ``ru_maxrss``.

Usage (from the root of a segqa checkout):
    python3 scripts/probe_memory.py                  # 512 x 512 x 380, a few minutes
    python3 scripts/probe_memory.py --dims 256 256 96   # seconds
"""

from __future__ import annotations

import argparse
import gzip
import json
import multiprocessing
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

CASE = "case0000"
SEED = 0
CLI = "import sys; from segqa.cli import main; sys.exit(main(sys.argv[1:]))"


def write_level1(values, path: Path) -> None:
    """A gzipped NIfTI-1 file as ``write_volume`` frames it, one z slice at a time."""
    from corpusgen import SPACING
    from segqa.nifti import header_bytes
    from segqa.volume import VolumeGrid

    path.parent.mkdir(parents=True, exist_ok=True)
    with gzip.GzipFile(path, "wb", compresslevel=1, mtime=0) as gz:
        gz.write(header_bytes(VolumeGrid(values, SPACING)) + b"\x00\x00\x00\x00")
        for z in range(values.shape[2]):
            gz.write(values[:, :, z].tobytes(order="F"))


def write_case(root: Path, dims: tuple[int, int, int]) -> None:
    """corpusgen.make_case's case for SEED, drawn in its order, one channel at a time."""
    # Imported here, in the generating process only: the probe's own process
    # stays small, and a child's ru_maxrss counts the RSS of its parent.
    import numpy as np
    from corpusgen import MODELS, ORGAN_NAMES, _organ_layout, _soft_ellipsoid

    rng = np.random.default_rng(SEED)
    centers, radii = _organ_layout(rng, dims)
    organs = len(ORGAN_NAMES)

    # The truth is the argmax over the organs' channels where its value is
    # >= 0.5; a running max keeps the first organ on ties, as argmax does.
    top = np.zeros(dims, dtype=np.float32)
    best = np.zeros(dims, dtype=np.uint8)
    for o in range(organs):
        ch = _soft_ellipsoid(dims, centers[o], radii[o])
        best[ch > top] = o + 1
        np.maximum(top, ch, out=top)
    write_level1(np.where(top >= 0.5, best, np.uint8(0)), root / "truth" / f"{CASE}.nii.gz")
    del top, best

    missed, hallucinated, overlapped = (int(o) for o in rng.permutation(organs)[:3])
    miss_model, hall_model, over_model = (int(m) for m in rng.integers(0, MODELS, 3))
    for k in range(MODELS):
        for o in range(organs):
            c = centers[o] + rng.uniform(-1.0, 1.0, 3) * np.array([1.0, 1.0, 0.5])
            r = radii[o] * rng.uniform(0.95, 1.05, 3)
            if k == over_model and o == overlapped:
                r = r * 1.6
            ch = _soft_ellipsoid(dims, c, r)
            if k == miss_model and o == missed:
                lo = np.floor(centers[o]).astype(int)
                ch[lo[0]:, lo[1]:, :] = 0.0
            if k == hall_model and o == hallucinated:
                spot = np.array([rng.uniform(0.05, 0.95) * dims[0],
                                 rng.uniform(0.05, 0.95) * dims[1],
                                 dims[2] * 0.5])
                ch = np.maximum(ch, _soft_ellipsoid(dims, spot, radii[o] * 0.35))
            write_level1(ch, root / f"model{k}" / f"{CASE}_organ{o + 1}.nii.gz")


def run_command(argv: list[str]) -> dict[str, object]:
    """Run one segqa command in a fresh process: its exit code, wall time and peak RSS."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, "-c", CLI, *argv], env=env,
                            stdout=subprocess.DEVNULL)
    _, status, usage = os.wait4(proc.pid, 0)  # the rusage of this child alone
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {
        "command": argv[0],
        "exit": proc.returncode,
        "wall_s": round(time.perf_counter() - start, 2),
        "ru_maxrss_mb": round(usage.ru_maxrss / 1024, 1),  # Linux reports KiB
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--dims", type=int, nargs=3, default=[512, 512, 380],
                        metavar=("X", "Y", "Z"))
    args = parser.parse_args()
    dims = tuple(args.dims)

    with tempfile.TemporaryDirectory(prefix="segqa-probe-") as tmp:
        root = Path(tmp)
        start = time.perf_counter()
        gen = multiprocessing.get_context("spawn").Process(target=write_case, args=(root, dims))
        gen.start()
        gen.join()
        if gen.exitcode != 0:
            print(f"probe: generating the case failed (exit {gen.exitcode})", file=sys.stderr)
            return 1
        print(f"probe: wrote one {dims} case in {time.perf_counter() - start:.1f} s",
              file=sys.stderr)

        models = sorted(str(d) for d in root.glob("model*"))
        commands = [
            ["detect", "--preds", *models, "--out", str(root / "attention")],
            ["ensemble", "--preds", *models, "--out", str(root / "pseudo")],
            ["evaluate", "--attention", str(root / "attention"), "--pseudo",
             str(root / "pseudo"), "--truth", str(root / "truth"),
             "--out", str(root / "metrics.json")],
            ["simulate", "--preds", *models, "--truth", str(root / "truth"), "--loops", "2",
             "--out", str(root / "report.json")],
        ]
        failed = 0
        for argv in commands:
            result = run_command(argv)
            print(json.dumps({**result, "dims": list(dims)}), flush=True)
            failed += result["exit"] != 0
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
