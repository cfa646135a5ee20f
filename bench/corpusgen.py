"""Seeded synthetic corpora for the benchmark workloads.

Every file is written through ``segqa.nifti.write_volume``, so the program
under test sees only generated inputs in its own on-disk format. The same seed gives byte-identical files.

A volumetric corpus has three model directories (``model0..2``) of per-organ
float32 probability channels and a ``truth`` directory of uint8 label maps.
Organs are soft-edged ellipsoids laid out on a 3 x 3 grid, so they fill a
small share of the volume. Each model jitters the organ boundaries, and each
case carries exactly one injected miss, one hallucination and one overlap, so
the amount of work per case does not depend on the seed.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from segqa.nifti import write_volume
from segqa.volume import DEFAULT_ORGANS, VolumeGrid

MODELS = 3
ORGAN_NAMES = tuple(name for _, name in DEFAULT_ORGANS)
SPACING = (0.8, 0.8, 2.5)


@dataclass(frozen=True)
class VolumeSpec:
    cases: int
    dims: tuple[int, int, int]


def _soft_ellipsoid(
    dims: tuple[int, int, int],
    center: np.ndarray,
    radii: np.ndarray,
    edge: float = 0.12,
) -> np.ndarray:
    """Probability 1 inside the ellipsoid, a logistic rim, exactly 0 beyond it."""
    out = np.zeros(dims, dtype=np.float32)
    reach = radii * (1.0 + 4.0 * edge)
    lo = np.maximum(np.floor(center - reach).astype(int), 0)
    hi = np.minimum(np.ceil(center + reach).astype(int) + 1, dims)
    if np.any(hi <= lo):
        return out
    axes = np.ogrid[lo[0]:hi[0], lo[1]:hi[1], lo[2]:hi[2]]
    d2 = sum(((ax - c) / r) ** 2 for ax, c, r in zip(axes, center, radii))
    p = 1.0 / (1.0 + np.exp((np.sqrt(d2) - 1.0) / edge))
    p[p < 0.01] = 0.0
    out[lo[0]:hi[0], lo[1]:hi[1], lo[2]:hi[2]] = p
    return out


def _organ_layout(rng: np.random.Generator, dims: tuple[int, int, int]):
    """Centers and radii (in voxels) of the nine organs on a 3 x 3 grid."""
    d = np.asarray(dims, dtype=np.float64)
    cell = d[:2] / 3.0
    centers, radii = [], []
    for i in range(len(ORGAN_NAMES)):
        gx, gy = i % 3, i // 3
        cx = (gx + 0.5) * cell[0] + rng.uniform(-0.08, 0.08) * cell[0]
        cy = (gy + 0.5) * cell[1] + rng.uniform(-0.08, 0.08) * cell[1]
        cz = d[2] / 2.0 + rng.uniform(-0.05, 0.05) * d[2]
        centers.append(np.array([cx, cy, cz]))
        radii.append(
            np.array([
                cell[0] * rng.uniform(0.22, 0.28),
                cell[1] * rng.uniform(0.22, 0.28),
                d[2] * rng.uniform(0.16, 0.22),
            ])
        )
    return centers, radii


def _labels(channels: list[np.ndarray]) -> np.ndarray:
    stack = np.stack(channels)
    best = np.argmax(stack, axis=0).astype(np.uint8) + 1
    return np.where(stack.max(axis=0) >= 0.5, best, np.uint8(0)).astype(np.uint8)


def make_case(rng: np.random.Generator, dims: tuple[int, int, int]):
    """Truth label map and MODELS lists of organ channels for one case."""
    centers, radii = _organ_layout(rng, dims)
    organs = len(ORGAN_NAMES)
    truth = _labels([_soft_ellipsoid(dims, c, r) for c, r in zip(centers, radii)])

    missed, hallucinated, overlapped = (int(o) for o in rng.permutation(organs)[:3])
    miss_model, hall_model, over_model = (int(m) for m in rng.integers(0, MODELS, 3))
    models = []
    for k in range(MODELS):
        channels = []
        for o in range(organs):
            c = centers[o] + rng.uniform(-1.0, 1.0, 3) * np.array([1.0, 1.0, 0.5])
            r = radii[o] * rng.uniform(0.95, 1.05, 3)
            if k == over_model and o == overlapped:
                r = r * 1.6  # bleeds into the neighbouring organs
            ch = _soft_ellipsoid(dims, c, r)
            if k == miss_model and o == missed:
                lo = np.floor(centers[o]).astype(int)
                ch[lo[0]:, lo[1]:, :] = 0.0  # one quadrant of the organ is missed
            if k == hall_model and o == hallucinated:
                spot = np.array([rng.uniform(0.05, 0.95) * dims[0],
                                 rng.uniform(0.05, 0.95) * dims[1],
                                 dims[2] * 0.5])
                ch = np.maximum(ch, _soft_ellipsoid(dims, spot, radii[o] * 0.35))
            channels.append(ch)
        models.append(channels)
    return truth, models


def write_volume_corpus(root: Path, seed: int, spec: VolumeSpec) -> None:
    """model0..2/<case>_organ<code>.nii.gz channels and truth/<case>.nii.gz labels."""
    rng = np.random.default_rng(seed)
    model_dirs = [root / f"model{k}" for k in range(MODELS)]
    truth_dir = root / "truth"
    for d in (*model_dirs, truth_dir):
        d.mkdir(parents=True, exist_ok=True)
    for i in range(spec.cases):
        case_id = f"case{i:04d}"
        truth, models = make_case(rng, spec.dims)
        write_volume(VolumeGrid(truth, SPACING), truth_dir / f"{case_id}.nii.gz")
        for model_dir, channels in zip(model_dirs, models):
            for code, ch in enumerate(channels, start=1):
                write_volume(
                    VolumeGrid(ch, SPACING), model_dir / f"{case_id}_organ{code}.nii.gz"
                )

