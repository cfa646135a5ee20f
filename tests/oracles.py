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
component-wise metrics as the library computed them before it labeled the
transposed mask and cropped evaluation to the foreground: ids ordered by a
per-component minimum over a whole-volume linear index, then boxes and
centroids for every component.
"""

from __future__ import annotations

from collections import deque

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


def first_voxel_components(mask: np.ndarray, connectivity: int, voxel_volume_mm3: float = 1.0):
    """Components and int32 labels, ids sorted by each first voxel's x-fastest index."""
    from segqa.regions import Component

    rank = {6: 1, 18: 2, 26: 3}[connectivity]
    v = np.asarray(mask) != 0
    raw, n = ndimage.label(v, structure=ndimage.generate_binary_structure(3, rank))
    if n == 0:
        return [], raw.astype(np.int32)

    ids = np.arange(1, n + 1)
    linear = np.arange(v.size, dtype=np.int64).reshape(v.shape, order="F")
    first = np.asarray(ndimage.minimum(linear, labels=raw, index=ids))
    order = np.argsort(first, kind="stable")
    lut = np.zeros(n + 1, dtype=np.int32)
    lut[ids[order]] = np.arange(1, n + 1, dtype=np.int32)
    labels = lut[raw]

    counts = np.bincount(labels.ravel(), minlength=n + 1)[1:]
    slices = ndimage.find_objects(labels)
    centroids = ndimage.center_of_mass(v, labels=labels, index=ids)
    components = []
    for i in range(n):
        sl = slices[i]
        components.append(
            Component(
                id=i + 1,
                voxel_count=int(counts[i]),
                size_mm3=float(counts[i]) * voxel_volume_mm3,
                bbox=(
                    (sl[0].start, sl[1].start, sl[2].start),
                    (sl[0].stop - 1, sl[1].stop - 1, sl[2].stop - 1),
                ),
                centroid=tuple(float(x) for x in centroids[i]),
            )
        )
    return components, labels


def first_voxel_componentwise(attention: np.ndarray, benchmark: np.ndarray, connectivity: int):
    """Sensitivity/precision from whole-volume first-voxel labelings of both masks."""
    att_components, att_labels = first_voxel_components(attention, connectivity)
    err_components, err_labels = first_voxel_components(benchmark, connectivity)
    att = attention != 0
    err = benchmark != 0

    tp = int(np.unique(err_labels[att & (err_labels > 0)]).size)
    fn = len(err_components) - tp
    fp = len(att_components) - int(np.unique(att_labels[err & (att_labels > 0)]).size)

    sensitivity = tp / (tp + fn) if (tp + fn) > 0 else None
    precision = (len(att_components) - fp) / len(att_components) if att_components else None
    return sensitivity, precision, tp, fp, fn
