"""Voxel-grid data model and the elementwise primitives shared by every module.

All per-voxel quantities (CT intensities, soft probabilities, discrete labels,
binary masks) ride on :class:`VolumeGrid`. Grids are treated as immutable and
operations are pure, so many cases can be processed concurrently without
locking. There is deliberately no resampling: all inputs for one case must
already live on the same voxel lattice, and mismatches are hard errors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

SUPPORTED_DTYPES = (np.dtype(np.uint8), np.dtype(np.int16), np.dtype(np.float32))

# Nine target structures, codes 1..9 in the fixed reporting order.
DEFAULT_ORGANS = (
    (1, "Spl"),
    (2, "RKid"),
    (3, "LKid"),
    (4, "Gall"),
    (5, "Liv"),
    (6, "Sto"),
    (7, "Aor"),
    (8, "IVC"),
    (9, "Pan"),
)


class AlignmentError(ValueError):
    """Two volumes that must share a voxel lattice do not."""


class ProbabilityRangeError(ValueError):
    """A soft channel holds a value outside [0, 1], or NaN; ``code`` names the organ."""

    def __init__(self, model_id: str, code: int, lo: float, hi: float):
        super().__init__(
            f"model {model_id!r}, organ {code}: probabilities must be finite and in "
            f"[0, 1], got range {lo}..{hi}"
        )
        self.code = code


def _read_only(arr: np.ndarray) -> np.ndarray:
    view = arr.view()
    view.flags.writeable = False
    return view


@dataclass(frozen=True, eq=False, repr=False)
class VolumeGrid:
    """A dense 3D scalar field with voxel spacing and an index-to-mm affine.

    ``values`` is indexed ``[x, y, z]``; the flattened x-fastest order matches
    the on-disk order of the volume file format, so I/O never permutes data.
    Spacing is quantized to float32 (the precision the file format stores).
    The affine must be finite; ``with_values`` shares it with the new grid.
    Element kind is one of uint8, int16, float32.
    """

    values: np.ndarray
    spacing: tuple[float, float, float] = (1.0, 1.0, 1.0)
    affine: np.ndarray | None = None

    def __post_init__(self) -> None:
        v = np.asarray(self.values)
        if v.ndim != 3:
            raise ValueError(f"expected a 3D value array, got shape {v.shape}")
        if v.dtype not in SUPPORTED_DTYPES:
            raise TypeError(
                f"unsupported element kind {v.dtype}; expected uint8, int16 or float32"
            )
        object.__setattr__(self, "values", _read_only(v))

        sp = tuple(float(np.float32(s)) for s in self.spacing)
        if len(sp) != 3 or any(not math.isfinite(s) or s <= 0.0 for s in sp):
            raise ValueError(f"spacing must be three positive reals, got {self.spacing!r}")
        object.__setattr__(self, "spacing", sp)

        aff = self.affine
        if aff is None:
            aff = _read_only(np.diag((*sp, 1.0)))
        else:
            # The form a grid stores its affine in is kept as it is, so grids
            # made from one another share it and grids_aligned can stop at `is`.
            if not (
                isinstance(aff, np.ndarray)
                and aff.dtype == np.float64
                and aff.shape == (4, 4)
                and not aff.flags.writeable
            ):
                aff = np.asarray(aff, dtype=np.float64)
                if aff.shape != (4, 4):
                    raise ValueError(f"affine must be 4x4, got shape {aff.shape}")
                aff = _read_only(aff)
            if not np.isfinite(aff).all():
                raise ValueError(f"affine must be finite, got {aff.tolist()}")
        object.__setattr__(self, "affine", aff)

    @property
    def dims(self) -> tuple[int, int, int]:
        return self.values.shape  # type: ignore[return-value]

    @property
    def voxel_volume_mm3(self) -> float:
        sx, sy, sz = self.spacing
        return sx * sy * sz

    def with_values(self, values: np.ndarray) -> "VolumeGrid":
        """New grid with the same geometry but different values."""
        return VolumeGrid(values, self.spacing, self.affine)

    def __repr__(self) -> str:
        return f"VolumeGrid(dims={self.dims}, spacing={self.spacing}, kind={self.values.dtype})"


def grids_aligned(a: VolumeGrid, b: VolumeGrid) -> bool:
    """Same dims, same spacing, and affines equal within ``np.allclose(atol=1e-5)``.

    Affines are finite, so a shared or bit-identical pair is always close and
    only a pair that differs pays for ``np.allclose``.
    """
    if a.dims != b.dims or a.spacing != b.spacing:
        return False
    fa, fb = a.affine, b.affine
    return fa is fb or fa.tobytes() == fb.tobytes() or np.allclose(fa, fb, atol=1e-5)


def require_aligned(*grids: VolumeGrid, context: str = "volumes") -> None:
    """Raise AlignmentError unless all grids share dims, spacing and orientation."""
    first = grids[0]
    for g in grids[1:]:
        if not grids_aligned(first, g):
            raise AlignmentError(
                f"{context} are not grid-aligned: "
                f"{first.dims}/{first.spacing} vs {g.dims}/{g.spacing}"
            )


@dataclass(frozen=True)
class OrganLabelMap:
    """Ordered (code, name) pairs for the target structures; background is 0."""

    entries: tuple[tuple[int, str], ...]

    def __post_init__(self) -> None:
        codes = [code for code, _ in self.entries]
        if codes != list(range(1, len(codes) + 1)):
            raise ValueError(f"organ codes must be contiguous from 1, got {codes}")
        names = [name for _, name in self.entries]
        if len(set(names)) != len(names) or any(not n for n in names):
            raise ValueError("organ names must be unique and non-empty")

    @classmethod
    def default(cls) -> "OrganLabelMap":
        return cls(DEFAULT_ORGANS)

    @classmethod
    def generic(cls, n: int) -> "OrganLabelMap":
        """Placeholder names organ1..organN for corpora without the standard set."""
        if n < 1:
            raise ValueError("need at least one organ")
        return cls(tuple((i, f"organ{i}") for i in range(1, n + 1)))

    @classmethod
    def for_channel_count(cls, n: int) -> "OrganLabelMap":
        return cls.default() if n == len(DEFAULT_ORGANS) else cls.generic(n)

    @property
    def codes(self) -> tuple[int, ...]:
        return tuple(code for code, _ in self.entries)

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(name for _, name in self.entries)

    def name_of(self, code: int) -> str:
        return self.entries[code - 1][1]

    def __len__(self) -> int:
        return len(self.entries)


@dataclass(frozen=True, eq=False)
class LabelVolume:
    """Discrete per-voxel organ codes on a grid; 0 is background."""

    grid: VolumeGrid
    labels: OrganLabelMap

    def __post_init__(self) -> None:
        v = self.grid.values
        if v.dtype not in (np.dtype(np.uint8), np.dtype(np.int16)):
            raise TypeError(f"label volumes must be integer-kind, got {v.dtype}")
        if v.size and (int(v.min()) < 0 or int(v.max()) > len(self.labels)):
            raise ValueError(
                f"label values must lie in 0..{len(self.labels)}, "
                f"found range {int(v.min())}..{int(v.max())}"
            )

    def organ_mask(self, code: int) -> VolumeGrid:
        return self.grid.with_values((self.grid.values == code).astype(np.uint8))


@dataclass(frozen=True, eq=False)
class SoftPrediction:
    """One model's per-organ probability channels for a single case."""

    model_id: str
    channels: tuple[VolumeGrid, ...]

    def __post_init__(self) -> None:
        if not self.channels:
            raise ValueError("a soft prediction needs at least one organ channel")
        object.__setattr__(self, "channels", tuple(self.channels))
        for code, ch in enumerate(self.channels, start=1):
            if ch.values.dtype != np.dtype(np.float32):
                raise TypeError(f"soft channels must be float32, got {ch.values.dtype}")
            lo, hi = float(ch.values.min()), float(ch.values.max())
            if not (0.0 <= lo and hi <= 1.0):  # also false for NaN
                raise ProbabilityRangeError(self.model_id, code, lo, hi)
        require_aligned(*self.channels, context=f"channels of model {self.model_id!r}")

    @property
    def num_organs(self) -> int:
        return len(self.channels)


@dataclass(frozen=True, eq=False)
class PredictionSet:
    """K grid-aligned soft predictions (one per model) for a single case."""

    case_id: str
    members: tuple[SoftPrediction, ...]

    def __post_init__(self) -> None:
        if not self.members:
            raise ValueError(f"case {self.case_id!r}: need at least one member prediction")
        object.__setattr__(self, "members", tuple(self.members))
        counts = {m.num_organs for m in self.members}
        if len(counts) != 1:
            raise AlignmentError(
                f"case {self.case_id!r}: members disagree on channel count {sorted(counts)}"
            )
        require_aligned(
            *(m.channels[0] for m in self.members),
            context=f"members of case {self.case_id!r}",
        )

    @property
    def num_members(self) -> int:
        return len(self.members)

    @property
    def num_organs(self) -> int:
        return self.members[0].num_organs

    @property
    def reference_grid(self) -> VolumeGrid:
        return self.members[0].channels[0]


def _require_binary(mask: VolumeGrid, op: str) -> np.ndarray:
    v = mask.values
    if v.dtype == np.dtype(np.float32):
        raise ValueError(f"{op}: mask must be integer-kind binary, got float32")
    if v.size and (int(v.min()) < 0 or int(v.max()) > 1):
        raise ValueError(f"{op}: mask is not binary (values {int(v.min())}..{int(v.max())})")
    return v


def _check_threshold(threshold: float) -> float:
    t = float(threshold)
    if not 0.0 < t < 1.0:
        raise ValueError(f"threshold must be in (0, 1), got {threshold}")
    return t


def labels_from_soft(
    channels: Sequence[VolumeGrid],
    threshold: float = 0.5,
    labels: OrganLabelMap | None = None,
) -> LabelVolume:
    """Discrete labels from per-organ probabilities.

    Per voxel the label is the argmax channel's code if that maximum reaches
    the threshold, else background. Ties break toward the lowest code so the
    result is deterministic and independent of evaluation order.
    """
    if not channels:
        raise ValueError("labels_from_soft: need at least one channel")
    if len(channels) > 255:
        raise ValueError("labels_from_soft: at most 255 organ channels supported")
    t = _check_threshold(threshold)
    require_aligned(*channels, context="soft channels")
    # A running argmax; strict ">" keeps the lowest code on ties, and no
    # channel stack is built.
    peak = np.array(channels[0].values, dtype=np.result_type(*(ch.values for ch in channels)))
    best = np.ones(peak.shape, dtype=np.uint8)
    for code, ch in enumerate(channels[1:], start=2):
        best[ch.values > peak] = code
        np.maximum(peak, ch.values, out=peak)
    codes = np.where(peak >= t, best, np.uint8(0))
    if labels is None:
        labels = OrganLabelMap.for_channel_count(len(channels))
    return LabelVolume(channels[0].with_values(codes), labels)


def physical_volume(mask: VolumeGrid) -> float:
    """Physical volume in mm^3 of the set voxels of a binary mask."""
    v = _require_binary(mask, "physical_volume")
    return float(np.count_nonzero(v)) * mask.voxel_volume_mm3


def soft_from_labels(label: LabelVolume) -> tuple[VolumeGrid, ...]:
    """Hard 0/1 probability channels from a label volume (one per organ code)."""
    return tuple(
        label.grid.with_values((label.grid.values == code).astype(np.float32))
        for code in label.labels.codes
    )


def support_box(arrays: Sequence[np.ndarray]) -> tuple[slice, ...]:
    """Smallest box holding every voxel where any of the arrays is ``!= 0``.

    -0.0 counts as zero. When no voxel is nonzero the box is empty (every
    slice has length 0), so slicing with it still works.
    """
    nonzero = arrays[0] != 0
    for a in arrays[1:]:
        nonzero |= a != 0
    # The mask's projection onto each axis. Reducing over x first keeps both
    # whole-volume passes contiguous; ndimage.find_objects is ~7x slower here.
    yz = nonzero.any(axis=0)
    box = []
    for hits in (nonzero.any(axis=(1, 2)), yz.any(axis=1), yz.any(axis=0)):
        idx = np.flatnonzero(hits)
        if not idx.size:
            return (slice(0, 0),) * 3
        box.append(slice(int(idx[0]), int(idx[-1]) + 1))
    return tuple(box)


def _order_key(bits: np.ndarray) -> np.ndarray:
    """Map float bit patterns (viewed as signed ints) to keys that order like the values.

    Flipping the magnitude bits of negative numbers makes integer order equal
    float order, with -0.0 just below +0.0. The map is its own inverse.
    """
    return bits ^ ((bits >> (8 * bits.itemsize - 1)) & np.iinfo(bits.dtype).max)


def _sorted_members(arrays: Sequence[np.ndarray]) -> list[np.ndarray]:
    """The member arrays as float64, sorted elementwise in ascending order.

    An odd-even transposition network: K rounds of compare-exchange between
    neighbouring members, each an ``np.minimum``/``np.maximum`` pair over whole
    arrays. After round K every voxel's K values are in ascending order, as a
    sort along the member axis would leave them, without stacking the members
    or sorting per voxel. The exchange runs on integer keys (:func:`_order_key`)
    because min/max of -0.0 and +0.0 may return the same zero twice; on keys
    each exchange is an exact permutation. float32 members are sorted as
    float32, which is exact and moves half the bytes.
    """
    narrow = all(np.asarray(a).dtype == np.float32 for a in arrays)
    floats, ints = (np.float32, np.int32) if narrow else (np.float64, np.int64)
    s = [_order_key(np.asarray(a, dtype=floats).view(ints)) for a in arrays]
    for r in range(len(s)):
        for i in range(r % 2, len(s) - 1, 2):
            s[i], s[i + 1] = np.minimum(s[i], s[i + 1]), np.maximum(s[i], s[i + 1])
    return [np.asarray(_order_key(k).view(floats), dtype=np.float64) for k in s]


def stable_mean(arrays: Sequence[np.ndarray]) -> np.ndarray:
    """Elementwise mean, accumulated in value-sorted order.

    The members are sorted per voxel by a compare-exchange network before
    summation. Floating-point addition is not associative, but a fixed
    summation order (ascending value) makes the result independent of the
    order in which the member arrays are supplied: reductions stay bit-exact
    under permutation of the members.
    """
    s = _sorted_members(arrays)
    return sum(s[1:], s[0]) / len(s)


def stable_mean_std(arrays: Sequence[np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """Elementwise mean and population standard deviation, order-stable.

    Both sums run in the value-sorted order of :func:`stable_mean`, so they are
    bit-exact under permutation of the members. Uses the 1/K normalization,
    so for probabilities the result is bounded by 0.5 and thresholds on it are
    interpretable on a fixed scale.
    """
    s = _sorted_members(arrays)
    k = len(s)
    mean = sum(s[1:], s[0]) / k
    var = np.zeros_like(mean)
    dev = np.empty_like(mean)
    for x in s:
        np.subtract(x, mean, out=dev)
        np.multiply(dev, dev, out=dev)
        var += dev
    var /= k
    return mean, np.sqrt(var, out=var)
