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
from typing import Iterable, Sequence

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


class ChannelError(ValueError):
    """One member's soft channel of one organ breaks the rule for soft channels.

    The rule: float32, on the case's voxel lattice, finite and in [0, 1].
    ``member`` is the index of the model and ``code`` the organ.
    """

    def __init__(self, model_id: str, member: int, code: int, problem: str):
        super().__init__(f"model {model_id!r}, organ {code}: {problem}")
        self.member = member
        self.code = code


class ProbabilityRangeError(ChannelError):
    """A soft channel holds a value outside [0, 1], or NaN."""


class ChannelAlignmentError(ChannelError, AlignmentError):
    """A member's soft channel is not on its case's voxel lattice."""


def _read_only(arr: np.ndarray) -> np.ndarray:
    view = arr.view()
    view.flags.writeable = False
    return view


@dataclass(frozen=True, eq=False, repr=False)
class VolumeGrid:
    """A dense 3D scalar field with voxel spacing and an index-to-mm affine.

    ``values`` is indexed ``[x, y, z]``. The reader decodes it x-fastest (Fortran
    order), the on-disk order of the file format, and every volume the program
    builds is allocated in that order too, so I/O never permutes data and no
    voxel operation mixes memory orders.
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


def organ_names(n: int) -> tuple[str, ...]:
    """Names of organ codes 1..n: the nine DEFAULT_ORGANS when n is 9, else organ1..organN."""
    if n < 1:
        raise ValueError("need at least one organ")
    if n == len(DEFAULT_ORGANS):
        return tuple(name for _, name in DEFAULT_ORGANS)
    return tuple(f"organ{i}" for i in range(1, n + 1))


@dataclass(frozen=True, eq=False)
class LabelVolume:
    """Discrete per-voxel organ codes 1..organs on a grid; 0 is background."""

    grid: VolumeGrid
    organs: int

    def __post_init__(self) -> None:
        v = self.grid.values
        if v.dtype not in (np.dtype(np.uint8), np.dtype(np.int16)):
            raise TypeError(f"label volumes must be integer-kind, got {v.dtype}")
        if v.size and (int(v.min()) < 0 or int(v.max()) > self.organs):
            raise ValueError(
                f"label values must lie in 0..{self.organs}, "
                f"found range {int(v.min())}..{int(v.max())}"
            )


Box = tuple[slice, slice, slice]
EMPTY_BOX: Box = (slice(0, 0),) * 3  # holds no voxel; slicing with it still works


@dataclass(frozen=True, eq=False)
class SoftPrediction:
    """One organ's probabilities from every member model of a case, cropped to one box.

    ``box`` is the organ's support box (:func:`support_box`): every member is
    0 or -0.0 outside it. ``crops[k]`` holds member k's values inside the box.
    """

    box: Box
    crops: tuple[np.ndarray, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "crops", tuple(_read_only(c) for c in self.crops))


@dataclass(frozen=True, eq=False)
class PredictionSet:
    """K models' soft predictions for one case, as one SoftPrediction per organ.

    ``model_ids[k]`` names member k of every organ, and ``organs[c]`` is organ
    code c + 1. ``grid`` keeps only the case geometry: its values are one zero
    broadcast to the case dims. Every crop must be float32, finite and in
    [0, 1]; a breach raises :class:`ChannelError` naming the model and organ.
    The checks run on the crops, which is exact: every voxel outside a box is
    a zero, and a zero passes them.
    """

    case_id: str
    model_ids: tuple[str, ...]
    grid: VolumeGrid
    organs: tuple[SoftPrediction, ...]

    def __post_init__(self) -> None:
        model_ids = tuple(self.model_ids)
        object.__setattr__(self, "model_ids", model_ids)
        object.__setattr__(self, "organs", tuple(self.organs))
        if not model_ids:
            raise ValueError(f"case {self.case_id!r}: need at least one member prediction")
        if not self.organs:
            raise ValueError(f"case {self.case_id!r}: need at least one organ channel")
        dims = self.grid.dims
        object.__setattr__(self, "grid", self.grid.with_values(np.broadcast_to(np.uint8(0), dims)))
        for code, organ in enumerate(self.organs, start=1):
            if len(organ.crops) != len(model_ids):
                raise AlignmentError(f"case {self.case_id!r}, organ {code}: {len(organ.crops)} "
                                     f"member channels for {len(model_ids)} models")
            for k, crop in enumerate(organ.crops):
                if crop.dtype != np.dtype(np.float32):
                    raise ChannelError(model_ids[k], k, code,
                                       f"soft channels must be float32, got {crop.dtype}")
                lo, hi = (float(crop.min()), float(crop.max())) if crop.size else (0.0, 0.0)
                if crop.shape != dims:  # report the channel's range: the zeros around the box count
                    lo, hi = min(lo, 0.0), max(hi, 0.0)
                if not (0.0 <= lo and hi <= 1.0):  # also false for NaN
                    raise ProbabilityRangeError(
                        model_ids[k], k, code,
                        f"probabilities must be finite and in [0, 1], got range {lo}..{hi}")

    @classmethod
    def from_channels(
        cls,
        case_id: str,
        model_ids: Sequence[str],
        organs: Iterable[Sequence[VolumeGrid]],
    ) -> "PredictionSet":
        """Crop each organ's member channels to the organ's support box.

        ``organs`` yields, in code order, the members' dense channels of one
        organ. They are cropped and dropped before the next organ is drawn,
        so a generator that decodes them holds K dense channels at a time
        besides the crops. Where an organ's box is the whole volume, the
        crops are the channels themselves: a case with no exact zeros is held
        as all of its dense channels, and no smaller.
        """
        grid = None
        cropped = []
        # No enumerate(), and the channels are looped over in comprehensions
        # only: a loop's variables would keep dense channels alive while the
        # next organ is drawn.
        for channels in organs:
            if grid is None:
                grid = channels[0].with_values(np.broadcast_to(np.uint8(0), channels[0].dims))
            aligned = [grids_aligned(grid, ch) for _, ch in zip(model_ids, channels)]
            if not all(aligned):
                k = aligned.index(False)
                raise ChannelAlignmentError(
                    model_ids[k], k, len(cropped) + 1,
                    f"channel is not grid-aligned with the case's first channel: "
                    f"{grid.dims}/{grid.spacing} vs {channels[k].dims}/{channels[k].spacing}")
            box = support_box([ch.values for ch in channels])
            # A box short of the volume is copied so the dense channel can be
            # freed. A whole-volume box (channels with no exact zero, say) keeps
            # the decoded arrays themselves: a copy would only hold each channel twice.
            whole = all(s.stop - s.start == n for s, n in zip(box, grid.dims))
            crops = [ch.values[box] if whole else ch.values[box].copy(order="F") for ch in channels]
            cropped.append(SoftPrediction(box, crops))
            del channels, crops
        return cls(case_id, model_ids, grid, cropped)


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
    grid: VolumeGrid, channels: Sequence[tuple[Box, np.ndarray]], threshold: float = 0.5
) -> LabelVolume:
    """Discrete labels on ``grid`` from per-organ probabilities, each held in a box.

    ``channels[c]`` is organ code c + 1's box and its values inside the box;
    the channel is 0 outside it. A dense channel is one whose box is the whole
    volume. Per voxel the label is the argmax channel's code if that maximum
    reaches the threshold, else background. Ties break toward the lowest code
    so the result is deterministic and independent of evaluation order.
    """
    if not channels:
        raise ValueError("labels_from_soft: need at least one channel")
    if len(channels) > 255:
        raise ValueError("labels_from_soft: at most 255 organ channels supported")
    t = _check_threshold(threshold)
    # A running argmax from a zero peak, updated inside each box only; strict
    # ">" keeps the lowest code on ties, and no channel stack is built. The
    # threshold is > 0, so a voxel where no channel exceeds 0 stays background
    # whichever code it holds.
    peak = np.zeros(grid.dims, np.result_type(*(values for _, values in channels)), order="F")
    best = np.zeros(grid.dims, dtype=np.uint8, order="F")
    for code, (box, values) in enumerate(channels, start=1):
        top = peak[box]
        if top.shape != values.shape:
            raise AlignmentError(
                f"soft channel {code}: values of shape {values.shape} do not fill "
                f"its box of shape {top.shape} in a grid of dims {grid.dims}"
            )
        best[box][values > top] = code
        np.maximum(top, values, out=top)
    codes = np.where(peak >= t, best, np.uint8(0))
    return LabelVolume(grid.with_values(codes), len(channels))


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
            return EMPTY_BOX
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
