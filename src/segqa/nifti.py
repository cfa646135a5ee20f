"""Bit-exact NIfTI-1 reader/writer for 3D volumes, plain or gzip-compressed.

Only the single-file little-endian flavor is handled (extension .nii or
.nii.gz), with uint8, int16 and float32 payloads; that covers the public
abdominal CT corpora this toolkit targets. The reader is defensive, so
arbitrary input degrades to a structured error rather than a crash. It never
sizes an allocation from header fields beyond what the input can fill: a
plain file's data section must be present in the bytes read, and a gzip
buffer of the declared size is allocated only when that size is at most
1032 times the compressed bytes, deflate's largest expansion.

zlib inflates the first bytes of a gzip member to read the header, and its
decompressor, with the copy of the input it did not consume, is dropped
before the voxel buffer is allocated. When the system libdeflate is
installed (loaded once, at import, through ctypes), it then inflates the
whole member straight into one buffer of exactly the declared size, and the
voxels are a view of that buffer. Everything else goes through zlib, with
its output capped at one byte past the declared size: no library, a size
beyond the 1032:1 bound, or a member libdeflate does not decode to exactly
that size. So every error is raised by the zlib path, and the voxels are the
same on either path.
"""

from __future__ import annotations

import contextlib
import ctypes
import ctypes.util
import gzip
import math
import os
import struct
import zlib
from dataclasses import dataclass
from pathlib import Path
from typing import IO, BinaryIO, Iterator, Union

import numpy as np

from .volume import VolumeGrid

HEADER_SIZE = 348
VOX_OFFSET = 352  # header + 4-byte extender
MAGIC = b"n+1\x00"
GZIP_MAGIC = b"\x1f\x8b"

_HEADER = struct.Struct(
    "<i10s18sihbb8h3fhhhh8ffffhbbffffii80s24shh6f4f4f4f16s4s"
)
assert _HEADER.size == HEADER_SIZE

# datatype code -> little-endian numpy dtype
_DTYPES = {
    2: np.dtype("<u1"),
    4: np.dtype("<i2"),
    16: np.dtype("<f4"),
}
_CODES = {np.dtype(np.uint8): 2, np.dtype(np.int16): 4, np.dtype(np.float32): 16}

Source = Union[str, Path, bytes, bytearray, BinaryIO]


class NiftiFormatError(ValueError):
    """The input is not a volume this reader accepts."""


class BadMagicError(NiftiFormatError):
    """Magic string or sizeof_hdr does not identify a supported NIfTI-1 file."""


class UnsupportedDatatypeError(NiftiFormatError):
    """The header declares a datatype outside uint8/int16/float32."""


class TruncatedFileError(NiftiFormatError):
    """The stream ends before the header or declared data section."""


class BadDimensionError(NiftiFormatError):
    """The dim field does not describe a plain 3D volume."""


@dataclass(frozen=True)
class NiftiHeader:
    """Parsed subset of the 348-byte NIfTI-1 header used by this toolkit."""

    dim: tuple[int, ...]
    datatype: int
    bitpix: int
    pixdim: tuple[float, ...]
    vox_offset: int
    scl_slope: float
    scl_inter: float
    qform_code: int
    sform_code: int
    srow: tuple[tuple[float, float, float, float], ...]

    @property
    def shape(self) -> tuple[int, int, int]:
        return self.dim[1], self.dim[2], self.dim[3]

    @property
    def spacing(self) -> tuple[float, float, float]:
        return self.pixdim[1], self.pixdim[2], self.pixdim[3]


def parse_header(buf: bytes) -> NiftiHeader:
    """Validate and extract the header fields from the first 348 bytes."""
    if len(buf) < HEADER_SIZE:
        raise TruncatedFileError(
            f"header: need {HEADER_SIZE} bytes, stream has {len(buf)}"
        )
    (sizeof_hdr,) = struct.unpack("<i", buf[:4])
    if sizeof_hdr != HEADER_SIZE:
        (swapped,) = struct.unpack(">i", buf[:4])
        if swapped == HEADER_SIZE:
            raise BadMagicError("sizeof_hdr: big-endian (byte-swapped) files are not supported")
        raise BadMagicError(f"sizeof_hdr: expected {HEADER_SIZE}, got {sizeof_hdr}")

    fields = _HEADER.unpack(buf[:HEADER_SIZE])
    magic = fields[-1]
    if magic != MAGIC:
        if magic == b"ni1\x00":
            raise BadMagicError("magic: two-file (.hdr/.img) NIfTI pairs are not supported")
        raise BadMagicError(f"magic: expected {MAGIC!r}, got {magic!r}")

    dim = fields[7:15]
    if dim[0] != 3:
        raise BadDimensionError(f"dim[0]: expected 3 spatial dimensions, got {dim[0]}")
    for axis in (1, 2, 3):
        if dim[axis] < 1:
            raise BadDimensionError(f"dim[{axis}]: must be >= 1, got {dim[axis]}")

    datatype = fields[19]
    if datatype not in _DTYPES:
        raise UnsupportedDatatypeError(
            f"datatype: code {datatype} not supported (uint8=2, int16=4, float32=16)"
        )
    bitpix = fields[20]
    if bitpix != _DTYPES[datatype].itemsize * 8:
        raise NiftiFormatError(f"bitpix: {bitpix} inconsistent with datatype {datatype}")

    pixdim = fields[22:30]
    for axis in (1, 2, 3):
        p = pixdim[axis]
        if not math.isfinite(p) or p <= 0.0:
            raise NiftiFormatError(f"pixdim[{axis}]: must be a positive real, got {p}")

    raw_offset = fields[30]
    if not math.isfinite(raw_offset) or raw_offset < HEADER_SIZE:
        raise NiftiFormatError(f"vox_offset: must be >= {HEADER_SIZE}, got {raw_offset}")
    vox_offset = int(raw_offset)

    scl_slope, scl_inter = fields[31], fields[32]
    if not (math.isfinite(scl_slope) and math.isfinite(scl_inter)):
        raise NiftiFormatError(f"scl_slope/scl_inter: must be finite, got {scl_slope}/{scl_inter}")

    sform_code = int(fields[45])
    srow = (tuple(fields[52:56]), tuple(fields[56:60]), tuple(fields[60:64]))
    if sform_code > 0 and not all(math.isfinite(v) for row in srow for v in row):
        raise NiftiFormatError(f"srow: sform rows must be finite, got {srow}")

    return NiftiHeader(
        dim=tuple(int(d) for d in dim),
        datatype=int(datatype),
        bitpix=int(bitpix),
        pixdim=tuple(float(p) for p in pixdim),
        vox_offset=vox_offset,
        scl_slope=float(scl_slope),
        scl_inter=float(scl_inter),
        qform_code=int(fields[44]),
        sform_code=sform_code,
        srow=srow,
    )


def _gunzip_upto(data: bytes, limit: int) -> tuple[bytes, zlib._Decompress]:
    """Inflate a gzip stream up to `limit` bytes, the member's end or the end of `data`.

    Capping the output keeps a forged header from driving allocation beyond
    what the stream actually contains plus the amount the caller asked for.
    Returns the bytes and the zlib decompressor, which tells whether the
    member ended (``eof``) and holds the input not yet inflated.
    """
    decomp = zlib.decompressobj(16 + zlib.MAX_WBITS)
    try:
        return decomp.decompress(data, limit), decomp
    except zlib.error as exc:
        raise NiftiFormatError(f"gzip stream: {exc}") from exc


def _gunzip_member(data: bytes, size: int) -> bytes:
    """Inflate with zlib a gzip member whose header declares `size` bytes.

    zlib is asked for one byte more, so it reads on to the member's end and
    checks the CRC-32 and size trailer there. A short member is returned as
    it is, for the caller's truncation error.
    """
    buf, decomp = _gunzip_upto(data, size + 1)
    if len(buf) > size:
        held = len(buf)
        try:
            while decomp.unconsumed_tail and not decomp.eof:
                held += len(decomp.decompress(decomp.unconsumed_tail, 1 << 20))
            held += len(decomp.flush())
        except zlib.error as exc:
            raise NiftiFormatError(f"gzip stream: {exc}") from exc
        raise NiftiFormatError(
            f"gzip stream: member holds {held} bytes, the header declares {size}"
        )
    if len(buf) == size and not decomp.eof:
        raise TruncatedFileError("gzip stream: ends before the member's CRC-32 and size trailer")
    return buf


def _load_libdeflate():
    """The system libdeflate with the three functions the reader calls declared, or None."""
    try:
        lib = ctypes.CDLL("libdeflate.so.0")
    except OSError:
        name = ctypes.util.find_library("deflate")
        if name is None:
            return None
        try:
            lib = ctypes.CDLL(name)
        except OSError:
            return None
    try:
        lib.libdeflate_alloc_decompressor.argtypes = []
        lib.libdeflate_alloc_decompressor.restype = ctypes.c_void_p
        lib.libdeflate_gzip_decompress.argtypes = [
            ctypes.c_void_p,  # decompressor
            ctypes.c_char_p, ctypes.c_size_t,  # in, in_nbytes
            ctypes.c_void_p, ctypes.c_size_t,  # out, out_nbytes_avail
            ctypes.c_void_p,  # actual_out_nbytes_ret
        ]
        lib.libdeflate_gzip_decompress.restype = ctypes.c_int
        lib.libdeflate_free_decompressor.argtypes = [ctypes.c_void_p]
        lib.libdeflate_free_decompressor.restype = None
    except AttributeError:
        return None
    return lib


_LIBDEFLATE = _load_libdeflate()
# Deflate's largest expansion: a 258-byte match coded in two bits.
_MAX_INFLATE_RATIO = 1032


def _libdeflate_gunzip(data: bytes, size: int) -> np.ndarray | None:
    """The gzip member in `data` inflated by libdeflate into exactly `size` bytes.

    None when the library is not loaded, when `data` is too short to inflate
    to `size` bytes, or when the member does not decode, with a matching
    CRC-32 and size trailer, to exactly `size` bytes.
    """
    lib = _LIBDEFLATE
    if lib is None or size > _MAX_INFLATE_RATIO * len(data):
        return None
    out = np.empty(size, dtype=np.uint8)
    decomp = lib.libdeflate_alloc_decompressor()
    if not decomp:
        return None
    try:
        # No actual-size pointer: success means the member filled `out` exactly.
        status = lib.libdeflate_gzip_decompress(
            decomp, data, len(data), out.ctypes.data, size, None
        )
    finally:
        lib.libdeflate_free_decompressor(decomp)
    return out if status == 0 else None


def _read_source(source: Source) -> tuple[bytes, str]:
    if isinstance(source, (bytes, bytearray)):
        return bytes(source), "<bytes>"
    if isinstance(source, (str, Path)):
        path = Path(source)
        return path.read_bytes(), str(path)
    data = source.read()
    if not isinstance(data, bytes):
        raise NiftiFormatError("stream: expected a binary file object")
    return data, getattr(source, "name", "<stream>")


def read_volume(source: Source) -> VolumeGrid:
    """Read a NIfTI-1 volume (optionally gzipped) into a VolumeGrid.

    Spacing comes from pixdim, orientation from the sform rows when set and
    a spacing-scaled identity otherwise. Slope/intercept scaling is applied
    at read time; files written by this module always carry slope 1 and
    intercept 0 so integer volumes round-trip exactly.
    """
    raw, name = _read_source(source)
    try:
        return _decode(raw)
    except NiftiFormatError as exc:
        if name in ("<bytes>", "<stream>"):
            raise
        raise type(exc)(f"{name}: {exc}") from exc


def _decode(raw: bytes) -> VolumeGrid:
    if raw[:2] == GZIP_MAGIC:
        # No name keeps the decompressor, so its copy of the file dies here.
        header = parse_header(_gunzip_upto(raw, VOX_OFFSET)[0])
        needed = header.vox_offset + _payload_bytes(header)
        buf = _libdeflate_gunzip(raw, needed)
        if buf is None:
            buf = _gunzip_member(raw, needed)
    else:
        buf = raw
        header = parse_header(buf)
        needed = header.vox_offset + _payload_bytes(header)

    if len(buf) < needed:
        raise TruncatedFileError(
            f"data section: need {needed - header.vox_offset} bytes at offset "
            f"{header.vox_offset}, have {max(0, len(buf) - header.vox_offset)}"
        )

    nx, ny, nz = header.shape
    dtype = _DTYPES[header.datatype]
    flat = np.frombuffer(buf, dtype=dtype, count=nx * ny * nz, offset=header.vox_offset)
    values = flat.reshape((nx, ny, nz), order="F")

    slope, inter = header.scl_slope, header.scl_inter
    if slope != 0.0 and (slope != 1.0 or inter != 0.0):
        values = (values.astype(np.float32) * np.float32(slope) + np.float32(inter))

    if header.sform_code > 0:
        affine = np.array([*header.srow, (0.0, 0.0, 0.0, 1.0)], dtype=np.float64)
    else:
        affine = np.diag((*header.spacing, 1.0))
    return VolumeGrid(values, header.spacing, affine)


def _payload_bytes(header: NiftiHeader) -> int:
    nx, ny, nz = header.shape
    return nx * ny * nz * _DTYPES[header.datatype].itemsize


def header_bytes(grid: VolumeGrid) -> bytes:
    """Serialize the 348-byte header for a grid (slope 1, intercept 0, sform set)."""
    code = _CODES[grid.values.dtype]
    dtype = _DTYPES[code]
    nx, ny, nz = grid.dims
    sx, sy, sz = grid.spacing
    aff = grid.affine
    return _HEADER.pack(
        HEADER_SIZE,            # sizeof_hdr
        b"", b"",               # data_type, db_name (unused)
        0, 0, 0,                # extents, session_error, regular
        0,                      # dim_info
        3, nx, ny, nz, 1, 1, 1, 1,          # dim
        0.0, 0.0, 0.0,          # intent_p1..3
        0,                      # intent_code
        code,                   # datatype
        dtype.itemsize * 8,     # bitpix
        0,                      # slice_start
        1.0, sx, sy, sz, 0.0, 0.0, 0.0, 0.0,  # pixdim (qfac = 1)
        float(VOX_OFFSET),      # vox_offset
        1.0, 0.0,               # scl_slope, scl_inter
        0, 0,                   # slice_end, slice_code
        2,                      # xyzt_units: millimetres
        0.0, 0.0, 0.0, 0.0,     # cal_max, cal_min, slice_duration, toffset
        0, 0,                   # glmax, glmin
        b"", b"",               # descrip, aux_file
        0, 1,                   # qform_code, sform_code
        0.0, 0.0, 0.0, 0.0, 0.0, 0.0,       # quaternion params + offsets
        float(aff[0, 0]), float(aff[0, 1]), float(aff[0, 2]), float(aff[0, 3]),
        float(aff[1, 0]), float(aff[1, 1]), float(aff[1, 2]), float(aff[1, 3]),
        float(aff[2, 0]), float(aff[2, 1]), float(aff[2, 2]), float(aff[2, 3]),
        b"",                    # intent_name
        MAGIC,
    )


@contextlib.contextmanager
def open_replacing(path: str | Path, mode: str = "wb", **kwargs) -> Iterator[IO]:
    """Open a temp file beside ``path``; rename it over ``path`` when the block succeeds.

    Readers and later runs see the whole old file or the whole new one, never
    a truncated one; if the block raises, the temp file is removed. The temp
    name ``.<name>.<pid>.tmp`` matches no discovery pattern, and the pid keeps
    parallel workers apart. It does not fsync; a caller that needs the data
    on disk fsyncs inside the block.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, mode, **kwargs) as f:
            yield f
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def write_volume(grid: VolumeGrid, path: str | Path) -> None:
    """Write a grid as a single-file NIfTI-1 volume, gzipped when the path ends in .gz.

    Writes are deterministic (gzip timestamp pinned to zero), so identical
    grids produce identical bytes. The file is written by rename (see
    ``open_replacing``).
    """
    path = Path(path)
    head = header_bytes(grid) + b"\x00\x00\x00\x00"
    # The transpose of an x-fastest array is C order, the file's voxel order,
    # so its own buffer is written; a grid in any other order is copied once.
    voxels = np.ascontiguousarray(grid.values.T, dtype=_DTYPES[_CODES[grid.values.dtype]])
    with open_replacing(path) as f:
        if path.suffix == ".gz":
            # empty filename + zero mtime keep the gzip header byte-stable
            with gzip.GzipFile(filename="", fileobj=f, mode="wb", mtime=0) as gz:
                gz.write(head)
                gz.write(voxels)
        else:
            f.write(head)
            f.write(voxels)
