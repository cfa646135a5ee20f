import gzip
import struct

import numpy as np
import pytest

from grids import make_grid
from segqa.nifti import (
    HEADER_SIZE,
    BadDimensionError,
    BadMagicError,
    NiftiFormatError,
    TruncatedFileError,
    UnsupportedDatatypeError,
    read_volume,
    write_volume,
)


def hand_built_file(
    shape=(2, 2, 2),
    datatype=2,
    bitpix=8,
    payload=None,
    dim0=3,
    magic=b"n+1\x00",
    sizeof_hdr=348,
    vox_offset=352.0,
    pixdim=(1.0, 1.0, 1.0),
) -> bytes:
    """Assemble a minimal NIfTI-1 file byte by byte, independent of the writer."""
    header = bytearray(HEADER_SIZE)
    struct.pack_into("<i", header, 0, sizeof_hdr)
    struct.pack_into("<8h", header, 40, dim0, *shape, 1, 1, 1, 1)
    struct.pack_into("<h", header, 70, datatype)
    struct.pack_into("<h", header, 72, bitpix)
    struct.pack_into("<8f", header, 76, 1.0, *pixdim, 0.0, 0.0, 0.0, 0.0)
    struct.pack_into("<f", header, 108, vox_offset)
    struct.pack_into("<f", header, 112, 1.0)  # scl_slope
    struct.pack_into("<4s", header, 344, magic)
    if payload is None:
        n = shape[0] * shape[1] * shape[2] * (bitpix // 8)
        payload = bytes([1]) * n
    return bytes(header) + b"\x00\x00\x00\x00" + payload


class TestRead:
    def test_hand_built_uint8_volume(self):
        grid = read_volume(hand_built_file())
        assert grid.dims == (2, 2, 2)
        assert grid.values.dtype == np.uint8
        assert grid.values.sum() == 8

    def test_gzip_transparency(self):
        raw = hand_built_file()
        grid = read_volume(gzip.compress(raw))
        assert grid.dims == (2, 2, 2)
        assert grid.values.sum() == 8

    def test_unsupported_datatype(self):
        with pytest.raises(UnsupportedDatatypeError, match="datatype"):
            read_volume(hand_built_file(datatype=64, bitpix=64))

    def test_bad_magic(self):
        with pytest.raises(BadMagicError, match="magic"):
            read_volume(hand_built_file(magic=b"XXXX"))

    def test_pair_format_rejected(self):
        with pytest.raises(BadMagicError, match="pairs"):
            read_volume(hand_built_file(magic=b"ni1\x00"))

    def test_byte_swapped_rejected(self):
        swapped = struct.unpack("<i", struct.pack(">i", 348))[0]
        with pytest.raises(BadMagicError, match="big-endian"):
            read_volume(hand_built_file(sizeof_hdr=swapped))

    def test_wrong_dim0(self):
        with pytest.raises(BadDimensionError, match=r"dim\[0\]"):
            read_volume(hand_built_file(dim0=4))

    def test_truncated_data_section(self):
        raw = hand_built_file()
        with pytest.raises(TruncatedFileError, match="data section"):
            read_volume(raw[:-3])

    def test_truncated_header(self):
        with pytest.raises(TruncatedFileError, match="header"):
            read_volume(b"\x00" * 100)

    def test_bitpix_mismatch(self):
        with pytest.raises(NiftiFormatError, match="bitpix"):
            read_volume(hand_built_file(bitpix=16))

    def test_nonpositive_pixdim(self):
        with pytest.raises(NiftiFormatError, match="pixdim"):
            read_volume(hand_built_file(pixdim=(1.0, -2.0, 1.0)))

    def test_slope_scaling_applied(self):
        raw = hand_built_file()
        header = bytearray(raw[:HEADER_SIZE])
        struct.pack_into("<ff", header, 112, 2.0, 10.0)  # slope 2, inter 10
        grid = read_volume(bytes(header) + raw[HEADER_SIZE:])
        assert grid.values.dtype == np.float32
        assert float(grid.values[0, 0, 0]) == 12.0

    def test_path_in_error_message(self, tmp_path):
        bad = tmp_path / "bad.nii"
        bad.write_bytes(hand_built_file(magic=b"XXXX"))
        with pytest.raises(BadMagicError, match="bad.nii"):
            read_volume(bad)

    def test_minimal_file_without_extender(self):
        # payload directly after the 348-byte header is legal
        raw = hand_built_file(vox_offset=348.0)
        trimmed = raw[:348] + raw[352:]
        grid = read_volume(trimmed)
        assert grid.values.sum() == 8

    def test_nonstandard_vox_offset(self):
        raw = hand_built_file(vox_offset=400.0)
        padded = raw[:348] + b"\x00" * (400 - 348) + raw[352:]
        grid = read_volume(padded)
        assert grid.dims == (2, 2, 2)
        assert grid.values.sum() == 8
        grid = read_volume(__import__("gzip").compress(padded))
        assert grid.values.sum() == 8


class TestRoundTrip:
    @pytest.mark.parametrize("dtype", [np.uint8, np.int16, np.float32])
    @pytest.mark.parametrize("compress", [False, True])
    def test_exact(self, tmp_path, rng, dtype, compress):
        if dtype == np.uint8:
            values = rng.integers(0, 256, (16, 16, 16)).astype(dtype)
        elif dtype == np.int16:
            values = rng.integers(-32768, 32768, (16, 16, 16)).astype(dtype)
        else:
            values = rng.standard_normal((16, 16, 16)).astype(dtype)
        grid = make_grid(values, spacing=(0.75, 1.5, 3.0))
        path = tmp_path / ("v.nii.gz" if compress else "v.nii")
        write_volume(grid, path)
        back = read_volume(path)
        assert back.dims == grid.dims
        assert back.spacing == grid.spacing
        assert back.values.dtype == grid.values.dtype
        assert np.array_equal(back.values, grid.values)

    def test_write_is_deterministic(self, tmp_path, rng):
        grid = make_grid(rng.integers(0, 2, (8, 8, 8)), dtype=np.uint8)
        a, b = tmp_path / "a.nii.gz", tmp_path / "b.nii.gz"
        write_volume(grid, a)
        write_volume(grid, b)
        assert a.read_bytes() == b.read_bytes()

    def test_affine_survives(self, tmp_path):
        from segqa.volume import VolumeGrid

        affine = np.array(
            [
                [0.0, -1.5, 0.0, 10.0],
                [1.5, 0.0, 0.0, -20.0],
                [0.0, 0.0, 3.0, 5.0],
                [0.0, 0.0, 0.0, 1.0],
            ]
        )
        grid = VolumeGrid(np.zeros((2, 2, 2), dtype=np.uint8), (1.5, 1.5, 3.0), affine)
        path = tmp_path / "a.nii"
        write_volume(grid, path)
        assert np.allclose(read_volume(path).affine, affine)


class TestFuzz:
    def test_random_bytes_never_crash(self):
        rng = np.random.default_rng(99)
        for _ in range(500):
            blob = rng.bytes(int(rng.integers(0, 700)))
            if rng.random() < 0.25:
                blob = b"\x1f\x8b" + blob
            try:
                read_volume(blob)
            except NiftiFormatError:
                pass

    def test_mutated_valid_headers_yield_structured_errors(self):
        rng = np.random.default_rng(7)
        base = bytearray(hand_built_file())
        for _ in range(500):
            mutated = bytearray(base)
            for _ in range(int(rng.integers(1, 6))):
                mutated[int(rng.integers(0, len(mutated)))] = int(rng.integers(0, 256))
            try:
                read_volume(bytes(mutated))
            except NiftiFormatError:
                pass
