import gzip
import random
import struct
import tracemalloc
import zlib

import numpy as np
import pytest

from grids import make_grid, qform_only
from segqa import nifti
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
from segqa.volume import AlignmentError, PredictionSet, grids_aligned


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


def gzip_member(payload: bytes, extra: bytes = b"", comment: bytes = b"") -> bytes:
    """One gzip member, built by hand, whose FEXTRA and FCOMMENT fields hold the given bytes."""
    flags = (4 if extra else 0) | (16 if comment else 0)
    head = b"\x1f\x8b\x08" + bytes([flags]) + b"\x00\x00\x00\x00\x00\xff"
    if extra:
        head += struct.pack("<H", len(extra)) + extra
    if comment:
        head += comment + b"\x00"
    deflate = zlib.compressobj(9, zlib.DEFLATED, -zlib.MAX_WBITS)
    body = deflate.compress(payload) + deflate.flush()
    return head + body + struct.pack("<II", zlib.crc32(payload), len(payload))


def soft_channel(dims=(64, 64, 32)) -> np.ndarray:
    """A float32 organ channel: 1 inside an ellipsoid, a logistic rim, exact 0 beyond."""
    axes = np.ogrid[: dims[0], : dims[1], : dims[2]]
    radii = (dims[0] / 5, dims[1] / 6, dims[2] / 4)
    d2 = sum(((ax - n / 2) / r) ** 2 for ax, n, r in zip(axes, dims, radii))
    p = (1.0 / (1.0 + np.exp((np.sqrt(d2) - 1.0) / 0.12))).astype(np.float32)
    p[p < 0.01] = 0.0
    return p


class SpyLibdeflate:
    """Stands in for the loaded libdeflate and records each gzip_decompress status."""

    def __init__(self, lib):
        self.libdeflate_alloc_decompressor = lib.libdeflate_alloc_decompressor
        self.libdeflate_free_decompressor = lib.libdeflate_free_decompressor
        self._decompress = lib.libdeflate_gzip_decompress
        self.statuses: list[int] = []

    def libdeflate_gzip_decompress(self, *args):
        status = self._decompress(*args)
        self.statuses.append(status)
        return status


@pytest.fixture(autouse=True)
def inflater(request, monkeypatch):
    """Run a class's reads under the inflater its ``inflater`` attribute names.

    "libdeflate" needs the system library and is skipped without it; "zlib"
    hides the library, so every gzip read takes the zlib path.
    """
    name = getattr(request.cls, "inflater", None)
    if name == "zlib":
        monkeypatch.setattr(nifti, "_LIBDEFLATE", None)
    elif name == "libdeflate" and nifti._LIBDEFLATE is None:
        pytest.skip("libdeflate is not installed")


@pytest.fixture
def libdeflate_spy(monkeypatch):
    spy = SpyLibdeflate(nifti._LIBDEFLATE)
    monkeypatch.setattr(nifti, "_LIBDEFLATE", spy)
    return spy


class TestRead:
    inflater = "libdeflate"

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

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    @pytest.mark.parametrize("slot", [3, 5, 11])
    def test_non_finite_sform_rejected(self, bad, slot):
        blob = bytearray(hand_built_file())
        struct.pack_into("<h", blob, 254, 1)  # sform_code
        struct.pack_into("<12f", blob, 280, 1, 0, 0, 0, 0, 1, 0, 0, 0, 0, 1, 0)
        struct.pack_into("<f", blob, 280 + 4 * slot, bad)
        with pytest.raises(NiftiFormatError, match="srow"):
            read_volume(bytes(blob))

    def test_sform_rows_ignored_without_sform_code(self):
        blob = bytearray(hand_built_file())
        struct.pack_into("<f", blob, 280, float("nan"))
        assert np.array_equal(read_volume(bytes(blob)).affine, np.eye(4))

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

    def test_bit_flips_raise_or_decode_unchanged(self, tmp_path):
        # A flipped bit in the deflate data can still inflate to the declared
        # size; only the member's CRC-32 trailer tells the voxels are wrong.
        path = tmp_path / "case0000_organ5.nii.gz"
        write_volume(make_grid(soft_channel()), path)
        blob = path.read_bytes()
        want = read_volume(blob).values
        pick = random.Random(1)
        for _ in range(300):
            pos = pick.randrange(10, len(blob) - 8)
            flipped = bytearray(blob)
            flipped[pos] ^= 1 << pick.randrange(8)
            try:
                got = read_volume(bytes(flipped)).values
            except NiftiFormatError:
                continue
            unchanged = np.array_equal(got, want)
            assert unchanged, f"bit flip in byte {pos} decoded to wrong voxels, no error"

    def test_gzip_member_cut_before_its_trailer(self):
        blob = gzip.compress(hand_built_file())
        with pytest.raises(TruncatedFileError, match="trailer"):
            read_volume(blob[:-4])

    def test_member_longer_than_declared(self, tmp_path):
        raw = hand_built_file() + b"\x07" * 100
        path = tmp_path / "long.nii.gz"
        path.write_bytes(gzip.compress(raw))
        with pytest.raises(NiftiFormatError, match=r"long.nii.gz.*460 bytes.*declares 360"):
            read_volume(path)

    def test_long_gzip_header_fields(self):
        raw = hand_built_file(payload=bytes(range(8)))
        blob = gzip_member(raw, extra=b"x" * 65535, comment=b"c" * 4096)
        assert np.array_equal(read_volume(blob).values, read_volume(raw).values)
        # Cut inside the comment: no deflate data is left.
        with pytest.raises(TruncatedFileError, match="header: need 348 bytes, stream has 0"):
            read_volume(blob[: len(blob) - len(raw) - 100])


def quatern_file(quatern, qoffset=(10.0, -20.0, 5.0), qfac=1.0, pixdim=(2.0, 3.0, 4.0)) -> bytes:
    return qform_only(hand_built_file(pixdim=pixdim), quatern, qoffset, qfac)


QFORM_FIELDS = ("quatern_b", "quatern_c", "quatern_d", "qoffset_x", "qoffset_y", "qoffset_z")


class TestQform:
    """Without an sform, the affine comes from the qform (NIfTI-1 method 2)."""

    @pytest.mark.parametrize("quatern, qfac, rotation", [
        ((0.0, 0.0, 0.0), 1.0, [[2, 0, 0], [0, 3, 0], [0, 0, 4]]),
        ((0.0, 0.0, 1.0), 1.0, [[-2, 0, 0], [0, -3, 0], [0, 0, 4]]),  # 180 degrees about z
        ((0.0, 0.0, 1.0), -1.0, [[-2, 0, 0], [0, -3, 0], [0, 0, -4]]),  # and left-handed
        ((0.5, 0.5, 0.5), 1.0, [[0, 0, 4], [2, 0, 0], [0, 3, 0]]),  # 120 degrees about (1, 1, 1)
    ], ids=["identity", "z180", "z180-qfac", "xyz120"])
    def test_qform_only_volume(self, quatern, qfac, rotation):
        affine = read_volume(quatern_file(quatern, qfac=qfac)).affine
        want = np.eye(4)
        want[:3, :3] = rotation
        want[:3, 3] = (10.0, -20.0, 5.0)
        assert np.array_equal(affine, want)

    def test_quarter_turn_about_x(self):
        half = np.float32(np.sqrt(0.5))
        affine = read_volume(quatern_file((half, 0.0, 0.0), qoffset=(0.0, 0.0, 0.0))).affine
        want = [[2, 0, 0, 0], [0, 0, -4, 0], [0, 3, 0, 0], [0, 0, 0, 1]]
        assert np.allclose(affine, want, atol=1e-6)

    def test_sform_then_qform_then_pixdim(self):
        qform = bytearray(quatern_file((0.0, 0.0, 1.0)))
        both = bytearray(qform)
        struct.pack_into("<h", both, 254, 1)  # sform_code
        struct.pack_into("<12f", both, 280, 2, 0, 0, 1, 0, 3, 0, 2, 0, 0, 4, 3)
        neither = bytearray(qform)
        struct.pack_into("<h", neither, 252, 0)  # qform_code
        assert np.array_equal(read_volume(bytes(both)).affine,
                              [[2, 0, 0, 1], [0, 3, 0, 2], [0, 0, 4, 3], [0, 0, 0, 1]])
        assert np.array_equal(read_volume(bytes(qform)).affine,
                              [[-2, 0, 0, 10], [0, -3, 0, -20], [0, 0, 4, 5], [0, 0, 0, 1]])
        assert np.array_equal(read_volume(bytes(neither)).affine, np.diag((2.0, 3.0, 4.0, 1.0)))

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    @pytest.mark.parametrize("field", QFORM_FIELDS)
    def test_non_finite_field_rejected(self, field, bad):
        params = [0.0] * 6
        params[QFORM_FIELDS.index(field)] = bad
        blob = quatern_file(params[:3], params[3:])
        with pytest.raises(NiftiFormatError, match=rf"^{field}: must be finite"):
            read_volume(blob)
        sform = bytearray(blob)
        struct.pack_into("<h", sform, 254, 1)  # with an sform the qform is not read
        struct.pack_into("<12f", sform, 280, 1, 0, 0, 0, 0, 1, 0, 0, 0, 0, 1, 0)
        assert np.array_equal(read_volume(bytes(sform)).affine, np.eye(4))

    def test_quaternion_longer_than_one_rejected(self):
        with pytest.raises(NiftiFormatError, match=r"^quatern_b/c/d: .* got 1\.28"):
            read_volume(quatern_file((0.8, 0.8, 0.0)))

    def test_quaternion_one_within_rounding_accepted(self):
        # 0.6 and 0.8 as float32 square to just over 1: a 180-degree turn.
        affine = read_volume(quatern_file((0.6, 0.8, 0.0), qoffset=(0.0, 0.0, 0.0))).affine
        rotation = affine[:3, :3] / (2.0, 3.0, 4.0)
        assert np.allclose(rotation @ rotation.T, np.eye(3), atol=1e-6)
        assert np.allclose(rotation, [[-0.28, 0.96, 0], [0.96, 0.28, 0], [0, 0, -1]], atol=1e-6)

    def test_members_with_different_qoffsets_are_not_aligned(self):
        here = read_volume(quatern_file((0.0, 0.0, 1.0), qoffset=(0.0, 0.0, 0.0)))
        there = read_volume(quatern_file((0.0, 0.0, 1.0), qoffset=(5.0, 0.0, 0.0)))
        assert not grids_aligned(here, there)
        channels = [g.with_values(np.zeros(g.dims, np.float32, order="F")) for g in (here, there)]
        with pytest.raises(AlignmentError, match="model 'm1', organ 1"):
            PredictionSet.from_channels("c1", ["m0", "m1"], [channels])

    def test_rotated_volume_is_not_aligned(self):
        plain = read_volume(quatern_file((0.0, 0.0, 0.0), qoffset=(0.0, 0.0, 0.0)))
        turned = read_volume(quatern_file((0.0, 0.0, 1.0), qoffset=(0.0, 0.0, 0.0)))
        assert not grids_aligned(plain, turned)

    def test_written_volume_keeps_the_qform_affine(self, tmp_path):
        grid = read_volume(quatern_file((0.5, 0.5, 0.5)))
        write_volume(grid, tmp_path / "out.nii")
        want = [[0, 0, 4, 10], [2, 0, 0, -20], [0, 3, 0, 5], [0, 0, 0, 1]]
        assert np.array_equal(read_volume(tmp_path / "out.nii").affine, want)

    def test_mutated_qform_reads_as_rotation_or_named_error(self):
        # Random bytes in the quaternion and offsets: either a field-named
        # error, or an affine whose columns are orthogonal, pixdim long, and
        # whose last column holds the offsets.
        rng = np.random.default_rng(11)
        base = bytearray(quatern_file((0.0, 0.0, 0.0)))
        for _ in range(500):
            mutated = bytearray(base)
            for _ in range(int(rng.integers(1, 4))):
                mutated[int(rng.integers(256, 280))] = int(rng.integers(0, 256))
            try:
                affine = read_volume(bytes(mutated)).affine
            except NiftiFormatError as exc:
                assert str(exc).startswith(("quatern_", "qoffset_"))
                continue
            rotation = affine[:3, :3] / (2.0, 3.0, 4.0)
            assert np.allclose(rotation.T @ rotation, np.eye(3), atol=1e-5)
            assert affine[:3, 3].tolist() == list(struct.unpack_from("<3f", mutated, 268))


class TestReadZlib(TestRead):
    inflater = "zlib"


class TestRoundTrip:
    inflater = "libdeflate"

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


class TestRoundTripZlib(TestRoundTrip):
    inflater = "zlib"


class TestFuzz:
    inflater = "libdeflate"

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


class TestFuzzZlib(TestFuzz):
    inflater = "zlib"


class TestLibdeflate:
    inflater = "libdeflate"

    def test_near_maximal_ratio_stays_on_fast_path(self, tmp_path, libdeflate_spy):
        path = tmp_path / "empty_organ.nii.gz"
        write_volume(make_grid(np.zeros((128, 128, 64), np.float32)), path)
        assert 128 * 128 * 64 * 4 / path.stat().st_size > 1000
        grid = read_volume(path)
        assert libdeflate_spy.statuses == [0]
        assert grid.values.dtype == np.float32 and not grid.values.any()

    def test_header_beyond_deflate_bound_reads_through_zlib(self, monkeypatch, libdeflate_spy):
        # 1 GiB claimed by a member of a few dozen bytes: more than the 1032:1
        # deflate can reach, so no buffer of that size is allocated.
        blob = gzip.compress(hand_built_file(shape=(1024, 1024, 1024), payload=b"\x01" * 8))
        with pytest.raises(TruncatedFileError, match="data section") as got:
            read_volume(blob)
        assert libdeflate_spy.statuses == []
        monkeypatch.setattr(nifti, "_LIBDEFLATE", None)
        with pytest.raises(TruncatedFileError) as zlib_only:
            read_volume(blob)
        assert str(got.value) == str(zlib_only.value)

    def test_corrupt_member_falls_back_to_zlib(self, libdeflate_spy):
        blob = bytearray(gzip.compress(hand_built_file()))
        blob[-8] ^= 0xFF
        with pytest.raises(NiftiFormatError, match="gzip stream: .*incorrect data check"):
            read_volume(bytes(blob))
        assert len(libdeflate_spy.statuses) == 1 and libdeflate_spy.statuses[0] != 0

    def test_decode_peak_is_the_channel_and_the_file(self, tmp_path):
        # The header's inflater, and its copy of the file, are gone before the
        # channel's buffer is allocated.
        values = soft_channel((128, 128, 64))
        path = tmp_path / "organ.nii.gz"
        write_volume(make_grid(values), path)
        file_bytes = path.stat().st_size
        assert file_bytes > 150_000
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            grid = read_volume(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.array_equal(grid.values, values)
        assert values.nbytes >= 4 << 20
        assert peak <= values.nbytes + file_bytes + 100_000, (peak, values.nbytes, file_bytes)


class TestWritePeak:
    @pytest.mark.parametrize("name", ["mask.nii", "mask.nii.gz"])
    def test_write_holds_no_copy_of_the_payload(self, tmp_path, name):
        # The voxels are written from the array's own buffer, not from a
        # transposed copy joined to the header.
        rng = np.random.default_rng(4)
        values = np.asfortranarray(rng.random((128, 128, 64)) < 0.3, np.uint8)
        grid = make_grid(values)
        path = tmp_path / name
        write_volume(grid, tmp_path / ("warm-up" + path.suffix))
        tracemalloc.start()
        try:
            write_volume(grid, path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.array_equal(read_volume(path).values, values)
        assert peak < values.nbytes, (peak, values.nbytes)

    def test_c_order_grid_writes_the_same_bytes(self, tmp_path, rng):
        values = rng.integers(0, 4, (5, 4, 3)).astype(np.uint8)
        for suffix in (".nii", ".nii.gz"):
            c, f = tmp_path / f"c{suffix}", tmp_path / f"f{suffix}"
            write_volume(make_grid(np.ascontiguousarray(values)), c)
            write_volume(make_grid(np.asfortranarray(values)), f)
            assert c.read_bytes() == f.read_bytes()


class TestWriteByRename:
    def test_failed_write_keeps_previous_volume(self, tmp_path, monkeypatch):
        path = tmp_path / "case_organ1.nii.gz"
        write_volume(make_grid(np.zeros((4, 4, 4)), dtype=np.uint8), path)
        before = path.read_bytes()
        real_write = gzip.GzipFile.write

        def half_then_fail(self, data):
            real_write(self, bytes(data)[: len(data) // 2])
            raise OSError("disk full")

        monkeypatch.setattr(gzip.GzipFile, "write", half_then_fail)
        with pytest.raises(OSError, match="disk full"):
            write_volume(make_grid(np.ones((4, 4, 4)), dtype=np.uint8), path)
        monkeypatch.undo()
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == [path.name]
