import re
import struct
import zlib

import numpy as np
import pytest

from rrmgnn import container


def reseal(raw):
    """`raw` with its CRC32 trailer recomputed, so an edited length or
    metadata byte reaches the check that guards it."""
    body = bytes(raw[:-4])
    return body + struct.pack("<I", zlib.crc32(body))


def test_container_roundtrip(tmp_path):
    rng = np.random.default_rng(8)
    path = tmp_path / "bundle.bin"
    meta = {"note": "roundtrip", "config": {"hidden": 8, "serve_dist": [50.0, 250.0]}}
    arrays = {"w": rng.normal(size=(3, 2)), "b": rng.normal(size=4), "s": np.float64(2.5),
              "empty": np.zeros((0, 3)), "strided": rng.normal(size=(4, 4))[::2, 1:]}
    container.write_bundle(path, meta, arrays)
    meta2, arrays2 = container.read_bundle(path)
    assert meta2 == meta
    assert list(arrays2) == list(arrays)
    for name, arr in arrays.items():
        assert arrays2[name].dtype == np.float64 and arrays2[name].shape == np.shape(arr)
        np.testing.assert_array_equal(arrays2[name], arr, err_msg=name)


def test_container_rejects_bad_magic(tmp_path):
    path = tmp_path / "junk.bin"
    path.write_bytes(b"NOTMAGIC" + b"\x00" * 16)
    with pytest.raises(ValueError):
        container.read_bundle(path)


def test_container_rejects_version_mismatch(tmp_path):
    path = tmp_path / "v.bin"
    container.write_bundle(path, {}, {"x": np.zeros(2)})
    raw = bytearray(path.read_bytes())
    for version in (99, 1):  # 1: a dtype byte per array, no checksum
        raw[8:12] = version.to_bytes(4, "little")
        path.write_bytes(bytes(raw))
        with pytest.raises(ValueError, match=re.escape(str(path)) + ": unsupported "
                           f"container version {version} .*retrain"):
            container.read_bundle(path)


def test_container_failed_write_keeps_previous_file(tmp_path):
    path = tmp_path / "ckpt.bin"
    container.write_bundle(path, {"epoch": 1}, {"x": np.arange(4.0)})
    before = path.read_bytes()
    with pytest.raises(ValueError):
        container.write_bundle(path, {"epoch": 2}, {"y": np.ones(3), "bad": np.array(["x"])})
    assert path.read_bytes() == before
    assert [f.name for f in tmp_path.iterdir()] == ["ckpt.bin"]


def test_container_truncation_at_every_offset_is_a_clear_error(tmp_path):
    path = tmp_path / "t.bin"
    container.write_bundle(path, {"kind": "test"}, {"x": np.arange(3.0), "m": np.eye(2)})
    raw = path.read_bytes()
    for n in range(len(raw)):
        path.write_bytes(raw[:n])
        with pytest.raises(ValueError, match="truncated") as info:
            container.read_bundle(path)
        assert str(path) in str(info.value)


def test_container_flipped_byte_at_every_offset_is_a_clear_error(tmp_path):
    path = tmp_path / "f.bin"
    container.write_bundle(path, {"epoch": 3}, {"w": np.arange(6.0).reshape(2, 3),
                                                "b": np.ones(2)})
    raw = path.read_bytes()
    for offset in range(12, len(raw)):  # past the magic and the version
        bad = bytearray(raw)
        bad[offset] ^= 0xFF
        path.write_bytes(bytes(bad))
        with pytest.raises(ValueError, match="corrupt or truncated") as info:
            container.read_bundle(path)
        assert str(path) in str(info.value), offset


def test_container_oversized_lengths_are_clear_errors(tmp_path):
    path = tmp_path / "o.bin"
    container.write_bundle(path, {}, {"x": np.zeros(2)})
    raw = path.read_bytes()
    meta_len = int.from_bytes(raw[12:20], "little")
    dims_at = 20 + meta_len + 4 + 4 + 1 + 1   # n_arrays, name_len, name "x", ndim
    for offset, part in ((12, "metadata"), (dims_at, "payload")):  # meta_len, dim of "x"
        bad = bytearray(raw)
        bad[offset:offset + 8] = (2 ** 62).to_bytes(8, "little")
        path.write_bytes(reseal(bad))
        with pytest.raises(ValueError, match=f"truncated.*{part}") as info:
            container.read_bundle(path)
        assert str(path) in str(info.value)


def test_container_corrupt_metadata_is_a_clear_error(tmp_path):
    path = tmp_path / "c.bin"
    container.write_bundle(path, {"a": 1}, {})
    raw = bytearray(path.read_bytes())
    raw[20] = 0xFF  # first byte of the JSON blob: not UTF-8
    path.write_bytes(reseal(raw))
    with pytest.raises(ValueError, match="corrupt") as info:
        container.read_bundle(path)
    assert "checksum" not in str(info.value)


def test_container_short_array_count_is_a_clear_error(tmp_path):
    # an array count one short, CRC resealed: the last array is left unread
    path = tmp_path / "s.bin"
    container.write_bundle(path, {}, {"a": np.ones(2), "b": np.zeros(3)})
    raw = bytearray(path.read_bytes())
    count_at = 20 + int.from_bytes(raw[12:20], "little")
    raw[count_at:count_at + 4] = (1).to_bytes(4, "little")
    path.write_bytes(reseal(raw))
    with pytest.raises(ValueError, match="bytes left after the last of 1 arrays") as info:
        container.read_bundle(path)
    assert str(path) in str(info.value)


def test_container_duplicate_array_name_is_a_clear_error(tmp_path):
    # the second array renamed "a" (same name length), CRC resealed
    path = tmp_path / "d.bin"
    container.write_bundle(path, {}, {"a": np.ones(2), "b": np.zeros(3)})
    raw = path.read_bytes()
    name_at = raw.rindex(b"\x01\x00\x00\x00b") + 4
    path.write_bytes(reseal(raw[:name_at] + b"a" + raw[name_at + 1:]))
    with pytest.raises(ValueError, match="duplicate array 'a'") as info:
        container.read_bundle(path)
    assert str(path) in str(info.value)
